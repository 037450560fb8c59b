//! Parameter-sensitivity study (the analysis the paper defers to its
//! technical report \[17\]).
//!
//! §3.4 claims "sensitivity analysis … has shown that the exact value of
//! C_du does not have a significant effect on the average USM" and sets
//! `C_forget = 0.9` "following current practice". This experiment sweeps the
//! paper's constants one at a time on `med-unif` and reports the USM so the
//! claim can be checked against this reproduction.

use std::fmt::Write as _;
use unit_bench::cli::Shared;
use unit_bench::default_workload_plan;
use unit_bench::render::{f, Table};
use unit_bench::row;
use unit_core::config::UnitConfig;
use unit_core::time::SimDuration;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_sim::run_simulation;
use unit_workload::{UpdateDistribution, UpdateVolume};

/// One swept constant: its name, the paper's value, the points, and how a
/// point lands in the configuration.
type Sweep = (
    &'static str,
    &'static str,
    &'static [f64],
    fn(&mut UnitConfig, f64),
);

const SWEEPS: [Sweep; 6] = [
    (
        "C_du (degrade step)",
        "0.1",
        &[0.05, 0.1, 0.2, 0.4],
        |c, v| {
            c.c_du = v;
        },
    ),
    (
        "C_forget (ticket forgetting)",
        "0.9",
        &[0.5, 0.7, 0.9, 0.99, 1.0],
        |c, v| c.c_forget = v,
    ),
    (
        "C_uu (upgrade step)",
        "0.5",
        &[0.1, 0.25, 0.5, 1.0],
        |c, v| {
            c.c_uu = v;
        },
    ),
    (
        "LBC grace period (s)",
        "unspecified",
        &[25.0, 50.0, 100.0, 200.0, 400.0],
        |c, v| c.grace_period = SimDuration::from_secs(v as u64),
    ),
    (
        "C_flex step (TAC/LAC)",
        "0.10",
        &[0.05, 0.10, 0.20, 0.40],
        |c, v| c.c_flex_step = v,
    ),
    (
        "degradation cap (x ideal)",
        "unbounded",
        &[8.0, 16.0, 64.0, 256.0],
        |c, v| c.max_degradation_factor = v,
    ),
];

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);
    let weights = UsmWeights::naive();
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);

    let mut rows = Vec::new();
    let mut notes = "USM spread across each sweep:\n".to_string();
    for (name, paper_value, values, set) in SWEEPS {
        let mut usms: Vec<f64> = Vec::new();
        for &v in values {
            let mut cfg = plan.unit_config(weights);
            set(&mut cfg, v);
            let report = run_simulation(
                &bundle.trace,
                UnitPolicy::new(cfg),
                plan.sim_config(weights),
            );
            let [rs, rr, rfm, rfs] = report.ratios();
            usms.push(report.average_usm());
            rows.push(row![
                name,
                v,
                f(report.average_usm(), 4),
                f(rs, 4),
                f(report.applied_ratio(), 4),
                f(rr, 4),
                f(rfm, 4),
                f(rfs, 4)
            ]);
        }
        let spread = usms.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - usms.iter().copied().fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            notes,
            "  {name:<30} {spread:.3}  (paper value: {paper_value})"
        );
    }
    Table {
        stem: "sensitivity",
        title: format!(
            "Sensitivity study on med-unif, scale 1/{} (naive USM)",
            args.scale
        ),
        header: row![
            "parameter",
            "value",
            "usm",
            "rs",
            "applied",
            "rr",
            "rfm",
            "rfs"
        ],
        rows,
        notes: notes
            + "Paper claim (§3.4): the exact C_du value does not significantly affect the\n\
               average USM.\n",
    }
}
