//! Ablation study: how much each UNIT design choice contributes, and how
//! the documented deviations from the paper's literal text behave.
//!
//! Runs UNIT variants over `med-unif` (the Fig. 5/6 workload) and reports
//! the resulting USM and outcome decomposition. Backs the design decisions
//! recorded in DESIGN.md with data.

use unit_baselines::DeferrablePolicy;
use unit_bench::cli::Shared;
use unit_bench::render::{f, text_table, Table};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_policy, PolicyKind};
use unit_core::config::{UnitConfig, VictimWeighting};
use unit_core::modulation::UpgradeRule;
use unit_core::time::SimDuration;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_sim::{run_simulation, SchedulingDiscipline, SimReport};
use unit_workload::{UpdateDistribution, UpdateVolume};

fn variants(base: UnitConfig) -> Vec<(&'static str, UnitConfig)> {
    vec![
        ("default", base.clone()),
        (
            "no admission control",
            UnitConfig {
                admission_enabled: false,
                ..base.clone()
            },
        ),
        (
            "no modulation (degrade cap 1x)",
            UnitConfig {
                max_degradation_factor: 1.0,
                ..base.clone()
            },
        ),
        (
            "shift-min victim weights (paper literal)",
            UnitConfig {
                victim_weighting: VictimWeighting::ShiftMin,
                ..base.clone()
            },
        ),
        (
            "raw qe/qt access tickets (paper literal)",
            UnitConfig {
                access_ticket_scale: Some(1.0),
                ..base.clone()
            },
        ),
        (
            "linear upgrade rule (Eq. 10 as printed)",
            UnitConfig {
                upgrade_rule: UpgradeRule::LinearIdealStep,
                ..base.clone()
            },
        ),
        (
            "unbudgeted halving upgrades",
            UnitConfig {
                upgrade_step_util: 1.0, // effectively no budget
                ..base.clone()
            },
        ),
        (
            "small degrade budget (1%)",
            UnitConfig {
                modulation_step_util: 0.01,
                ..base.clone()
            },
        ),
        (
            "sluggish controller (grace 500s)",
            UnitConfig {
                grace_period: SimDuration::from_secs(500),
                ..base.clone()
            },
        ),
    ]
}

/// One table row: the variant's USM, outcome decomposition and applied
/// share.
fn report_row(name: &str, report: &SimReport) -> Vec<String> {
    let [rs, rr, rfm, rfs] = report.ratios();
    row![
        name,
        f(report.average_usm(), 4),
        f(rs, 4),
        f(rr, 4),
        f(rfm, 4),
        f(rfs, 4),
        f(report.applied_ratio(), 4),
    ]
}

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);
    let weights = UsmWeights::naive();
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);

    let mut rows = Vec::new();
    for (name, cfg) in variants(plan.unit_config(weights)) {
        let report = run_simulation(
            &bundle.trace,
            UnitPolicy::new(cfg),
            plan.sim_config(weights),
        );
        rows.push(report_row(name, &report));
    }

    // Substrate ablation: the scheduling discipline §3.1 fixes.
    for (name, discipline) in [
        ("global EDF across classes", SchedulingDiscipline::GlobalEdf),
        ("queries always first", SchedulingDiscipline::QueryFirst),
    ] {
        let report = run_simulation(
            &bundle.trace,
            UnitPolicy::new(plan.unit_config(weights)),
            plan.sim_config(weights).with_discipline(discipline),
        );
        rows.push(report_row(name, &report));
    }

    // Reference lines, kept out of the table (they are not UNIT variants):
    // deferrable update scheduling (Xiong et al.) from the related work, and
    // the strongest baseline on this workload.
    let def = run_simulation(
        &bundle.trace,
        DeferrablePolicy::default(),
        plan.sim_config(weights),
    );
    let qmf = run_policy(&plan, &bundle, PolicyKind::Qmf, weights).report;
    let header = row!["variant", "usm", "rs", "rr", "rfm", "rfs", "applied"];
    let notes = format!(
        "reference policies on the same workload:\n{}",
        text_table(
            &header,
            &[
                report_row("DEF: deferrable updates (RTSS'05)", &def),
                report_row("QMF", &qmf),
            ],
        )
    );
    Table {
        stem: "ablation",
        title: format!(
            "Ablation study: UNIT variants on med-unif, scale 1/{} (naive USM)",
            args.scale
        ),
        header,
        rows,
        notes,
    }
}
