//! Figure 6 — outcome-ratio decomposition (Success / Rejection / DMF / DSF)
//! on `med-unif`.
//!
//! * (a) IMU, ODU, QMF — weight-insensitive, one bar each;
//! * (b) UNIT under the three Figure 5(a) weightings — the controller
//!   reshapes the outcome mix to shrink whichever failure is priciest
//!   (smallest rejection share under high `C_r`, smallest DMF share under
//!   high `C_fm`, ...).

use super::table2_weightings;
use unit_bench::cli::Shared;
use unit_bench::render::{f, Table};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_policy, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_workload::{UpdateDistribution, UpdateVolume};

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    // (a) the weight-insensitive baselines, (b) UNIT across the Figure 5(a)
    // weightings.
    let baselines = [PolicyKind::Imu, PolicyKind::Odu, PolicyKind::Qmf]
        .map(|p| (p, "any".to_string(), UsmWeights::naive()));
    let unit = table2_weightings()
        .into_iter()
        .take(3)
        .map(|(_, setup, weights)| (PolicyKind::Unit, format!("UNIT, {setup}"), weights));
    let rows = baselines
        .into_iter()
        .chain(unit)
        .map(|(policy, setup, weights)| {
            let [rs, rr, rfm, rfs] = run_policy(&plan, &bundle, policy, weights).report.ratios();
            row![
                policy.name(),
                setup,
                f(rs, 4),
                f(rr, 4),
                f(rfm, 4),
                f(rfs, 4)
            ]
        })
        .collect();
    Table {
        stem: "fig6",
        title: format!(
            "Figure 6: outcome-ratio decomposition (med-unif, scale 1/{})",
            args.scale
        ),
        header: row!["policy", "setup", "rs", "rr", "rfm", "rfs"],
        rows,
        notes: "Shape checks (paper §4.5): UNIT's success ratio tops every baseline; its\n\
                outcome mix shifts with the weights (cheapest failure class absorbs the\n\
                load); QMF shows a conspicuously high rejection ratio.\n"
            .to_string(),
    }
}
