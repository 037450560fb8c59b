//! Figure 5 — USM under non-zero penalty costs (the Table 2 weightings),
//! on the `med-unif` workload.
//!
//! UNIT is re-run per weighting (its controller reacts to the weights); the
//! baselines are weight-insensitive (§4.5), so each is run once and its
//! outcome counts re-priced under every weighting.
//!
//! Paper shapes: UNIT best and roughly stable across weightings; QMF is
//! hurt most by high `C_r` (it rejects a lot); IMU and ODU are hurt most by
//! high `C_fm` (they miss a lot of deadlines).

use super::table2_weightings;
use unit_bench::cli::Shared;
use unit_bench::render::{fs, Table};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_policy, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_workload::{UpdateDistribution, UpdateVolume};

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);

    // One run per weight-insensitive baseline; re-priced per weighting.
    let baselines: Vec<_> = [PolicyKind::Imu, PolicyKind::Odu, PolicyKind::Qmf]
        .iter()
        .map(|&p| run_policy(&plan, &bundle, p, UsmWeights::naive()))
        .collect();

    let mut rows = Vec::new();
    for (regime, setup, weights) in table2_weightings() {
        let panel = if regime == "penalties < 1" {
            "(a)"
        } else {
            "(b)"
        };
        let unit = run_policy(&plan, &bundle, PolicyKind::Unit, weights);
        rows.push(row![
            format!("{panel} {regime}"),
            setup,
            fs(baselines[0].report.usm_under(&weights), 4),
            fs(baselines[1].report.usm_under(&weights), 4),
            fs(baselines[2].report.usm_under(&weights), 4),
            fs(unit.report.average_usm(), 4),
        ]);
    }
    Table {
        stem: "fig5",
        title: format!(
            "Figure 5: USM under Table 2 weightings (med-unif, scale 1/{})",
            args.scale
        ),
        header: row!["panel", "setup", "imu", "odu", "qmf", "unit"],
        rows,
        notes: String::new(),
    }
}
