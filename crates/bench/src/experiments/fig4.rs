//! Figure 4 — naive USM (success ratio): IMU / ODU / QMF / UNIT over the
//! nine Table 1 update traces.
//!
//! All weights are zero in this experiment, so USM degenerates to the
//! success ratio (§4.3). Shapes to look for, per the paper:
//!
//! * UNIT wins everywhere (≥30% / ≥50% / ≥10% minimum relative improvement
//!   under unif / pos / neg);
//! * QMF can fall below ODU under uniform updates (over-aggressive
//!   rejection to protect its miss ratio);
//! * IMU ≈ ODU under positive correlation;
//! * ODU approaches UNIT under negative correlation (background updates are
//!   mostly irrelevant there).

use unit_bench::cli::Shared;
use unit_bench::render::{f, Table};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_matrix, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_workload::{UpdateDistribution, UpdateVolume};

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);
    let mut rows = Vec::new();
    for dist in [
        UpdateDistribution::Uniform,
        UpdateDistribution::PositiveCorrelation,
        UpdateDistribution::NegativeCorrelation,
    ] {
        let bundles: Vec<_> = UpdateVolume::ALL
            .iter()
            .map(|&v| plan.bundle(v, dist))
            .collect();
        let outcomes = run_matrix(&plan, &bundles, &PolicyKind::ALL, UsmWeights::naive());
        for (bi, bundle) in bundles.iter().enumerate() {
            let per_policy: Vec<f64> = (0..4)
                .map(|pi| outcomes[bi * 4 + pi].report.success_ratio())
                .collect();
            let unit = per_policy[3];
            let best_other = per_policy[..3].iter().copied().fold(0.0_f64, f64::max);
            let rel = if best_other > 0.0 {
                format!("{:+.0}%", 100.0 * (unit - best_other) / best_other)
            } else {
                "inf".to_string()
            };
            rows.push(row![
                bundle.name,
                f(per_policy[0], 4),
                f(per_policy[1], 4),
                f(per_policy[2], 4),
                f(unit, 4),
                rel
            ]);
        }
    }
    Table {
        stem: "fig4",
        title: format!(
            "Figure 4: naive USM (success ratio), scale 1/{} ({} queries / {}s horizon)",
            args.scale,
            plan.query_cfg.n_queries,
            plan.query_cfg.horizon.as_secs_f64()
        ),
        header: row!["trace", "imu", "odu", "qmf", "unit", "unit_vs_best"],
        rows,
        notes: String::new(),
    }
}
