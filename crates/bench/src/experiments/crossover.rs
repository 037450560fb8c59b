//! Update-volume sweep: success ratio as the offered update utilization
//! climbs from idle to double the CPU — locating the crossover points
//! between policies that Table 1's three volumes only sample.
//!
//! Expected shape: IMU tracks the others while updates fit (≤ ~25%), then
//! collapses as they saturate; ODU degrades gracefully (its refresh cost
//! follows query demand, not update volume); QMF and UNIT shed load and
//! stay flat, with UNIT on top throughout.

use unit_bench::cli::Shared;
use unit_bench::render::{f, Table};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_matrix, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_workload::{TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume};

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);

    // Utilization points: ~10% .. ~200% of the CPU. At full scale, 30,000
    // updates = 75%, so N% needs N/75 * 30,000 updates.
    let utilizations = [0.10, 0.25, 0.50, 0.75, 1.00, 1.25, 1.50, 2.00];
    let bundles: Vec<TraceBundle> = utilizations
        .iter()
        .map(|u| {
            let total = ((u / 0.75) * 30_000.0 / args.scale as f64).round().max(1.0) as u64;
            let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
                .with_total(total);
            TraceBundle::generate(&plan.query_cfg, &ucfg)
        })
        .collect();

    let outcomes = run_matrix(&plan, &bundles, &PolicyKind::ALL, UsmWeights::naive());

    let mut rows = Vec::new();
    let mut prev_imu_leads = true;
    let mut imu_collapse_at: Option<f64> = None;
    for (bi, &u) in utilizations.iter().enumerate() {
        let s: Vec<f64> = (0..4)
            .map(|pi| outcomes[bi * 4 + pi].report.success_ratio())
            .collect();
        let leader = PolicyKind::ALL
            .iter()
            .enumerate()
            .max_by(|a, b| s[a.0].partial_cmp(&s[b.0]).unwrap())
            .map(|(_, k)| k.name())
            .unwrap();
        // Track where IMU stops being competitive (drops >10pp below UNIT).
        let imu_leads = s[0] >= s[3] - 0.10;
        if prev_imu_leads && !imu_leads && imu_collapse_at.is_none() {
            imu_collapse_at = Some(u);
        }
        prev_imu_leads = imu_leads;

        rows.push(row![
            f(u, 2),
            f(s[0], 4),
            f(s[1], 4),
            f(s[2], 4),
            f(s[3], 4),
            leader
        ]);
    }
    Table {
        stem: "crossover",
        title: format!(
            "Crossover sweep: success ratio vs offered update utilization \
             (uniform distribution, scale 1/{})",
            args.scale
        ),
        header: row!["utilization", "imu", "odu", "qmf", "unit", "leader"],
        rows,
        notes: imu_collapse_at.map_or_else(String::new, |u| {
            format!(
                "IMU falls more than 10pp behind UNIT at ≈{:.0}% offered update utilization\n\
                 (the crossover Table 1's low/med sampling brackets).\n",
                100.0 * u
            )
        }),
    }
}
