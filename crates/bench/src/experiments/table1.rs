//! Table 1 — the nine update traces: volumes, spatial distributions, and
//! the statistics they actually achieve under this reproduction's generator.

use unit_bench::cli::Shared;
use unit_bench::default_workload_plan;
use unit_bench::render::{f, Table};
use unit_bench::row;
use unit_workload::{UpdateDistribution, UpdateVolume};

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);
    let mut rows = Vec::new();
    for volume in UpdateVolume::ALL {
        for dist in [
            UpdateDistribution::Uniform,
            UpdateDistribution::PositiveCorrelation,
            UpdateDistribution::NegativeCorrelation,
        ] {
            let b = plan.bundle(volume, dist);
            let total: u64 = b
                .trace
                .updates
                .iter()
                .map(|u| {
                    let h = b.horizon.0;
                    if u.first_arrival.0 > h {
                        0
                    } else {
                        1 + (h - u.first_arrival.0) / u.period.0.max(1)
                    }
                })
                .sum();
            rows.push(row![
                b.name,
                total,
                dist.short_name(),
                f(b.achieved_rho, 4),
                f(b.update_utilization, 4),
                f(b.query_utilization, 4),
            ]);
        }
    }
    Table {
        stem: "table1",
        title: format!(
            "Table 1: update traces, scale 1/{} (horizon {:.0}s, {} queries)",
            args.scale,
            plan.query_cfg.horizon.as_secs_f64(),
            plan.query_cfg.n_queries
        ),
        header: row![
            "trace",
            "updates",
            "distribution",
            "rho",
            "update_util",
            "query_util"
        ],
        rows,
        notes: "(paper: low = 6,144 ≈ 15% cpu, med = 30,000 ≈ 75% cpu, high = 61,440 ≈ 150% cpu,\n\
                correlated traces at coefficient ±0.8 against the query distribution)\n"
            .to_string(),
    }
}
