//! Multi-CPU scaling (substrate generalization — the paper's server has a
//! single CPU): does UNIT's advantage persist when the server gets more
//! cores, or does raw capacity wash the policies out?
//!
//! Expected shape: extra CPUs rescue IMU (its problem is pure capacity),
//! narrow everyone's gaps at med volume, and leave the orderings intact at
//! high volume where even several CPUs cannot absorb every update.

use unit_bench::cli::Shared;
use unit_bench::render::{f, Table};
use unit_bench::{default_workload_plan, run_policy_with, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_workload::{UpdateDistribution, UpdateVolume};

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);
    let mut rows = Vec::new();
    for volume in [UpdateVolume::Med, UpdateVolume::High] {
        let bundle = plan.bundle(volume, UpdateDistribution::Uniform);
        for cpus in [1usize, 2, 4] {
            let cfg = plan.sim_config(UsmWeights::naive()).with_cpus(cpus);
            let mut row = vec![bundle.name.clone(), cpus.to_string()];
            row.extend(PolicyKind::ALL.map(|kind| {
                let out = run_policy_with(&plan, &bundle, kind, cfg, None);
                f(out.report.success_ratio(), 4)
            }));
            rows.push(row);
        }
    }
    Table {
        stem: "cpus",
        title: format!(
            "Multi-CPU scaling: success ratio by CPU count (scale 1/{})",
            args.scale
        ),
        header: unit_bench::row!["trace", "cpus", "imu", "odu", "qmf", "unit"],
        rows,
        notes: "Extra capacity rescues IMU (its failure is saturation, not policy), while\n\
                the managed policies converge toward the workload's burst-and-staleness\n\
                floor; the orderings persist wherever updates still contend with queries.\n"
            .to_string(),
    }
}
