//! Replication experiment: the fig3 workload (UNIT policy, med-unif
//! bundle) on a 4-shard cluster swept over replication factor ×
//! propagation lag × routing policy, reporting cluster USM, follower-read
//! and propagation volume, and wall-clock per cell, and writing
//! `BENCH_replication.json` at the repo root.
//!
//! The factor-1 rows double as a live identity smoke: whatever the lag
//! schedule says, one replica per item *is* the partition-only cluster,
//! so their USM must equal the plain (replication-free) run's USM to the
//! bit — the same contract `crates/cluster/tests/replication_differential.rs`
//! pins at digest level, re-checked here on the bench workload. With the
//! default scale/seed/shards, those rows are bit-equal to the
//! `n_shards = 4` cells of `BENCH_cluster.json`.
//!
//! The interesting curves are the others: more replicas widen the
//! dispatcher's candidate pools (more load spreading), while longer
//! propagation lag shrinks the set of followers whose `Qu` bound clears
//! each query's freshness requirement — so USM responds to the *ratio* of
//! lag to the workload's tolerable staleness, which is exactly the
//! trade-off the UNIT paper's freshness machinery quantifies.

use super::cluster::timed_cluster;
use unit_bench::cli::{Flags, Shared};
use unit_bench::default_workload_plan;
use unit_cluster::{ClusterConfig, PropagationLag, ReplicationConfig, RoutingPolicy};
use unit_core::time::SimDuration;
use unit_core::usm::UsmWeights;
use unit_workload::{UpdateDistribution, UpdateVolume};

struct Args {
    shared: Shared,
    shards: usize,
    runs: usize,
}

fn parse_args(shared: Shared, mut fl: Flags) -> Args {
    let mut args = Args {
        shared,
        shards: 4,
        runs: 1,
    };
    while let Some(arg) = fl.next_flag() {
        match arg.as_str() {
            "--shards" => args.shards = fl.parse(&arg),
            "--runs" => args.runs = fl.parse(&arg),
            other => args.shared.accept(&mut fl, other),
        }
    }
    args
}

/// The lag schedules swept per factor: zero, a fixed delay, and a
/// windowed jittered schedule whose worst case is four times the base.
fn lag_points() -> [(&'static str, PropagationLag); 3] {
    [
        ("zero", PropagationLag::none()),
        (
            "fixed-60s",
            PropagationLag::fixed(SimDuration::from_secs(60)),
        ),
        (
            "jitter-60s+180s",
            PropagationLag::jittered(SimDuration::from_secs(60), SimDuration::from_secs(180), 8),
        ),
    ]
}

pub(crate) fn run(shared: Shared, fl: Flags) {
    let args = parse_args(shared, fl);
    let Shared { scale, seed, .. } = args.shared;
    let plan = default_workload_plan(scale);
    let weights = UsmWeights::low_high_cfm();
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    let sim = plan.sim_config(weights);
    let unit = plan.unit_config(weights);
    let factors: Vec<usize> = (1..=3.min(args.shards)).collect();

    println!(
        "replication: fig3 med-unif (UNIT per shard), {} shards, scale 1/{}, {} queries, seed {:#x}\n",
        args.shards,
        scale,
        bundle.trace.queries.len(),
        seed
    );
    println!(
        "  {:<16} {:>6} {:>16} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "routing", "factor", "lag", "usm", "d_usm", "follower_q", "propagated", "wall_s"
    );

    let mut rows = Vec::new();
    for routing in RoutingPolicy::ALL {
        // The replication-free anchor every factor-1 row must reproduce.
        let (plain, _, _) = timed_cluster(
            ClusterConfig::new(args.shards)
                .with_routing(routing)
                .with_seed(seed),
            &bundle,
            sim,
            &unit,
            args.runs,
        );
        let plain_usm = plain.average_usm();
        for &factor in &factors {
            for (lag_name, lag) in lag_points() {
                let rep = ReplicationConfig::new(factor).with_lag(lag);
                let cluster = ClusterConfig::new(args.shards)
                    .with_routing(routing)
                    .with_seed(seed)
                    .with_replication(rep);
                let (report, wall, _) = timed_cluster(cluster, &bundle, sim, &unit, args.runs);
                let usm = report.average_usm();
                let rep_report = report.replication.as_ref().expect("replication report");
                if factor == 1 {
                    assert_eq!(
                        usm.to_bits(),
                        plain_usm.to_bits(),
                        "factor-1 diverged from the plain cluster at {}/{}",
                        routing.name(),
                        lag_name
                    );
                    assert!(rep_report.propagation.is_empty());
                    assert!(rep_report.routes.is_empty());
                }
                let follower_q = rep_report.routes.len();
                let propagated = rep_report.propagation.len();
                let d_usm = usm - plain_usm;
                println!(
                    "  {:<16} {factor:>6} {lag_name:>16} {usm:>10.4} {d_usm:>+10.4} {follower_q:>12} {propagated:>12} {wall:>8.3}",
                    routing.name()
                );
                rows.push(format!(
                    "    {{\"routing\": \"{}\", \"factor\": {factor}, \"lag\": \"{lag_name}\", \
                     \"lag_base_secs\": {}, \"lag_jitter_secs\": {}, \"lag_windows\": {}, \
                     \"usm\": {usm:.6}, \"usm_plain\": {plain_usm:.6}, \
                     \"follower_routed_queries\": {follower_q}, \
                     \"propagated_versions\": {propagated}, \
                     \"wall_secs\": {wall:.6}}}",
                    routing.name(),
                    lag.base.as_secs_f64(),
                    lag.jitter.as_secs_f64(),
                    lag.windows,
                ));
            }
        }
    }

    if let Some(path) = args.shared.out {
        let json = format!(
            "{{\n  \"bench\": \"replication\",\n  \"workload\": \"fig3 med-unif\",\n  \"policy\": \"UNIT per shard\",\n  \"scale\": {},\n  \"seed\": {},\n  \"n_shards\": {},\n  \"runs\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
            scale,
            seed,
            args.shards,
            args.runs,
            rows.join(",\n")
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\n  wrote {path}");
    }
}
