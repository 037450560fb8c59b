//! Cluster scaling experiment: the fig3 workload (UNIT policy, med-unif
//! bundle) on a sharded cluster at 1/2/4/8 shards under every routing
//! policy, reporting cluster USM and wall-clock per cell and writing
//! `BENCH_cluster.json` at the repo root.
//!
//! Each cell is timed twice — on the [`WholeShard`] path (one thread runs a
//! shard start to finish) and on the [`EpochParallel`] path (all shards step
//! the same virtual-time epoch in lockstep) — with best-of-`R` walls, and
//! the two USMs are cross-checked (the full bit-level identity lives in
//! `crates/cluster/tests/epoch_differential.rs`). Cells also record
//! per-shard serial wall times (each shard slice re-run alone, so skew is
//! visible) and the update-stream fan-out that demand filtering would keep
//! per shard.
//!
//! `--assert-scaling` exits non-zero unless, for every routing policy, the
//! 8-shard epoch-parallel *critical path* — the slowest shard's own
//! build + stepping wall, i.e. the wall-clock a host with one core per
//! shard would see — is no worse than the 1-shard shard wall on the
//! filtered feature path. This is the scaling smoke used by CI; the
//! per-shard walls behind it live in every cell's
//! `shard_wall_secs_filtered`. (The *aggregate* 8-shard wall is also
//! recorded, but on a host with fewer cores than shards it serializes the
//! shards' extra admitted work — 8 shards admit far more than 1 — so it is
//! not the scalability signal.)
//!
//! The 1-shard rows double as a smoke check of the differential identity:
//! their USM must equal the plain single-server engine's USM on the same
//! bundle (the full bit-level digest check lives in
//! `crates/cluster/tests/differential.rs`).
//!
//! [`WholeShard`]: unit_cluster::ExecutionMode::WholeShard
//! [`EpochParallel`]: unit_cluster::ExecutionMode::EpochParallel

use std::time::Instant;
use unit_bench::cli::{Flags, Shared};
use unit_bench::{default_workload_plan, ExperimentPlan};
use unit_cluster::{ClusterConfig, ClusterReport, RoutingPolicy};
use unit_core::split_seed;
use unit_core::time::SimDuration;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_obs::RingRecorder;
use unit_sim::{run_simulation, SimConfig};
use unit_workload::{slice_trace, ReplicaMap, TraceBundle, UpdateDistribution, UpdateVolume};

struct Args {
    shared: Shared,
    runs: usize,
    epoch_secs: u64,
    workers: usize,
    assert_scaling: bool,
}

fn parse_args(shared: Shared, mut fl: Flags) -> Args {
    let mut args = Args {
        shared,
        runs: 3,
        epoch_secs: 0, // 0 = horizon / 64
        workers: 0,    // 0 = one per shard
        assert_scaling: false,
    };
    while let Some(arg) = fl.next_flag() {
        match arg.as_str() {
            "--runs" => args.runs = fl.parse(&arg),
            "--epoch-secs" => args.epoch_secs = fl.parse(&arg),
            "--workers" => args.workers = fl.parse(&arg),
            "--assert-scaling" => args.assert_scaling = true,
            other => args.shared.accept(&mut fl, other),
        }
    }
    args
}

fn run_cluster(
    cluster: ClusterConfig,
    bundle: &TraceBundle,
    sim: SimConfig,
    unit: &unit_core::config::UnitConfig,
) -> ClusterReport {
    cluster
        .build()
        .run_unit(&bundle.trace, sim, unit)
        .expect("valid cluster config")
        .into_plain()
        .expect("fault-free run")
}

/// Best-of-`runs` wall-clock for one cluster configuration; returns the
/// report of the first run (all runs are bit-identical), the best
/// aggregate wall, and the best critical path (slowest shard's own wall —
/// what the run costs on a host with one core per shard).
pub(crate) fn timed_cluster(
    cluster: ClusterConfig,
    bundle: &TraceBundle,
    sim: SimConfig,
    unit: &unit_core::config::UnitConfig,
    runs: usize,
) -> (ClusterReport, f64, f64) {
    let mut best = f64::INFINITY;
    let mut best_crit = f64::INFINITY;
    let mut report = None;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let r = run_cluster(cluster, bundle, sim, unit);
        best = best.min(start.elapsed().as_secs_f64());
        best_crit = best_crit.min(r.critical_path_secs().expect("shards ran"));
        report.get_or_insert(r);
    }
    (report.expect("at least one run"), best, best_crit)
}

/// Serially re-run each shard slice alone and time it, exactly as the
/// cluster executes it (same slicing, same split seed), so per-shard cost
/// skew is visible without any thread-scheduling noise.
fn shard_walls(
    plan: &ExperimentPlan,
    bundle: &TraceBundle,
    assignment: &[usize],
    n_shards: usize,
    seed: u64,
    sim: SimConfig,
    weights: UsmWeights,
) -> Vec<f64> {
    let (shards, _) = slice_trace(
        &bundle.trace,
        assignment,
        &ReplicaMap::solo(n_shards),
        false,
    )
    .expect("cluster assignment");
    shards
        .iter()
        .enumerate()
        .map(|(s, shard_trace)| {
            let policy = UnitPolicy::new(
                plan.unit_config(weights)
                    .with_seed(split_seed(seed, s as u64)),
            );
            let start = Instant::now();
            let _ = run_simulation(shard_trace, policy, sim);
            start.elapsed().as_secs_f64()
        })
        .collect()
}

fn json_list<T: std::fmt::Display>(xs: impl IntoIterator<Item = T>) -> String {
    xs.into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

pub(crate) fn run(shared: Shared, fl: Flags) {
    let args = parse_args(shared, fl);
    let Shared { scale, seed, .. } = args.shared;
    let plan = default_workload_plan(scale);
    let weights = UsmWeights::low_high_cfm();
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    let sim = plan.sim_config(weights);
    let unit = plan.unit_config(weights);
    let epoch = if args.epoch_secs == 0 {
        SimDuration::from_secs_f64((bundle.horizon.as_secs_f64() / 64.0).max(1.0))
    } else {
        SimDuration::from_secs(args.epoch_secs)
    };

    println!(
        "cluster: fig3 med-unif (UNIT per shard), scale 1/{}, {} queries, seed {:#x}",
        scale,
        bundle.trace.queries.len(),
        seed
    );
    println!(
        "  epoch {:.0} s, {} workers, best of {} runs per path\n",
        epoch.as_secs_f64(),
        if args.workers == 0 {
            "per-shard".to_string()
        } else {
            args.workers.to_string()
        },
        args.runs
    );
    println!(
        "  {:<16} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>9}",
        "routing", "shards", "usm", "whole_s", "epoch_s", "filt_s", "crit_s", "events/s", "events"
    );

    let mut rows = Vec::new();
    // (routing name, n_shards) -> filtered epoch-parallel critical path
    // (slowest shard's own wall), for --assert-scaling (the feature path
    // the scaling smoke gates).
    let mut epoch_wall_table = Vec::new();
    for routing in RoutingPolicy::ALL {
        for n_shards in [1usize, 2, 4, 8] {
            let base = ClusterConfig::new(n_shards)
                .with_routing(routing)
                .with_seed(seed);
            let (report, whole_wall, _) = timed_cluster(base, &bundle, sim, &unit, args.runs);
            let (epoch_report, epoch_wall, _) = timed_cluster(
                base.with_workers(args.workers).with_epoch(epoch),
                &bundle,
                sim,
                &unit,
                args.runs,
            );
            // The feature path: epoch-parallel stepping plus demand-filtered
            // update slicing (digests legitimately differ from the unfiltered
            // rows — see `ClusterConfig::filter_updates`). This is the cell
            // the scaling smoke gates.
            let (filtered_report, filtered_wall, filtered_crit) = timed_cluster(
                base.with_workers(args.workers)
                    .with_epoch(epoch)
                    .with_filtered_updates(),
                &bundle,
                sim,
                &unit,
                args.runs,
            );
            let usm = report.average_usm();
            assert_eq!(
                usm.to_bits(),
                epoch_report.average_usm().to_bits(),
                "epoch-parallel path diverged from whole-shard at {} x{n_shards}",
                routing.name()
            );
            let usm_filtered = filtered_report.average_usm();

            // The 4-shard least-load cell doubles as the --trace-out
            // subject (observation is digest-neutral, so the recorded
            // stream matches the table rows).
            if args.shared.trace_out.is_some()
                && routing == RoutingPolicy::LeastLoad
                && n_shards == 4
            {
                let mut rec = RingRecorder::unbounded();
                let observed = base
                    .build()
                    .with_observer(&mut rec)
                    .run_unit(&bundle.trace, sim, &unit)
                    .expect("valid cluster config")
                    .into_plain()
                    .expect("fault-free run");
                assert_eq!(observed.average_usm().to_bits(), usm.to_bits());
                args.shared
                    .write_trace("4 shards, least-load", &rec.into_events());
            }

            let events: u64 = report
                .shard_reports
                .iter()
                .map(|r| r.events_processed)
                .sum();
            let eps_whole = events as f64 / whole_wall;
            let eps_epoch = events as f64 / epoch_wall;
            let per_shard = report.queries_per_shard();
            let walls = shard_walls(
                &plan,
                &bundle,
                &report.assignment,
                n_shards,
                seed,
                sim,
                weights,
            );
            let (_, fanout) = slice_trace(
                &bundle.trace,
                &report.assignment,
                &ReplicaMap::solo(n_shards),
                true,
            )
            .expect("cluster assignment");
            println!(
                "  {:<16} {n_shards:>7} {usm:>10.4} {whole_wall:>10.3} {epoch_wall:>10.3} {filtered_wall:>10.3} {filtered_crit:>10.3} {eps_epoch:>12.0} {events:>9}",
                routing.name()
            );
            rows.push(format!(
                "    {{\"routing\": \"{}\", \"n_shards\": {n_shards}, \"usm\": {usm:.6}, \
                 \"usm_filtered\": {usm_filtered:.6}, \
                 \"wall_secs\": {whole_wall:.6}, \"wall_secs_epoch\": {epoch_wall:.6}, \
                 \"wall_secs_epoch_filtered\": {filtered_wall:.6}, \
                 \"critical_path_secs_filtered\": {filtered_crit:.6}, \
                 \"events\": {events}, \"events_per_sec\": {eps_whole:.1}, \
                 \"events_per_sec_epoch\": {eps_epoch:.1}, \
                 \"queries_per_shard\": [{}], \
                 \"shard_wall_secs\": [{}], \
                 \"shard_wall_secs_filtered\": [{}], \
                 \"update_streams_kept\": [{}], \"update_streams_dropped\": {}}}",
                routing.name(),
                json_list(&per_shard),
                json_list(walls.iter().map(|w| format!("{w:.6}"))),
                json_list(
                    filtered_report
                        .shard_walls
                        .iter()
                        .map(|w| format!("{w:.6}"))
                ),
                json_list(&fanout.kept_per_shard),
                fanout.dropped_streams,
            ));
            epoch_wall_table.push((routing.name(), n_shards, filtered_crit));
        }
    }

    if let Some(path) = args.shared.out {
        let json = format!(
            "{{\n  \"bench\": \"cluster\",\n  \"workload\": \"fig3 med-unif\",\n  \"policy\": \"UNIT per shard\",\n  \"scale\": {},\n  \"seed\": {},\n  \"runs\": {},\n  \"epoch_secs\": {:.3},\n  \"cells\": [\n{}\n  ]\n}}\n",
            scale,
            seed,
            args.runs,
            epoch.as_secs_f64(),
            rows.join(",\n")
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\n  wrote {path}");
    }

    if args.assert_scaling {
        let wall_at = |name: &str, shards: usize| {
            epoch_wall_table
                .iter()
                .find(|(n, s, _)| *n == name && *s == shards)
                .map(|(_, _, w)| *w)
                .expect("cell was measured")
        };
        let mut failed = false;
        for routing in RoutingPolicy::ALL {
            let one = wall_at(routing.name(), 1);
            let eight = wall_at(routing.name(), 8);
            let verdict = if eight <= one { "ok" } else { "FAIL" };
            println!(
                "  scaling {:<16} 8-shard critical path {eight:.3} s vs 1-shard {one:.3} s (epoch+filtered, slowest shard's wall)  [{verdict}]",
                routing.name()
            );
            failed |= eight > one;
        }
        if failed {
            eprintln!(
                "SCALING REGRESSION: an 8-shard epoch+filtered critical path (slowest shard's \
                 wall) exceeds the 1-shard shard wall"
            );
            std::process::exit(1);
        }
    }
}
