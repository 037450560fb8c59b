//! Live-serving throughput gate: run the fig3 med-unif workload through
//! the wall-clock server (`unit_server::serve`) over a sweep of worker
//! counts and write `BENCH_serve.json` at the repo root, so the serving
//! trajectory accumulates across PRs alongside `BENCH_simspeed.json`.
//!
//! Each row pushes every query of the trace through the full serving
//! pipeline — bounded ingress channel, per-worker UNIT admission,
//! `MemBackend` reads/commits against the sharded store, and a live
//! update stream — and tallies ops/s, the deadline-miss rate, and the
//! outcome split under the run's USM pricing. Conservation (every
//! submitted query reaches exactly one outcome) is asserted per row.
//!
//! The trace's virtual timeline maps onto the wall clock via
//! `--time-scale` (virtual µs per wall µs). The default `1000000` makes a
//! 1 s virtual service demand a ~1 µs spin, so throughput measures the
//! serving pipeline's own overhead (admission, locking, channel hops)
//! rather than the spin floor; drop to `100000` for the physical regime
//! where 10 µs–1 ms deadlines make queueing visible in the miss column as
//! the worker count shrinks. The default mode is flat-out (inject as fast
//! as the channel admits); `--paced` replays arrivals on the scaled
//! timeline instead, which takes `horizon / time_scale` wall time.
//!
//! `--assert-throughput OPS` exits non-zero when no swept worker count
//! sustains `OPS` operations per second — the CI serving gate.

use unit_bench::cli::{Flags, Shared};
use unit_bench::{default_workload_plan, ExperimentPlan, PolicyJob, PolicyKind};
use unit_core::policy::Policy;
use unit_core::usm::UsmWeights;
use unit_server::{serve, MemBackend, ServeConfig, ServeReport, WallClock};
use unit_workload::{TraceBundle, UpdateDistribution, UpdateVolume};

struct Args {
    shared: Shared,
    workers: Vec<usize>,
    time_scale: u64,
    paced: bool,
    shards: usize,
    policy: PolicyKind,
    assert_throughput: Option<f64>,
}

fn parse_args(shared: Shared, mut fl: Flags) -> Args {
    let mut args = Args {
        shared,
        workers: vec![1, 2, 4, 8],
        time_scale: 1_000_000,
        paced: false,
        shards: 16,
        policy: PolicyKind::Unit,
        assert_throughput: None,
    };
    while let Some(arg) = fl.next_flag() {
        match arg.as_str() {
            "--workers" => {
                let v = fl.value(&arg);
                let parsed: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
                match parsed {
                    Ok(list) => args.workers = list,
                    Err(_) => fl.fail(&format!("bad --workers value: {v}")),
                }
            }
            "--time-scale" => args.time_scale = fl.parse(&arg),
            "--paced" => args.paced = true,
            "--shards" => args.shards = fl.parse(&arg),
            "--policy" => args.policy = fl.parse(&arg),
            "--assert-throughput" => args.assert_throughput = Some(fl.parse(&arg)),
            other => args.shared.accept(&mut fl, other),
        }
    }
    if args.workers.is_empty() || args.workers.contains(&0) {
        fl.fail("--workers needs a comma-separated list of counts >= 1");
    }
    args
}

/// Serve the whole trace once with `workers` worker threads; fresh
/// backend and clock per cell so rows are independent.
fn run_cell(
    args: &Args,
    plan: &ExperimentPlan,
    bundle: &TraceBundle,
    workers: usize,
    weights: UsmWeights,
) -> ServeReport {
    struct Serve<'a> {
        cfg: ServeConfig,
        shards: usize,
        bundle: &'a TraceBundle,
    }
    impl PolicyJob for Serve<'_> {
        type Out = ServeReport;
        fn run<P: Policy + Send>(self, make: impl Fn(usize) -> P) -> ServeReport {
            let clock = WallClock::new();
            let backend = MemBackend::new(self.bundle.trace.n_items, self.shards);
            let (trace, horizon) = (&self.bundle.trace, self.bundle.horizon);
            serve(&self.cfg, &clock, &backend, trace, horizon, make)
        }
    }
    let mut cfg = ServeConfig::new(workers, args.time_scale).with_weights(weights);
    if !args.paced {
        cfg = cfg.flat_out();
    }
    let seed = args.shared.seed;
    args.policy.dispatch(
        |i| plan.unit_config(weights).with_seed(seed + i as u64),
        Serve {
            cfg,
            shards: args.shards,
            bundle,
        },
    )
}

pub(crate) fn run(shared: Shared, fl: Flags) {
    let args = parse_args(shared, fl);
    let plan = default_workload_plan(args.shared.scale);
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    let weights = UsmWeights::low_high_cfm();
    let queries = bundle.trace.queries.len();
    let mode = if args.paced { "paced" } else { "flat-out" };

    println!(
        "serve: fig3 med-unif, scale 1/{}, {} queries, time-scale {} ({mode})\n",
        args.shared.scale, queries, args.time_scale
    );

    let mut rows = Vec::new();
    let mut peak_ops = 0.0f64;
    let mut policy_name = String::new();
    for &workers in &args.workers {
        let report = run_cell(&args, &plan, &bundle, workers, weights);
        assert!(
            report.conserves(),
            "conservation violated at {workers} workers: {} submitted, {} resolved",
            report.submitted,
            report.counts.total()
        );
        let wall_secs = report.elapsed.0 as f64 / 1_000_000.0;
        let ops = report.ops_per_sec();
        let miss = report.deadline_miss_rate();
        let usm = report.total_usm();
        peak_ops = peak_ops.max(ops);
        policy_name = report.policy.clone();
        println!(
            "  {workers:>3} workers  {wall_secs:>8.3} s  {ops:>12.0} ops/s  \
             miss {:>6.2}%  USM {usm:+.1}",
            100.0 * miss
        );
        rows.push(format!(
            "    {{\"workers\": {workers}, \"wall_secs\": {wall_secs:.6}, \
             \"ops_per_sec\": {ops:.1}, \"deadline_miss_rate\": {miss:.6}, \
             \"success\": {}, \"rejected\": {}, \"deadline_miss\": {}, \
             \"data_stale\": {}, \"updates_arrived\": {}, \
             \"updates_applied\": {}, \"usm\": {usm:.3}}}",
            report.counts.success,
            report.counts.rejected,
            report.counts.deadline_miss,
            report.counts.data_stale,
            report.updates_arrived,
            report.updates_applied,
        ));
    }
    println!("\n  peak {peak_ops:.0} ops/s ({policy_name})");

    if let Some(path) = &args.shared.out {
        let json = format!(
            "{{\n  \"bench\": \"serve\",\n  \"workload\": \"fig3 med-unif\",\n  \
             \"policy\": \"{policy_name}\",\n  \"scale\": {},\n  \
             \"queries\": {queries},\n  \"mode\": \"{mode}\",\n  \
             \"time_scale\": {},\n  \"shards\": {},\n  \
             \"peak_ops_per_sec\": {peak_ops:.1},\n  \"rows\": [\n{}\n  ]\n}}\n",
            args.shared.scale,
            args.time_scale,
            args.shards,
            rows.join(",\n")
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("  wrote {path}");
    }

    if let Some(gate) = args.assert_throughput {
        if peak_ops < gate {
            eprintln!(
                "SERVING REGRESSION: peak {peak_ops:.0} ops/s below the \
                 {gate:.0} ops/s gate"
            );
            std::process::exit(1);
        }
        println!("  throughput gate: peak {peak_ops:.0} ops/s >= {gate:.0} ops/s");
    }
}
