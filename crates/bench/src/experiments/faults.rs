//! Fault-tolerance experiment: the fig3 workload (UNIT policy, med-unif
//! bundle) on a 4-shard cluster under seeded crash schedules of rising
//! severity, comparing three dispatcher strategies per crash rate:
//!
//! * `no-retry`      — naive routing, crashes pause the shard (full DMF);
//! * `backoff`       — failover with exponential backoff, crashes pause;
//! * `backoff+degraded` — failover plus graceful degradation: recovering
//!   shards keep serving reads from last-applied versions (honest DSF
//!   instead of DMF).
//!
//! Writes `BENCH_faults.json` at the repo root: one USM-vs-crash-rate curve
//! per strategy. Under the paper's low-C_fs/high-C_fm weights the
//! failover+degradation curve must dominate naive no-retry at every
//! non-zero crash rate, and all three must agree exactly at rate zero (the
//! quiet plan is inert; the bit-level proof lives in
//! `crates/cluster/tests/fault_differential.rs`).

use std::time::Instant;
use unit_bench::cli::{Flags, Shared};
use unit_bench::default_workload_plan;
use unit_cluster::{BackoffConfig, ClusterConfig, FailoverPolicy, RoutingPolicy};
use unit_core::time::SimDuration;
use unit_core::usm::UsmWeights;
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_obs::RingRecorder;
use unit_workload::{UpdateDistribution, UpdateVolume};

const N_SHARDS: usize = 4;
const CRASH_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

struct Strategy {
    name: &'static str,
    mode: FaultMode,
    failover: FailoverPolicy,
}

fn strategies() -> [Strategy; 3] {
    [
        Strategy {
            name: "no-retry",
            mode: FaultMode::Pause,
            failover: FailoverPolicy::NoRetry,
        },
        Strategy {
            name: "backoff",
            mode: FaultMode::Pause,
            failover: FailoverPolicy::Backoff(BackoffConfig::default()),
        },
        Strategy {
            name: "backoff+degraded",
            mode: FaultMode::DegradedReads,
            failover: FailoverPolicy::Backoff(BackoffConfig::default()),
        },
    ]
}

pub(crate) fn run(shared: Shared, fl: Flags) {
    let args = shared.parse_all(fl);
    let plan = default_workload_plan(args.scale);
    let weights = UsmWeights::low_high_cfm();
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    let sim = plan.sim_config(weights);
    let unit = plan.unit_config(weights);
    let fault_seed = args.seed ^ 0xFA17;

    println!(
        "faults: fig3 med-unif (UNIT per shard), {N_SHARDS} shards, scale 1/{}, {} queries, seed {:#x}\n",
        args.scale,
        bundle.trace.queries.len(),
        args.seed
    );
    println!(
        "  {:<18} {:>6} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "strategy", "rate", "usm", "ok", "rej", "dmf", "dsf", "retries"
    );

    let mut rows = Vec::new();
    let mut curves: Vec<(String, Vec<f64>)> = Vec::new();
    for strat in strategies() {
        let mut curve = Vec::new();
        for rate in CRASH_RATES {
            let fcfg = FaultConfig::quiet(bundle.horizon, bundle.trace.n_items).with_crashes(
                rate,
                SimDuration::from_secs(600),
                strat.mode,
            );
            let fplan = FaultPlan::generate(fault_seed, N_SHARDS, &fcfg);
            let cluster = ClusterConfig::new(N_SHARDS)
                .with_routing(RoutingPolicy::LeastLoad)
                .with_seed(args.seed);
            // The backoff+degraded cell at crash rate 0.2 doubles as the
            // --trace-out subject (observation is digest-neutral, so the
            // observed report serves the table too).
            let record =
                args.trace_out.is_some() && strat.name == "backoff+degraded" && rate == 0.2;
            let mut rec = RingRecorder::unbounded();
            let start = Instant::now();
            let run = cluster.build().with_faults(&fplan, strat.failover);
            let run = if record {
                run.with_observer(&mut rec)
            } else {
                run
            };
            let report = run
                .run_unit(&bundle.trace, sim, &unit)
                .expect("valid fault cluster config")
                .into_faulty()
                .expect("fault run");
            let wall = start.elapsed().as_secs_f64();
            if record {
                args.write_trace("backoff+degraded, crash rate 0.2", &rec.into_events());
            }
            let usm = report.average_usm();
            let c = report.counts;
            println!(
                "  {:<18} {rate:>6.2} {usm:>10.4} {:>8} {:>8} {:>8} {:>8} {:>8}",
                strat.name,
                c.success,
                c.rejected,
                c.deadline_miss,
                c.data_stale,
                report.total_retries()
            );
            curve.push(usm);
            rows.push(format!(
                "    {{\"strategy\": \"{}\", \"crash_rate\": {rate}, \"usm\": {usm:.6}, \
                 \"success\": {}, \"rejected\": {}, \"deadline_miss\": {}, \
                 \"data_stale\": {}, \"retries\": {}, \"dispatcher_rejections\": {}, \
                 \"wall_secs\": {wall:.6}}}",
                strat.name,
                c.success,
                c.rejected,
                c.deadline_miss,
                c.data_stale,
                report.total_retries(),
                report.dispatcher_rejections()
            ));
        }
        curves.push((strat.name.to_string(), curve));
        println!();
    }

    // Sanity: at crash rate 0 every strategy reduces to the plain cluster,
    // so all three USM values must agree to the bit.
    let baseline = curves[0].1[0];
    for (name, curve) in &curves {
        assert!(
            curve[0].to_bits() == baseline.to_bits(),
            "{name}: quiet-plan USM {} diverged from {baseline}",
            curve[0]
        );
    }
    // The headline claim: failover + graceful degradation beats the naive
    // dispatcher at every non-zero crash rate.
    let naive = &curves[0].1;
    let degraded = &curves[2].1;
    for (i, rate) in CRASH_RATES.iter().enumerate().skip(1) {
        assert!(
            degraded[i] > naive[i],
            "backoff+degraded ({}) does not beat no-retry ({}) at rate {rate}",
            degraded[i],
            naive[i]
        );
    }
    println!("  check: curves agree at rate 0; backoff+degraded > no-retry at every other rate");

    if let Some(path) = args.out {
        let json = format!(
            "{{\n  \"bench\": \"faults\",\n  \"workload\": \"fig3 med-unif\",\n  \"policy\": \"UNIT per shard\",\n  \"n_shards\": {N_SHARDS},\n  \"routing\": \"least-load\",\n  \"scale\": {},\n  \"seed\": {},\n  \"fault_seed\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
            args.scale,
            args.seed,
            fault_seed,
            rows.join(",\n")
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\n  wrote {path}");
    }
}
