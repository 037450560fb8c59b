//! Fault tolerance: the fig3 workload (UNIT policy, med-unif bundle) on a
//! 4-shard least-load cluster under seeded crash schedules of rising
//! severity, comparing three dispatcher strategies per crash rate:
//!
//! * `no-retry`      — naive routing, crashes pause the shard (full DMF);
//! * `backoff`       — failover with exponential backoff, crashes pause;
//! * `backoff+degraded` — failover plus graceful degradation: recovering
//!   shards keep serving reads from last-applied versions (honest DSF
//!   instead of DMF).
//!
//! Two claims are asserted on every run: all three strategies agree to the
//! bit at rate zero (the quiet plan is inert; the digest-level proof lives
//! in `crates/cluster/tests/fault_differential.rs`), and under the paper's
//! low-C_fs/high-C_fm weights backoff+degraded beats no-retry at every
//! non-zero crash rate.

use super::cluster::Workload;
use unit_bench::cli::Shared;
use unit_bench::render::{f, Table};
use unit_bench::row;
use unit_cluster::{BackoffConfig, ClusterConfig, FailoverPolicy, RoutingPolicy};
use unit_core::config::DEFAULT_SEED;
use unit_core::time::SimDuration;
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_obs::RingRecorder;

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

pub(crate) fn run(args: &Shared) -> Table {
    let w = Workload::new(args.scale);
    let fault_seed = DEFAULT_SEED ^ 0xFA17;

    let mut rows = Vec::new();
    let mut curves: Vec<Vec<f64>> = Vec::new();
    for strat in strategies() {
        let mut curve = Vec::new();
        for rate in CRASH_RATES {
            let fcfg = FaultConfig::quiet(w.bundle.horizon, w.bundle.trace.n_items).with_crashes(
                rate,
                SimDuration::from_secs(600),
                strat.mode,
            );
            let fplan = FaultPlan::generate(fault_seed, N_SHARDS, &fcfg);
            // The backoff+degraded cell at crash rate 0.2 doubles as the
            // --trace-out subject (observation is digest-neutral, so the
            // observed report serves the table too).
            let record =
                args.trace_out.is_some() && strat.name == "backoff+degraded" && rate == 0.2;
            let mut rec = RingRecorder::unbounded();
            let mut run = ClusterConfig::new(N_SHARDS)
                .with_routing(RoutingPolicy::LeastLoad)
                .build()
                .with_faults(&fplan, strat.failover);
            if record {
                run = run.with_observer(&mut rec);
            }
            let report = w.run(run).into_faulty().expect("fault run");
            if record {
                args.write_trace("backoff+degraded, crash rate 0.2", &rec.into_events());
            }
            let usm = report.average_usm();
            let c = report.counts;
            curve.push(usm);
            rows.push(row![
                strat.name,
                f(rate, 2),
                f(usm, 4),
                c.success,
                c.rejected,
                c.deadline_miss,
                c.data_stale,
                report.total_retries(),
                report.dispatcher_rejections(),
            ]);
        }
        curves.push(curve);
    }

    // At crash rate 0 every strategy reduces to the plain cluster.
    let baseline = curves[0][0];
    for (strat, curve) in strategies().iter().zip(&curves) {
        assert_eq!(
            curve[0].to_bits(),
            baseline.to_bits(),
            "{}: quiet-plan USM {} diverged from {baseline}",
            strat.name,
            curve[0]
        );
    }
    // The headline claim: failover + graceful degradation beats the naive
    // dispatcher at every non-zero crash rate.
    let (naive, degraded) = (&curves[0], &curves[2]);
    for (i, rate) in CRASH_RATES.iter().enumerate().skip(1) {
        assert!(
            degraded[i] > naive[i],
            "backoff+degraded ({}) does not beat no-retry ({}) at rate {rate}",
            degraded[i],
            naive[i]
        );
    }
    Table {
        stem: "faults",
        title: format!(
            "Fault tolerance: fig3 med-unif, UNIT on {N_SHARDS} least-load shards, USM vs crash rate, scale 1/{}",
            args.scale
        ),
        header: row![
            "strategy",
            "crash_rate",
            "usm",
            "success",
            "rejected",
            "deadline_miss",
            "data_stale",
            "retries",
            "dispatcher_rejections"
        ],
        rows,
        notes: "check: the three strategies agree bit for bit at rate 0; backoff+degraded beats\n\
                no-retry at every other rate (600 s crash windows, fault seed DEFAULT_SEED ^ 0xFA17).\n"
            .to_string(),
    }
}
