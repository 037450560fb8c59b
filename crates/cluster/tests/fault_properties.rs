//! Property tests for the fault-injected cluster:
//!
//! (a) **conservation** — under any generated fault plan, every query is
//!     decided exactly once: shard outcomes plus dispatcher rejections
//!     total the trace's query count, with no duplicated or invented ids;
//! (b) **determinism** — a faulty run is bit-reproducible across reruns
//!     and across 1 vs N worker threads: same decisions, same merged
//!     history, same tallies;
//! (c) **health consistency** — no outcome is decided strictly inside a
//!     pause window and no query exceeds the retry budget (the packaged
//!     [`check_health_consistency`] invariant).

use proptest::prelude::*;
use unit_cluster::{
    check_health_consistency, BackoffConfig, ClusterConfig, FailoverPolicy, FaultClusterReport,
    RoutingPolicy,
};
use unit_core::config::UnitConfig;
use unit_core::time::SimDuration;
use unit_core::usm::{OutcomeCounts, UsmWeights};
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

#[derive(Debug, Clone)]
struct Scenario {
    bundle: TraceBundle,
    plan: FaultPlan,
    n_shards: usize,
    routing: RoutingPolicy,
    failover: FailoverPolicy,
    seed: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        (
            16usize..48,     // n_items
            60usize..160,    // n_queries
            2_000u64..6_000, // horizon seconds
            any::<u64>(),    // workload seed
        ),
        (
            1usize..4,    // n_shards
            0usize..3,    // routing policy index
            any::<u64>(), // run seed
        ),
        (
            1u32..30,      // crash rate percent
            5u64..60,      // mean window seconds
            any::<bool>(), // degraded-reads mode
            any::<u64>(),  // fault seed
        ),
        (
            0usize..6,     // stream faults
            0usize..4,     // bursts
            any::<bool>(), // backoff failover
        ),
    )
        .prop_map(
            |(
                (n_items, n_queries, horizon, wl_seed),
                (n_shards, routing, seed),
                (rate_pct, mean_window, degraded, fault_seed),
                (stream_faults, bursts, backoff),
            )| {
                let qcfg = QueryTraceConfig {
                    n_items,
                    n_queries,
                    horizon: SimDuration::from_secs(horizon),
                    seed: wl_seed,
                    ..QueryTraceConfig::default()
                };
                let ucfg =
                    UpdateTraceConfig::table1(UpdateVolume::Low, UpdateDistribution::Uniform)
                        .with_total((n_queries as u64 / 4).max(8));
                let bundle = TraceBundle::generate(&qcfg, &ucfg);
                let mode = if degraded {
                    FaultMode::DegradedReads
                } else {
                    FaultMode::Pause
                };
                let fcfg = FaultConfig::quiet(bundle.horizon, n_items)
                    .with_crashes(
                        f64::from(rate_pct) / 100.0,
                        SimDuration::from_secs(mean_window),
                        mode,
                    )
                    .with_stream_faults(
                        stream_faults,
                        SimDuration::from_secs(30),
                        SimDuration::from_secs(1),
                    )
                    .with_bursts(bursts, 3, SimDuration::from_secs(1));
                Scenario {
                    plan: FaultPlan::generate(fault_seed, n_shards, &fcfg),
                    bundle,
                    n_shards,
                    routing: RoutingPolicy::ALL[routing],
                    failover: if backoff {
                        FailoverPolicy::Backoff(BackoffConfig::default())
                    } else {
                        FailoverPolicy::NoRetry
                    },
                    seed,
                }
            },
        )
}

fn run(s: &Scenario, workers: usize) -> FaultClusterReport {
    let sim = unit_sim::SimConfig::new(s.bundle.horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10));
    let cluster = ClusterConfig::new(s.n_shards)
        .with_routing(s.routing)
        .with_seed(s.seed)
        .with_workers(workers);
    cluster
        .build()
        .with_faults(&s.plan, s.failover)
        .run_unit(
            &s.bundle.trace,
            sim,
            &UnitConfig::with_weights(UsmWeights::low_high_cfm()),
        )
        .expect("valid fault cluster config")
        .into_faulty()
        .expect("fault run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Conservation: every trace query decided exactly once across
    /// shard outcomes and dispatcher rejections.
    #[test]
    fn queries_are_conserved_under_faults(s in scenario_strategy()) {
        let report = run(&s, 0);
        let n_queries = s.bundle.trace.queries.len() as u64;
        prop_assert_eq!(report.counts.total(), n_queries);
        prop_assert_eq!(report.decisions.len() as u64, n_queries);
        prop_assert_eq!(report.merged_log().count() as u64, n_queries);

        // No id lost, duplicated, or invented in the combined history.
        let mut logged: Vec<u64> = report.merged_log().map(|m| m.query.0).collect();
        logged.sort_unstable();
        let mut expected: Vec<u64> =
            s.bundle.trace.queries.iter().map(|q| q.id.0).collect();
        expected.sort_unstable();
        prop_assert_eq!(logged, expected);

        // Dispatcher entries are exactly the rejected decisions, and the
        // shard-level sub-report keeps its own identity.
        let pseudo = report.dispatcher_shard();
        let dispatcher_entries =
            report.merged_log().filter(|m| m.shard == pseudo).count() as u64;
        prop_assert_eq!(dispatcher_entries, report.dispatcher_rejections());
        unit_cluster::check_cluster_identity(&report.cluster)
            .map_err(TestCaseError::fail)?;

        // Combined counts recount exactly from the combined log.
        let mut recount = OutcomeCounts::default();
        for m in report.merged_log() {
            recount.record(m.outcome);
        }
        prop_assert_eq!(recount, report.counts);
    }

    /// (b) Determinism: reruns and worker counts change nothing.
    #[test]
    fn faulty_runs_are_deterministic(s in scenario_strategy()) {
        let first = run(&s, 0);
        let again = run(&s, 0);
        prop_assert_eq!(&again.decisions, &first.decisions);
        prop_assert!(again.merged_log().eq(first.merged_log()));
        prop_assert_eq!(again.counts, first.counts);
        let single_worker = run(&s, 1);
        prop_assert_eq!(&single_worker.decisions, &first.decisions);
        prop_assert!(single_worker.merged_log().eq(first.merged_log()));
        prop_assert_eq!(single_worker.counts, first.counts);
        prop_assert_eq!(
            single_worker.average_usm().to_bits(),
            first.average_usm().to_bits()
        );
    }

    /// (c) Health consistency: no interior-of-pause-window outcomes, no
    /// budget overruns, exact accounting.
    #[test]
    fn health_consistency_holds(s in scenario_strategy()) {
        let report = run(&s, 0);
        check_health_consistency(&report, &s.plan, &s.failover)
            .map_err(TestCaseError::fail)?;
        // Spot-check the window invariant independently of the packaged
        // checker: shard outcomes never land strictly inside a pause
        // window of their shard.
        for m in report.merged_log() {
            if m.shard >= s.n_shards {
                continue;
            }
            for w in &s.plan.shards[m.shard].crashes {
                if w.mode == FaultMode::Pause {
                    prop_assert!(
                        !(w.start < m.time && m.time < w.end),
                        "outcome at {:?} inside [{:?}, {:?}) on shard {}",
                        m.time, w.start, w.end, m.shard
                    );
                }
            }
        }
    }
}
