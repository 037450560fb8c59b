//! Property tests for the cluster layer (ISSUE 3, satellite 2):
//!
//! (a) **routing determinism** — the same seed + config yields an
//!     identical per-shard assignment across reruns and across 1 vs N
//!     worker threads;
//! (b) **conservation** — every generated query appears in exactly one
//!     shard's outcome log, and every update stream in exactly one
//!     shard's trace slice;
//! (c) **USM identity** — the cluster USM equals the USM recounted from
//!     the merged per-shard outcome logs to the last bit, and the
//!     query-count-weighted mean of per-shard USMs agrees to float
//!     round-off (the integer tallies underneath are exact).

use proptest::prelude::*;
use unit_cluster::{check_cluster_identity, ClusterConfig, RoutingPolicy};
use unit_core::config::UnitConfig;
use unit_core::time::SimDuration;
use unit_core::usm::{OutcomeCounts, UsmWeights};
use unit_workload::{
    slice_trace, ItemPartition, QueryTraceConfig, ReplicaMap, TraceBundle, UpdateDistribution,
    UpdateTraceConfig, UpdateVolume,
};

/// A small but non-trivial cluster scenario: workload shape, shard count,
/// routing policy, run seed.
#[derive(Debug, Clone)]
struct Scenario {
    bundle: TraceBundle,
    n_shards: usize,
    routing: RoutingPolicy,
    seed: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        (
            16usize..64,     // n_items
            60usize..220,    // n_queries
            3_000u64..9_000, // horizon seconds
            any::<u64>(),    // workload seed
        ),
        (
            1usize..5,    // n_shards
            0usize..3,    // routing policy index
            any::<u64>(), // run seed
        ),
    )
        .prop_map(
            |((n_items, n_queries, horizon, wl_seed), (n_shards, routing, seed))| {
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
                Scenario {
                    bundle: TraceBundle::generate(&qcfg, &ucfg),
                    n_shards,
                    routing: RoutingPolicy::ALL[routing],
                    seed,
                }
            },
        )
}

fn run(s: &Scenario, workers: usize) -> unit_cluster::ClusterReport {
    let sim = unit_sim::SimConfig::new(s.bundle.horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10));
    let cluster = ClusterConfig::new(s.n_shards)
        .with_routing(s.routing)
        .with_seed(s.seed)
        .with_workers(workers);
    cluster
        .build()
        .run_unit(
            &s.bundle.trace,
            sim,
            &UnitConfig::with_weights(UsmWeights::low_high_cfm()),
        )
        .expect("valid cluster config")
        .into_plain()
        .expect("fault-free run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Same seed + config => identical assignment across 3 reruns and
    /// across 1 vs N worker threads — and not just the assignment: the
    /// whole merged history.
    #[test]
    fn routing_is_deterministic(s in scenario_strategy()) {
        let first = run(&s, 0); // one thread per shard
        for _ in 0..2 {
            let again = run(&s, 0);
            prop_assert_eq!(&again.assignment, &first.assignment);
            prop_assert_eq!(&again.log, &first.log);
        }
        let single_worker = run(&s, 1);
        prop_assert_eq!(&single_worker.assignment, &first.assignment);
        prop_assert_eq!(&single_worker.log, &first.log);
        prop_assert_eq!(single_worker.counts, first.counts);
        prop_assert_eq!(
            single_worker.average_usm().to_bits(),
            first.average_usm().to_bits()
        );
    }

    /// (b) Every query lands in exactly one shard's outcome log; every
    /// update stream in exactly one shard's trace slice.
    #[test]
    fn queries_and_updates_are_conserved(s in scenario_strategy()) {
        let report = run(&s, 0);

        // Queries: the merged log holds each generated query id once.
        let mut logged: Vec<u64> = report.log.iter().map(|m| m.query.0).collect();
        logged.sort_unstable();
        let mut expected: Vec<u64> =
            s.bundle.trace.queries.iter().map(|q| q.id.0).collect();
        expected.sort_unstable();
        prop_assert_eq!(logged, expected);

        // And each id is attributed to the shard the dispatcher chose.
        for m in &report.log {
            let idx = s.bundle.trace.queries.iter().position(|q| q.id == m.query);
            let idx = idx.ok_or_else(|| TestCaseError::fail("unknown query id"))?;
            prop_assert_eq!(report.assignment[idx], m.shard);
        }

        // Updates: re-derive the slices; stream ids partition exactly.
        let partition = ItemPartition::new(s.n_shards);
        let map = ReplicaMap::solo(s.n_shards);
        let slices = slice_trace(&s.bundle.trace, &report.assignment, &map, false)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut sliced: Vec<u32> = slices
            .iter()
            .flat_map(|t| t.updates.iter().map(|u| u.id.0))
            .collect();
        sliced.sort_unstable();
        let mut all: Vec<u32> = s.bundle.trace.updates.iter().map(|u| u.id.0).collect();
        all.sort_unstable();
        prop_assert_eq!(sliced, all);
        for (shard, slice) in slices.iter().enumerate() {
            for u in &slice.updates {
                prop_assert_eq!(partition.owner(u.item), shard);
            }
        }
    }

    /// (c) The cluster USM equals the merged-log recount to the last bit,
    /// and the query-weighted mean of shard USMs to float round-off.
    #[test]
    fn cluster_usm_identity(s in scenario_strategy()) {
        let report = run(&s, 0);

        // Bit-level: recount the merged log and price it identically.
        let mut recount = OutcomeCounts::default();
        for m in &report.log {
            recount.record(m.outcome);
        }
        prop_assert_eq!(recount, report.counts);
        prop_assert_eq!(
            recount.average_usm(&report.weights).to_bits(),
            report.average_usm().to_bits()
        );

        // Per-shard recounts match the shard reports exactly (integers).
        for (shard, sr) in report.shard_reports.iter().enumerate() {
            let mut c = OutcomeCounts::default();
            for m in report.log.iter().filter(|m| m.shard == shard) {
                c.record(m.outcome);
            }
            prop_assert_eq!(c, sr.counts);
        }

        // Float layer: the weighted mean agrees to round-off.
        let weighted = report.query_weighted_shard_usm();
        prop_assert!(
            (weighted - report.average_usm()).abs()
                <= 1e-9 * report.average_usm().abs().max(1.0),
            "weighted {} vs cluster {}",
            weighted,
            report.average_usm()
        );

        // And the packaged checker agrees with all of the above.
        check_cluster_identity(&report).map_err(TestCaseError::fail)?;
    }
}
