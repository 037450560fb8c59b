//! Property tests for the replication layer (and its merge/obs plumbing):
//!
//! (a) **update conservation** — replicated slicing puts each update
//!     stream on exactly its item's replica set: `factor` copies, one per
//!     hosting shard, leader included;
//! (b) **lag-estimate soundness** — at any instant the dispatcher's
//!     claimed in-transit bound dominates the true emitted-minus-delivered
//!     backlog, for every item and follower slot;
//! (c) **determinism** — a replicated run (merged log, tallies,
//!     replication report, and the full observed event stream) is
//!     bit-identical across reruns, worker counts, and epoch stepping;
//! (d) **promotion uniqueness** — promotions only ever name a live
//!     follower of the item, deduplicate to target changes, and originate
//!     from the item's leader.

use proptest::prelude::*;
use unit_cluster::{
    BackoffConfig, ClusterConfig, FailoverPolicy, PropagationLag, ReplicaSets, ReplicationConfig,
    RoutingPolicy,
};
use unit_core::config::UnitConfig;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::DataId;
use unit_core::usm::UsmWeights;
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_obs::RingRecorder;
use unit_sim::SimConfig;
use unit_workload::{
    slice_trace, QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

/// A replicated cluster scenario: workload shape, shard count, factor,
/// lag schedule, routing, run seed.
#[derive(Debug, Clone)]
struct Scenario {
    bundle: TraceBundle,
    n_shards: usize,
    routing: RoutingPolicy,
    seed: u64,
    replication: ReplicationConfig,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        (
            16usize..48,     // n_items
            50usize..160,    // n_queries
            3_000u64..8_000, // horizon seconds
            any::<u64>(),    // workload seed
        ),
        (
            2usize..5,    // n_shards
            0usize..3,    // routing policy index
            any::<u64>(), // run seed
        ),
        (
            1usize..3, // extra replicas (factor - 1, capped below)
            0u64..300, // base lag seconds
            0u64..600, // jitter seconds
            1usize..5, // jitter windows
        ),
    )
        .prop_map(
            |(
                (n_items, n_queries, horizon, wl_seed),
                (n_shards, routing, seed),
                (extra, base, jitter, windows),
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
                let factor = (1 + extra).min(n_shards);
                let replication =
                    ReplicationConfig::new(factor).with_lag(PropagationLag::jittered(
                        SimDuration::from_secs(base),
                        SimDuration::from_secs(jitter),
                        windows,
                    ));
                Scenario {
                    bundle: TraceBundle::generate(&qcfg, &ucfg),
                    n_shards,
                    routing: RoutingPolicy::ALL[routing],
                    seed,
                    replication,
                }
            },
        )
}

fn sim_cfg(s: &Scenario) -> SimConfig {
    SimConfig::new(s.bundle.horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10))
}

fn cluster_cfg(s: &Scenario) -> ClusterConfig {
    ClusterConfig::new(s.n_shards)
        .with_routing(s.routing)
        .with_seed(s.seed)
        .with_replication(s.replication)
}

/// Run the scenario with an observer attached, returning the report and
/// the full replayed event stream.
fn run_observed(
    s: &Scenario,
    cfg: ClusterConfig,
) -> (unit_cluster::ClusterReport, Vec<unit_obs::ObsEvent>) {
    let mut rec = RingRecorder::unbounded();
    let report = cfg
        .build()
        .with_observer(&mut rec)
        .run_unit(
            &s.bundle.trace,
            sim_cfg(s),
            &UnitConfig::with_weights(UsmWeights::low_high_cfm()),
        )
        .expect("valid replicated config")
        .into_plain()
        .expect("fault-free run");
    (report, rec.into_events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Replicated slicing is conservation with multiplicity `factor`:
    /// each stream lands once on every shard of its item's replica set
    /// and nowhere else, and the copy count closes.
    #[test]
    fn updates_are_conserved_across_replicas(s in scenario_strategy()) {
        let (report, _) = run_observed(&s, cluster_cfg(&s));
        let map = s.replication.replica_map(s.n_shards);
        let slices =
            slice_trace(&s.bundle.trace, &report.assignment, &map, false)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let factor = map.factor();
        for u in &s.bundle.trace.updates {
            let replicas: Vec<usize> = map.replicas(u.item).collect();
            prop_assert_eq!(replicas.len(), factor);
            for (shard, slice) in slices.iter().enumerate() {
                let copies = slice.updates.iter().filter(|v| v.id == u.id).count();
                let hosts = replicas.contains(&shard);
                prop_assert_eq!(
                    copies,
                    usize::from(hosts),
                    "stream {} on shard {}: hosts={}",
                    u.id.0,
                    shard,
                    hosts
                );
            }
        }
        // Unfiltered: every copy is kept.
        prop_assert_eq!(
            slices.iter().map(|t| t.updates.len()).sum::<usize>(),
            s.bundle.trace.updates.len() * factor
        );
    }

    /// (b) The dispatcher's `Qu` arithmetic is sound at every instant it
    /// could be consulted: the claimed in-transit count dominates the true
    /// backlog `emitted - delivered`, and deliveries never outrun
    /// emissions.
    #[test]
    fn lag_estimates_are_sound(
        s in scenario_strategy(),
        probes in proptest::collection::vec(any::<u64>(), 8..17),
    ) {
        let sets = ReplicaSets::new(
            &s.bundle.trace,
            s.n_shards,
            &s.replication,
            s.seed,
            s.bundle.horizon,
        );
        let span = s.bundle.horizon.0 + s.replication.lag.max_lag().0 + 2;
        for &p in &probes {
            let t = SimTime(p % span);
            for item in 0..s.bundle.trace.n_items {
                let d = DataId(item as u32);
                let emitted = sets.emitted(d, t);
                let claimed = sets.claimed_transit(d, t);
                for k in 1..sets.factor() {
                    let delivered = sets.delivered(d, k, t);
                    prop_assert!(
                        delivered <= emitted,
                        "item {item} slot {k} t={}: delivered {delivered} > emitted {emitted}",
                        t.0
                    );
                    prop_assert!(
                        emitted - delivered <= claimed,
                        "item {item} slot {k} t={}: backlog {} exceeds claimed {claimed}",
                        t.0,
                        emitted - delivered
                    );
                }
            }
        }
    }

    /// (c) A replicated run is a pure function of `(trace, config, seed)`:
    /// reruns, a single worker, and epoch-parallel stepping all reproduce
    /// the merged log, the tallies, the replication report, and the
    /// byte-for-byte observed event stream — replica pseudo-lanes
    /// included. The merged artifacts are also totally ordered on their
    /// documented keys.
    #[test]
    fn replicated_runs_are_deterministic(s in scenario_strategy()) {
        let base = cluster_cfg(&s);
        let (first, first_events) = run_observed(&s, base);
        let (rerun, rerun_events) = run_observed(&s, base);
        prop_assert_eq!(&rerun.log, &first.log);
        prop_assert_eq!(rerun.counts, first.counts);
        prop_assert_eq!(&rerun.replication, &first.replication);
        prop_assert_eq!(&rerun_events, &first_events);
        let (single, single_events) = run_observed(&s, base.with_workers(1));
        prop_assert_eq!(&single.assignment, &first.assignment);
        prop_assert_eq!(&single.log, &first.log);
        prop_assert_eq!(&single.replication, &first.replication);
        prop_assert_eq!(&single_events, &first_events);
        let (epoch, epoch_events) =
            run_observed(&s, base.with_epoch(SimDuration::from_secs(500)));
        prop_assert_eq!(&epoch.log, &first.log);
        prop_assert_eq!(&epoch.replication, &first.replication);
        prop_assert_eq!(&epoch_events, &first_events);

        // Total order of the merged history: (time, shard, seq) strictly
        // increasing; propagation: (time, follower lane, per-lane seq).
        for w in first.log.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            prop_assert!(
                (a.time, a.shard, a.seq) < (b.time, b.shard, b.seq),
                "merged log out of order at t={}", b.time.0
            );
        }
        let rep = first.replication.as_ref()
            .ok_or_else(|| TestCaseError::fail("missing replication report"))?;
        let mut seqs = vec![0u64; s.n_shards];
        let mut last = None;
        for r in &rep.propagation {
            let key = (r.time, r.follower, seqs[r.follower]);
            seqs[r.follower] += 1;
            prop_assert!(
                last.map_or(true, |l| l < key),
                "propagation log out of order at t={}", r.time.0
            );
            last = Some(key);
        }
    }

    /// (d) Under leader crashes, every promotion is unique and well
    /// targeted: it originates from the item's leader, names a live
    /// follower replica, happens only while the leader is actually
    /// paused, and the log never holds duplicate records — and the whole
    /// promotion history is bit-reproducible across worker counts.
    #[test]
    fn promotions_are_unique_and_well_targeted(s in scenario_strategy()) {
        prop_assume!(s.replication.factor > 1);
        let fcfg = FaultConfig::quiet(s.bundle.horizon, s.bundle.trace.n_items)
            .with_crashes(0.3, SimDuration::from_secs(400), FaultMode::Pause);
        let plan = FaultPlan::generate(s.seed ^ 0xFA_17, s.n_shards, &fcfg);
        let run = |workers: usize| {
            cluster_cfg(&s)
                .with_workers(workers)
                .build()
                .with_faults(&plan, FailoverPolicy::Backoff(BackoffConfig::default()))
                .run_unit(
                    &s.bundle.trace,
                    sim_cfg(&s),
                    &UnitConfig::with_weights(UsmWeights::low_high_cfm()),
                )
                .expect("valid replicated fault config")
                .into_faulty()
                .expect("fault run")
        };
        let report = run(0);
        let map = s.replication.replica_map(s.n_shards);
        let rep = report.cluster.replication.as_ref()
            .ok_or_else(|| TestCaseError::fail("missing replication report"))?;
        for p in &rep.promotions {
            prop_assert_eq!(p.from, map.leader(p.item), "promotion from a non-leader");
            prop_assert!(
                map.follows(p.to, p.item),
                "item {} promoted to shard {} which is not a follower",
                p.item.0,
                p.to
            );
            prop_assert!(
                plan.shards[p.from].health_at(p.time).queries_paused(),
                "item {} promoted at t={} while its leader {} was serving",
                p.item.0,
                p.time.0,
                p.from
            );
            prop_assert!(
                !plan.shards[p.to].health_at(p.time).queries_paused(),
                "item {} promoted at t={} onto paused shard {}",
                p.item.0,
                p.time.0,
                p.to
            );
        }
        // No exact duplicates: the dedup slate only re-admits a target
        // after the leader recovered, which is a different instant.
        let mut keys: Vec<_> = rep
            .promotions
            .iter()
            .map(|p| (p.time, p.item.0, p.to))
            .collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "duplicate promotion records");
        // And the history is worker-count invariant.
        let single = run(1);
        prop_assert_eq!(&single.cluster.replication, &report.cluster.replication);
        prop_assert_eq!(&single.cluster.log, &report.cluster.log);
    }
}
