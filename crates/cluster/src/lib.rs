//! # unit-cluster — sharded multi-server UNIT simulation
//!
//! The paper evaluates UNIT on one server; this crate scales the same
//! machinery to a cluster of `N` deterministic server shards behind a
//! dispatcher (DESIGN.md §3):
//!
//! * **Partitioning** — every data item has one owner shard
//!   (`item mod N`, [`unit_workload::ItemPartition`]); an item's update
//!   streams always execute on its owner.
//! * **Routing** — one dispatch walk routes every query of every run —
//!   plain, faulty, replicated — among the shards hosting its read-set
//!   items (their owners, unreplicated) by a pluggable [`RoutingPolicy`]:
//!   round-robin, least outstanding routed work, or freshness-aware
//!   ([`routing`], [`failover`]).
//! * **Execution** — each shard is a full single-server engine
//!   ([`unit_sim::Simulator`]) with its own policy instance (its own
//!   AC + UM + LBC feedback loop for UNIT) and its own RNG stream split
//!   from the run seed ([`unit_core::split_seed`]).
//! * **Merge** — per-shard outcome logs merge into one cluster history
//!   ordered by `(virtual_time, shard_id, seq)` and one exact integer
//!   outcome tally ([`merge`]).
//!
//! ## Determinism
//!
//! A cluster run is a pure function of `(trace, SimConfig, ClusterConfig)`
//! regardless of worker-thread count or scheduling: routing is a
//! sequential prologue, shards share no mutable state during execution
//! (each consumes its own trace slice and its own seed), results land in
//! slots indexed by shard id, and the merge key is unique. Running with 1
//! worker or `N` workers yields bit-identical [`ClusterReport`]s — a
//! property test pins this.
//!
//! With one shard the dispatcher has a single eligible target for every
//! query, the trace slice equals the global trace, and the shard engine
//! sees byte-identical inputs to a plain single-server run (seeded with
//! `split_seed(seed, 0)`): the differential suite checks the resulting
//! reports digest-identically under every routing policy.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::float_cmp
    )
)]

pub mod failover;
pub mod merge;
pub mod replication;
pub mod routing;
pub mod run;

use unit_faults::ScheduleError;

pub use failover::{
    check_health_consistency, BackoffConfig, FailoverPolicy, FaultClusterReport, RouteDecision,
};
pub use merge::{
    check_cluster_identity, ClusterLane, ClusterReport, MergedOutcome, PromotionRecord,
    PropagationRecord, ReplicaRouteRecord, ReplicationReport,
};
pub use replication::{
    check_replication_consistency, PropagationLag, ReplicaSets, ReplicationConfig,
};
pub use routing::{assign, RoutingPolicy};
pub use run::{ClusterRun, ClusterRunReport};

/// Upper bound on the worker-thread knob; values past this are a typo, not
/// a throughput request.
pub const MAX_WORKERS: usize = 4096;

/// A malformed cluster or fault configuration, rejected before any shard
/// runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// `n_shards == 0`: a cluster needs at least one shard.
    ZeroShards,
    /// `workers` exceeds [`MAX_WORKERS`].
    TooManyWorkers {
        /// The requested worker count.
        workers: usize,
        /// The cap.
        max: usize,
    },
    /// The fault plan does not cover exactly one schedule per shard.
    PlanShardMismatch {
        /// Schedules in the plan.
        plan_shards: usize,
        /// Shards in the cluster.
        n_shards: usize,
    },
    /// A shard's fault schedule failed structural validation.
    FaultSchedule {
        /// The shard whose schedule is malformed.
        shard: usize,
        /// The underlying schedule error.
        error: ScheduleError,
    },
    /// `replication.factor == 0`: every item needs at least its leader.
    ZeroReplicationFactor,
    /// More replicas per item than shards to place them on.
    ReplicationFactorExceedsShards {
        /// The requested replication factor.
        factor: usize,
        /// Shards in the cluster.
        n_shards: usize,
    },
    /// `replication.lag.windows == 0`: the propagation schedule needs at
    /// least one jitter window.
    ZeroPropagationWindows,
    /// A user fault plan injects a stream fault for an item on a shard
    /// that *follows* the item: the propagation schedule already owns that
    /// item's delay intervals there, and the two schedules cannot be
    /// merged without changing one of them.
    ReplicationFaultConflict {
        /// The shard whose user schedule collides.
        shard: usize,
        /// The contested item id.
        item: u32,
    },
}

impl std::fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterConfigError::ZeroShards => write!(f, "a cluster needs at least one shard"),
            ClusterConfigError::TooManyWorkers { workers, max } => {
                write!(f, "{workers} worker threads requested, the cap is {max}")
            }
            ClusterConfigError::PlanShardMismatch {
                plan_shards,
                n_shards,
            } => write!(
                f,
                "fault plan covers {plan_shards} shards but the cluster has {n_shards}"
            ),
            ClusterConfigError::FaultSchedule { shard, error } => {
                write!(f, "shard {shard} fault schedule: {error}")
            }
            ClusterConfigError::ZeroReplicationFactor => {
                write!(f, "replication factor must be at least 1 (the leader)")
            }
            ClusterConfigError::ReplicationFactorExceedsShards { factor, n_shards } => {
                write!(
                    f,
                    "replication factor {factor} exceeds the {n_shards}-shard cluster"
                )
            }
            ClusterConfigError::ZeroPropagationWindows => {
                write!(f, "propagation lag needs at least one jitter window")
            }
            ClusterConfigError::ReplicationFaultConflict { shard, item } => write!(
                f,
                "shard {shard} follows item {item} but the fault plan also injects a \
                 stream fault for it there; propagation owns followed items' schedules"
            ),
        }
    }
}

impl std::error::Error for ClusterConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterConfigError::FaultSchedule { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Cluster shape and determinism knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of server shards (≥ 1).
    pub n_shards: usize,
    /// How the dispatcher routes queries.
    pub routing: RoutingPolicy,
    /// Run seed; shard `i`'s policy seed is `split_seed(seed, i)`.
    pub seed: u64,
    /// Worker threads driving the shards; `0` means auto — one thread per
    /// shard, capped at the host's available parallelism. Purely a
    /// throughput knob — results are bit-identical for any value.
    pub workers: usize,
    /// Demand-filter update streams during slicing
    /// ([`unit_workload::slice_trace`] with `filter` set): stream copies
    /// whose hosting shard serves no reader of the item are dropped.
    /// **Changes per-shard digests** (dropped streams no longer contend
    /// for CPU) — off by default; the differential suites pin the
    /// unfiltered slicing.
    pub filter_updates: bool,
    /// Leader/follower replication of data items (see [`replication`]).
    /// `None` — and, bit-for-bit, `Some` with `factor == 1` — is the
    /// partition-only cluster; only `Some` fills in
    /// [`ClusterReport::replication`].
    pub replication: Option<ReplicationConfig>,
}

impl ClusterConfig {
    /// A cluster of `n_shards` round-robin-routed shards with the default
    /// seed and the auto worker count.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero.
    pub fn new(n_shards: usize) -> ClusterConfig {
        assert!(n_shards > 0, "a cluster needs at least one shard");
        ClusterConfig {
            n_shards,
            routing: RoutingPolicy::RoundRobin,
            seed: unit_core::config::DEFAULT_SEED,
            workers: 0,
            filter_updates: false,
            replication: None,
        }
    }

    /// Set the routing policy.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingPolicy) -> ClusterConfig {
        self.routing = routing;
        self
    }

    /// Ignored: returns `self` unchanged. Shards always run on the
    /// whole-shard claim loop, so there is no epoch to set. Kept only
    /// because the frozen reference benchmark (`benchmark/src/cluster.rs`)
    /// still calls it; the next change to that benchmark deletes the call,
    /// and then this method (ROADMAP.md item 8).
    #[must_use]
    pub fn with_epoch(self, _epoch: unit_core::time::SimDuration) -> ClusterConfig {
        self
    }

    /// Enable demand filtering of update streams (see
    /// [`ClusterConfig::filter_updates`] for the digest caveat).
    #[must_use]
    pub fn with_filtered_updates(mut self) -> ClusterConfig {
        self.filter_updates = true;
        self
    }

    /// Set the run seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ClusterConfig {
        self.seed = seed;
        self
    }

    /// Cap the worker threads (`0` = auto: one per shard, capped at the
    /// host's available parallelism).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> ClusterConfig {
        self.workers = workers;
        self
    }

    /// Replicate every item onto `replication.factor` shards with
    /// freshness-aware read routing (see [`replication`]).
    #[must_use]
    pub fn with_replication(mut self, replication: ReplicationConfig) -> ClusterConfig {
        self.replication = Some(replication);
        self
    }

    /// Check the run-entry invariants. [`ClusterRun::run`] calls this
    /// first, so a malformed config is a typed error, not a panic deep in
    /// a worker thread.
    pub fn validate(&self) -> Result<(), ClusterConfigError> {
        if self.n_shards == 0 {
            return Err(ClusterConfigError::ZeroShards);
        }
        if self.workers > MAX_WORKERS {
            return Err(ClusterConfigError::TooManyWorkers {
                workers: self.workers,
                max: MAX_WORKERS,
            });
        }
        if let Some(rep) = &self.replication {
            rep.validate(self.n_shards)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::time::{SimDuration, SimTime};
    use unit_core::types::{DataId, QueryId, QuerySpec, Trace, UpdateSpec, UpdateStreamId};
    use unit_core::usm::UsmWeights;
    use unit_core::UnitConfig;
    use unit_faults::FaultPlan;
    use unit_sim::SimConfig;

    fn tiny_trace() -> Trace {
        let mut queries = Vec::new();
        for i in 0..40u64 {
            queries.push(QuerySpec {
                id: QueryId(i),
                arrival: SimTime::from_secs(1 + i),
                items: vec![DataId((i % 8) as u32), DataId(((i + 3) % 8) as u32)],
                exec_time: SimDuration::from_secs(1),
                relative_deadline: SimDuration::from_secs(8),
                freshness_req: 0.9,
                pref_class: 0,
            });
        }
        let updates = (0..8u32)
            .map(|i| UpdateSpec {
                id: UpdateStreamId(i),
                item: DataId(i),
                period: SimDuration::from_secs(7 + u64::from(i)),
                exec_time: SimDuration::from_secs(1),
                first_arrival: SimTime::from_secs(u64::from(i % 3)),
            })
            .collect();
        Trace {
            n_items: 8,
            queries,
            updates,
        }
    }

    fn sim_cfg() -> SimConfig {
        SimConfig::new(SimDuration::from_secs(60))
            .with_weights(UsmWeights::low_high_cfm())
            .with_tick_period(SimDuration::from_secs(5))
    }

    fn run_plain(trace: &Trace, cluster: ClusterConfig) -> ClusterReport {
        cluster
            .build()
            .run_unit(trace, sim_cfg(), &UnitConfig::default())
            .unwrap()
            .into_plain()
            .unwrap()
    }

    #[test]
    fn cluster_runs_and_accounts_for_every_query() {
        let trace = tiny_trace();
        for n in [1, 2, 4] {
            let cluster = ClusterConfig::new(n).with_seed(7);
            let report = run_plain(&trace, cluster);
            assert_eq!(report.n_shards, n);
            assert_eq!(report.counts.total(), 40, "n={n}");
            assert_eq!(report.log.len(), 40, "n={n}");
            assert_eq!(report.assignment.len(), 40);
            check_cluster_identity(&report).unwrap();
        }
    }

    #[test]
    fn worker_count_does_not_change_the_merge() {
        let trace = tiny_trace();
        for routing in RoutingPolicy::ALL {
            let base = ClusterConfig::new(4).with_seed(11).with_routing(routing);
            let a = run_plain(&trace, base);
            let b = run_plain(&trace, base.with_workers(1));
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.log, b.log);
            assert_eq!(a.counts, b.counts);
        }
    }

    #[test]
    fn malformed_configs_are_typed_errors() {
        let trace = tiny_trace();
        let mut zero = ClusterConfig::new(2);
        zero.n_shards = 0;
        assert_eq!(zero.validate().unwrap_err(), ClusterConfigError::ZeroShards);
        assert_eq!(
            zero.build()
                .run_unit(&trace, sim_cfg(), &UnitConfig::default())
                .unwrap_err(),
            ClusterConfigError::ZeroShards
        );
        let greedy = ClusterConfig::new(2).with_workers(MAX_WORKERS + 1);
        assert_eq!(
            greedy
                .build()
                .run_unit(&trace, sim_cfg(), &UnitConfig::default())
                .unwrap_err(),
            ClusterConfigError::TooManyWorkers {
                workers: MAX_WORKERS + 1,
                max: MAX_WORKERS
            }
        );
        // A capped-but-legal worker count is fine.
        let ok = ClusterConfig::new(2).with_workers(MAX_WORKERS);
        assert!(ok
            .build()
            .run_unit(&trace, sim_cfg(), &UnitConfig::default())
            .is_ok());
    }

    #[test]
    fn with_epoch_leaves_the_config_unchanged() {
        assert_eq!(
            ClusterConfig::new(4).with_epoch(SimDuration::from_secs(100)),
            ClusterConfig::new(4)
        );
    }

    #[test]
    fn malformed_replication_configs_are_typed_errors() {
        let trace = tiny_trace();
        let run = |cluster: ClusterConfig| {
            cluster
                .build()
                .run_unit(&trace, sim_cfg(), &UnitConfig::default())
        };
        assert_eq!(
            run(ClusterConfig::new(2).with_replication(ReplicationConfig::new(0))).unwrap_err(),
            ClusterConfigError::ZeroReplicationFactor
        );
        assert_eq!(
            run(ClusterConfig::new(2).with_replication(ReplicationConfig::new(3))).unwrap_err(),
            ClusterConfigError::ReplicationFactorExceedsShards {
                factor: 3,
                n_shards: 2
            }
        );
        let windowless = ReplicationConfig::new(2).with_lag(PropagationLag::jittered(
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            0,
        ));
        assert_eq!(
            run(ClusterConfig::new(2).with_replication(windowless)).unwrap_err(),
            ClusterConfigError::ZeroPropagationWindows
        );
        // The same checks fire through validate() without running anything.
        assert_eq!(
            ClusterConfig::new(2)
                .with_replication(ReplicationConfig::new(0))
                .validate()
                .unwrap_err(),
            ClusterConfigError::ZeroReplicationFactor
        );
        // And a well-formed replicated config passes.
        assert!(run(ClusterConfig::new(2).with_replication(ReplicationConfig::new(2))).is_ok());
    }

    #[test]
    fn replication_fault_conflicts_are_typed_errors() {
        // Item 0's leader is shard 0; its ring follower is shard 1. A user
        // stream fault for item 0 on shard 1 collides with the propagation
        // schedule that owns followed items there.
        let trace = tiny_trace();
        let mut plan = FaultPlan::quiet(2);
        plan.shards[1].stream_faults.push(unit_faults::StreamFault {
            item: DataId(0),
            start: SimTime::from_secs(5),
            end: SimTime::from_secs(10),
            kind: unit_faults::StreamFaultKind::Drop,
        });
        let rep =
            ReplicationConfig::new(2).with_lag(PropagationLag::fixed(SimDuration::from_secs(3)));
        assert_eq!(
            ClusterConfig::new(2)
                .with_seed(7)
                .with_replication(rep)
                .build()
                .with_faults(&plan, FailoverPolicy::NoRetry)
                .run_unit(&trace, sim_cfg(), &UnitConfig::default())
                .unwrap_err(),
            ClusterConfigError::ReplicationFaultConflict { shard: 1, item: 0 }
        );
        // The same fault on the item's *leader* shard is legal: only
        // follower-side schedules belong to the propagation layer.
        let mut leader_side = FaultPlan::quiet(2);
        leader_side.shards[0]
            .stream_faults
            .push(unit_faults::StreamFault {
                item: DataId(0),
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(10),
                kind: unit_faults::StreamFaultKind::Drop,
            });
        assert!(ClusterConfig::new(2)
            .with_seed(7)
            .with_replication(rep)
            .build()
            .with_faults(&leader_side, FailoverPolicy::NoRetry)
            .run_unit(&trace, sim_cfg(), &UnitConfig::default())
            .is_ok());
    }

    #[test]
    fn fault_cluster_rejects_bad_plans() {
        let trace = tiny_trace();
        let cluster = ClusterConfig::new(2).with_seed(7);
        let short = FaultPlan::quiet(1);
        assert_eq!(
            cluster
                .build()
                .with_faults(&short, FailoverPolicy::NoRetry)
                .run_unit(&trace, sim_cfg(), &UnitConfig::default())
                .unwrap_err(),
            ClusterConfigError::PlanShardMismatch {
                plan_shards: 1,
                n_shards: 2
            }
        );
        let mut bad = FaultPlan::quiet(2);
        bad.shards[1].crashes.push(unit_faults::CrashWindow {
            start: unit_core::time::SimTime::from_secs(5),
            end: unit_core::time::SimTime::from_secs(5),
            mode: unit_faults::FaultMode::Pause,
        });
        let err = cluster
            .build()
            .with_faults(&bad, FailoverPolicy::NoRetry)
            .run_unit(&trace, sim_cfg(), &UnitConfig::default())
            .unwrap_err();
        assert!(matches!(
            err,
            ClusterConfigError::FaultSchedule { shard: 1, .. }
        ));
    }

    #[test]
    fn quiet_fault_cluster_matches_the_plain_cluster() {
        let trace = tiny_trace();
        let quiet = FaultPlan::quiet(4);
        for routing in RoutingPolicy::ALL {
            let cluster = ClusterConfig::new(4).with_seed(11).with_routing(routing);
            let plain = run_plain(&trace, cluster);
            for failover in [
                FailoverPolicy::NoRetry,
                FailoverPolicy::Backoff(BackoffConfig::default()),
            ] {
                let faulty = cluster
                    .build()
                    .with_faults(&quiet, failover)
                    .run_unit(&trace, sim_cfg(), &UnitConfig::default())
                    .unwrap()
                    .into_faulty()
                    .unwrap();
                assert_eq!(faulty.cluster.assignment, plain.assignment);
                assert_eq!(faulty.cluster.log, plain.log);
                assert_eq!(faulty.counts, plain.counts);
                assert_eq!(faulty.dispatcher_rejections(), 0);
                assert_eq!(faulty.total_retries(), 0);
                check_health_consistency(&faulty, &FaultPlan::quiet(4), &failover).unwrap();
            }
        }
    }

    #[test]
    fn faulty_cluster_conserves_queries_and_stays_consistent() {
        use unit_core::time::SimDuration;
        use unit_faults::{FaultConfig, FaultMode};
        let trace = tiny_trace();
        let cfg = FaultConfig::quiet(SimDuration::from_secs(60), 8).with_crashes(
            0.25,
            SimDuration::from_secs(8),
            FaultMode::Pause,
        );
        let plan = FaultPlan::generate(0xFA_17, 2, &cfg);
        assert!(!plan.is_empty());
        let cluster = ClusterConfig::new(2).with_seed(7);
        let failover = FailoverPolicy::Backoff(BackoffConfig::default());
        let report = cluster
            .build()
            .with_faults(&plan, failover)
            .run_unit(&trace, sim_cfg(), &UnitConfig::default())
            .unwrap()
            .into_faulty()
            .unwrap();
        // Every query decided exactly once, dispatcher rejections included.
        assert_eq!(report.counts.total(), 40);
        assert_eq!(report.log.len(), 40);
        check_health_consistency(&report, &plan, &failover).unwrap();
        // Bit-reproducible, for any worker count.
        let again = cluster
            .with_workers(1)
            .build()
            .with_faults(&plan, failover)
            .run_unit(&trace, sim_cfg(), &UnitConfig::default())
            .unwrap()
            .into_faulty()
            .unwrap();
        assert_eq!(report.log, again.log);
        assert_eq!(report.counts, again.counts);
        assert_eq!(report.decisions, again.decisions);
    }
}
