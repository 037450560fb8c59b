//! Replication differential suite: `factor == 1` is provably inert.
//!
//! A [`unit_cluster::ClusterRun`] with replication at factor 1 builds the
//! full replica machinery — a [`unit_cluster::ReplicaSets`], the
//! replica-aware routing prologue, replicated trace slicing — yet every
//! item's replica set is exactly its leader, the propagation schedule is
//! empty, and the candidate pools collapse to the owner shard. So the run
//! must be **digest-bit-identical** to today's partition-only cluster:
//! same shard digests, same assignment, same merged log and tallies, for
//! all 4 policies × 3 scheduling disciplines × 3 routing policies on the
//! golden fig3-style workload at scale=8, plain and under a fault plan,
//! for ≥2 worker counts. This is the contract
//! that lets the replication layer ship inside the main cluster path
//! without perturbing a single golden digest.

use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};
use unit_cluster::{
    BackoffConfig, ClusterConfig, FailoverPolicy, PropagationLag, ReplicationConfig, RoutingPolicy,
};
use unit_core::config::UnitConfig;
use unit_core::policy::Policy;
use unit_core::time::SimDuration;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_sim::{report_digest, SchedulingDiscipline, SimConfig};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 8;
const SEED: u64 = 0x5EED_0001;
const N_SHARDS: usize = 2;

/// The golden workload at scale=8 (same bundle as `differential.rs`).
fn golden_bundle() -> TraceBundle {
    let qcfg = QueryTraceConfig::default().scaled_down(SCALE);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / SCALE).max(1));
    TraceBundle::generate(&qcfg, &ucfg)
}

fn sim_config(horizon: SimDuration, discipline: SchedulingDiscipline) -> SimConfig {
    SimConfig::new(horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10))
        .with_discipline(discipline)
}

const DISCIPLINES: [(SchedulingDiscipline, &str); 3] = [
    (SchedulingDiscipline::DualPriorityEdf, "dual"),
    (SchedulingDiscipline::GlobalEdf, "global"),
    (SchedulingDiscipline::QueryFirst, "qfirst"),
];

/// Factor-1 configs that must all be inert: the bare default, and one
/// with a jittered lag schedule (no follower slots exist to delay, so the
/// lag knob must be unobservable too).
fn inert_replications() -> [ReplicationConfig; 2] {
    [
        ReplicationConfig::new(1),
        ReplicationConfig::new(1).with_lag(PropagationLag::jittered(
            SimDuration::from_secs(30),
            SimDuration::from_secs(90),
            4,
        )),
    ]
}

/// For every discipline × routing × worker count: replicated run at
/// factor 1 == plain run, shard digest for shard digest, plus the merged
/// artifacts and the (empty) replication report.
fn factor_one_differential<P: Policy + Send>(policy_name: &str, make: impl Fn(u64) -> P + Sync) {
    let bundle = golden_bundle();
    let mut failures = Vec::new();
    for (discipline, dname) in DISCIPLINES {
        let cfg = sim_config(bundle.horizon, discipline);
        for routing in RoutingPolicy::ALL {
            let cluster_cfg = ClusterConfig::new(N_SHARDS)
                .with_routing(routing)
                .with_seed(SEED);
            let plain = cluster_cfg
                .build()
                .run(&bundle.trace, cfg, |_, seed| make(seed))
                .expect("valid cluster config")
                .into_plain()
                .expect("fault-free run");
            for rep in inert_replications() {
                for workers in [0usize, 1] {
                    let replicated = cluster_cfg
                        .with_workers(workers)
                        .with_replication(rep)
                        .build()
                        .run(&bundle.trace, cfg, |_, seed| make(seed))
                        .expect("valid replicated config")
                        .into_plain()
                        .expect("fault-free run");
                    for shard in 0..N_SHARDS {
                        let p = report_digest(&plain.shard_reports[shard]);
                        let r = report_digest(&replicated.shard_reports[shard]);
                        if p != r {
                            failures.push(format!(
                                "{policy_name}/{dname}/{}/w{workers}/shard{shard}: \
                                 factor-1 digest {r:#018x} != plain {p:#018x}",
                                routing.name()
                            ));
                        }
                    }
                    assert_eq!(replicated.assignment, plain.assignment);
                    assert_eq!(replicated.log, plain.log);
                    assert_eq!(replicated.counts, plain.counts);
                    assert_eq!(
                        replicated.average_usm().to_bits(),
                        plain.average_usm().to_bits(),
                        "{policy_name}/{dname}/{}: USM diverged at factor 1",
                        routing.name()
                    );
                    // The replica layer ran — it reports — but saw nothing.
                    let rep_report = replicated
                        .replication
                        .as_ref()
                        .expect("replicated run carries a replication report");
                    assert_eq!(rep_report.factor, 1);
                    assert!(rep_report.propagation.is_empty());
                    assert!(rep_report.routes.is_empty());
                    assert!(rep_report.promotions.is_empty());
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "factor-1 replication diverged from the plain cluster:\n{}",
        failures.join("\n")
    );
}

#[test]
fn factor_one_is_bit_identical_imu() {
    factor_one_differential("IMU", |_| ImuPolicy::new());
}

#[test]
fn factor_one_is_bit_identical_odu() {
    factor_one_differential("ODU", |_| OduPolicy::new());
}

#[test]
fn factor_one_is_bit_identical_qmf() {
    factor_one_differential("QMF", |_| QmfPolicy::default());
}

#[test]
fn factor_one_is_bit_identical_unit() {
    factor_one_differential("UNIT", |seed| {
        UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(seed))
    });
}

fn unit_policy(seed: u64) -> UnitPolicy {
    UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(seed))
}

#[test]
fn factor_one_is_bit_identical_under_faults() {
    // Same inertness with a live fault plan: crashes reroute queries and
    // pause shards, and factor-1 replication must not move a single
    // verdict or outcome relative to the non-replicated fault path.
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let fcfg = FaultConfig::quiet(bundle.horizon, bundle.trace.n_items).with_crashes(
        0.2,
        SimDuration::from_secs(400),
        FaultMode::Pause,
    );
    let plan = FaultPlan::generate(0xFA_17, N_SHARDS, &fcfg);
    assert!(
        !plan.is_empty(),
        "the fault plan must actually crash shards"
    );
    let failover = FailoverPolicy::Backoff(BackoffConfig::default());
    for routing in RoutingPolicy::ALL {
        let cluster_cfg = ClusterConfig::new(N_SHARDS)
            .with_routing(routing)
            .with_seed(SEED);
        let plain = cluster_cfg
            .build()
            .with_faults(&plan, failover)
            .run(&bundle.trace, cfg, |_, seed| unit_policy(seed))
            .expect("valid fault config")
            .into_faulty()
            .expect("fault run");
        for workers in [0usize, 1] {
            let replicated = cluster_cfg
                .with_workers(workers)
                .with_replication(ReplicationConfig::new(1))
                .build()
                .with_faults(&plan, failover)
                .run(&bundle.trace, cfg, |_, seed| unit_policy(seed))
                .expect("valid replicated fault config")
                .into_faulty()
                .expect("fault run");
            for shard in 0..N_SHARDS {
                assert_eq!(
                    report_digest(&replicated.cluster.shard_reports[shard]),
                    report_digest(&plain.cluster.shard_reports[shard]),
                    "{}/w{workers}/shard{shard}",
                    routing.name()
                );
            }
            assert_eq!(replicated.decisions, plain.decisions);
            assert_eq!(replicated.cluster.assignment, plain.cluster.assignment);
            assert_eq!(replicated.cluster.log, plain.cluster.log);
            assert_eq!(replicated.counts, plain.counts);
            let rep_report = replicated
                .cluster
                .replication
                .as_ref()
                .expect("replication report");
            assert!(rep_report.propagation.is_empty());
            assert!(rep_report.promotions.is_empty());
        }
    }
}

#[test]
fn factor_one_is_bit_identical_across_workers() {
    // Freshness-aware routing with replication installed: still the plain
    // digests, for two worker counts.
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let base = ClusterConfig::new(N_SHARDS)
        .with_routing(RoutingPolicy::FreshnessAware)
        .with_seed(SEED);
    let plain = base
        .build()
        .run(&bundle.trace, cfg, |_, seed| unit_policy(seed))
        .expect("valid cluster config")
        .into_plain()
        .expect("fault-free run");
    for workers in [0usize, 2] {
        let replicated = base
            .with_workers(workers)
            .with_replication(ReplicationConfig::new(1))
            .build()
            .run(&bundle.trace, cfg, |_, seed| unit_policy(seed))
            .expect("valid replicated config")
            .into_plain()
            .expect("fault-free run");
        for shard in 0..N_SHARDS {
            assert_eq!(
                report_digest(&replicated.shard_reports[shard]),
                report_digest(&plain.shard_reports[shard]),
                "w={workers} shard{shard}"
            );
        }
        assert_eq!(replicated.log, plain.log);
        assert_eq!(replicated.counts, plain.counts);
    }
}

#[test]
fn replicated_cluster_conserves_queries_and_propagates() {
    // Factor > 1 with real lag: not bit-equal to the plain cluster (that
    // is the point), but every query is still decided exactly once, the
    // merged identity holds, and the propagation log is non-trivial.
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    for routing in RoutingPolicy::ALL {
        let rep = ReplicationConfig::new(2).with_lag(PropagationLag::jittered(
            SimDuration::from_secs(60),
            SimDuration::from_secs(120),
            4,
        ));
        let report = ClusterConfig::new(4)
            .with_routing(routing)
            .with_seed(SEED)
            .with_replication(rep)
            .build()
            .run(&bundle.trace, cfg, |_, seed| unit_policy(seed))
            .expect("valid replicated config")
            .into_plain()
            .expect("fault-free run");
        assert_eq!(
            report.counts.total() as usize,
            bundle.trace.queries.len(),
            "{}",
            routing.name()
        );
        unit_cluster::check_cluster_identity(&report).unwrap();
        let rep_report = report.replication.as_ref().expect("replication report");
        assert_eq!(rep_report.factor, 2);
        assert!(
            !rep_report.propagation.is_empty(),
            "{}: updates must propagate to followers",
            routing.name()
        );
        // Bit-reproducible for any worker count, replication included.
        let again = ClusterConfig::new(4)
            .with_routing(routing)
            .with_seed(SEED)
            .with_replication(ReplicationConfig::new(2).with_lag(PropagationLag::jittered(
                SimDuration::from_secs(60),
                SimDuration::from_secs(120),
                4,
            )))
            .with_workers(1)
            .build()
            .run(&bundle.trace, cfg, |_, seed| unit_policy(seed))
            .expect("valid replicated config")
            .into_plain()
            .expect("fault-free run");
        assert_eq!(again.log, report.log);
        assert_eq!(again.counts, report.counts);
        assert_eq!(again.replication, report.replication);
    }
}
