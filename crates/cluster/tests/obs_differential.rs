//! Observability digest-neutrality suite (DESIGN.md §11): installing a
//! recorder must not move a single bit of any report.
//!
//! Every engine emission site is gated on the presence of an observer, and
//! everything the observer sees is either a copy of state the engine
//! already computed or a drained side buffer the decision paths never
//! read. So for all 4 policies × 3 scheduling disciplines, single-server
//! and cluster, plain and fault-injected: `report_digest` with a
//! [`RingRecorder`] installed equals `report_digest` without one,
//! bit for bit — and the recorded stream itself is a pure function of the
//! run inputs (worker count invisible).

use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};
use unit_cluster::{BackoffConfig, ClusterConfig, FailoverPolicy, RoutingPolicy};
use unit_core::config::UnitConfig;
use unit_core::policy::Policy;
use unit_core::split_seed;
use unit_core::time::SimDuration;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_obs::{ObsEvent, RingRecorder};
use unit_sim::{report_digest, SchedulingDiscipline, SimConfig, SimRun};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 8;
const SEED: u64 = 0x5EED_0001;

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

/// Single server: digest(with recorder) == digest(without), and the
/// recorder actually saw the run.
fn single_server_neutrality<P: Policy>(policy_name: &str, make: impl Fn(u64) -> P) {
    let bundle = golden_bundle();
    for (discipline, dname) in DISCIPLINES {
        let cfg = sim_config(bundle.horizon, discipline);
        let seed = split_seed(SEED, 0);
        let quiet = SimRun::trace(&bundle.trace, make(seed), cfg).run();
        let mut rec = RingRecorder::unbounded();
        let observed = SimRun::trace(&bundle.trace, make(seed), cfg)
            .with_observer(&mut rec)
            .run();
        assert_eq!(
            report_digest(&quiet),
            report_digest(&observed),
            "{policy_name}/{dname}: recorder moved the digest"
        );
        // The stream is real: one admission + one outcome per query, plus
        // a control tick per period.
        let admissions = rec
            .events()
            .filter(|e| matches!(e, ObsEvent::Admission { .. }))
            .count();
        let outcomes = rec
            .events()
            .filter(|e| matches!(e, ObsEvent::QueryOutcome { .. }))
            .count();
        let ticks = rec
            .events()
            .filter(|e| matches!(e, ObsEvent::ControlTick { .. }))
            .count();
        assert_eq!(
            admissions,
            bundle.trace.queries.len(),
            "{policy_name}/{dname}"
        );
        assert_eq!(
            outcomes,
            bundle.trace.queries.len(),
            "{policy_name}/{dname}"
        );
        assert!(
            ticks > 0,
            "{policy_name}/{dname}: no control ticks recorded"
        );
    }
}

#[test]
fn single_server_recorder_is_digest_neutral_imu() {
    single_server_neutrality("IMU", |_| ImuPolicy::new());
}

#[test]
fn single_server_recorder_is_digest_neutral_odu() {
    single_server_neutrality("ODU", |_| OduPolicy::new());
}

#[test]
fn single_server_recorder_is_digest_neutral_qmf() {
    single_server_neutrality("QMF", |_| QmfPolicy::default());
}

#[test]
fn single_server_recorder_is_digest_neutral_unit() {
    single_server_neutrality("UNIT", |seed| {
        UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(seed))
    });
}

/// Cluster, fault-free: digest-neutral per shard, merged history
/// untouched, and the observed stream is worker-count-invariant.
#[test]
fn cluster_recorder_is_digest_neutral_and_worker_invariant() {
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let base = UnitConfig::with_weights(UsmWeights::low_high_cfm());
    for routing in RoutingPolicy::ALL {
        let cluster = ClusterConfig::new(3).with_routing(routing).with_seed(SEED);
        let quiet = cluster
            .build()
            .run_unit(&bundle.trace, cfg, &base)
            .unwrap()
            .into_plain()
            .unwrap();
        let mut rec = RingRecorder::unbounded();
        let observed = cluster
            .build()
            .with_observer(&mut rec)
            .run_unit(&bundle.trace, cfg, &base)
            .unwrap()
            .into_plain()
            .unwrap();
        assert_eq!(quiet.log, observed.log, "{}", routing.name());
        assert_eq!(quiet.counts, observed.counts);
        for (q, o) in quiet.shard_reports.iter().zip(&observed.shard_reports) {
            assert_eq!(report_digest(q), report_digest(o), "{}", routing.name());
        }
        // Every query got a dispatcher route, and shard events are tagged.
        let routes = rec
            .events()
            .filter(|e| matches!(e, ObsEvent::DispatcherRoute { .. }))
            .count();
        assert_eq!(routes, bundle.trace.queries.len());
        assert!(rec.events().any(|e| matches!(e, ObsEvent::Shard { .. })));
        // Time-ordered stream (the replay's (time, lane, seq) sort).
        let stream = rec.into_events();
        assert!(stream.windows(2).all(|w| w[0].time() <= w[1].time()));

        // Worker count changes nothing in the observed stream.
        let mut rec1 = RingRecorder::unbounded();
        cluster
            .with_workers(1)
            .build()
            .with_observer(&mut rec1)
            .run_unit(&bundle.trace, cfg, &base)
            .unwrap();
        assert_eq!(stream, rec1.into_events(), "{}", routing.name());
    }
}

/// Cluster under a fault plan: digest-neutral, and the stream carries the
/// shard-health transitions the dispatcher saw.
#[test]
fn fault_cluster_recorder_is_digest_neutral() {
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let base = UnitConfig::with_weights(UsmWeights::low_high_cfm());
    let fcfg = FaultConfig::quiet(bundle.horizon, 100).with_crashes(
        0.25,
        SimDuration::from_secs(60),
        FaultMode::Pause,
    );
    let plan = FaultPlan::generate(0xFA_17, 3, &fcfg);
    assert!(!plan.is_empty());
    let failover = FailoverPolicy::Backoff(BackoffConfig::default());
    let cluster = ClusterConfig::new(3).with_seed(SEED);

    let quiet = cluster
        .build()
        .with_faults(&plan, failover)
        .run_unit(&bundle.trace, cfg, &base)
        .unwrap()
        .into_faulty()
        .unwrap();
    let mut rec = RingRecorder::unbounded();
    let observed = cluster
        .build()
        .with_faults(&plan, failover)
        .with_observer(&mut rec)
        .run_unit(&bundle.trace, cfg, &base)
        .unwrap()
        .into_faulty()
        .unwrap();
    assert_eq!(quiet.decisions, observed.decisions);
    assert!(quiet.merged_log().eq(observed.merged_log()));
    assert_eq!(quiet.counts, observed.counts);
    for (q, o) in quiet
        .cluster
        .shard_reports
        .iter()
        .zip(&observed.cluster.shard_reports)
    {
        assert_eq!(report_digest(q), report_digest(o));
    }
    // The plan generated crash windows, so transitions must be visible.
    assert!(rec
        .events()
        .any(|e| matches!(e, ObsEvent::ShardHealth { .. })));
    let decided = rec
        .events()
        .filter(|e| {
            matches!(
                e,
                ObsEvent::DispatcherRoute { .. } | ObsEvent::DispatcherReject { .. }
            )
        })
        .count();
    assert_eq!(decided, bundle.trace.queries.len());
}
