//! The [`unit_cluster::ClusterRun`] builder's convenience entry points are
//! thin: `run_unit(base)` must produce reports bit-identical to the
//! generic `run(|_, seed| UnitPolicy::new(base.with_seed(seed)))` it is
//! sugar for, with and without a fault plan installed. This pins the
//! equivalence the old `run_*` free functions used to witness before
//! they were removed — callers can switch between the generic and the
//! UNIT-specific entry point without a digest moving.

use unit_cluster::{BackoffConfig, ClusterConfig, FailoverPolicy, RoutingPolicy};
use unit_core::config::UnitConfig;
use unit_core::time::SimDuration;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_sim::{report_digest, SimConfig};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 16;
const SEED: u64 = 0x5EED_0005;

fn bundle() -> TraceBundle {
    let qcfg = QueryTraceConfig::default().scaled_down(SCALE);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / SCALE).max(1));
    TraceBundle::generate(&qcfg, &ucfg)
}

fn sim_cfg(horizon: SimDuration) -> SimConfig {
    SimConfig::new(horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10))
}

fn unit_base() -> UnitConfig {
    UnitConfig::with_weights(UsmWeights::low_high_cfm())
}

#[test]
fn run_unit_matches_the_generic_entry_point() {
    let bundle = bundle();
    let cfg = sim_cfg(bundle.horizon);
    for routing in RoutingPolicy::ALL {
        let cluster = ClusterConfig::new(3).with_routing(routing).with_seed(SEED);

        let sugar = cluster
            .build()
            .run_unit(&bundle.trace, cfg, &unit_base())
            .unwrap()
            .into_plain()
            .unwrap();
        let generic = cluster
            .build()
            .run(&bundle.trace, cfg, |_, seed| {
                UnitPolicy::new(unit_base().with_seed(seed))
            })
            .unwrap()
            .into_plain()
            .unwrap();
        assert_eq!(sugar.assignment, generic.assignment);
        assert_eq!(sugar.log, generic.log);
        assert_eq!(sugar.counts, generic.counts);
        for (s, g) in sugar.shard_reports.iter().zip(&generic.shard_reports) {
            assert_eq!(report_digest(s), report_digest(g));
        }
    }
}

#[test]
fn run_unit_matches_the_generic_entry_point_under_faults() {
    let bundle = bundle();
    let cfg = sim_cfg(bundle.horizon);
    let fcfg = FaultConfig::quiet(bundle.horizon, 100).with_crashes(
        0.2,
        SimDuration::from_secs(40),
        FaultMode::Pause,
    );
    let plan = FaultPlan::generate(0xFA_17, 3, &fcfg);
    let failover = FailoverPolicy::Backoff(BackoffConfig::default());
    let cluster = ClusterConfig::new(3).with_seed(SEED);

    let sugar = cluster
        .build()
        .with_faults(&plan, failover)
        .run_unit(&bundle.trace, cfg, &unit_base())
        .unwrap()
        .into_faulty()
        .unwrap();
    let generic = cluster
        .build()
        .with_faults(&plan, failover)
        .run(&bundle.trace, cfg, |_, seed| {
            UnitPolicy::new(unit_base().with_seed(seed))
        })
        .unwrap()
        .into_faulty()
        .unwrap();
    assert_eq!(sugar.decisions, generic.decisions);
    assert!(sugar.merged_log().eq(generic.merged_log()));
    assert_eq!(sugar.counts, generic.counts);
    for (s, g) in sugar
        .cluster
        .shard_reports
        .iter()
        .zip(&generic.cluster.shard_reports)
    {
        assert_eq!(report_digest(s), report_digest(g));
    }
}
