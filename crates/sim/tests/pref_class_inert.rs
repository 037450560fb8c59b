//! `QuerySpec::pref_class` is inert: no policy and not the engine reads it,
//! so a trace whose queries carry arbitrary classes runs bit-identically
//! (same `report_digest`) to the same trace with every class zeroed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unit_baselines::QmfPolicy;
use unit_core::config::UnitConfig;
use unit_core::policy::Policy;
use unit_core::time::SimDuration;
use unit_core::types::Trace;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_sim::{report_digest, SimConfig, SimRun};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 32;

fn digest<P: Policy>(trace: &Trace, horizon: SimDuration, policy: P) -> u64 {
    let cfg = SimConfig::new(horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10));
    report_digest(&SimRun::trace(trace, policy, cfg).run())
}

#[test]
fn random_pref_classes_leave_every_digest_unchanged() {
    let qcfg = QueryTraceConfig::default().scaled_down(SCALE);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total(UpdateVolume::Med.total_updates() / SCALE);
    let b = TraceBundle::generate(&qcfg, &ucfg);
    assert!(b.trace.queries.iter().all(|q| q.pref_class == 0));

    let mut classed = b.trace.clone();
    let mut rng = StdRng::seed_from_u64(0xC1A55);
    for q in &mut classed.queries {
        q.pref_class = rng.gen_range(0..4);
    }
    assert!(classed.queries.iter().any(|q| q.pref_class > 1));

    let unit = || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()));
    assert_eq!(
        digest(&classed, b.horizon, unit()),
        digest(&b.trace, b.horizon, unit()),
        "UNIT"
    );
    assert_eq!(
        digest(&classed, b.horizon, QmfPolicy::default()),
        digest(&b.trace, b.horizon, QmfPolicy::default()),
        "QMF"
    );
}
