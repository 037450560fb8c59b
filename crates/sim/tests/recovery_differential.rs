//! Recovery differential suite (DESIGN.md §7): a run that crashes with
//! **lose-state** semantics — discarding all volatile state, restoring its
//! last control-boundary checkpoint, and replaying the lost window in
//! virtual time — must end `report_digest`-bit-identical to the same run
//! without the crashes, for all 4 policies × 3 scheduling disciplines on
//! the golden fig3-style workload.
//!
//! The reference run installs the *same* hook with the crashes disarmed:
//! it schedules identical fault-transition events, so the two event tapes
//! match instant for instant and the only difference is the crash/restore
//! cycle itself. The suite also pins a restore chain (a run carried on
//! through a fresh simulator at every link ends as the straight run does)
//! and the streamed feeder's crash transparency. That a snapshot's size
//! tracks live work rather than trace length is pinned inside the engine
//! crate, where the snapshot's containers are visible.

use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};
use unit_core::config::UnitConfig;
use unit_core::policy::Policy;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::DataId;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_obs::{ObsEvent, RingRecorder};
use unit_sim::{
    report_digest, BackgroundLoad, FaultHook, HealthState, SchedulingDiscipline, SimConfig, SimRun,
    UpdateFault,
};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 8;
const SEED: u64 = 0x5EED_0001;

/// A hook whose only fault is crashing: the server is always healthy, but
/// at each instant in `crashes` it loses all volatile state. Disarmed, it
/// schedules the *same* transition events and does nothing at them —
/// giving the crashed run a reference with an identical event tape.
struct CrashFaults {
    crashes: Vec<SimTime>,
    armed: bool,
}

impl FaultHook for CrashFaults {
    fn transition_times(&self) -> Vec<SimTime> {
        self.crashes.clone()
    }

    fn health(&self, _now: SimTime) -> HealthState {
        HealthState::Up
    }

    fn update_fault(&self, _item: DataId, _now: SimTime) -> UpdateFault {
        UpdateFault::Apply
    }

    fn load_at(&self, _now: SimTime) -> Vec<BackgroundLoad> {
        Vec::new()
    }

    fn lose_state_crashes(&self) -> Vec<SimTime> {
        if self.armed {
            self.crashes.clone()
        } else {
            Vec::new()
        }
    }
}

/// The golden workload at scale=8 (same bundle as the cluster suites).
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
        .with_outcome_log()
}

/// Two mid-run crash instants, deliberately off the control-tick grid so
/// each replay window spans real work.
fn crash_times(horizon: SimDuration) -> Vec<SimTime> {
    vec![
        SimTime(horizon.0 * 2 / 5 + 1),
        SimTime(horizon.0 * 7 / 10 + 3),
    ]
}

const DISCIPLINES: [(SchedulingDiscipline, &str); 3] = [
    (SchedulingDiscipline::DualPriorityEdf, "dual"),
    (SchedulingDiscipline::GlobalEdf, "global"),
    (SchedulingDiscipline::QueryFirst, "qfirst"),
];

/// Crashed run == disarmed-reference run, digest for digest, outcome for
/// outcome, across every discipline.
fn recovery_differential<P: Policy>(policy_name: &str, make: impl Fn() -> P) {
    let bundle = golden_bundle();
    let crashes = crash_times(bundle.horizon);
    for (discipline, dname) in DISCIPLINES {
        let cfg = sim_config(bundle.horizon, discipline);
        let reference = SimRun::trace(&bundle.trace, make(), cfg)
            .with_faults(Box::new(CrashFaults {
                crashes: crashes.clone(),
                armed: false,
            }))
            .run();
        let crashed = SimRun::trace(&bundle.trace, make(), cfg)
            .with_faults(Box::new(CrashFaults {
                crashes: crashes.clone(),
                armed: true,
            }))
            .run();
        assert_eq!(
            reference.faults.recoveries, 0,
            "{policy_name}/{dname}: disarmed hook must not recover"
        );
        assert_eq!(
            crashed.faults.recoveries,
            crashes.len() as u64,
            "{policy_name}/{dname}: every crash instant must recover once"
        );
        assert_eq!(
            report_digest(&reference),
            report_digest(&crashed),
            "{policy_name}/{dname}: recovered run diverged from the uncrashed run"
        );
        assert_eq!(
            reference.outcome_records, crashed.outcome_records,
            "{policy_name}/{dname}: outcome stream diverged"
        );
    }
}

#[test]
fn recovery_is_invisible_imu() {
    recovery_differential("IMU", ImuPolicy::new);
}

#[test]
fn recovery_is_invisible_odu() {
    recovery_differential("ODU", OduPolicy::new);
}

#[test]
fn recovery_is_invisible_qmf() {
    recovery_differential("QMF", QmfPolicy::default);
}

#[test]
fn recovery_is_invisible_unit() {
    recovery_differential("UNIT", || {
        UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED))
    });
}

#[test]
fn recovery_emits_the_checkpoint_event_arc() {
    let bundle = golden_bundle();
    let crashes = crash_times(bundle.horizon);
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let mut rec = RingRecorder::unbounded();
    let report = SimRun::trace(
        &bundle.trace,
        UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED)),
        cfg,
    )
    .with_faults(Box::new(CrashFaults {
        crashes: crashes.clone(),
        armed: true,
    }))
    .with_observer(&mut rec)
    .run();
    assert_eq!(report.faults.recoveries, crashes.len() as u64);

    let events = rec.into_events();
    let taken: Vec<SimTime> = events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::CheckpointTaken { time } => Some(*time),
            _ => None,
        })
        .collect();
    let restores: Vec<(SimTime, SimTime)> = events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::RestoreBegin { time, checkpoint } => Some((*time, *checkpoint)),
            _ => None,
        })
        .collect();
    let replays: Vec<(SimTime, SimTime)> = events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::ReplayComplete { time, checkpoint } => Some((*time, *checkpoint)),
            _ => None,
        })
        .collect();

    assert!(
        taken.first().is_some_and(|&t| t <= crashes[0]),
        "a checkpoint must precede the first crash"
    );
    assert_eq!(
        restores.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
        crashes,
        "one restore per crash instant"
    );
    for &(crash, ckpt) in &restores {
        assert!(ckpt <= crash, "restores rewind, never fast-forward");
        assert!(taken.contains(&ckpt), "restored from a taken checkpoint");
    }
    assert_eq!(
        replays.len(),
        crashes.len(),
        "every replay window must close"
    );
    for (&(crash, ckpt), &(replayed, from)) in restores.iter().zip(&replays) {
        assert_eq!((replayed, from), (crash, ckpt), "replay closes its crash");
    }
}

/// Events between two links of a restore chain. Prime, so the stops fall
/// off the control-tick grid and land on every kind of event.
const CHAIN_LINK: usize = 997;

/// A restore chain: step `make()`'s run of the golden bundle, and every
/// [`CHAIN_LINK`] events snapshot it, restore the snapshot into a fresh
/// simulator and carry on with that one. The chained run must end exactly
/// as the straight run does, digest and outcome stream alike.
fn restore_chain<P: Policy>(
    policy_name: &str,
    make: impl Fn() -> P,
    discipline: SchedulingDiscipline,
) {
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, discipline);
    let straight = SimRun::trace(&bundle.trace, make(), cfg).run();

    let mut sim = SimRun::trace(&bundle.trace, make(), cfg).build();
    let mut links = 0;
    'run: loop {
        for _ in 0..CHAIN_LINK {
            if !sim.step() {
                break 'run;
            }
        }
        let snap = sim.snapshot();
        sim = SimRun::trace(&bundle.trace, make(), cfg).build();
        sim.restore(&snap).expect("own snapshot must restore");
        links += 1;
    }
    let (chained, _) = sim.finish();
    assert!(
        links >= 10,
        "{policy_name}/{discipline:?}: only {links} links"
    );
    assert_eq!(
        report_digest(&straight),
        report_digest(&chained),
        "{policy_name}/{discipline:?}: the restore chain diverged from the straight run"
    );
    assert_eq!(
        straight.outcome_records, chained.outcome_records,
        "{policy_name}/{discipline:?}: outcome stream diverged"
    );
}

fn unit_policy() -> UnitPolicy {
    UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED))
}

#[test]
fn restore_chain_is_invisible_under_the_dual_queue() {
    let dual = SchedulingDiscipline::DualPriorityEdf;
    restore_chain("IMU", ImuPolicy::new, dual);
    restore_chain("ODU", OduPolicy::new, dual);
    restore_chain("QMF", QmfPolicy::default, dual);
    restore_chain("UNIT", unit_policy, dual);
}

#[test]
fn restore_chain_is_invisible_for_unit_under_every_discipline() {
    for (discipline, _) in DISCIPLINES {
        if discipline != SchedulingDiscipline::DualPriorityEdf {
            restore_chain("UNIT", unit_policy, discipline);
        }
    }
}

#[test]
fn restore_rewinds_a_run_past_its_snapshot() {
    // Restore over a live simulator, not a fresh one: the run drains past
    // its mid-run snapshot, rewinds to it and runs the second half again.
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let straight = SimRun::trace(&bundle.trace, unit_policy(), cfg).run();

    let mut sim = SimRun::trace(&bundle.trace, unit_policy(), cfg).build();
    sim.step_until(SimTime(bundle.horizon.0 / 2));
    let (mid, snap) = (sim.now(), sim.snapshot());
    while sim.step() {}
    sim.restore(&snap).expect("own snapshot must restore");
    assert_eq!(sim.now(), mid, "restore rewinds the clock");
    while sim.step() {}
    let (rewound, _) = sim.finish();
    assert_eq!(report_digest(&straight), report_digest(&rewound));
    assert_eq!(straight.outcome_records, rewound.outcome_records);
}

#[test]
fn restore_rejects_foreign_shapes() {
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let mut original = SimRun::trace(&bundle.trace, unit_policy(), cfg).build();
    original.step_until(SimTime(bundle.horizon.0 / 4));
    let snap = original.snapshot();

    let mut wider = bundle.trace.clone();
    wider.n_items += 1;
    let mut foreign = SimRun::trace(&wider, unit_policy(), cfg).build();
    assert!(
        foreign.restore(&snap).is_err(),
        "a snapshot must not restore into a different database size"
    );
}

#[test]
fn streamed_feed_recovers_identically() {
    // A caller-fed run exercises the input log: arrivals fed after the
    // last checkpoint exist nowhere in the snapshot and must be replayed
    // from the log (a trace-backed run rewinds its cursor instead). A small chunk keeps the feed close to the clock so
    // every crash window actually contains logged arrivals.
    let bundle = golden_bundle();
    let crashes = crash_times(bundle.horizon);
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let make =
        || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED));

    let reference = SimRun::trace(&bundle.trace, make(), cfg)
        .with_faults(Box::new(CrashFaults {
            crashes: crashes.clone(),
            armed: false,
        }))
        .run();
    for chunk in [1usize, 4, 64] {
        let crashed = SimRun::streaming(bundle.trace.n_items, &bundle.trace.updates, make(), cfg)
            .with_faults(Box::new(CrashFaults {
                crashes: crashes.clone(),
                armed: true,
            }))
            .run_streamed(bundle.trace.queries.iter().cloned(), chunk);
        assert_eq!(
            crashed.faults.recoveries,
            crashes.len() as u64,
            "chunk {chunk}: every crash must recover"
        );
        assert_eq!(
            report_digest(&reference),
            report_digest(&crashed),
            "chunk {chunk}: streamed recovery diverged from the uncrashed run"
        );
        assert_eq!(reference.outcome_records, crashed.outcome_records);
    }
}
