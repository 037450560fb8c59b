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
//! cycle itself. The suite also pins the checkpoint codec's byte
//! stability (`checkpoint → restore → checkpoint` is a byte-level fixed
//! point), the streamed feeder's crash transparency, and a snapshot size
//! that tracks live work rather than trace length.

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
            ObsEvent::CheckpointTaken { time, bytes } => {
                assert!(*bytes > 0, "a checkpoint is never empty");
                Some(*time)
            }
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

#[test]
fn checkpoint_restore_checkpoint_is_byte_stable() {
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let make =
        || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED));
    let mid = SimTime(bundle.horizon.0 / 2);

    // Mid-run, so the snapshot's transaction window starts past retired
    // transactions: `engine::checkpoint::tests::
    // round_trip_keeps_a_retired_window_base` asserts base > 0 on this
    // very snapshot.
    let mut original = SimRun::trace(&bundle.trace, make(), cfg).build();
    original.step_until(mid);
    let bytes = original.checkpoint();
    assert_eq!(
        original.checkpoint(),
        bytes,
        "checkpointing is non-destructive and deterministic"
    );

    let mut restored = SimRun::trace(&bundle.trace, make(), cfg).build();
    restored.restore(&bytes).expect("own snapshot must restore");
    assert_eq!(
        restored.checkpoint(),
        bytes,
        "checkpoint → restore → checkpoint must be a byte-level fixed point"
    );

    // Both halves of the fork must finish identically.
    while original.step() {}
    while restored.step() {}
    let (a, _) = original.finish();
    let (b, _) = restored.finish();
    assert_eq!(report_digest(&a), report_digest(&b));
    assert_eq!(a.outcome_records, b.outcome_records);

    // And identically to the unforked run.
    let plain = SimRun::trace(&bundle.trace, make(), cfg).run();
    assert_eq!(report_digest(&a), report_digest(&plain));
}

#[test]
fn restore_rejects_foreign_shapes() {
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon, SchedulingDiscipline::DualPriorityEdf);
    let make =
        || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED));
    let mut original = SimRun::trace(&bundle.trace, make(), cfg).build();
    original.step_until(SimTime(bundle.horizon.0 / 4));
    let bytes = original.checkpoint();

    // A server over a different database size: rejected.
    let mut wider = bundle.trace.clone();
    wider.n_items += 1;
    let mut foreign = SimRun::trace(&wider, make(), cfg).build();
    assert!(
        foreign.restore(&bytes).is_err(),
        "a snapshot must not restore into a different database size"
    );

    // Truncated and trailing bytes are rejected too.
    let mut fresh = SimRun::trace(&bundle.trace, make(), cfg).build();
    assert!(fresh.restore(&bytes[..bytes.len() - 1]).is_err());
    let mut padded = bytes.clone();
    padded.push(0);
    let mut fresh2 = SimRun::trace(&bundle.trace, make(), cfg).build();
    assert!(fresh2.restore(&padded).is_err());
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

/// Checkpoint size of a trace-fed med-unif UNIT run at `scale`, taken at
/// drain and at mid-horizon. No outcome log, so the only state that could
/// grow with the trace is the engine's own.
fn checkpoint_sizes(scale: u64) -> (usize, usize) {
    let qcfg = QueryTraceConfig::default().scaled_down(scale);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / scale).max(1));
    let bundle = TraceBundle::generate(&qcfg, &ucfg);
    let cfg = SimConfig::new(bundle.horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10));
    let make =
        || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED));

    let mut drained = SimRun::trace(&bundle.trace, make(), cfg).build();
    while drained.step() {}
    let mut mid = SimRun::trace(&bundle.trace, make(), cfg).build();
    mid.step_until(SimTime(bundle.horizon.0 / 2));
    (drained.checkpoint().len(), mid.checkpoint().len())
}

#[test]
fn checkpoint_size_tracks_live_work_not_trace_length() {
    // Scale 8 carries 4x the queries of scale 32 at the same load; a
    // snapshot that kept every finished transaction would grow ~4x.
    let (small_drained, small_mid) = checkpoint_sizes(32);
    let (large_drained, large_mid) = checkpoint_sizes(8);
    for (what, small, large) in [
        ("drained", small_drained, large_drained),
        ("mid-run", small_mid, large_mid),
    ] {
        assert!(
            (large as f64) < 1.25 * small as f64,
            "{what} checkpoint grew with the trace: {small} B at 1/32 scale, {large} B at 1/8"
        );
    }
}
