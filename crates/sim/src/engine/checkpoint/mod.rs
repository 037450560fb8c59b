//! Snapshot and restore of the engine state (DESIGN.md §7), plus the
//! lose-state crash recovery built on them.
//!
//! A [`Snapshot`] holds the engine's canonical state by value: a clone of
//! the one `EngineState` struct — clock, in-flight specs, event heap,
//! transactions, ready set, locks, freshness, work index, accounting — so
//! adding a field there is all it takes to save and restore it. Trace
//! specs stay borrows of the trace. Only the policy's state goes through
//! bytes, via [`Policy::checkpoint_state`] and the `unit_core::checkpoint`
//! codec. [`Simulator::restore`] assigns the cloned state back, so nothing
//! derived is rebuilt and a restored run continues bit for bit where the
//! snapshot was taken.
//!
//! The crash-recovery bookkeeping (`crash_points`, `next_crash_idx`,
//! `last_checkpoint`, `input_log`, `replay`) deliberately lives *outside*
//! the snapshot: a restore must not rewind recovery progress, or the crash
//! that triggered it would re-fire during its own replay, forever. The one
//! monotone counter, `FaultCounts::recoveries`, is saved around the restore
//! by [`Simulator::perform_crash_recovery`]. Same for `stream_exhausted`:
//! `end_stream()` is a feeder promise, not an event, so it survives the
//! rewind (OR-ed back after the re-feed). How each feed is rewound is the
//! feed module's business (see `Feed`).

use super::{EngineState, Simulator};
use unit_core::checkpoint::{CheckpointError, Dec, Enc};
use unit_core::policy::Policy;
use unit_obs::ObsEvent;

/// A run's state at one instant, by value: the engine state cloned, the
/// policy's state as the bytes of [`Policy::checkpoint_state`]. Taken by
/// [`Simulator::snapshot`], applied by [`Simulator::restore`].
#[derive(Clone)]
pub struct Snapshot<'a> {
    state: EngineState<'a>,
    policy: Vec<u8>,
}

impl<'a, P: Policy> Simulator<'a, P> {
    /// Snapshot the run. Call at a quiescent point — between
    /// [`Simulator::step`] calls; internally the engine snapshots only at
    /// control-tick boundaries and run start. O(state), and the state
    /// tracks live work, not the trace length: retired transactions and
    /// finished specs are gone.
    pub fn snapshot(&self) -> Snapshot<'a> {
        let mut enc = Enc::new();
        self.policy.checkpoint_state(&mut enc);
        Snapshot {
            state: self.state.clone(),
            policy: enc.into_bytes(),
        }
    }

    /// Restore the run to `snap`. The snapshot must come from a simulator
    /// with the same static configuration (trace, database size, policy
    /// type, config, fault hook); a different database size is rejected,
    /// but a snapshot from a *different run* of the same shape restores
    /// silently into that run's state — keeping snapshots paired with
    /// their runs is the caller's contract.
    ///
    /// The crash-recovery bookkeeping is reset relative to the restored
    /// clock, never rewound past recoveries.
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] on a different database size; any
    /// [`CheckpointError`] the policy's [`Policy::restore_state`] returns,
    /// after which the policy may be partially overwritten and the
    /// simulator must not be stepped.
    pub fn restore(&mut self, snap: &Snapshot<'a>) -> Result<(), CheckpointError> {
        self.rewind(snap)?;
        self.last_checkpoint = self.checkpoint_armed().then(|| snap.clone());
        Ok(())
    }

    /// [`Simulator::restore`] without keeping `snap` as the standing
    /// checkpoint: the crash path already owns it.
    fn rewind(&mut self, snap: &Snapshot<'a>) -> Result<(), CheckpointError> {
        if !self.started {
            // Policy tables must exist before they are overwritten
            // (restore_state validates against init'd sizes).
            self.start();
        }
        if snap.state.query_accesses.len() != self.n_items {
            return Err(CheckpointError::Mismatch { what: "n_items" });
        }
        let mut dec = Dec::new(&snap.policy)?;
        self.policy.restore_state(&mut dec)?;
        dec.finish()?;
        self.state.clone_from(&snap.state);
        self.view_scratch.get_mut().clear();

        // Crash bookkeeping relative to the restored clock: crash points at
        // or before a snapshot instant have already fired (the snapshot was
        // taken after their recovery), so the cursor resumes past them.
        self.replay = None;
        self.next_crash_idx = self
            .crash_points
            .partition_point(|&t| t <= self.state.clock);
        self.input_log.clear();
        Ok(())
    }

    /// True while a future lose-state crash point exists — the condition
    /// under which control boundaries snapshot and caller-fed specs are
    /// logged. O(1).
    pub(super) fn checkpoint_armed(&self) -> bool {
        self.next_crash_idx < self.crash_points.len()
    }

    /// Snapshot at a control boundary while armed: replaces the standing
    /// checkpoint and prunes the input log (everything fed so far is inside
    /// the new snapshot). A no-op when disarmed, so fault-free runs spend
    /// one branch here. O(state) when armed.
    pub(super) fn take_checkpoint(&mut self) {
        // `get` doubles as the armed check: disarmed ⇔ cursor past the end.
        let Some(&next_crash) = self.crash_points.get(self.next_crash_idx) else {
            return;
        };
        // Crash points are known up front, so a snapshot at this boundary
        // is useful only if it can be the *last* one before the next
        // crash. When the next control tick still lands strictly before
        // the crash, that tick's snapshot supersedes this one — skip the
        // O(state) clone entirely. Strictly: a tick exactly at the crash
        // instant pops *after* the crash transition (the transition's
        // start-time sequence number is smaller), so it would snapshot too
        // late to help. This turns the armed-run overhead from
        // O(ticks × state) into O(crashes × state).
        if let Some((t, _)) = self.state.next_tick {
            if t < next_crash {
                return;
            }
        }
        let snap = self.snapshot();
        if self.obs.is_some() {
            self.emit(ObsEvent::CheckpointTaken {
                time: self.state.clock,
            });
        }
        self.input_log.clear();
        self.last_checkpoint = Some(snap);
    }

    /// True when a lose-state crash fires at the current clock, advancing
    /// the cursor past any stale (already-replayed) points. O(1) amortized.
    pub(super) fn crash_due(&mut self) -> bool {
        while let Some(&t) = self.crash_points.get(self.next_crash_idx) {
            if t < self.state.clock {
                self.next_crash_idx += 1;
            } else {
                return t == self.state.clock;
            }
        }
        false
    }

    /// Lose-state crash at the current clock: discard all volatile state,
    /// restore the last checkpoint, re-feed the caller-fed arrivals the
    /// snapshot predates (a trace-backed feed was rewound by the restore
    /// itself), and let the ordinary stepping loop replay the lost window
    /// in virtual time. The crash cursor, the monotone recovery
    /// counter, and the feeder's end-of-stream promise are saved around the
    /// restore — they describe recovery progress, not simulation state.
    #[expect(
        clippy::expect_used,
        reason = "start() snapshots while armed, so a checkpoint precedes every crash point, and the engine restores only snapshots it took of this very run"
    )]
    pub(super) fn perform_crash_recovery(&mut self) {
        let ckpt = self
            .last_checkpoint
            .take()
            .expect("a checkpoint precedes every armed crash point");
        let resume_idx = self.next_crash_idx + 1;
        let recoveries = self.state.fault_counts.recoveries + 1;
        let exhausted = self.state.stream_exhausted;
        let crash_at = self.state.clock;
        let log = std::mem::take(&mut self.input_log);
        self.rewind(&ckpt).expect("own checkpoint must restore");
        // rewind() recomputed the crash cursor from the rewound clock,
        // which would re-fire this very crash during its own replay:
        // overwrite it with the post-crash cursor before anything steps.
        self.next_crash_idx = resume_idx;
        self.state.fault_counts.recoveries = recoveries;
        self.replay = Some((crash_at, self.state.clock));
        self.last_checkpoint = Some(ckpt);
        if self.obs.is_some() {
            let checkpoint = self.state.clock;
            self.emit(ObsEvent::RestoreBegin {
                time: crash_at,
                checkpoint,
            });
        }
        // Re-feed the caller-fed arrivals whose heap events the snapshot
        // predates — exactly the log, which is pruned whenever a snapshot
        // replaces the standing one. Feeding re-logs them, rebuilding the
        // input log for the next crash.
        for spec in log {
            self.feed_spec(spec);
        }
        self.state.stream_exhausted |= exhausted;
    }
}

#[cfg(test)]
mod tests {
    use super::Snapshot;
    use crate::events::Event;
    use crate::{report_digest, SchedulingDiscipline, SimConfig, SimRun};
    use unit_core::config::UnitConfig;
    use unit_core::time::{SimDuration, SimTime};
    use unit_core::unit_policy::UnitPolicy;
    use unit_core::usm::UsmWeights;
    use unit_workload::{
        QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
    };

    /// The snapshot's containers that could grow with the run: the
    /// transaction window, the spec-slab slots and the event-heap entries.
    /// Each update stream keeps one version arrival pending however long
    /// the trace, so the heap count leaves those out: the stream count
    /// follows the update volume, not the trace length.
    fn container_sizes(snap: &Snapshot<'_>) -> [usize; 3] {
        let st = &snap.state;
        let versions = st
            .events
            .count(|e| matches!(e, Event::VersionArrival { .. }));
        [
            st.txns.len(),
            st.queries.slots.len(),
            st.events.len() - versions,
        ]
    }

    /// A med-unif trace bundle at `scale`.
    fn med_unif(scale: u64) -> TraceBundle {
        let qcfg = QueryTraceConfig::default().scaled_down(scale);
        let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
            .with_total((UpdateVolume::Med.total_updates() / scale).max(1));
        TraceBundle::generate(&qcfg, &ucfg)
    }

    fn unit() -> UnitPolicy {
        UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(0x5EED_0001))
    }

    /// Container sizes of a trace-fed med-unif UNIT run's snapshots at
    /// `scale`, taken at drain and at mid-horizon. No outcome log, so the
    /// only state that could grow with the trace is the engine's own.
    fn snapshot_sizes(scale: u64) -> ([usize; 3], [usize; 3]) {
        let bundle = med_unif(scale);
        let cfg = SimConfig::new(bundle.horizon)
            .with_weights(UsmWeights::low_high_cfm())
            .with_tick_period(SimDuration::from_secs(10));

        let mut drained = SimRun::trace(&bundle.trace, unit(), cfg).build();
        while drained.step() {}
        let mut mid = SimRun::trace(&bundle.trace, unit(), cfg).build();
        mid.step_until(SimTime(bundle.horizon.0 / 2));

        (
            container_sizes(&drained.snapshot()),
            container_sizes(&mid.snapshot()),
        )
    }

    /// A mid-run snapshot carries a transaction window whose base is past
    /// retired transactions. A fresh simulator restored from it resumes the
    /// window at the same base and next id, and ends as the original does.
    #[test]
    fn round_trip_keeps_a_retired_window_base() {
        let bundle = med_unif(8);
        let cfg = SimConfig::new(bundle.horizon)
            .with_weights(UsmWeights::low_high_cfm())
            .with_tick_period(SimDuration::from_secs(10))
            .with_discipline(SchedulingDiscipline::DualPriorityEdf)
            .with_outcome_log();

        let mut original = SimRun::trace(&bundle.trace, unit(), cfg).build();
        original.step_until(SimTime(bundle.horizon.0 / 2));
        let snap = original.snapshot();
        let base = snap.state.txns.base();
        assert!(base.0 > 0, "the snapshot must cover a retired prefix");

        let mut restored = SimRun::trace(&bundle.trace, unit(), cfg).build();
        restored.restore(&snap).expect("own snapshot must restore");
        assert_eq!(restored.state.txns.base(), base);
        assert_eq!(restored.state.txns.next_id(), original.state.txns.next_id());

        while original.step() {}
        while restored.step() {}
        let (a, _) = original.finish();
        let (b, _) = restored.finish();
        assert_eq!(report_digest(&a), report_digest(&b));
        assert_eq!(a.outcome_records, b.outcome_records);
    }

    #[test]
    fn snapshot_size_tracks_live_work_not_trace_length() {
        // Scale 8 carries 4x the queries of scale 32 at the same load; a
        // snapshot that kept every finished transaction, spec or event
        // would grow ~4x.
        let (small_drained, small_mid) = snapshot_sizes(32);
        let (large_drained, large_mid) = snapshot_sizes(8);
        let what = ["txn window", "spec slots", "heap entries"];
        for (when, small, large) in [
            ("drained", small_drained, large_drained),
            ("mid-run", small_mid, large_mid),
        ] {
            for ((what, s), l) in what.into_iter().zip(small).zip(large) {
                assert!(
                    4 * l <= 5 * s,
                    "{when} {what} grew with the trace: {s} at 1/32 scale, {l} at 1/8"
                );
            }
        }
    }
}
