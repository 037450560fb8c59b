//! Deterministic checkpoint/restore of the full engine state (DESIGN.md
//! §7), plus the lose-state crash recovery built on it.
//!
//! [`Simulator::checkpoint`] serializes every piece of *canonical* run
//! state — clock, in-flight query specs, event heap, transactions, locks,
//! freshness, accounting, policy — through the versioned [`Enc`] codec.
//! Derived structures (the ready set, the work index, the view scratch
//! buffer) are never written: [`Simulator::restore`] rebuilds them
//! from the canonical state, so a snapshot is a pure function of the
//! simulation state and two identically-positioned runs produce
//! bit-identical bytes.
//!
//! The crash-recovery bookkeeping (`crash_points`, `next_crash_idx`,
//! `last_checkpoint`, `input_log`, `replay`) deliberately lives *outside*
//! the snapshot: a restore must not rewind recovery progress, or the crash
//! that triggered it would re-fire during its own replay, forever. The one
//! monotone counter, `FaultCounts::recoveries`, is saved around the restore
//! by [`Simulator::perform_crash_recovery`]. Same for `stream_exhausted`:
//! `end_stream()` is a feeder promise, not an event, so it survives the
//! rewind (OR-ed back after the re-feed).
//!
//! The feed needs no state of its own: a trace-backed run's cursor *is*
//! the snapshotted `submitted` count, so a restore rewinds it and the next
//! step's pump re-feeds what the snapshot predates; only a caller-fed run
//! keeps an input log to replay.

use super::{AdmittedEntry, RunningTxn, Simulator};
use crate::events::Event;
use crate::stats::OutcomeRecord;
use crate::stats::TimelineSample;
use crate::txn::{Txn, TxnId, TxnKind, TxnState};
use crate::worktreap::WorkTreap;
use std::borrow::Cow;
use unit_core::checkpoint::{CheckpointError, Dec, Enc};
use unit_core::policy::Policy;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, Outcome, QueryId, QuerySpec, TxnClass};
use unit_core::usm::OutcomeCounts;
use unit_obs::ObsEvent;

/// Serialize one query spec (full fidelity — the in-flight slab is the
/// only place a caller-fed spec lives, so the snapshot must carry it).
fn put_spec(enc: &mut Enc, spec: &QuerySpec) {
    enc.put_u64(spec.id.0);
    enc.put_u64(spec.arrival.0);
    enc.put_usize(spec.items.len());
    for d in &spec.items {
        enc.put_u32(d.0);
    }
    enc.put_u64(spec.exec_time.0);
    enc.put_u64(spec.relative_deadline.0);
    enc.put_f64(spec.freshness_req);
    enc.put_u32(spec.pref_class);
}

fn take_spec(dec: &mut Dec<'_>) -> Result<QuerySpec, CheckpointError> {
    let id = QueryId(dec.take_u64()?);
    let arrival = SimTime(dec.take_u64()?);
    let n = dec.take_usize()?;
    let mut items = Vec::with_capacity(n.min(dec.remaining() / 4 + 1));
    for _ in 0..n {
        items.push(DataId(dec.take_u32()?));
    }
    Ok(QuerySpec {
        id,
        arrival,
        items,
        exec_time: SimDuration(dec.take_u64()?),
        relative_deadline: SimDuration(dec.take_u64()?),
        freshness_req: dec.take_f64()?,
        pref_class: dec.take_u32()?,
    })
}

/// Serialize one heap event behind its `(time, seq)` key.
fn put_event(enc: &mut Enc, ev: &Event) {
    match ev {
        Event::QueryArrival { spec_idx } => {
            enc.put_u8(0);
            enc.put_usize(*spec_idx);
        }
        Event::VersionArrival { stream_idx } => {
            enc.put_u8(1);
            enc.put_usize(*stream_idx);
        }
        Event::Completion { txn, generation } => {
            enc.put_u8(2);
            enc.put_u64(txn.0);
            enc.put_u64(*generation);
        }
        Event::QueryDeadline { txn } => {
            enc.put_u8(3);
            enc.put_u64(txn.0);
        }
        Event::ControlTick => enc.put_u8(4),
        Event::FaultTransition => enc.put_u8(5),
        Event::DelayedApply {
            item,
            exec,
            edf_deadline,
        } => {
            enc.put_u8(6);
            enc.put_u32(item.0);
            enc.put_u64(exec.0);
            enc.put_u64(edf_deadline.0);
        }
    }
}

fn take_event(dec: &mut Dec<'_>) -> Result<Event, CheckpointError> {
    Ok(match dec.take_u8()? {
        0 => Event::QueryArrival {
            spec_idx: dec.take_usize()?,
        },
        1 => Event::VersionArrival {
            stream_idx: dec.take_usize()?,
        },
        2 => Event::Completion {
            txn: TxnId(dec.take_u64()?),
            generation: dec.take_u64()?,
        },
        3 => Event::QueryDeadline {
            txn: TxnId(dec.take_u64()?),
        },
        4 => Event::ControlTick,
        5 => Event::FaultTransition,
        6 => Event::DelayedApply {
            item: DataId(dec.take_u32()?),
            exec: SimDuration(dec.take_u64()?),
            edf_deadline: SimTime(dec.take_u64()?),
        },
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "event",
            })
        }
    })
}

fn put_txn(enc: &mut Enc, txn: &Txn) {
    enc.put_u64(txn.id.0);
    enc.put_u8(match txn.class {
        TxnClass::Update => 0,
        TxnClass::Query => 1,
    });
    enc.put_u64(txn.edf_deadline.0);
    enc.put_u64(txn.exec_time.0);
    enc.put_u64(txn.remaining.0);
    enc.put_u8(match txn.state {
        TxnState::Ready => 0,
        TxnState::Running => 1,
        TxnState::Blocked => 2,
        TxnState::Finished => 3,
    });
    enc.put_bool(txn.holds_locks);
    enc.put_opt_u64(txn.blocked_on.map(|d| d.0 as u64));
    match &txn.kind {
        TxnKind::Query {
            spec_idx,
            freshness_at_dispatch,
            restarts,
        } => {
            enc.put_u8(0);
            enc.put_usize(*spec_idx);
            enc.put_opt_f64(*freshness_at_dispatch);
            enc.put_u32(*restarts);
        }
        TxnKind::Update { item, on_demand } => {
            enc.put_u8(1);
            enc.put_u32(item.0);
            enc.put_bool(*on_demand);
        }
        TxnKind::Background => enc.put_u8(2),
    }
}

fn take_txn(dec: &mut Dec<'_>) -> Result<Txn, CheckpointError> {
    let id = TxnId(dec.take_u64()?);
    let class = match dec.take_u8()? {
        0 => TxnClass::Update,
        1 => TxnClass::Query,
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "txn class",
            })
        }
    };
    let edf_deadline = SimTime(dec.take_u64()?);
    let exec_time = SimDuration(dec.take_u64()?);
    let remaining = SimDuration(dec.take_u64()?);
    let state = match dec.take_u8()? {
        0 => TxnState::Ready,
        1 => TxnState::Running,
        2 => TxnState::Blocked,
        3 => TxnState::Finished,
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "txn state",
            })
        }
    };
    let holds_locks = dec.take_bool()?;
    let blocked_on = dec.take_opt_u64()?.map(|v| DataId(v as u32));
    let kind = match dec.take_u8()? {
        0 => TxnKind::Query {
            spec_idx: dec.take_usize()?,
            freshness_at_dispatch: dec.take_opt_f64()?,
            restarts: dec.take_u32()?,
        },
        1 => TxnKind::Update {
            item: DataId(dec.take_u32()?),
            on_demand: dec.take_bool()?,
        },
        2 => TxnKind::Background,
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "txn kind",
            })
        }
    };
    Ok(Txn {
        id,
        class,
        edf_deadline,
        exec_time,
        remaining,
        state,
        holds_locks,
        blocked_on,
        kind,
    })
}

fn put_outcome(enc: &mut Enc, o: Outcome) {
    enc.put_u8(match o {
        Outcome::Success => 0,
        Outcome::Rejected => 1,
        Outcome::DeadlineMiss => 2,
        Outcome::DataStale => 3,
    });
}

fn take_outcome(dec: &mut Dec<'_>) -> Result<Outcome, CheckpointError> {
    Ok(match dec.take_u8()? {
        0 => Outcome::Success,
        1 => Outcome::Rejected,
        2 => Outcome::DeadlineMiss,
        3 => Outcome::DataStale,
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "outcome",
            })
        }
    })
}

fn put_counts(enc: &mut Enc, c: &OutcomeCounts) {
    for v in [c.success, c.rejected, c.deadline_miss, c.data_stale] {
        enc.put_u64(v);
    }
}

fn take_counts(dec: &mut Dec<'_>) -> Result<OutcomeCounts, CheckpointError> {
    Ok(OutcomeCounts {
        success: dec.take_u64()?,
        rejected: dec.take_u64()?,
        deadline_miss: dec.take_u64()?,
        data_stale: dec.take_u64()?,
    })
}

impl<P: Policy> Simulator<'_, P> {
    /// Serialize the full engine state into a versioned, byte-stable
    /// snapshot. Call at a quiescent point — between [`Simulator::step`]
    /// calls; internally the engine snapshots only at control-tick
    /// boundaries and run start. Two identically-positioned runs produce
    /// bit-identical bytes, and `checkpoint → restore → checkpoint` is a
    /// byte-level fixed point (the round-trip suite pins both). O(state).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_u64(self.clock.0);

        // Static-shape guard: restore refuses a snapshot taken against a
        // different database size.
        enc.put_usize(self.n_items);

        enc.put_u64(self.submitted);
        enc.put_u64(self.last_fed_arrival.0);
        enc.put_u64(self.arrivals_in_flight);
        enc.put_bool(self.stream_exhausted);
        // Slots are serialized verbatim (freed slots hold stale but
        // deterministic specs), so the free list round-trips exactly.
        enc.put_usize(self.queries.slots.len());
        for spec in &self.queries.slots {
            put_spec(&mut enc, spec);
        }
        enc.put_usize(self.queries.free.len());
        for &slot in &self.queries.free {
            enc.put_usize(slot);
        }
        enc.put_u64_slice(self.query_accesses.as_slice());

        // Event heap: live `(time, seq, event)` entries in heap-key order
        // plus the runtime sequence counter. Freed slab slots are garbage
        // and never written.
        enc.put_u64(self.events.next_seq());
        let entries = self.events.snapshot();
        enc.put_usize(entries.len());
        for (t, seq, ev) in &entries {
            enc.put_u64(t.0);
            enc.put_u64(*seq);
            put_event(&mut enc, ev);
        }
        match self.next_tick {
            Some((t, seq)) => {
                enc.put_u8(1);
                enc.put_u64(t.0);
                enc.put_u64(seq);
            }
            None => enc.put_u8(0),
        }

        // Transaction window: its base id, then the live-or-pinned window
        // (retired transactions are gone, so this is O(live), not O(run)).
        enc.put_u64(self.txns.base().0);
        enc.put_usize(self.txns.len());
        for txn in self.txns.iter() {
            put_txn(&mut enc, txn);
        }
        enc.put_usize(self.blocked.len());
        for id in &self.blocked {
            enc.put_u64(id.0);
        }
        // Order is semantic: preemption picks the *last* worst incumbent.
        enc.put_usize(self.running.len());
        for r in &self.running {
            enc.put_u64(r.id.0);
            enc.put_u64(r.started.0);
            enc.put_u64(r.generation);
        }
        enc.put_u64(self.next_generation);

        self.locks.checkpoint_into(&mut enc);
        self.freshness.checkpoint_into(&mut enc);
        enc.put_usize(self.pending_ondemand.len());
        for &b in self.pending_ondemand.values() {
            enc.put_bool(b);
        }
        enc.put_u64(self.outstanding_update_work.0);

        // Admitted queries in key order; the work index is rebuilt from
        // these entries at restore.
        enc.put_usize(self.admitted.len());
        for (&(deadline, qid), e) in &self.admitted {
            enc.put_u64(deadline.0);
            enc.put_u64(qid.0);
            enc.put_u64(e.txn.0);
            enc.put_u64(e.remaining.0);
            enc.put_u32(e.pref_class);
        }

        put_counts(&mut enc, &self.counts);
        enc.put_usize(self.class_counts.len());
        for c in &self.class_counts {
            put_counts(&mut enc, c);
        }
        enc.put_u64(self.cpu_busy.0);
        enc.put_u64(self.window_busy.0);
        enc.put_u64(self.window_start.0);
        enc.put_u64(self.preemptions);
        enc.put_u64(self.query_restarts);
        enc.put_u64(self.demand_refreshes);
        for v in [
            self.signals.loosen_admission,
            self.signals.tighten_admission,
            self.signals.degrade_updates,
            self.signals.upgrade_updates,
        ] {
            enc.put_u64(v);
        }
        for v in [
            self.fault_counts.update_drops,
            self.fault_counts.update_delays,
            self.fault_counts.background_spawned,
            self.fault_counts.deferred_events,
            self.fault_counts.recoveries,
        ] {
            enc.put_u64(v);
        }
        enc.put_f64(self.dispatch_freshness_sum);
        enc.put_u64(self.dispatch_freshness_n);
        enc.put_usize(self.timeline.len());
        for s in &self.timeline {
            enc.put_u64(s.time.0);
            enc.put_f64(s.usm);
            enc.put_usize(s.ready_queries);
            enc.put_f64(s.update_backlog_secs);
            enc.put_f64(s.utilization);
        }
        enc.put_u64(self.events_processed);
        enc.put_usize(self.outcome_records.len());
        for r in &self.outcome_records {
            enc.put_u64(r.seq);
            enc.put_u64(r.time.0);
            enc.put_u64(r.query.0);
            put_outcome(&mut enc, r.outcome);
        }
        #[cfg(feature = "validate")]
        {
            enc.put_usize(self.outcome_log.len());
            for &o in &self.outcome_log {
                put_outcome(&mut enc, o);
            }
        }

        self.policy.checkpoint_state(&mut enc);
        enc.into_bytes()
    }

    /// Restore the engine to the state captured by
    /// [`Simulator::checkpoint`]. The snapshot must come from a simulator
    /// with the same static configuration (trace, database size, policy
    /// type, config, fault hook); shape mismatches are
    /// rejected, but a snapshot from a *different run* of the same shape
    /// decodes silently into that run's state — keeping snapshots paired
    /// with their runs is the caller's contract.
    ///
    /// Derived structures (ready set, work index, view scratch) are rebuilt
    /// from the canonical state; the crash-recovery bookkeeping is reset
    /// relative to the restored clock, never rewound past recoveries.
    ///
    /// # Errors
    /// Any [`CheckpointError`] on malformed or mismatched bytes. On error
    /// the simulator may be partially overwritten and must not be stepped.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        if !self.started {
            // Policy tables and event seeding must exist before they are
            // overwritten (restore_state validates against init'd sizes).
            self.start();
        }
        let mut dec = Dec::new(bytes)?;
        self.clock = SimTime(dec.take_u64()?);

        if dec.take_usize()? != self.n_items {
            return Err(CheckpointError::Mismatch { what: "n_items" });
        }

        self.submitted = dec.take_u64()?;
        self.last_fed_arrival = SimTime(dec.take_u64()?);
        self.arrivals_in_flight = dec.take_u64()?;
        self.stream_exhausted = dec.take_bool()?;
        let n = dec.take_usize()?;
        self.queries.slots.clear();
        self.queries.slots.reserve(n.min(1 << 20));
        for _ in 0..n {
            self.queries.slots.push(Cow::Owned(take_spec(&mut dec)?));
        }
        let f = dec.take_usize()?;
        self.queries.free.clear();
        for _ in 0..f {
            self.queries.free.push(dec.take_usize()?);
        }
        let accesses = dec.take_u64_vec()?;
        if accesses.len() != self.query_accesses.len() {
            return Err(CheckpointError::Mismatch {
                what: "access histogram size",
            });
        }
        self.query_accesses = accesses.into();

        let next_seq = dec.take_u64()?;
        let n_events = dec.take_usize()?;
        let mut entries = Vec::with_capacity(n_events.min(1 << 20));
        for _ in 0..n_events {
            let t = SimTime(dec.take_u64()?);
            let seq = dec.take_u64()?;
            entries.push((t, seq, take_event(&mut dec)?));
        }
        self.events.clear();
        self.events.set_next_seq(next_seq);
        self.events.restore_entries(entries);
        self.next_tick = match dec.take_u8()? {
            0 => None,
            1 => Some((SimTime(dec.take_u64()?), dec.take_u64()?)),
            v => {
                return Err(CheckpointError::BadTag {
                    value: v as u64,
                    what: "next tick",
                })
            }
        };

        self.txns.reset(TxnId(dec.take_u64()?));
        let n_txns = dec.take_usize()?;
        for _ in 0..n_txns {
            self.txns.push(take_txn(&mut dec)?);
        }
        let n_blocked = dec.take_usize()?;
        self.blocked.clear();
        for _ in 0..n_blocked {
            self.blocked.push(TxnId(dec.take_u64()?));
        }
        let n_running = dec.take_usize()?;
        self.running.clear();
        for _ in 0..n_running {
            self.running.push(RunningTxn {
                id: TxnId(dec.take_u64()?),
                started: SimTime(dec.take_u64()?),
                generation: dec.take_u64()?,
            });
        }
        self.next_generation = dec.take_u64()?;

        self.locks.restore_from(&mut dec)?;
        self.freshness.restore_from(&mut dec)?;
        let n_pending = dec.take_usize()?;
        if n_pending != self.pending_ondemand.len() {
            return Err(CheckpointError::Mismatch {
                what: "pending-refresh table size",
            });
        }
        for b in self.pending_ondemand.values_mut() {
            *b = dec.take_bool()?;
        }
        self.outstanding_update_work = SimDuration(dec.take_u64()?);

        // Admitted set: rebuild the map and the work index it feeds.
        self.admitted.clear();
        self.work = WorkTreap::new();
        let n_admitted = dec.take_usize()?;
        for _ in 0..n_admitted {
            let deadline = SimTime(dec.take_u64()?);
            let qid = QueryId(dec.take_u64()?);
            let entry = AdmittedEntry {
                txn: TxnId(dec.take_u64()?),
                remaining: SimDuration(dec.take_u64()?),
                pref_class: dec.take_u32()?,
            };
            self.work.add(deadline, entry.remaining.0);
            self.admitted.insert((deadline, qid), entry);
        }

        self.counts = take_counts(&mut dec)?;
        let n_classes = dec.take_usize()?;
        self.class_counts.clear();
        for _ in 0..n_classes {
            self.class_counts.push(take_counts(&mut dec)?);
        }
        self.cpu_busy = SimDuration(dec.take_u64()?);
        self.window_busy = SimDuration(dec.take_u64()?);
        self.window_start = SimTime(dec.take_u64()?);
        self.preemptions = dec.take_u64()?;
        self.query_restarts = dec.take_u64()?;
        self.demand_refreshes = dec.take_u64()?;
        self.signals.loosen_admission = dec.take_u64()?;
        self.signals.tighten_admission = dec.take_u64()?;
        self.signals.degrade_updates = dec.take_u64()?;
        self.signals.upgrade_updates = dec.take_u64()?;
        self.fault_counts.update_drops = dec.take_u64()?;
        self.fault_counts.update_delays = dec.take_u64()?;
        self.fault_counts.background_spawned = dec.take_u64()?;
        self.fault_counts.deferred_events = dec.take_u64()?;
        self.fault_counts.recoveries = dec.take_u64()?;
        self.dispatch_freshness_sum = dec.take_f64()?;
        self.dispatch_freshness_n = dec.take_u64()?;
        let n_samples = dec.take_usize()?;
        self.timeline.clear();
        for _ in 0..n_samples {
            self.timeline.push(TimelineSample {
                time: SimTime(dec.take_u64()?),
                usm: dec.take_f64()?,
                ready_queries: dec.take_usize()?,
                update_backlog_secs: dec.take_f64()?,
                utilization: dec.take_f64()?,
            });
        }
        self.events_processed = dec.take_u64()?;
        let n_records = dec.take_usize()?;
        self.outcome_records.clear();
        for _ in 0..n_records {
            self.outcome_records.push(OutcomeRecord {
                seq: dec.take_u64()?,
                time: SimTime(dec.take_u64()?),
                query: QueryId(dec.take_u64()?),
                outcome: take_outcome(&mut dec)?,
            });
        }
        #[cfg(feature = "validate")]
        {
            let n_log = dec.take_usize()?;
            self.outcome_log.clear();
            for _ in 0..n_log {
                self.outcome_log.push(take_outcome(&mut dec)?);
            }
        }

        self.policy.restore_state(&mut dec)?;
        dec.finish()?;

        // Rebuild the derived structures the snapshot never carries.
        self.ready.clear();
        let keys: Vec<_> = self
            .txns
            .iter()
            .filter(|t| t.state == TxnState::Ready)
            .map(|t| self.pkey_of(t))
            .collect();
        self.ready.extend(keys);
        self.view_scratch.get_mut().clear();

        // Crash bookkeeping relative to the restored clock: crash points at
        // or before a snapshot instant have already fired (the snapshot was
        // taken after their recovery), so the cursor resumes past them.
        self.replay = None;
        self.next_crash_idx = self.crash_points.partition_point(|&t| t <= self.clock);
        self.input_log.clear();
        self.last_checkpoint = if self.checkpoint_armed() {
            Some(bytes.to_vec())
        } else {
            None
        };
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
        // O(state) encode entirely. Strictly: a tick exactly at the crash
        // instant pops *after* the crash transition (the transition's
        // start-time sequence number is smaller), so it would snapshot too
        // late to help. This turns the armed-run overhead from
        // O(ticks × state) into O(crashes × state).
        if let Some((t, _)) = self.next_tick {
            if t < next_crash {
                return;
            }
        }
        let bytes = self.checkpoint();
        if self.obs.is_some() {
            self.emit(ObsEvent::CheckpointTaken {
                time: self.clock,
                bytes: bytes.len() as u64,
            });
        }
        self.input_log.clear();
        self.last_checkpoint = Some(bytes);
    }

    /// True when a lose-state crash fires at the current clock, advancing
    /// the cursor past any stale (already-replayed) points. O(1) amortized.
    pub(super) fn crash_due(&mut self) -> bool {
        while let Some(&t) = self.crash_points.get(self.next_crash_idx) {
            if t < self.clock {
                self.next_crash_idx += 1;
            } else {
                return t == self.clock;
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
        reason = "start() snapshots while armed, so a checkpoint precedes every crash point, and the engine restores only bytes it produced against this very run"
    )]
    pub(super) fn perform_crash_recovery(&mut self) {
        let ckpt = self
            .last_checkpoint
            .take()
            .expect("a checkpoint precedes every armed crash point");
        let resume_idx = self.next_crash_idx + 1;
        let recoveries = self.fault_counts.recoveries + 1;
        let exhausted = self.stream_exhausted;
        let crash_at = self.clock;
        let log = std::mem::take(&mut self.input_log);
        self.restore(&ckpt).expect("own checkpoint must restore");
        // restore() recomputed the crash cursor from the rewound clock,
        // which would re-fire this very crash during its own replay:
        // overwrite it with the post-crash cursor before anything steps.
        self.next_crash_idx = resume_idx;
        self.fault_counts.recoveries = recoveries;
        self.replay = Some((crash_at, self.clock));
        self.last_checkpoint = Some(ckpt);
        if self.obs.is_some() {
            let checkpoint = self.clock;
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
            self.feed_query(spec);
        }
        self.stream_exhausted |= exhausted;
    }
}

#[cfg(test)]
mod tests {
    use crate::{SchedulingDiscipline, SimConfig, SimRun};
    use unit_core::config::UnitConfig;
    use unit_core::time::{SimDuration, SimTime};
    use unit_core::unit_policy::UnitPolicy;
    use unit_core::usm::UsmWeights;
    use unit_workload::{
        QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
    };

    /// The mid-run snapshot of `recovery_differential.rs`'s
    /// `checkpoint_restore_checkpoint_is_byte_stable` (same workload,
    /// config, policy and instant) carries a window whose base is past
    /// retired transactions; the round trip keeps that base and stays a
    /// byte-level fixed point.
    #[test]
    fn round_trip_keeps_a_retired_window_base() {
        let qcfg = QueryTraceConfig::default().scaled_down(8);
        let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
            .with_total(UpdateVolume::Med.total_updates() / 8);
        let bundle = TraceBundle::generate(&qcfg, &ucfg);
        let cfg = SimConfig::new(bundle.horizon)
            .with_weights(UsmWeights::low_high_cfm())
            .with_tick_period(SimDuration::from_secs(10))
            .with_discipline(SchedulingDiscipline::DualPriorityEdf)
            .with_outcome_log();
        let make = || {
            UnitPolicy::new(
                UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(0x5EED_0001),
            )
        };

        let mut original = SimRun::trace(&bundle.trace, make(), cfg).build();
        original.step_until(SimTime(bundle.horizon.0 / 2));
        let base = original.txns.base();
        assert!(base.0 > 0, "the snapshot must cover a retired prefix");
        let bytes = original.checkpoint();

        let mut restored = SimRun::trace(&bundle.trace, make(), cfg).build();
        restored.restore(&bytes).expect("own snapshot must restore");
        assert_eq!(restored.txns.base(), base);
        assert_eq!(restored.txns.next_id(), original.txns.next_id());
        assert_eq!(restored.checkpoint(), bytes);
    }
}
