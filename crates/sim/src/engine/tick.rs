//! The control tick: the policy's feedback loop, the timeline sample, the
//! idle-tick fast paths, and (feature `validate`) the invariant recounts
//! run at every tick. The idle paths are switched off under `validate`, so
//! `golden_snapshot` run with `--features unit-sim/validate` pins them as
//! digest-neutral.

use super::Simulator;
use unit_core::policy::{ControlSignal, Policy};
use unit_core::time::{SimDuration, SimTime};
use unit_obs::ObsEvent;

impl<P: Policy> Simulator<'_, P> {
    /// Control-tick hook: run the policy's feedback loop and sample the
    /// timeline. O(T log N_ev) where T is the tick-triggered refresh count,
    /// plus the policy's `on_tick`. For UNIT that is O(1) on a tick without
    /// a signal; a `DegradeUpdates` signal costs O(N + draws) (a lottery
    /// wheel build, then up to `DEGRADE_DRAWS_PER_SIGNAL` = 4096 draws of
    /// O(1) expected each) and an `UpgradeUpdates` signal O(N + k log N)
    /// for the k items it restores (DESIGN.md §2.1).
    pub(super) fn on_control_tick(&mut self) {
        // Idle-tick fast path: when the policy certifies this tick as a
        // no-op (`Policy::tick_idle`) and nobody is watching, only the
        // utilization-window roll and the re-arm have observable effects —
        // the snapshot view, the `on_tick` call, and the refresh sweep are
        // skipped wholesale. Bit-identical to the full path by the
        // `tick_idle` contract (pinned by the differential suites);
        // disabled under the `validate` feature so debug builds still
        // cross-check invariants at every tick.
        let idle = !cfg!(feature = "validate")
            && self.obs.is_none()
            && !self.cfg.record_timeline
            && self.policy.tick_idle(self.state.clock);
        if idle {
            self.state.window_busy = SimDuration::ZERO;
            self.state.window_start = self.state.clock;
            self.rearm_tick();
            self.take_checkpoint();
            return;
        }
        // One view serves both the policy tick and the timeline sample, so
        // the sample reflects pre-tick state exactly as the policy saw it.
        let observing = self.obs.is_some();
        let (signals, ready_queries, update_backlog_secs, utilization, query_backlog_secs) = self
            .with_view(|policy, _, view| {
                let query_backlog_secs = if observing {
                    view.query_backlog().as_secs_f64()
                } else {
                    0.0
                };
                (
                    policy.on_tick(view.now, view),
                    view.ready_queue_len(),
                    view.update_backlog.as_secs_f64(),
                    view.recent_utilization,
                    query_backlog_secs,
                )
            });
        for &s in &signals {
            self.state.signals.record(s);
        }
        if observing {
            self.emit(ObsEvent::ControlTick {
                time: self.state.clock,
                ready_queries,
                query_backlog_secs,
                update_backlog_secs,
                utilization,
                usm: self.state.counts.average_usm(&self.cfg.weights),
            });
            if let Some(ctl) = self.policy.controller_obs() {
                let count =
                    |sig: ControlSignal| signals.iter().filter(|&&s| s == sig).count() as u32;
                self.emit(ObsEvent::ControlStep {
                    time: self.state.clock,
                    c_flex: ctl.c_flex,
                    tac: count(ControlSignal::TightenAdmission),
                    lac: count(ControlSignal::LoosenAdmission),
                    degrade: count(ControlSignal::DegradeUpdates),
                    upgrade: count(ControlSignal::UpgradeUpdates),
                    degraded_items: ctl.degraded_items,
                    ticket_sum: ctl.ticket_sum,
                });
            }
            let now = self.state.clock;
            for m in self.policy.drain_modulation_obs() {
                self.emit(ObsEvent::TicketMass {
                    time: now,
                    item: m.item,
                    ticket: m.ticket,
                    old_period: m.old_period,
                    new_period: m.new_period,
                });
            }
        }
        // Time-triggered refreshes (deferrable-update style policies).
        let freshness = &self.state.freshness;
        let wanted = self
            .policy
            .tick_refreshes(self.state.clock, &|d| freshness.udrop(d));
        if self.spawn_refreshes(wanted) {
            self.reschedule();
        }
        if self.cfg.record_timeline {
            self.state.timeline.push(crate::stats::TimelineSample {
                time: self.state.clock,
                usm: self.state.counts.average_usm(&self.cfg.weights),
                ready_queries,
                update_backlog_secs,
                utilization,
            });
        }
        // New utilization window.
        self.state.window_busy = SimDuration::ZERO;
        self.state.window_start = self.state.clock;

        #[cfg(feature = "validate")]
        self.validate_invariants();

        self.rearm_tick();
        self.take_checkpoint();
    }

    /// Idle-tick fast-forward: when the policy certifies a run of pending
    /// ticks as no-ops ([`Policy::tick_idle_until`]), consume every
    /// certifiably idle tick strictly before the next heap event *without
    /// spending a step on any of them* — the enclosing [`Simulator::step`]
    /// then pops the real event directly. A sparse stretch of the run costs
    /// one step per heap event instead of one extra step per tick-train
    /// segment, making per-shard tick cost O(events) rather than
    /// O(horizon / tick_period) — crucial for many-shard cluster runs,
    /// where each shard replays the full tick train over a sparse slice of
    /// the trace.
    ///
    /// Sound because the certification premise — "no other hook fires in
    /// between" — holds by construction: every outcome, arrival, version,
    /// completion, and fault transition is a heap event, and the skip stops
    /// strictly before the heap head. Per consumed tick the only observable
    /// effects are the utilization-window roll (collapsed to the final
    /// roll: each roll just resets the window), the processed-event count,
    /// and one re-arm sequence number (burned via
    /// [`crate::events::EventQueue::alloc_seqs`]), so the run stays
    /// bit-identical to the stepped one — the differential suites pin this.
    /// Disabled while observed, while recording a timeline, during a fault
    /// pause, and under the `validate` feature (debug builds cross-check
    /// invariants at every tick). O(1).
    pub(super) fn fast_forward_idle_ticks(&mut self) {
        if cfg!(feature = "validate")
            || self.obs.is_some()
            || self.cfg.record_timeline
            || self.paused_until().is_some()
        {
            return;
        }
        let Some((t, _)) = self.state.next_tick else {
            return;
        };
        let period = self.cfg.tick_period.0;
        if period == 0 {
            return;
        }
        // Ticks strictly before `limit` are no-ops: below the policy bound,
        // and no heap event can interleave. (A tick *tying* the heap head
        // must go through the normal race, hence strict `<`.) Arrivals not
        // yet fed are invisible to the heap but bounded below by the feed
        // (and an arrival ties below a tick at the same instant).
        let mut limit = self.policy.tick_idle_until();
        for bound in [self.state.events.peek_time(), self.unfed_floor()]
            .into_iter()
            .flatten()
        {
            limit = limit.min(bound);
        }
        if t >= limit {
            return;
        }
        // The first tick may sit past the horizon (it is armed
        // unconditionally at start); leave that edge to the normal handler.
        let Some(horizon_room) = self.cfg.horizon.0.checked_sub(t.0) else {
            return;
        };
        // Consume the armed tick plus `extra` idle successors.
        let extra = ((limit.0 - t.0 - 1) / period).min(horizon_room / period);
        let t_last = SimTime(t.0 + extra * period);
        debug_assert!(t >= self.state.clock, "time went backwards");
        self.state.next_tick = None;
        self.state.clock = t_last;
        self.state.events_processed += extra + 1;
        // Each consumed tick's re-arm claimed one runtime sequence slot:
        // `extra` burned here, the last taken by `rearm_tick` below.
        self.state.events.alloc_seqs(extra);
        self.state.window_busy = SimDuration::ZERO;
        self.state.window_start = t_last;
        self.rearm_tick();
        // One snapshot at the collapsed boundary stands in for the skipped
        // per-tick snapshots: recovery only needs *a* checkpoint at or
        // before the crash instant plus the input log since it, and the
        // skip stops strictly before the crash's heap transition.
        self.take_checkpoint();
    }

    /// Arm the next tick, claiming its runtime sequence slot now (see the
    /// `next_tick` field docs). Both tick paths (full and idle) end here,
    /// so the sequence-number tape is identical either way.
    fn rearm_tick(&mut self) {
        let next = self.state.clock + self.cfg.tick_period;
        if next.0 <= self.cfg.horizon.0 {
            self.state.next_tick = Some((next, self.state.events.alloc_seq()));
        }
    }

    /// Cross-check the incremental engine structures against naive
    /// recomputation (see [`crate::validate`]): the work index vs an O(N)
    /// recount over the admitted set, the USM tallies vs the raw outcome
    /// log, the transaction window's tightness (a live front, ids dense
    /// from its base), and the non-idling law. Runs at every control tick
    /// (outside crash windows, where ticks are deferred) and once at end of
    /// run.
    #[cfg(feature = "validate")]
    pub(super) fn validate_invariants(&self) {
        use crate::faults::HealthState;
        use crate::txn::TxnState;
        let mut naive: std::collections::BTreeMap<SimTime, u64> = Default::default();
        for (&(deadline, _), e) in &self.state.admitted {
            if e.remaining.0 > 0 {
                *naive.entry(deadline).or_insert(0) += e.remaining.0;
            }
        }
        let naive_total: u64 = naive.values().sum();
        let entries: Vec<(SimTime, u64)> = naive.into_iter().collect();
        let total = self.state.work.total();
        unit_core::validate_check!(
            "work-index",
            if entries == self.state.work.entries() && naive_total == total {
                Ok(())
            } else {
                Err(format!(
                    "work index diverged: recount total {naive_total}, index total {total}"
                ))
            }
        );
        let front_live = self
            .state
            .txns
            .iter()
            .next()
            .map_or(true, |t| t.state != TxnState::Finished);
        let dense = self
            .state
            .txns
            .iter()
            .zip(self.state.txns.base().0..)
            .all(|(t, id)| t.id.0 == id);
        unit_core::validate_check!(
            "txn-window",
            if front_live && dense {
                Ok(())
            } else {
                Err(format!(
                    "transaction window from {:?} not tight: live front {front_live}, dense ids {dense}",
                    self.state.txns.base()
                ))
            }
        );
        unit_core::validate_check!(
            "usm-identity",
            crate::validate::check_usm_identity(
                &self.state.counts,
                &self.state.outcome_log,
                &self.cfg.weights
            )
        );
        // Non-idling: no CPU idles while a transaction is ready. Every
        // handler that frees a CPU or readies work ends in `reschedule`,
        // which upholds the law on return. One instant is exempt: the first
        // tick took its sequence slot before the fault transitions were
        // seeded, so when a crash window ends exactly on it, it pops before
        // the recovery transition that restarts the preempted work.
        let first_tick_on_recovery = self.state.clock == SimTime::ZERO + self.cfg.tick_period
            && self.faults.as_deref().is_some_and(|h| {
                h.health(SimTime(self.state.clock.0 - 1))
                    == HealthState::Down {
                        until: self.state.clock,
                    }
            });
        let busy = self.state.ready.is_empty() || self.state.running.len() == self.cfg.n_cpus;
        unit_core::validate_check!(
            "non-idling",
            if busy || first_tick_on_recovery {
                Ok(())
            } else {
                Err(format!(
                    "{} of {} CPUs busy at {:?} with {} transactions ready",
                    self.state.running.len(),
                    self.cfg.n_cpus,
                    self.state.clock,
                    self.state.ready.len()
                ))
            }
        );
    }
}
