//! What the fault hook does to the server: the crash-window deferral rule,
//! fault transitions (pause, recovery, load bursts, lose-state crashes)
//! and fault-delayed update applications. Pinned by
//! `tests/fault_behaviour.rs`.

use super::Simulator;
use crate::faults::HealthState;
use crate::txn::TxnKind;
use unit_core::policy::Policy;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::DataId;
use unit_obs::{FaultPhase, ObsEvent};

impl<P: Policy> Simulator<'_, P> {
    /// The recovery instant of the current crash window, when the fault
    /// hook reports the server [`HealthState::Down`] at the current clock
    /// with a strictly-future recovery (the strictness guard makes a
    /// degenerate `until == now` window inert instead of self-deferring
    /// forever). `None` on every fault-free path. O(log F).
    pub(super) fn paused_until(&self) -> Option<SimTime> {
        let hook = self.faults.as_deref()?;
        match hook.health(self.state.clock) {
            HealthState::Down { until } if until > self.state.clock => Some(until),
            _ => None,
        }
    }

    /// The crash-window deferral rule: while the server is down, a query
    /// arrival, a firm-deadline abort and the control tick that pop wait
    /// for the recovery instant — the server is not listening, no outcome
    /// lands inside the window, and the controller is down with the rest.
    /// Returns that instant, counting the deferral; the caller re-queues
    /// the event there. `None`: handle the event now. O(log F).
    pub(super) fn defer_to_recovery(&mut self) -> Option<SimTime> {
        let until = self.paused_until()?;
        self.state.fault_counts.deferred_events += 1;
        Some(until)
    }

    /// Fault-transition hook: at a crash-window start preempt every running
    /// transaction (their scheduled completions go stale through the
    /// generation check, so nothing commits inside the window); at a
    /// recovery or burst instant inject any scheduled background load and
    /// re-fill the CPUs. O(n_cpus · log N_rq + B_now) plus the trailing
    /// [`Simulator::reschedule`].
    pub(super) fn on_fault_transition(&mut self) {
        // Lose-state crashes come first: the restore rewinds the clock, and
        // the replayed run re-pops this very transition (with the crash
        // point consumed) to apply its ordinary semantics below.
        if self.crash_due() {
            self.perform_crash_recovery();
            return;
        }
        if let Some((until, from)) = self.replay {
            if until == self.state.clock {
                // The replay caught back up to the crash instant; from here
                // on the run breaks new ground again.
                self.replay = None;
                if self.obs.is_some() {
                    self.emit(ObsEvent::ReplayComplete {
                        time: until,
                        checkpoint: from,
                    });
                }
            }
        }
        let Some(health) = self.faults.as_deref().map(|h| h.health(self.state.clock)) else {
            debug_assert!(false, "FaultTransition scheduled without a hook");
            return;
        };
        if self.obs.is_some() {
            let (phase, until) = match health {
                HealthState::Up => (FaultPhase::Up, None),
                HealthState::Degraded { until } => (FaultPhase::Degraded, Some(until)),
                HealthState::Down { until } => (FaultPhase::Down, Some(until)),
            };
            self.emit(ObsEvent::FaultWindow {
                time: self.state.clock,
                phase,
                until,
            });
        }
        if health.queries_paused() {
            while !self.state.running.is_empty() {
                self.preempt_running(0);
            }
            return;
        }
        let loads = self
            .faults
            .as_deref()
            .map(|h| h.load_at(self.state.clock))
            .unwrap_or_default();
        for load in loads {
            self.state.fault_counts.background_spawned += 1;
            // Update-class CPU demand with an EDF deadline of now, so it
            // outranks every pending periodic update: bursts bite at once.
            self.spawn(TxnKind::Background, load.exec, self.state.clock);
        }
        // Recovery instants reach here with an empty load list: this
        // reschedule is what restarts the work preempted at window start.
        self.reschedule();
    }

    /// Delayed-apply hook: spawn the update transaction that
    /// [`crate::faults::UpdateFault::Delay`] postponed, unless a
    /// crash/degradation window now drops it. O(log N_rq) plus the trailing
    /// [`Simulator::reschedule`].
    pub(super) fn on_delayed_apply(&mut self, item: DataId, exec: SimDuration, deadline: SimTime) {
        let dropped = self
            .faults
            .as_deref()
            .is_some_and(|h| h.health(self.state.clock).updates_dropped());
        if dropped {
            self.state.fault_counts.update_drops += 1;
            return;
        }
        let kind = TxnKind::Update {
            item,
            on_demand: false,
        };
        self.spawn(kind, exec, deadline);
        self.reschedule();
    }
}
