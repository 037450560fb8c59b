//! Fault-injection hook surface for the engine.
//!
//! The engine itself stays fault-agnostic: all failure behaviour is
//! delegated to an optional [`FaultHook`] installed with
//! [`crate::SimRun::with_faults`]. The hook expresses faults in
//! **virtual time** — crash/recovery windows, per-item update drop and
//! delay intervals, and background load bursts — so a faulty run is still a
//! pure function of `(trace, policy, config, hook)` and bit-reproducible.
//!
//! Without a hook (or with a hook whose schedule is empty) the engine takes
//! exactly the fault-free code paths: no extra events are scheduled and no
//! behaviour changes, which is what the fault-free differential suite pins
//! (`crates/cluster/tests/fault_differential.rs`).
//!
//! Semantics (DESIGN.md §6):
//!
//! * **[`HealthState::Down`]** — the server is fully paused. Query
//!   arrivals, firm-deadline expiries, and control ticks popping inside the
//!   window are deferred to the window end; running transactions were
//!   preempted at the window start, so no outcome is ever recorded at a
//!   virtual time strictly inside a down window. Version *arrivals* are
//!   still observed (sources are external and keep emitting — `Udrop`
//!   rises), but applications are dropped.
//! * **[`HealthState::Degraded`]** — graceful degradation: the read path
//!   stays up and queries execute against the last-applied versions, while
//!   update applications are dropped. Staleness accrues honestly through
//!   the ordinary `Udrop` path, so affected queries score DSF (`C_fs`)
//!   instead of stalling into DMF (`C_fm`).
//! * **[`UpdateFault`]** — outside crash windows, individual items can have
//!   drop or delay intervals on their update streams, again feeding the
//!   real freshness path.
//! * **Load bursts** — at hook-chosen transition instants the engine
//!   spawns *background* update-class transactions that consume CPU (and
//!   outrank queries under the paper's dual-priority discipline) but touch
//!   no data and record no outcome.

use unit_core::time::{SimDuration, SimTime};
use unit_core::types::DataId;

/// Health of the simulated server at one virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Fully operational: queries and updates run normally.
    Up,
    /// Crashed/paused until the given instant: nothing executes and no
    /// outcome is recorded strictly inside the window.
    Down {
        /// First instant at which the server is operational again.
        until: SimTime,
    },
    /// Serving reads from last-applied versions until the given instant:
    /// queries execute (possibly scoring DSF), update applications drop.
    Degraded {
        /// First instant at which the update path is restored.
        until: SimTime,
    },
}

impl HealthState {
    /// True when the query path is paused (only [`HealthState::Down`]).
    pub fn queries_paused(&self) -> bool {
        matches!(self, HealthState::Down { .. })
    }

    /// True when update applications are dropped (down or degraded).
    pub fn updates_dropped(&self) -> bool {
        !matches!(self, HealthState::Up)
    }
}

/// Fault applied to the application of one arriving version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateFault {
    /// No fault: the policy decides and the update applies normally.
    Apply,
    /// The version is observed (raises `Udrop`) but never applied.
    Drop,
    /// The application transaction is spawned only after the given delay.
    Delay(SimDuration),
}

/// Background work injected by a load burst: one update-class transaction
/// that consumes CPU but touches no item and records no outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundLoad {
    /// CPU demand of the injected transaction.
    pub exec: SimDuration,
}

/// The engine's fault-injection interface.
///
/// Implementations must be **deterministic pure functions of virtual
/// time**: the engine may call any method any number of times and the
/// answer for a given instant must never change (the cluster layer relies
/// on this for its bit-reproducibility argument). All faults must be known
/// up front — [`FaultHook::transition_times`] is consulted once at run
/// start and is the only way the hook can cause engine activity at an
/// instant where no trace event fires.
pub trait FaultHook {
    /// Virtual instants at which the engine must schedule a fault
    /// transition event: crash-window starts and ends, and load-burst
    /// instants. Called once at run start; duplicates are fine. O(F) in
    /// the number of scheduled fault events.
    fn transition_times(&self) -> Vec<SimTime>;

    /// Health of the server at `now`. Consulted on every popped event
    /// while faults are installed, so implementations should be O(log F)
    /// or better.
    fn health(&self, now: SimTime) -> HealthState;

    /// Fault applied to a version of `item` arriving at `now`, when the
    /// server is otherwise up. O(log F) or better.
    fn update_fault(&self, item: DataId, now: SimTime) -> UpdateFault;

    /// Background load to inject at transition instant `now` (empty when
    /// the transition is a crash boundary). O(B_now) in the number of
    /// bursts at exactly `now`.
    fn load_at(&self, now: SimTime) -> Vec<BackgroundLoad>;

    /// Virtual instants at which the server crashes **losing all volatile
    /// state** (DESIGN.md §7): at each instant the engine discards its
    /// state, restores its last checkpoint, and replays the lost window.
    /// Must be sorted ascending; duplicates are fine. These instants must
    /// also appear in [`FaultHook::transition_times`]. The default — no
    /// lose-state crashes — keeps existing hooks (pause/degrade semantics)
    /// unchanged. O(F).
    fn lose_state_crashes(&self) -> Vec<SimTime> {
        Vec::new() // lint: allow(P2) — called once at simulator start to arm the crash cursor, never per event
    }
}

/// The trivial hook: always healthy, never faults. Installing it is
/// behaviourally identical to installing no hook at all — the fault-free
/// differential suite pins this bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    /// O(1): no transitions.
    fn transition_times(&self) -> Vec<SimTime> {
        Vec::new()
    }

    /// O(1): always up.
    fn health(&self, _now: SimTime) -> HealthState {
        HealthState::Up
    }

    /// O(1): never faults an update.
    fn update_fault(&self, _item: DataId, _now: SimTime) -> UpdateFault {
        UpdateFault::Apply
    }

    /// O(1): never injects load.
    fn load_at(&self, _now: SimTime) -> Vec<BackgroundLoad> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_state_predicates() {
        let t = SimTime::from_secs(5);
        assert!(!HealthState::Up.queries_paused());
        assert!(!HealthState::Up.updates_dropped());
        assert!(HealthState::Down { until: t }.queries_paused());
        assert!(HealthState::Down { until: t }.updates_dropped());
        assert!(!HealthState::Degraded { until: t }.queries_paused());
        assert!(HealthState::Degraded { until: t }.updates_dropped());
    }

    #[test]
    fn no_faults_is_inert() {
        let h = NoFaults;
        assert!(h.transition_times().is_empty());
        assert_eq!(h.health(SimTime::ZERO), HealthState::Up);
        assert_eq!(
            h.update_fault(DataId(0), SimTime::from_secs(9)),
            UpdateFault::Apply
        );
        assert!(h.load_at(SimTime::from_secs(1)).is_empty());
    }
}
