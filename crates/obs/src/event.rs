//! The typed event taxonomy (DESIGN.md §11).
//!
//! Every event carries a virtual-time stamp and only *derived* information:
//! emitting an event never mutates simulation state, which is what makes an
//! installed observer `report_digest`-bit-neutral by construction. The
//! variants cover the paper's feedback loop end to end — admission verdicts,
//! `C_flex` steps with their TAC/LAC signal counts, per-item ticket mass at
//! modulation boundaries, queue depth / EST at control ticks, fault-window
//! transitions, and the cluster dispatcher's routing and health view.

use unit_core::admission::AdmissionVerdict;
use unit_core::policy::AdmissionDecision;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, Outcome, QueryId};

/// Coarse server health phase, as seen by fault windows and the cluster
/// dispatcher (mirrors `unit_sim::HealthState` without the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Fully operational.
    Up,
    /// Serving reads from last-applied versions; update applications drop.
    Degraded,
    /// Crashed/paused: nothing executes.
    Down,
}

impl FaultPhase {
    /// Stable lowercase name used by the exporters. O(1).
    pub fn name(self) -> &'static str {
        match self {
            FaultPhase::Up => "up",
            FaultPhase::Degraded => "degraded",
            FaultPhase::Down => "down",
        }
    }
}

/// One observability event, stamped in virtual time.
///
/// Single-server events come straight from the engine; `Shard`-wrapped
/// events are a cluster replay of one shard engine's stream; the dispatcher
/// events (`DispatcherRoute`, `DispatcherReject`, `ShardHealth`) are
/// cluster-level and never wrapped.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// An admission decision for an arriving query. `verdict`/`c_flex` are
    /// present when the policy runs real admission control (UNIT), absent
    /// for open-loop baselines.
    Admission {
        /// Virtual arrival instant.
        time: SimTime,
        /// The arriving query.
        query: QueryId,
        /// The binary decision the engine acted on.
        decision: AdmissionDecision,
        /// The detailed verdict (reject reason with the failed inequality's
        /// numbers), when the policy exposes one.
        verdict: Option<AdmissionVerdict>,
        /// The admission lag ratio `C_flex` at decision time, when exposed.
        c_flex: Option<f64>,
    },
    /// The final outcome of one query (including rejections).
    QueryOutcome {
        /// Virtual instant the outcome was decided.
        time: SimTime,
        /// The decided query.
        query: QueryId,
        /// Its outcome.
        outcome: Outcome,
    },
    /// Queue depth and backlog sampled at a control tick, exactly as the
    /// policy's `on_tick` saw them (pre-tick state).
    ControlTick {
        /// Tick instant.
        time: SimTime,
        /// Admitted, unfinished queries (ready-queue depth).
        ready_queries: usize,
        /// Remaining admitted-query work — the EST numerator — in seconds.
        query_backlog_secs: f64,
        /// Outstanding update work in seconds.
        update_backlog_secs: f64,
        /// CPU utilization over the elapsed tick window.
        utilization: f64,
        /// Running average USM over all decided queries.
        usm: f64,
    },
    /// Controller state after a control tick, with the signal counts the
    /// tick emitted (all zero on a quiet tick).
    ControlStep {
        /// Tick instant.
        time: SimTime,
        /// `C_flex` after the tick's signals were applied.
        c_flex: f64,
        /// `TightenAdmission` signals this tick.
        tac: u32,
        /// `LoosenAdmission` signals this tick.
        lac: u32,
        /// `DegradeUpdates` signals this tick.
        degrade: u32,
        /// `UpgradeUpdates` signals this tick.
        upgrade: u32,
        /// Items whose update period is currently degraded.
        degraded_items: usize,
        /// Total lottery-ticket mass across all items.
        ticket_sum: f64,
    },
    /// One item's update period crossed a modulation boundary (a degrade
    /// stretch or an upgrade step), with its ticket mass at that instant.
    TicketMass {
        /// Instant of the modulation change (the enclosing tick).
        time: SimTime,
        /// The modulated item.
        item: DataId,
        /// The item's raw ticket value when it was picked.
        ticket: f64,
        /// Period before the change.
        old_period: SimDuration,
        /// Period after the change.
        new_period: SimDuration,
    },
    /// A fault window opened or closed on this server (engine-level).
    FaultWindow {
        /// Transition instant.
        time: SimTime,
        /// Health phase from this instant on.
        phase: FaultPhase,
        /// Scheduled end of the window (`None` when the phase is `Up`).
        until: Option<SimTime>,
    },
    /// A shard's health transitioned, as the cluster dispatcher sees the
    /// fault plan.
    ShardHealth {
        /// Transition instant.
        time: SimTime,
        /// The shard whose health changed.
        shard: u32,
        /// Health phase from this instant on.
        phase: FaultPhase,
        /// Scheduled end of the window (`None` when the phase is `Up`).
        until: Option<SimTime>,
    },
    /// The dispatcher routed a query to a shard (after `retries` backoff
    /// steps when failover is active).
    DispatcherRoute {
        /// Effective dispatch instant (> arrival after backoff).
        time: SimTime,
        /// The routed query.
        query: QueryId,
        /// Target shard.
        shard: u32,
        /// Backoff steps taken before routing.
        retries: u32,
    },
    /// The dispatcher rejected a query without routing it (failover budget
    /// or deadline exhausted); scored as a real `C_r` rejection.
    DispatcherReject {
        /// Instant the dispatcher gave up.
        time: SimTime,
        /// The rejected query.
        query: QueryId,
        /// Backoff steps taken before giving up.
        retries: u32,
    },
    /// A propagated version landed on a follower replica (replayed on the
    /// follower's replica pseudo-lane).
    ReplicaPropagate {
        /// Delivery instant at the follower.
        time: SimTime,
        /// The replicated item.
        item: DataId,
        /// The item's leader shard.
        leader: u32,
        /// The follower shard the version landed on.
        follower: u32,
        /// 1-based version ordinal among the item's emissions within the
        /// horizon.
        version: u64,
        /// Leader-side emission instant.
        emitted: SimTime,
    },
    /// The dispatcher routed a query to a shard serving part of its read
    /// set as a *follower*, under a claimed `Qu` staleness bound.
    ReplicaRoute {
        /// Effective dispatch instant.
        time: SimTime,
        /// The routed query.
        query: QueryId,
        /// Target shard.
        shard: u32,
        /// Read-set items the shard serves as a follower.
        follower_items: u32,
        /// Worst claimed in-transit version count among those items.
        claimed_transit: u64,
    },
    /// A crashed leader's freshest live follower took over an item at
    /// routing time (deterministic promotion).
    ReplicaPromote {
        /// Dispatch instant the promotion took effect.
        time: SimTime,
        /// The item whose leader was down.
        item: DataId,
        /// The paused leader shard.
        from: u32,
        /// The promoted follower shard.
        to: u32,
    },
    /// A deterministic crash-recovery snapshot of the full engine state
    /// was taken at a control boundary (engine-level; only emitted while a
    /// lose-state crash schedule is armed).
    CheckpointTaken {
        /// Checkpoint instant (a control-tick boundary or run start).
        time: SimTime,
    },
    /// A lose-state crash fired: the engine is discarding all volatile
    /// state and restoring from its last checkpoint, then replaying the
    /// lost window in virtual time.
    RestoreBegin {
        /// Crash instant (replay will catch back up to here).
        time: SimTime,
        /// Virtual instant of the checkpoint being restored.
        checkpoint: SimTime,
    },
    /// Replay of a crash-lost window completed: the engine's state has
    /// caught back up to the crash instant.
    ReplayComplete {
        /// The crash instant replay caught up to.
        time: SimTime,
        /// Virtual instant of the checkpoint the replay started from.
        checkpoint: SimTime,
    },
    /// A shard engine's event, replayed at cluster level: `seq` is the
    /// event's position in that shard's own stream, making the cluster
    /// merge key `(time, shard, seq)` unique and deterministic.
    Shard {
        /// Originating shard.
        shard: u32,
        /// Position in the shard's local event stream.
        seq: u64,
        /// The shard-local event.
        event: Box<ObsEvent>,
    },
}

impl ObsEvent {
    /// The event's virtual-time stamp (the wrapped event's for `Shard`).
    /// O(depth), effectively O(1).
    pub fn time(&self) -> SimTime {
        match self {
            ObsEvent::Admission { time, .. }
            | ObsEvent::QueryOutcome { time, .. }
            | ObsEvent::ControlTick { time, .. }
            | ObsEvent::ControlStep { time, .. }
            | ObsEvent::TicketMass { time, .. }
            | ObsEvent::FaultWindow { time, .. }
            | ObsEvent::ShardHealth { time, .. }
            | ObsEvent::DispatcherRoute { time, .. }
            | ObsEvent::DispatcherReject { time, .. }
            | ObsEvent::ReplicaPropagate { time, .. }
            | ObsEvent::ReplicaRoute { time, .. }
            | ObsEvent::ReplicaPromote { time, .. }
            | ObsEvent::CheckpointTaken { time, .. }
            | ObsEvent::RestoreBegin { time, .. }
            | ObsEvent::ReplayComplete { time, .. } => *time,
            ObsEvent::Shard { event, .. } => event.time(),
        }
    }

    /// Stable lowercase kind tag used by the exporters. O(1).
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Admission { .. } => "admission",
            ObsEvent::QueryOutcome { .. } => "outcome",
            ObsEvent::ControlTick { .. } => "control_tick",
            ObsEvent::ControlStep { .. } => "control_step",
            ObsEvent::TicketMass { .. } => "ticket_mass",
            ObsEvent::FaultWindow { .. } => "fault_window",
            ObsEvent::ShardHealth { .. } => "shard_health",
            ObsEvent::DispatcherRoute { .. } => "route",
            ObsEvent::DispatcherReject { .. } => "dispatcher_reject",
            ObsEvent::ReplicaPropagate { .. } => "replica_propagate",
            ObsEvent::ReplicaRoute { .. } => "replica_route",
            ObsEvent::ReplicaPromote { .. } => "replica_promote",
            ObsEvent::CheckpointTaken { .. } => "checkpoint_taken",
            ObsEvent::RestoreBegin { .. } => "restore_begin",
            ObsEvent::ReplayComplete { .. } => "replay_complete",
            ObsEvent::Shard { .. } => "shard",
        }
    }
}

/// Stable lowercase name of an outcome (exporters and rendering). O(1).
pub fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Success => "success",
        Outcome::DeadlineMiss => "deadline_miss",
        Outcome::DataStale => "data_stale",
        Outcome::Rejected => "rejected",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_wrapping_preserves_the_inner_timestamp() {
        let inner = ObsEvent::QueryOutcome {
            time: SimTime::from_secs(7),
            query: QueryId(3),
            outcome: Outcome::Success,
        };
        let wrapped = ObsEvent::Shard {
            shard: 2,
            seq: 0,
            event: Box::new(inner.clone()),
        };
        assert_eq!(wrapped.time(), SimTime::from_secs(7));
        assert_eq!(inner.kind(), "outcome");
        assert_eq!(wrapped.kind(), "shard");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FaultPhase::Down.name(), "down");
        assert_eq!(outcome_name(Outcome::DataStale), "data_stale");
    }
}
