//! Runtime transaction state.
//!
//! The engine turns trace specs into live transactions: a user query becomes
//! a [`Txn`] at admission; an applied version (or an on-demand refresh)
//! becomes an update-class [`Txn`]. Transactions move through
//! [`TxnState::Ready`] → [`TxnState::Running`] (possibly bouncing back on
//! preemption, or to [`TxnState::Blocked`] on a lock conflict) until they
//! commit or abort.

use std::collections::VecDeque;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, TxnClass};

/// Engine-local transaction identifier: the transaction's dense creation
/// ordinal within the run (also the EDF tie-break and the lock-holder
/// identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Dispatchable: waiting for the CPU in the dual-priority ready queue.
    Ready,
    /// Currently executing on the (single) CPU.
    Running,
    /// Waiting for a lock held by a higher-priority transaction.
    Blocked,
    /// Committed or aborted; terminal.
    Finished,
}

/// What kind of work a transaction carries.
#[derive(Debug, Clone)]
pub enum TxnKind {
    /// A user query.
    Query {
        /// Slot of the spec in the engine's in-flight slab.
        spec_idx: usize,
        /// Strict-minimum freshness of the read set, captured when the read
        /// locks were acquired. `None` until first dispatch.
        freshness_at_dispatch: Option<f64>,
        /// Times this query was aborted-and-restarted by 2PL-HP.
        restarts: u32,
    },
    /// An update transaction installing the newest version of one item.
    Update {
        /// The item being refreshed.
        item: DataId,
        /// True when this update was issued on demand for a waiting query
        /// (ODU) rather than by a periodic stream.
        on_demand: bool,
    },
    /// Injected background load (fault-schedule burst): update-class CPU
    /// demand that takes no locks, refreshes no item, and records no
    /// outcome. Exists so load bursts steal CPU from queries exactly the
    /// way real maintenance traffic does under the dual-priority
    /// discipline.
    Background,
}

/// A live transaction.
#[derive(Debug, Clone)]
pub struct Txn {
    /// Engine-local identifier.
    pub id: TxnId,
    /// Scheduling class (updates outrank queries).
    pub class: TxnClass,
    /// EDF key: the query's absolute deadline, or for updates the arrival
    /// time plus the stream period (temporal-validity deadline; on-demand
    /// updates use their creation instant so they run before periodic ones).
    pub edf_deadline: SimTime,
    /// Total service demand.
    pub exec_time: SimDuration,
    /// Remaining service demand (decreases across preemptions).
    pub remaining: SimDuration,
    /// Lifecycle state.
    pub state: TxnState,
    /// Whether the transaction currently holds its locks.
    pub holds_locks: bool,
    /// The item this transaction is blocked on, when [`TxnState::Blocked`].
    pub blocked_on: Option<DataId>,
    /// Payload.
    pub kind: TxnKind,
}

impl Txn {
    /// Priority key for the dual-priority EDF discipline: update class
    /// first, then earlier deadline, then lower id (deterministic ties).
    pub fn priority_key(&self) -> (TxnClass, SimTime, TxnId) {
        (self.class, self.edf_deadline, self.id)
    }

    /// True when `self` has strictly higher dispatch priority than `other`.
    pub fn outranks(&self, other: &Txn) -> bool {
        self.priority_key() < other.priority_key()
    }

    /// True for query-class transactions.
    pub fn is_query(&self) -> bool {
        matches!(self.kind, TxnKind::Query { .. })
    }

    /// The updated item for update-class transactions.
    pub fn update_item(&self) -> Option<DataId> {
        match self.kind {
            TxnKind::Update { item, .. } => Some(item),
            TxnKind::Query { .. } | TxnKind::Background => None,
        }
    }

    /// Reset to a full restart after a 2PL-HP abort: full service demand,
    /// no locks, back to the ready queue.
    pub fn restart(&mut self) {
        self.remaining = self.exec_time;
        self.holds_locks = false;
        self.blocked_on = None;
        self.state = TxnState::Ready;
        if let TxnKind::Query {
            restarts,
            freshness_at_dispatch,
            ..
        } = &mut self.kind
        {
            *restarts += 1;
            *freshness_at_dispatch = None;
        }
    }
}

/// The engine's transaction arena: a window over the run's transactions,
/// addressed by [`TxnId`]. Ids are the dense creation ordinal handed out by
/// [`TxnArena::next_id`]; the window holds ids `base..next_id` in order.
/// [`TxnArena::retire`] drops the finished prefix, so the window's length
/// is bounded by the live work plus whatever finished behind a live front,
/// never by the run's length. Every id the engine's live structures hold
/// (ready set, running set, blocked list, lock table, admitted set) names a
/// transaction inside the window; only a pending `QueryDeadline` can name a
/// retired one, which [`TxnArena::get`] reports as `None`.
#[derive(Debug, Default)]
pub(crate) struct TxnArena {
    /// Id of the window's front transaction (every lower id is retired).
    base: u64,
    txns: VecDeque<Txn>,
}

impl TxnArena {
    /// The id the next pushed transaction must carry. O(1).
    pub(crate) fn next_id(&self) -> TxnId {
        TxnId(self.base + self.txns.len() as u64)
    }

    /// Append `txn`, which must carry [`TxnArena::next_id`]. O(1) amortized.
    pub(crate) fn push(&mut self, txn: Txn) {
        debug_assert_eq!(txn.id, self.next_id(), "transaction ids are dense");
        self.txns.push_back(txn);
    }

    /// The transaction behind `id`, or `None` once it has been retired. O(1).
    pub(crate) fn get(&self, id: TxnId) -> Option<&Txn> {
        self.txns.get(id.0.checked_sub(self.base)? as usize)
    }

    /// The transaction behind the live id `id`. O(1).
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass only ids held by live structures, and retire() drops finished transactions only, which no live structure names"
    )]
    pub(crate) fn at(&self, id: TxnId) -> &Txn {
        &self.txns[(id.0 - self.base) as usize]
    }

    /// The transaction behind the live id `id`, mutably. O(1).
    #[expect(
        clippy::indexing_slicing,
        reason = "same bound as `at`: every live id names a slot inside the window"
    )]
    pub(crate) fn at_mut(&mut self, id: TxnId) -> &mut Txn {
        &mut self.txns[(id.0 - self.base) as usize]
    }

    /// Drop the window's finished prefix. Call after every transition to
    /// [`TxnState::Finished`]; a live front pins the window until it
    /// finishes. O(1) amortized (each transaction is popped once).
    pub(crate) fn retire(&mut self) {
        while self
            .txns
            .front()
            .is_some_and(|t| t.state == TxnState::Finished)
        {
            self.txns.pop_front();
            self.base += 1;
        }
    }

    /// Id of the window's front: every lower id is retired. O(1).
    pub(crate) fn base(&self) -> TxnId {
        TxnId(self.base)
    }

    /// Number of transactions in the window. O(1).
    pub(crate) fn len(&self) -> usize {
        self.txns.len()
    }

    /// True when the window holds no transaction. O(1).
    pub(crate) fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// The window's transactions, in id order.
    pub(crate) fn iter(&self) -> std::collections::vec_deque::Iter<'_, Txn> {
        self.txns.iter()
    }

    /// Empty the window and restart it at `base` (checkpoint restore
    /// refills it).
    pub(crate) fn reset(&mut self, base: TxnId) {
        self.txns.clear();
        self.base = base.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(id: u64, class: TxnClass, deadline_s: u64) -> Txn {
        Txn {
            id: TxnId(id),
            class,
            edf_deadline: SimTime::from_secs(deadline_s),
            exec_time: SimDuration::from_secs(5),
            remaining: SimDuration::from_secs(5),
            state: TxnState::Ready,
            holds_locks: false,
            blocked_on: None,
            kind: TxnKind::Query {
                spec_idx: 0,
                freshness_at_dispatch: None,
                restarts: 0,
            },
        }
    }

    #[test]
    fn updates_outrank_queries_regardless_of_deadline() {
        let mut u = txn(10, TxnClass::Update, 1000);
        u.kind = TxnKind::Update {
            item: DataId(0),
            on_demand: false,
        };
        let q = txn(1, TxnClass::Query, 1);
        assert!(u.outranks(&q));
        assert!(!q.outranks(&u));
    }

    #[test]
    fn edf_within_class_then_id_tiebreak() {
        let a = txn(1, TxnClass::Query, 10);
        let b = txn(2, TxnClass::Query, 20);
        assert!(a.outranks(&b));
        let c = txn(3, TxnClass::Query, 10);
        assert!(a.outranks(&c), "equal deadlines break ties by id");
    }

    #[test]
    fn restart_resets_service_and_counts() {
        let mut t = txn(1, TxnClass::Query, 10);
        t.remaining = SimDuration::from_secs(1);
        t.holds_locks = true;
        t.state = TxnState::Running;
        if let TxnKind::Query {
            freshness_at_dispatch,
            ..
        } = &mut t.kind
        {
            *freshness_at_dispatch = Some(0.5);
        }
        t.restart();
        assert_eq!(t.remaining, t.exec_time);
        assert!(!t.holds_locks);
        assert_eq!(t.state, TxnState::Ready);
        match t.kind {
            TxnKind::Query {
                restarts,
                freshness_at_dispatch,
                ..
            } => {
                assert_eq!(restarts, 1);
                assert_eq!(freshness_at_dispatch, None);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn kind_accessors() {
        let q = txn(1, TxnClass::Query, 10);
        assert!(q.is_query());
        assert_eq!(q.update_item(), None);
        let mut u = txn(2, TxnClass::Update, 10);
        u.class = TxnClass::Update;
        u.kind = TxnKind::Update {
            item: DataId(7),
            on_demand: true,
        };
        assert!(!u.is_query());
        assert_eq!(u.update_item(), Some(DataId(7)));
    }

    /// An arena holding ids `0..n`, all `Ready`.
    fn arena(n: u64) -> TxnArena {
        let mut a = TxnArena::default();
        for id in 0..n {
            a.push(txn(id, TxnClass::Query, 10));
        }
        a
    }

    fn finish(a: &mut TxnArena, id: u64) {
        a.at_mut(TxnId(id)).state = TxnState::Finished;
    }

    #[test]
    fn retire_pops_only_the_finished_prefix() {
        let mut a = arena(5);
        finish(&mut a, 0);
        finish(&mut a, 1);
        finish(&mut a, 3);
        a.retire();
        assert_eq!(a.base(), TxnId(2), "0 and 1 retire; 3 waits behind 2");
        assert_eq!(a.len(), 3);
        assert_eq!(a.at(TxnId(3)).state, TxnState::Finished);
        finish(&mut a, 2);
        a.retire();
        assert_eq!(a.base(), TxnId(4), "2 unpins 3");
        assert_eq!(a.at(TxnId(4)).state, TxnState::Ready);
        finish(&mut a, 4);
        a.retire();
        assert!(a.is_empty());
        assert_eq!(a.base(), TxnId(5));
    }

    #[test]
    fn a_live_front_pins_the_window() {
        let mut a = arena(4);
        for id in 1..4 {
            finish(&mut a, id);
        }
        a.at_mut(TxnId(0)).state = TxnState::Blocked;
        a.retire();
        assert_eq!(a.base(), TxnId(0));
        assert_eq!(a.len(), 4, "nothing retires past a live front");
        for id in 0..4 {
            assert!(a.get(TxnId(id)).is_some());
        }
    }

    #[test]
    fn retired_ids_read_as_none() {
        let mut a = arena(3);
        finish(&mut a, 0);
        a.retire();
        assert!(a.get(TxnId(0)).is_none(), "retired");
        assert_eq!(a.get(TxnId(1)).map(|t| t.id), Some(TxnId(1)));
        assert!(a.get(TxnId(3)).is_none(), "not yet created");
    }

    #[test]
    fn next_id_stays_dense_across_retires() {
        let mut a = arena(2);
        finish(&mut a, 0);
        finish(&mut a, 1);
        a.retire();
        assert!(a.is_empty());
        assert_eq!(a.next_id(), TxnId(2), "ids continue past retired ones");
        a.push(txn(2, TxnClass::Query, 10));
        assert_eq!(a.at(TxnId(2)).id, TxnId(2));
        assert_eq!(a.next_id(), TxnId(3));

        a.reset(TxnId(7));
        assert!(a.is_empty());
        assert_eq!(a.next_id(), TxnId(7), "a restore resumes at its base");
    }
}
