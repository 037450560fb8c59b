//! Runtime transaction state.
//!
//! The engine turns trace specs into live transactions: a user query becomes
//! a [`Txn`] at admission; an applied version (or an on-demand refresh)
//! becomes an update-class [`Txn`]. Transactions move through
//! [`TxnState::Ready`] → [`TxnState::Running`] (possibly bouncing back on
//! preemption, or to [`TxnState::Blocked`] on a lock conflict) until they
//! commit or abort.

use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, TxnClass};

/// Engine-local transaction identifier (index into the transaction arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The id as an arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

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

/// The engine's transaction arena: every transaction of the run, addressed
/// by its [`TxnId`]. Ids are handed out densely by [`TxnArena::next_id`]
/// and transactions are never removed, so every id the engine holds names a
/// live slot.
#[derive(Debug, Default)]
pub(crate) struct TxnArena {
    txns: Vec<Txn>,
}

impl TxnArena {
    /// The id the next pushed transaction must carry. O(1).
    pub(crate) fn next_id(&self) -> TxnId {
        TxnId(self.txns.len() as u64)
    }

    /// Append `txn`, which must carry [`TxnArena::next_id`]. O(1) amortized.
    pub(crate) fn push(&mut self, txn: Txn) {
        debug_assert_eq!(txn.id, self.next_id(), "transaction ids are dense");
        self.txns.push(txn);
    }

    /// The transaction behind `id`. O(1).
    pub(crate) fn at(&self, id: TxnId) -> &Txn {
        // lint: allow(D6) — ids come only from next_id() before a push, and the arena never shrinks outside restore, which reloads every id it rewinds to
        &self.txns[id.index()]
    }

    /// The transaction behind `id`, mutably. O(1).
    pub(crate) fn at_mut(&mut self, id: TxnId) -> &mut Txn {
        // lint: allow(D6) — same bound as `at`: every held id names a pushed slot
        &mut self.txns[id.index()]
    }

    /// Number of transactions created so far.
    pub(crate) fn len(&self) -> usize {
        self.txns.len()
    }

    /// Every transaction, in id order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Txn> {
        self.txns.iter()
    }

    /// Forget every transaction (checkpoint restore refills the arena).
    pub(crate) fn clear(&mut self) {
        self.txns.clear();
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
}
