//! Two-Phase Locking with High Priority (2PL-HP) — Abbott & Garcia-Molina.
//!
//! The concurrency-control scheme of §3.1: on a lock conflict, a
//! higher-priority requester **aborts** lower-priority holders (they restart
//! from scratch); a lower-priority requester **blocks**. Combined with the
//! dual-priority discipline this gives updates an unimpeded path to the data
//! — at the cost of restarting the queries they collide with, which is
//! exactly the IMU failure mode the paper's evaluation exposes.
//!
//! Lock modes: queries take **read** locks on their whole read set
//! (all-or-nothing, acquired at dispatch — the trace declares read sets up
//! front, so conservative acquisition costs nothing and rules out
//! deadlocks); updates take a single **write** lock.
//!
//! Deadlock freedom: queries only ever wait for updates; updates only ever
//! wait for strictly-higher-priority updates on the *single* item they lock.
//! Any wait chain is therefore a path of strictly increasing priority
//! through single-lock holders — it cannot cycle.

use crate::txn::TxnId;
use std::collections::BTreeMap;
use unit_core::types::{DataId, ItemVec};

/// Result of a read-set acquisition attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadAcquire {
    /// All read locks granted.
    Granted,
    /// A write lock held by a (necessarily higher-priority) update blocks
    /// the request; nothing was acquired.
    BlockedOn(DataId),
}

/// Result of a write-lock acquisition attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteAcquire {
    /// Lock granted; the listed lower-priority holders were evicted and must
    /// be restarted by the engine.
    Granted {
        /// Holders aborted under the HP rule (in eviction order).
        aborted: Vec<TxnId>,
    },
    /// A higher-priority holder keeps the lock; the requester must wait.
    BlockedOn(DataId),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum LockState {
    Free,
    Read(Vec<TxnId>),
    Write(TxnId),
}

/// The lock table: one slot per data item, plus a per-transaction index of
/// held locks so release is O(held · log held).
///
/// The index is a `BTreeMap` (not a `HashMap`): its iteration order feeds
/// the invariant checker's error messages, and `clippy.toml`'s
/// `disallowed-types` bans hash-ordered containers in the workspace outright.
#[derive(Debug, Clone)]
pub struct LockManager {
    slots: ItemVec<LockState>,
    held: BTreeMap<TxnId, Vec<DataId>>,
    hp_aborts: u64,
}

impl LockManager {
    /// A lock table over `n_items` items, all free.
    pub fn new(n_items: usize) -> Self {
        LockManager {
            slots: ItemVec::new(n_items, LockState::Free),
            held: BTreeMap::new(),
            hp_aborts: 0,
        }
    }

    /// Total holders evicted by the HP rule so far.
    pub fn hp_aborts(&self) -> u64 {
        self.hp_aborts
    }

    /// Items currently locked (diagnostics).
    pub fn locked_items(&self) -> usize {
        self.slots
            .values()
            .filter(|s| !matches!(s, LockState::Free))
            .count()
    }

    /// Attempt to read-lock every item in `items` for `txn`, all-or-nothing.
    ///
    /// Queries are always the lowest-priority lock users, so a conflicting
    /// write lock means "block" — never "abort the holder".
    pub fn acquire_read(&mut self, txn: TxnId, items: &[DataId]) -> ReadAcquire {
        debug_assert!(
            !self.held.contains_key(&txn),
            "transaction {txn:?} already holds locks"
        );
        for &d in items {
            if let LockState::Write(_) = self.slots.at(d) {
                return ReadAcquire::BlockedOn(d);
            }
        }
        for &d in items {
            let slot = self.slots.at_mut(d);
            match slot {
                LockState::Free => *slot = LockState::Read(vec![txn]),
                LockState::Read(readers) => readers.push(txn),
                LockState::Write(_) => unreachable!("checked above"),
            }
        }
        self.held.insert(txn, items.to_vec());
        ReadAcquire::Granted
    }

    /// Attempt to write-lock `item` for `txn`.
    ///
    /// `requester_outranks(holder)` must implement the HP comparison (true
    /// when the holder is strictly lower priority and may be evicted).
    /// Evicted holders have all their locks released here; the engine must
    /// restart them.
    pub fn acquire_write<F>(
        &mut self,
        txn: TxnId,
        item: DataId,
        requester_outranks: F,
    ) -> WriteAcquire
    where
        F: Fn(TxnId) -> bool,
    {
        debug_assert!(
            !self.held.contains_key(&txn),
            "transaction {txn:?} already holds locks"
        );
        let slot = self.slots.at(item);
        let victims: Vec<TxnId> = match slot {
            LockState::Free => Vec::new(),
            LockState::Read(readers) => {
                // Readers are queries; if any outranks us (cannot happen with
                // the dual-priority discipline, but stay general) we block.
                if readers.iter().any(|&r| !requester_outranks(r)) {
                    return WriteAcquire::BlockedOn(item);
                }
                readers.clone()
            }
            LockState::Write(holder) => {
                if !requester_outranks(*holder) {
                    return WriteAcquire::BlockedOn(item);
                }
                vec![*holder]
            }
        };
        for &v in &victims {
            self.release_all(v);
            self.hp_aborts += 1;
        }
        *self.slots.at_mut(item) = LockState::Write(txn);
        self.held.insert(txn, vec![item]);
        WriteAcquire::Granted { aborted: victims }
    }

    /// Release every lock `txn` holds, returning the items freed. Idempotent
    /// for transactions holding nothing.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<DataId> {
        let Some(items) = self.held.remove(&txn) else {
            return Vec::new();
        };
        for &d in &items {
            let slot = self.slots.at_mut(d);
            match slot {
                LockState::Read(readers) => {
                    readers.retain(|&r| r != txn);
                    if readers.is_empty() {
                        *slot = LockState::Free;
                    }
                }
                LockState::Write(holder) => {
                    debug_assert_eq!(*holder, txn, "write lock held by someone else");
                    *slot = LockState::Free;
                }
                LockState::Free => debug_assert!(false, "releasing a free slot"),
            }
        }
        items
    }

    /// True when `txn` holds at least one lock.
    pub fn holds_any(&self, txn: TxnId) -> bool {
        self.held.contains_key(&txn)
    }

    /// Check the internal consistency of the table (test support): every
    /// held entry matches the slot states and vice versa.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (txn, items) in &self.held {
            for d in items {
                match self.slots.at(*d) {
                    LockState::Free => return Err(format!("{txn:?} claims {d} but slot is free")),
                    LockState::Read(readers) => {
                        if !readers.contains(txn) {
                            return Err(format!("{txn:?} claims read on {d} but not a reader"));
                        }
                    }
                    LockState::Write(holder) => {
                        if holder != txn {
                            return Err(format!("{txn:?} claims write on {d} held by {holder:?}"));
                        }
                    }
                }
            }
        }
        for (d, slot) in self.slots.iter() {
            let i = d.0;
            match slot {
                LockState::Free => {}
                LockState::Read(readers) => {
                    for r in readers {
                        let ok = self.held.get(r).is_some_and(|items| items.contains(&d));
                        if !ok {
                            return Err(format!("slot {i} lists unregistered reader {r:?}"));
                        }
                    }
                }
                LockState::Write(holder) => {
                    let ok = self
                        .held
                        .get(holder)
                        .is_some_and(|items| items.contains(&d));
                    if !ok {
                        return Err(format!("slot {i} lists unregistered writer {holder:?}"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q1: TxnId = TxnId(1);
    const Q2: TxnId = TxnId(2);
    const U1: TxnId = TxnId(10);
    const U2: TxnId = TxnId(11);

    #[test]
    fn shared_read_locks_coexist() {
        let mut lm = LockManager::new(4);
        assert_eq!(
            lm.acquire_read(Q1, &[DataId(0), DataId(1)]),
            ReadAcquire::Granted
        );
        assert_eq!(
            lm.acquire_read(Q2, &[DataId(1), DataId(2)]),
            ReadAcquire::Granted
        );
        assert!(lm.holds_any(Q1) && lm.holds_any(Q2));
        lm.check_invariants().unwrap();
        assert_eq!(lm.locked_items(), 3);
    }

    #[test]
    fn read_blocks_on_write_without_partial_acquisition() {
        let mut lm = LockManager::new(4);
        assert!(matches!(
            lm.acquire_write(U1, DataId(1), |_| true),
            WriteAcquire::Granted { .. }
        ));
        // Query wants items 0 and 1; 1 is write-locked -> block, acquire none.
        assert_eq!(
            lm.acquire_read(Q1, &[DataId(0), DataId(1)]),
            ReadAcquire::BlockedOn(DataId(1))
        );
        assert!(!lm.holds_any(Q1));
        assert_eq!(lm.locked_items(), 1);
        lm.check_invariants().unwrap();
    }

    #[test]
    fn write_evicts_lower_priority_readers() {
        let mut lm = LockManager::new(4);
        lm.acquire_read(Q1, &[DataId(0), DataId(1)]);
        lm.acquire_read(Q2, &[DataId(1)]);
        // Update outranks both queries: evict them, take the lock.
        match lm.acquire_write(U1, DataId(1), |_| true) {
            WriteAcquire::Granted { aborted } => {
                assert_eq!(aborted.len(), 2);
                assert!(aborted.contains(&Q1) && aborted.contains(&Q2));
            }
            other => panic!("expected grant, got {other:?}"),
        }
        // Victims lost ALL their locks, including on other items.
        assert!(!lm.holds_any(Q1));
        assert!(!lm.holds_any(Q2));
        assert_eq!(lm.hp_aborts(), 2);
        lm.check_invariants().unwrap();
    }

    #[test]
    fn write_blocks_on_higher_priority_writer() {
        let mut lm = LockManager::new(2);
        assert!(matches!(
            lm.acquire_write(U1, DataId(0), |_| true),
            WriteAcquire::Granted { .. }
        ));
        // U2 does NOT outrank U1 -> block.
        assert_eq!(
            lm.acquire_write(U2, DataId(0), |_| false),
            WriteAcquire::BlockedOn(DataId(0))
        );
        assert!(!lm.holds_any(U2));
    }

    #[test]
    fn write_evicts_lower_priority_writer() {
        let mut lm = LockManager::new(2);
        lm.acquire_write(U2, DataId(0), |_| true);
        match lm.acquire_write(U1, DataId(0), |holder| holder == U2) {
            WriteAcquire::Granted { aborted } => assert_eq!(aborted, vec![U2]),
            other => panic!("expected grant, got {other:?}"),
        }
        assert!(lm.holds_any(U1));
        assert!(!lm.holds_any(U2));
        lm.check_invariants().unwrap();
    }

    #[test]
    fn release_frees_slots_and_is_idempotent() {
        let mut lm = LockManager::new(3);
        lm.acquire_read(Q1, &[DataId(0), DataId(2)]);
        let freed = lm.release_all(Q1);
        assert_eq!(freed, vec![DataId(0), DataId(2)]);
        assert_eq!(lm.locked_items(), 0);
        assert!(lm.release_all(Q1).is_empty());
        lm.check_invariants().unwrap();
        // Slot is genuinely reusable.
        assert!(matches!(
            lm.acquire_write(U1, DataId(0), |_| true),
            WriteAcquire::Granted { .. }
        ));
    }

    #[test]
    fn partial_reader_release_keeps_other_readers() {
        let mut lm = LockManager::new(2);
        lm.acquire_read(Q1, &[DataId(0)]);
        lm.acquire_read(Q2, &[DataId(0)]);
        lm.release_all(Q1);
        assert!(lm.holds_any(Q2));
        assert_eq!(lm.locked_items(), 1);
        lm.check_invariants().unwrap();
    }
}
