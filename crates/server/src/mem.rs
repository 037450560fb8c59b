//! # `MemBackend` — the live server's sharded in-memory store
//!
//! The production-path [`TransactionManager`]: data items striped over
//! lock-sharded slabs (per-item applied-version counter + pending-lag
//! counter, the live analogue of the engine's `FreshnessTable` row), and
//! open transactions striped over a second set of lock shards keyed by
//! token. All methods take `&self` and the backend is `Send + Sync`, so
//! one instance serves every worker thread.
//!
//! Concurrency model: an operation holds at most one lock at a time
//! (item shard *or* txn stripe, never both), so there is no lock-order
//! cycle to deadlock on. Applies are last-writer-wins — installing an
//! update always installs the *latest* source version (the paper's
//! semantics), so two racing applies both clear the lag and the version
//! counter advances twice; no [`TxnError::Conflict`] arises from the
//! shipped workloads. The variant stays in the error enum for backends
//! with real write-write races.
//!
//! Determinism: under a single driving thread the backend is a pure
//! function of the call sequence (token allocation is a fetch-add from
//! zero).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use unit_core::time::SimTime;
use unit_core::txn::{CommitSummary, ReadVersion, TransactionManager, TxnError, TxnToken};
use unit_core::types::{DataId, TxnClass};

/// One item's live state: how many source versions have been installed,
/// and how many arrived-but-uninstalled versions are pending (`Udrop`).
#[derive(Debug, Default, Clone, Copy)]
struct ItemState {
    version: u64,
    pending: u64,
}

/// One open transaction's scratch state.
#[derive(Debug)]
struct OpenTxn {
    token: TxnToken,
    reads: u32,
    staged_applies: Vec<DataId>,
    min_freshness: f64,
}

/// Lock a mutex, tolerating poisoning: a worker that panicked while
/// holding the lock leaves per-item counters in a consistent state (every
/// critical section is a few integer writes), so the data is still usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Sharded in-memory KV with per-item versions behind the
/// storage-agnostic transaction trait. See the module docs.
pub struct MemBackend {
    /// Item shards; item `i` lives in shard `i % n_shards` at local
    /// index `i / n_shards`.
    shards: Vec<Mutex<Vec<ItemState>>>,
    /// Open-transaction stripes keyed by `token % stripes`.
    txns: Vec<Mutex<Vec<OpenTxn>>>,
    next_token: AtomicU64,
    closed: AtomicBool,
    n_items: usize,
}

impl MemBackend {
    /// Default stripe count for the open-transaction table.
    const TXN_STRIPES: usize = 16;

    /// A backend over `n_items` fully-fresh items, sharded `n_shards`
    /// ways (clamped to at least 1).
    #[must_use]
    pub fn new(n_items: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        let mut shards = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            // Shard s holds items s, s+n_shards, s+2*n_shards, ...
            let len = n_items.saturating_sub(s).div_ceil(n_shards);
            shards.push(Mutex::new(vec![ItemState::default(); len]));
        }
        MemBackend {
            shards,
            txns: (0..Self::TXN_STRIPES)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            next_token: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            n_items,
        }
    }

    /// Stop accepting new transactions: every later [`MemBackend::begin`]
    /// returns [`TxnError::Closed`]. Already-open transactions may still
    /// commit or abort (drain-then-stop shutdown).
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    fn check_item(&self, item: DataId) -> Result<(), TxnError> {
        if item.index() >= self.n_items {
            return Err(TxnError::UnknownItem(item));
        }
        Ok(())
    }

    /// Run `f` on `item`'s state slot. The item must be range-checked.
    fn with_item<R>(&self, item: DataId, f: impl FnOnce(&mut ItemState) -> R) -> R {
        let shard_idx = item.index() % self.shards.len();
        let local = item.index() / self.shards.len();
        // lint: allow(D6) — shard_idx is a modulo of the shard count
        let mut shard = lock(&self.shards[shard_idx]);
        // lint: allow(D6) — callers range-check the item, and the stripe layout puts every id < n_items inside its shard's vector
        f(&mut shard[local])
    }

    fn stripe(&self, txn: TxnToken) -> &Mutex<Vec<OpenTxn>> {
        // lint: allow(D6) — the index is a modulo of the stripe count
        &self.txns[(txn.raw() as usize) % self.txns.len()]
    }

    /// Run `f` on the open transaction named by `txn`.
    fn with_txn<R>(&self, txn: TxnToken, f: impl FnOnce(&mut OpenTxn) -> R) -> Result<R, TxnError> {
        let mut stripe = lock(self.stripe(txn));
        match stripe.iter_mut().find(|t| t.token == txn) {
            Some(open) => Ok(f(open)),
            None => Err(TxnError::UnknownTxn(txn)),
        }
    }

    /// Remove and return the open transaction named by `txn`.
    fn take_txn(&self, txn: TxnToken) -> Result<OpenTxn, TxnError> {
        let mut stripe = lock(self.stripe(txn));
        match stripe.iter().position(|t| t.token == txn) {
            Some(idx) => Ok(stripe.swap_remove(idx)),
            None => Err(TxnError::UnknownTxn(txn)),
        }
    }
}

impl TransactionManager for MemBackend {
    fn begin(&self, _class: TxnClass, _now: SimTime) -> Result<TxnToken, TxnError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(TxnError::Closed);
        }
        let token = TxnToken::from_raw(self.next_token.fetch_add(1, Ordering::SeqCst));
        lock(self.stripe(token)).push(OpenTxn {
            token,
            reads: 0,
            staged_applies: Vec::new(),
            min_freshness: 1.0,
        });
        Ok(token)
    }

    fn read(&self, txn: TxnToken, item: DataId, _now: SimTime) -> Result<ReadVersion, TxnError> {
        self.check_item(item)?;
        // Probe the txn first so a bad token is reported even when the
        // read itself would have succeeded.
        self.with_txn(txn, |_| ())?;
        let (version, udrop) = self.with_item(item, |s| (s.version, s.pending));
        let rv = ReadVersion {
            item,
            version,
            udrop,
        };
        let freshness = rv.freshness();
        self.with_txn(txn, |open| {
            open.reads += 1;
            open.min_freshness = open.min_freshness.min(freshness);
        })?;
        Ok(rv)
    }

    fn apply(&self, txn: TxnToken, item: DataId, _now: SimTime) -> Result<(), TxnError> {
        self.check_item(item)?;
        self.with_txn(txn, |open| open.staged_applies.push(item))
    }

    fn commit(&self, txn: TxnToken, now: SimTime) -> Result<CommitSummary, TxnError> {
        let open = self.take_txn(txn)?;
        for item in &open.staged_applies {
            // Installing the latest version clears the item's whole
            // accumulated lag — the paper's (and the engine's) semantics.
            self.with_item(*item, |s| {
                s.pending = 0;
                s.version += 1;
            });
        }
        Ok(CommitSummary {
            txn: open.token,
            commit_time: now,
            reads: open.reads,
            writes: open.staged_applies.len() as u32,
            min_freshness: open.min_freshness,
        })
    }

    fn abort(&self, txn: TxnToken) -> Result<(), TxnError> {
        self.take_txn(txn).map(|_| ())
    }

    fn observe_version(&self, item: DataId, _now: SimTime) -> Result<(), TxnError> {
        self.check_item(item)?;
        self.with_item(item, |s| s.pending += 1);
        Ok(())
    }

    fn udrop(&self, item: DataId) -> Result<u64, TxnError> {
        self.check_item(item)?;
        Ok(self.with_item(item, |s| s.pending))
    }

    fn n_items(&self) -> usize {
        self.n_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const T0: SimTime = SimTime(0);

    #[test]
    fn matches_sim_backend_semantics() {
        let be = MemBackend::new(5, 2);
        let item = DataId(3);
        be.observe_version(item, T0).unwrap();
        be.observe_version(item, T0).unwrap();
        assert_eq!(be.udrop(item).unwrap(), 2);

        let q = be.begin(TxnClass::Query, T0).unwrap();
        let rv = be.read(q, item, T0).unwrap();
        assert_eq!((rv.version, rv.udrop), (0, 2));
        let s = be.commit(q, T0).unwrap();
        assert!((s.min_freshness - 1.0 / 3.0).abs() < 1e-12);

        let u = be.begin(TxnClass::Update, T0).unwrap();
        be.apply(u, item, T0).unwrap();
        assert_eq!(be.commit(u, T0).unwrap().writes, 1);
        assert_eq!(be.udrop(item).unwrap(), 0, "install clears the whole lag");
        let q2 = be.begin(TxnClass::Query, T0).unwrap();
        assert_eq!(be.read(q2, item, T0).unwrap().version, 1);
        be.abort(q2).unwrap();
    }

    #[test]
    fn typed_errors_and_close() {
        let be = MemBackend::new(2, 1);
        let q = be.begin(TxnClass::Query, T0).unwrap();
        assert_eq!(
            be.read(q, DataId(9), T0).unwrap_err(),
            TxnError::UnknownItem(DataId(9))
        );
        let stale = TxnToken::from_raw(777);
        assert_eq!(be.abort(stale).unwrap_err(), TxnError::UnknownTxn(stale));
        be.close();
        assert_eq!(be.begin(TxnClass::Query, T0).unwrap_err(), TxnError::Closed);
        // Open transactions still drain after close.
        be.commit(q, T0).unwrap();
    }

    #[test]
    fn concurrent_applies_conserve_version_count() {
        let be = Arc::new(MemBackend::new(8, 4));
        let threads = 4;
        let per_thread = 100;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let be = Arc::clone(&be);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let item = DataId(i % 8);
                    be.observe_version(item, T0).unwrap();
                    let u = be.begin(TxnClass::Update, T0).unwrap();
                    be.apply(u, item, T0).unwrap();
                    be.commit(u, T0).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every commit bumped exactly one version; all lag was cleared by
        // the final installs.
        let total: u64 = (0..8)
            .map(|i| {
                let q = be.begin(TxnClass::Query, T0).unwrap();
                let v = be.read(q, DataId(i), T0).unwrap().version;
                be.abort(q).unwrap();
                v
            })
            .sum();
        assert_eq!(total, threads as u64 * per_thread as u64);
    }
}
