//! # Storage-agnostic transaction API
//!
//! The boundary between UNIT's *policy* layer (admission, modulation,
//! USM accounting) and whatever actually holds the data. Everything that
//! mutates *live* server state — applying an update version, reading a
//! data item on behalf of a query — goes through a [`TransactionManager`].
//! The only in-tree implementor is `unit-server`'s `MemBackend` (sharded
//! KV with per-item version counters, the production path); the trait is
//! the seam a durable or remote backend would plug into. The deterministic
//! simulation engine (`unit-sim`) does not use it: it mutates its
//! [`crate::freshness::FreshnessTable`] directly, and serves as the live
//! server's oracle by replaying the same trace, not by sharing a backend.
//!
//! The contract is deliberately narrow — `begin` / `read` / `apply` /
//! `commit` / `abort` plus a non-transactional [`TransactionManager::observe_version`]
//! hook for source version arrivals — mirroring the unit-of-work
//! interfaces of classic web-tier transaction managers. Methods take
//! `&self`: implementations own their interior mutability (sharded
//! mutexes in the live server), so worker threads share one backend.
//!
//! Freshness is part of the read result, not a side channel: every
//! [`ReadVersion`] carries the item's applied-version counter and its
//! update lag (`Udrop`), so callers can evaluate the paper's lag-based
//! freshness `1/(1+Udrop)` per read and strict-minimum-aggregate it per
//! query without reaching around the trait.

use crate::freshness::lag_freshness;
use crate::time::SimTime;
use crate::types::{DataId, TxnClass};
use core::fmt;

/// Opaque handle for an open transaction. Obtained from
/// [`TransactionManager::begin`]; spent by `commit`/`abort`.
///
/// Tokens are plain 64-bit names, never reused within one backend's
/// lifetime, so a stale token is detected ([`TxnError::UnknownTxn`])
/// rather than silently aliased onto a newer transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnToken(u64);

impl TxnToken {
    /// Construct a token from its raw id. Intended for backend
    /// implementations; policy code should treat tokens as opaque.
    #[must_use]
    pub fn from_raw(id: u64) -> Self {
        TxnToken(id)
    }

    /// The raw id (stable within one backend instance).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The result of reading one data item inside a transaction: which
/// version was observed and how far it lags the source stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadVersion {
    /// The item that was read.
    pub item: DataId,
    /// Applied-version counter at read time (number of versions the
    /// backend has installed for this item since it was created).
    pub version: u64,
    /// Update lag `Udrop`: source versions that had arrived but were not
    /// yet applied when the read happened.
    pub udrop: u64,
}

impl ReadVersion {
    /// Lag-based freshness of this read, `1/(1+Udrop)` (paper §3.2).
    #[must_use]
    pub fn freshness(&self) -> f64 {
        lag_freshness(self.udrop)
    }
}

/// What a successful [`TransactionManager::commit`] reports back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitSummary {
    /// The committed transaction.
    pub txn: TxnToken,
    /// Backend time at which the commit took effect.
    pub commit_time: SimTime,
    /// Number of item reads the transaction performed.
    pub reads: u32,
    /// Number of item writes (update applications) it performed.
    pub writes: u32,
    /// Strict-minimum lag freshness over the read set (`1.0` for a
    /// read-free transaction) — the paper's per-query freshness `qf`.
    pub min_freshness: f64,
}

/// Typed failure modes of the transaction API.
///
/// `non_exhaustive`: backends may grow failure modes (e.g. replication
/// timeouts) without breaking policy-layer matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TxnError {
    /// The item id is outside the backend's `0..n_items` range.
    UnknownItem(DataId),
    /// The token does not name an open transaction (never issued, or
    /// already committed/aborted).
    UnknownTxn(TxnToken),
    /// The backend has been shut down and accepts no further work.
    Closed,
    /// The operation lost a conflict on the given item (e.g. a
    /// write-write race in a concurrent backend) and should be retried
    /// or aborted by the caller.
    Conflict(DataId),
    /// The backend does not support this operation (e.g. writes through
    /// a read-only replica).
    Unsupported(&'static str),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::UnknownItem(d) => write!(f, "unknown data item {}", d.0),
            TxnError::UnknownTxn(t) => write!(f, "unknown or closed transaction {}", t.raw()),
            TxnError::Closed => write!(f, "transaction manager is closed"),
            TxnError::Conflict(d) => write!(f, "conflict on data item {}", d.0),
            TxnError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// The storage-agnostic transaction manager: every state mutation in a
/// UNIT server goes through one of these.
///
/// ## Contract
///
/// * `begin` hands out a fresh, never-reused [`TxnToken`].
/// * `read`/`apply` are valid only between `begin` and the matching
///   `commit`/`abort`; afterwards they return [`TxnError::UnknownTxn`].
/// * `commit` and `abort` both consume the token (idempotent failure:
///   a second close returns `UnknownTxn`, it does not panic).
/// * `observe_version` is **not** transactional: it records that a new
///   source version for `item` exists (raising `Udrop` until some
///   transaction applies it). It models the update stream's arrival
///   side, which in the paper happens regardless of what the server
///   chooses to install.
/// * Timestamps are supplied by the caller (from a `Clock`
///   implementation — see [`crate::clock`]), never read from the
///   environment, so the same backend works under virtual and wall
///   clocks and stays deterministic under the former.
pub trait TransactionManager {
    /// Open a transaction of the given class at time `now`.
    ///
    /// # Errors
    /// [`TxnError::Closed`] when the backend no longer accepts work.
    fn begin(&self, class: TxnClass, now: SimTime) -> Result<TxnToken, TxnError>;

    /// Read `item` inside `txn`, returning the observed version and its
    /// update lag.
    ///
    /// # Errors
    /// [`TxnError::UnknownItem`] / [`TxnError::UnknownTxn`] on bad ids;
    /// [`TxnError::Conflict`] when a concurrent backend loses a race.
    fn read(&self, txn: TxnToken, item: DataId, now: SimTime) -> Result<ReadVersion, TxnError>;

    /// Stage an install of `item`'s **latest** source version inside
    /// `txn` (the update-transaction write path). At commit the item's
    /// accumulated lag clears to zero and its applied-version counter
    /// bumps — the paper's semantics: applying an update always installs
    /// the newest version, superseding every skipped one.
    ///
    /// # Errors
    /// Same domain as [`TransactionManager::read`].
    fn apply(&self, txn: TxnToken, item: DataId, now: SimTime) -> Result<(), TxnError>;

    /// Commit `txn`, making its applies visible and returning the
    /// read/write/freshness summary. Consumes the token.
    ///
    /// # Errors
    /// [`TxnError::UnknownTxn`] when the token is not open.
    fn commit(&self, txn: TxnToken, now: SimTime) -> Result<CommitSummary, TxnError>;

    /// Abort `txn`, discarding its applies. Consumes the token.
    ///
    /// # Errors
    /// [`TxnError::UnknownTxn`] when the token is not open.
    fn abort(&self, txn: TxnToken) -> Result<(), TxnError>;

    /// Record the arrival of a new source version for `item` (raises its
    /// `Udrop` until applied). Non-transactional by design — see the
    /// trait docs.
    ///
    /// # Errors
    /// [`TxnError::UnknownItem`] on a bad id.
    fn observe_version(&self, item: DataId, now: SimTime) -> Result<(), TxnError>;

    /// Current update lag (`Udrop`) of `item` — arrived-but-unapplied
    /// source versions. The freshness the *next* read would see is
    /// `1/(1+udrop)`.
    ///
    /// # Errors
    /// [`TxnError::UnknownItem`] on a bad id.
    fn udrop(&self, item: DataId) -> Result<u64, TxnError>;

    /// Number of data items this backend serves (`0..n_items` are the
    /// valid [`DataId`]s).
    fn n_items(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_roundtrip_and_order() {
        let a = TxnToken::from_raw(1);
        let b = TxnToken::from_raw(2);
        assert_eq!(a.raw(), 1);
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn read_version_freshness_matches_lag_model() {
        let rv = ReadVersion {
            item: DataId(0),
            version: 7,
            udrop: 3,
        };
        assert!((rv.freshness() - 0.25).abs() < 1e-12);
        let fresh = ReadVersion {
            item: DataId(0),
            version: 7,
            udrop: 0,
        };
        assert!((fresh.freshness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn errors_render_usefully() {
        assert_eq!(
            TxnError::UnknownItem(DataId(9)).to_string(),
            "unknown data item 9"
        );
        assert_eq!(
            TxnError::UnknownTxn(TxnToken::from_raw(4)).to_string(),
            "unknown or closed transaction 4"
        );
        assert!(TxnError::Conflict(DataId(1)).to_string().contains("1"));
    }
}
