//! # unit-server — the live serving runtime
//!
//! Everything before this crate runs UNIT on a *virtual* timeline: the
//! deterministic engine replays traces tick by tick. This crate runs the
//! same policy layer against a real clock: thread-per-core workers drain
//! an in-process MPSC ingress channel, admission and update-frequency
//! modulation fire against wall-clock deadlines, and every state
//! mutation goes through the storage-agnostic
//! [`unit_core::txn::TransactionManager`] — here backed by
//! [`MemBackend`], a sharded in-memory versioned KV and the trait's only
//! in-tree implementor (the engine mutates its own freshness table
//! directly).
//!
//! The deterministic engine stays the reference for behaviour: the
//! wall-clock test suite checks that a live serve conserves queries and
//! that its outcome distribution lands within a stated tolerance of a
//! direct simulation of the same trace.
//!
//! Clock discipline: this crate is the only place in the workspace
//! allowed to read the machine clock (`cargo xtask lint` rules D2 and D5
//! enforce the boundary); everything else consumes time through the
//! [`unit_core::clock::Clock`] trait.
//!
//! There is no network frontend: the benchmark and the tests inject
//! requests directly, and [`serve`] owns its ingress channel. A frontend
//! comes back together with an ingress that `serve` accepts from its
//! caller.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod ingress;
pub mod mem;
pub mod server;

pub use clock::WallClock;
pub use ingress::Request;
pub use mem::MemBackend;
pub use server::{serve, ServeConfig, ServeReport};

/// Convenient glob-import: the serving entry points plus the core
/// transaction/clock vocabulary they are used with.
///
/// ```
/// use unit_server::prelude::*;
/// ```
pub mod prelude {
    pub use crate::clock::WallClock;
    pub use crate::ingress::Request;
    pub use crate::mem::MemBackend;
    pub use crate::server::{serve, ServeConfig, ServeReport};
    pub use unit_core::clock::{Clock, VirtualClock};
    pub use unit_core::txn::{CommitSummary, ReadVersion, TransactionManager, TxnError, TxnToken};
}
