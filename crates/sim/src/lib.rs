//! # unit-sim — the web-database server substrate
//!
//! A deterministic discrete-event simulation of the single-CPU web-database
//! server the UNIT paper evaluates on (§3.1, §4.1):
//!
//! * **dual-priority ready queue** — update transactions outrank user
//!   queries; EDF within each class ([`txn`]),
//! * **preemptive CPU** — higher-priority arrivals take over; preempted
//!   transactions keep their progress and locks ([`engine`]),
//! * **2PL-HP** concurrency control — higher-priority lock requesters evict
//!   lower-priority holders, which restart ([`locks`]),
//! * **firm deadlines** — queries are aborted at expiry (DMF),
//! * **freshness-tracked database** — version arrivals raise `Udrop`,
//!   applied updates clear it (re-exported from `unit_core::freshness`).
//!
//! The [`engine`] is one module per decision, each pinned by a suite:
//! `mod.rs`, the event loop (`golden_snapshot`, `determinism`); `feed`,
//! queries entering the heap (`streaming.rs`); `lifecycle`, spawn, commit
//! and firm-deadline abort, and `dispatch`, CPU assign/vacate, preemption
//! and 2PL-HP (both `engine_behaviour.rs`); `queue`, the admitted index and
//! policy view (the `work-index` recount); `tick`, the control tick and its
//! idle fast paths (`golden_snapshot` under `validate`); `faults`,
//! crash-window deferral and transitions (`fault_behaviour.rs`);
//! `checkpoint`, by-value snapshot, restore and lose-state recovery
//! (`recovery_differential.rs`).
//!
//! All decisions are delegated to a [`unit_core::policy::Policy`]; the
//! engine only executes. Runs are bit-reproducible: the event queue breaks
//! time ties by insertion order and the engine uses no randomness.
//!
//! ```
//! use unit_core::prelude::*;
//! use unit_sim::{run_simulation, SimConfig};
//!
//! let trace = Trace {
//!     n_items: 2,
//!     queries: vec![QuerySpec {
//!         id: QueryId(0),
//!         arrival: SimTime::from_secs(1),
//!         items: vec![DataId(0)],
//!         exec_time: SimDuration::from_secs(1),
//!         relative_deadline: SimDuration::from_secs(10),
//!         freshness_req: 0.9,
//!         pref_class: 0,
//!     }],
//!     updates: vec![],
//! };
//! let policy = UnitPolicy::new(UnitConfig::default());
//! let report = run_simulation(&trace, policy, SimConfig::new(SimDuration::from_secs(100)));
//! assert_eq!(report.counts.success, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::float_cmp
    )
)]

pub mod engine;
pub mod events;
pub mod faults;
pub mod locks;
pub mod run;
pub mod stats;
pub mod txn;
#[cfg(feature = "validate")]
pub mod validate;
pub mod worktreap;

pub use engine::{
    run_simulation, SchedulingDiscipline, SimConfig, Simulator, Snapshot, TRACE_LOOKAHEAD,
};
pub use faults::{BackgroundLoad, FaultHook, HealthState, NoFaults, UpdateFault};
pub use run::SimRun;
pub use stats::{
    report_digest, FaultCounts, OutcomeRecord, SignalCounts, SimReport, TimelineSample,
};

/// Convenient glob-import of the common entry types: the run builder and
/// engine handle ([`SimRun`], [`Simulator`], [`SimConfig`],
/// [`run_simulation`]), the report
/// ([`SimReport`], [`report_digest`]), fault injection, the observability
/// sinks from `unit-obs`, and the whole `unit_core` prelude.
///
/// ```
/// use unit_sim::prelude::*;
/// ```
pub mod prelude {
    pub use crate::engine::{run_simulation, SchedulingDiscipline, SimConfig, Simulator};
    pub use crate::faults::{BackgroundLoad, FaultHook, HealthState, NoFaults, UpdateFault};
    pub use crate::run::SimRun;
    pub use crate::stats::{report_digest, OutcomeRecord, SimReport, TimelineSample};
    pub use unit_core::prelude::*;
    pub use unit_obs::{NullObserver, ObsEvent, Observer, RingRecorder};
}
