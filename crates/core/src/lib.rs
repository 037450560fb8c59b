//! # unit-core — User-centric Transaction Management (UNIT)
//!
//! A from-scratch Rust implementation of the framework in *Qu, Labrinidis,
//! Mossé: "UNIT: User-centric Transaction Management in Web-Database
//! Systems" (ICDE 2006)*.
//!
//! Web-database servers juggle two transaction classes on one CPU: user
//! **queries** (foreground, deadline- and freshness-sensitive) and periodic
//! **updates** (background, keeping data fresh). Under overload something
//! must give; UNIT decides *what* gives based on a unified **User
//! Satisfaction Metric (USM)** that prices rejections, deadline misses, and
//! stale reads according to user preferences.
//!
//! This crate contains the paper's contribution:
//!
//! * [`usm`] — the metric: per-query gains/penalties, windowed accounting.
//! * [`freshness`] — lag-based freshness (`1/(1+Udrop)`, strict-minimum
//!   aggregation).
//! * [`admission`] — the two-stage query admission control.
//! * [`tickets`] + [`lottery`] — victim selection for update degradation.
//! * [`modulation`] — update-frequency degrade/upgrade.
//! * [`controller`] — the Load Balancing Controller and its Adaptive
//!   Allocation Algorithm.
//! * [`unit_policy`] — all of the above assembled behind the [`Policy`]
//!   trait.
//!
//! The execution substrate (event-driven server with dual-priority EDF
//! scheduling and 2PL-HP locking) lives in the companion `unit-sim` crate;
//! workload synthesis lives in `unit-workload`; the paper's comparison
//! baselines (IMU, ODU, QMF) live in `unit-baselines`.
//!
//! ## Quick start
//!
//! ```
//! use unit_core::prelude::*;
//!
//! // Preferences: deadline misses hurt the most (Table 2, high C_fm).
//! let weights = UsmWeights::low_high_cfm();
//! let mut policy = UnitPolicy::new(UnitConfig::with_weights(weights));
//!
//! // The server (unit-sim) drives the policy through the `Policy` trait:
//! policy.init(4, &[]);
//! let q = QuerySpec {
//!     id: QueryId(1),
//!     arrival: SimTime::ZERO,
//!     items: vec![DataId(0)],
//!     exec_time: SimDuration::from_secs(1),
//!     relative_deadline: SimDuration::from_secs(10),
//!     freshness_req: 0.9,
//!     pref_class: 0,
//! };
//! let snapshot = SystemSnapshot::empty(SimTime::ZERO);
//! assert!(policy.on_query_arrival(&q, &snapshot.view()).is_admit());
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

pub mod admission;
pub mod checkpoint;
pub mod clock;
pub mod config;
pub mod controller;
pub mod fenwick;
pub mod freshness;
pub mod lottery;
pub mod modulation;
pub mod observe;
pub mod policy;
pub mod seed;
pub mod snapshot;
pub mod tickets;
pub mod time;
pub mod txn;
pub mod types;
pub mod unit_policy;
pub mod usm;
pub mod validate;

pub use admission::{AdmissionControl, AdmissionVerdict};
pub use checkpoint::{CheckpointError, Dec, Enc};
pub use clock::{Clock, VirtualClock};
pub use config::UnitConfig;
pub use controller::Lbc;
pub use fenwick::{Fenwick, FenwickValue};
pub use freshness::FreshnessTable;
pub use lottery::WeightedSampler;
pub use modulation::{UpdateModulation, UpgradeRule};
pub use observe::{AdmissionObs, ControllerObs, ModulationObs};
pub use policy::{AdmissionDecision, ControlSignal, Policy, UpdateAction};
pub use seed::split_seed;
pub use snapshot::{QueueEntryView, QueueSource, SnapshotView, SystemSnapshot};
pub use tickets::TicketTable;
pub use time::{SimDuration, SimTime};
pub use txn::{CommitSummary, ReadVersion, TransactionManager, TxnError, TxnToken};
pub use types::{
    DataId, ItemVec, Outcome, QueryId, QuerySpec, SpecError, Trace, TxnClass, UpdateSpec,
    UpdateStreamId,
};
pub use unit_policy::{UnitPolicy, UnitPolicyStats};
pub use usm::{OutcomeCounts, UsmWeights, UsmWindow};

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::admission::{AdmissionControl, AdmissionVerdict};
    pub use crate::clock::{Clock, VirtualClock};
    pub use crate::config::UnitConfig;
    pub use crate::controller::Lbc;
    pub use crate::freshness::FreshnessTable;
    pub use crate::modulation::{UpdateModulation, UpgradeRule};
    pub use crate::observe::{AdmissionObs, ControllerObs, ModulationObs};
    pub use crate::policy::{AdmissionDecision, ControlSignal, Policy, UpdateAction};
    pub use crate::snapshot::{QueueEntryView, QueueSource, SnapshotView, SystemSnapshot};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::txn::{CommitSummary, ReadVersion, TransactionManager, TxnError, TxnToken};
    pub use crate::types::{
        DataId, Outcome, QueryId, QuerySpec, Trace, TxnClass, UpdateSpec, UpdateStreamId,
    };
    pub use crate::unit_policy::UnitPolicy;
    pub use crate::usm::{OutcomeCounts, UsmWeights, UsmWindow};
}
