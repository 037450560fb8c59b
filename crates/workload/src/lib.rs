//! # unit-workload — synthetic workload generation
//!
//! The UNIT paper evaluates on traces derived from HP's proprietary
//! `cello99a` disk trace plus nine synthetic update traces (Table 1). This
//! crate synthesizes statistically matched equivalents:
//!
//! * [`cello`] — a cello99a-like query trace: Zipf-skewed item popularity,
//!   flash-crowd bursts on a Poisson base, log-normal service times, the
//!   paper's deadline recipe (uniform in `[avg_resp, 10×max_resp]`) and a
//!   90% freshness requirement.
//! * [`updates`] — Table 1's update traces: {low, med, high} volumes
//!   (6,144 / 30,000 / 61,440 updates ≈ 15% / 75% / 150% CPU) × {uniform,
//!   positively-, negatively-correlated} spatial distributions (ρ ≈ ±0.8).
//! * [`correlate`] — correlation-targeted weight synthesis with bisection to
//!   the requested Pearson coefficient.
//! * [`trace`] — bundle assembly and JSON (de)serialization.
//! * [`partition`] — item ownership + per-shard trace slicing for the
//!   cluster layer.
//! * [`builder`] — fluent, checked construction of hand-crafted scenarios.
//! * [`stats`] — descriptive workload statistics (skew, burstiness, load).
//! * [`dist`] — the deterministic sampling primitives behind all of it.
//!
//! Everything is seeded: the same configuration always yields the same
//! trace, byte for byte.
//!
//! ```
//! use unit_workload::prelude::*;
//! use unit_core::time::SimDuration;
//!
//! let qcfg = QueryTraceConfig {
//!     n_items: 64,
//!     n_queries: 200,
//!     horizon: SimDuration::from_secs(1_000),
//!     ..QueryTraceConfig::default()
//! };
//! let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
//!     .with_total(750);
//! let bundle = TraceBundle::generate(&qcfg, &ucfg);
//! assert_eq!(bundle.name, "med-unif");
//! assert!(bundle.trace.validate().is_ok());
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

pub mod builder;
pub mod cello;
pub mod correlate;
pub mod dist;
pub mod partition;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod updates;

pub use builder::TraceBuilder;
pub use cello::{generate_queries, QueryTrace, QueryTraceConfig};
pub use correlate::{apportion_counts, correlated_weights, CorrelatedWeights, UpdateDistribution};
pub use partition::{slice_trace, slice_updates, ItemPartition, PartitionError, ReplicaMap};
pub use stats::TraceStats;
pub use stream::{stream_queries, QueryStream};
pub use trace::TraceBundle;
pub use updates::{generate_updates, UpdateTrace, UpdateTraceConfig, UpdateVolume};

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::builder::TraceBuilder;
    pub use crate::cello::{generate_queries, QueryTrace, QueryTraceConfig};
    pub use crate::correlate::UpdateDistribution;
    pub use crate::stream::{stream_queries, QueryStream};
    pub use crate::trace::TraceBundle;
    pub use crate::updates::{generate_updates, UpdateTrace, UpdateTraceConfig, UpdateVolume};
}
