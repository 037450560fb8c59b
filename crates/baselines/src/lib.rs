//! # unit-baselines — comparison policies from the UNIT evaluation
//!
//! The three policies §4.1 compares UNIT against, each implemented behind
//! the same [`unit_core::policy::Policy`] interface:
//!
//! * [`ImuPolicy`] — Immediate Update: apply every version, admit every
//!   query, no control. 100% freshness, but updates starve queries under
//!   load.
//! * [`OduPolicy`] — On-Demand Update: apply nothing in the background,
//!   refresh stale items right before each query runs. 100% freshness, but
//!   the refresh cost lands in front of the deadline.
//! * [`QmfPolicy`] — Kang et al.'s feedback controller over deadline miss
//!   ratio and perceived freshness (the state of the art the paper measures
//!   against), reimplemented from its published description.
//! * [`DeferrablePolicy`] — deferrable update scheduling (Xiong et al.,
//!   RTSS'05, from the paper's related work §5): defer each pending version
//!   until just before the item's predicted next access.

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

pub mod deferrable;
pub mod imu;
pub mod odu;
pub mod qmf;

pub use deferrable::{DeferrableConfig, DeferrablePolicy};
pub use imu::ImuPolicy;
pub use odu::OduPolicy;
pub use qmf::{QmfConfig, QmfPolicy};
