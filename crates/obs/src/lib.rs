//! Deterministic observability for the UNIT reproduction.
//!
//! This crate defines the typed event taxonomy ([`ObsEvent`]), the
//! [`Observer`] sink trait with its two shipped implementations
//! ([`NullObserver`], [`RingRecorder`]), and the deterministic JSONL
//! exporter ([`export`]). Events are stamped in virtual time and carry
//! only derived information, so observation never perturbs a run: with a
//! recorder installed every `report_digest` is bit-identical to the
//! observer-free run, and with no observer installed the emission sites
//! compile down to one `Option` branch each.
//!
//! The engine (`unit_sim`) and the cluster dispatcher (`unit_cluster`) are
//! the emitters; this crate deliberately depends only on `unit_core` so it
//! can sit between the core types and every layer that observes them.
//! DESIGN.md §11 documents the model; CONTRIBUTING.md explains how to add
//! an event or metric.

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

pub mod event;
pub mod export;
pub mod recorder;

pub use event::{outcome_name, FaultPhase, ObsEvent};
pub use export::{event_to_json, to_jsonl, write_jsonl};
pub use recorder::{NullObserver, Observer, RingRecorder};
