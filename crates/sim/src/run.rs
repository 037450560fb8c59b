//! # `SimRun` — the one way to assemble a simulation run
//!
//! Mirrors the cluster layer's `ClusterRun`: a borrow-holding builder
//! that collects everything a run needs — the workload source, the
//! policy, the config, and the optional fault hook and observer — then
//! either executes it ([`SimRun::run`], [`SimRun::run_streamed`]) or
//! hands back the raw engine handle ([`SimRun::build`]) for embedders
//! that step it manually (caller-fed streaming runs, checkpoint/restore
//! harnesses).
//!
//! There is one engine underneath: every run is a *streamed* run. The
//! [`Simulator`] keeps only in-flight query specs and feeds arrivals into
//! its event heap as the clock approaches them. [`SimRun::trace`] feeds
//! from the trace's own query slice (the engine pumps it itself, so a
//! built handle can simply be stepped); [`SimRun::streaming`] takes its
//! queries from the caller — an iterator through
//! [`SimRun::run_streamed`], or [`Simulator::feed_query`] by hand. The
//! two are bit-identical for the same query sequence
//! (`crates/sim/tests/streaming.rs` pins it).
//!
//! ```
//! use unit_sim::prelude::*;
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
//! let mut rec = RingRecorder::unbounded();
//! let report = SimRun::trace(&trace, policy, SimConfig::new(SimDuration::from_secs(100)))
//!     .with_observer(&mut rec)
//!     .run();
//! assert_eq!(report.counts.success, 1);
//! ```

use crate::engine::{Feed, SimConfig, Simulator};
use crate::faults::FaultHook;
use crate::stats::SimReport;
use std::borrow::Cow;
use unit_core::policy::Policy;
use unit_core::types::{QuerySpec, Trace, UpdateSpec};
use unit_obs::Observer;

/// Where the run's workload comes from.
enum RunSource<'a> {
    /// A whole trace: the engine feeds itself from its query slice.
    Trace(&'a Trace),
    /// Updates and database size are fixed up front — they define the
    /// server, not the load — and the caller feeds the queries.
    Streaming {
        n_items: usize,
        updates: &'a [UpdateSpec],
    },
}

/// A configured-but-not-started simulation run. See the module docs.
#[must_use = "a SimRun does nothing until .run()/.run_streamed()/.build() is called"]
pub struct SimRun<'a, P: Policy> {
    source: RunSource<'a>,
    policy: P,
    cfg: SimConfig,
    faults: Option<Box<dyn FaultHook>>,
    obs: Option<&'a mut dyn Observer>,
}

impl<'a, P: Policy> SimRun<'a, P> {
    /// A run over a whole trace, fed from the trace's own query slice.
    pub fn trace(trace: &'a Trace, policy: P, cfg: SimConfig) -> Self {
        SimRun {
            source: RunSource::Trace(trace),
            policy,
            cfg,
            faults: None,
            obs: None,
        }
    }

    /// A run with no up-front query list, so a million-user trace never
    /// materializes as a `Vec`. Feed queries through
    /// [`SimRun::run_streamed`], or [`SimRun::build`] +
    /// [`Simulator::feed_query`] for manual control.
    pub fn streaming(n_items: usize, updates: &'a [UpdateSpec], policy: P, cfg: SimConfig) -> Self {
        SimRun {
            source: RunSource::Streaming { n_items, updates },
            policy,
            cfg,
            faults: None,
            obs: None,
        }
    }

    /// Install a fault-injection hook ([`FaultHook`]).
    pub fn with_faults(mut self, hook: Box<dyn FaultHook>) -> Self {
        self.faults = Some(hook);
        self
    }

    /// Install an observability sink (`unit-obs`). Observation is
    /// passive — the run's `report_digest` stays bit-identical.
    pub fn with_observer(mut self, observer: &'a mut dyn Observer) -> Self {
        self.obs = Some(observer);
        self
    }

    /// Assemble the engine handle without running it: for embedders that
    /// drive [`Simulator::step`] / [`Simulator::step_until`] (and, on a
    /// [`SimRun::streaming`] run, [`Simulator::feed_query`]) themselves and
    /// harvest [`Simulator::finish`].
    ///
    /// # Panics
    /// Panics if the trace (or update streams) are malformed (use
    /// [`Trace::validate`] to check beforehand).
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "documented constructor contract, caught before the run"
    )]
    pub fn build(self) -> Simulator<'a, P> {
        let (n_items, updates, feed) = match self.source {
            RunSource::Trace(trace) => {
                if let Err(e) = trace.validate() {
                    panic!("invalid trace: {e}");
                }
                (
                    trace.n_items,
                    trace.updates.as_slice(),
                    Feed::Trace(&trace.queries),
                )
            }
            RunSource::Streaming { n_items, updates } => {
                if let Some(e) = updates.iter().find_map(|u| u.validate(n_items).err()) {
                    panic!("invalid update streams: {e}");
                }
                (n_items, updates, Feed::External)
            }
        };
        let mut sim = Simulator::new(n_items, updates, feed, self.policy, self.cfg);
        if let Some(hook) = self.faults {
            sim.set_faults(hook);
        }
        if let Some(obs) = self.obs {
            sim.set_observer(obs);
        }
        sim
    }

    /// Execute a trace-backed run to completion and return the report.
    ///
    /// # Panics
    /// Panics if the trace is malformed, or when called on a
    /// [`SimRun::streaming`] run (which has no queries to drain — use
    /// [`SimRun::run_streamed`]).
    pub fn run(self) -> SimReport {
        assert!(
            matches!(self.source, RunSource::Trace(_)),
            "SimRun::run on a streaming run: use run_streamed(queries, chunk)"
        );
        let mut sim = self.build();
        while sim.step() {}
        sim.finish().0
    }

    /// Drive a streaming run to completion over `queries` — fed in trace
    /// order, every arrival the next event forces plus enough lookahead to
    /// keep up to `chunk` future arrivals buffered — and return the report.
    /// Bit-identical to a [`SimRun::trace`] run over the same query
    /// sequence, for *any* `chunk`. O(N_ev log(in-flight + chunk)) total.
    ///
    /// The stream yields owned specs (a generator's) or borrowed ones (a
    /// slice of a trace the caller keeps alive, as a cluster shard's is):
    /// a borrowed spec is held by reference while its query is in flight,
    /// never copied.
    ///
    /// # Panics
    /// Panics on a malformed or out-of-order feed, or when called on a
    /// [`SimRun::trace`] run (which feeds itself).
    pub fn run_streamed<I>(self, queries: I, chunk: usize) -> SimReport
    where
        I: IntoIterator,
        I::Item: Into<Cow<'a, QuerySpec>>,
    {
        // A trace-backed run already feeds its own queries: feeding more
        // would double-count.
        assert!(
            matches!(self.source, RunSource::Streaming { .. }),
            "SimRun::run_streamed on a trace-backed run: use run()"
        );
        let mut sim = self.build();
        let mut source = queries.into_iter().map(Into::into);
        let mut pending = source.next();
        loop {
            sim.pump(&mut pending, &mut source, chunk);
            if pending.is_none() {
                sim.end_stream();
            }
            if !sim.step() {
                break;
            }
        }
        debug_assert!(pending.is_none(), "stream not exhausted at drain");
        sim.finish().0
    }
}
