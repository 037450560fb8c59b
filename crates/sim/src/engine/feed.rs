//! The feed: when a query enters the event heap, and where its spec lives
//! while it is in flight. Pinned by `tests/streaming.rs` (trace-fed ≡
//! iterator-fed across lookaheads, faults and lose-state crashes).

use super::Simulator;
use crate::events::Event;
use std::borrow::Cow;
use unit_core::policy::Policy;
use unit_core::time::SimTime;
use unit_core::types::QuerySpec;

/// Where the run's queries come from (see [`crate::run::SimRun`]).
///
/// The two feeds differ in whether the engine can rewind them: a trace is
/// random-access, so its cursor is the snapshotted `submitted` count and a
/// restore rewinds it; a caller's feed cannot be rewound, so the engine
/// logs what it fed since the last checkpoint and re-feeds that log.
#[derive(Clone, Copy)]
pub(crate) enum Feed<'a> {
    /// The trace's own query slice, validated up front. The engine pumps
    /// it itself; the cursor is `Simulator::submitted`, so restoring a
    /// snapshot rewinds the feed for free.
    Trace(&'a [QuerySpec]),
    /// The caller feeds: [`Simulator::feed_query`] by hand, or an iterator
    /// through `SimRun::run_streamed`.
    External,
}

/// Lookahead of the trace-backed feed: arrivals kept buffered in the event
/// heap beyond the ones the next event forces. Unobservable (heap order is
/// a function of `(time, feed ordinal)` only); it just amortizes the pump.
/// Cluster shards stream their slice of a routed trace with the same
/// lookahead through `SimRun::run_streamed`.
pub const TRACE_LOOKAHEAD: usize = 64;

/// The engine's query specs: a slab holding only *in-flight* specs —
/// interned when the query is fed, released the moment its outcome is
/// recorded — so a run over tens of millions of queries keeps
/// O(in-flight + lookahead) specs resident instead of O(N_q). Trace-backed
/// runs intern borrows of the trace's own specs, iterator-fed runs own
/// theirs.
#[derive(Clone, Default)]
pub(super) struct SpecSlab<'a> {
    /// In-flight (and recycled) spec slots; `spec_idx` is a slot index.
    pub(super) slots: Vec<Cow<'a, QuerySpec>>,
    /// Slots whose outcome has been recorded, free for reuse.
    pub(super) free: Vec<usize>,
}

impl<'a> SpecSlab<'a> {
    /// The spec in slot `idx`. O(1).
    #[expect(
        clippy::indexing_slicing,
        reason = "spec_idx values are slots handed out by intern(), live until release()"
    )]
    pub(super) fn get(&self, idx: usize) -> &QuerySpec {
        &self.slots[idx]
    }

    /// Intern a fed spec, recycling a freed slot when one exists. Returns
    /// the slot index. O(1) amortized.
    #[expect(
        clippy::indexing_slicing,
        reason = "free holds only slots release() was handed, all < slots.len()"
    )]
    fn intern(&mut self, spec: Cow<'a, QuerySpec>) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = spec;
                slot
            }
            None => {
                self.slots.push(spec);
                self.slots.len() - 1
            }
        }
    }

    /// Release a slot once its outcome is recorded. O(1).
    pub(super) fn release(&mut self, idx: usize) {
        self.free.push(idx);
    }
}

impl<'a, P: Policy> Simulator<'a, P> {
    /// Pump a [`Feed::Trace`] run from its own slice, resuming at the
    /// `submitted` cursor. A no-op on a caller-fed run. O(fed · log N_ev).
    pub(super) fn pump_trace(&mut self) {
        if let Feed::Trace(qs) = self.feed {
            let mut rest = qs
                .get(self.state.submitted as usize..)
                .unwrap_or_default()
                .iter()
                .map(Cow::Borrowed);
            let mut pending = rest.next();
            self.pump(&mut pending, &mut rest, TRACE_LOOKAHEAD);
        }
    }

    /// Arrival instant of the next query a [`Feed::Trace`] run has not fed
    /// yet; `None` once the trace is exhausted (and for caller-fed runs,
    /// whose future the engine cannot see). O(1).
    pub(super) fn next_trace_arrival(&self) -> Option<SimTime> {
        match self.feed {
            Feed::Trace(qs) => qs.get(self.state.submitted as usize).map(|q| q.arrival),
            Feed::External => None,
        }
    }

    /// A lower bound on every arrival not yet fed, for the idle-tick skip:
    /// the trace's next one is known, a caller's lands at or after
    /// `last_fed_arrival` until it signals end-of-stream. `None` when no
    /// further arrival can come. O(1).
    pub(super) fn unfed_floor(&self) -> Option<SimTime> {
        match self.feed {
            Feed::Trace(_) => self.next_trace_arrival(),
            Feed::External => (!self.state.stream_exhausted).then_some(self.state.last_fed_arrival),
        }
    }

    /// The one pump: feed, from `source`, every arrival the next queued
    /// event forces — an arrival at or before that event's instant must be
    /// in the heap before the event pops — plus lookahead while fewer than
    /// `lookahead` arrivals are buffered. `pending` is the source's peeked
    /// head; on return it holds the first arrival not fed, `None` at end of
    /// stream. [`Simulator::step`] runs it over the trace's own slice;
    /// `SimRun::run_streamed` runs it over the caller's iterator.
    ///
    /// Because the cap is on arrivals *in flight* (not a per-step feed
    /// count), the event heap and the spec slab both stay
    /// O(in-flight + lookahead) instead of O(N_q) — a million-query trace
    /// never sits in the heap, and every heap operation works on a small,
    /// cache-resident heap. The lookahead is unobservable: heap order
    /// depends only on `(time, feed ordinal)`, never on push timing.
    pub(crate) fn pump(
        &mut self,
        pending: &mut Option<Cow<'a, QuerySpec>>,
        source: &mut impl Iterator<Item = Cow<'a, QuerySpec>>,
        lookahead: usize,
    ) {
        while let Some(spec) = pending.take() {
            let due = match self.next_queued_time() {
                None => true,
                Some(t) => spec.arrival <= t,
            };
            if !due && self.state.arrivals_in_flight >= lookahead as u64 {
                *pending = Some(spec);
                return;
            }
            self.feed_spec(spec);
            *pending = source.next();
        }
    }

    /// Feed one query into a caller-fed run (`SimRun::streaming(..).build()`).
    /// Queries must be fed in trace order (arrivals non-decreasing) and
    /// before the clock passes their arrival; `SimRun::run_streamed`
    /// upholds both automatically. The arrival event's sequence number is
    /// the query's feed ordinal — ids need not be dense, a shard slice
    /// keeps its global ones — so event order, and therefore the digest,
    /// is independent of how far ahead of the clock the feed runs.
    /// O(|items| + log N_ev).
    ///
    /// # Panics
    /// Panics on a malformed spec, an out-of-order feed, or when the run
    /// is trace-backed (the engine feeds those itself).
    pub fn feed_query(&mut self, spec: QuerySpec) {
        assert!(
            matches!(self.feed, Feed::External),
            "feed_query on a trace-backed run (the engine feeds its own trace)"
        );
        self.feed_spec(Cow::Owned(spec));
    }

    /// Queue `spec`'s arrival under the next feed ordinal. Caller-fed specs
    /// are validated here (a trace was validated whole, up front) and
    /// logged while a lose-state crash is armed (no snapshot holds them; a
    /// trace-backed run just rewinds its cursor).
    #[expect(clippy::panic, reason = "documented feed_query contract")]
    pub(super) fn feed_spec(&mut self, spec: Cow<'a, QuerySpec>) {
        if !self.started {
            self.start();
        }
        if matches!(self.feed, Feed::External) {
            if let Err(e) = spec.validate(self.n_items) {
                panic!("invalid streamed query: {e}");
            }
            debug_assert!(
                !self.state.stream_exhausted,
                "feed_query after end_stream()"
            );
            if self.checkpoint_armed() {
                self.input_log.push(spec.clone());
            }
        }
        // Trace order is what makes the feed ordinal a valid tie-break.
        assert!(
            spec.arrival >= self.state.last_fed_arrival,
            "queries must be fed in trace order (arrivals non-decreasing)"
        );
        debug_assert!(
            spec.arrival >= self.state.clock,
            "fed an arrival the clock already passed"
        );
        self.state.last_fed_arrival = spec.arrival;
        for &d in &spec.items {
            *self.state.query_accesses.at_mut(d) += 1;
        }
        let seq = self.state.submitted;
        self.state.submitted += 1;
        self.state.arrivals_in_flight += 1;
        let arrival = spec.arrival;
        let slot = self.state.queries.intern(spec);
        self.state
            .events
            .push_arrival(arrival, Event::QueryArrival { spec_idx: slot }, seq);
    }

    /// Promise that no further [`Simulator::feed_query`] call will follow.
    /// Purely an optimization hint: it lifts the idle-tick skip's feed cap
    /// (see [`Policy::tick_idle_until`]) so the post-stream tail of the run
    /// can jump idle ticks in bulk. Calling it is never required and never
    /// changes results; feeding after it is a contract violation (checked in
    /// debug builds). O(1).
    pub fn end_stream(&mut self) {
        self.state.stream_exhausted = true;
    }
}
