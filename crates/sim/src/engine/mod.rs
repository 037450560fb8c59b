//! The discrete-event web-database server (§3.1, Figure 1 — data flow).
//!
//! A single-CPU server processes two transaction classes under a
//! **dual-priority** discipline: update transactions outrank user queries,
//! and EDF orders each class internally. The CPU is preemptive (a newly
//! arrived higher-priority transaction takes over; the preempted one keeps
//! its locks and its progress). Concurrency control is **2PL-HP**: a
//! higher-priority transaction that hits a lock conflict evicts
//! lower-priority holders, which restart from scratch. Queries have **firm
//! deadlines** — at expiry an uncommitted query is aborted and counted as a
//! Deadline-Missed Failure.
//!
//! The engine is policy-agnostic: every decision (admission, which versions
//! to apply, on-demand refreshes, feedback control) is delegated to a
//! [`Policy`]. Freshness bookkeeping follows §2.2: version arrivals from the
//! sources raise per-item `Udrop`; applying an update clears it; a query's
//! freshness is the strict minimum over its read set, captured **when its
//! read locks are granted** (the versions it actually reads — any update
//! applied later would evict it through 2PL-HP and force a re-read).
//!
//! Determinism: given `(trace, policy, config)` a run is bit-reproducible —
//! event ties pop in insertion order and the engine itself uses no
//! randomness (policies carry their own seeded RNGs).
//!
//! One module per engine decision (the crate docs map each to the suite
//! that pins it); this one holds the event loop: start, step, finish.

mod checkpoint;
mod dispatch;
mod faults;
mod feed;
mod lifecycle;
mod queue;
mod tick;

pub use checkpoint::Snapshot;
pub(crate) use feed::Feed;
pub use feed::TRACE_LOOKAHEAD;

use crate::events::{Event, EventQueue};
use crate::faults::FaultHook;
use crate::locks::LockManager;
use crate::run::SimRun;
use crate::stats::{FaultCounts, SignalCounts, SimReport, TimelineSample};
use crate::txn::{Txn, TxnArena, TxnId};
use crate::worktreap::WorkTreap;
use feed::SpecSlab;
use queue::AdmittedEntry;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use unit_core::freshness::FreshnessTable;
use unit_core::policy::Policy;
use unit_core::snapshot::QueueEntryView;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{ItemVec, QueryId, QuerySpec, Trace, TxnClass, UpdateSpec};
use unit_core::usm::{OutcomeCounts, UsmWeights};
use unit_obs::{ObsEvent, Observer};

/// How the single CPU orders ready transactions.
///
/// The paper fixes the dual-priority discipline (§3.1); the alternatives
/// exist to *measure* that choice (see the ablation binary): global EDF
/// lets urgent queries pre-empt update work, and query-first shows what
/// happens when the foreground always wins (freshness starves).
///
/// Caveat: on-demand refresh policies (ODU, DEF) assume their refresh
/// transactions outrank the waiting query — which only the dual-priority
/// (and, by deadline, usually the global-EDF) discipline guarantees. Under
/// `QueryFirst` a spawned refresh sits *behind* its requester, so pair the
/// ablation disciplines with policies that do not rely on demand refreshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingDiscipline {
    /// Updates strictly outrank queries; EDF within each class (the paper).
    #[default]
    DualPriorityEdf,
    /// One EDF order across both classes (updates keyed by their
    /// temporal-validity deadline, queries by their firm deadline).
    GlobalEdf,
    /// Queries strictly outrank updates; EDF within each class.
    QueryFirst,
}

impl SchedulingDiscipline {
    /// Ready-queue key of `txn` under this discipline: class rank (lower
    /// runs first), then EDF deadline, then id (deterministic ties).
    pub(crate) fn key(self, txn: &Txn) -> PriorityKey {
        let rank = match (self, txn.class) {
            (SchedulingDiscipline::DualPriorityEdf, TxnClass::Update) => 0,
            (SchedulingDiscipline::DualPriorityEdf, TxnClass::Query) => 1,
            (SchedulingDiscipline::GlobalEdf, _) => 0,
            (SchedulingDiscipline::QueryFirst, TxnClass::Query) => 0,
            (SchedulingDiscipline::QueryFirst, TxnClass::Update) => 1,
        };
        (rank, txn.edf_deadline, txn.id)
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Weights used to classify nothing (outcomes are weight-independent)
    /// but to report USM and to drive weight-aware policies' `on_tick`.
    pub weights: UsmWeights,
    /// Workload horizon: sources and control ticks stop here; in-flight
    /// work drains afterwards.
    pub horizon: SimDuration,
    /// Control-tick period (drives `Policy::on_tick`).
    pub tick_period: SimDuration,
    /// Record a [`TimelineSample`] at every control tick.
    pub record_timeline: bool,
    /// CPU scheduling discipline (the paper's dual-priority EDF by default).
    pub discipline: SchedulingDiscipline,
    /// Number of CPUs (the paper's server has 1). With `k` CPUs the `k`
    /// highest-priority ready transactions run concurrently; 2PL-HP then
    /// resolves genuinely simultaneous lock conflicts.
    pub n_cpus: usize,
    /// Record every per-query outcome as an [`crate::stats::OutcomeRecord`]
    /// (virtual time, query id, outcome, sequence number) in the report.
    /// The cluster layer merges these logs across shards; off by default so
    /// single-server runs carry no extra allocation.
    pub record_outcomes: bool,
}

impl SimConfig {
    /// A config with the given horizon and 1-second control ticks.
    pub fn new(horizon: SimDuration) -> Self {
        SimConfig {
            weights: UsmWeights::naive(),
            horizon,
            tick_period: SimDuration::from_secs(1),
            record_timeline: false,
            discipline: SchedulingDiscipline::default(),
            n_cpus: 1,
            record_outcomes: false,
        }
    }

    /// Enable per-query outcome logging (see [`SimConfig::record_outcomes`]).
    #[must_use]
    pub fn with_outcome_log(mut self) -> Self {
        self.record_outcomes = true;
        self
    }

    /// Set the reporting/policy weights.
    #[must_use]
    pub fn with_weights(mut self, weights: UsmWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Enable timeline recording.
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Override the control-tick period.
    #[must_use]
    pub fn with_tick_period(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "tick period must be positive");
        self.tick_period = period;
        self
    }

    /// Override the scheduling discipline (for ablations).
    #[must_use]
    pub fn with_discipline(mut self, discipline: SchedulingDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Set the number of CPUs (≥ 1).
    ///
    /// # Panics
    /// Panics if `n_cpus` is zero.
    #[must_use]
    pub fn with_cpus(mut self, n_cpus: usize) -> Self {
        assert!(n_cpus >= 1, "need at least one CPU");
        self.n_cpus = n_cpus;
        self
    }
}

/// Run `policy` over `trace` and return the report. One-line sugar for
/// [`SimRun::trace`]`(..).run()`.
pub fn run_simulation<P: Policy>(trace: &Trace, policy: P, cfg: SimConfig) -> SimReport {
    SimRun::trace(trace, policy, cfg).run()
}

#[derive(Debug, Clone, Copy)]
struct RunningTxn {
    id: TxnId,
    started: SimTime,
    generation: u64,
}

type PriorityKey = (u8, SimTime, TxnId);

/// The discrete-event server: the engine handle [`SimRun::build`] returns.
/// Most users want [`SimRun`] or [`run_simulation`].
///
/// The handle holds only what a run is built from (feed, update streams,
/// policy, config, hooks) and the crash-recovery bookkeeping; everything a
/// lose-state crash rewinds lives in one `EngineState`, which a
/// snapshot clones by value.
pub struct Simulator<'a, P: Policy> {
    /// The canonical run state (see [`EngineState`]).
    state: EngineState<'a>,
    /// Where unfed queries come from.
    feed: Feed<'a>,
    /// Update-stream specs (always known up front).
    updates: &'a [UpdateSpec],
    /// Database size.
    n_items: usize,
    policy: P,
    cfg: SimConfig,
    /// Per-item execution time of the item's update stream (for on-demand
    /// refreshes); `None` when the item has no stream.
    item_update_exec: ItemVec<Option<SimDuration>>,
    /// Reusable buffer behind `QueueSource::with_queries`.
    view_scratch: RefCell<Vec<QueueEntryView>>,
    /// Optional fault-injection hook ([`crate::faults`]). `None` — the
    /// common case — takes exactly the fault-free code paths.
    faults: Option<Box<dyn FaultHook>>,
    /// Optional observability sink (`unit-obs`). Every emission site is
    /// gated on `is_some()`, so an absent observer costs one branch and an
    /// installed one is `report_digest`-bit-neutral (events carry only
    /// derived data; the differential suite pins both properties).
    obs: Option<&'a mut dyn Observer>,
    /// Whether the run has been started (update streams seeded, policy
    /// initialized). Flipped by the first [`Simulator::step`].
    started: bool,

    // --- crash recovery (lose-state) -------------------------------------
    // Everything in this block is deliberately *outside* the snapshotted
    // state: a restore must not rewind recovery progress, or the crash
    // that triggered it would re-fire during its own replay, forever.
    /// Sorted, deduplicated lose-state crash instants
    /// ([`FaultHook::lose_state_crashes`]), fixed at run start.
    crash_points: Vec<SimTime>,
    /// Crash points before this index have fired and been recovered from.
    next_crash_idx: usize,
    /// Deterministic snapshot taken at the most recent control boundary
    /// while a future crash point exists (see `take_checkpoint` in the
    /// checkpoint module).
    last_checkpoint: Option<Snapshot<'a>>,
    /// [`Feed::External`] specs fed since the last checkpoint: their arrival
    /// events are not in the snapshot's heap, so a restore must re-feed
    /// them. (A [`Feed::Trace`] run just rewinds its cursor.) A borrowed
    /// spec is logged as the borrow, an owned one as a copy.
    input_log: Vec<Cow<'a, QuerySpec>>,
    /// While replaying a crash-lost window: `(crash instant, checkpoint
    /// instant)`; cleared when the clock catches back up to the crash.
    replay: Option<(SimTime, SimTime)>,
}

/// The engine's canonical run state: every field a lose-state crash
/// rewinds, and nothing else. A snapshot is a clone of this struct (the
/// `checkpoint` module), so new engine state goes here and is saved and
/// restored with no further code; new handles or bookkeeping stay in
/// [`Simulator`].
#[derive(Clone)]
struct EngineState<'a> {
    clock: SimTime,
    /// In-flight query specs.
    queries: SpecSlab<'a>,
    events: EventQueue,
    /// The next control tick as `(time, seq)`, kept *out* of the event heap:
    /// ticks are strictly periodic and there is at most one pending, so a
    /// tracked slot saves one heap push+pop per tick — the dominant event
    /// class on replicated cluster shards. The seq is a runtime sequence
    /// number claimed when the tick is armed, so the tick races the heap
    /// head on the same `(time, seq)` key the heap orders by. A tick
    /// deferred by a crash window is re-armed here at the recovery instant.
    next_tick: Option<(SimTime, u64)>,
    /// Queries fed so far. Doubles as the next arrival's sequence number
    /// (its feed ordinal) and as the [`Feed::Trace`] cursor; each outcome
    /// is checked against it at drain.
    submitted: u64,
    /// Per-item access histogram, accumulated at feed time (the specs are
    /// long gone by report time).
    query_accesses: ItemVec<u64>,
    /// Arrival of the most recently fed query (feed monotonicity check).
    last_fed_arrival: SimTime,
    /// Fed arrivals currently sitting in the event heap, not yet handled.
    /// The pump caps its lookahead at this many *buffered* arrivals, which
    /// is what keeps the heap — and peak memory — small on a million-query
    /// stream.
    arrivals_in_flight: u64,
    /// [`Feed::External`] only: the feeder promised no further
    /// [`Simulator::feed_query`] calls, so the idle-tick skip no longer
    /// needs the feed cap.
    stream_exhausted: bool,
    txns: TxnArena,
    ready: BTreeSet<PriorityKey>,
    blocked: Vec<TxnId>,
    /// Order is semantic: preemption picks the *last* worst incumbent.
    running: Vec<RunningTxn>,
    next_generation: u64,
    locks: LockManager,
    freshness: FreshnessTable,
    /// Items with a queued-but-uncommitted on-demand refresh.
    pending_ondemand: ItemVec<bool>,
    /// Sum of `remaining` over every unfinished update transaction, kept
    /// incrementally so snapshot scalars are O(n_cpus) even when the update
    /// backlog holds tens of thousands of transactions.
    outstanding_update_work: SimDuration,
    /// Admitted, unfinished queries keyed by `(deadline, trace id)` — the
    /// exact ascending order `QueueSource` iteration must follow.
    admitted: BTreeMap<(SimTime, QueryId), AdmittedEntry>,
    /// Remaining admitted-query work (ticks) bucketed by deadline — the
    /// structure behind every `query_work_at_or_before` probe, O(log A)
    /// expected in the admitted-deadline count. Nodes are removed at zero,
    /// so the tree tracks the live admitted set.
    work: WorkTreap,

    // --- accounting -----------------------------------------------------
    counts: OutcomeCounts,
    cpu_busy: SimDuration,
    window_busy: SimDuration,
    window_start: SimTime,
    preemptions: u64,
    query_restarts: u64,
    demand_refreshes: u64,
    signals: SignalCounts,
    fault_counts: FaultCounts,
    dispatch_freshness_sum: f64,
    dispatch_freshness_n: u64,
    timeline: Vec<TimelineSample>,
    events_processed: u64,
    /// Per-query outcome records (only filled when
    /// [`SimConfig::record_outcomes`] is set; exported through the report
    /// for the cluster merge layer).
    outcome_records: Vec<crate::stats::OutcomeRecord>,
    /// Raw per-query outcome log, kept only in validate builds so the USM
    /// tallies can be recounted from first principles at every control tick.
    #[cfg(feature = "validate")]
    outcome_log: Vec<unit_core::types::Outcome>,
}

impl EngineState<'_> {
    /// The state of a run that has not started, over `n_items` items.
    fn new(n_items: usize) -> Self {
        EngineState {
            clock: SimTime::ZERO,
            queries: SpecSlab::default(),
            events: EventQueue::new(),
            next_tick: None,
            submitted: 0,
            query_accesses: ItemVec::new(n_items, 0),
            last_fed_arrival: SimTime::ZERO,
            arrivals_in_flight: 0,
            stream_exhausted: false,
            txns: TxnArena::default(),
            ready: BTreeSet::new(),
            blocked: Vec::new(),
            running: Vec::new(),
            next_generation: 0,
            locks: LockManager::new(n_items),
            freshness: FreshnessTable::new(n_items),
            pending_ondemand: ItemVec::new(n_items, false),
            outstanding_update_work: SimDuration::ZERO,
            admitted: BTreeMap::new(),
            work: WorkTreap::new(),
            counts: OutcomeCounts::default(),
            cpu_busy: SimDuration::ZERO,
            window_busy: SimDuration::ZERO,
            window_start: SimTime::ZERO,
            preemptions: 0,
            query_restarts: 0,
            demand_refreshes: 0,
            signals: SignalCounts::default(),
            fault_counts: FaultCounts::default(),
            dispatch_freshness_sum: 0.0,
            dispatch_freshness_n: 0,
            timeline: Vec::new(),
            events_processed: 0,
            outcome_records: Vec::new(),
            #[cfg(feature = "validate")]
            outcome_log: Vec::new(),
        }
    }
}

impl<'a, P: Policy> Simulator<'a, P> {
    /// Assemble the engine over already-validated inputs — the one
    /// constructor, reached through [`SimRun::build`].
    pub(crate) fn new(
        n_items: usize,
        updates: &'a [UpdateSpec],
        feed: Feed<'a>,
        policy: P,
        cfg: SimConfig,
    ) -> Self {
        let mut item_update_exec = ItemVec::new(n_items, None);
        for u in updates {
            let slot = item_update_exec.at_mut(u.item);
            if slot.is_none() {
                *slot = Some(u.exec_time);
            }
        }
        Simulator {
            state: EngineState::new(n_items),
            feed,
            updates,
            n_items,
            policy,
            cfg,
            item_update_exec,
            view_scratch: RefCell::new(Vec::new()),
            faults: None,
            obs: None,
            started: false,
            crash_points: Vec::new(),
            next_crash_idx: 0,
            last_checkpoint: None,
            input_log: Vec::new(),
            replay: None,
        }
    }

    /// Install a fault-injection hook ([`crate::faults::FaultHook`]) — the
    /// [`SimRun`] builder's back door. Must happen before the first
    /// [`Simulator::step`] so the schedule's transition events are seeded
    /// at run start.
    pub(crate) fn set_faults(&mut self, hook: Box<dyn FaultHook>) {
        debug_assert!(!self.started, "install the fault hook before stepping");
        self.faults = Some(hook);
    }

    /// Install an observability sink (`unit-obs`) — the [`SimRun`]
    /// builder's back door: typed events for every admission decision,
    /// outcome, control tick, modulation boundary, and fault transition,
    /// stamped in virtual time. Must happen before the first
    /// [`Simulator::step`] so the policy's observation buffers are armed
    /// from the start. Observation is passive — the run's `report_digest`
    /// stays bit-identical.
    pub(crate) fn set_observer(&mut self, observer: &'a mut dyn Observer) {
        debug_assert!(!self.started, "install the observer before stepping");
        self.obs = Some(observer);
    }

    /// Forward one event to the installed observer, if any. O(1) plus the
    /// observer's own cost; callers gate event *construction* on
    /// [`Option::is_some`] so the uninstalled path stays one branch.
    #[inline]
    fn emit(&mut self, event: ObsEvent) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_event(&event);
        }
    }

    /// Seed the run: initialize the policy and schedule every update
    /// stream's first version plus the first control tick. Query arrivals
    /// are never seeded here — the feed pushes them as the run progresses.
    /// Called lazily by the first [`Simulator::step`] (or feed).
    /// O(N_u log N_ev), once per run.
    fn start(&mut self) {
        debug_assert!(!self.started);
        self.started = true;
        self.policy.set_observed(self.obs.is_some());
        self.policy.init(self.n_items, self.updates);

        for (j, u) in self.updates.iter().enumerate() {
            if u.first_arrival.0 <= self.cfg.horizon.0 {
                self.state
                    .events
                    .push(u.first_arrival, Event::VersionArrival { stream_idx: j });
            }
        }
        // The first control tick claims its runtime sequence slot between
        // the update seeding and the fault transitions; that slot decides
        // its same-instant ties.
        self.state.next_tick = Some((
            SimTime::ZERO + self.cfg.tick_period,
            self.state.events.alloc_seq(),
        ));

        // Fault transitions: every crash-window boundary and burst instant,
        // sorted and deduplicated so the event-seq assignment (and thus
        // same-instant tie-breaking) is a pure function of the schedule. An
        // absent hook or an empty schedule pushes nothing — the event
        // stream is bit-identical to a fault-free run.
        if let Some(hook) = &self.faults {
            let mut times = hook.transition_times();
            times.sort_unstable();
            times.dedup();
            for t in times {
                self.state.events.push(t, Event::FaultTransition);
            }
            let mut crashes = hook.lose_state_crashes();
            crashes.sort_unstable();
            crashes.dedup();
            self.crash_points = crashes;
        }
        // Arm crash recovery: the run-start snapshot is the fallback for a
        // crash that fires before the first control boundary. A no-op
        // unless a future lose-state crash point exists.
        self.take_checkpoint();
    }

    /// Process the next pending event, advancing the virtual clock. Returns
    /// `false` once the run has drained (no events left, feed exhausted).
    /// The embeddable half of the engine: a cluster shard is driven by
    /// calling this in a loop and then harvesting [`Simulator::finish`].
    /// O(log N_ev) plus the dispatched handler's cost.
    pub fn step(&mut self) -> bool {
        if !self.started {
            self.start();
        }
        self.pump_trace();
        // Fast-forward past any run of certifiably idle ticks before the
        // race, so a sparse stretch costs one heap pop per real event
        // instead of one extra step per tick-train segment. The skipped
        // ticks are accounted (clock, seqs, events_processed, window roll)
        // exactly as if each had been stepped — see the method docs.
        self.fast_forward_idle_ticks();
        // The tracked control tick races the heap head on the same
        // `(time, seq)` key the heap itself orders by.
        let head = self.state.events.peek_key();
        if let Some((t, _)) = self
            .state
            .next_tick
            .filter(|&tick| head.map_or(true, |h| tick <= h))
        {
            self.state.next_tick = None;
            debug_assert!(t >= self.state.clock, "time went backwards");
            self.state.clock = t;
            self.state.events_processed += 1;
            match self.defer_to_recovery() {
                Some(until) => self.state.next_tick = Some((until, self.state.events.alloc_seq())),
                None => self.on_control_tick(),
            }
            return true;
        }
        let Some((t, ev)) = self.state.events.pop() else {
            return false;
        };
        debug_assert!(t >= self.state.clock, "time went backwards");
        self.state.clock = t;
        self.state.events_processed += 1;
        if matches!(ev, Event::QueryArrival { .. } | Event::QueryDeadline { .. }) {
            if let Some(until) = self.defer_to_recovery() {
                self.state.events.push(until, ev);
                return true;
            }
        }
        match ev {
            Event::QueryArrival { spec_idx } => self.on_query_arrival(spec_idx),
            Event::VersionArrival { stream_idx } => self.on_version_arrival(stream_idx),
            Event::Completion { txn, generation } => self.on_completion(txn, generation),
            Event::QueryDeadline { txn } => self.on_query_deadline(txn),
            Event::FaultTransition => self.on_fault_transition(),
            Event::DelayedApply {
                item,
                exec,
                edf_deadline,
            } => self.on_delayed_apply(item, exec, edf_deadline),
        }
        true
    }

    /// Timestamp of the next *queued* event — the earlier of the tracked
    /// control tick and the heap head. O(1).
    fn next_queued_time(&self) -> Option<SimTime> {
        let tick = self.state.next_tick.map(|(t, _)| t);
        tick.into_iter().chain(self.state.events.peek_time()).min()
    }

    /// Timestamp of the next pending event — the earliest of the tracked
    /// control tick, the heap head, and the trace's next unfed arrival —
    /// without advancing anything. `None` once the run has drained. On a
    /// caller-fed run this reflects only what has been fed so far. O(1).
    pub fn next_event_time(&self) -> Option<SimTime> {
        let queued = self.next_queued_time();
        queued.into_iter().chain(self.next_trace_arrival()).min()
    }

    /// Step every pending event with `time <= limit`, lazily starting the
    /// run. Returns `true` while events remain beyond `limit`, `false` once
    /// the run has drained. The event sequence is exactly what repeated
    /// [`Simulator::step`] calls would process — pausing at any instant
    /// reorders nothing (pinned by `tests/streaming.rs`).
    /// O(E≤limit · log N_ev).
    pub fn step_until(&mut self, limit: SimTime) -> bool {
        if !self.started {
            self.start();
        }
        loop {
            match self.next_event_time() {
                Some(t) if t <= limit => {
                    self.step();
                }
                Some(_) => return true,
                None => return false,
            }
        }
    }

    /// The current virtual clock (the timestamp of the last processed
    /// event). O(1).
    pub fn now(&self) -> SimTime {
        self.state.clock
    }

    /// Finish a drained run: check the end-of-run invariants and assemble
    /// the report plus the policy's final state. Call only after
    /// [`Simulator::step`] has returned `false`; finishing mid-run trips
    /// the drain assertions in debug builds and misreports in-flight work
    /// in release builds. O(N_d) for the report's histogram moves.
    pub fn finish(mut self) -> (SimReport, P) {
        debug_assert!(self.started, "finish() before the run was stepped");
        debug_assert!(self.next_event_time().is_none(), "finish() mid-run");
        debug_assert!(
            self.state.ready.is_empty(),
            "ready transactions left behind"
        );
        debug_assert!(
            self.state.running.is_empty(),
            "running transactions left behind"
        );
        debug_assert!(
            self.state.admitted.is_empty(),
            "admitted queries left behind"
        );
        debug_assert_eq!(self.state.work.total(), 0, "work index must drain to zero");
        debug_assert!(self.state.txns.is_empty(), "transaction window must drain");
        debug_assert_eq!(
            self.state.counts.total(),
            self.state.submitted,
            "every submitted query must have exactly one outcome"
        );
        #[cfg(feature = "validate")]
        self.validate_invariants();

        let report = self.report();
        (report, self.policy)
    }

    /// Assemble the final report, moving the accumulated histograms and
    /// timeline out of the simulator instead of cloning them.
    fn report(&mut self) -> SimReport {
        let freshness = std::mem::replace(&mut self.state.freshness, FreshnessTable::new(0));
        let (versions_arrived, updates_applied) = freshness.into_histograms();
        SimReport {
            policy: self.policy.name().to_string(),
            weights: self.cfg.weights,
            counts: self.state.counts,
            // Same histogram `Trace::query_access_histogram` computes.
            query_accesses: std::mem::take(&mut self.state.query_accesses).into_vec(),
            versions_arrived,
            updates_applied,
            hp_aborts: self.state.locks.hp_aborts(),
            query_restarts: self.state.query_restarts,
            preemptions: self.state.preemptions,
            demand_refreshes: self.state.demand_refreshes,
            cpu_busy: self.state.cpu_busy,
            end_time: self.state.clock,
            horizon: self.cfg.horizon,
            n_cpus: self.cfg.n_cpus,
            signals: self.state.signals,
            mean_dispatch_freshness: if self.state.dispatch_freshness_n == 0 {
                1.0
            } else {
                self.state.dispatch_freshness_sum / self.state.dispatch_freshness_n as f64
            },
            timeline: std::mem::take(&mut self.state.timeline),
            events_processed: self.state.events_processed,
            outcome_records: std::mem::take(&mut self.state.outcome_records),
            faults: self.state.fault_counts,
        }
    }

    /// Ready-queue ordering key by transaction id.
    fn pkey(&self, id: TxnId) -> PriorityKey {
        self.cfg.discipline.key(self.state.txns.at(id))
    }
}
