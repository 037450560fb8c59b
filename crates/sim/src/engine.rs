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

use crate::events::{Event, EventQueue};
use crate::faults::{FaultHook, HealthState, UpdateFault};

#[path = "engine_checkpoint.rs"]
mod checkpoint;
use crate::locks::{LockManager, ReadAcquire, WriteAcquire};
use crate::run::SimRun;
use crate::stats::{FaultCounts, SignalCounts, SimReport, TimelineSample};
use crate::txn::{Txn, TxnArena, TxnId, TxnKind, TxnState};
use crate::worktreap::WorkTreap;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use unit_core::freshness::FreshnessTable;
use unit_core::policy::{ControlSignal, Policy};
use unit_core::snapshot::{QueueEntryView, QueueSource, SnapshotView};
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, ItemVec, Outcome, QueryId, QuerySpec, Trace, TxnClass, UpdateSpec};
use unit_core::usm::{OutcomeCounts, UsmWeights};
use unit_obs::{FaultPhase, ObsEvent, Observer};

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
    /// Class rank under this discipline (lower runs first).
    fn rank(self, class: TxnClass) -> u8 {
        match (self, class) {
            (SchedulingDiscipline::DualPriorityEdf, TxnClass::Update) => 0,
            (SchedulingDiscipline::DualPriorityEdf, TxnClass::Query) => 1,
            (SchedulingDiscipline::GlobalEdf, _) => 0,
            (SchedulingDiscipline::QueryFirst, TxnClass::Query) => 0,
            (SchedulingDiscipline::QueryFirst, TxnClass::Update) => 1,
        }
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

/// An admitted, unfinished query as tracked by the deadline index.
#[derive(Debug, Clone, Copy)]
struct AdmittedEntry {
    /// The live transaction carrying this query.
    txn: TxnId,
    /// Stored remaining service, synced whenever the transaction's
    /// `remaining` changes at rest (preemption, 2PL-HP restart). The
    /// in-progress slice of a *running* query is subtracted at view time.
    remaining: SimDuration,
}

/// Where the run's queries come from (see [`crate::run::SimRun`]).
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
#[derive(Default)]
struct SpecSlab<'a> {
    /// In-flight (and recycled) spec slots; `spec_idx` is a slot index.
    slots: Vec<Cow<'a, QuerySpec>>,
    /// Slots whose outcome has been recorded, free for reuse.
    free: Vec<usize>,
}

impl<'a> SpecSlab<'a> {
    /// The spec in slot `idx`. O(1).
    #[expect(
        clippy::indexing_slicing,
        reason = "spec_idx values are slots handed out by intern(), live until release()"
    )]
    fn get(&self, idx: usize) -> &QuerySpec {
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
    fn release(&mut self, idx: usize) {
        self.free.push(idx);
    }
}

/// Borrowed, work-indexed [`QueueSource`] over the simulator's admitted
/// queries: `O(log N_rq)` work probes, `O(N_rq)` materialization only when a
/// policy explicitly asks for the whole list.
struct EngineQueue<'b> {
    clock: SimTime,
    admitted: &'b BTreeMap<(SimTime, QueryId), AdmittedEntry>,
    work: &'b WorkTreap,
    running: &'b [RunningTxn],
    txns: &'b TxnArena,
    scratch: &'b RefCell<Vec<QueueEntryView>>,
}

impl EngineQueue<'_> {
    /// In-progress slice of `id` when it currently holds a CPU.
    fn running_elapsed(&self, id: TxnId) -> SimDuration {
        self.running
            .iter()
            .find(|r| r.id == id)
            .map_or(SimDuration::ZERO, |r| {
                self.clock.saturating_since(r.started)
            })
    }

    fn entry_view(&self, key: &(SimTime, QueryId), e: &AdmittedEntry) -> QueueEntryView {
        QueueEntryView {
            id: key.1,
            deadline: key.0,
            remaining: e.remaining.saturating_sub(self.running_elapsed(e.txn)),
        }
    }

    /// Already-served (not yet synced) work of current query-class runners
    /// with deadline `<= deadline`; pass [`SimTime::MAX`] for all of them.
    /// `O(n_cpus)`.
    fn running_query_elapsed_before(&self, deadline: SimTime) -> SimDuration {
        let mut elapsed = SimDuration::ZERO;
        for r in self.running {
            let txn = self.txns.at(r.id);
            if txn.is_query() && txn.edf_deadline <= deadline {
                elapsed += self.clock.saturating_since(r.started);
            }
        }
        elapsed
    }
}

impl QueueSource for EngineQueue<'_> {
    fn query_count(&self) -> usize {
        self.admitted.len()
    }

    fn total_query_work(&self) -> SimDuration {
        SimDuration(self.work.total())
            .saturating_sub(self.running_query_elapsed_before(SimTime::MAX))
    }

    fn query_work_at_or_before(&self, deadline: SimTime) -> SimDuration {
        SimDuration(self.work.at_or_before(deadline))
            .saturating_sub(self.running_query_elapsed_before(deadline))
    }

    fn for_each_later(&self, after: SimTime, visit: &mut dyn FnMut(QueueEntryView) -> bool) {
        // Keys strictly above `(after, MAX)` are exactly those with
        // deadline > after (no trace query carries id u64::MAX).
        let from = (
            Bound::Excluded((after, QueryId(u64::MAX))),
            Bound::Unbounded,
        );
        for (key, e) in self.admitted.range(from) {
            if !visit(self.entry_view(key, e)) {
                return;
            }
        }
    }

    fn with_queries(&self, f: &mut dyn FnMut(&[QueueEntryView])) {
        let mut buf = self.scratch.borrow_mut();
        buf.clear();
        buf.extend(self.admitted.iter().map(|(k, e)| self.entry_view(k, e)));
        f(&buf);
    }
}

/// The earlier of two optional instants (`None` = never).
fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

enum DispatchResult {
    /// Candidate is now running.
    Running,
    /// Candidate blocked on a lock; it left the ready queue.
    Blocked,
    /// On-demand refresh updates were spawned; candidate went back to ready.
    SpawnedRefresh,
}

/// The discrete-event server: the engine handle [`SimRun::build`] returns.
/// Most users want [`SimRun`] or [`run_simulation`].
pub struct Simulator<'a, P: Policy> {
    /// In-flight query specs.
    queries: SpecSlab<'a>,
    /// Where unfed queries come from.
    feed: Feed<'a>,
    /// Update-stream specs (always known up front).
    updates: &'a [UpdateSpec],
    /// Database size.
    n_items: usize,
    policy: P,
    cfg: SimConfig,

    clock: SimTime,
    /// Whether the run has been started (update streams seeded, policy
    /// initialized). Flipped by the first [`Simulator::step`].
    started: bool,
    events: EventQueue,
    /// The next control tick as `(time, seq)`, kept *out* of the event heap:
    /// ticks are strictly periodic and there is at most one pending, so a
    /// tracked slot saves one heap push+pop per tick — the dominant event
    /// class on replicated cluster shards. The seq is claimed from the
    /// runtime counter at exactly the point the heap push used to happen,
    /// so same-instant tie-breaking is bit-identical to the heap-resident
    /// scheme. Fault windows fall back to the heap (a deferred tick is an
    /// ordinary event again).
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
    running: Vec<RunningTxn>,
    next_generation: u64,
    locks: LockManager,
    freshness: FreshnessTable,
    /// Per-item execution time of the item's update stream (for on-demand
    /// refreshes); `None` when the item has no stream.
    item_update_exec: ItemVec<Option<SimDuration>>,
    /// Items with a queued-but-uncommitted on-demand refresh.
    pending_ondemand: ItemVec<bool>,
    /// Sum of `remaining` over every unfinished update transaction, kept
    /// incrementally so snapshot scalars are O(n_cpus) even when the update
    /// backlog holds tens of thousands of transactions.
    outstanding_update_work: SimDuration,
    /// Admitted, unfinished queries keyed by `(deadline, trace id)` — the
    /// exact ascending order [`QueueSource`] iteration must follow.
    admitted: BTreeMap<(SimTime, QueryId), AdmittedEntry>,
    /// Remaining admitted-query work (ticks) bucketed by deadline — the
    /// structure behind every `query_work_at_or_before` probe, O(log A)
    /// expected in the admitted-deadline count. Nodes are removed at zero,
    /// so the tree tracks the live admitted set.
    work: WorkTreap,
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

    // --- crash recovery (lose-state) -------------------------------------
    // Everything in this block is deliberately *outside* the checkpointed
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
    last_checkpoint: Option<Vec<u8>>,
    /// [`Feed::External`] specs fed since the last checkpoint: their arrival
    /// events are not in the snapshot's heap, so a restore must re-feed
    /// them. (A [`Feed::Trace`] run just rewinds its cursor.) A borrowed
    /// spec is logged as the borrow, an owned one as a copy.
    input_log: Vec<Cow<'a, QuerySpec>>,
    /// While replaying a crash-lost window: `(crash instant, checkpoint
    /// instant)`; cleared when the clock catches back up to the crash.
    replay: Option<(SimTime, SimTime)>,

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
    outcome_log: Vec<Outcome>,
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
            queries: SpecSlab::default(),
            feed,
            updates,
            n_items,
            policy,
            cfg,
            clock: SimTime::ZERO,
            started: false,
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
            item_update_exec,
            pending_ondemand: ItemVec::new(n_items, false),
            outstanding_update_work: SimDuration::ZERO,
            admitted: BTreeMap::new(),
            work: WorkTreap::new(),
            view_scratch: RefCell::new(Vec::new()),
            faults: None,
            obs: None,
            crash_points: Vec::new(),
            next_crash_idx: 0,
            last_checkpoint: None,
            input_log: Vec::new(),
            replay: None,
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
                self.events
                    .push(u.first_arrival, Event::VersionArrival { stream_idx: j });
            }
        }
        // The first control tick claims its runtime sequence slot here —
        // between the update seeding and the fault transitions, exactly
        // where the heap-resident tick used to be pushed — but lives in
        // `next_tick`, not the heap (see the field docs).
        self.next_tick = Some((
            SimTime::ZERO + self.cfg.tick_period,
            self.events.alloc_seq(),
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
                self.events.push(t, Event::FaultTransition);
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
        if let Feed::Trace(qs) = self.feed {
            let mut rest = qs
                .get(self.submitted as usize..)
                .unwrap_or_default()
                .iter()
                .map(Cow::Borrowed);
            let mut pending = rest.next();
            self.pump(&mut pending, &mut rest, TRACE_LOOKAHEAD);
        }
        // Fast-forward past any run of certifiably idle ticks before the
        // race, so a sparse stretch costs one heap pop per real event
        // instead of one extra step per tick-train segment. The skipped
        // ticks are accounted (clock, seqs, events_processed, window roll)
        // exactly as if each had been stepped — see the method docs.
        self.fast_forward_idle_ticks();
        // The tracked control tick races the heap head on the same
        // `(time, seq)` key the heap itself orders by, so the winner is
        // exactly the event the all-heap scheme would have popped.
        let take_tick = match (self.next_tick, self.events.peek_key()) {
            (Some(tick), Some(head)) => tick <= head,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_tick {
            let Some((t, _)) = self.next_tick.take() else {
                return false; // unreachable: take_tick implies Some
            };
            debug_assert!(t >= self.clock, "time went backwards");
            self.clock = t;
            self.events_processed += 1;
            self.on_control_tick();
            return true;
        }
        let Some((t, ev)) = self.events.pop() else {
            return false;
        };
        debug_assert!(t >= self.clock, "time went backwards");
        self.clock = t;
        self.events_processed += 1;
        match ev {
            Event::QueryArrival { spec_idx } => self.on_query_arrival(spec_idx),
            Event::VersionArrival { stream_idx } => self.on_version_arrival(stream_idx),
            Event::Completion { txn, generation } => self.on_completion(txn, generation),
            Event::QueryDeadline { txn } => self.on_query_deadline(txn),
            Event::ControlTick => self.on_control_tick(),
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
        earlier(self.next_tick.map(|(t, _)| t), self.events.peek_time())
    }

    /// Arrival instant of the next query a [`Feed::Trace`] run has not fed
    /// yet; `None` once the trace is exhausted (and for caller-fed runs,
    /// whose future the engine cannot see). O(1).
    fn next_trace_arrival(&self) -> Option<SimTime> {
        match self.feed {
            Feed::Trace(qs) => qs.get(self.submitted as usize).map(|q| q.arrival),
            Feed::External => None,
        }
    }

    /// Timestamp of the next pending event — the earliest of the tracked
    /// control tick, the heap head, and the trace's next unfed arrival —
    /// without advancing anything. `None` once the run has drained. On a
    /// caller-fed run this reflects only what has been fed so far. O(1).
    pub fn next_event_time(&self) -> Option<SimTime> {
        earlier(self.next_queued_time(), self.next_trace_arrival())
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
            if !due && self.arrivals_in_flight >= lookahead as u64 {
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
    fn feed_spec(&mut self, spec: Cow<'a, QuerySpec>) {
        if !self.started {
            self.start();
        }
        if matches!(self.feed, Feed::External) {
            if let Err(e) = spec.validate(self.n_items) {
                panic!("invalid streamed query: {e}");
            }
            debug_assert!(!self.stream_exhausted, "feed_query after end_stream()");
            if self.checkpoint_armed() {
                self.input_log.push(spec.clone());
            }
        }
        // Trace order is what makes the feed ordinal a valid tie-break.
        assert!(
            spec.arrival >= self.last_fed_arrival,
            "queries must be fed in trace order (arrivals non-decreasing)"
        );
        debug_assert!(
            spec.arrival >= self.clock,
            "fed an arrival the clock already passed"
        );
        self.last_fed_arrival = spec.arrival;
        for &d in &spec.items {
            *self.query_accesses.at_mut(d) += 1;
        }
        let seq = self.submitted;
        self.submitted += 1;
        self.arrivals_in_flight += 1;
        let arrival = spec.arrival;
        let slot = self.queries.intern(spec);
        self.events
            .push_arrival(arrival, Event::QueryArrival { spec_idx: slot }, seq);
    }

    /// Promise that no further [`Simulator::feed_query`] call will follow.
    /// Purely an optimization hint: it lifts the idle-tick skip's feed cap
    /// (see [`Policy::tick_idle_until`]) so the post-stream tail of the run
    /// can jump idle ticks in bulk. Calling it is never required and never
    /// changes results; feeding after it is a contract violation (checked in
    /// debug builds). O(1).
    pub fn end_stream(&mut self) {
        self.stream_exhausted = true;
    }

    /// The current virtual clock (the timestamp of the last processed
    /// event). O(1).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Finish a drained run: check the end-of-run invariants and assemble
    /// the report plus the policy's final state. Call only after
    /// [`Simulator::step`] has returned `false`; finishing mid-run trips
    /// the drain assertions in debug builds and misreports in-flight work
    /// in release builds. O(N_d) for the report's histogram moves.
    pub fn finish(mut self) -> (SimReport, P) {
        debug_assert!(self.started, "finish() before the run was stepped");
        debug_assert!(self.next_event_time().is_none(), "finish() mid-run");
        debug_assert!(self.ready.is_empty(), "ready transactions left behind");
        debug_assert!(self.running.is_empty(), "running transactions left behind");
        debug_assert!(self.admitted.is_empty(), "admitted queries left behind");
        debug_assert_eq!(self.work.total(), 0, "work index must drain to zero");
        debug_assert!(self.txns.is_empty(), "transaction window must drain");
        debug_assert_eq!(
            self.counts.total(),
            self.submitted,
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
        let freshness = std::mem::replace(&mut self.freshness, FreshnessTable::new(0));
        let (versions_arrived, updates_applied) = freshness.into_histograms();
        SimReport {
            policy: self.policy.name().to_string(),
            weights: self.cfg.weights,
            counts: self.counts,
            // Same histogram `Trace::query_access_histogram` computes.
            query_accesses: std::mem::take(&mut self.query_accesses).into_vec(),
            versions_arrived,
            updates_applied,
            hp_aborts: self.locks.hp_aborts(),
            query_restarts: self.query_restarts,
            preemptions: self.preemptions,
            demand_refreshes: self.demand_refreshes,
            cpu_busy: self.cpu_busy,
            end_time: self.clock,
            horizon: self.cfg.horizon,
            n_cpus: self.cfg.n_cpus,
            signals: self.signals,
            mean_dispatch_freshness: if self.dispatch_freshness_n == 0 {
                1.0
            } else {
                self.dispatch_freshness_sum / self.dispatch_freshness_n as f64
            },
            timeline: std::mem::take(&mut self.timeline),
            events_processed: self.events_processed,
            outcome_records: std::mem::take(&mut self.outcome_records),
            faults: self.fault_counts,
        }
    }

    /// Ready-queue ordering key for a transaction under the configured
    /// scheduling discipline.
    fn pkey_of(&self, txn: &Txn) -> PriorityKey {
        (
            self.cfg.discipline.rank(txn.class),
            txn.edf_deadline,
            txn.id,
        )
    }

    /// Ready-queue ordering key by transaction id.
    fn pkey(&self, id: TxnId) -> PriorityKey {
        self.pkey_of(self.txns.at(id))
    }

    // --- event handlers --------------------------------------------------

    /// Query-arrival hook: admission decision plus ready-queue insertion.
    /// O(log N_rq) for the policy's slack probe and the index inserts, plus
    /// the [`Simulator::reschedule`] that follows.
    fn on_query_arrival(&mut self, spec_idx: usize) {
        if let Some(until) = self.paused_until() {
            // Crash window: the server is not listening. Defer the arrival
            // to the recovery instant.
            self.fault_counts.deferred_events += 1;
            self.events.push(until, Event::QueryArrival { spec_idx });
            return; // still in flight: the arrival went back into the heap
        }
        self.arrivals_in_flight -= 1;
        let (spec_deadline, spec_exec, spec_id) = {
            let spec = self.queries.get(spec_idx);
            (spec.deadline(), spec.exec_time, spec.id)
        };
        if self.faults.is_some() && spec_deadline <= self.clock {
            // Dead on arrival: the firm deadline expired while the arrival
            // sat deferred through a crash window. Unreachable fault-free
            // (relative deadlines are strictly positive).
            self.record_outcome(spec_idx, Outcome::DeadlineMiss);
            return;
        }
        let decision = self.with_view_spec(spec_idx, |policy, spec, view| {
            policy.on_query_arrival(spec, view)
        });
        if self.obs.is_some() {
            let (verdict, c_flex) = match self.policy.last_admission() {
                Some(a) => (Some(a.verdict), Some(a.c_flex)),
                None => (None, None),
            };
            self.emit(ObsEvent::Admission {
                time: self.clock,
                query: spec_id,
                decision,
                verdict,
                c_flex,
            });
        }
        if !decision.is_admit() {
            self.record_outcome(spec_idx, Outcome::Rejected);
            return;
        }
        let id = self.txns.next_id();
        let txn = Txn {
            id,
            class: TxnClass::Query,
            edf_deadline: spec_deadline,
            exec_time: spec_exec,
            remaining: spec_exec,
            state: TxnState::Ready,
            holds_locks: false,
            blocked_on: None,
            kind: TxnKind::Query {
                spec_idx,
                freshness_at_dispatch: None,
                restarts: 0,
            },
        };
        self.events
            .push(txn.edf_deadline, Event::QueryDeadline { txn: id });
        self.ready.insert(self.pkey_of(&txn));
        self.txns.push(txn);
        self.insert_admitted(spec_idx, id);
        if self.policy.refresh_at_admission() {
            // Eager on-demand policies (ODU) check staleness the moment the
            // query enters the system.
            self.spawn_demand_refreshes(spec_idx);
        }
        self.reschedule();
    }

    /// Ask the policy which of `spec`'s items need an on-demand refresh and
    /// spawn update transactions for them. Returns true if any were spawned.
    fn spawn_demand_refreshes(&mut self, spec_idx: usize) -> bool {
        let wanted = {
            let Simulator {
                queries,
                policy,
                freshness,
                ..
            } = self;
            let spec = queries.get(spec_idx);
            policy.demand_refresh(spec, &|d: DataId| freshness.udrop(d))
        };
        self.spawn_refreshes(wanted)
    }

    /// Spawn one on-demand refresh per item in `wanted` that has an update
    /// stream and no refresh already queued. Returns true if any were
    /// spawned.
    fn spawn_refreshes(&mut self, wanted: Vec<DataId>) -> bool {
        let mut spawned = false;
        for d in wanted {
            if *self.pending_ondemand.at(d) {
                continue; // a refresh for this item is already queued
            }
            let Some(exec) = *self.item_update_exec.at(d) else {
                continue; // no stream -> cannot be stale
            };
            *self.pending_ondemand.at_mut(d) = true;
            self.demand_refreshes += 1;
            // EDF deadline "now": on-demand refreshes precede periodic
            // updates that arrived earlier with later validity deadlines.
            self.spawn_update(d, exec, self.clock, true);
            spawned = true;
        }
        spawned
    }

    /// Version-arrival hook: freshness bookkeeping, the policy's
    /// apply/skip decision, and the next arrival's scheduling.
    /// O(log N_ev) for the event pushes; the policy callback is O(1) for
    /// every shipped policy.
    fn on_version_arrival(&mut self, stream_idx: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "stream indexes are minted by start()'s enumerate over `updates` and only ever re-pushed"
        )]
        let u = &self.updates[stream_idx];
        let item = u.item;
        let period = u.period;
        let exec = u.exec_time;
        // Sources are external: the version is observed (Udrop rises) even
        // when a fault keeps it from being applied.
        self.freshness.record_arrival(item);

        let fault = match self.faults.as_deref() {
            None => UpdateFault::Apply,
            // Down or degraded windows drop every application; staleness
            // then accrues honestly through the ordinary Udrop path.
            Some(h) if h.health(self.clock).updates_dropped() => UpdateFault::Drop,
            Some(h) => h.update_fault(item, self.clock),
        };
        match fault {
            UpdateFault::Apply => {
                let action =
                    self.with_view(|policy, view| policy.on_version_arrival(item, view.now, view));
                if action.is_apply() {
                    self.spawn_update(item, exec, self.clock + period, false);
                    self.reschedule();
                }
            }
            UpdateFault::Drop => {
                self.fault_counts.update_drops += 1;
            }
            UpdateFault::Delay(d) => {
                // The policy still decides whether this version is worth
                // applying; the fault only postpones the application. The
                // EDF deadline stays at the version's temporal-validity
                // deadline, not the delayed spawn instant.
                let action =
                    self.with_view(|policy, view| policy.on_version_arrival(item, view.now, view));
                if action.is_apply() {
                    self.fault_counts.update_delays += 1;
                    self.events.push(
                        self.clock + d,
                        Event::DelayedApply {
                            item,
                            exec,
                            edf_deadline: self.clock + period,
                        },
                    );
                }
            }
        }

        let next = self.clock + period;
        if next.0 <= self.cfg.horizon.0 {
            self.events.push(next, Event::VersionArrival { stream_idx });
        }
    }

    /// Completion hook: commit the transaction, release its locks, record
    /// the outcome. O(W + log N_rq) where W is the freed waiter count, plus
    /// the trailing [`Simulator::reschedule`].
    fn on_completion(&mut self, id: TxnId, generation: u64) {
        // Stale completions (the transaction was preempted or aborted after
        // this event was scheduled) are ignored.
        let Some(pos) = self
            .running
            .iter()
            .position(|r| r.id == id && r.generation == generation)
        else {
            return;
        };
        let run = self.running.swap_remove(pos);
        let elapsed = self.clock.saturating_since(run.started);
        self.charge_cpu(elapsed);

        let (outcome_to_record, committed_update): (Option<(usize, Outcome)>, Option<DataId>) = {
            let txn = self.txns.at_mut(id);
            debug_assert_eq!(txn.state, TxnState::Running);
            debug_assert!(elapsed == txn.remaining, "completion fired early or late");
            txn.remaining = SimDuration::ZERO;
            txn.state = TxnState::Finished;
            txn.holds_locks = false;
            match txn.kind {
                TxnKind::Query {
                    spec_idx,
                    freshness_at_dispatch,
                    ..
                } => {
                    let spec = self.queries.get(spec_idx);
                    debug_assert!(self.clock <= spec.deadline(), "firm deadline violated");
                    // Freshness verdict: the data the query actually *read*,
                    // i.e. the strict-minimum freshness captured when its
                    // read locks were granted (§2.2). Read-time evaluation is
                    // what makes the paper's ODU baseline achieve 100%
                    // freshness: any version *applied* during execution would
                    // have evicted the query via 2PL-HP, so the captured
                    // value is exact for the versions read.
                    let f = freshness_at_dispatch.unwrap_or(1.0);
                    let outcome = if f >= spec.freshness_req {
                        Outcome::Success
                    } else {
                        Outcome::DataStale
                    };
                    (Some((spec_idx, outcome)), None)
                }
                TxnKind::Update { item, on_demand } => {
                    if on_demand {
                        *self.pending_ondemand.at_mut(item) = false;
                    }
                    self.outstanding_update_work =
                        self.outstanding_update_work.saturating_sub(elapsed);
                    (None, Some(item))
                }
                TxnKind::Background => {
                    // Injected load: consumes CPU, touches nothing.
                    self.outstanding_update_work =
                        self.outstanding_update_work.saturating_sub(elapsed);
                    (None, None)
                }
            }
        };

        let freed = self.locks.release_all(id);
        self.unblock_waiters(&freed);

        if let Some(item) = committed_update {
            self.freshness.record_applied(item);
            let exec = self.txns.at(id).exec_time;
            self.policy.on_update_commit(item, exec);
        }
        if let Some((spec_idx, outcome)) = outcome_to_record {
            self.remove_admitted(id);
            self.record_outcome(spec_idx, outcome);
        }
        self.txns.retire();
        self.reschedule();
    }

    /// Firm-deadline hook: abort an expired query wherever it currently
    /// sits. O(n_cpus + log N_rq) to evict it from the run/ready/admitted
    /// structures, plus the trailing [`Simulator::reschedule`].
    fn on_query_deadline(&mut self, id: TxnId) {
        if let Some(until) = self.paused_until() {
            // Crash window: the abort (and its DMF outcome) is deferred to
            // the recovery instant, so no outcome lands inside the window.
            self.fault_counts.deferred_events += 1;
            self.events.push(until, Event::QueryDeadline { txn: id });
            return;
        }
        // Deadline events outlive their queries: a retired id (`None`) is
        // the one dead id the engine can still hold.
        let finished = self
            .txns
            .get(id)
            .map_or(true, |t| t.state == TxnState::Finished);
        if finished {
            return; // committed (or already aborted) before expiry
        }
        self.remove_admitted(id);
        // Firm deadline: abort wherever the query currently is.
        if let Some(pos) = self.running.iter().position(|r| r.id == id) {
            let run = self.running.swap_remove(pos);
            let elapsed = self.clock.saturating_since(run.started);
            self.charge_cpu(elapsed);
            let txn = self.txns.at_mut(id);
            txn.remaining = txn.remaining.saturating_sub(elapsed);
        }
        let key = self.pkey(id);
        self.ready.remove(&key);
        self.blocked.retain(|&b| b != id);

        let spec_idx = {
            let txn = self.txns.at_mut(id);
            txn.state = TxnState::Finished;
            txn.holds_locks = false;
            match txn.kind {
                TxnKind::Query { spec_idx, .. } => spec_idx,
                TxnKind::Update { .. } | TxnKind::Background => {
                    unreachable!("updates have no deadline events")
                }
            }
        };
        let freed = self.locks.release_all(id);
        self.unblock_waiters(&freed);
        self.record_outcome(spec_idx, Outcome::DeadlineMiss);
        self.txns.retire();
        self.reschedule();
    }

    /// Control-tick hook: run the policy's feedback loop and sample the
    /// timeline. O(T log N_ev) where T is the tick-triggered refresh count,
    /// plus the policy's `on_tick`. For UNIT that is O(1) on a tick without
    /// a signal; a `DegradeUpdates` signal costs O(N + buckets + draws) (a
    /// victim-index build, then up to `degrade_victims_per_signal` = 4096
    /// lottery draws) and an `UpgradeUpdates` signal O(N + k log N) for the
    /// k items it restores (DESIGN.md §2.1).
    fn on_control_tick(&mut self) {
        if let Some(until) = self.paused_until() {
            // Crash window: the controller is down with the rest of the
            // server; the tick train restarts at the recovery instant.
            self.fault_counts.deferred_events += 1;
            self.events.push(until, Event::ControlTick);
            return;
        }
        // Idle-tick fast path: when the policy certifies this tick as a
        // no-op (`Policy::tick_idle`) and nobody is watching, only the
        // utilization-window roll and the re-arm have observable effects —
        // the snapshot view, the `on_tick` call, and the refresh sweep are
        // skipped wholesale. Bit-identical to the full path by the
        // `tick_idle` contract (pinned by the differential suites);
        // disabled under the `validate` feature so debug builds still
        // cross-check invariants at every tick.
        let idle = !cfg!(feature = "validate")
            && self.obs.is_none()
            && !self.cfg.record_timeline
            && self.policy.tick_idle(self.clock);
        if idle {
            self.window_busy = SimDuration::ZERO;
            self.window_start = self.clock;
            self.rearm_tick();
            self.take_checkpoint();
            return;
        }
        // One view serves both the policy tick and the timeline sample, so
        // the sample reflects pre-tick state exactly as the policy saw it.
        let observing = self.obs.is_some();
        let (signals, ready_queries, update_backlog_secs, utilization, query_backlog_secs) = self
            .with_view(|policy, view| {
                let query_backlog_secs = if observing {
                    view.query_backlog().as_secs_f64()
                } else {
                    0.0
                };
                (
                    policy.on_tick(view.now, view),
                    view.ready_queue_len(),
                    view.update_backlog.as_secs_f64(),
                    view.recent_utilization,
                    query_backlog_secs,
                )
            });
        for &s in &signals {
            self.signals.record(s);
        }
        if observing {
            self.emit(ObsEvent::ControlTick {
                time: self.clock,
                ready_queries,
                query_backlog_secs,
                update_backlog_secs,
                utilization,
                usm: self.counts.average_usm(&self.cfg.weights),
            });
            if let Some(ctl) = self.policy.controller_obs() {
                let count =
                    |sig: ControlSignal| signals.iter().filter(|&&s| s == sig).count() as u32;
                self.emit(ObsEvent::ControlStep {
                    time: self.clock,
                    c_flex: ctl.c_flex,
                    tac: count(ControlSignal::TightenAdmission),
                    lac: count(ControlSignal::LoosenAdmission),
                    degrade: count(ControlSignal::DegradeUpdates),
                    upgrade: count(ControlSignal::UpgradeUpdates),
                    degraded_items: ctl.degraded_items,
                    ticket_sum: ctl.ticket_sum,
                });
            }
            let now = self.clock;
            for m in self.policy.drain_modulation_obs() {
                self.emit(ObsEvent::TicketMass {
                    time: now,
                    item: m.item,
                    ticket: m.ticket,
                    old_period: m.old_period,
                    new_period: m.new_period,
                });
            }
        }
        // Time-triggered refreshes (deferrable-update style policies).
        let wanted = {
            let freshness = &self.freshness;
            self.policy
                .tick_refreshes(self.clock, &|d: DataId| freshness.udrop(d))
        };
        if self.spawn_refreshes(wanted) {
            self.reschedule();
        }
        if self.cfg.record_timeline {
            self.timeline.push(TimelineSample {
                time: self.clock,
                usm: self.counts.average_usm(&self.cfg.weights),
                ready_queries,
                update_backlog_secs,
                utilization,
            });
        }
        // New utilization window.
        self.window_busy = SimDuration::ZERO;
        self.window_start = self.clock;

        #[cfg(feature = "validate")]
        self.validate_invariants();

        self.rearm_tick();
        self.take_checkpoint();
    }

    /// Idle-tick fast-forward: when the policy certifies a run of pending
    /// ticks as no-ops ([`Policy::tick_idle_until`]), consume every
    /// certifiably idle tick strictly before the next heap event *without
    /// spending a step on any of them* — the enclosing [`Simulator::step`]
    /// then pops the real event directly. A sparse stretch of the run costs
    /// one step per heap event instead of one extra step per tick-train
    /// segment, making per-shard tick cost O(events) rather than
    /// O(horizon / tick_period) — crucial for many-shard cluster runs,
    /// where each shard replays the full tick train over a sparse slice of
    /// the trace.
    ///
    /// Sound because the certification premise — "no other hook fires in
    /// between" — holds by construction: every outcome, arrival, version,
    /// completion, and fault transition is a heap event, and the skip stops
    /// strictly before the heap head. Per consumed tick the only observable
    /// effects are the utilization-window roll (collapsed to the final
    /// roll: each roll just resets the window), the processed-event count,
    /// and one re-arm sequence number (burned via
    /// [`EventQueue::alloc_seqs`]), so the run stays bit-identical to the
    /// stepped one — the differential suites pin this. Disabled while
    /// observed, while recording a timeline, during a fault pause, and
    /// under the `validate` feature (debug builds cross-check invariants at
    /// every tick). O(1).
    fn fast_forward_idle_ticks(&mut self) {
        if cfg!(feature = "validate")
            || self.obs.is_some()
            || self.cfg.record_timeline
            || self.paused_until().is_some()
        {
            return;
        }
        let Some((t, _)) = self.next_tick else {
            return;
        };
        let period = self.cfg.tick_period.0;
        if period == 0 {
            return;
        }
        // Ticks strictly before `limit` are no-ops: below the policy bound,
        // and no heap event can interleave. (A tick *tying* the heap head
        // must go through the normal race, hence strict `<`.)
        let bound = self.policy.tick_idle_until();
        let mut limit = match self.events.peek_time() {
            Some(h) => bound.min(h),
            None => bound,
        };
        // Arrivals not yet fed are invisible to the heap, but the feed
        // contract bounds them from below (and an arrival ties below a tick
        // at the same instant): the trace's next one is known, a caller's
        // lands at or after `last_fed_arrival` until it signals
        // end-of-stream.
        let unfed_floor = match self.feed {
            Feed::Trace(_) => self.next_trace_arrival(),
            Feed::External => (!self.stream_exhausted).then_some(self.last_fed_arrival),
        };
        if let Some(floor) = unfed_floor {
            limit = limit.min(floor);
        }
        if t >= limit {
            return;
        }
        // The first tick may sit past the horizon (it is armed
        // unconditionally at start); leave that edge to the normal handler.
        let Some(horizon_room) = self.cfg.horizon.0.checked_sub(t.0) else {
            return;
        };
        // Consume the armed tick plus `extra` idle successors.
        let extra = ((limit.0 - t.0 - 1) / period).min(horizon_room / period);
        let t_last = SimTime(t.0 + extra * period);
        debug_assert!(t >= self.clock, "time went backwards");
        self.next_tick = None;
        self.clock = t_last;
        self.events_processed += extra + 1;
        // Each consumed tick's re-arm claimed one runtime sequence slot:
        // `extra` burned here, the last taken by `rearm_tick` below.
        self.events.alloc_seqs(extra);
        self.window_busy = SimDuration::ZERO;
        self.window_start = t_last;
        self.rearm_tick();
        // One snapshot at the collapsed boundary stands in for the skipped
        // per-tick snapshots: recovery only needs *a* checkpoint at or
        // before the crash instant plus the input log since it, and the
        // skip stops strictly before the crash's heap transition.
        self.take_checkpoint();
    }

    /// Claim the next tick's runtime sequence slot at exactly the point the
    /// heap push used to happen, but keep it tracked (see the `next_tick`
    /// field docs). Both tick paths (full and idle) end here, so the
    /// sequence-number tape is identical either way.
    fn rearm_tick(&mut self) {
        let next = self.clock + self.cfg.tick_period;
        if next.0 <= self.cfg.horizon.0 {
            self.next_tick = Some((next, self.events.alloc_seq()));
        }
    }

    /// Fault-transition hook: at a crash-window start preempt every running
    /// transaction (their scheduled completions go stale through the
    /// generation check, so nothing commits inside the window); at a
    /// recovery or burst instant inject any scheduled background load and
    /// re-fill the CPUs. O(n_cpus · log N_rq + B_now) plus the trailing
    /// [`Simulator::reschedule`].
    fn on_fault_transition(&mut self) {
        // Lose-state crashes come first: the restore rewinds the clock, and
        // the replayed run re-pops this very transition (with the crash
        // point consumed) to apply its ordinary semantics below.
        if self.crash_due() {
            self.perform_crash_recovery();
            return;
        }
        if let Some((until, from)) = self.replay {
            if until == self.clock {
                // The replay caught back up to the crash instant; from here
                // on the run breaks new ground again.
                self.replay = None;
                if self.obs.is_some() {
                    self.emit(ObsEvent::ReplayComplete {
                        time: until,
                        checkpoint: from,
                    });
                }
            }
        }
        let Some(health) = self.faults.as_deref().map(|h| h.health(self.clock)) else {
            debug_assert!(false, "FaultTransition scheduled without a hook");
            return;
        };
        if self.obs.is_some() {
            let (phase, until) = match health {
                HealthState::Up => (FaultPhase::Up, None),
                HealthState::Degraded { until } => (FaultPhase::Degraded, Some(until)),
                HealthState::Down { until } => (FaultPhase::Down, Some(until)),
            };
            self.emit(ObsEvent::FaultWindow {
                time: self.clock,
                phase,
                until,
            });
        }
        if health.queries_paused() {
            while !self.running.is_empty() {
                self.preempt_running(0);
            }
            return;
        }
        let loads = self
            .faults
            .as_deref()
            .map(|h| h.load_at(self.clock))
            .unwrap_or_default();
        for load in loads {
            self.fault_counts.background_spawned += 1;
            self.spawn_background(load.exec);
        }
        // Recovery instants reach here with an empty load list: this
        // reschedule is what restarts the work preempted at window start.
        self.reschedule();
    }

    /// Delayed-apply hook: spawn the update transaction that
    /// [`UpdateFault::Delay`] postponed, unless a crash/degradation window
    /// now drops it. O(log N_rq) plus the trailing
    /// [`Simulator::reschedule`].
    fn on_delayed_apply(&mut self, item: DataId, exec: SimDuration, edf_deadline: SimTime) {
        let dropped = self
            .faults
            .as_deref()
            .is_some_and(|h| h.health(self.clock).updates_dropped());
        if dropped {
            self.fault_counts.update_drops += 1;
            return;
        }
        self.spawn_update(item, exec, edf_deadline, false);
        self.reschedule();
    }

    /// The recovery instant of the current crash window, when the fault
    /// hook reports the server [`HealthState::Down`] at the current clock
    /// with a strictly-future recovery (the strictness guard makes a
    /// degenerate `until == now` window inert instead of self-deferring
    /// forever). `None` on every fault-free path. O(log F).
    fn paused_until(&self) -> Option<SimTime> {
        let hook = self.faults.as_deref()?;
        match hook.health(self.clock) {
            HealthState::Down { until } if until > self.clock => Some(until),
            _ => None,
        }
    }

    /// Cross-check the incremental engine structures against naive
    /// recomputation (see [`crate::validate`]): the work index vs an O(N)
    /// recount over the admitted set, the USM tallies vs the raw outcome
    /// log, and the transaction window's tightness (a live front, ids dense
    /// from its base). Runs at every control tick and once at end of run.
    #[cfg(feature = "validate")]
    fn validate_invariants(&self) {
        let mut naive: BTreeMap<SimTime, u64> = BTreeMap::new();
        for (&(deadline, _), e) in &self.admitted {
            if e.remaining.0 > 0 {
                *naive.entry(deadline).or_insert(0) += e.remaining.0;
            }
        }
        let naive_total: u64 = naive.values().sum();
        let entries: Vec<(SimTime, u64)> = naive.into_iter().collect();
        let total = self.work.total();
        unit_core::validate_check!(
            "work-index",
            if entries == self.work.entries() && naive_total == total {
                Ok(())
            } else {
                Err(format!(
                    "work index diverged: recount total {naive_total}, index total {total}"
                ))
            }
        );
        let front_live = self
            .txns
            .iter()
            .next()
            .map_or(true, |t| t.state != TxnState::Finished);
        let dense = self
            .txns
            .iter()
            .zip(self.txns.base().0..)
            .all(|(t, id)| t.id.0 == id);
        unit_core::validate_check!(
            "txn-window",
            if front_live && dense {
                Ok(())
            } else {
                Err(format!(
                    "transaction window from {:?} not tight: live front {front_live}, dense ids {dense}",
                    self.txns.base()
                ))
            }
        );
        unit_core::validate_check!(
            "usm-identity",
            crate::validate::check_usm_identity(&self.counts, &self.outcome_log, &self.cfg.weights)
        );
    }

    // --- scheduling ------------------------------------------------------

    /// Re-evaluate CPU ownership: fill idle CPUs with the highest-priority
    /// ready transactions, preempting lower-priority incumbents when every
    /// CPU is busy. Loops until no dispatchable candidate outranks the
    /// worst incumbent. O(D · (n_cpus + log N_rq)) where D is the number of
    /// dispatch attempts this call actually performs (usually 0 or 1).
    fn reschedule(&mut self) {
        if self.paused_until().is_some() {
            return; // crash window: nothing dispatches until recovery
        }
        loop {
            let Some(&key) = self.ready.iter().next() else {
                return;
            };
            if self.running.len() >= self.cfg.n_cpus {
                // All CPUs busy: preempt the lowest-priority incumbent if
                // the best ready candidate outranks it.
                #[expect(
                    clippy::expect_used,
                    reason = "running.len() >= n_cpus >= 1 on this branch"
                )]
                let (pos, worst_key) = self
                    .running
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (i, self.pkey(r.id)))
                    .max_by_key(|&(_, k)| k)
                    .expect("running is non-empty");
                if worst_key <= key {
                    return; // incumbents keep their CPUs
                }
                self.preempt_running(pos);
            }
            self.ready.remove(&key);
            let cand = key.2;
            match self.try_dispatch(cand) {
                DispatchResult::Running
                | DispatchResult::Blocked
                | DispatchResult::SpawnedRefresh => {}
            }
        }
    }

    fn preempt_running(&mut self, pos: usize) {
        let run = self.running.swap_remove(pos);
        let elapsed = self.clock.saturating_since(run.started);
        self.charge_cpu(elapsed);
        let txn = self.txns.at_mut(run.id);
        debug_assert_eq!(txn.state, TxnState::Running);
        txn.remaining = txn.remaining.saturating_sub(elapsed);
        if !txn.is_query() {
            self.outstanding_update_work = self.outstanding_update_work.saturating_sub(elapsed);
        }
        txn.state = TxnState::Ready;
        let key = self.pkey(run.id);
        self.ready.insert(key);
        self.sync_admitted_remaining(run.id);
        self.preemptions += 1;
    }

    fn try_dispatch(&mut self, id: TxnId) -> DispatchResult {
        debug_assert!(self.running.len() < self.cfg.n_cpus);
        match self.txns.at(id).kind {
            TxnKind::Query { spec_idx, .. } => self.try_dispatch_query(id, spec_idx),
            TxnKind::Update { item, .. } => self.try_dispatch_update(id, item),
            TxnKind::Background => {
                // Injected load takes no locks: straight onto the CPU.
                self.start_running(id);
                DispatchResult::Running
            }
        }
    }

    fn try_dispatch_query(&mut self, id: TxnId, spec_idx: usize) -> DispatchResult {
        // On-demand refreshes (ODU): before the query touches data, the
        // policy may demand update transactions for its stale items. Those
        // are update-class, so they will run first.
        if !self.txns.at(id).holds_locks {
            let spawned = self.spawn_demand_refreshes(spec_idx);
            if spawned {
                // The query goes back to the ready queue; the caller's loop
                // re-evaluates who runs next.
                self.txns.at_mut(id).state = TxnState::Ready;
                let key = self.pkey(id);
                self.ready.insert(key);
                return DispatchResult::SpawnedRefresh;
            }
        }

        if !self.txns.at(id).holds_locks {
            // Field-precise destructures: the spec lives in `queries`,
            // disjoint from every structure touched alongside it.
            let acquire = {
                let Simulator { queries, locks, .. } = self;
                locks.acquire_read(id, &queries.get(spec_idx).items)
            };
            match acquire {
                ReadAcquire::Granted => {
                    let f = self
                        .freshness
                        .read_set_freshness(&self.queries.get(spec_idx).items);
                    self.dispatch_freshness_sum += f;
                    self.dispatch_freshness_n += 1;
                    {
                        let txn = self.txns.at_mut(id);
                        txn.holds_locks = true;
                        if let TxnKind::Query {
                            freshness_at_dispatch,
                            ..
                        } = &mut txn.kind
                        {
                            *freshness_at_dispatch = Some(f);
                        }
                    }
                    {
                        let Simulator {
                            policy, queries, ..
                        } = self;
                        policy.on_query_dispatch(queries.get(spec_idx), f);
                    }
                }
                ReadAcquire::BlockedOn(d) => {
                    let txn = self.txns.at_mut(id);
                    txn.state = TxnState::Blocked;
                    txn.blocked_on = Some(d);
                    self.blocked.push(id);
                    return DispatchResult::Blocked;
                }
            }
        }
        self.start_running(id);
        DispatchResult::Running
    }

    fn try_dispatch_update(&mut self, id: TxnId, item: DataId) -> DispatchResult {
        if !self.txns.at(id).holds_locks {
            let my_key = self.pkey(id);
            let txns = &self.txns;
            let discipline = self.cfg.discipline;
            let result = self.locks.acquire_write(id, item, |holder: TxnId| {
                let h = txns.at(holder);
                my_key < (discipline.rank(h.class), h.edf_deadline, h.id)
            });
            match result {
                WriteAcquire::Granted { aborted } => {
                    self.txns.at_mut(id).holds_locks = true;
                    for victim in aborted {
                        self.restart_victim(victim);
                    }
                }
                WriteAcquire::BlockedOn(d) => {
                    let txn = self.txns.at_mut(id);
                    txn.state = TxnState::Blocked;
                    txn.blocked_on = Some(d);
                    self.blocked.push(id);
                    return DispatchResult::Blocked;
                }
            }
        }
        self.start_running(id);
        DispatchResult::Running
    }

    /// A lock holder evicted by 2PL-HP: full restart (§3.1). Its locks were
    /// already released by the lock manager. With multiple CPUs the victim
    /// may be running concurrently — stop it first.
    fn restart_victim(&mut self, victim: TxnId) {
        if let Some(pos) = self.running.iter().position(|r| r.id == victim) {
            let run = self.running.swap_remove(pos);
            let elapsed = self.clock.saturating_since(run.started);
            self.charge_cpu(elapsed);
            let txn = self.txns.at_mut(victim);
            txn.remaining = txn.remaining.saturating_sub(elapsed);
            if !txn.is_query() {
                self.outstanding_update_work = self.outstanding_update_work.saturating_sub(elapsed);
            }
            txn.state = TxnState::Ready;
            // Not reinserted into ready here: restart() below re-queues it.
        }
        let key = self.pkey(victim);
        self.ready.remove(&key);
        let txn = self.txns.at_mut(victim);
        debug_assert_ne!(txn.state, TxnState::Finished, "finished txns hold no locks");
        let was_query = txn.is_query();
        let lost_progress = txn.exec_time.saturating_sub(txn.remaining);
        txn.restart();
        let key = self.pkey(victim);
        self.ready.insert(key);
        if was_query {
            self.sync_admitted_remaining(victim);
            self.query_restarts += 1;
        } else {
            // An update victim restarts with its full demand again.
            self.outstanding_update_work += lost_progress;
        }
    }

    fn start_running(&mut self, id: TxnId) {
        let txn = self.txns.at_mut(id);
        txn.state = TxnState::Running;
        txn.blocked_on = None;
        let remaining = txn.remaining;
        let generation = self.next_generation;
        self.next_generation += 1;
        self.running.push(RunningTxn {
            id,
            started: self.clock,
            generation,
        });
        self.events.push(
            self.clock + remaining,
            Event::Completion {
                txn: id,
                generation,
            },
        );
    }

    fn spawn_update(
        &mut self,
        item: DataId,
        exec: SimDuration,
        edf_deadline: SimTime,
        on_demand: bool,
    ) {
        let id = self.txns.next_id();
        let txn = Txn {
            id,
            class: TxnClass::Update,
            edf_deadline,
            exec_time: exec,
            remaining: exec,
            state: TxnState::Ready,
            holds_locks: false,
            blocked_on: None,
            kind: TxnKind::Update { item, on_demand },
        };
        self.outstanding_update_work += exec;
        self.ready.insert(self.pkey_of(&txn));
        self.txns.push(txn);
    }

    /// Inject one background-load transaction (fault-schedule burst):
    /// update-class CPU demand, no locks, no item, no outcome. Its EDF
    /// deadline is the injection instant, so it outranks every pending
    /// periodic update — bursts bite immediately.
    fn spawn_background(&mut self, exec: SimDuration) {
        let id = self.txns.next_id();
        let txn = Txn {
            id,
            class: TxnClass::Update,
            edf_deadline: self.clock,
            exec_time: exec,
            remaining: exec,
            state: TxnState::Ready,
            holds_locks: false,
            blocked_on: None,
            kind: TxnKind::Background,
        };
        self.outstanding_update_work += exec;
        self.ready.insert(self.pkey_of(&txn));
        self.txns.push(txn);
    }

    fn unblock_waiters(&mut self, freed: &[DataId]) {
        if freed.is_empty() || self.blocked.is_empty() {
            return;
        }
        let mut unblocked = Vec::new();
        self.blocked.retain(|&b| {
            let txn = self.txns.at(b);
            match txn.blocked_on {
                Some(d) if freed.contains(&d) => {
                    unblocked.push(b);
                    false
                }
                _ => true,
            }
        });
        for id in unblocked {
            {
                let txn = self.txns.at_mut(id);
                txn.state = TxnState::Ready;
                txn.blocked_on = None;
            }
            let key = self.pkey(id);
            self.ready.insert(key);
        }
    }

    // --- bookkeeping -----------------------------------------------------

    fn charge_cpu(&mut self, elapsed: SimDuration) {
        self.cpu_busy += elapsed;
        self.window_busy += elapsed;
    }

    fn record_outcome(&mut self, spec_idx: usize, outcome: Outcome) {
        self.counts.record(outcome);
        #[cfg(feature = "validate")]
        self.outcome_log.push(outcome);
        let spec_id = self.queries.get(spec_idx).id;
        if self.cfg.record_outcomes {
            self.outcome_records.push(crate::stats::OutcomeRecord {
                seq: self.outcome_records.len() as u64,
                time: self.clock,
                query: spec_id,
                outcome,
            });
        }
        {
            let Simulator {
                policy, queries, ..
            } = self;
            policy.on_query_outcome(queries.get(spec_idx), outcome);
        }
        if self.obs.is_some() {
            self.emit(ObsEvent::QueryOutcome {
                time: self.clock,
                query: spec_id,
                outcome,
            });
        }
        // The outcome is the spec's last use: a streamed slot is recycled
        // here, bounding slab growth by the in-flight query count.
        self.queries.release(spec_idx);
    }

    // --- policy views ----------------------------------------------------

    /// The cheap [`SnapshotView`] scalars — the update backlog adjusted for
    /// the in-progress slices of running updates, and the windowed CPU
    /// utilization — in `O(n_cpus)`.
    fn view_scalars(&self) -> (SimDuration, f64) {
        let mut update_backlog = self.outstanding_update_work;
        for r in &self.running {
            if !self.txns.at(r.id).is_query() {
                update_backlog =
                    update_backlog.saturating_sub(self.clock.saturating_since(r.started));
            }
        }

        let window = self.clock.saturating_since(self.window_start);
        let mut busy = self.window_busy;
        for r in &self.running {
            // Include the in-progress slice of each current runner.
            let started = r.started.max(self.window_start);
            busy += self.clock.saturating_since(started);
        }
        let recent_utilization = if window.is_zero() {
            0.0
        } else {
            (busy.as_secs_f64() / (window.as_secs_f64() * self.cfg.n_cpus as f64)).min(1.0)
        };
        (update_backlog, recent_utilization)
    }

    /// Run `f(policy, view)` with a borrowed [`SnapshotView`] over the live
    /// indexes: no admitted-query list is materialized unless the policy
    /// asks for one, and work probes go through the work index.
    fn with_view<R>(&mut self, f: impl FnOnce(&mut P, &SnapshotView<'_>) -> R) -> R {
        let (update_backlog, recent_utilization) = self.view_scalars();
        let Simulator {
            policy,
            clock,
            admitted,
            work,
            running,
            txns,
            view_scratch,
            ..
        } = self;
        let source = EngineQueue {
            clock: *clock,
            admitted: &*admitted,
            work: &*work,
            running: &*running,
            txns: &*txns,
            scratch: &*view_scratch,
        };
        let view = SnapshotView::new(*clock, update_backlog, recent_utilization, &source);
        f(policy, &view)
    }

    /// Like [`Simulator::with_view`], but also hands the closure the spec
    /// behind `spec_idx` (the query store is disjoint from every view
    /// input, so the extra borrow is free).
    fn with_view_spec<R>(
        &mut self,
        spec_idx: usize,
        f: impl FnOnce(&mut P, &QuerySpec, &SnapshotView<'_>) -> R,
    ) -> R {
        let (update_backlog, recent_utilization) = self.view_scalars();
        let Simulator {
            policy,
            queries,
            clock,
            admitted,
            work,
            running,
            txns,
            view_scratch,
            ..
        } = self;
        let source = EngineQueue {
            clock: *clock,
            admitted: &*admitted,
            work: &*work,
            running: &*running,
            txns: &*txns,
            scratch: &*view_scratch,
        };
        let view = SnapshotView::new(*clock, update_backlog, recent_utilization, &source);
        f(policy, queries.get(spec_idx), &view)
    }

    // --- admitted-query index maintenance --------------------------------

    fn insert_admitted(&mut self, spec_idx: usize, txn: TxnId) {
        let (deadline, spec_id, exec) = {
            let spec = self.queries.get(spec_idx);
            (spec.deadline(), spec.id, spec.exec_time)
        };
        let prev = self.admitted.insert(
            (deadline, spec_id),
            AdmittedEntry {
                txn,
                remaining: exec,
            },
        );
        debug_assert!(prev.is_none(), "query admitted twice");
        self.work.add(deadline, exec.0);
    }

    /// Re-sync the stored remaining of an admitted query after its
    /// transaction's `remaining` changed at rest (preemption or 2PL-HP
    /// restart). No-op for update transactions.
    fn sync_admitted_remaining(&mut self, id: TxnId) {
        let txn = self.txns.at(id);
        let TxnKind::Query { spec_idx, .. } = txn.kind else {
            return;
        };
        let deadline = txn.edf_deadline;
        let key = (deadline, self.queries.get(spec_idx).id);
        let new = txn.remaining;
        #[expect(
            clippy::expect_used,
            reason = "insert/remove are paired with txn lifecycle"
        )]
        let entry = self
            .admitted
            .get_mut(&key)
            .expect("unfinished query must be admitted");
        let old = entry.remaining;
        entry.remaining = new;
        if new >= old {
            self.work.add(deadline, new.0 - old.0);
        } else {
            self.work.sub(deadline, old.0 - new.0);
        }
    }

    fn remove_admitted(&mut self, id: TxnId) {
        let txn = self.txns.at(id);
        let TxnKind::Query { spec_idx, .. } = txn.kind else {
            unreachable!("only queries enter the admitted index");
        };
        let deadline = txn.edf_deadline;
        let key = (deadline, self.queries.get(spec_idx).id);
        #[expect(
            clippy::expect_used,
            reason = "insert/remove are paired with txn lifecycle"
        )]
        let entry = self
            .admitted
            .remove(&key)
            .expect("unfinished query must be admitted");
        self.work.sub(deadline, entry.remaining.0);
    }
}
