//! # The live serving runtime
//!
//! Thread-per-core workers draining an in-process MPSC ingress channel,
//! running UNIT admission and update-frequency modulation against
//! *wall-clock* deadlines (or any other [`Clock`]), with every state
//! mutation routed through a [`TransactionManager`].
//!
//! ## Timeline mapping
//!
//! Traces speak virtual µs; the live server speaks clock ticks. A run is
//! parameterized by `time_scale`: virtual instant `a` maps to clock tick
//! `a / time_scale`, so one knob compresses an hour-long trace into a
//! seconds-long serve while shrinking deadlines and service demands by
//! the same factor (a paced run is a time-lapse of the simulated one).
//! With pacing off, requests are injected as fast as the channel accepts
//! and only deadlines/exec demands are scaled — the throughput-benchmark
//! mode.
//!
//! ## What is approximated relative to the simulator
//!
//! The deterministic engine is the reference; the live server trades
//! three of its exactnesses for concurrency, and the wall-clock test
//! suite bounds the residue (`tests/wall_clock.rs`):
//!
//! * **admission state is worker-local** — each worker owns a policy
//!   instance and sees the shared in-service table at lock-acquisition
//!   time, not a serialized global order;
//! * **firm deadlines are detected at completion**, not preemptively at
//!   expiry (the engine aborts mid-run);
//! * **control ticks are per-worker**, paced by each worker's progress
//!   through its own request stream.

use crate::ingress::Request;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use unit_core::clock::Clock;
use unit_core::policy::Policy;
use unit_core::snapshot::{QueueEntryView, SystemSnapshot};
use unit_core::time::{SimDuration, SimTime};
use unit_core::txn::TransactionManager;
use unit_core::types::{Outcome, Trace, TxnClass, UpdateSpec};
use unit_core::usm::{OutcomeCounts, UsmWeights};
use unit_obs::ObsEvent;

/// Ingress channel bound: arrivals in flight ahead of the workers.
const CHANNEL_CAPACITY: usize = 1024;

/// Serving-run knobs. Construct with [`ServeConfig::new`], then chain
/// `with_*`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-thread count (thread-per-core is `available_parallelism`).
    pub workers: usize,
    /// Virtual µs per clock tick: virtual instant `a` serves at tick
    /// `a / time_scale`. Also scales deadlines and service demands.
    pub time_scale: u64,
    /// Pace arrivals on the scaled timeline (`true`), or inject flat-out
    /// and scale only deadlines/demands (`false`).
    pub paced: bool,
    /// Control-tick period, in *virtual* µs (scaled like everything else).
    pub tick_period: SimDuration,
    /// USM weights for the report's utility tally.
    pub weights: UsmWeights,
    /// Record per-worker observability lanes into the report.
    pub observe: bool,
}

impl ServeConfig {
    /// A config with `workers` workers at the given time scale, paced,
    /// with a 1024-deep ingress, 10 s virtual ticks, naive weights, and
    /// observation off.
    #[must_use]
    pub fn new(workers: usize, time_scale: u64) -> Self {
        ServeConfig {
            workers: workers.max(1),
            time_scale: time_scale.max(1),
            paced: true,
            tick_period: SimDuration::from_secs(10),
            weights: UsmWeights::default(),
            observe: false,
        }
    }

    /// Disable arrival pacing (throughput mode): inject as fast as the
    /// channel accepts; deadlines and demands stay scaled.
    #[must_use]
    pub fn flat_out(mut self) -> Self {
        self.paced = false;
        self
    }

    /// Set the USM weights used in the report.
    #[must_use]
    pub fn with_weights(mut self, weights: UsmWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Record per-worker observability lanes into the report.
    #[must_use]
    pub fn with_observation(mut self) -> Self {
        self.observe = true;
        self
    }

    fn scale_dur(&self, d: SimDuration) -> SimDuration {
        SimDuration((d.0 / self.time_scale).max(1))
    }

    fn scale_time(&self, t: SimTime) -> SimTime {
        SimTime(t.0 / self.time_scale)
    }
}

/// What one serving run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Policy name (from [`Policy::name`]).
    pub policy: String,
    /// Worker threads that served the run.
    pub workers: usize,
    /// Queries submitted into the ingress channel.
    pub submitted: u64,
    /// Outcome tally; conservation demands `counts.total() == submitted`.
    pub counts: OutcomeCounts,
    /// Source versions that arrived (update-stream side).
    pub updates_arrived: u64,
    /// Versions actually installed (after modulation/skipping).
    pub updates_applied: u64,
    /// Wall (clock) ticks from first injection to last completion.
    pub elapsed: SimDuration,
    /// The USM weights the report was tallied under.
    pub weights: UsmWeights,
    /// Per-worker observability lanes (each event wrapped in
    /// [`ObsEvent::Shard`] with `shard = worker`), when observation was on.
    pub events: Vec<ObsEvent>,
}

impl ServeReport {
    /// Sustained query throughput in completed operations per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.0 == 0 {
            return 0.0;
        }
        self.counts.total() as f64 / (self.elapsed.0 as f64 / 1_000_000.0)
    }

    /// Total user-satisfaction metric under the run's weights.
    #[must_use]
    pub fn total_usm(&self) -> f64 {
        self.counts.total_usm(&self.weights)
    }

    /// Conservation: every submitted query reached exactly one outcome.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.counts.total() == self.submitted
    }
}

/// Outcome + in-service bookkeeping shared by every worker.
struct LiveState {
    /// Admitted-but-unfinished queries (the policy's ready-queue view)
    /// plus the update backlog estimate, under one lock — an admission
    /// decision sees a consistent pair.
    inner: Mutex<LiveInner>,
    updates_arrived: AtomicU64,
    updates_applied: AtomicU64,
    /// Ticks workers spent processing requests (utilization estimate).
    busy: AtomicU64,
    stop_updates: AtomicBool,
}

struct LiveInner {
    in_service: Vec<QueueEntryView>,
    update_backlog: SimDuration,
}

impl LiveState {
    fn new() -> Self {
        LiveState {
            inner: Mutex::new(LiveInner {
                in_service: Vec::new(),
                update_backlog: SimDuration::ZERO,
            }),
            updates_arrived: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            stop_updates: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LiveInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Owned snapshot for one policy decision: the in-service table and
    /// backlog at lock-acquisition time, utilization from busy-tick
    /// accounting.
    fn snapshot(&self, now: SimTime, workers: usize) -> SystemSnapshot {
        let (queries, update_backlog) = {
            let inner = self.lock();
            (inner.in_service.clone(), inner.update_backlog)
        };
        let busy = self.busy.load(Ordering::Relaxed);
        let capacity = now.0.saturating_mul(workers as u64).max(1);
        SystemSnapshot {
            now,
            queries,
            update_backlog,
            recent_utilization: (busy as f64 / capacity as f64).min(1.0),
        }
    }

    fn admit(&self, entry: QueueEntryView) {
        self.lock().in_service.push(entry);
    }

    fn complete(&self, id: unit_core::types::QueryId) {
        let mut inner = self.lock();
        if let Some(idx) = inner.in_service.iter().position(|e| e.id == id) {
            inner.in_service.swap_remove(idx);
        }
    }
}

/// One worker's run state: its own policy, tick cadence, and obs lane.
struct Worker<'a, P: Policy> {
    policy: P,
    state: &'a LiveState,
    clock: &'a dyn Clock,
    backend: &'a (dyn TransactionManager + Sync),
    cfg: &'a ServeConfig,
    next_tick: SimTime,
    tick_wall: SimDuration,
    counts: OutcomeCounts,
    events: Vec<ObsEvent>,
}

impl<P: Policy> Worker<'_, P> {
    fn maybe_tick(&mut self, now: SimTime) {
        if now < self.next_tick {
            return;
        }
        let snap = self.state.snapshot(now, self.cfg.workers);
        self.policy.on_tick(now, &snap.view());
        while self.next_tick <= now {
            self.next_tick += self.tick_wall;
        }
    }

    fn serve_one(&mut self, req: Request) {
        let start = self.clock.now();
        self.maybe_tick(start);
        let q = &req.spec;

        // Admission against an owned snapshot of the shared live state.
        let snap = self.state.snapshot(start, self.cfg.workers);
        let decision = self.policy.on_query_arrival(q, &snap.view());
        if self.cfg.observe {
            let obs = self.policy.last_admission();
            self.events.push(ObsEvent::Admission {
                time: start,
                query: q.id,
                decision,
                verdict: obs.map(|o| o.verdict),
                c_flex: obs.map(|o| o.c_flex),
            });
        }
        if !decision.is_admit() {
            self.finish(q, start, Outcome::Rejected);
            return;
        }

        let deadline = req.deadline;
        self.state.admit(QueueEntryView {
            id: q.id,
            deadline,
            remaining: q.exec_time,
            pref_class: q.pref_class,
        });

        // Execute: read the query's items through the transaction API,
        // holding the CPU for the scaled service demand.
        let min_freshness = match self.backend.begin(TxnClass::Query, start) {
            Ok(txn) => {
                for &item in &q.items {
                    let _ = self.backend.read(txn, item, self.clock.now());
                }
                let target = start + q.exec_time;
                while self.clock.now() < target {
                    std::hint::spin_loop();
                }
                match self.backend.commit(txn, self.clock.now()) {
                    Ok(summary) => summary.min_freshness,
                    Err(_) => 0.0,
                }
            }
            Err(_) => 0.0,
        };

        let end = self.clock.now();
        self.state.complete(q.id);
        self.state
            .busy
            .fetch_add((end - start).0, Ordering::Relaxed);
        let outcome = if end > deadline {
            Outcome::DeadlineMiss
        } else if min_freshness < q.freshness_req {
            Outcome::DataStale
        } else {
            Outcome::Success
        };
        self.finish(q, end, outcome);
    }

    fn finish(&mut self, q: &unit_core::types::QuerySpec, now: SimTime, outcome: Outcome) {
        self.counts.record(outcome);
        self.policy.on_query_outcome(q, outcome);
        if self.cfg.observe {
            self.events.push(ObsEvent::QueryOutcome {
                time: now,
                query: q.id,
                outcome,
            });
        }
    }
}

/// Poison-tolerant receiver lock (the ingress receiver is shared).
fn recv_next(rx: &Mutex<Receiver<Request>>) -> Option<Request> {
    let guard = match rx.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.recv().ok()
}

/// Drive the update streams: pace each stream's version arrivals on the
/// scaled timeline, record every arrival at the backend, and apply or
/// skip each version as the (updater-owned) policy decides.
fn run_updates<P: Policy>(
    mut policy: P,
    updates: &[UpdateSpec],
    horizon: SimDuration,
    state: &LiveState,
    clock: &dyn Clock,
    backend: &(dyn TransactionManager + Sync),
    cfg: &ServeConfig,
) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Earliest-next-arrival schedule over all streams, on the virtual
    // timeline (ties broken by stream index for determinism).
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = updates
        .iter()
        .enumerate()
        .map(|(idx, u)| Reverse((u.first_arrival, idx)))
        .collect();
    let end = SimTime::ZERO + horizon;

    while let Some(Reverse((arrival, idx))) = heap.pop() {
        if arrival > end || state.stop_updates.load(Ordering::SeqCst) {
            return;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "idx came from enumerating this same slice"
        )]
        let stream = &updates[idx];
        // Sleep (in interruptible slices) until the scaled wall instant.
        let wall_target = cfg.scale_time(arrival);
        if cfg.paced {
            loop {
                let now = clock.now();
                if now >= wall_target || state.stop_updates.load(Ordering::SeqCst) {
                    break;
                }
                let remaining = (wall_target - now).0.min(10_000);
                std::thread::sleep(std::time::Duration::from_micros(remaining));
            }
            if state.stop_updates.load(Ordering::SeqCst) {
                return;
            }
        }

        let now = clock.now();
        let _ = backend.observe_version(stream.item, now);
        state.updates_arrived.fetch_add(1, Ordering::Relaxed);
        let snap = state.snapshot(now, cfg.workers);
        if policy
            .on_version_arrival(stream.item, now, &snap.view())
            .is_apply()
        {
            let exec = cfg.scale_dur(stream.exec_time);
            state.lock().update_backlog += exec;
            if let Ok(txn) = backend.begin(TxnClass::Update, now) {
                let _ = backend.apply(txn, stream.item, now);
                if backend.commit(txn, clock.now()).is_ok() {
                    state.updates_applied.fetch_add(1, Ordering::Relaxed);
                    policy.on_update_commit(stream.item, exec);
                }
            }
            let mut inner = state.lock();
            inner.update_backlog = SimDuration(inner.update_backlog.0.saturating_sub(exec.0));
        }
        heap.push(Reverse((arrival + stream.period, idx)));
    }
}

/// Serve a trace's queries live: spawn `cfg.workers` worker threads and
/// one updater thread, inject every query through the bounded ingress
/// channel (paced or flat-out), and tally the outcomes.
///
/// `make_policy(i)` builds the policy instance for worker `i`; index
/// `cfg.workers` is the updater's instance. Each instance is
/// [`Policy::init`]-ed with the trace's database size and update streams.
///
/// The trace's virtual timeline is mapped onto `clock` ticks via
/// `cfg.time_scale` (see the module docs). `horizon` bounds the update
/// streams — pass the trace bundle's horizon.
#[expect(
    clippy::expect_used,
    reason = "policies holds exactly workers + 1 entries, and a worker or updater thread panicking is already fatal"
)]
pub fn serve<P, F>(
    cfg: &ServeConfig,
    clock: &dyn Clock,
    backend: &(dyn TransactionManager + Sync),
    trace: &Trace,
    horizon: SimDuration,
    make_policy: F,
) -> ServeReport
where
    P: Policy + Send,
    F: Fn(usize) -> P,
{
    let state = LiveState::new();
    let (tx, rx) = std::sync::mpsc::sync_channel::<Request>(CHANNEL_CAPACITY);
    let rx = Mutex::new(rx);
    let tick_wall = cfg.scale_dur(cfg.tick_period);

    let mut policies = Vec::with_capacity(cfg.workers + 1);
    for i in 0..=cfg.workers {
        let mut p = make_policy(i);
        p.init(trace.n_items, &trace.updates);
        p.set_observed(cfg.observe && i < cfg.workers);
        policies.push(p);
    }
    let updater_policy = policies.pop().expect("one policy per worker + updater");
    let policy_name = updater_policy.name().to_string();

    let mut submitted = 0u64;
    let mut counts = OutcomeCounts::default();
    let mut events = Vec::new();

    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(cfg.workers);
        for policy in policies {
            let rx = &rx;
            let state = &state;
            let worker = Worker {
                policy,
                state,
                clock,
                backend,
                cfg,
                next_tick: SimTime::ZERO + tick_wall,
                tick_wall,
                counts: OutcomeCounts::default(),
                events: Vec::new(),
            };
            workers.push(scope.spawn(move || {
                let mut worker = worker;
                while let Some(req) = recv_next(rx) {
                    worker.serve_one(req);
                }
                (worker.counts, worker.events)
            }));
        }
        let updater = scope.spawn(|| {
            run_updates(
                updater_policy,
                &trace.updates,
                horizon,
                &state,
                clock,
                backend,
                cfg,
            );
        });

        // Producer: inject queries in arrival order, pacing if asked.
        submitted = inject(cfg, clock, trace, &tx);
        drop(tx); // disconnect: workers drain and exit

        for (i, handle) in workers.into_iter().enumerate() {
            let (c, evs) = handle.join().expect("worker thread panicked");
            counts.success += c.success;
            counts.rejected += c.rejected;
            counts.deadline_miss += c.deadline_miss;
            counts.data_stale += c.data_stale;
            for (seq, event) in evs.into_iter().enumerate() {
                events.push(ObsEvent::Shard {
                    shard: i as u32,
                    seq: seq as u64,
                    event: Box::new(event),
                });
            }
        }
        state.stop_updates.store(true, Ordering::SeqCst);
        updater.join().expect("updater thread panicked");
    });

    ServeReport {
        policy: policy_name,
        workers: cfg.workers,
        submitted,
        counts,
        updates_arrived: state.updates_arrived.load(Ordering::Relaxed),
        updates_applied: state.updates_applied.load(Ordering::Relaxed),
        elapsed: clock.now() - SimTime::ZERO,
        weights: cfg.weights,
        events,
    }
}

/// Inject every query, stamping arrivals and deadlines onto the scaled
/// clock timeline. Returns the number submitted.
fn inject(cfg: &ServeConfig, clock: &dyn Clock, trace: &Trace, tx: &SyncSender<Request>) -> u64 {
    let mut submitted = 0u64;
    for spec in &trace.queries {
        let wall_arrival = cfg.scale_time(spec.arrival);
        if cfg.paced {
            loop {
                let now = clock.now();
                if now >= wall_arrival {
                    break;
                }
                let remaining = (wall_arrival - now).0.min(10_000);
                std::thread::sleep(std::time::Duration::from_micros(remaining));
            }
        }
        let enqueue = clock.now();
        let mut stamped = spec.clone();
        stamped.arrival = enqueue;
        stamped.relative_deadline = cfg.scale_dur(spec.relative_deadline);
        stamped.exec_time = cfg.scale_dur(spec.exec_time);
        let deadline = enqueue + stamped.relative_deadline;
        let mut req = Request {
            spec: stamped,
            enqueue,
            deadline,
        };
        // Bounded channel: block until a worker frees a slot.
        loop {
            match tx.try_send(req) {
                Ok(()) => break,
                Err(TrySendError::Full(back)) => {
                    req = back;
                    std::thread::yield_now();
                }
                Err(TrySendError::Disconnected(_)) => return submitted,
            }
        }
        submitted += 1;
    }
    submitted
}
