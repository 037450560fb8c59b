//! Wrappers the benchmark puts around the program's public seams.
//!
//! * [`LatencyProbe`] — the only thing between the server and its policy on
//!   an untraced paced run: `ServeReport` carries no per-query timing, so
//!   the probe stamps admission and outcome with the run's own clock.
//! * [`TimedPolicy`], [`TimedBackend`], [`TimedIter`] — the traced run:
//!   every `Policy` hook, every `TransactionManager` call and every pull of
//!   the streaming generator timed into [`crate::trace`].
//!
//! Every wrapper forwards every call and changes no decision; the self-tests
//! hold `report_digest` identical with and without them.

use crate::trace::{Op, TraceSink, NO_QUERY};
use std::sync::{Arc, Mutex};
use unit_core::checkpoint::{CheckpointError, Dec, Enc};
use unit_core::clock::Clock;
use unit_core::observe::{AdmissionObs, ControllerObs, ModulationObs};
use unit_core::policy::{AdmissionDecision, ControlSignal, Policy, UpdateAction};
use unit_core::snapshot::SnapshotView;
use unit_core::time::{SimDuration, SimTime};
use unit_core::txn::{CommitSummary, ReadVersion, TransactionManager, TxnError, TxnToken};
use unit_core::types::{DataId, Outcome, QuerySpec, TxnClass, UpdateSpec};

/// Forward the `Policy` methods the wrappers do not instrument.
macro_rules! forward_untimed_hooks {
    () => {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn init(&mut self, n_items: usize, updates: &[UpdateSpec]) {
            self.inner.init(n_items, updates);
        }
        fn demand_refresh(&mut self, q: &QuerySpec, udrop: &dyn Fn(DataId) -> u64) -> Vec<DataId> {
            self.inner.demand_refresh(q, udrop)
        }
        fn tick_refreshes(&mut self, now: SimTime, udrop: &dyn Fn(DataId) -> u64) -> Vec<DataId> {
            self.inner.tick_refreshes(now, udrop)
        }
        fn refresh_at_admission(&self) -> bool {
            self.inner.refresh_at_admission()
        }
        fn on_query_dispatch(&mut self, q: &QuerySpec, freshness: f64) {
            self.inner.on_query_dispatch(q, freshness);
        }
        fn tick_idle_until(&self) -> SimTime {
            self.inner.tick_idle_until()
        }
        fn tick_idle(&self, now: SimTime) -> bool {
            self.inner.tick_idle(now)
        }
        fn current_period(&self, item: DataId) -> Option<SimDuration> {
            self.inner.current_period(item)
        }
        fn checkpoint_state(&self, enc: &mut Enc) {
            self.inner.checkpoint_state(enc);
        }
        fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
            self.inner.restore_state(dec)
        }
        fn set_observed(&mut self, observed: bool) {
            self.inner.set_observed(observed);
        }
        fn last_admission(&self) -> Option<AdmissionObs> {
            self.inner.last_admission()
        }
        fn controller_obs(&self) -> Option<ControllerObs> {
            self.inner.controller_obs()
        }
        fn drain_modulation_obs(&mut self) -> Vec<ModulationObs> {
            self.inner.drain_modulation_obs()
        }
    };
}

/// One served query as the probe saw it, in clock ticks (µs at
/// `time_scale` 1) since the run's clock started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTiming {
    pub id: u32,
    /// When the trace wanted the query sent. The probe cannot know it; the
    /// runner fills it in from the trace after the run.
    pub due: u32,
    /// The injector's enqueue stamp (`QuerySpec::arrival` as the server
    /// rewrote it).
    pub enqueue: u32,
    /// Entry of the admission hook.
    pub admit: u32,
    /// Entry of the outcome hook.
    pub done: u32,
    pub outcome: Outcome,
}

/// Where the probes of one run hand their records when they are dropped.
pub type TimingSink = Arc<Mutex<Vec<QueryTiming>>>;

/// Thin timing wrapper: one `Clock::now()` and one write into a
/// preallocated vector per hook.
pub struct LatencyProbe<'a, P: Policy> {
    inner: P,
    clock: &'a dyn Clock,
    records: Vec<QueryTiming>,
    sink: TimingSink,
}

impl<'a, P: Policy> LatencyProbe<'a, P> {
    pub fn new(inner: P, clock: &'a dyn Clock, capacity: usize, sink: TimingSink) -> Self {
        LatencyProbe {
            inner,
            clock,
            records: Vec::with_capacity(capacity),
            sink,
        }
    }
}

impl<P: Policy> Drop for LatencyProbe<'_, P> {
    fn drop(&mut self) {
        // A poisoned sink means a sibling already panicked; nothing to add.
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.records);
        }
    }
}

impl<P: Policy> Policy for LatencyProbe<'_, P> {
    forward_untimed_hooks!();

    fn on_query_arrival(&mut self, q: &QuerySpec, sys: &SnapshotView<'_>) -> AdmissionDecision {
        let now = self.clock.now().0 as u32;
        self.records.push(QueryTiming {
            id: q.id.0 as u32,
            due: 0,
            enqueue: q.arrival.0 as u32,
            admit: now,
            done: now,
            outcome: Outcome::Rejected,
        });
        self.inner.on_query_arrival(q, sys)
    }

    fn on_query_outcome(&mut self, q: &QuerySpec, outcome: Outcome) {
        let now = self.clock.now().0 as u32;
        // A worker serves one query at a time, so the open record is the last.
        if let Some(r) = self.records.last_mut().filter(|r| r.id == q.id.0 as u32) {
            r.done = now;
            r.outcome = outcome;
        }
        self.inner.on_query_outcome(q, outcome);
    }

    fn on_version_arrival(
        &mut self,
        item: DataId,
        now: SimTime,
        sys: &SnapshotView<'_>,
    ) -> UpdateAction {
        self.inner.on_version_arrival(item, now, sys)
    }

    fn on_update_commit(&mut self, item: DataId, exec_time: SimDuration) {
        self.inner.on_update_commit(item, exec_time);
    }

    fn on_tick(&mut self, now: SimTime, sys: &SnapshotView<'_>) -> Vec<ControlSignal> {
        self.inner.on_tick(now, sys)
    }
}

/// Times every decision hook of the wrapped policy into the trace.
///
/// `serving` says whether the wrapper sits inside the live server (where a
/// query's admission and outcome hooks bracket its service on one thread, so
/// they open and close the query's root span) or inside the simulator (where
/// hooks of different queries interleave and are recorded one by one).
pub struct TimedPolicy<P: Policy> {
    inner: P,
    sink: TraceSink,
    serving: bool,
}

impl<P: Policy> TimedPolicy<P> {
    pub fn new(inner: P, sink: TraceSink, serving: bool) -> Self {
        TimedPolicy {
            inner,
            sink,
            serving,
        }
    }
}

impl<P: Policy> Drop for TimedPolicy<P> {
    fn drop(&mut self) {
        // The policy is dropped on the thread that drove it, so this hands
        // over exactly the buffer its hooks (and that thread's backend calls)
        // filled.
        self.sink.flush_thread();
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    forward_untimed_hooks!();

    fn on_query_arrival(&mut self, q: &QuerySpec, sys: &SnapshotView<'_>) -> AdmissionDecision {
        let t0 = self.sink.now_ns();
        if self.serving {
            self.sink.open_query(q.id.0, t0);
        }
        let decision = self.inner.on_query_arrival(q, sys);
        let t1 = self.sink.now_ns();
        if self.serving {
            self.sink.record_in_query(Op::PolicyArrival, t0, t1);
        } else {
            self.sink.record(Op::PolicyArrival, t0, t1, q.id.0);
        }
        decision
    }

    fn on_query_outcome(&mut self, q: &QuerySpec, outcome: Outcome) {
        let t0 = self.sink.now_ns();
        if self.serving {
            self.sink.close_query(q.id.0, t0);
        }
        self.inner.on_query_outcome(q, outcome);
        self.sink
            .record(Op::PolicyOutcome, t0, self.sink.now_ns(), q.id.0);
    }

    fn on_version_arrival(
        &mut self,
        item: DataId,
        now: SimTime,
        sys: &SnapshotView<'_>,
    ) -> UpdateAction {
        let t0 = self.sink.now_ns();
        let action = self.inner.on_version_arrival(item, now, sys);
        self.sink
            .record(Op::PolicyVersion, t0, self.sink.now_ns(), NO_QUERY);
        action
    }

    fn on_update_commit(&mut self, item: DataId, exec_time: SimDuration) {
        let t0 = self.sink.now_ns();
        self.inner.on_update_commit(item, exec_time);
        self.sink
            .record(Op::PolicyUpdateCommit, t0, self.sink.now_ns(), NO_QUERY);
    }

    fn on_tick(&mut self, now: SimTime, sys: &SnapshotView<'_>) -> Vec<ControlSignal> {
        let t0 = self.sink.now_ns();
        let signals = self.inner.on_tick(now, sys);
        self.sink
            .record(Op::PolicyTick, t0, self.sink.now_ns(), NO_QUERY);
        self.sink.add_signals(signals.len() as u64);
        signals
    }
}

/// Times every call into the wrapped transaction manager. Calls made while
/// a served query is open on the calling thread become children of that
/// query's root span.
pub struct TimedBackend<B> {
    inner: B,
    sink: TraceSink,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B, sink: TraceSink) -> Self {
        TimedBackend { inner, sink }
    }

    fn timed<T>(
        &self,
        op: Op,
        call: impl FnOnce(&B) -> Result<T, TxnError>,
    ) -> Result<T, TxnError> {
        let t0 = self.sink.now_ns();
        let result = call(&self.inner);
        self.sink.record_in_query(op, t0, self.sink.now_ns());
        if result.is_err() {
            self.sink.record_error(op);
        }
        result
    }
}

impl<B: TransactionManager> TransactionManager for TimedBackend<B> {
    fn begin(&self, class: TxnClass, now: SimTime) -> Result<TxnToken, TxnError> {
        self.timed(Op::MemBegin, |b| b.begin(class, now))
    }

    fn read(&self, txn: TxnToken, item: DataId, now: SimTime) -> Result<ReadVersion, TxnError> {
        self.timed(Op::MemRead, |b| b.read(txn, item, now))
    }

    fn apply(&self, txn: TxnToken, item: DataId, now: SimTime) -> Result<(), TxnError> {
        self.timed(Op::MemApply, |b| b.apply(txn, item, now))
    }

    fn commit(&self, txn: TxnToken, now: SimTime) -> Result<CommitSummary, TxnError> {
        self.timed(Op::MemCommit, |b| b.commit(txn, now))
    }

    fn abort(&self, txn: TxnToken) -> Result<(), TxnError> {
        self.inner.abort(txn)
    }

    fn observe_version(&self, item: DataId, now: SimTime) -> Result<(), TxnError> {
        self.timed(Op::MemObserveVersion, |b| b.observe_version(item, now))
    }

    fn udrop(&self, item: DataId) -> Result<u64, TxnError> {
        self.inner.udrop(item)
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }
}

/// Times each `next()` of the wrapped query generator.
pub struct TimedIter<I> {
    inner: I,
    sink: TraceSink,
}

impl<I> TimedIter<I> {
    pub fn new(inner: I, sink: TraceSink) -> Self {
        TimedIter { inner, sink }
    }
}

impl<I: Iterator<Item = QuerySpec>> Iterator for TimedIter<I> {
    type Item = QuerySpec;

    fn next(&mut self) -> Option<QuerySpec> {
        let t0 = self.sink.now_ns();
        let item = self.inner.next();
        let query = item.as_ref().map_or(NO_QUERY, |q| q.id.0);
        self.sink
            .record(Op::StreamNext, t0, self.sink.now_ns(), query);
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use unit_core::clock::VirtualClock;
    use unit_core::unit_policy::UnitPolicy;
    use unit_sim::{report_digest, SimRun};
    use unit_workload::TraceBundle;

    /// Paper-shaped but 1/40 the size: 2 750 queries, 750 updates.
    fn small_bundle() -> TraceBundle {
        let qcfg = paper::query_config().scaled_down(40);
        let ucfg = paper::update_config(paper::MED_UNIF, 5).with_total(750);
        TraceBundle::generate(&qcfg, &ucfg)
    }

    fn digest_with<P: Policy>(bundle: &TraceBundle, wrap: impl FnOnce(UnitPolicy) -> P) -> u64 {
        let policy = wrap(UnitPolicy::new(paper::unit_config(5)));
        let report = SimRun::trace(&bundle.trace, policy, paper::sim_config(bundle.horizon)).run();
        assert_eq!(report.counts.total() as usize, bundle.trace.queries.len());
        report_digest(&report)
    }

    #[test]
    fn wrappers_forward_every_hook_and_change_no_decision() {
        let bundle = small_bundle();
        let raw = digest_with(&bundle, |p| p);

        let sink = TraceSink::new(false);
        let timed = digest_with(&bundle, |p| TimedPolicy::new(p, sink.clone(), false));
        assert_eq!(timed, raw, "TimedPolicy changed the run");
        let summary = sink.summary();
        assert_eq!(
            summary.op(Op::PolicyArrival).count as usize,
            bundle.trace.queries.len(),
            "one admission hook per query"
        );
        assert_eq!(
            summary.op(Op::PolicyOutcome).count,
            summary.op(Op::PolicyArrival).count
        );
        assert!(summary.op(Op::PolicyTick).count > 0 && summary.op(Op::PolicyVersion).count > 0);

        let clock = VirtualClock::new();
        let timings: TimingSink = Default::default();
        let probed = digest_with(&bundle, |p| {
            LatencyProbe::new(p, &clock, 16, timings.clone())
        });
        assert_eq!(probed, raw, "LatencyProbe changed the run");
        assert_eq!(timings.lock().unwrap().len(), bundle.trace.queries.len());
    }

    #[test]
    fn latency_probe_stamps_admission_and_outcome() {
        let bundle = small_bundle();
        let q = &bundle.trace.queries[0];
        let clock = VirtualClock::new();
        let timings: TimingSink = Default::default();
        let mut probe = LatencyProbe::new(
            UnitPolicy::new(paper::unit_config(5)),
            &clock,
            1,
            timings.clone(),
        );
        probe.init(bundle.trace.n_items, &bundle.trace.updates);
        let snap = unit_core::snapshot::SystemSnapshot::empty(SimTime(0));
        clock.advance_to(SimTime(100));
        probe.on_query_arrival(q, &snap.view());
        clock.advance_to(SimTime(350));
        probe.on_query_outcome(q, Outcome::Success);
        drop(probe);
        let got = timings.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].admit, got[0].done), (100, 350));
        assert_eq!(got[0].outcome, Outcome::Success);
        assert_eq!(u64::from(got[0].enqueue), q.arrival.0 & 0xFFFF_FFFF);
    }
}
