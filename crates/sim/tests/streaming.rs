//! Feed differential suite. There is one engine — every run is streamed —
//! but two feeds: the trace's own query slice (`SimRun::trace`, pumped by
//! the engine) and a caller's iterator (`SimRun::streaming` +
//! `run_streamed`). They must be bit-identical for every policy, any
//! lookahead, any `step_until` pause schedule, and under fault hooks and
//! lose-state crashes.
//!
//! The engine keeps same-instant tie-breaking a pure function of the trace
//! by giving arrivals their feed ordinal as the heap sequence number (below
//! every runtime event's); these tests pin the consequence — when a query
//! is *pushed* is unobservable, only when it *arrives* matters.

use proptest::prelude::*;
use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};
use unit_core::config::UnitConfig;
use unit_core::policy::Policy;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::DataId;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_sim::{
    report_digest, run_simulation, BackgroundLoad, FaultHook, HealthState, SchedulingDiscipline,
    SimConfig, SimRun, UpdateFault,
};
use unit_workload::{
    slice_trace, stream_queries, QueryTraceConfig, ReplicaMap, TraceBundle, UpdateDistribution,
    UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 32;
const SEED: u64 = 0x57EA_0001;
const TICK_PERIOD: SimDuration = SimDuration::from_secs(10);

fn bundle() -> TraceBundle {
    let qcfg = QueryTraceConfig {
        seed: SEED,
        ..QueryTraceConfig::default().scaled_down(SCALE)
    };
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / SCALE).max(1));
    TraceBundle::generate(&qcfg, &ucfg)
}

fn sim_config(horizon: SimDuration, discipline: SchedulingDiscipline) -> SimConfig {
    SimConfig::new(horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(TICK_PERIOD)
        .with_discipline(discipline)
}

const DISCIPLINES: [SchedulingDiscipline; 3] = [
    SchedulingDiscipline::DualPriorityEdf,
    SchedulingDiscipline::GlobalEdf,
    SchedulingDiscipline::QueryFirst,
];

fn assert_streamed_matches<P: Policy>(make: impl Fn() -> P, name: &str) {
    let b = bundle();
    for discipline in DISCIPLINES {
        let cfg = sim_config(b.horizon, discipline);
        let trace_fed = run_simulation(&b.trace, make(), cfg);
        let streamed = SimRun::streaming(b.trace.n_items, &b.trace.updates, make(), cfg)
            .run_streamed(b.trace.queries.iter().cloned(), 16);
        assert_eq!(
            report_digest(&streamed),
            report_digest(&trace_fed),
            "{name}/{discipline:?}: iterator feed diverged from the trace-backed run"
        );
        assert_eq!(streamed.query_accesses, trace_fed.query_accesses);
        assert_eq!(streamed.events_processed, trace_fed.events_processed);
    }
}

#[test]
fn streamed_feed_matches_materialized_unit() {
    assert_streamed_matches(
        || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED)),
        "UNIT",
    );
}

#[test]
fn streamed_feed_matches_materialized_imu() {
    assert_streamed_matches(ImuPolicy::new, "IMU");
}

#[test]
fn streamed_feed_matches_materialized_odu() {
    assert_streamed_matches(OduPolicy::new, "ODU");
}

#[test]
fn streamed_feed_matches_materialized_qmf() {
    assert_streamed_matches(QmfPolicy::default, "QMF");
}

#[test]
fn chunk_size_is_unobservable() {
    let b = bundle();
    let cfg = sim_config(b.horizon, SchedulingDiscipline::DualPriorityEdf);
    let make =
        || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED));
    let baseline = report_digest(&run_simulation(&b.trace, make(), cfg));
    for chunk in [0usize, 1, 3, 64, 10_000] {
        let streamed = SimRun::streaming(b.trace.n_items, &b.trace.updates, make(), cfg)
            .run_streamed(b.trace.queries.iter().cloned(), chunk);
        assert_eq!(
            report_digest(&streamed),
            baseline,
            "chunk {chunk} changed the digest"
        );
    }
}

#[test]
fn generation_stream_feeds_the_engine_without_materializing() {
    // End-to-end: workload generation streams straight into the engine —
    // the full query Vec never exists — and the digest still matches the
    // run over the materialized trace.
    let b = bundle();
    let qcfg = QueryTraceConfig {
        seed: SEED,
        ..QueryTraceConfig::default().scaled_down(SCALE)
    };
    let cfg = sim_config(b.horizon, SchedulingDiscipline::DualPriorityEdf);
    let make =
        || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED));
    let trace_fed = run_simulation(&b.trace, make(), cfg);
    let streamed = SimRun::streaming(b.trace.n_items, &b.trace.updates, make(), cfg)
        .run_streamed(stream_queries(&qcfg), 32);
    assert_eq!(report_digest(&streamed), report_digest(&trace_fed));
}

#[test]
fn step_until_pauses_reorder_nothing() {
    let b = bundle();
    let cfg = sim_config(b.horizon, SchedulingDiscipline::DualPriorityEdf);
    let make =
        || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED));
    let baseline = report_digest(&run_simulation(&b.trace, make(), cfg));
    for epoch_s in [1u64, 37, 1_000] {
        let mut sim = SimRun::trace(&b.trace, make(), cfg).build();
        let epoch = SimDuration::from_secs(epoch_s);
        let mut limit = SimTime::ZERO;
        loop {
            limit += epoch;
            if !sim.step_until(limit) {
                break;
            }
        }
        let (report, _policy) = sim.finish();
        assert_eq!(
            report_digest(&report),
            baseline,
            "epoch {epoch_s}s changed the digest"
        );
    }
}

#[test]
#[should_panic(expected = "trace order")]
fn out_of_order_feed_is_rejected() {
    let b = bundle();
    let cfg = sim_config(b.horizon, SchedulingDiscipline::DualPriorityEdf);
    let policy = UnitPolicy::new(UnitConfig::default());
    let mut sim = SimRun::streaming(b.trace.n_items, &b.trace.updates, policy, cfg).build();
    // Ids are free (a shard slice keeps its global ones), arrivals are not:
    // feeding the last query before the first goes back in time.
    let (first, last) = (&b.trace.queries[0], b.trace.queries.last().unwrap());
    assert!(last.arrival > first.arrival);
    sim.feed_query(last.clone());
    sim.feed_query(first.clone());
}

#[test]
fn shard_slice_with_sparse_global_ids_streams() {
    // A cluster shard's slice keeps the trace's *global* query ids, so its
    // ids are sparse and do not start at zero. The feed contract is on
    // arrival order and feed ordinal, never on ids: the slice must stream
    // through the caller-fed path and match its own trace-backed run.
    let b = bundle();
    let n_shards = 3;
    let assignment: Vec<usize> = (0..b.trace.queries.len()).map(|i| i % n_shards).collect();
    let slices = slice_trace(&b.trace, &assignment, &ReplicaMap::solo(n_shards), false)
        .expect("valid assignment");
    let shard = &slices[1];
    assert_ne!(shard.queries[0].id.0, 0, "slice ids are global");
    let cfg = sim_config(b.horizon, SchedulingDiscipline::DualPriorityEdf).with_outcome_log();
    let make =
        || UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED));
    let trace_fed = SimRun::trace(shard, make(), cfg).run();
    let streamed = SimRun::streaming(shard.n_items, &shard.updates, make(), cfg)
        .run_streamed(shard.queries.iter().cloned(), 8);
    assert_eq!(streamed.counts.total() as usize, shard.queries.len());
    assert_eq!(report_digest(&streamed), report_digest(&trace_fed));
    assert_eq!(streamed.outcome_records, trace_fed.outcome_records);
}

/// A declarative hook exercising every fault family at once: one down and
/// one degraded window, a delayed item, a load burst, and lose-state
/// crashes. A pure function of virtual time, like every hook must be.
#[derive(Clone)]
struct MixedFaults {
    /// `[start, end)` full-pause window.
    down: (SimTime, SimTime),
    /// `[start, end)` read-only window.
    degraded: (SimTime, SimTime),
    burst_at: SimTime,
    crashes: Vec<SimTime>,
}

impl FaultHook for MixedFaults {
    fn transition_times(&self) -> Vec<SimTime> {
        let mut t = vec![
            self.down.0,
            self.down.1,
            self.degraded.0,
            self.degraded.1,
            self.burst_at,
        ];
        t.extend(&self.crashes);
        t
    }

    fn health(&self, now: SimTime) -> HealthState {
        if self.down.0 <= now && now < self.down.1 {
            HealthState::Down { until: self.down.1 }
        } else if self.degraded.0 <= now && now < self.degraded.1 {
            HealthState::Degraded {
                until: self.degraded.1,
            }
        } else {
            HealthState::Up
        }
    }

    fn update_fault(&self, item: DataId, _now: SimTime) -> UpdateFault {
        if item.0 % 5 == 0 {
            UpdateFault::Delay(SimDuration::from_secs(30))
        } else {
            UpdateFault::Apply
        }
    }

    fn load_at(&self, now: SimTime) -> Vec<BackgroundLoad> {
        let exec = SimDuration::from_secs(20);
        if now == self.burst_at {
            vec![BackgroundLoad { exec }; 3]
        } else {
            Vec::new()
        }
    }

    fn lose_state_crashes(&self) -> Vec<SimTime> {
        self.crashes.clone()
    }
}

/// Where the third lose-state crash lands relative to the pause window.
#[derive(Debug, Clone, Copy)]
enum PauseCrash {
    Absent,
    /// At the window's first instant.
    Start,
    /// This fraction of the way through the window.
    Interior(f64),
    /// On the control-tick grid, this many ticks past `down_at`: around
    /// the tick the engine defers to the window's end.
    TickAfter(u64),
}

fn pause_crash_strategy() -> impl Strategy<Value = PauseCrash> {
    prop_oneof![
        Just(PauseCrash::Absent),
        Just(PauseCrash::Start),
        (0.05f64..0.95).prop_map(PauseCrash::Interior),
        (1u64..=3).prop_map(PauseCrash::TickAfter),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Feed equivalence: under a fault schedule with every family in it —
    /// pause and degraded windows, stream delays, a burst, lose-state
    /// crashes before, at the start of, inside, and after the pause — the
    /// trace-backed run (engine-pumped slice, cursor rewound on restore)
    /// and the iterator-fed run (caller-pumped, input log replayed on
    /// restore; owned or borrowed specs) are the same run, for a lookahead
    /// of 1, 7 and 1024.
    ///
    /// A crash inside the pause sits behind a control tick the engine has
    /// deferred to the window's end. `take_checkpoint`'s skip-ahead counted
    /// on that tick to snapshot, so the crash restores an older checkpoint
    /// and replays a longer window — the same run all the same.
    #[test]
    fn trace_feed_matches_iterator_feed_under_faults(
        down_at in 0.3f64..0.4,
        degraded_at in 0.5f64..0.8,
        window in 0.01f64..0.1,
        early_crash in 0.02f64..0.29,
        late_crash in 0.51f64..0.98,
        pause_crash in pause_crash_strategy(),
    ) {
        let b = bundle();
        let at = |frac: f64| SimTime((b.horizon.0 as f64 * frac) as u64);
        let tick = TICK_PERIOD.0;
        let mut crashes = vec![at(early_crash), at(late_crash)];
        match pause_crash {
            PauseCrash::Absent => {}
            PauseCrash::Start => crashes.push(at(down_at)),
            PauseCrash::Interior(frac) => crashes.push(at(down_at + window * frac)),
            PauseCrash::TickAfter(k) => crashes.push(SimTime((at(down_at).0 / tick + k) * tick)),
        }
        crashes.sort_unstable();
        let hook = MixedFaults {
            down: (at(down_at), at(down_at + window)),
            degraded: (at(degraded_at), at(degraded_at + window)),
            burst_at: at((early_crash + late_crash) / 2.0),
            crashes,
        };
        let cfg = sim_config(b.horizon, SchedulingDiscipline::DualPriorityEdf).with_outcome_log();
        let make = || {
            UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED))
        };
        let trace_fed = SimRun::trace(&b.trace, make(), cfg)
            .with_faults(Box::new(hook.clone()))
            .run();
        prop_assert_eq!(trace_fed.faults.recoveries, hook.crashes.len() as u64);
        let streaming = || {
            SimRun::streaming(b.trace.n_items, &b.trace.updates, make(), cfg)
                .with_faults(Box::new(hook.clone()))
        };
        for lookahead in [1usize, 7, 1024] {
            // Owned specs (a generator's) and borrowed ones (a cluster
            // shard's, which the crash-recovery input log holds as borrows).
            let owned = streaming().run_streamed(b.trace.queries.iter().cloned(), lookahead);
            let borrowed = streaming().run_streamed(&b.trace.queries, lookahead);
            for streamed in [owned, borrowed] {
                prop_assert_eq!(
                    report_digest(&streamed),
                    report_digest(&trace_fed),
                    "lookahead {}: feeds diverged", lookahead
                );
                prop_assert_eq!(&streamed.outcome_records, &trace_fed.outcome_records);
                prop_assert_eq!(streamed.faults, trace_fed.faults);
                prop_assert_eq!(streamed.events_processed, trace_fed.events_processed);
            }
        }
    }
}
