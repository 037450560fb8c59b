//! Behavioural tests for the engine's fault hook (DESIGN.md §6): pause
//! windows defer work and record no interior outcomes, degraded windows
//! serve reads while dropping update applications, per-item stream faults
//! feed the real freshness path, load bursts consume CPU, and an inert
//! hook is bit-identical to no hook at all.

use unit_core::policy::{AdmissionDecision, Policy, UpdateAction};
use unit_core::snapshot::SnapshotView;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, Outcome, QueryId, QuerySpec, Trace, UpdateSpec, UpdateStreamId};
use unit_sim::{
    report_digest, run_simulation, BackgroundLoad, FaultHook, HealthState, NoFaults, SimConfig,
    SimRun, UpdateFault,
};

/// Admit every query, apply every version.
struct ApplyAll;

impl Policy for ApplyAll {
    fn name(&self) -> &str {
        "apply-all"
    }
    fn init(&mut self, _: usize, _: &[UpdateSpec]) {}
    fn on_query_arrival(&mut self, _: &QuerySpec, _: &SnapshotView<'_>) -> AdmissionDecision {
        AdmissionDecision::Admit
    }
    fn on_version_arrival(&mut self, _: DataId, _: SimTime, _: &SnapshotView<'_>) -> UpdateAction {
        UpdateAction::Apply
    }
}

/// A hand-written declarative hook: explicit windows, per-item stream
/// faults, and bursts. Linear scans are fine at test scale; what matters
/// is that it is a pure function of virtual time.
#[derive(Default)]
struct TestFaults {
    /// `(start, end, degraded)` — `[start, end)` windows, non-overlapping.
    windows: Vec<(SimTime, SimTime, bool)>,
    /// Items whose arriving versions are never applied.
    drop_items: Vec<u32>,
    /// Items whose applications are postponed by the given delay.
    delay_items: Vec<(u32, SimDuration)>,
    /// `(at, count, exec)` load bursts.
    bursts: Vec<(SimTime, u32, SimDuration)>,
}

impl FaultHook for TestFaults {
    fn transition_times(&self) -> Vec<SimTime> {
        let mut t: Vec<SimTime> = self
            .windows
            .iter()
            .flat_map(|&(s, e, _)| [s, e])
            .chain(self.bursts.iter().map(|&(at, _, _)| at))
            .collect();
        t.sort_unstable();
        t
    }

    fn health(&self, now: SimTime) -> HealthState {
        for &(start, end, degraded) in &self.windows {
            if start <= now && now < end {
                return if degraded {
                    HealthState::Degraded { until: end }
                } else {
                    HealthState::Down { until: end }
                };
            }
        }
        HealthState::Up
    }

    fn update_fault(&self, item: DataId, _now: SimTime) -> UpdateFault {
        if self.drop_items.contains(&item.0) {
            return UpdateFault::Drop;
        }
        for &(i, d) in &self.delay_items {
            if i == item.0 {
                return UpdateFault::Delay(d);
            }
        }
        UpdateFault::Apply
    }

    fn load_at(&self, now: SimTime) -> Vec<BackgroundLoad> {
        self.bursts
            .iter()
            .filter(|&&(at, _, _)| at == now)
            .flat_map(|&(_, count, exec)| (0..count).map(move |_| BackgroundLoad { exec }))
            .collect()
    }
}

fn query(id: u64, arrival_s: f64, items: &[u32], exec_s: f64, deadline_s: f64) -> QuerySpec {
    QuerySpec {
        id: QueryId(id),
        arrival: SimTime::from_secs_f64(arrival_s),
        items: items.iter().map(|&i| DataId(i)).collect(),
        exec_time: SimDuration::from_secs_f64(exec_s),
        relative_deadline: SimDuration::from_secs_f64(deadline_s),
        freshness_req: 0.9,
        pref_class: 0,
    }
}

fn update(id: u32, item: u32, period_s: f64, exec_s: f64, first_s: f64) -> UpdateSpec {
    UpdateSpec {
        id: UpdateStreamId(id),
        item: DataId(item),
        period: SimDuration::from_secs_f64(period_s),
        exec_time: SimDuration::from_secs_f64(exec_s),
        first_arrival: SimTime::from_secs_f64(first_s),
    }
}

fn cfg(horizon_s: u64) -> SimConfig {
    SimConfig::new(SimDuration::from_secs(horizon_s)).with_outcome_log()
}

/// A busy little trace: 12 queries over 4 items with two update streams.
fn busy_trace() -> Trace {
    let queries = (0..12u64)
        .map(|i| query(i, 1.0 + i as f64 * 2.0, &[(i % 4) as u32], 0.5, 6.0))
        .collect();
    Trace {
        n_items: 4,
        queries,
        updates: vec![update(0, 0, 3.0, 0.2, 0.0), update(1, 1, 4.0, 0.2, 0.5)],
    }
}

#[test]
fn inert_hook_is_bit_identical_to_no_hook() {
    let trace = busy_trace();
    let plain = run_simulation(&trace, ApplyAll, cfg(40));
    let hooked = SimRun::trace(&trace, ApplyAll, cfg(40))
        .with_faults(Box::new(NoFaults))
        .run();
    assert_eq!(report_digest(&plain), report_digest(&hooked));
    assert_eq!(plain.outcome_records, hooked.outcome_records);
    assert!(hooked.faults.is_zero());
    // An installed-but-empty declarative hook is just as inert.
    let empty = SimRun::trace(&trace, ApplyAll, cfg(40))
        .with_faults(Box::new(TestFaults::default()))
        .run();
    assert_eq!(report_digest(&plain), report_digest(&empty));
}

#[test]
fn pause_window_records_no_interior_outcome() {
    // Window [5, 10): q0 finishes before it, q1 arrives inside it (deferred
    // to recovery, still meets its late deadline), q2 arrives inside with a
    // deadline that expires before recovery (dead on arrival at t=10).
    let trace = Trace {
        n_items: 2,
        queries: vec![
            query(0, 1.0, &[0], 1.0, 3.0),
            query(1, 6.0, &[0], 1.0, 20.0),
            query(2, 6.5, &[1], 1.0, 3.0),
        ],
        updates: vec![],
    };
    let hook = TestFaults {
        windows: vec![(SimTime::from_secs(5), SimTime::from_secs(10), false)],
        ..TestFaults::default()
    };
    let report = SimRun::trace(&trace, ApplyAll, cfg(30))
        .with_faults(Box::new(hook))
        .run();
    assert_eq!(report.counts.total(), 3);
    for r in &report.outcome_records {
        let strictly_inside = SimTime::from_secs(5) < r.time && r.time < SimTime::from_secs(10);
        assert!(
            !strictly_inside,
            "outcome for {:?} at {:?} inside the pause window",
            r.query, r.time
        );
    }
    let outcome_of = |id: u64| {
        report
            .outcome_records
            .iter()
            .find(|r| r.query == QueryId(id))
            .map(|r| (r.outcome, r.time))
    };
    assert_eq!(
        outcome_of(0).map(|(o, _)| o),
        Some(Outcome::Success),
        "pre-window query unaffected"
    );
    assert_eq!(
        outcome_of(1).map(|(o, _)| o),
        Some(Outcome::Success),
        "deferred query completes after recovery"
    );
    let (o2, t2) = outcome_of(2).unwrap();
    assert_eq!(o2, Outcome::DeadlineMiss, "deadline expired while paused");
    assert!(t2 >= SimTime::from_secs(10));
    assert!(report.faults.deferred_events > 0);
}

#[test]
fn degraded_window_serves_reads_and_drops_applications() {
    // Updates on item 0 every second; a degraded window covers the middle
    // of the run. Queries keep completing (no DMF pile-up) but versions
    // arriving inside the window are never applied.
    let trace = Trace {
        n_items: 1,
        queries: (0..8u64)
            .map(|i| query(i, 2.0 + i as f64 * 2.0, &[0], 0.3, 5.0))
            .collect(),
        updates: vec![update(0, 0, 1.0, 0.1, 0.0)],
    };
    let window = (SimTime::from_secs(6), SimTime::from_secs(12), true);
    let hook = TestFaults {
        windows: vec![window],
        ..TestFaults::default()
    };
    let faulty = SimRun::trace(&trace, ApplyAll, cfg(20))
        .with_faults(Box::new(hook))
        .run();
    let clean = run_simulation(&trace, ApplyAll, cfg(20));
    assert!(faulty.faults.update_drops > 0, "window drops applications");
    assert!(
        faulty.updates_applied.iter().sum::<u64>() < clean.updates_applied.iter().sum::<u64>(),
        "fewer versions applied under degradation"
    );
    // The read path stayed up: every query still got a decision, and none
    // of them stalled into a deadline miss.
    assert_eq!(faulty.counts.total(), 8);
    assert_eq!(faulty.counts.deadline_miss, 0);
    // Staleness is honest: with applications dropped, some queries read
    // stale data that the clean run refreshed.
    assert!(faulty.counts.data_stale >= clean.counts.data_stale);
}

#[test]
fn stream_faults_drop_and_delay_applications() {
    let trace = Trace {
        n_items: 2,
        queries: vec![
            query(0, 18.0, &[0], 0.5, 6.0),
            query(1, 18.5, &[1], 0.5, 6.0),
        ],
        updates: vec![update(0, 0, 2.0, 0.1, 0.0), update(1, 1, 2.0, 0.1, 0.0)],
    };
    let hook = TestFaults {
        drop_items: vec![0],
        delay_items: vec![(1, SimDuration::from_secs_f64(0.5))],
        ..TestFaults::default()
    };
    let report = SimRun::trace(&trace, ApplyAll, cfg(30))
        .with_faults(Box::new(hook))
        .run();
    assert!(report.faults.update_drops > 0, "item 0 versions dropped");
    assert!(report.faults.update_delays > 0, "item 1 versions delayed");
    // Dropped versions never apply; delayed ones still do.
    assert_eq!(report.updates_applied[0], 0);
    assert!(report.updates_applied[1] > 0);
}

#[test]
fn bursts_inject_background_cpu_demand() {
    // One query with a tight deadline; a burst of background work lands
    // just before it and, being update-class, outranks it under the
    // default dual-priority discipline.
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 5.0, &[0], 1.0, 1.5)],
        updates: vec![],
    };
    let clean = run_simulation(&trace, ApplyAll, cfg(20));
    assert_eq!(clean.counts.success, 1);
    let hook = TestFaults {
        bursts: vec![(SimTime::from_secs_f64(4.9), 3, SimDuration::from_secs(1))],
        ..TestFaults::default()
    };
    let burst = SimRun::trace(&trace, ApplyAll, cfg(20))
        .with_faults(Box::new(hook))
        .run();
    assert_eq!(burst.faults.background_spawned, 3);
    assert_eq!(
        burst.counts.deadline_miss, 1,
        "background load starves the query past its firm deadline"
    );
    assert!(burst.cpu_busy > clean.cpu_busy, "bursts consume real CPU");
}

#[test]
fn faulty_runs_are_bit_reproducible() {
    let trace = busy_trace();
    let make_hook = || TestFaults {
        windows: vec![
            (SimTime::from_secs(4), SimTime::from_secs(7), false),
            (SimTime::from_secs(12), SimTime::from_secs(15), true),
        ],
        drop_items: vec![1],
        delay_items: vec![(0, SimDuration::from_secs_f64(0.25))],
        bursts: vec![(SimTime::from_secs(9), 2, SimDuration::from_secs_f64(0.5))],
    };
    let a = SimRun::trace(&trace, ApplyAll, cfg(40))
        .with_faults(Box::new(make_hook()))
        .run();
    let b = SimRun::trace(&trace, ApplyAll, cfg(40))
        .with_faults(Box::new(make_hook()))
        .run();
    assert_eq!(report_digest(&a), report_digest(&b));
    assert_eq!(a.outcome_records, b.outcome_records);
    assert_eq!(a.faults, b.faults);
}

/// A crash window that ends exactly on the first control tick: that tick
/// took its sequence slot before the fault transitions were seeded, so it
/// pops before the recovery transition that restarts the preempted query.
/// Under `validate` the non-idling check must let that one instant pass.
#[test]
fn first_tick_on_a_recovery_instant_precedes_the_restart() {
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 0.2, &[0], 2.0, 30.0)],
        updates: vec![],
    };
    let hook = TestFaults {
        windows: vec![(SimTime::from_secs_f64(0.5), SimTime::from_secs(1), false)],
        ..TestFaults::default()
    };
    let report = SimRun::trace(&trace, ApplyAll, cfg(5))
        .with_faults(Box::new(hook))
        .run();
    assert_eq!(report.counts.success, 1);
    assert_eq!(report.cpu_busy, SimDuration::from_secs(2));
    // Preempted at 0.5 s with 1.7 s left, restarted by the recovery at 1 s.
    assert_eq!(report.outcome_records[0].time, SimTime::from_secs_f64(2.7));
}
