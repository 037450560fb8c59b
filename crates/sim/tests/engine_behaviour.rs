//! Behavioural tests for the discrete-event server: scheduling discipline,
//! 2PL-HP, firm deadlines, freshness verdicts, on-demand refreshes, and
//! accounting invariants.

use unit_core::policy::{AdmissionDecision, Policy, UpdateAction};
use unit_core::snapshot::SnapshotView;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, QueryId, QuerySpec, Trace, UpdateSpec, UpdateStreamId};
use unit_sim::{run_simulation, SimConfig};

// ---------------------------------------------------------------------------
// Tiny open-loop policies for driving the engine deterministically.
// ---------------------------------------------------------------------------

/// Admit every query, apply every version (IMU-like, but local to the test).
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

/// Admit every query, never apply versions in the background.
struct SkipAll;

impl Policy for SkipAll {
    fn name(&self) -> &str {
        "skip-all"
    }
    fn init(&mut self, _: usize, _: &[UpdateSpec]) {}
    fn on_query_arrival(&mut self, _: &QuerySpec, _: &SnapshotView<'_>) -> AdmissionDecision {
        AdmissionDecision::Admit
    }
    fn on_version_arrival(&mut self, _: DataId, _: SimTime, _: &SnapshotView<'_>) -> UpdateAction {
        UpdateAction::Skip
    }
}

/// Reject every query.
struct RejectAll;

impl Policy for RejectAll {
    fn name(&self) -> &str {
        "reject-all"
    }
    fn init(&mut self, _: usize, _: &[UpdateSpec]) {}
    fn on_query_arrival(&mut self, _: &QuerySpec, _: &SnapshotView<'_>) -> AdmissionDecision {
        AdmissionDecision::Reject
    }
    fn on_version_arrival(&mut self, _: DataId, _: SimTime, _: &SnapshotView<'_>) -> UpdateAction {
        UpdateAction::Apply
    }
}

/// Skip background versions but demand on-demand refreshes (ODU-like).
struct DemandRefresh;

impl Policy for DemandRefresh {
    fn name(&self) -> &str {
        "demand-refresh"
    }
    fn init(&mut self, _: usize, _: &[UpdateSpec]) {}
    fn on_query_arrival(&mut self, _: &QuerySpec, _: &SnapshotView<'_>) -> AdmissionDecision {
        AdmissionDecision::Admit
    }
    fn on_version_arrival(&mut self, _: DataId, _: SimTime, _: &SnapshotView<'_>) -> UpdateAction {
        UpdateAction::Skip
    }
    fn demand_refresh(&mut self, q: &QuerySpec, udrop: &dyn Fn(DataId) -> u64) -> Vec<DataId> {
        q.items.iter().copied().filter(|&d| udrop(d) > 0).collect()
    }
}

// ---------------------------------------------------------------------------
// Trace helpers.
// ---------------------------------------------------------------------------

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
    SimConfig::new(SimDuration::from_secs(horizon_s))
}

// ---------------------------------------------------------------------------
// Basic lifecycle.
// ---------------------------------------------------------------------------

#[test]
fn lone_query_succeeds() {
    let trace = Trace {
        n_items: 2,
        queries: vec![query(0, 1.0, &[0], 2.0, 10.0)],
        updates: vec![],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    assert_eq!(r.counts.success, 1);
    assert_eq!(r.counts.total(), 1);
    assert_eq!(r.cpu_busy, SimDuration::from_secs(2));
    assert_eq!(r.success_ratio(), 1.0);
}

#[test]
fn rejected_queries_never_run() {
    let trace = Trace {
        n_items: 2,
        queries: vec![
            query(0, 1.0, &[0], 2.0, 10.0),
            query(1, 2.0, &[1], 2.0, 10.0),
        ],
        updates: vec![],
    };
    let r = run_simulation(&trace, RejectAll, cfg(100));
    assert_eq!(r.counts.rejected, 2);
    assert_eq!(r.counts.total(), 2);
    assert_eq!(r.cpu_busy, SimDuration::ZERO);
}

#[test]
fn infeasible_admitted_query_misses_its_deadline() {
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 1.0, &[0], 10.0, 3.0)], // needs 10s, has 3s
        updates: vec![],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    assert_eq!(r.counts.deadline_miss, 1);
    // Firm deadline: the query burned CPU until expiry, then was aborted.
    assert_eq!(r.cpu_busy, SimDuration::from_secs(3));
}

#[test]
fn queued_work_delays_later_deadlines_edf_order() {
    // Two queries arrive together; EDF must run the earlier deadline first.
    let trace = Trace {
        n_items: 2,
        queries: vec![
            query(0, 0.0, &[0], 4.0, 20.0), // later deadline
            query(1, 0.0, &[1], 4.0, 6.0),  // earlier deadline, arrives second
        ],
        updates: vec![],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    // If FIFO ran q0 first, q1 would finish at 8 > 6 and miss. EDF saves it.
    assert_eq!(r.counts.success, 2, "{:?}", r.counts);
}

// ---------------------------------------------------------------------------
// Freshness verdicts.
// ---------------------------------------------------------------------------

#[test]
fn skipped_versions_cause_data_stale_failures() {
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 5.0, &[0], 1.0, 10.0)],
        updates: vec![update(0, 0, 2.0, 0.5, 0.0)], // versions at 0,2,4,...
    };
    let r = run_simulation(&trace, SkipAll, cfg(100));
    assert_eq!(r.counts.data_stale, 1, "{:?}", r.counts);
    assert_eq!(r.applied_ratio(), 0.0);
}

#[test]
fn applied_versions_keep_queries_fresh() {
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 5.0, &[0], 1.0, 10.0)],
        updates: vec![update(0, 0, 2.0, 0.1, 0.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    assert_eq!(r.counts.success, 1, "{:?}", r.counts);
    assert!(r.applied_ratio() > 0.99);
}

#[test]
fn freshness_is_judged_at_read_time_not_commit_time() {
    // Query reads item 0 at t=1 (fresh) and runs 4s; a version arrives at
    // t=3 and is *skipped*. The data the query read was fresh, so the query
    // succeeds — read-time semantics (this is what lets the paper's ODU
    // guarantee 100% freshness).
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 1.0, &[0], 4.0, 20.0)],
        updates: vec![update(0, 0, 100.0, 0.5, 3.0)],
    };
    let r = run_simulation(&trace, SkipAll, cfg(100));
    assert_eq!(r.counts.success, 1, "{:?}", r.counts);

    // Whereas a query that *reads* stale data fails even if nothing changes
    // during its execution.
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 5.0, &[0], 4.0, 20.0)],
        updates: vec![update(0, 0, 100.0, 0.5, 3.0)],
    };
    let r = run_simulation(&trace, SkipAll, cfg(100));
    assert_eq!(r.counts.data_stale, 1, "{:?}", r.counts);
}

#[test]
fn on_demand_refresh_restores_freshness_before_the_query_runs() {
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 5.0, &[0], 1.0, 10.0)],
        updates: vec![update(0, 0, 2.0, 0.5, 0.0)],
    };
    let r = run_simulation(&trace, DemandRefresh, cfg(100));
    assert_eq!(r.counts.success, 1, "{:?}", r.counts);
    assert!(r.demand_refreshes >= 1);
    // Only the demanded refreshes were applied, not the background stream.
    let applied: u64 = r.updates_applied.iter().sum();
    assert_eq!(applied, r.demand_refreshes);
}

// ---------------------------------------------------------------------------
// Dual-priority discipline and 2PL-HP.
// ---------------------------------------------------------------------------

#[test]
fn updates_preempt_running_queries() {
    // Query starts at t=1 (6s of work). A version arrives at t=2 on a
    // *different* item: the update preempts, runs 1s, then the query resumes
    // and still meets its deadline.
    let trace = Trace {
        n_items: 2,
        queries: vec![query(0, 1.0, &[0], 6.0, 10.0)],
        updates: vec![update(0, 1, 100.0, 1.0, 2.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    assert_eq!(r.counts.success, 1, "{:?}", r.counts);
    assert!(r.preemptions >= 1);
    assert_eq!(r.hp_aborts, 0, "different items: no lock conflict");
    assert_eq!(r.cpu_busy, SimDuration::from_secs(7));
}

#[test]
fn conflicting_update_aborts_and_restarts_the_query() {
    // Query reads item 0 for 6s starting at t=1; at t=2 a version arrives
    // *for item 0*: 2PL-HP evicts the query, which restarts from scratch and
    // (with a generous deadline) still succeeds.
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 1.0, &[0], 6.0, 30.0)],
        updates: vec![update(0, 0, 100.0, 1.0, 2.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    assert_eq!(r.counts.success, 1, "{:?}", r.counts);
    assert_eq!(r.hp_aborts, 1);
    assert_eq!(r.query_restarts, 1);
    // 1s of wasted query work + 1s update + 6s full rerun.
    assert_eq!(r.cpu_busy, SimDuration::from_secs(8));
}

#[test]
fn hp_abort_storm_starves_a_tight_query() {
    // Updates on the query's item every 2s; the query needs 5s: it can never
    // hold its read lock long enough and misses its deadline.
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 0.5, &[0], 5.0, 20.0)],
        updates: vec![update(0, 0, 2.0, 0.5, 0.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    assert_eq!(r.counts.deadline_miss, 1, "{:?}", r.counts);
    assert!(r.query_restarts >= 3, "restarts: {}", r.query_restarts);
}

#[test]
fn updates_run_before_queries_even_with_later_arrival() {
    // Query (3s) and an update (1s) arrive at the same instant; the update
    // must run first (dual-priority), delaying the query's finish to t=4.
    let trace = Trace {
        n_items: 2,
        queries: vec![query(0, 1.0, &[0], 3.0, 3.5)], // deadline t=4.5
        updates: vec![update(0, 1, 100.0, 1.0, 1.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    // Query finishes at 1 + 1 + 3 = 5 > 4.5: the update's priority makes the
    // query miss. (With query-first it would have finished at 4.)
    assert_eq!(r.counts.deadline_miss, 1, "{:?}", r.counts);
}

// ---------------------------------------------------------------------------
// Accounting invariants.
// ---------------------------------------------------------------------------

#[test]
fn every_query_has_exactly_one_outcome() {
    let mut queries = Vec::new();
    for i in 0..50 {
        queries.push(query(
            i,
            0.5 * i as f64,
            &[(i % 4) as u32],
            1.5,
            4.0 + (i % 7) as f64,
        ));
    }
    let trace = Trace {
        n_items: 4,
        queries,
        updates: vec![
            update(0, 0, 3.0, 0.5, 0.0),
            update(1, 1, 5.0, 0.5, 1.0),
            update(2, 2, 7.0, 0.5, 2.0),
        ],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(60));
    assert_eq!(r.counts.total(), 50);
    let sum: f64 = r.ratios().iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
}

#[test]
fn runs_are_deterministic() {
    let mut queries = Vec::new();
    for i in 0..40 {
        queries.push(query(i, 0.7 * i as f64, &[(i % 3) as u32], 1.2, 6.0));
    }
    let trace = Trace {
        n_items: 3,
        queries,
        updates: vec![update(0, 0, 2.5, 0.4, 0.0), update(1, 1, 4.0, 0.6, 0.5)],
    };
    let a = run_simulation(&trace, ApplyAll, cfg(60));
    let b = run_simulation(&trace, ApplyAll, cfg(60));
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.cpu_busy, b.cpu_busy);
    assert_eq!(a.updates_applied, b.updates_applied);
    assert_eq!(a.hp_aborts, b.hp_aborts);
}

#[test]
fn cpu_busy_never_exceeds_elapsed_time() {
    let mut queries = Vec::new();
    for i in 0..200 {
        queries.push(query(i, 0.2 * i as f64, &[(i % 8) as u32], 1.0, 5.0));
    }
    let trace = Trace {
        n_items: 8,
        queries,
        updates: (0..8).map(|j| update(j, j, 4.0, 0.5, 0.0)).collect(),
    };
    let r = run_simulation(&trace, ApplyAll, cfg(60));
    assert!(r.cpu_busy <= r.end_time.saturating_since(SimTime::ZERO));
    // Offered load >> 1: the CPU should be essentially saturated.
    assert!(r.utilization() > 0.9, "utilization {}", r.utilization());
    // And overload must produce failures.
    assert!(r.counts.deadline_miss + r.counts.data_stale > 0);
}

#[test]
fn timeline_recording_samples_every_tick() {
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 1.0, &[0], 1.0, 5.0)],
        updates: vec![update(0, 0, 3.0, 0.2, 0.0)],
    };
    let r = run_simulation(
        &trace,
        ApplyAll,
        cfg(10)
            .with_timeline()
            .with_tick_period(SimDuration::from_secs(2)),
    );
    // Ticks at 2,4,6,8,10.
    assert_eq!(r.timeline.len(), 5);
    assert!(r.timeline.windows(2).all(|w| w[0].time < w[1].time));
}

#[test]
fn work_drains_after_the_horizon() {
    // A query arriving just before the horizon still completes after it.
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 9.5, &[0], 3.0, 10.0)],
        updates: vec![update(0, 0, 1.0, 0.4, 0.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(10));
    assert_eq!(r.counts.total(), 1);
    assert!(r.end_time > SimTime::from_secs(10));
    // No versions are emitted past the horizon.
    let arrived: u64 = r.versions_arrived.iter().sum();
    assert_eq!(arrived, 11); // t = 0..=10
}

#[test]
fn multi_item_queries_lock_their_whole_read_set() {
    // Query reads items 0..3; an update storm on item 3 keeps evicting it.
    let trace = Trace {
        n_items: 4,
        queries: vec![query(0, 0.5, &[0, 1, 2, 3], 4.0, 15.0)],
        updates: vec![update(0, 3, 1.5, 0.3, 0.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    assert!(r.query_restarts >= 2);
    assert_eq!(r.counts.deadline_miss, 1, "{:?}", r.counts);
}

#[test]
fn mean_dispatch_freshness_reflects_staleness_at_lock_time() {
    // One stale dispatch (Udrop=1 on the single item): freshness 0.5.
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 5.0, &[0], 1.0, 10.0)],
        updates: vec![update(0, 0, 100.0, 0.5, 1.0)],
    };
    let r = run_simulation(&trace, SkipAll, cfg(100));
    assert!((r.mean_dispatch_freshness - 0.5).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Update-stream corner cases.
// ---------------------------------------------------------------------------

#[test]
fn multiple_streams_on_one_item_serialize_correctly() {
    // Two sources feed item 0 with different periods; every version applies.
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 50.0, &[0], 1.0, 20.0)],
        updates: vec![update(0, 0, 7.0, 0.5, 0.0), update(1, 0, 11.0, 0.5, 1.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(60));
    // Versions: t=0,7,14,...,56 (9) + t=1,12,23,34,45,56 (6) = 15.
    let arrived: u64 = r.versions_arrived.iter().sum();
    assert_eq!(arrived, 15);
    let applied: u64 = r.updates_applied.iter().sum();
    assert_eq!(applied, 15, "apply-all applies every version");
    assert_eq!(r.counts.success, 1, "{:?}", r.counts);
}

#[test]
fn on_demand_and_periodic_updates_coexist_on_one_item() {
    /// Applies the periodic stream only half the time, and demands
    /// refreshes for the rest — exercising the pending-on-demand guard
    /// alongside periodic traffic.
    struct HalfAndHalf {
        toggle: bool,
    }
    impl Policy for HalfAndHalf {
        fn name(&self) -> &str {
            "half"
        }
        fn init(&mut self, _: usize, _: &[UpdateSpec]) {}
        fn on_query_arrival(&mut self, _: &QuerySpec, _: &SnapshotView<'_>) -> AdmissionDecision {
            AdmissionDecision::Admit
        }
        fn on_version_arrival(
            &mut self,
            _: DataId,
            _: SimTime,
            _: &SnapshotView<'_>,
        ) -> UpdateAction {
            self.toggle = !self.toggle;
            if self.toggle {
                UpdateAction::Apply
            } else {
                UpdateAction::Skip
            }
        }
        fn demand_refresh(&mut self, q: &QuerySpec, udrop: &dyn Fn(DataId) -> u64) -> Vec<DataId> {
            q.items.iter().copied().filter(|&d| udrop(d) > 0).collect()
        }
    }

    let trace = Trace {
        n_items: 1,
        queries: (0..6)
            .map(|i| query(i, 10.0 + 13.0 * i as f64, &[0], 1.0, 12.0))
            .collect(),
        updates: vec![update(0, 0, 4.0, 0.5, 0.0)],
    };
    let r = run_simulation(&trace, HalfAndHalf { toggle: false }, cfg(100));
    assert_eq!(r.counts.total(), 6);
    // Everything the engine delivered read fresh data (refreshes fire on
    // stale dispatch), so no DSFs.
    assert_eq!(r.counts.data_stale, 0, "{:?}", r.counts);
    assert!(r.demand_refreshes > 0, "some refreshes must have fired");
}

#[test]
fn update_streams_starting_after_the_horizon_never_fire() {
    let mut u = update(0, 0, 10.0, 1.0, 0.0);
    u.first_arrival = SimTime::from_secs(500); // beyond the 100s horizon
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 1.0, &[0], 1.0, 10.0)],
        updates: vec![u],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100));
    assert_eq!(r.versions_arrived.iter().sum::<u64>(), 0);
    assert_eq!(r.counts.success, 1);
}

#[test]
fn timeline_reports_utilization_within_bounds() {
    let trace = Trace {
        n_items: 2,
        queries: (0..20)
            .map(|i| query(i, i as f64, &[0], 0.8, 10.0))
            .collect(),
        updates: vec![update(0, 1, 5.0, 1.0, 0.0)],
    };
    let r = run_simulation(
        &trace,
        ApplyAll,
        cfg(40)
            .with_timeline()
            .with_tick_period(SimDuration::from_secs(5)),
    );
    assert!(!r.timeline.is_empty());
    for s in &r.timeline {
        assert!(
            (0.0..=1.0).contains(&s.utilization),
            "util {}",
            s.utilization
        );
        assert!((-1.0..=1.0).contains(&s.usm));
    }
    // Busy workload: at least one window should be fully utilized.
    assert!(r.timeline.iter().any(|s| s.utilization > 0.9));
}

// ---------------------------------------------------------------------------
// Scheduling disciplines (ablation axis).
// ---------------------------------------------------------------------------

#[test]
fn global_edf_lets_an_urgent_query_beat_a_relaxed_update() {
    use unit_sim::SchedulingDiscipline;
    // Query (3s work, deadline t=4.5) and an update with a *lax* validity
    // deadline arrive together. Dual-priority runs the update first and the
    // query misses; global EDF runs the query first and both finish.
    let trace = Trace {
        n_items: 2,
        queries: vec![query(0, 1.0, &[0], 3.0, 3.5)],
        updates: vec![update(0, 1, 100.0, 1.0, 1.0)], // validity deadline t=101
    };
    let dual = run_simulation(&trace, ApplyAll, cfg(100));
    assert_eq!(dual.counts.deadline_miss, 1, "{:?}", dual.counts);

    let global = run_simulation(
        &trace,
        ApplyAll,
        cfg(100).with_discipline(SchedulingDiscipline::GlobalEdf),
    );
    assert_eq!(global.counts.success, 1, "{:?}", global.counts);
    assert_eq!(
        global.updates_applied.iter().sum::<u64>(),
        global.versions_arrived.iter().sum::<u64>(),
        "the update still runs, just later"
    );
}

#[test]
fn query_first_discipline_starves_freshness_under_load() {
    use unit_sim::SchedulingDiscipline;
    // Saturating query load + one update stream: with queries always first,
    // updates never get the CPU, so every later query reads stale data.
    let mut queries: Vec<QuerySpec> = Vec::new();
    for i in 0..60 {
        queries.push(query(i, 1.0 + i as f64, &[0], 1.0, 30.0));
    }
    let trace = Trace {
        n_items: 1,
        queries,
        updates: vec![update(0, 0, 10.0, 2.0, 0.0)],
    };
    let qf = run_simulation(
        &trace,
        ApplyAll,
        cfg(70).with_discipline(SchedulingDiscipline::QueryFirst),
    );
    let dual = run_simulation(&trace, ApplyAll, cfg(70));
    assert!(
        qf.counts.data_stale > dual.counts.data_stale,
        "query-first must go stale more: {} vs {}",
        qf.counts.data_stale,
        dual.counts.data_stale
    );
    // (Updates still drain after the queries finish, so the *applied* count
    // matches — what suffers is the freshness queries observe at read time.)
    assert!(
        qf.mean_dispatch_freshness < dual.mean_dispatch_freshness,
        "query-first reads staler data: {} vs {}",
        qf.mean_dispatch_freshness,
        dual.mean_dispatch_freshness
    );
}

#[test]
fn disciplines_preserve_conservation_laws() {
    use unit_sim::SchedulingDiscipline;
    let mut queries: Vec<QuerySpec> = Vec::new();
    for i in 0..30 {
        queries.push(query(i, 0.7 * i as f64, &[(i % 3) as u32], 1.0, 8.0));
    }
    let trace = Trace {
        n_items: 3,
        queries,
        updates: vec![update(0, 0, 3.0, 0.5, 0.0), update(1, 2, 5.0, 0.5, 1.0)],
    };
    for d in [
        SchedulingDiscipline::DualPriorityEdf,
        SchedulingDiscipline::GlobalEdf,
        SchedulingDiscipline::QueryFirst,
    ] {
        let r = run_simulation(&trace, ApplyAll, cfg(40).with_discipline(d));
        assert_eq!(r.counts.total(), 30, "{d:?}");
        assert!(
            r.cpu_busy.as_secs_f64() <= r.end_time.as_secs_f64() + 1e-9,
            "{d:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Multi-CPU server (substrate generalization; the paper uses one CPU).
// ---------------------------------------------------------------------------

#[test]
fn two_cpus_run_two_transactions_concurrently() {
    // Two queries arrive together, 4s each, 5s deadlines: impossible on one
    // CPU, trivial on two.
    let trace = Trace {
        n_items: 2,
        queries: vec![query(0, 1.0, &[0], 4.0, 5.0), query(1, 1.0, &[1], 4.0, 5.0)],
        updates: vec![],
    };
    let one = run_simulation(&trace, ApplyAll, cfg(100));
    assert_eq!(one.counts.deadline_miss, 1, "{:?}", one.counts);

    let two = run_simulation(&trace, ApplyAll, cfg(100).with_cpus(2));
    assert_eq!(two.counts.success, 2, "{:?}", two.counts);
    // 8s of work over a 100s horizon on 2 CPUs -> 4% utilization.
    assert!((two.utilization() - 0.04).abs() < 1e-9);
}

#[test]
fn concurrent_update_evicts_a_running_reader() {
    // On two CPUs, a query holding a read lock runs while an update for the
    // same item is dispatched on the other CPU: 2PL-HP must evict the
    // *running* reader (impossible on one CPU, where the reader would have
    // been preempted before dispatch).
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 1.0, &[0], 6.0, 30.0)],
        updates: vec![update(0, 0, 100.0, 1.0, 2.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100).with_cpus(2));
    assert_eq!(r.hp_aborts, 1);
    assert_eq!(r.query_restarts, 1);
    assert_eq!(r.counts.success, 1, "{:?}", r.counts);
    // Work: 1s wasted query + 1s update + 6s rerun = 8s.
    assert_eq!(r.cpu_busy, SimDuration::from_secs(8));
}

#[test]
fn blocked_readers_wait_for_a_running_writer() {
    // Update starts at t=1 (write lock on item 0, 5s); query arrives at t=2
    // wanting to read item 0 on the idle second CPU: it must BLOCK until
    // the writer commits, then succeed.
    let trace = Trace {
        n_items: 1,
        queries: vec![query(0, 2.0, &[0], 1.0, 20.0)],
        updates: vec![update(0, 0, 100.0, 5.0, 1.0)],
    };
    let r = run_simulation(&trace, ApplyAll, cfg(100).with_cpus(2));
    assert_eq!(r.counts.success, 1, "{:?}", r.counts);
    assert_eq!(
        r.hp_aborts, 0,
        "the lower-priority reader must wait, not evict"
    );
    // Query finishes at 6+1=7 (waited from 2 to 6).
    assert_eq!(r.cpu_busy, SimDuration::from_secs(6));
}

#[test]
fn multi_cpu_runs_preserve_conservation_laws() {
    let mut queries: Vec<QuerySpec> = Vec::new();
    for i in 0..60 {
        queries.push(query(i, 0.4 * i as f64, &[(i % 4) as u32], 1.5, 6.0));
    }
    let trace = Trace {
        n_items: 4,
        queries,
        updates: (0..4).map(|j| update(j, j, 3.0, 0.8, 0.0)).collect(),
    };
    for cpus in [1usize, 2, 4] {
        let r = run_simulation(&trace, ApplyAll, cfg(40).with_cpus(cpus));
        assert_eq!(r.counts.total(), 60, "{cpus} cpus");
        // Busy time can never exceed elapsed wall time x CPUs (work drains
        // past the horizon, so compare against end_time, not the horizon).
        assert!(
            r.cpu_busy.as_secs_f64() <= r.end_time.as_secs_f64() * cpus as f64 + 1e-9,
            "{cpus} cpus"
        );
        // More CPUs never hurt (same trace, same policy).
        if cpus > 1 {
            let base = run_simulation(&trace, ApplyAll, cfg(40));
            assert!(
                r.counts.success >= base.counts.success,
                "{cpus} cpus: {} < {}",
                r.counts.success,
                base.counts.success
            );
        }
    }
}
