//! Property-based tests for the simulator substrate: event ordering, lock
//! safety, and whole-run invariants over randomly generated traces.

use proptest::prelude::*;
use unit_core::policy::{AdmissionDecision, Policy, UpdateAction};
use unit_core::snapshot::SnapshotView;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, QueryId, QuerySpec, Trace, UpdateSpec, UpdateStreamId};
use unit_sim::events::{Event, EventQueue};
use unit_sim::locks::{LockManager, ReadAcquire, WriteAcquire};
use unit_sim::txn::TxnId;
use unit_sim::{run_simulation, SimConfig};

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

proptest! {
    /// Events pop in non-decreasing time order, and same-time events pop in
    /// insertion order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1000, 0..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), Event::QueryArrival { spec_idx: i });
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, ev)) = q.pop() {
            popped += 1;
            let Event::QueryArrival { spec_idx } = ev else { unreachable!() };
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(spec_idx > lidx, "same-time events out of insertion order");
                }
            }
            last = Some((t, spec_idx));
        }
        prop_assert_eq!(popped, times.len());
    }
}

// ---------------------------------------------------------------------------
// Lock manager
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LockOp {
    Read { txn: u64, items: Vec<u8> },
    Write { txn: u64, item: u8, outranks: bool },
    Release { txn: u64 },
}

fn lock_op_strategy() -> impl Strategy<Value = LockOp> {
    prop_oneof![
        (0u64..12, prop::collection::vec(0u8..8, 1..4)).prop_map(|(txn, mut items)| {
            items.sort_unstable();
            items.dedup();
            LockOp::Read { txn, items }
        }),
        (0u64..12, 0u8..8, any::<bool>()).prop_map(|(txn, item, outranks)| LockOp::Write {
            txn,
            item,
            outranks
        }),
        (0u64..12).prop_map(|txn| LockOp::Release { txn }),
    ]
}

proptest! {
    /// Arbitrary acquire/release sequences never violate the lock table's
    /// internal invariants, and a transaction never ends up holding locks
    /// after an HP eviction.
    #[test]
    fn lock_manager_invariants_hold(ops in prop::collection::vec(lock_op_strategy(), 0..200)) {
        let mut lm = LockManager::new(8);
        let mut holding: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                LockOp::Read { txn, items } => {
                    if holding.contains(&txn) {
                        continue; // one acquisition per life, like the engine
                    }
                    let ids: Vec<DataId> = items.iter().map(|&i| DataId(i as u32)).collect();
                    if let ReadAcquire::Granted = lm.acquire_read(TxnId(txn), &ids) {
                        holding.insert(txn);
                    }
                }
                LockOp::Write { txn, item, outranks } => {
                    if holding.contains(&txn) {
                        continue;
                    }
                    match lm.acquire_write(TxnId(txn), DataId(item as u32), |_| outranks) {
                        WriteAcquire::Granted { aborted } => {
                            for v in aborted {
                                prop_assert!(!lm.holds_any(v), "evicted holder kept locks");
                                holding.remove(&v.0);
                            }
                            holding.insert(txn);
                        }
                        WriteAcquire::BlockedOn(_) => {}
                    }
                }
                LockOp::Release { txn } => {
                    lm.release_all(TxnId(txn));
                    holding.remove(&txn);
                }
            }
            lm.check_invariants().map_err(TestCaseError::fail)?;
            for &t in &holding {
                prop_assert!(lm.holds_any(TxnId(t)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-run invariants over random traces
// ---------------------------------------------------------------------------

/// Admit-all / apply-all policy for randomized end-to-end runs.
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

fn random_trace_strategy() -> impl Strategy<Value = Trace> {
    let items = 8usize;
    let queries = prop::collection::vec(
        (
            0u64..2_000, // arrival
            1u64..20,    // exec seconds
            2u64..120,   // relative deadline seconds
            prop::collection::vec(0u32..8, 1..4),
        ),
        1..80,
    );
    let updates = prop::collection::vec((0u32..8, 20u64..400, 1u64..30, 0u64..200), 0..8);
    (queries, updates).prop_map(move |(qs, us)| {
        let mut arrivals: Vec<_> = qs;
        arrivals.sort_by_key(|q| q.0);
        let queries = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, (arr, exec, dl, mut items_raw))| {
                items_raw.sort_unstable();
                items_raw.dedup();
                QuerySpec {
                    id: QueryId(i as u64),
                    arrival: SimTime::from_secs(arr),
                    items: items_raw.into_iter().map(DataId).collect(),
                    exec_time: SimDuration::from_secs(exec),
                    relative_deadline: SimDuration::from_secs(dl),
                    freshness_req: 0.9,
                    pref_class: 0,
                }
            })
            .collect();
        let updates = us
            .into_iter()
            .enumerate()
            .map(|(i, (item, period, exec, first))| UpdateSpec {
                id: UpdateStreamId(i as u32),
                item: DataId(item),
                period: SimDuration::from_secs(period),
                exec_time: SimDuration::from_secs(exec),
                first_arrival: SimTime::from_secs(first),
            })
            .collect();
        Trace {
            n_items: items,
            queries,
            updates,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// For any random trace: every query gets exactly one outcome, CPU time
    /// never exceeds wall time, ratios partition, and the run is
    /// deterministic.
    #[test]
    fn random_runs_satisfy_conservation_laws(trace in random_trace_strategy()) {
        let cfg = SimConfig::new(SimDuration::from_secs(2_200));
        let a = run_simulation(&trace, ApplyAll, cfg);
        prop_assert_eq!(a.counts.total() as usize, trace.queries.len());
        let sum: f64 = a.ratios().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(a.cpu_busy.as_secs_f64() <= a.end_time.as_secs_f64() + 1e-9);
        // Apply-all with no admission control never rejects.
        prop_assert_eq!(a.counts.rejected, 0);
        // Determinism.
        let b = run_simulation(&trace, ApplyAll, cfg);
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.cpu_busy, b.cpu_busy);
        // Every emitted version is accounted: applied <= arrived, per item.
        for i in 0..trace.n_items {
            prop_assert!(a.updates_applied[i] <= a.versions_arrived[i]);
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-run invariants with the real policies
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The full UNIT policy (feedback controller, lottery, admission) upholds
    /// the same conservation laws on arbitrary traces, and stays
    /// deterministic.
    #[test]
    fn unit_policy_random_runs_are_sound(trace in random_trace_strategy(), seed in any::<u64>()) {
        use unit_core::config::UnitConfig;
        use unit_core::unit_policy::UnitPolicy;
        use unit_core::usm::UsmWeights;

        let cfg = SimConfig::new(SimDuration::from_secs(2_200));
        let mk = || UnitPolicy::new(
            UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(seed),
        );
        let a = run_simulation(&trace, mk(), cfg);
        prop_assert_eq!(a.counts.total() as usize, trace.queries.len());
        prop_assert!(a.cpu_busy.as_secs_f64() <= a.end_time.as_secs_f64() + 1e-9);
        let (lo, hi) = UsmWeights::low_high_cfm().range();
        let usm = a.counts.average_usm(&UsmWeights::low_high_cfm());
        prop_assert!(usm >= lo - 1e-9 && usm <= hi + 1e-9);
        for i in 0..trace.n_items {
            prop_assert!(a.updates_applied[i] <= a.versions_arrived[i]);
        }

        let b = run_simulation(&trace, mk(), cfg);
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.updates_applied, b.updates_applied);
    }

    /// The baselines uphold their defining guarantees on arbitrary traces:
    /// IMU/ODU never reject and never deliver stale data; QMF conserves
    /// outcomes.
    #[test]
    fn baseline_policies_random_runs_are_sound(trace in random_trace_strategy()) {
        use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};

        let cfg = SimConfig::new(SimDuration::from_secs(2_200));

        let imu = run_simulation(&trace, ImuPolicy::new(), cfg);
        prop_assert_eq!(imu.counts.total() as usize, trace.queries.len());
        prop_assert_eq!(imu.counts.rejected, 0);
        prop_assert_eq!(imu.counts.data_stale, 0, "IMU delivers 100% freshness");

        let odu = run_simulation(&trace, OduPolicy::new(), cfg);
        prop_assert_eq!(odu.counts.total() as usize, trace.queries.len());
        prop_assert_eq!(odu.counts.rejected, 0);
        prop_assert_eq!(odu.counts.data_stale, 0, "ODU delivers 100% freshness");
        let applied: u64 = odu.updates_applied.iter().sum();
        prop_assert_eq!(applied, odu.demand_refreshes);

        let qmf = run_simulation(&trace, QmfPolicy::default(), cfg);
        prop_assert_eq!(qmf.counts.total() as usize, trace.queries.len());
        prop_assert!(qmf.cpu_busy.as_secs_f64() <= qmf.end_time.as_secs_f64() + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Multi-CPU runs uphold the same conservation laws, never exceed the
    /// aggregate CPU budget, and never do worse than fewer CPUs for the
    /// open-loop apply-all policy.
    #[test]
    fn multi_cpu_random_runs_are_sound(trace in random_trace_strategy(), cpus in 2usize..5) {
        let horizon = SimDuration::from_secs(2_200);
        let multi = run_simulation(&trace, ApplyAll, SimConfig::new(horizon).with_cpus(cpus));
        prop_assert_eq!(multi.counts.total() as usize, trace.queries.len());
        prop_assert!(
            multi.cpu_busy.as_secs_f64()
                <= multi.end_time.as_secs_f64() * cpus as f64 + 1e-9
        );
        for i in 0..trace.n_items {
            prop_assert!(multi.updates_applied[i] <= multi.versions_arrived[i]);
        }
        // Determinism holds with concurrency (virtual time, ordered events).
        let again = run_simulation(&trace, ApplyAll, SimConfig::new(horizon).with_cpus(cpus));
        prop_assert_eq!(multi.counts, again.counts);
        prop_assert_eq!(multi.cpu_busy, again.cpu_busy);
        // Near-monotonicity: more CPUs should not lose ground under
        // apply-all. (Strict monotonicity is not a theorem — multiprocessor
        // scheduling anomalies à la Graham exist with locking — so a small
        // tolerance absorbs the rare pathological interleaving.)
        let single = run_simulation(&trace, ApplyAll, SimConfig::new(horizon));
        prop_assert!(
            multi.counts.success + 2 >= single.counts.success,
            "{} cpus: {} << {}",
            cpus,
            multi.counts.success,
            single.counts.success
        );
    }
}
