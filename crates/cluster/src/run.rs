//! The unified cluster entry point: [`ClusterRun`], built from a
//! [`ClusterConfig`].
//!
//! One builder replaces the former four `run_*` free functions (removed
//! after a deprecation cycle): a plain cluster is `cfg.build().run(...)`,
//! faults are layered with [`ClusterRun::with_faults`], and observability
//! with [`ClusterRun::with_observer`] — so telemetry is wired once, here,
//! instead of once per entry point. Future shard/batching features extend
//! this builder rather than growing new top-level functions.
//!
//! ## Observation model
//!
//! Each shard engine records into its own private unbounded
//! [`RingRecorder`] on its worker thread (no shared state, no locks), and
//! after the merge the streams are **replayed** to the installed observer
//! as [`ObsEvent::Shard`]-wrapped events, interleaved with the
//! cluster-level dispatcher events (routes, rejections, shard-health
//! transitions) in `(time, lane, seq)` order — lane 0 is the dispatcher,
//! lane `s + 1` is shard `s`. The replay is a pure function of the run
//! inputs, so the observed stream is bit-identical for any worker count,
//! and observation never touches the engines' decision paths: every
//! `report_digest` matches the observer-free run exactly.

use crate::failover::{self, FailoverPolicy, FaultClusterReport, RouteDecision};
use crate::merge::{ClusterReport, ReplicationReport};
use crate::replication::{ReplicaSets, ReplicationConfig};
use crate::routing;
use crate::{ClusterConfig, ClusterConfigError, ExecutionMode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use unit_core::policy::Policy;
use unit_core::split_seed;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::Trace;
use unit_core::unit_policy::UnitPolicy;
use unit_core::UnitConfig;
use unit_faults::{FaultPlan, FaultSchedule, ShardFaults};
use unit_obs::{FaultPhase, ObsEvent, Observer, RingRecorder};
use unit_sim::{HealthState, SimConfig, SimReport, SimRun, Simulator};
use unit_workload::{slice_trace, slice_trace_filtered, slice_trace_replicated, ItemPartition};

/// A configured cluster run: faults and observation are layered onto the
/// shape described by the [`ClusterConfig`] it was built from, mirroring
/// the single-server `SimRun::with_faults`/`with_observer` builder.
pub struct ClusterRun<'a> {
    cluster: ClusterConfig,
    faults: Option<(&'a FaultPlan, FailoverPolicy)>,
    obs: Option<&'a mut dyn Observer>,
}

/// What a [`ClusterRun`] produced: the plain shard-level report, or the
/// fault-extended one when a plan was installed. The variant is decided by
/// the builder's configuration, never by what happened during the run, so
/// callers can match structurally.
#[derive(Debug, Clone)]
pub enum ClusterRunReport {
    /// A fault-free run ([`ClusterRun::with_faults`] absent).
    Plain(ClusterReport),
    /// A fault-injected run, dispatcher verdicts included.
    Faulty(FaultClusterReport),
}

impl ClusterRunReport {
    /// The shard-level report, whichever variant this is. O(1).
    pub fn cluster(&self) -> &ClusterReport {
        match self {
            ClusterRunReport::Plain(r) => r,
            ClusterRunReport::Faulty(r) => &r.cluster,
        }
    }

    /// The plain report, if this was a fault-free run. O(1).
    pub fn into_plain(self) -> Option<ClusterReport> {
        match self {
            ClusterRunReport::Plain(r) => Some(r),
            ClusterRunReport::Faulty(_) => None,
        }
    }

    /// The fault-extended report, if a plan was installed. O(1).
    pub fn into_faulty(self) -> Option<FaultClusterReport> {
        match self {
            ClusterRunReport::Plain(_) => None,
            ClusterRunReport::Faulty(r) => Some(r),
        }
    }
}

impl ClusterConfig {
    /// Start building a run from this shape. Layer options with
    /// [`ClusterRun::with_faults`] / [`ClusterRun::with_observer`], then
    /// execute with [`ClusterRun::run`] (or [`ClusterRun::run_unit`]).
    #[must_use]
    pub fn build<'a>(self) -> ClusterRun<'a> {
        ClusterRun {
            cluster: self,
            faults: None,
            obs: None,
        }
    }
}

impl<'a> ClusterRun<'a> {
    /// Install a fault plan and the dispatcher's failover policy. The run
    /// then uses fault-aware routing, executes each shard with its
    /// [`ShardFaults`] hook, and returns
    /// [`ClusterRunReport::Faulty`].
    #[must_use]
    pub fn with_faults(mut self, plan: &'a FaultPlan, failover: FailoverPolicy) -> ClusterRun<'a> {
        self.faults = Some((plan, failover));
        self
    }

    /// Install per-item leader/follower replication (equivalent to setting
    /// it on the [`ClusterConfig`] with
    /// [`ClusterConfig::with_replication`]): updates fan out to follower
    /// shards under the configured propagation lag, and reads may be
    /// served by any replica whose dispatcher-side `Qu` bound clears the
    /// query's freshness requirement. `factor == 1` is bit-identical to a
    /// non-replicated run (the replication differential suite pins this).
    #[must_use]
    pub fn with_replication(mut self, replication: ReplicationConfig) -> ClusterRun<'a> {
        self.cluster.replication = Some(replication);
        self
    }

    /// Install an observability sink. Shard event streams are recorded
    /// per-worker and replayed to `observer` after the merge (see the
    /// module docs for the deterministic interleave); dispatcher routes,
    /// rejections, and shard-health transitions are emitted at cluster
    /// level. Passive: the run's reports are bit-identical either way.
    #[must_use]
    pub fn with_observer(mut self, observer: &'a mut dyn Observer) -> ClusterRun<'a> {
        self.obs = Some(observer);
        self
    }

    /// Execute the run: route, slice, execute every shard, merge, and (with
    /// an observer installed) replay the recorded event streams.
    ///
    /// `make_policy(shard_id, seed)` builds each shard's policy instance;
    /// `seed` is already split from the run seed. The engine-level outcome
    /// log is forced on — the merge layer needs it — which does not change
    /// engine behaviour (the log is excluded from
    /// [`unit_sim::report_digest`]).
    ///
    /// # Errors
    /// Returns [`ClusterConfigError`] when the config fails
    /// [`ClusterConfig::validate`], or — with faults installed — when the
    /// plan does not cover every shard or a shard schedule is malformed.
    ///
    /// # Panics
    /// Panics if `trace` is malformed (same contract as
    /// [`SimRun::build`]) or a worker thread panics.
    pub fn run<P, F>(
        self,
        trace: &Trace,
        sim: SimConfig,
        make_policy: F,
    ) -> Result<ClusterRunReport, ClusterConfigError>
    where
        P: Policy + Send,
        F: Fn(usize, u64) -> P + Sync,
    {
        let ClusterRun {
            cluster,
            faults,
            obs,
        } = self;
        cluster.validate()?;
        let n = cluster.n_shards;
        let partition = ItemPartition::new(n);
        let sets = cluster
            .replication
            .as_ref()
            .map(|rep| ReplicaSets::new(trace, n, rep, cluster.seed, sim.horizon));

        // Dispatch prologue: fault-aware when a plan is installed, the
        // plain assigner otherwise; with replication, pools widen to
        // Qu-admissible followers. All four paths are sequential and pure.
        let mut routes = Vec::new();
        let mut promotions = Vec::new();
        let (hooks, decisions, routed_storage, assignment) = match faults {
            Some((plan, failover)) => {
                if plan.shards.len() != n {
                    return Err(ClusterConfigError::PlanShardMismatch {
                        plan_shards: plan.shards.len(),
                        n_shards: n,
                    });
                }
                if let Some(sets) = &sets {
                    // Propagation owns the full horizon of every followed
                    // item's streams; a user fault there would overlap it.
                    for (shard, sched) in plan.shards.iter().enumerate() {
                        for f in &sched.stream_faults {
                            if sets.map().follows(shard, f.item) {
                                return Err(ClusterConfigError::ReplicationFaultConflict {
                                    shard,
                                    item: f.item.0,
                                });
                            }
                        }
                    }
                }
                let hooks = build_shard_hooks(n, Some(plan), sets.as_ref())?;
                let decisions = match &sets {
                    Some(sets) => {
                        let replicated = failover::route_with_faults_replicated(
                            trace,
                            sets,
                            cluster.routing,
                            plan,
                            &failover,
                        );
                        routes = replicated.routes;
                        promotions = replicated.promotions;
                        replicated.decisions
                    }
                    None => failover::route_with_faults(
                        trace,
                        &partition,
                        cluster.routing,
                        plan,
                        &failover,
                    ),
                };
                let (routed, assignment) = failover::routed_trace(trace, &decisions);
                (hooks, Some(decisions), Some(routed), assignment)
            }
            None => {
                let assignment = match &sets {
                    Some(sets) => {
                        let (assignment, r) =
                            routing::assign_replicated(trace, sets, cluster.routing);
                        routes = r;
                        assignment
                    }
                    None => routing::assign(trace, &partition, cluster.routing),
                };
                let hooks = build_shard_hooks(n, None, sets.as_ref())?;
                (hooks, None, None, assignment)
            }
        };
        let exec_trace = routed_storage.as_ref().unwrap_or(trace);
        let sliced = match &sets {
            Some(sets) => {
                slice_trace_replicated(exec_trace, &assignment, sets.map(), cluster.filter_updates)
                    .map(|(t, _)| t)
            }
            None if cluster.filter_updates => {
                slice_trace_filtered(exec_trace, &assignment, &partition).map(|(t, _)| t)
            }
            None => slice_trace(exec_trace, &assignment, &partition),
        };
        let shard_traces = match sliced {
            Ok(t) => t,
            // lint: allow(panic) — the dispatcher produced the assignment; a bad one is a routing bug, not caller input
            Err(e) => panic!("internal routing error: {e}"),
        };
        let seeds: Vec<u64> = (0..n).map(|i| split_seed(cluster.seed, i as u64)).collect();
        let results = execute_shards(
            &shard_traces,
            &seeds,
            sim.with_outcome_log(),
            cluster.workers,
            cluster.mode,
            hooks.as_deref(),
            obs.is_some(),
            &make_policy,
        );
        let mut recorders: Vec<Option<RingRecorder>> = Vec::with_capacity(n);
        let mut shard_reports: Vec<SimReport> = Vec::with_capacity(n);
        let mut shard_walls: Vec<f64> = Vec::with_capacity(n);
        for (report, rec, wall) in results {
            shard_reports.push(report);
            recorders.push(rec);
            shard_walls.push(wall);
        }

        let mut cluster_report =
            ClusterReport::merge(cluster.routing, sim.weights, assignment, shard_reports);
        cluster_report.shard_walls = shard_walls;
        cluster_report.update_streams_per_shard =
            shard_traces.iter().map(|t| t.updates.len()).collect();
        unit_core::validate_check!(
            "cluster-usm-identity",
            crate::merge::check_cluster_identity(&cluster_report)
        );
        if let Some(sets) = &sets {
            let replication = ReplicationReport {
                factor: sets.factor(),
                propagation: sets.propagation_log(),
                routes,
                promotions,
            };
            unit_core::validate_check!(
                "replication-consistency",
                crate::replication::check_replication_consistency(
                    sets,
                    &replication,
                    sim.tick_period,
                    sim.horizon
                )
            );
            cluster_report.replication = Some(replication);
        }

        if let Some(observer) = obs {
            replay_events(
                observer,
                trace,
                recorders,
                decisions.as_deref(),
                hooks.as_deref(),
                cluster_report.assignment.as_slice(),
                exec_trace,
                cluster_report.replication.as_ref(),
            );
        }

        match decisions {
            Some(decisions) => {
                let report = FaultClusterReport::assemble(trace, cluster_report, decisions);
                #[cfg(feature = "validate")]
                if let Some((plan, failover)) = faults {
                    unit_core::validate_check!(
                        "health-consistency",
                        failover::check_health_consistency(&report, plan, &failover)
                    );
                }
                Ok(ClusterRunReport::Faulty(report))
            }
            None => Ok(ClusterRunReport::Plain(cluster_report)),
        }
    }

    /// Execute a UNIT run: one [`UnitPolicy`] per shard, each configured
    /// from `base` with its own split seed. The common case for benches.
    ///
    /// # Errors
    /// Same contract as [`ClusterRun::run`].
    pub fn run_unit(
        self,
        trace: &Trace,
        sim: SimConfig,
        base: &UnitConfig,
    ) -> Result<ClusterRunReport, ClusterConfigError> {
        self.run(trace, sim, |_, seed| {
            UnitPolicy::new(base.clone().with_seed(seed))
        })
    }
}

/// Build each shard's fault hook by merging the user plan (if any) with
/// the replication layer's propagation schedules (if any): every followed
/// item's streams run under the seeded windowed delays on that shard.
///
/// Returns `None` when there is nothing to install — no plan and every
/// propagation schedule empty (factor 1 or zero lag) — so a degenerate
/// replicated run executes its shards byte-identically to an unhooked
/// plain run. The conflict check in [`ClusterRun::run`] guarantees user
/// stream faults and propagation faults touch disjoint items per shard,
/// so the merged list stays valid (sorted, non-overlapping per item).
fn build_shard_hooks(
    n: usize,
    plan: Option<&FaultPlan>,
    sets: Option<&ReplicaSets>,
) -> Result<Option<Vec<ShardFaults>>, ClusterConfigError> {
    let mut schedules: Vec<FaultSchedule> = match plan {
        Some(p) => p.shards.clone(),
        None => vec![FaultSchedule::empty(); n],
    };
    let mut any = plan.is_some();
    if let Some(sets) = sets {
        for (s, sched) in schedules.iter_mut().enumerate() {
            let props = sets.propagation_faults(s);
            if props.is_empty() {
                continue;
            }
            any = true;
            sched.stream_faults.extend(props);
            sched.stream_faults.sort_by_key(|f| (f.item.0, f.start));
        }
    }
    if !any {
        return Ok(None);
    }
    let hooks = schedules
        .into_iter()
        .enumerate()
        .map(|(shard, s)| {
            ShardFaults::new(s).map_err(|error| ClusterConfigError::FaultSchedule { shard, error })
        })
        .collect::<Result<_, _>>()?;
    Ok(Some(hooks))
}

/// Execute every shard on a worker pool and return
/// `(report, recorder, wall_secs)` triples indexed by shard id
/// (`recorder` is `Some` iff `record`; `wall_secs` is the host time the
/// shard spent being built, stepped, and finished, excluding barrier
/// waits).
///
/// Interleaving-independence: shards share no mutable state — each
/// consumes its own trace slice, seed, and (when recording) a recorder
/// private to its worker — and results land in slots keyed by shard id, so
/// neither claim order, finish order, worker count, nor the execution
/// `mode` is observable in the output. With `hooks`, shard `i` runs with
/// `hooks[i]` installed as its fault hook.
#[allow(clippy::too_many_arguments)]
fn execute_shards<P, F>(
    shard_traces: &[Trace],
    seeds: &[u64],
    shard_cfg: SimConfig,
    workers: usize,
    mode: ExecutionMode,
    hooks: Option<&[ShardFaults]>,
    record: bool,
    make_policy: &F,
) -> Vec<(SimReport, Option<RingRecorder>, f64)>
where
    P: Policy + Send,
    F: Fn(usize, u64) -> P + Sync,
{
    let n = shard_traces.len();
    // `0` = auto: one worker per shard, capped at the host's actual
    // parallelism — extra threads on a smaller machine only add scheduling
    // and barrier overhead. Purely a wall-clock decision: results are
    // worker-count-invariant (pinned by the differential suites), so the
    // cap can never change a report.
    let workers = if workers == 0 {
        let cap = std::thread::available_parallelism().map_or(n, std::num::NonZeroUsize::get);
        n.min(cap)
    } else {
        workers.min(n)
    };
    if workers == 1 {
        // One worker: epoch lockstep and whole-shard claiming both
        // degenerate to serial execution, and the output is mode- and
        // worker-invariant (pinned by the differential suites) — so run
        // the shards inline on this thread, skipping the spawn, the
        // barriers, and the per-epoch engine round-robin entirely.
        return shard_traces
            .iter()
            .enumerate()
            .map(|(i, shard_trace)| {
                // lint: allow(D2) — diagnostic shard-wall timing, never enters sim state or digests
                let started = std::time::Instant::now();
                // lint: allow(D6) — i < n == seeds.len() (caller invariant)
                let policy = make_policy(i, seeds[i]);
                let mut rec = record.then(RingRecorder::unbounded);
                let report = {
                    let mut run = SimRun::trace(shard_trace, policy, shard_cfg);
                    if let Some(hooks) = hooks {
                        // lint: allow(D6) — hooks, when present, has n entries
                        run = run.with_faults(Box::new(hooks[i].clone()));
                    }
                    if let Some(r) = rec.as_mut() {
                        run = run.with_observer(r);
                    }
                    run.run()
                };
                (report, rec, started.elapsed().as_secs_f64())
            })
            .collect();
    }
    if let ExecutionMode::EpochParallel { epoch } = mode {
        return execute_shards_epoch(
            shard_traces,
            seeds,
            shard_cfg,
            workers,
            epoch,
            hooks,
            record,
            make_policy,
        );
    }
    let mut slots: Vec<Option<(SimReport, Option<RingRecorder>, f64)>> =
        (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut finished: Vec<(usize, SimReport, Option<RingRecorder>, f64)> =
                        Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // lint: allow(D2) — diagnostic shard-wall timing, never enters sim state or digests
                        let started = std::time::Instant::now();
                        // lint: allow(D6) — i < n == seeds.len() (caller invariant)
                        let policy = make_policy(i, seeds[i]);
                        let mut rec = record.then(RingRecorder::unbounded);
                        let report = {
                            // lint: allow(D6) — i < n == shard_traces.len()
                            let mut run = SimRun::trace(&shard_traces[i], policy, shard_cfg);
                            if let Some(hooks) = hooks {
                                // lint: allow(D6) — hooks, when present, has n entries
                                run = run.with_faults(Box::new(hooks[i].clone()));
                            }
                            if let Some(r) = rec.as_mut() {
                                run = run.with_observer(r);
                            }
                            run.run()
                        };
                        finished.push((i, report, rec, started.elapsed().as_secs_f64()));
                    }
                    finished
                })
            })
            .collect();
        for h in handles {
            // lint: allow(panic) — a worker panic is a shard-engine bug;
            // propagate it instead of reporting a partial cluster
            let finished = match h.join() {
                Ok(f) => f,
                Err(e) => std::panic::resume_unwind(e),
            };
            for (i, report, rec, wall) in finished {
                // lint: allow(D6) — workers only claim indices i < n
                slots[i] = Some((report, rec, wall));
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| match s {
            Some(r) => r,
            // lint: allow(panic) — every index < n is claimed exactly once
            None => panic!("shard {i} produced no report"),
        })
        .collect()
}

/// Epoch-parallel execution: worker `w` statically owns shards
/// `w, w + W, w + 2W, …` (each shard is built, stepped, and finished on
/// exactly one thread), and all live shards advance in lockstep through
/// virtual-time windows `(k·ε, (k+1)·ε]`. Two barriers close each round: one
/// publishes the round's drain count, one makes sure every worker has read
/// it before the next round's decrements start — the counter is monotone,
/// so all workers agree on the exit round and nobody strands a peer at a
/// barrier. Shards share no mutable state, and pausing an engine at an
/// epoch boundary reorders nothing ([`Simulator::step_until`]), so the
/// output is bit-identical to [`ExecutionMode::WholeShard`] for any worker
/// count or epoch. O(E log N_ev + R·W) for R rounds.
#[allow(clippy::too_many_arguments)]
fn execute_shards_epoch<P, F>(
    shard_traces: &[Trace],
    seeds: &[u64],
    shard_cfg: SimConfig,
    workers: usize,
    epoch: SimDuration,
    hooks: Option<&[ShardFaults]>,
    record: bool,
    make_policy: &F,
) -> Vec<(SimReport, Option<RingRecorder>, f64)>
where
    P: Policy + Send,
    F: Fn(usize, u64) -> P + Sync,
{
    let n = shard_traces.len();
    debug_assert!(workers >= 1 && workers <= n);
    debug_assert!(!epoch.is_zero(), "validate() rejects zero epochs");
    let barrier = Barrier::new(workers);
    let live_total = AtomicUsize::new(n);
    let mut slots: Vec<Option<(SimReport, Option<RingRecorder>, f64)>> =
        (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let barrier = &barrier;
        let live_total = &live_total;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let owned: Vec<usize> = (w..n).step_by(workers).collect();
                    let mut recs: Vec<Option<RingRecorder>> = owned
                        .iter()
                        .map(|_| record.then(RingRecorder::unbounded))
                        .collect();
                    // Engines borrow their recorders element-wise; `recs`
                    // stays mutably borrowed until every engine is finished.
                    // Walls accumulate each shard's build + stepping time,
                    // never the barrier waits below.
                    let (mut sims, mut walls): (Vec<Option<Simulator<'_, P>>>, Vec<f64>) = owned
                        .iter()
                        .zip(recs.iter_mut())
                        .map(|(&i, rec)| {
                            // lint: allow(D2) — diagnostic shard-wall timing, never enters sim state or digests
                            let started = std::time::Instant::now();
                            let mut run = SimRun::trace(
                                &shard_traces[i],         // lint: allow(D6) — i < n == shard_traces.len()
                                make_policy(i, seeds[i]), // lint: allow(D6) — i < n
                                shard_cfg,
                            );
                            if let Some(hooks) = hooks {
                                // Setup, not stepping: one clone per shard per run.
                                // lint: allow(D6,P2) — hooks has n entries; runs once per shard
                                run = run.with_faults(Box::new(hooks[i].clone()));
                            }
                            if let Some(r) = rec.as_mut() {
                                run = run.with_observer(r);
                            }
                            (Some(run.build()), started.elapsed().as_secs_f64())
                        })
                        .unzip();
                    let mut reports: Vec<Option<SimReport>> = owned.iter().map(|_| None).collect();
                    let mut limit = SimTime::ZERO;
                    loop {
                        limit += epoch;
                        for (j, slot) in sims.iter_mut().enumerate() {
                            let Some(sim) = slot.as_mut() else { continue };
                            // lint: allow(D2) — diagnostic shard-wall timing, never enters sim state or digests
                            let started = std::time::Instant::now();
                            if !sim.step_until(limit) {
                                // Drained: harvest now so the report is
                                // ready the moment the cluster converges.
                                if let Some(sim) = slot.take() {
                                    // lint: allow(D6) — j indexes sims, same length
                                    reports[j] = Some(sim.finish().0);
                                }
                                // Relaxed is enough: the barriers below
                                // order this store against every reader.
                                live_total.fetch_sub(1, Ordering::Relaxed);
                            }
                            // lint: allow(D6) — j indexes sims, same length
                            walls[j] += started.elapsed().as_secs_f64();
                        }
                        barrier.wait(); // round's drains are published
                        let done = live_total.load(Ordering::Relaxed) == 0;
                        barrier.wait(); // everyone has read before round k+1
                        if done {
                            break;
                        }
                    }
                    drop(sims); // ends the recorder borrows
                    owned
                        .into_iter()
                        .zip(reports)
                        .zip(recs)
                        .zip(walls)
                        .map(|(((i, report), rec), wall)| {
                            let Some(report) = report else {
                                // lint: allow(panic) — the loop only exits once every shard drained
                                panic!("shard {i} exited the epoch loop unfinished")
                            };
                            (i, report, rec, wall)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // lint: allow(panic) — a worker panic is a shard-engine bug;
            // propagate it instead of reporting a partial cluster
            let finished = match h.join() {
                Ok(f) => f,
                Err(e) => std::panic::resume_unwind(e),
            };
            for (i, report, rec, wall) in finished {
                // lint: allow(D6) — workers only claim indices i < n
                slots[i] = Some((report, rec, wall));
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| match s {
            Some(r) => r,
            // lint: allow(panic) — static ownership covers every shard exactly once
            None => panic!("shard {i} produced no report"),
        })
        .collect()
}

/// Replay the run's event streams to the observer in `(time, lane, seq)`
/// order: lane 0 carries the dispatcher (shard-health transitions first,
/// then routing verdicts, then replica routes and promotions, each in
/// construction order at equal instants), lane `s + 1` carries shard `s`'s
/// own stream wrapped as [`ObsEvent::Shard`], and lane
/// `1 + n_shards + s` is shard `s`'s replica pseudo-lane carrying its
/// follower-side propagation deliveries ([`crate::ClusterLane`]). Pure
/// function of the run inputs — worker count and finish order are
/// invisible. O(E log E) in the total event count.
#[allow(clippy::too_many_arguments)]
fn replay_events(
    observer: &mut dyn Observer,
    trace: &Trace,
    recorders: Vec<Option<RingRecorder>>,
    decisions: Option<&[RouteDecision]>,
    hooks: Option<&[ShardFaults]>,
    plain_assignment: &[usize],
    exec_trace: &Trace,
    replication: Option<&ReplicationReport>,
) {
    let mut all: Vec<(SimTime, u32, u64, ObsEvent)> = Vec::new();
    let mut seq0 = 0u64;
    let mut lane0 = |all: &mut Vec<(SimTime, u32, u64, ObsEvent)>, ev: ObsEvent| {
        all.push((ev.time(), 0, seq0, ev));
        seq0 += 1;
    };

    // Shard-health transitions, as the dispatcher sees the plan.
    if let Some(hooks) = hooks {
        for (s, hook) in hooks.iter().enumerate() {
            use unit_sim::FaultHook as _;
            let mut times = hook.transition_times();
            times.sort_unstable();
            times.dedup();
            for t in times {
                let (phase, until) = match hook.health(t) {
                    HealthState::Up => (FaultPhase::Up, None),
                    HealthState::Degraded { until } => (FaultPhase::Degraded, Some(until)),
                    HealthState::Down { until } => (FaultPhase::Down, Some(until)),
                };
                lane0(
                    &mut all,
                    ObsEvent::ShardHealth {
                        time: t,
                        shard: s as u32,
                        phase,
                        until,
                    },
                );
            }
        }
    }

    // Routing verdicts: fault-aware decisions when present, otherwise the
    // plain assignment (every query routed at its arrival, zero retries).
    match decisions {
        Some(decisions) => {
            for (q, d) in trace.queries.iter().zip(decisions) {
                let ev = match *d {
                    RouteDecision::Routed { shard, at, retries } => ObsEvent::DispatcherRoute {
                        time: at,
                        query: q.id,
                        shard: shard as u32,
                        retries,
                    },
                    RouteDecision::Rejected { at, retries } => ObsEvent::DispatcherReject {
                        time: at,
                        query: q.id,
                        retries,
                    },
                };
                lane0(&mut all, ev);
            }
        }
        None => {
            for (q, &shard) in exec_trace.queries.iter().zip(plain_assignment) {
                lane0(
                    &mut all,
                    ObsEvent::DispatcherRoute {
                        time: q.arrival,
                        query: q.id,
                        shard: shard as u32,
                        retries: 0,
                    },
                );
            }
        }
    }

    // Replica-layer events: follower routes and promotions on the
    // dispatcher lane (after the verdicts, in construction order), and
    // propagation deliveries on per-shard replica pseudo-lanes ordered
    // after every real shard lane.
    let n_shards = recorders.len();
    if let Some(rep) = replication {
        for r in &rep.routes {
            lane0(
                &mut all,
                ObsEvent::ReplicaRoute {
                    time: r.time,
                    query: r.query,
                    shard: r.shard as u32,
                    follower_items: r.follower_items,
                    claimed_transit: r.claimed_transit,
                },
            );
        }
        for p in &rep.promotions {
            lane0(
                &mut all,
                ObsEvent::ReplicaPromote {
                    time: p.time,
                    item: p.item,
                    from: p.from as u32,
                    to: p.to as u32,
                },
            );
        }
        let mut seqs = vec![0u64; n_shards];
        for r in &rep.propagation {
            // lint: allow(D6) — record followers are < n_shards (placement edge)
            let seq = seqs[r.follower];
            seqs[r.follower] += 1; // lint: allow(D6) — same bound as above
            all.push((
                r.time,
                1 + (n_shards + r.follower) as u32,
                seq,
                ObsEvent::ReplicaPropagate {
                    time: r.time,
                    item: r.item,
                    leader: r.leader as u32,
                    follower: r.follower as u32,
                    version: r.version,
                    emitted: r.emitted,
                },
            ));
        }
    }

    for (s, rec) in recorders.into_iter().enumerate() {
        let Some(rec) = rec else { continue };
        for (seq, event) in rec.into_events().into_iter().enumerate() {
            all.push((
                event.time(),
                s as u32 + 1,
                seq as u64,
                ObsEvent::Shard {
                    shard: s as u32,
                    seq: seq as u64,
                    event: Box::new(event),
                },
            ));
        }
    }

    all.sort_by_key(|&(time, lane, seq, _)| (time, lane, seq));
    for (_, _, _, ev) in all {
        observer.on_event(&ev);
    }
}
