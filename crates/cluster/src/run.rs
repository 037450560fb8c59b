//! The cluster entry point: [`ClusterRun`], built from a
//! [`ClusterConfig`].
//!
//! A plain cluster is `cfg.build().run(...)`; faults are layered with
//! [`ClusterRun::with_faults`] and observability with
//! [`ClusterRun::with_observer`]. Every run takes the same path — build
//! the placement, dispatch, slice, build the shard hooks, execute, merge —
//! and a configuration that installs nothing (no plan, factor 1 or zero
//! lag) reaches the shard engines with no hook at all.
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

use crate::failover::{self, Dispatch, FailoverPolicy, FaultClusterReport, RouteDecision};
use crate::merge::{ClusterReport, ReplicationReport};
use crate::replication::ReplicaSets;
use crate::{ClusterConfig, ClusterConfigError};
use std::sync::atomic::{AtomicUsize, Ordering};
use unit_core::policy::Policy;
use unit_core::split_seed;
use unit_core::time::SimTime;
use unit_core::types::Trace;
use unit_core::unit_policy::UnitPolicy;
use unit_core::UnitConfig;
use unit_faults::{FaultPlan, FaultSchedule, ShardFaults};
use unit_obs::{FaultPhase, ObsEvent, Observer, RingRecorder};
use unit_sim::{HealthState, SimConfig, SimReport, SimRun};
use unit_workload::slice_trace;

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
        let sets = cluster.replication.as_ref().map_or_else(
            || ReplicaSets::solo(trace, n),
            |rep| ReplicaSets::new(trace, n, rep, cluster.seed, sim.horizon),
        );
        let hooks = build_shard_hooks(faults.map(|(plan, _)| plan), &sets)?;

        // Dispatch prologue: sequential and pure.
        let Dispatch {
            decisions,
            routes,
            promotions,
        } = failover::dispatch(
            trace,
            &sets,
            cluster.routing,
            faults.as_ref().map(|(plan, failover)| (*plan, failover)),
        );
        let (exec_trace, assignment) = failover::routed_trace(trace, &decisions);
        #[expect(
            clippy::panic,
            reason = "the dispatcher produced the assignment; a bad one is a routing bug, not caller input"
        )]
        let shard_traces =
            match slice_trace(&exec_trace, &assignment, sets.map(), cluster.filter_updates) {
                Ok(t) => t,
                Err(e) => panic!("internal routing error: {e}"),
            };
        let results = execute_shards(
            &ShardInputs {
                traces: &shard_traces,
                seed: cluster.seed,
                cfg: sim.with_outcome_log(),
                hooks: hooks.as_deref(),
                record: obs.is_some(),
                make_policy: &make_policy,
            },
            cluster.workers,
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
        if cluster.replication.is_some() {
            let replication = ReplicationReport {
                factor: sets.factor(),
                propagation: sets.propagation_log(),
                routes,
                promotions,
            };
            unit_core::validate_check!(
                "replication-consistency",
                crate::replication::check_replication_consistency(
                    &sets,
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
                &decisions,
                hooks.as_deref(),
                cluster_report.replication.as_ref(),
            );
        }

        if faults.is_none() {
            return Ok(ClusterRunReport::Plain(cluster_report));
        }
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
/// the placement's propagation schedules: every followed item's streams
/// run under the seeded windowed delays on that shard.
///
/// Returns `None` when there is nothing to install — no plan and every
/// propagation schedule empty (factor 1 or zero lag) — so such a run
/// executes its shards unhooked, on the engine's hook-free paths. A user
/// stream fault on a shard that *follows* the item is rejected: the
/// propagation schedule owns the full horizon of every followed item's
/// streams there, and the merged list must stay valid (sorted,
/// non-overlapping per item).
fn build_shard_hooks(
    plan: Option<&FaultPlan>,
    sets: &ReplicaSets,
) -> Result<Option<Vec<ShardFaults>>, ClusterConfigError> {
    let n = sets.map().n_shards();
    let mut schedules: Vec<FaultSchedule> = match plan {
        Some(p) if p.shards.len() != n => {
            return Err(ClusterConfigError::PlanShardMismatch {
                plan_shards: p.shards.len(),
                n_shards: n,
            })
        }
        Some(p) => p.shards.clone(),
        None => vec![FaultSchedule::empty(); n],
    };
    let mut any = plan.is_some();
    for (shard, sched) in schedules.iter_mut().enumerate() {
        if let Some(f) = sched
            .stream_faults
            .iter()
            .find(|f| sets.map().follows(shard, f.item))
        {
            return Err(ClusterConfigError::ReplicationFaultConflict {
                shard,
                item: f.item.0,
            });
        }
        let props = sets.propagation_faults(shard);
        if props.is_empty() {
            continue;
        }
        any = true;
        sched.stream_faults.extend(props);
        sched.stream_faults.sort_by_key(|f| (f.item.0, f.start));
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

/// One shard's result: its report, its recorder (`Some` iff recording),
/// and the host seconds it spent being built, stepped and finished.
type ShardResult = (SimReport, Option<RingRecorder>, f64);

/// What every shard engine is assembled from. Shards share none of it
/// mutably: each consumes its own trace slice, its own seed split from
/// `seed`, its own clone of its hook, and (when recording) a recorder
/// private to its worker.
struct ShardInputs<'a, F> {
    traces: &'a [Trace],
    seed: u64,
    cfg: SimConfig,
    /// One hook per shard, or `None` to run every shard unhooked.
    hooks: Option<&'a [ShardFaults]>,
    record: bool,
    make_policy: &'a F,
}

impl<P: Policy, F: Fn(usize, u64) -> P> ShardInputs<'_, F> {
    /// Assemble shard `i`'s engine and run it start to finish on the
    /// calling thread, observed by a private recorder when recording.
    fn run_shard(&self, i: usize) -> ShardResult {
        #[expect(
            clippy::disallowed_methods,
            reason = "diagnostic shard-wall timing, never enters sim state or digests"
        )]
        let started = std::time::Instant::now();
        let mut rec = self.record.then(RingRecorder::unbounded);
        let policy = (self.make_policy)(i, split_seed(self.seed, i as u64));
        #[expect(
            clippy::indexing_slicing,
            reason = "callers pass i < n == traces.len()"
        )]
        let mut run = SimRun::trace(&self.traces[i], policy, self.cfg);
        if let Some(hook) = self.hooks.and_then(|hooks| hooks.get(i)) {
            run = run.with_faults(Box::new(hook.clone()));
        }
        if let Some(r) = rec.as_mut() {
            run = run.with_observer(r);
        }
        let report = run.run();
        (report, rec, started.elapsed().as_secs_f64())
    }
}

/// Run `work()` on `workers` workers and concatenate what they return.
/// One worker runs on the calling thread, skipping the spawn; more run on
/// scoped threads, and a worker panic — a shard-engine bug — propagates
/// instead of yielding a partial cluster.
fn run_workers<T: Send>(workers: usize, work: impl Fn() -> Vec<T> + Sync) -> Vec<T> {
    if workers == 1 {
        return work();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(finished) => finished,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    })
}

/// Execute every shard on a worker pool and return the results indexed by
/// shard id.
///
/// Each worker claims the next unstarted shard from a shared counter and
/// runs it start to finish, so a worker whose shard drains early takes the
/// next one instead of idling, and no worker ever waits on another —
/// static shard ownership with a barrier per virtual-time epoch measured
/// slower on `cluster-mix` (DESIGN.md §3).
///
/// Interleaving-independence: shards share no mutable state (see
/// [`ShardInputs`]) and results are keyed by shard id, so neither claim
/// order, finish order nor worker count is observable in the output.
fn execute_shards<P, F>(inputs: &ShardInputs<'_, F>, workers: usize) -> Vec<ShardResult>
where
    P: Policy + Send,
    F: Fn(usize, u64) -> P + Sync,
{
    let n = inputs.traces.len();
    // `0` = auto: one worker per shard, capped at the host's actual
    // parallelism — extra threads on a smaller machine only add scheduling
    // overhead. Purely a wall-clock decision: results are
    // worker-count-invariant (pinned by the differential suites), so the
    // cap can never change a report.
    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock decision only: reports are worker-count-invariant"
    )]
    let workers = if workers == 0 {
        let cap = std::thread::available_parallelism().map_or(n, std::num::NonZeroUsize::get);
        n.min(cap)
    } else {
        workers.min(n)
    };
    let next = AtomicUsize::new(0);
    let mut finished = run_workers(workers, || {
        std::iter::from_fn(|| {
            let i = next.fetch_add(1, Ordering::Relaxed);
            (i < n).then(|| (i, inputs.run_shard(i)))
        })
        .collect()
    });
    finished.sort_unstable_by_key(|&(i, _)| i);
    assert!(
        finished.iter().map(|&(i, _)| i).eq(0..n),
        "every shard must be executed exactly once"
    );
    finished.into_iter().map(|(_, result)| result).collect()
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
fn replay_events(
    observer: &mut dyn Observer,
    trace: &Trace,
    recorders: Vec<Option<RingRecorder>>,
    decisions: &[RouteDecision],
    hooks: Option<&[ShardFaults]>,
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

    // Routing verdicts.
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
            #[expect(
                clippy::indexing_slicing,
                reason = "record followers are < n_shards (placement edge)"
            )]
            let next = &mut seqs[r.follower];
            let seq = *next;
            *next += 1;
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
