//! The dispatcher walk every cluster run takes (`dispatch`), and what it
//! does under a fault plan: failover routing with deterministic
//! retry/backoff and USM-honest dispatcher rejections.
//!
//! With a [`FaultPlan`] in force, some shards are
//! down ([`FaultMode::Pause`]) or serving
//! degraded reads
//! ([`FaultMode::DegradedReads`])
//! over known virtual-time windows. Because the schedule is declarative —
//! fixed before the first event fires — the dispatcher can stay a
//! **sequential prologue** (DESIGN.md §3) and still react to faults: it
//! consults the plan, not shard execution, so the routing decision for
//! every query remains a pure function of
//! `(trace, plan, routing policy, failover policy)`.
//!
//! Per query, the dispatcher (`dispatch`) proceeds in preference order:
//!
//! 1. route among the **fully-up** candidate shards, by the underlying
//!    [`RoutingPolicy`];
//! 2. none up → route among **degraded** candidate shards (graceful
//!    degradation: reads on last-applied versions, honest DSF);
//! 3. all paused → wait out an exponential-backoff step *in virtual time*
//!    and retry, up to [`BackoffConfig::max_retries`] attempts and never
//!    past the query's firm deadline;
//! 4. budget or deadline exhausted → the dispatcher rejects the query,
//!    which is scored as a real `C_r` rejection in the cluster USM.
//!
//! A query routed after `k > 0` backoff steps reaches its shard at the
//! retry instant: its arrival moves forward and its relative deadline
//! shrinks by the waited time, preserving the original **absolute**
//! deadline. [`FailoverPolicy::NoRetry`] is the naive baseline: route by
//! the underlying policy as if every shard were healthy, letting queries
//! stall into crash windows — the thing the fault bench compares against.
//!
//! ## Virtual-time arithmetic at the ceiling
//!
//! Every sum in this module is overflow-hardened, and the regression tests
//! pin the behaviour with `u64::MAX`-adjacent inputs:
//!
//! * backoff delays saturate ([`BackoffConfig::delay`] uses
//!   `saturating_pow`/`saturating_mul`),
//! * retry instants use `checked_add`: a step that would pass
//!   [`SimTime::MAX`] rejects the query instead of wrapping to the far
//!   past (the aborted step still counts against the budget, so the loop
//!   stays bounded even at the ceiling),
//! * absolute deadlines saturate (`arrival + relative_deadline` clamps to
//!   [`SimTime::MAX`], meaning "infinitely patient" — the retry budget is
//!   then the only bound), and
//! * delayed re-dispatch shrinks the relative deadline with
//!   `saturating_since`, never underflowing past zero.

use crate::merge::{merge_key, ClusterReport, MergedOutcome, PromotionRecord, ReplicaRouteRecord};
use crate::replication::ReplicaSets;
use crate::routing::{replica_route_record, RouterState, RoutingPolicy};
use std::borrow::Cow;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{Outcome, QuerySpec, Trace};
use unit_core::usm::OutcomeCounts;
use unit_faults::{FaultMode, FaultPlan};
use unit_sim::HealthState;

/// Deterministic exponential backoff, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Factor applied per further retry (`delay_k = base · multiplier^k`).
    pub multiplier: u64,
    /// Retry budget: attempts beyond the initial one.
    pub max_retries: u32,
}

impl BackoffConfig {
    /// Delay before retry `attempt` (0-based), saturating on overflow.
    /// O(1).
    pub fn delay(&self, attempt: u32) -> SimDuration {
        SimDuration(
            self.base
                .0
                .saturating_mul(self.multiplier.saturating_pow(attempt)),
        )
    }
}

impl Default for BackoffConfig {
    /// 1 s base, doubling, 5 retries — total patience 31 s, enough to ride
    /// out the ~10 s crash windows the fault bench injects.
    fn default() -> BackoffConfig {
        BackoffConfig {
            base: SimDuration::from_secs(1),
            multiplier: 2,
            max_retries: 5,
        }
    }
}

/// How the dispatcher reacts to shards the fault plan marks unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverPolicy {
    /// Ignore health entirely: route as if every shard were up. Queries
    /// sent into a crash window stall until recovery (usually a DMF). The
    /// naive baseline.
    NoRetry,
    /// Prefer up shards, fall back to degraded ones, and back off in
    /// virtual time when every eligible shard is paused.
    Backoff(BackoffConfig),
}

impl FailoverPolicy {
    /// The retry budget this policy allows per query. O(1).
    pub fn retry_budget(&self) -> u32 {
        match self {
            FailoverPolicy::NoRetry => 0,
            FailoverPolicy::Backoff(cfg) => cfg.max_retries,
        }
    }
}

/// The dispatcher's verdict for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// Routed to `shard`, reaching it at `at` (`at > ` original arrival
    /// when the dispatcher backed off first).
    Routed {
        /// Target shard.
        shard: usize,
        /// Effective arrival at the shard.
        at: SimTime,
        /// Backoff steps taken before routing.
        retries: u32,
    },
    /// Rejected by the dispatcher at `at` after `retries` backoff steps:
    /// every eligible shard stayed paused until the budget or the query's
    /// deadline ran out. Scored as `C_r`.
    Rejected {
        /// Virtual instant the dispatcher gave up.
        at: SimTime,
        /// Backoff steps taken before giving up.
        retries: u32,
    },
}

impl RouteDecision {
    /// Backoff steps this decision consumed. O(1).
    pub fn retries(&self) -> u32 {
        match *self {
            RouteDecision::Routed { retries, .. } | RouteDecision::Rejected { retries, .. } => {
                retries
            }
        }
    }
}

/// What one [`dispatch`] walk decided.
pub(crate) struct Dispatch {
    /// Per-query routing decisions, in original trace order.
    pub(crate) decisions: Vec<RouteDecision>,
    /// Routes that landed on a follower, in dispatch order.
    pub(crate) routes: Vec<ReplicaRouteRecord>,
    /// Leader promotions, deduplicated to target changes per item.
    pub(crate) promotions: Vec<PromotionRecord>,
}

/// The dispatcher: one walk over the queries in arrival order, deciding
/// every query's shard (or rejection) and recording the replica-layer
/// routes and promotions alongside.
///
/// Candidate pools come from `sets` (leaders plus `Qu`-admissible
/// followers; a factor-1 placement has leaders only). With `faults` under
/// [`FailoverPolicy::Backoff`], pools are narrowed by the plan's health at
/// the dispatch instant, paused leaders promote their freshest live
/// follower, and an empty pool backs off as the module docs describe.
/// `None` — and [`FailoverPolicy::NoRetry`], which ignores health by
/// definition — reads every shard as `Up`: the first pool always holds the
/// read set's leaders, so every decision is `Routed { at: arrival,
/// retries: 0 }`. `plan.shards` must have one schedule per shard.
///
/// A promotion is recorded only when an item's promoted target *changes*
/// (and the slate is wiped when its leader is healthy again at a later
/// dispatch), so the promotion log is a compact, deterministic function of
/// `(placement, lag schedule, plan, trace)`.
///
/// Sequential and pure, O(N_q · (A · factor · (A + streams) + S log W))
/// for read sets of size A, S candidate shards and W crash windows per
/// shard.
pub(crate) fn dispatch(
    trace: &Trace,
    sets: &ReplicaSets,
    routing: RoutingPolicy,
    faults: Option<(&FaultPlan, &FailoverPolicy)>,
) -> Dispatch {
    let (plan, backoff) = match faults {
        Some((plan, FailoverPolicy::Backoff(cfg))) => (Some(plan), Some(cfg)),
        Some((_, FailoverPolicy::NoRetry)) | None => (None, None),
    };
    let mut router = RouterState::new(routing, trace, sets.map().n_shards());
    let mut routes = Vec::new();
    let mut promotions = Vec::new();
    let mut last_promo: Vec<Option<usize>> = vec![None; trace.n_items];
    #[expect(
        clippy::indexing_slicing,
        reason = "the plan has n_shards entries (checked by the caller), and promoted and read-set items come from q.items, all < n_items"
    )]
    let decisions = trace
        .queries
        .iter()
        .map(|q| {
            let deadline = q.deadline();
            let mut now = q.arrival;
            let mut retries = 0u32;
            loop {
                let health =
                    |s: usize| plan.map_or(HealthState::Up, |p| p.shards[s].health_at(now));
                let (pool, promos) = sets.pool_with_health(q, now, health);
                if !pool.is_empty() {
                    let shard = router.pick(q, &pool, now, sets);
                    router.commit(q, shard, now, sets);
                    for p in promos {
                        if last_promo[p.item.index()] != Some(p.to) {
                            last_promo[p.item.index()] = Some(p.to);
                            promotions.push(p);
                        }
                    }
                    for &d in &q.items {
                        if !health(sets.map().leader(d)).queries_paused() {
                            last_promo[d.index()] = None;
                        }
                    }
                    if let Some(r) = replica_route_record(sets, q, shard, now) {
                        routes.push(r);
                    }
                    return RouteDecision::Routed {
                        shard,
                        at: now,
                        retries,
                    };
                }
                let Some(cfg) = backoff.filter(|cfg| retries < cfg.max_retries) else {
                    return RouteDecision::Rejected { at: now, retries };
                };
                let delay = cfg.delay(retries);
                retries += 1;
                let Some(next) = now.0.checked_add(delay.0) else {
                    return RouteDecision::Rejected { at: now, retries };
                };
                now = SimTime(next);
                if now >= deadline {
                    return RouteDecision::Rejected {
                        at: deadline,
                        retries,
                    };
                }
            }
        })
        .collect();
    Dispatch {
        decisions,
        routes,
        promotions,
    }
}

/// Routed queries with their effective specs, plus the assignment aligned
/// to the returned trace's query order.
///
/// Rejected queries are excluded (the dispatcher already decided them);
/// routed queries whose dispatch was delayed get `arrival = at` and
/// `relative_deadline` shrunk to preserve the absolute deadline. Queries
/// are stably re-sorted by the effective arrival so the result is a valid
/// trace. When every query was routed at its own arrival that is the
/// identity, and the input trace is borrowed instead of rebuilt.
/// O(N_q log N_q), O(N_q) when nothing moved.
pub(crate) fn routed_trace<'a>(
    trace: &'a Trace,
    decisions: &[RouteDecision],
) -> (Cow<'a, Trace>, Vec<usize>) {
    let mut routed: Vec<(&QuerySpec, usize, SimTime)> = Vec::with_capacity(trace.queries.len());
    for (q, d) in trace.queries.iter().zip(decisions) {
        if let RouteDecision::Routed { shard, at, .. } = *d {
            routed.push((q, shard, at));
        }
    }
    if routed.len() == trace.queries.len() && routed.iter().all(|&(q, _, at)| at == q.arrival) {
        let assignment = routed.iter().map(|&(_, s, _)| s).collect();
        return (Cow::Borrowed(trace), assignment);
    }
    // Stable: same-arrival queries keep their trace order, exactly like
    // the original (sorted) trace.
    routed.sort_by_key(|&(_, _, at)| at);
    let assignment = routed.iter().map(|&(_, s, _)| s).collect();
    let queries = routed
        .into_iter()
        .map(|(q, _, at)| {
            let mut spec = q.clone();
            if at > spec.arrival {
                spec.relative_deadline = spec.deadline().saturating_since(at);
                spec.arrival = at;
            }
            spec
        })
        .collect();
    (
        Cow::Owned(Trace {
            n_items: trace.n_items,
            queries,
            updates: trace.updates.clone(),
        }),
        assignment,
    )
}

/// The result of one fault-injected cluster run.
///
/// Wraps the shard-level [`ClusterReport`] (whose counts, log and
/// assignment cover only the *routed* queries, so its own identity checks
/// still hold) and folds dispatcher rejections back in: they appear in
/// [`FaultClusterReport::counts`] as `C_r` and in
/// [`FaultClusterReport::rejections`] under the pseudo-shard id
/// [`FaultClusterReport::dispatcher_shard`].
/// [`FaultClusterReport::merged_log`] walks both logs in one order.
#[derive(Debug, Clone)]
pub struct FaultClusterReport {
    /// The shard-level report over routed queries.
    pub cluster: ClusterReport,
    /// Per-query routing decisions, in original trace order.
    pub decisions: Vec<RouteDecision>,
    /// Cluster tallies *including* dispatcher rejections.
    pub counts: OutcomeCounts,
    /// The dispatcher's outcome log: its rejections, numbered in trace
    /// order under the pseudo-shard id and sorted by `(time, shard, seq)`.
    /// The shard outcomes are `cluster.log`; [`Self::merged_log`] walks both.
    pub rejections: Vec<MergedOutcome>,
}

impl FaultClusterReport {
    /// Fold dispatcher rejections into the shard-level report: the R
    /// rejections are numbered in trace order and sorted. O(R log R).
    pub fn assemble(
        trace: &Trace,
        cluster: ClusterReport,
        decisions: Vec<RouteDecision>,
    ) -> FaultClusterReport {
        let pseudo = cluster.n_shards;
        let mut rejections: Vec<MergedOutcome> = trace
            .queries
            .iter()
            .zip(&decisions)
            .filter_map(|(q, d)| match *d {
                RouteDecision::Rejected { at, .. } => Some((at, q.id)),
                RouteDecision::Routed { .. } => None,
            })
            .zip(0u64..)
            .map(|((time, query), seq)| MergedOutcome {
                time,
                shard: pseudo,
                seq,
                query,
                outcome: Outcome::Rejected,
            })
            .collect();
        rejections.sort_unstable_by_key(merge_key);
        let mut counts = cluster.counts;
        counts.rejected += rejections.len() as u64;
        FaultClusterReport {
            cluster,
            decisions,
            counts,
            rejections,
        }
    }

    /// Shard outcomes and dispatcher rejections in one `(time, shard,
    /// seq)` order: a merge of the two sorted logs, O(1) per entry. Keys
    /// are unique, so the order is the one a full re-sort would give.
    pub fn merged_log(&self) -> impl Iterator<Item = &MergedOutcome> + '_ {
        let mut shards = self.cluster.log.iter().peekable();
        let mut dispatcher = self.rejections.iter().peekable();
        std::iter::from_fn(move || match (shards.peek(), dispatcher.peek()) {
            (Some(s), Some(r)) if merge_key(r) < merge_key(s) => dispatcher.next(),
            (Some(_), _) => shards.next(),
            (None, _) => dispatcher.next(),
        })
    }

    /// The pseudo-shard id dispatcher rejections are logged under (one
    /// past the last real shard). O(1).
    pub fn dispatcher_shard(&self) -> usize {
        self.cluster.n_shards
    }

    /// Queries the dispatcher rejected without routing. O(1).
    pub fn dispatcher_rejections(&self) -> u64 {
        self.counts.rejected - self.cluster.counts.rejected
    }

    /// Cluster-average USM over *all* queries, dispatcher rejections
    /// included. O(1).
    pub fn average_usm(&self) -> f64 {
        self.counts.average_usm(&self.cluster.weights)
    }

    /// Total backoff steps the dispatcher took across all queries. O(N_q).
    pub fn total_retries(&self) -> u64 {
        self.decisions.iter().map(|d| u64::from(d.retries())).sum()
    }
}

/// The fault cluster's health-consistency invariant (validate feature;
/// DESIGN.md §6):
///
/// 1. no shard outcome is decided strictly inside one of that shard's
///    `Pause` windows (a paused shard decides nothing; boundary instants
///    are legal — recovery work completes *at* `end`),
/// 2. no decision used more backoff steps than the failover policy's
///    budget,
/// 3. every trace query is accounted exactly once: shard outcomes plus
///    dispatcher rejections total the decision count, and the combined
///    log matches the combined tally.
pub fn check_health_consistency(
    report: &FaultClusterReport,
    plan: &FaultPlan,
    failover: &FailoverPolicy,
) -> Result<(), String> {
    let n = report.cluster.n_shards;
    if plan.shards.len() != n {
        return Err(format!(
            "plan covers {} shards but the cluster has {n}",
            plan.shards.len()
        ));
    }
    for r in report.merged_log() {
        // Dispatcher entries (shard >= n) are not shard outcomes.
        let Some(shard) = plan.shards.get(r.shard) else {
            continue;
        };
        for w in &shard.crashes {
            if w.mode == FaultMode::Pause && w.start < r.time && r.time < w.end {
                return Err(format!(
                    "shard {} decided query {:?} at t={:?}, strictly inside its pause window [{:?}, {:?})",
                    r.shard, r.query, r.time, w.start, w.end
                ));
            }
        }
    }
    let budget = failover.retry_budget();
    for (i, d) in report.decisions.iter().enumerate() {
        if d.retries() > budget {
            return Err(format!(
                "query #{i} used {} backoff steps, over the budget of {budget}",
                d.retries()
            ));
        }
    }
    if report.counts.total() != report.decisions.len() as u64 {
        return Err(format!(
            "{} outcomes for {} routing decisions",
            report.counts.total(),
            report.decisions.len()
        ));
    }
    let mut recount = OutcomeCounts::default();
    for r in report.merged_log() {
        recount.record(r.outcome);
    }
    if recount != report.counts {
        return Err(format!(
            "combined tally {:?} != combined-log recount {recount:?}",
            report.counts
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::types::{DataId, QueryId, UpdateSpec, UpdateStreamId};
    use unit_faults::{CrashWindow, FaultSchedule};

    fn query(id: u64, arrival: u64, items: &[u32]) -> QuerySpec {
        QuerySpec {
            id: QueryId(id),
            arrival: SimTime::from_secs(arrival),
            items: items.iter().map(|&i| DataId(i)).collect(),
            exec_time: SimDuration::from_secs(1),
            relative_deadline: SimDuration::from_secs(20),
            freshness_req: 0.9,
            pref_class: 0,
        }
    }

    /// 4 items over 2 shards; every query eligible on both shards.
    fn trace() -> Trace {
        Trace {
            n_items: 4,
            queries: vec![
                query(0, 1, &[0, 1]),
                query(1, 2, &[0, 1]),
                query(2, 3, &[2, 3]),
                query(3, 4, &[2, 3]),
            ],
            updates: vec![UpdateSpec {
                id: UpdateStreamId(0),
                item: DataId(0),
                period: SimDuration::from_secs(5),
                exec_time: SimDuration::from_secs(1),
                first_arrival: SimTime::ZERO,
            }],
        }
    }

    /// The fault-aware routing decision for every query of `t` on an
    /// unreplicated `n`-shard cluster.
    fn route(
        t: &Trace,
        n: usize,
        routing: RoutingPolicy,
        plan: &FaultPlan,
        failover: &FailoverPolicy,
    ) -> Vec<RouteDecision> {
        dispatch(t, &ReplicaSets::solo(t, n), routing, Some((plan, failover))).decisions
    }

    fn down(start: u64, end: u64, mode: FaultMode) -> FaultSchedule {
        FaultSchedule {
            crashes: vec![CrashWindow {
                start: SimTime::from_secs(start),
                end: SimTime::from_secs(end),
                mode,
            }],
            ..FaultSchedule::default()
        }
    }

    #[test]
    fn quiet_plan_reproduces_the_fault_free_assignment() {
        let t = trace();
        let p = unit_workload::ItemPartition::new(2);
        let plan = FaultPlan::quiet(2);
        for routing in RoutingPolicy::ALL {
            let plain = crate::routing::assign(&t, &p, routing);
            for failover in [
                FailoverPolicy::NoRetry,
                FailoverPolicy::Backoff(BackoffConfig::default()),
            ] {
                let decisions = route(&t, 2, routing, &plan, &failover);
                for (i, d) in decisions.iter().enumerate() {
                    assert_eq!(
                        *d,
                        RouteDecision::Routed {
                            shard: plain[i],
                            at: t.queries[i].arrival,
                            retries: 0
                        },
                        "{routing:?}/{failover:?} query {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn failover_routes_around_a_down_shard() {
        let t = trace();
        // Shard 0 is down for the whole query window; shard 1 is up.
        let plan = FaultPlan {
            shards: vec![down(0, 30, FaultMode::Pause), FaultSchedule::empty()],
        };
        let decisions = route(
            &t,
            2,
            RoutingPolicy::RoundRobin,
            &plan,
            &FailoverPolicy::Backoff(BackoffConfig::default()),
        );
        for d in &decisions {
            assert!(
                matches!(
                    *d,
                    RouteDecision::Routed {
                        shard: 1,
                        retries: 0,
                        ..
                    }
                ),
                "expected immediate failover to shard 1, got {d:?}"
            );
        }
    }

    #[test]
    fn degraded_shards_still_take_reads() {
        let t = trace();
        // Both shards unhealthy, but shard 1 only degraded: reads go there
        // without any backoff.
        let plan = FaultPlan {
            shards: vec![
                down(0, 30, FaultMode::Pause),
                down(0, 30, FaultMode::DegradedReads),
            ],
        };
        let decisions = route(
            &t,
            2,
            RoutingPolicy::LeastLoad,
            &plan,
            &FailoverPolicy::Backoff(BackoffConfig::default()),
        );
        for d in &decisions {
            assert!(matches!(
                *d,
                RouteDecision::Routed {
                    shard: 1,
                    retries: 0,
                    ..
                }
            ));
        }
    }

    #[test]
    fn backoff_waits_out_a_short_outage_and_preserves_the_deadline() {
        let t = trace();
        // Both shards paused until t=6: q0 (arrival 1) retries at 2, 4, 8.
        let plan = FaultPlan {
            shards: vec![down(0, 6, FaultMode::Pause), down(0, 6, FaultMode::Pause)],
        };
        let decisions = route(
            &t,
            2,
            RoutingPolicy::RoundRobin,
            &plan,
            &FailoverPolicy::Backoff(BackoffConfig::default()),
        );
        assert_eq!(
            decisions[0],
            RouteDecision::Routed {
                shard: 0,
                at: SimTime::from_secs(8),
                retries: 3
            }
        );
        let (routed, assignment) = routed_trace(&t, &decisions);
        assert_eq!(routed.queries.len(), 4);
        assert_eq!(assignment.len(), 4);
        routed.validate().unwrap();
        let q0 = routed.queries.iter().find(|q| q.id == QueryId(0)).unwrap();
        assert_eq!(q0.arrival, SimTime::from_secs(8));
        // Absolute deadline 1 + 20 = 21 is preserved.
        assert_eq!(q0.deadline(), SimTime::from_secs(21));
    }

    #[test]
    fn exhausted_budget_rejects_within_the_deadline() {
        let t = trace();
        let forever = 10_000;
        let plan = FaultPlan {
            shards: vec![
                down(0, forever, FaultMode::Pause),
                down(0, forever, FaultMode::Pause),
            ],
        };
        let cfg = BackoffConfig::default();
        let decisions = route(
            &t,
            2,
            RoutingPolicy::FreshnessAware,
            &plan,
            &FailoverPolicy::Backoff(cfg),
        );
        for (q, d) in t.queries.iter().zip(&decisions) {
            let RouteDecision::Rejected { at, retries } = *d else {
                panic!("expected rejection, got {d:?}");
            };
            assert!(retries <= cfg.max_retries);
            assert!(at <= q.deadline());
        }
        let (routed, assignment) = routed_trace(&t, &decisions);
        assert!(routed.queries.is_empty());
        assert!(assignment.is_empty());
    }

    #[test]
    fn backoff_delays_are_exponential_and_saturating() {
        let cfg = BackoffConfig {
            base: SimDuration::from_secs(2),
            multiplier: 3,
            max_retries: 10,
        };
        assert_eq!(cfg.delay(0), SimDuration::from_secs(2));
        assert_eq!(cfg.delay(1), SimDuration::from_secs(6));
        assert_eq!(cfg.delay(2), SimDuration::from_secs(18));
        assert_eq!(cfg.delay(u32::MAX), SimDuration(u64::MAX));
        // A saturated multiplier chain saturates the product too — no wrap
        // back to a tiny delay.
        let huge = BackoffConfig {
            base: SimDuration(u64::MAX / 2),
            multiplier: u64::MAX,
            max_retries: 3,
        };
        assert_eq!(huge.delay(1), SimDuration(u64::MAX));
    }

    /// A query arriving 2 ticks shy of `SimTime::MAX` with every shard
    /// paused: the first retry instant would overflow, so the dispatcher
    /// must reject at the *current* instant instead of wrapping into the
    /// far past (where the shards would look healthy again).
    #[test]
    fn backoff_at_the_time_ceiling_rejects_instead_of_wrapping() {
        let near_max = SimTime(u64::MAX - 2);
        let t = Trace {
            n_items: 4,
            queries: vec![QuerySpec {
                id: QueryId(0),
                arrival: near_max,
                items: vec![DataId(0)],
                exec_time: SimDuration::from_secs(1),
                relative_deadline: SimDuration::from_secs(20),
                freshness_req: 0.9,
                pref_class: 0,
            }],
            updates: vec![],
        };
        // The absolute deadline saturates: "infinitely patient".
        assert_eq!(t.queries[0].deadline(), SimTime::MAX);
        let window_start = SimTime(u64::MAX - 1_000_000_000);
        let window_end = SimTime(u64::MAX - 1); // MAX itself fails validation
        let paused = FaultSchedule {
            crashes: vec![CrashWindow {
                start: window_start,
                end: window_end,
                mode: FaultMode::Pause,
            }],
            ..FaultSchedule::default()
        };
        assert!(paused.validate().is_ok());
        let plan = FaultPlan {
            shards: vec![paused.clone(), paused],
        };
        let cfg = BackoffConfig::default();
        let decisions = route(
            &t,
            2,
            RoutingPolicy::RoundRobin,
            &plan,
            &FailoverPolicy::Backoff(cfg),
        );
        // The overflowing step is charged against the budget (keeping the
        // loop bounded at the ceiling) but time never moves: the rejection
        // is stamped at the arrival instant.
        assert_eq!(
            decisions[0],
            RouteDecision::Rejected {
                at: near_max,
                retries: 1
            }
        );
    }

    /// Backoff instants that stay *just* under the ceiling keep stepping
    /// normally — `u64::MAX`-adjacency alone must not reject.
    #[test]
    fn backoff_just_under_the_ceiling_still_routes() {
        let base = SimDuration::from_secs(1);
        let arrival = SimTime(u64::MAX - 10 * base.0);
        let t = Trace {
            n_items: 4,
            queries: vec![QuerySpec {
                id: QueryId(0),
                arrival,
                items: vec![DataId(0)],
                exec_time: SimDuration::from_secs(1),
                relative_deadline: SimDuration::from_secs(40),
                freshness_req: 0.9,
                pref_class: 0,
            }],
            updates: vec![],
        };
        // Both shards paused until one base-delay after arrival; the first
        // retry (arrival + base) lands exactly at the recovery instant.
        let recover = SimTime(arrival.0 + base.0);
        let paused = FaultSchedule {
            crashes: vec![CrashWindow {
                start: SimTime(arrival.0 - 5),
                end: recover,
                mode: FaultMode::Pause,
            }],
            ..FaultSchedule::default()
        };
        assert!(paused.validate().is_ok());
        let plan = FaultPlan {
            shards: vec![paused.clone(), paused],
        };
        let decisions = route(
            &t,
            2,
            RoutingPolicy::RoundRobin,
            &plan,
            &FailoverPolicy::Backoff(BackoffConfig {
                base,
                multiplier: 2,
                max_retries: 5,
            }),
        );
        assert_eq!(
            decisions[0],
            RouteDecision::Routed {
                shard: 0,
                at: recover,
                retries: 1
            }
        );
        // The delayed re-dispatch keeps the (saturated) absolute deadline
        // without underflowing the relative one.
        let (routed, _) = routed_trace(&t, &decisions);
        assert_eq!(routed.queries[0].arrival, recover);
        assert_eq!(routed.queries[0].deadline(), t.queries[0].deadline());
    }

    /// `routed_trace` at the ceiling: a saturated absolute deadline stays
    /// saturated after a delayed re-dispatch (the relative deadline shrinks
    /// to `MAX - at`, never wrapping).
    #[test]
    fn routed_trace_preserves_a_saturated_deadline() {
        let arrival = SimTime(u64::MAX - 100);
        let at = SimTime(u64::MAX - 40);
        let t = Trace {
            n_items: 1,
            queries: vec![QuerySpec {
                id: QueryId(0),
                arrival,
                items: vec![DataId(0)],
                exec_time: SimDuration::from_secs(1),
                relative_deadline: SimDuration(200), // saturates past MAX
                freshness_req: 0.9,
                pref_class: 0,
            }],
            updates: vec![],
        };
        let decisions = vec![RouteDecision::Routed {
            shard: 0,
            at,
            retries: 2,
        }];
        let (routed, assignment) = routed_trace(&t, &decisions);
        assert_eq!(assignment, vec![0]);
        assert_eq!(routed.queries[0].arrival, at);
        assert_eq!(routed.queries[0].relative_deadline, SimDuration(40));
        assert_eq!(routed.queries[0].deadline(), SimTime::MAX);
    }
}
