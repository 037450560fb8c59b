//! The cluster dispatcher's routing policies: deterministic
//! query-to-shard routing.
//!
//! Routing runs as a **sequential prologue** before any shard executes:
//! the dispatcher (`failover::dispatch`) walks the global query
//! trace in arrival order and picks one shard per query from the state
//! kept here. Updates are not routed — they always follow their item to
//! the shards hosting it. Because the dispatcher never observes shard
//! execution (it works from the trace and its own deterministic state),
//! the assignment is a pure function of `(trace, placement, routing
//! policy)` — the first half of the cluster's bit-reproducibility argument
//! (DESIGN.md §3).
//!
//! A query is only ever routed among its *candidate* shards: shards
//! hosting at least one item in its read set (the owners, in an
//! unreplicated cluster). Routing a query to a shard that hosts none of
//! its data would make the shard engine read items whose update streams it
//! never sees — legal (the items just stay at their initial version) but
//! pointless; restricting to hosting shards keeps every read observable by
//! the update traffic that invalidates it.

use crate::failover::{dispatch, routed_trace};
use crate::merge::ReplicaRouteRecord;
use crate::replication::ReplicaSets;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, QuerySpec, Trace};
use unit_workload::ItemPartition;

/// How the dispatcher spreads queries over their eligible shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Rotate through eligible shards with a global counter. Oblivious to
    /// load and freshness; the baseline.
    RoundRobin,
    /// Send each query to the eligible shard with the least outstanding
    /// routed work (sum of exec times of queries routed there whose
    /// deadlines have not yet passed), ties to the lowest shard id.
    LeastLoad,
    /// Send each query to the eligible shard whose owned read-set items
    /// have the fewest estimated unapplied versions (a dispatcher-side
    /// `Udrop` proxy — see [module docs](self) and DESIGN.md §3), ties to
    /// the lowest shard id.
    FreshnessAware,
}

impl RoutingPolicy {
    /// All routing policies, for test matrices.
    pub const ALL: [RoutingPolicy; 3] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastLoad,
        RoutingPolicy::FreshnessAware,
    ];

    /// Short stable name (JSON output, test labels).
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastLoad => "least-load",
            RoutingPolicy::FreshnessAware => "freshness-aware",
        }
    }
}

/// Compute the query-to-shard assignment for `trace` under `routing` on an
/// unreplicated, fault-free cluster.
///
/// Walks queries in trace (= arrival) order, O(N_q · (A + log N_q)) for
/// read sets of size A. Pure and sequential: identical inputs give an
/// identical assignment on every run and any worker-thread count, because
/// worker threads have not even been spawned yet when this runs.
pub fn assign(trace: &Trace, partition: &ItemPartition, routing: RoutingPolicy) -> Vec<usize> {
    let sets = ReplicaSets::solo(trace, partition.n_shards());
    let decisions = dispatch(trace, &sets, routing, None).decisions;
    routed_trace(trace, &decisions).1
}

/// Per-shard outstanding-work ledger for `LeastLoad`.
///
/// Tracks the exec times of queries routed to the shard, keyed by their
/// firm deadlines; entries whose deadline has passed are lazily expired at
/// the next routing decision (a firm-deadline query is finished or dead by
/// then, either way no longer queued work).
pub(crate) struct ShardLoad {
    by_deadline: BinaryHeap<Reverse<(SimTime, SimDuration)>>,
    pub(crate) outstanding: SimDuration,
}

impl ShardLoad {
    pub(crate) fn new() -> ShardLoad {
        ShardLoad {
            by_deadline: BinaryHeap::new(),
            outstanding: SimDuration::ZERO,
        }
    }

    pub(crate) fn expire(&mut self, now: SimTime) {
        while let Some(&Reverse((deadline, exec))) = self.by_deadline.peek() {
            if deadline > now {
                break;
            }
            self.by_deadline.pop();
            self.outstanding = self.outstanding.saturating_sub(exec);
        }
    }

    pub(crate) fn admit(&mut self, deadline: SimTime, exec: SimDuration) {
        self.by_deadline.push(Reverse((deadline, exec)));
        self.outstanding += exec;
    }
}

/// Dispatcher-side freshness estimator for `FreshnessAware`.
///
/// The dispatcher cannot see the shards' real `Udrop` tables without
/// breaking the sequential-prologue determinism (shard state depends on
/// execution), so it keeps its own integer estimate per item: how many
/// versions the item's update streams have emitted up to `now`
/// (`Σ 1 + ⌊(now − first)/period⌋`, pure arithmetic on the trace's
/// schedules), minus a baseline that resets whenever a query reading the
/// item is routed to its owner — modelling that the owner refreshes items
/// its queries touch. An estimate, not ground truth: shards modulate
/// update periods at runtime. DESIGN.md §3 discusses the gap.
pub(crate) struct FreshnessEstimate {
    /// Per item: the `(first_arrival, period)` of each update stream on it.
    streams: Vec<Vec<(SimTime, SimDuration)>>,
    /// Per item: version count at the last routed read of the item.
    baseline: Vec<u64>,
}

impl FreshnessEstimate {
    pub(crate) fn new(trace: &Trace) -> FreshnessEstimate {
        let mut streams = vec![Vec::new(); trace.n_items];
        for u in &trace.updates {
            // lint: allow(D6) — trace invariant: update items index < n_items
            streams[u.item.index()].push((u.first_arrival, u.period));
        }
        FreshnessEstimate {
            baseline: vec![0; trace.n_items],
            streams,
        }
    }

    /// The `(first_arrival, period)` schedule of every update stream on
    /// `item`, in trace order.
    pub(crate) fn streams(&self, item: usize) -> &[(SimTime, SimDuration)] {
        // lint: allow(D6) — every caller passes item indices < n_items
        &self.streams[item]
    }

    /// Versions emitted for `item` up to and including `now`.
    pub(crate) fn versions(&self, item: usize, now: SimTime) -> u64 {
        self.streams(item)
            .iter()
            .map(|&(first, period)| {
                if now < first {
                    0
                } else {
                    1 + now.saturating_since(first).0 / period.0
                }
            })
            .sum()
    }

    /// Estimated unapplied versions of `item` at `now`.
    pub(crate) fn udrop(&self, item: usize, now: SimTime) -> u64 {
        // lint: allow(D6) — every caller passes item indices < n_items
        self.versions(item, now).saturating_sub(self.baseline[item])
    }

    /// A query reading `item` was routed to its owner: assume the owner
    /// refreshes it for the read.
    pub(crate) fn reset(&mut self, item: usize, now: SimTime) {
        // lint: allow(D6) — every caller passes item indices < n_items
        self.baseline[item] = self.versions(item, now);
    }
}

/// The routing policy's mutable state: the dispatcher hands it each
/// query's candidate pool and it picks one shard.
pub(crate) enum RouterState {
    RoundRobin { counter: usize },
    LeastLoad { loads: Vec<ShardLoad> },
    FreshnessAware { est: FreshnessEstimate },
}

impl RouterState {
    pub(crate) fn new(routing: RoutingPolicy, trace: &Trace, n_shards: usize) -> RouterState {
        match routing {
            RoutingPolicy::RoundRobin => RouterState::RoundRobin { counter: 0 },
            RoutingPolicy::LeastLoad => RouterState::LeastLoad {
                loads: (0..n_shards).map(|_| ShardLoad::new()).collect(),
            },
            RoutingPolicy::FreshnessAware => RouterState::FreshnessAware {
                est: FreshnessEstimate::new(trace),
            },
        }
    }

    /// Pick a shard from the non-empty `pool` (ascending shard ids) for a
    /// query being dispatched at `now`. Ties break to the lowest shard id:
    /// `min` keeps the first minimum and the pool is ascending.
    pub(crate) fn pick(
        &mut self,
        q: &QuerySpec,
        pool: &[usize],
        now: SimTime,
        sets: &ReplicaSets,
    ) -> usize {
        match self {
            RouterState::RoundRobin { counter } => {
                // lint: allow(D6) — callers pass a non-empty pool; modulo
                let shard = pool[*counter % pool.len()];
                *counter += 1;
                shard
            }
            RouterState::LeastLoad { loads } => pool
                .iter()
                .copied()
                .map(|s| {
                    // lint: allow(D6) — pool shard ids are < n_shards
                    loads[s].expire(now);
                    (loads[s].outstanding, s) // lint: allow(D6) — s < n_shards
                })
                .min()
                .map_or(0, |(_, s)| s),
            RouterState::FreshnessAware { est } => pool
                .iter()
                .copied()
                .map(|s| {
                    let staleness: u64 = q
                        .items
                        .iter()
                        .filter_map(|&d| sets.staleness(est, d, s, now))
                        .max()
                        .unwrap_or(0);
                    (staleness, s)
                })
                .min()
                .map_or(0, |(_, s)| s),
        }
    }

    /// Account for a query routed to `shard` at `now`: `LeastLoad` books
    /// its work against the shard; `FreshnessAware` resets the estimate of
    /// every read-set item the shard leads (only an authoritative read
    /// refreshes it — a follower read neither updates the leader nor
    /// catches the follower up beyond its propagation schedule).
    pub(crate) fn commit(&mut self, q: &QuerySpec, shard: usize, now: SimTime, sets: &ReplicaSets) {
        match self {
            RouterState::RoundRobin { .. } => {}
            // lint: allow(D6) — the committed shard came from the pool
            RouterState::LeastLoad { loads } => loads[shard].admit(q.deadline(), q.exec_time),
            RouterState::FreshnessAware { est } => {
                for &d in &q.items {
                    if sets.map().leader(d) == shard {
                        est.reset(d.index(), now);
                    }
                }
            }
        }
    }
}

/// The [`ReplicaRouteRecord`] for routing `q` to `shard` at `now`, or
/// `None` when the shard leads every read-set item (a leader-only route
/// needs no replica bookkeeping). O(A · streams).
pub(crate) fn replica_route_record(
    sets: &ReplicaSets,
    q: &QuerySpec,
    shard: usize,
    now: SimTime,
) -> Option<ReplicaRouteRecord> {
    let followed: Vec<DataId> = q
        .items
        .iter()
        .copied()
        .filter(|&d| sets.map().follows(shard, d))
        .collect();
    if followed.is_empty() {
        return None;
    }
    Some(ReplicaRouteRecord {
        time: now,
        query: q.id,
        shard,
        follower_items: followed.len() as u32,
        claimed_transit: followed
            .iter()
            .map(|&d| sets.claimed_transit(d, now))
            .max()
            .unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::types::{DataId, QueryId, QuerySpec, UpdateSpec, UpdateStreamId};

    fn query(id: u64, arrival: u64, items: &[u32]) -> QuerySpec {
        QuerySpec {
            id: QueryId(id),
            arrival: SimTime::from_secs(arrival),
            items: items.iter().map(|&i| DataId(i)).collect(),
            exec_time: SimDuration::from_secs(1),
            relative_deadline: SimDuration::from_secs(5),
            freshness_req: 0.9,
            pref_class: 0,
        }
    }

    fn update(id: u32, item: u32, period: u64) -> UpdateSpec {
        UpdateSpec {
            id: UpdateStreamId(id),
            item: DataId(item),
            period: SimDuration::from_secs(period),
            exec_time: SimDuration::from_secs(1),
            first_arrival: SimTime::ZERO,
        }
    }

    /// 4 items over 2 shards: shard 0 owns {0, 2}, shard 1 owns {1, 3}.
    fn trace() -> Trace {
        Trace {
            n_items: 4,
            queries: vec![
                query(0, 1, &[0, 1]),
                query(1, 2, &[0, 1]),
                query(2, 3, &[0, 1]),
                query(3, 4, &[2]),
            ],
            updates: vec![update(0, 0, 10), update(1, 1, 2)],
        }
    }

    #[test]
    fn round_robin_rotates_over_eligible_shards() {
        let t = trace();
        let p = ItemPartition::new(2);
        // q0..q2 are eligible on both shards; q3 only on shard 0 (item 2).
        assert_eq!(assign(&t, &p, RoutingPolicy::RoundRobin), vec![0, 1, 0, 0]);
    }

    #[test]
    fn least_load_balances_and_breaks_ties_low() {
        let t = trace();
        let p = ItemPartition::new(2);
        let a = assign(&t, &p, RoutingPolicy::LeastLoad);
        // q0: both empty, tie -> 0. q1: shard 0 busy -> 1. q2: tie again -> 0.
        // q3: only shard 0 eligible.
        assert_eq!(a, vec![0, 1, 0, 0]);
    }

    #[test]
    fn least_load_expires_finished_work() {
        let mut t = trace();
        // Move q2 past q0/q1's deadlines (arrival 1,2 + rel 5 => dead by 8).
        t.queries[2].arrival = SimTime::from_secs(20);
        t.queries[3].arrival = SimTime::from_secs(21);
        let p = ItemPartition::new(2);
        let a = assign(&t, &p, RoutingPolicy::LeastLoad);
        // With both ledgers expired, q2 ties back to shard 0.
        assert_eq!(a[2], 0);
    }

    #[test]
    fn freshness_aware_avoids_the_stale_owner() {
        let t = trace();
        let p = ItemPartition::new(2);
        let a = assign(&t, &p, RoutingPolicy::FreshnessAware);
        // Item 1 (shard 1) updates every 2s, item 0 (shard 0) every 10s:
        // shard 1's owned read-set item goes stale faster, so queries
        // keep landing on shard 0 (whose item-0 estimate resets on every
        // routed read). q3 is only eligible on shard 0.
        assert_eq!(a, vec![0, 0, 0, 0]);
    }

    #[test]
    fn freshness_estimates_count_versions() {
        let t = trace();
        let est = FreshnessEstimate::new(&t);
        // Item 1: first at 0, period 2 -> versions at t=5 are 1 + 5/2 = 3.
        assert_eq!(est.versions(1, SimTime::from_secs(5)), 3);
        assert_eq!(est.versions(2, SimTime::from_secs(5)), 0);
    }

    #[test]
    fn assignments_are_reproducible() {
        let t = trace();
        let p = ItemPartition::new(2);
        for routing in RoutingPolicy::ALL {
            assert_eq!(assign(&t, &p, routing), assign(&t, &p, routing));
        }
    }
}
