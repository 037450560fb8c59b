//! Per-item leader/follower replication with freshness-aware read routing
//! (DESIGN.md §5).
//!
//! Partitioning alone (`item mod N`) means every read lands on the one
//! shard that applies the item's updates: reads always see leader-fresh
//! data and the freshness/load tradeoff the paper motivates never reaches
//! the routing layer. Replication changes that: each item gets a **leader**
//! (its modulo owner, unchanged) plus `factor - 1` **followers** on the
//! next shards around the ring ([`unit_workload::ReplicaMap`]). Updates apply at the
//! leader and *propagate* to followers over the existing delayed
//! update-stream machinery in `unit_faults`: each follower's copy of the
//! item's update streams runs under seeded, windowed
//! [`StreamFaultKind::Delay`] intervals, so a version emitted at `e`
//! is applied on the follower only at `e + delay(window(e))` — a
//! deterministic propagation schedule in virtual time, not new plumbing.
//! The engine observes the version's *arrival* at `e` (the follower is
//! honestly stale while the version is in transit) and spawns the
//! application transaction at the delayed instant.
//!
//! ## Dispatcher-side lag bound
//!
//! The dispatcher routes sequentially, before any shard executes, so it
//! cannot see true follower state. It bounds a follower's staleness with
//! pure trace arithmetic: every per-window delay is at most
//! `lag.base + lag.jitter`, so every version emitted at or before
//! `t - max_lag` has been delivered by `t`. The **claimed in-transit
//! count** `emitted(t) - emitted(t - max_lag)` therefore upper-bounds the
//! versions still in flight, and the follower's lag-based freshness is at
//! least `Qu = 1/(1 + claimed)` ([`unit_core::freshness::lag_freshness`]).
//! A read may be served by a follower only when that bound clears the
//! query's `qf_i` — so a follower read is never staler than the bound
//! claims (the soundness property the proptest suite pins).
//!
//! ## Promotion
//!
//! When an item's leader is paused by a fault plan at routing time, the
//! **freshest live follower** — minimal claimed in-transit count, ties to
//! the lowest shard id — is promoted for the item: it joins the candidate
//! pool regardless of the `Qu` gate (it is the best available authority).
//! Promotion is a pure function of `(placement, lag schedule, plan, t)`,
//! so it is unique and reproducible across reruns and worker counts.

use crate::merge::{PromotionRecord, PropagationRecord, ReplicationReport};
use crate::routing::FreshnessEstimate;
use crate::ClusterConfigError;
use unit_core::freshness::max_tolerable_udrop;
use unit_core::split_seed;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, QuerySpec, Trace};
use unit_faults::{StreamFault, StreamFaultKind};
use unit_sim::HealthState;
use unit_workload::ReplicaMap;

/// Seed domain separating the propagation-lag draws from the per-shard
/// policy seeds (`split_seed(seed, shard)` with `shard < MAX_WORKERS`).
const LAG_SEED_DOMAIN: u64 = 0x5245_504C_5F4C_4147; // "REPL_LAG"

/// The deterministic propagation-lag model: the horizon is chopped into
/// `windows` equal spans, and each `(item, follower, window)` triple gets a
/// seeded delay in `[base, base + jitter]`. Every version emitted in that
/// window is applied on the follower after exactly that delay, so the
/// worst case over the whole run is `base + jitter` — the bound the
/// dispatcher routes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropagationLag {
    /// Minimum replication delay applied to every propagated version.
    pub base: SimDuration,
    /// Seeded extra delay, drawn per `(item, follower, window)` in
    /// `[0, jitter]`.
    pub jitter: SimDuration,
    /// Jitter windows the horizon is divided into (≥ 1).
    pub windows: usize,
}

impl PropagationLag {
    /// Zero lag: followers apply every version at its emission instant.
    pub fn none() -> PropagationLag {
        PropagationLag {
            base: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            windows: 1,
        }
    }

    /// A constant delay for every propagated version.
    pub fn fixed(base: SimDuration) -> PropagationLag {
        PropagationLag {
            base,
            jitter: SimDuration::ZERO,
            windows: 1,
        }
    }

    /// A jittered schedule: per-window delays in `[base, base + jitter]`.
    pub fn jittered(base: SimDuration, jitter: SimDuration, windows: usize) -> PropagationLag {
        PropagationLag {
            base,
            jitter,
            windows,
        }
    }

    /// The largest delay any version can experience. O(1).
    pub fn max_lag(&self) -> SimDuration {
        SimDuration(self.base.0.saturating_add(self.jitter.0))
    }

    /// True when no version is ever delayed. O(1).
    pub fn is_zero(&self) -> bool {
        self.max_lag().is_zero()
    }
}

/// Replication shape: how many replicas each item has (its followers sit
/// on the next shards around the ring), and how update propagation lags
/// behind the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Replicas per item, leader included (≥ 1; 1 = partition-only).
    pub factor: usize,
    /// The deterministic propagation-lag schedule.
    pub lag: PropagationLag,
}

impl ReplicationConfig {
    /// `factor` replicas per item, ring placement, zero propagation lag.
    pub fn new(factor: usize) -> ReplicationConfig {
        ReplicationConfig {
            factor,
            lag: PropagationLag::none(),
        }
    }

    /// Set the propagation-lag schedule.
    #[must_use]
    pub fn with_lag(mut self, lag: PropagationLag) -> ReplicationConfig {
        self.lag = lag;
        self
    }

    /// Check the replication parameters against a cluster of `n_shards`.
    /// O(factor).
    pub fn validate(&self, n_shards: usize) -> Result<(), ClusterConfigError> {
        if self.factor == 0 {
            return Err(ClusterConfigError::ZeroReplicationFactor);
        }
        if self.factor > n_shards {
            return Err(ClusterConfigError::ReplicationFactorExceedsShards {
                factor: self.factor,
                n_shards,
            });
        }
        if self.lag.windows == 0 {
            return Err(ClusterConfigError::ZeroPropagationWindows);
        }
        Ok(())
    }

    /// The placement map over `n_shards` shards. The config must have
    /// passed [`ReplicationConfig::validate`] for this cluster size.
    pub fn replica_map(&self, n_shards: usize) -> ReplicaMap {
        ReplicaMap::new(n_shards, self.factor)
    }
}

/// The run-scoped placement state every cluster run dispatches against:
/// which shards host which items, the seeded per-window delay table, and
/// the emission arithmetic the dispatcher's lag bounds are computed from.
/// An unreplicated run is the factor-1 case ([`ReplicaSets::solo`]): leaders
/// only, empty delay table. Built once per run in the sequential prologue;
/// pure function of `(trace, n_shards, config, seed, horizon)`.
pub struct ReplicaSets {
    map: ReplicaMap,
    lag: PropagationLag,
    /// Emission arithmetic over the trace's update schedules (baseline
    /// unused here — only `versions` and `streams` are consulted).
    emit: FreshnessEstimate,
    /// Per `(item, follower slot - 1, window)` delay, flattened.
    delays: Vec<SimDuration>,
    n_items: usize,
    /// Window length in time units; windows tile `[0, span)`.
    win_len: u64,
    /// One past the horizon instant: emissions stop at the horizon.
    span: u64,
}

impl ReplicaSets {
    /// Build the replication state for one run. O(n_items · factor ·
    /// windows + N_u).
    pub fn new(
        trace: &Trace,
        n_shards: usize,
        cfg: &ReplicationConfig,
        seed: u64,
        horizon: SimDuration,
    ) -> ReplicaSets {
        let map = cfg.replica_map(n_shards);
        let windows = cfg.lag.windows;
        let span = horizon.0.saturating_add(1);
        let win_len = span.div_ceil(windows as u64).max(1);
        let slots = cfg.factor.saturating_sub(1);
        let lag_seed = split_seed(seed, LAG_SEED_DOMAIN);
        let jitter_units = cfg.lag.jitter.0;
        let delays = (0..trace.n_items * slots * windows)
            .map(|key| {
                let extra = if jitter_units == 0 {
                    0
                } else {
                    // Draws can't overflow the delay: extra <= jitter.
                    split_seed(lag_seed, key as u64) % (jitter_units + 1)
                };
                SimDuration(cfg.lag.base.0.saturating_add(extra))
            })
            .collect();
        ReplicaSets {
            map,
            lag: cfg.lag,
            emit: FreshnessEstimate::new(trace),
            delays,
            n_items: trace.n_items,
            win_len,
            span,
        }
    }

    /// The placement of an unreplicated cluster: every item on its modulo
    /// owner, no followers. No follower slot exists, so the delay table is
    /// empty and no seed or horizon can matter. O(N_u + n_items).
    pub fn solo(trace: &Trace, n_shards: usize) -> ReplicaSets {
        ReplicaSets::new(
            trace,
            n_shards,
            &ReplicationConfig::new(1),
            0,
            SimDuration(u64::MAX),
        )
    }

    /// The placement map. O(1).
    pub fn map(&self) -> &ReplicaMap {
        &self.map
    }

    /// Replicas per item. O(1).
    pub fn factor(&self) -> usize {
        self.map.factor()
    }

    /// The lag window containing instant `t`. O(1).
    fn window_of(&self, t: SimTime) -> usize {
        let windows = self.lag.windows;
        ((t.0 / self.win_len) as usize).min(windows - 1)
    }

    /// Propagation delay for versions of `d` emitted in window `w`, bound
    /// for follower slot `k` (`1 <= k < factor`). O(1).
    #[expect(
        clippy::indexing_slicing,
        reason = "(d, k, w) stay in the n_items x slots x windows cube the table spans"
    )]
    fn delay(&self, d: DataId, k: usize, w: usize) -> SimDuration {
        let slots = self.map.factor() - 1;
        self.delays[(d.index() * slots + (k - 1)) * self.lag.windows + w]
    }

    /// Versions of `d` emitted up to and including `t` (leader-side
    /// version count). Emissions stop at the horizon: queries past it
    /// never execute, so the count saturates there. O(streams of d).
    pub fn emitted(&self, d: DataId, t: SimTime) -> u64 {
        self.emit
            .versions(d.index(), SimTime(t.0.min(self.span - 1)))
    }

    /// Versions of `d` *applied* at follower slot `k` by `t`: emissions
    /// whose windowed delay has elapsed. O(windows · streams of d).
    pub fn delivered(&self, d: DataId, k: usize, t: SimTime) -> u64 {
        let mut total = 0u64;
        for w in 0..self.lag.windows {
            let start = (w as u64).saturating_mul(self.win_len);
            if start >= self.span {
                break;
            }
            let end_incl = start
                .saturating_add(self.win_len)
                .min(self.span)
                .saturating_sub(1);
            let delay = self.delay(d, k, w);
            let Some(reach) = t.0.checked_sub(delay.0) else {
                continue; // nothing from this window has landed yet
            };
            let upper = end_incl.min(reach);
            if upper < start {
                continue;
            }
            let below = if start == 0 {
                0
            } else {
                self.emit.versions(d.index(), SimTime(start - 1))
            };
            total += self.emit.versions(d.index(), SimTime(upper)) - below;
        }
        total
    }

    /// The dispatcher's **claimed** upper bound on versions of `d` still
    /// in transit to any follower at `t`: every per-window delay is at
    /// most `max_lag`, so versions emitted at or before `t - max_lag` have
    /// landed. O(streams of d).
    pub fn claimed_transit(&self, d: DataId, t: SimTime) -> u64 {
        let max_lag = self.lag.max_lag();
        // A version emitted at `e` settles by `e + max_lag`; before
        // `max_lag` has elapsed at all, nothing can have settled.
        let settled = match t.0.checked_sub(max_lag.0) {
            Some(s) => self.emitted(d, SimTime(s)),
            None => 0,
        };
        self.emitted(d, t) - settled
    }

    /// The `Qu` freshness bound the dispatcher advertises for a follower
    /// read of `d` at `t`: `1/(1 + claimed_transit)`. O(streams of d).
    pub fn qu_bound(&self, d: DataId, t: SimTime) -> f64 {
        unit_core::freshness::lag_freshness(self.claimed_transit(d, t))
    }

    /// True when shard `s` may serve `q`'s reads at `now` under the `Qu`
    /// gate: every read-set item `s` *follows* must have a claimed
    /// in-transit count within the query's tolerable `Udrop`
    /// ([`max_tolerable_udrop`]); items `s` leads are always admissible.
    /// O(A · (factor + streams)).
    fn follower_admissible(&self, q: &QuerySpec, s: usize, now: SimTime) -> bool {
        let tolerable = max_tolerable_udrop(q.freshness_req);
        q.items
            .iter()
            .filter(|&&d| self.map.follows(s, d))
            .all(|&d| self.claimed_transit(d, now) <= tolerable)
    }

    /// The candidate pool for `q` at `now`: leaders of read-set items
    /// (always admissible) plus followers hosting at least one read-set
    /// item whose followed items all clear the `Qu` gate — with
    /// `factor == 1`, exactly
    /// [`unit_workload::ItemPartition::eligible_shards`] — plus
    /// **promoted** followers for read-set items whose leader is paused at
    /// `now` (freshest live follower — minimal claimed transit, ties to
    /// the lowest shard id — admitted regardless of the `Qu` gate). Health
    /// then narrows the candidates in two tiers: fully-up candidates if
    /// any, otherwise the non-paused ones (degraded shards still serve
    /// reads). A `health` that reads every shard `Up` returns the
    /// candidates unnarrowed and promotes nobody. Returns the pool
    /// (ascending, deduplicated) and the promotions that shaped it, in
    /// read-set order. O(A · factor · (A + streams) + n_shards).
    #[expect(
        clippy::indexing_slicing,
        reason = "leader() and follower() are < n_shards by ReplicaMap construction"
    )]
    pub fn pool_with_health(
        &self,
        q: &QuerySpec,
        now: SimTime,
        health: impl Fn(usize) -> HealthState,
    ) -> (Vec<usize>, Vec<PromotionRecord>) {
        let n = self.map.n_shards();
        let mut seen = vec![false; n];
        for &d in &q.items {
            seen[self.map.leader(d)] = true;
        }
        for &d in &q.items {
            for k in 1..self.map.factor() {
                let s = self.map.follower(d, k);
                if !seen[s] && self.follower_admissible(q, s, now) {
                    seen[s] = true;
                }
            }
        }
        let mut promotions = Vec::new();
        for &d in &q.items {
            let leader = self.map.leader(d);
            if !health(leader).queries_paused() {
                continue;
            }
            let promoted = (1..self.map.factor())
                .map(|k| self.map.follower(d, k))
                .filter(|&s| !health(s).queries_paused())
                .map(|s| (self.claimed_transit(d, now), s))
                .min();
            if let Some((_, s)) = promoted {
                seen[s] = true;
                promotions.push(PromotionRecord {
                    time: now,
                    item: d,
                    from: leader,
                    to: s,
                });
            }
        }
        let candidates = || {
            seen.iter()
                .enumerate()
                .filter_map(|(s, &hit)| hit.then_some(s))
        };
        let up: Vec<usize> = candidates()
            .filter(|&s| health(s) == HealthState::Up)
            .collect();
        let pool = if up.is_empty() {
            candidates()
                .filter(|&s| !health(s).queries_paused())
                .collect()
        } else {
            up
        };
        (pool, promotions)
    }

    /// Dispatcher-side staleness estimate of `d` as served by `s` — the
    /// leader's estimated unapplied versions, plus what is claimed in
    /// transit when `s` is a follower — or `None` when `s` hosts no
    /// replica of `d`. O(factor + streams of d).
    pub(crate) fn staleness(
        &self,
        est: &FreshnessEstimate,
        d: DataId,
        s: usize,
        now: SimTime,
    ) -> Option<u64> {
        if self.map.leader(d) == s {
            Some(est.udrop(d.index(), now))
        } else if self.map.follows(s, d) {
            Some(
                est.udrop(d.index(), now)
                    .saturating_add(self.claimed_transit(d, now)),
            )
        } else {
            None
        }
    }

    /// The propagation fault schedule for shard `s`: one
    /// [`StreamFaultKind::Delay`] interval per non-zero-delay window of
    /// every item `s` follows, sorted by `(item, start)`. Zero-delay
    /// windows are omitted entirely so a zero-lag (or factor-1) schedule
    /// is empty and the shard runs byte-identically to an unhooked one.
    /// O(n_items · factor · windows).
    pub fn propagation_faults(&self, s: usize) -> Vec<StreamFault> {
        let mut faults = Vec::new();
        for item in 0..self.n_items {
            let d = DataId(item as u32);
            let Some(k) = (1..self.map.factor()).find(|&k| self.map.follower(d, k) == s) else {
                continue;
            };
            for w in 0..self.lag.windows {
                let start = (w as u64).saturating_mul(self.win_len);
                if start >= self.span {
                    break;
                }
                let end = start.saturating_add(self.win_len).min(self.span);
                let delay = self.delay(d, k, w);
                if delay.is_zero() {
                    continue;
                }
                faults.push(StreamFault {
                    item: d,
                    start: SimTime(start),
                    end: SimTime(end),
                    kind: StreamFaultKind::Delay(delay),
                });
            }
        }
        faults
    }

    /// The merged propagation log: one record per `(item, follower,
    /// version emitted within the horizon)`, ordered by `(delivery time,
    /// follower lane, per-lane seq)` — the replica pseudo-lane total order
    /// `merge.rs` documents. Pure arithmetic; worker-count invariant by
    /// construction. O(V · factor · log V) in the total emitted-version
    /// count V.
    #[expect(
        clippy::indexing_slicing,
        reason = "follower() < n_shards == lanes.len()"
    )]
    pub fn propagation_log(&self) -> Vec<PropagationRecord> {
        if self.map.factor() == 1 {
            return Vec::new(); // no followers, nothing propagates
        }
        let mut lanes: Vec<Vec<PropagationRecord>> = vec![Vec::new(); self.map.n_shards()];
        for item in 0..self.n_items {
            let d = DataId(item as u32);
            // All emissions of d within the horizon, in (time, stream) order.
            let mut emissions: Vec<SimTime> = Vec::new();
            for &(first, period) in self.emit.streams(item) {
                let mut t = first;
                while t.0 < self.span {
                    emissions.push(t);
                    let Some(next) = t.0.checked_add(period.0) else {
                        break;
                    };
                    t = SimTime(next);
                }
            }
            emissions.sort_unstable();
            let leader = self.map.leader(d);
            for k in 1..self.map.factor() {
                let s = self.map.follower(d, k);
                for (v, &e) in emissions.iter().enumerate() {
                    let delay = self.delay(d, k, self.window_of(e));
                    lanes[s].push(PropagationRecord {
                        time: SimTime(e.0.saturating_add(delay.0)),
                        item: d,
                        leader,
                        follower: s,
                        version: v as u64 + 1,
                        emitted: e,
                    });
                }
            }
        }
        let mut log = Vec::new();
        for lane in &mut lanes {
            // Per-lane order: delivery time, then item, then version —
            // unique, so the per-lane seq below is well-defined.
            lane.sort_unstable_by_key(|r| (r.time, r.item, r.version));
            log.extend(lane.iter().copied());
        }
        // (time, follower-lane, per-lane position) — the lane extension of
        // the cluster merge key. Sorting by (time, follower, item, version)
        // reproduces it because per-lane order is time-major already.
        log.sort_by_key(|r| (r.time, r.follower, r.item, r.version));
        log
    }
}

/// The replication-consistency invariant (validate feature; DESIGN.md
/// §5):
///
/// 1. **follower ≤ leader** — at every control tick, every follower's
///    delivered version count is at most the leader's emitted count
///    (propagation never invents versions),
/// 2. **bound soundness** — the actual in-transit count
///    (`emitted - delivered`) never exceeds the dispatcher's claimed
///    bound at that tick,
/// 3. **exact recount** — the propagation log holds exactly one record
///    per `(item, follower, version emitted within the horizon)`, each at
///    the delivery instant the windowed schedule dictates, and is
///    strictly ordered by `(time, follower lane, item, version)`.
pub fn check_replication_consistency(
    sets: &ReplicaSets,
    rep: &ReplicationReport,
    tick: SimDuration,
    horizon: SimDuration,
) -> Result<(), String> {
    let step = tick.0.max(1);
    for item in 0..sets.n_items {
        let d = DataId(item as u32);
        for k in 1..sets.map.factor() {
            let mut t = 0u64;
            loop {
                let now = SimTime(t);
                let emitted = sets.emitted(d, now);
                let delivered = sets.delivered(d, k, now);
                if delivered > emitted {
                    return Err(format!(
                        "item {item} follower slot {k} at t={t}: delivered {delivered} > emitted {emitted}"
                    ));
                }
                let claimed = sets.claimed_transit(d, now);
                if emitted - delivered > claimed {
                    return Err(format!(
                        "item {item} follower slot {k} at t={t}: in-transit {} exceeds the claimed bound {claimed}",
                        emitted - delivered
                    ));
                }
                if t >= horizon.0 {
                    break;
                }
                t = t.saturating_add(step).min(horizon.0);
            }
        }
    }
    // Exact recount of the propagation log against the schedule.
    let mut expected = 0usize;
    for item in 0..sets.n_items {
        let d = DataId(item as u32);
        let horizon_end = SimTime(sets.span - 1);
        expected += sets.emitted(d, horizon_end) as usize * (sets.map.factor() - 1);
    }
    if rep.propagation.len() != expected {
        return Err(format!(
            "propagation log holds {} records, the schedule dictates {expected}",
            rep.propagation.len()
        ));
    }
    for r in &rep.propagation {
        if sets.map.leader(r.item) != r.leader || !sets.map.follows(r.follower, r.item) {
            return Err(format!(
                "propagation record for item {} names leader {} -> follower {}, not a placement edge",
                r.item.0, r.leader, r.follower
            ));
        }
        let Some(k) = (1..sets.map.factor()).find(|&k| sets.map.follower(r.item, k) == r.follower)
        else {
            return Err(format!("no follower slot for record {r:?}"));
        };
        let delay = sets.delay(r.item, k, sets.window_of(r.emitted));
        if r.time.0 != r.emitted.0.saturating_add(delay.0) {
            return Err(format!(
                "record {r:?} delivered at {:?}, schedule dictates {:?}",
                r.time,
                SimTime(r.emitted.0.saturating_add(delay.0))
            ));
        }
    }
    let key = |r: &PropagationRecord| (r.time, r.follower, r.item, r.version);
    for (a, r) in rep.propagation.iter().zip(rep.propagation.iter().skip(1)) {
        if key(a) >= key(r) {
            return Err(format!(
                "propagation log out of order at {:?} follower {}",
                r.time, r.follower
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::types::{QueryId, UpdateSpec, UpdateStreamId};

    fn trace() -> Trace {
        Trace {
            n_items: 4,
            queries: vec![QuerySpec {
                id: QueryId(0),
                arrival: SimTime::from_secs(5),
                items: vec![DataId(1), DataId(2)],
                exec_time: SimDuration::from_secs(1),
                relative_deadline: SimDuration::from_secs(10),
                freshness_req: 0.9,
                pref_class: 0,
            }],
            updates: vec![
                UpdateSpec {
                    id: UpdateStreamId(0),
                    item: DataId(1),
                    period: SimDuration::from_secs(10),
                    exec_time: SimDuration::from_secs(1),
                    first_arrival: SimTime::ZERO,
                },
                UpdateSpec {
                    id: UpdateStreamId(1),
                    item: DataId(2),
                    period: SimDuration::from_secs(4),
                    exec_time: SimDuration::from_secs(1),
                    first_arrival: SimTime::from_secs(2),
                },
            ],
        }
    }

    fn sets(factor: usize, lag: PropagationLag) -> ReplicaSets {
        let cfg = ReplicationConfig::new(factor).with_lag(lag);
        ReplicaSets::new(&trace(), 4, &cfg, 7, SimDuration::from_secs(60))
    }

    #[test]
    fn config_validation_catches_bad_shapes() {
        assert_eq!(
            ReplicationConfig::new(0).validate(4),
            Err(ClusterConfigError::ZeroReplicationFactor)
        );
        assert_eq!(
            ReplicationConfig::new(5).validate(4),
            Err(ClusterConfigError::ReplicationFactorExceedsShards {
                factor: 5,
                n_shards: 4
            })
        );
        let mut zero_windows = ReplicationConfig::new(2);
        zero_windows.lag.windows = 0;
        assert_eq!(
            zero_windows.validate(4),
            Err(ClusterConfigError::ZeroPropagationWindows)
        );
        assert_eq!(ReplicationConfig::new(3).validate(4), Ok(()));
    }

    #[test]
    fn zero_lag_delivers_at_emission_and_claims_nothing() {
        let s = sets(2, PropagationLag::none());
        let d = DataId(2);
        for t in [0, 2, 6, 13, 60] {
            let now = SimTime::from_secs(t);
            assert_eq!(s.delivered(d, 1, now), s.emitted(d, now), "t={t}");
            assert_eq!(s.claimed_transit(d, now), 0);
            assert_eq!(s.qu_bound(d, now), 1.0);
        }
        // Zero-delay windows are omitted: the schedule is empty.
        for shard in 0..4 {
            assert!(s.propagation_faults(shard).is_empty());
        }
    }

    #[test]
    fn fixed_lag_bounds_are_sound_and_tight() {
        let lag = PropagationLag::fixed(SimDuration::from_secs(5));
        let s = sets(2, lag);
        let d = DataId(2); // emissions at 2, 6, 10, ...
                           // At t=7: emitted {2,6} = 2; delivered = emissions <= 2s -> 1.
        let now = SimTime::from_secs(7);
        assert_eq!(s.emitted(d, now), 2);
        assert_eq!(s.delivered(d, 1, now), 1);
        // Claimed bound: emitted(7) - emitted(2) = 1 — exactly in transit.
        assert_eq!(s.claimed_transit(d, now), 1);
        assert_eq!(s.qu_bound(d, now), 0.5);
    }

    #[test]
    fn jittered_delays_stay_in_range_and_are_deterministic() {
        let lag = PropagationLag::jittered(SimDuration::from_secs(2), SimDuration::from_secs(6), 4);
        let a = sets(3, lag);
        let b = sets(3, lag);
        for item in 0..4 {
            let d = DataId(item);
            for k in 1..3 {
                for w in 0..4 {
                    let delay = a.delay(d, k, w);
                    assert!(delay >= SimDuration::from_secs(2));
                    assert!(delay <= lag.max_lag());
                    assert_eq!(delay, b.delay(d, k, w), "same seed, same schedule");
                }
            }
        }
        // Soundness at arbitrary instants: in-transit <= claimed bound.
        let d = DataId(2);
        for t in 0..80 {
            let now = SimTime::from_secs(t);
            for k in 1..3 {
                let transit = a.emitted(d, now) - a.delivered(d, k, now);
                assert!(
                    transit <= a.claimed_transit(d, now),
                    "t={t} k={k}: {transit} > {}",
                    a.claimed_transit(d, now)
                );
            }
        }
    }

    #[test]
    fn factor_one_pool_degenerates_to_eligible_shards() {
        let s = sets(1, PropagationLag::none());
        let t = trace();
        let q = &t.queries[0];
        let partition = unit_workload::ItemPartition::new(4);
        let (pool, promos) = s.pool_with_health(q, q.arrival, |_| HealthState::Up);
        assert_eq!(pool, partition.eligible_shards(&q.items));
        assert!(promos.is_empty());
    }

    #[test]
    fn qu_gate_admits_fresh_followers_and_bars_stale_ones() {
        // Fixed 5 s lag, factor 2 on 4 shards: item 1 -> leader 1,
        // follower 2; item 2 -> leader 2, follower 3.
        let s = sets(2, PropagationLag::fixed(SimDuration::from_secs(5)));
        let t = trace();
        let q = &t.queries[0]; // reads {1, 2}, qf 0.9 (tolerable Udrop 0)
                               // At t=5: item 1 claims transit 1 (emitted at 0 not yet settled...
                               // emitted(5)={0}, emitted(0)={0} -> 0 in transit); item 2 claims
                               // emitted(5)={2}=1 minus emitted(0)=0 -> 1 in transit.
                               // Shard 2 follows nothing in the read set? It LEADS item 2 and
                               // follows item 1 -> transit(item1, 5) = 0 -> admissible.
                               // Shard 3 follows item 2 -> transit 1 > 0 -> barred.
        let all_up = |_| HealthState::Up;
        assert_eq!(s.pool_with_health(q, q.arrival, all_up).0, vec![1, 2]);
        // A lenient query tolerates one in-transit version: shard 3 joins.
        let mut lenient = q.clone();
        lenient.freshness_req = 0.5;
        assert_eq!(
            s.pool_with_health(&lenient, q.arrival, all_up).0,
            vec![1, 2, 3]
        );
    }

    #[test]
    fn promotion_picks_the_freshest_live_follower_deterministically() {
        let s = sets(3, PropagationLag::fixed(SimDuration::from_secs(5)));
        let t = trace();
        let q = &t.queries[0]; // reads {1, 2}; leaders 1 and 2
        let down = |paused: &'static [usize]| {
            move |shard: usize| {
                if paused.contains(&shard) {
                    HealthState::Down {
                        until: SimTime::from_secs(100),
                    }
                } else {
                    HealthState::Up
                }
            }
        };
        // Item 1's leader (shard 1) down: followers are 2 and 3, equal
        // claimed transit -> lowest id (2) is promoted.
        let (pool, promos) = s.pool_with_health(q, q.arrival, down(&[1]));
        assert_eq!(promos.len(), 1);
        assert_eq!(promos[0].item, DataId(1));
        assert_eq!((promos[0].from, promos[0].to), (1, 2));
        assert!(pool.contains(&2));
        assert!(!pool.contains(&1));
        // Same instant, same plan -> identical promotion (uniqueness).
        let (_, again) = s.pool_with_health(q, q.arrival, down(&[1]));
        assert_eq!(promos, again);
        // If shard 2 is down too, the next follower (3) takes over.
        let (_, promos2) = s.pool_with_health(q, q.arrival, down(&[1, 2]));
        assert_eq!((promos2[0].from, promos2[0].to), (1, 3));
    }

    #[test]
    fn propagation_faults_cover_followed_items_only() {
        let lag = PropagationLag::jittered(SimDuration::from_secs(1), SimDuration::from_secs(3), 2);
        let s = sets(2, lag);
        // Shard 2 follows item 1 (leader 1) only.
        let faults = s.propagation_faults(2);
        assert!(!faults.is_empty());
        assert!(faults.iter().all(|f| f.item == DataId(1)));
        assert!(faults.iter().all(
            |f| matches!(f.kind, StreamFaultKind::Delay(d) if d >= SimDuration::from_secs(1))
        ));
        // Sorted, non-overlapping: a real FaultSchedule accepts it.
        let schedule = unit_faults::FaultSchedule {
            stream_faults: faults,
            ..unit_faults::FaultSchedule::default()
        };
        schedule.validate().unwrap();
        // Leaders get no propagation faults for items they lead.
        assert!(s.propagation_faults(1).iter().all(|f| f.item != DataId(1)));
    }

    #[test]
    fn propagation_log_recounts_exactly() {
        let lag = PropagationLag::jittered(SimDuration::from_secs(2), SimDuration::from_secs(4), 3);
        let s = sets(3, lag);
        let log = s.propagation_log();
        let rep = ReplicationReport {
            factor: 3,
            propagation: log,
            routes: Vec::new(),
            promotions: Vec::new(),
        };
        check_replication_consistency(
            &s,
            &rep,
            SimDuration::from_secs(5),
            SimDuration::from_secs(60),
        )
        .unwrap();
        // Tampering is caught: drop a record.
        let mut short = rep.propagation.clone();
        short.pop();
        let bad = ReplicationReport {
            propagation: short,
            ..rep
        };
        assert!(check_replication_consistency(
            &s,
            &bad,
            SimDuration::from_secs(5),
            SimDuration::from_secs(60)
        )
        .is_err());
    }
}
