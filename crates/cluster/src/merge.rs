//! Merging per-shard results into one cluster-level report.
//!
//! Each shard's engine produces an outcome log ordered by its own virtual
//! time. The cluster merges all logs into one totally ordered history by
//! the key `(virtual_time, shard_id, seq)`: virtual time first (shards
//! share the same clock origin), shard id to break cross-shard ties at the
//! same instant, and the shard-local sequence number for same-instant
//! outcomes within one shard. Every key is unique, so the merged order —
//! and everything derived from it — is independent of which worker thread
//! finished first (DESIGN.md §3).
//!
//! The cluster USM is computed from the **summed integer outcome counts**,
//! which is exact: addition of `u64` tallies has no rounding, so the
//! cluster tally equals a recount over the merged log bit-for-bit, and the
//! float USM derived from it is the same bits no matter how many shards
//! contributed (the "cluster USM identity" the `validate` feature checks).

use crate::routing::RoutingPolicy;
use unit_core::time::SimTime;
use unit_core::types::{DataId, Outcome, QueryId};
use unit_core::usm::{OutcomeCounts, UsmWeights};
use unit_sim::{OutcomeRecord, SimReport};

/// One outcome in the merged cluster history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedOutcome {
    /// Virtual instant the outcome was decided (shard-local clock; all
    /// shards share the origin `t = 0`).
    pub time: SimTime,
    /// The shard that decided it.
    pub shard: usize,
    /// Its sequence number within that shard's log.
    pub seq: u64,
    /// The query.
    pub query: QueryId,
    /// How it ended.
    pub outcome: Outcome,
}

/// One lane in the cluster's totally ordered event history.
///
/// The merged order (and the obs replay built on it) keys every record by
/// `(time, lane, seq)`. Replication adds **replica pseudo-lanes**: each
/// shard gets a second lane carrying its follower-side propagation
/// deliveries, ordered after every real shard lane so replication events
/// at an instant sort after the execution events that caused them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClusterLane {
    /// The dispatcher's sequential prologue (routes, rejections, health
    /// transitions, promotions, replica-route records).
    Dispatcher,
    /// Shard `s`'s engine outcomes and events.
    Shard(usize),
    /// Shard `s`'s replica (propagation) lane: versions landing on `s` in
    /// its follower role.
    Replica(usize),
}

impl ClusterLane {
    /// The lane's position in the total order, for a cluster of
    /// `n_shards`: dispatcher 0, shard `s` at `1 + s`, replica lane of `s`
    /// at `1 + n_shards + s`. O(1).
    pub fn index(&self, n_shards: usize) -> u64 {
        match *self {
            ClusterLane::Dispatcher => 0,
            ClusterLane::Shard(s) => 1 + s as u64,
            ClusterLane::Replica(s) => 1 + n_shards as u64 + s as u64,
        }
    }
}

/// One propagated version landing on a follower replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropagationRecord {
    /// Delivery instant at the follower (emission + windowed delay).
    pub time: SimTime,
    /// The replicated item.
    pub item: DataId,
    /// The item's leader shard.
    pub leader: usize,
    /// The follower shard the version landed on.
    pub follower: usize,
    /// 1-based version ordinal among the item's emissions within the
    /// horizon.
    pub version: u64,
    /// Leader-side emission instant.
    pub emitted: SimTime,
}

/// One leader promotion: a crashed leader's freshest live follower taking
/// over an item at routing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionRecord {
    /// Dispatch instant the promotion took effect.
    pub time: SimTime,
    /// The item whose leader was down.
    pub item: DataId,
    /// The paused leader.
    pub from: usize,
    /// The promoted follower (minimal claimed in-transit versions, ties to
    /// the lowest shard id).
    pub to: usize,
}

/// One query route that landed on a follower replica under a `Qu` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaRouteRecord {
    /// Effective dispatch instant.
    pub time: SimTime,
    /// The routed query.
    pub query: QueryId,
    /// The shard the query went to.
    pub shard: usize,
    /// Read-set items the shard serves as a follower.
    pub follower_items: u32,
    /// The worst claimed in-transit version count among those items — the
    /// `Udrop` bound behind the advertised `Qu`.
    pub claimed_transit: u64,
}

/// The replica layer's contribution to a cluster report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Replicas per item, leader included.
    pub factor: usize,
    /// Every propagated version delivery, ordered by
    /// `(time, follower lane, per-lane seq)`.
    pub propagation: Vec<PropagationRecord>,
    /// Routes that landed on a follower, in dispatch order.
    pub routes: Vec<ReplicaRouteRecord>,
    /// Leader promotions, deduplicated to target changes per item.
    pub promotions: Vec<PromotionRecord>,
}

/// The result of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Number of shards the cluster ran with.
    pub n_shards: usize,
    /// Routing policy the dispatcher used.
    pub routing: RoutingPolicy,
    /// Weights the run was priced under.
    pub weights: UsmWeights,
    /// Shard index every global query was routed to (trace order).
    pub assignment: Vec<usize>,
    /// Each shard's full single-server report, index = shard id.
    pub shard_reports: Vec<SimReport>,
    /// Summed outcome tallies over all shards (exact integer addition).
    pub counts: OutcomeCounts,
    /// All shard outcome logs merged by `(time, shard, seq)`.
    pub log: Vec<MergedOutcome>,
    /// Host wall-clock seconds each shard spent being built, stepped, and
    /// finished on its worker (index = shard id).
    /// The maximum is the run's critical path — the wall-clock a host with
    /// at least one core per shard would see. Diagnostic only: timing is
    /// nondeterministic and never feeds a digest or a decision.
    /// [`ClusterReport::merge`] leaves it empty; [`crate::ClusterRun::run`]
    /// fills it in.
    pub shard_walls: Vec<f64>,
    /// Update streams each shard's slice carried (index = shard id). With
    /// plain slicing every shard replays all streams; with
    /// [`crate::ClusterConfig::with_filtered_updates`] each carries only
    /// the streams for items its queries read. Empty until
    /// [`crate::ClusterRun::run`] fills it in.
    pub update_streams_per_shard: Vec<usize>,
    /// The replica layer's records when the run was replicated
    /// ([`crate::ClusterConfig::with_replication`]). `None` from
    /// [`ClusterReport::merge`]; [`crate::ClusterRun::run`] fills it in.
    pub replication: Option<ReplicationReport>,
}

impl ClusterReport {
    /// Merge per-shard reports (index = shard id) into a cluster report.
    /// O(N log N) in the total outcome count for the ordered merge.
    pub fn merge(
        routing: RoutingPolicy,
        weights: UsmWeights,
        assignment: Vec<usize>,
        shard_reports: Vec<SimReport>,
    ) -> ClusterReport {
        let mut counts = OutcomeCounts::default();
        let mut log: Vec<MergedOutcome> = Vec::new();
        for (shard, report) in shard_reports.iter().enumerate() {
            counts.success += report.counts.success;
            counts.rejected += report.counts.rejected;
            counts.deadline_miss += report.counts.deadline_miss;
            counts.data_stale += report.counts.data_stale;
            log.extend(report.outcome_records.iter().map(
                |&OutcomeRecord {
                     seq,
                     time,
                     query,
                     outcome,
                 }| MergedOutcome {
                    time,
                    shard,
                    seq,
                    query,
                    outcome,
                },
            ));
        }
        // Keys are unique — (shard, seq) alone already is — so an unstable
        // sort yields one well-defined order.
        log.sort_unstable_by_key(|r| (r.time, r.shard, r.seq));
        ClusterReport {
            n_shards: shard_reports.len(),
            routing,
            weights,
            assignment,
            shard_reports,
            counts,
            log,
            shard_walls: Vec::new(),
            update_streams_per_shard: Vec::new(),
            replication: None,
        }
    }

    /// The run's critical path: the slowest shard's wall (see
    /// [`ClusterReport::shard_walls`]) — what the whole run would cost on a
    /// host with one core per shard. `None` until the walls are filled in.
    /// O(n_shards).
    pub fn critical_path_secs(&self) -> Option<f64> {
        self.shard_walls.iter().copied().reduce(f64::max)
    }

    /// Cluster-level average USM (Eq. 5 over the summed tallies).
    pub fn average_usm(&self) -> f64 {
        self.counts.average_usm(&self.weights)
    }

    /// The query-count-weighted mean of the per-shard average USMs,
    /// `Σ nᵢ·USMᵢ / Σ nᵢ` in f64. Equals [`ClusterReport::average_usm`] up
    /// to float associativity (the integer-tally identity underneath is
    /// exact and is what [`check_cluster_identity`] pins bit-level).
    pub fn query_weighted_shard_usm(&self) -> f64 {
        let total: u64 = self.shard_reports.iter().map(|r| r.counts.total()).sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .shard_reports
            .iter()
            .map(|r| r.counts.total() as f64 * r.counts.average_usm(&self.weights))
            .sum();
        weighted / total as f64
    }
}

/// Recount a shard's outcome tallies from the merged log.
fn recount(log: &[MergedOutcome], shard: Option<usize>) -> OutcomeCounts {
    let mut c = OutcomeCounts::default();
    for r in log {
        if shard.map_or(true, |s| s == r.shard) {
            c.record(r.outcome);
        }
    }
    c
}

/// The cluster USM identity (validate feature; DESIGN.md §3):
///
/// 1. recounting each shard's outcomes from the *merged* log reproduces
///    that shard's report tallies exactly (integers — the merge lost and
///    invented nothing),
/// 2. the cluster tally is the exact integer sum of the shard tallies,
/// 3. the cluster USM priced from the merged-log recount is bit-identical
///    to [`ClusterReport::average_usm`] (same tallies, same pricing code),
/// 4. the float query-weighted mean of per-shard USMs agrees with the
///    cluster USM to ~1e-9 relative (float associativity bounds, not bits),
/// 5. the merged log is strictly ordered by `(time, shard, seq)`.
pub fn check_cluster_identity(report: &ClusterReport) -> Result<(), String> {
    for (shard, sr) in report.shard_reports.iter().enumerate() {
        let rc = recount(&report.log, Some(shard));
        if rc != sr.counts {
            return Err(format!(
                "shard {shard}: merged-log recount {rc:?} != shard report {:?}",
                sr.counts
            ));
        }
    }
    let total = recount(&report.log, None);
    if total != report.counts {
        return Err(format!(
            "cluster tally {:?} != merged-log recount {total:?}",
            report.counts
        ));
    }
    let from_log = total.average_usm(&report.weights);
    if from_log.to_bits() != report.average_usm().to_bits() {
        return Err(format!(
            "cluster USM {} != merged-log USM {from_log} (bit mismatch)",
            report.average_usm()
        ));
    }
    let weighted = report.query_weighted_shard_usm();
    let scale = report.average_usm().abs().max(1.0);
    if (weighted - report.average_usm()).abs() > 1e-9 * scale {
        return Err(format!(
            "query-weighted shard USM {weighted} drifted from cluster USM {}",
            report.average_usm()
        ));
    }
    for (a, r) in report.log.iter().zip(report.log.iter().skip(1)) {
        if (a.time, a.shard, a.seq) >= (r.time, r.shard, r.seq) {
            return Err(format!(
                "merged log out of order at t={:?} shard={} seq={}",
                r.time, r.shard, r.seq
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_report(policy: &str, outcomes: &[(u64, u64, u64, Outcome)]) -> SimReport {
        let mut counts = OutcomeCounts::default();
        let mut records = Vec::new();
        for &(seq, secs, qid, outcome) in outcomes {
            counts.record(outcome);
            records.push(OutcomeRecord {
                seq,
                time: SimTime::from_secs(secs),
                query: QueryId(qid),
                outcome,
            });
        }
        SimReport {
            policy: policy.to_string(),
            weights: UsmWeights::naive(),
            counts,
            class_counts: Vec::new(),
            query_accesses: Vec::new(),
            versions_arrived: Vec::new(),
            updates_applied: Vec::new(),
            hp_aborts: 0,
            query_restarts: 0,
            preemptions: 0,
            demand_refreshes: 0,
            cpu_busy: unit_core::time::SimDuration::ZERO,
            end_time: SimTime::from_secs(10),
            horizon: unit_core::time::SimDuration::from_secs(10),
            n_cpus: 1,
            signals: Default::default(),
            mean_dispatch_freshness: 1.0,
            timeline: Vec::new(),
            events_processed: 0,
            outcome_records: records,
            faults: Default::default(),
        }
    }

    #[test]
    fn merge_orders_by_time_then_shard_then_seq() {
        let s0 = shard_report(
            "A",
            &[(0, 5, 0, Outcome::Success), (1, 5, 2, Outcome::Rejected)],
        );
        let s1 = shard_report(
            "A",
            &[(0, 3, 1, Outcome::Success), (1, 5, 3, Outcome::Success)],
        );
        let r = ClusterReport::merge(
            RoutingPolicy::RoundRobin,
            UsmWeights::naive(),
            vec![0, 1, 0, 1],
            vec![s0, s1],
        );
        let keys: Vec<(u64, usize, u64)> =
            r.log.iter().map(|m| (m.time.0, m.shard, m.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        // t=3 shard1 first, then the two t=5 shard0 records (seq order),
        // then t=5 shard1.
        let order: Vec<u64> = r.log.iter().map(|m| m.query.0).collect();
        assert_eq!(order, vec![1, 0, 2, 3]);
        assert_eq!(r.counts.total(), 4);
        assert_eq!(r.counts.success, 3);
        check_cluster_identity(&r).unwrap();
    }

    #[test]
    fn identity_check_catches_a_dropped_record() {
        let s0 = shard_report("A", &[(0, 1, 0, Outcome::Success)]);
        let s1 = shard_report("A", &[(0, 2, 1, Outcome::DeadlineMiss)]);
        let mut r = ClusterReport::merge(
            RoutingPolicy::LeastLoad,
            UsmWeights::low_high_cfm(),
            vec![0, 1],
            vec![s0, s1],
        );
        check_cluster_identity(&r).unwrap();
        r.log.pop();
        assert!(check_cluster_identity(&r).is_err());
    }

    #[test]
    fn partial_log_merges_in_total_order() {
        // Shard 1's history ends early (it crashed mid-run and recorded
        // nothing after t=4); shard 0 keeps going. The merge must still be
        // strictly ordered by (time, shard, seq) with shard 1's records
        // interleaved where their timestamps fall, not appended.
        let s0 = shard_report(
            "A",
            &[
                (0, 2, 0, Outcome::Success),
                (1, 5, 2, Outcome::Success),
                (2, 9, 4, Outcome::DeadlineMiss),
                (3, 12, 5, Outcome::Success),
            ],
        );
        let s1 = shard_report(
            "A",
            &[(0, 3, 1, Outcome::Success), (1, 4, 3, Outcome::Rejected)],
        );
        let r = ClusterReport::merge(
            RoutingPolicy::RoundRobin,
            UsmWeights::low_high_cfm(),
            vec![0, 1, 0, 1, 0, 0],
            vec![s0, s1],
        );
        let order: Vec<(u64, usize)> = r.log.iter().map(|m| (m.time.0, m.shard)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "short log interleaves, not appends");
        let queries: Vec<u64> = r.log.iter().map(|m| m.query.0).collect();
        assert_eq!(queries, vec![0, 1, 3, 2, 4, 5]);
        // The tally is exact despite the asymmetric logs.
        assert_eq!(r.counts.total(), 6);
        assert_eq!(r.counts.success, 4);
        assert_eq!(r.counts.rejected, 1);
        assert_eq!(r.counts.deadline_miss, 1);
        check_cluster_identity(&r).unwrap();
    }

    #[test]
    fn partial_log_with_an_empty_shard_still_checks_out() {
        // Degenerate partial log: one shard recorded nothing at all (every
        // query the dispatcher would have sent it was rejected upstream).
        let s0 = shard_report(
            "A",
            &[(0, 1, 0, Outcome::Success), (1, 2, 1, Outcome::DataStale)],
        );
        let s1 = shard_report("A", &[]);
        let r = ClusterReport::merge(
            RoutingPolicy::LeastLoad,
            UsmWeights::low_high_cfm(),
            vec![0, 0],
            vec![s0, s1],
        );
        assert_eq!(r.counts.total(), 2);
        assert!(r.log.iter().all(|m| m.shard == 0));
        check_cluster_identity(&r).unwrap();
    }

    #[test]
    fn same_instant_cross_shard_ties_break_by_shard_then_seq() {
        // All four outcomes at t=7: the merged order must be shard 0's
        // records (by seq), then shard 1's (by seq) — the unique key the
        // docs promise.
        let s0 = shard_report(
            "A",
            &[(0, 7, 2, Outcome::Success), (1, 7, 0, Outcome::Success)],
        );
        let s1 = shard_report(
            "A",
            &[(0, 7, 3, Outcome::Success), (1, 7, 1, Outcome::Success)],
        );
        let r = ClusterReport::merge(
            RoutingPolicy::FreshnessAware,
            UsmWeights::naive(),
            vec![0, 1, 0, 1],
            vec![s0, s1],
        );
        let keys: Vec<(usize, u64)> = r.log.iter().map(|m| (m.shard, m.seq)).collect();
        assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(
            r.log.iter().map(|m| m.query.0).collect::<Vec<_>>(),
            vec![2, 0, 3, 1]
        );
        check_cluster_identity(&r).unwrap();
    }

    #[test]
    fn replica_lanes_sort_after_every_shard_lane() {
        let n = 4;
        let mut lanes = vec![ClusterLane::Dispatcher];
        lanes.extend((0..n).map(ClusterLane::Shard));
        lanes.extend((0..n).map(ClusterLane::Replica));
        let indices: Vec<u64> = lanes.iter().map(|l| l.index(n)).collect();
        // Strictly increasing: dispatcher, shards, then replica lanes — the
        // lane extension of the (time, shard, seq) merge key.
        assert!(indices.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ClusterLane::Dispatcher.index(n), 0);
        assert_eq!(ClusterLane::Shard(3).index(n), 4);
        assert_eq!(ClusterLane::Replica(0).index(n), 5);
        assert_eq!(ClusterLane::Replica(3).index(n), 8);
    }

    #[test]
    fn weighted_mean_tracks_cluster_usm() {
        let s0 = shard_report(
            "A",
            &[
                (0, 1, 0, Outcome::Success),
                (1, 2, 1, Outcome::Success),
                (2, 3, 2, Outcome::Rejected),
            ],
        );
        let s1 = shard_report("A", &[(0, 1, 3, Outcome::DataStale)]);
        let r = ClusterReport::merge(
            RoutingPolicy::FreshnessAware,
            UsmWeights::low_high_cfm(),
            vec![0, 0, 0, 1],
            vec![s0, s1],
        );
        assert!((r.query_weighted_shard_usm() - r.average_usm()).abs() < 1e-12);
    }
}
