//! Partitioning a trace across cluster shards.
//!
//! A cluster run splits one global [`Trace`] into per-shard traces: every
//! data item has exactly one *owner* shard ([`ItemPartition`]) — its leader
//! under a [`ReplicaMap`], which may add follower shards — update streams
//! follow their item to every shard hosting it, and queries go wherever
//! the dispatcher routed them. [`slice_trace`] performs the split from a
//! per-query assignment computed by the cluster's routing policy.
//!
//! Shards keep the **global** item-id space (`n_items` is unchanged): a
//! shard simply never sees arrivals for items it does not host. This keeps
//! ids stable across shard counts — no remapping tables — and makes the
//! 1-shard cluster trace *identical* to the global trace, which is what the
//! differential suite pins against the single-server engine.

use unit_core::types::{DataId, Trace};

/// Modulo ownership of data items by shard.
///
/// Item `d` belongs to shard `d mod n_shards`. Deterministic, stateless,
/// and uniform over the id space; with Zipf-popular items spread across
/// ids, it also spreads the hot set (DESIGN.md §3 discusses the limits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemPartition {
    n_shards: usize,
}

impl ItemPartition {
    /// Build a partition over `n_shards` shards.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero.
    pub fn new(n_shards: usize) -> ItemPartition {
        assert!(n_shards > 0, "a cluster needs at least one shard");
        ItemPartition { n_shards }
    }

    /// Number of shards the items are spread over.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard that owns item `d`. O(1).
    pub fn owner(&self, d: DataId) -> usize {
        d.index() % self.n_shards
    }

    /// Deduplicated, ascending list of shards owning at least one of
    /// `items` — the shards *eligible* to serve a query with that read
    /// set. O(|items| + n_shards) via a seen-bitmap, no allocation beyond
    /// the result.
    pub fn eligible_shards(&self, items: &[DataId]) -> Vec<usize> {
        let mut seen = vec![false; self.n_shards];
        for &d in items {
            if let Some(hit) = seen.get_mut(self.owner(d)) {
                *hit = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter_map(|(s, &hit)| hit.then_some(s))
            .collect()
    }
}

/// Ring leader/follower placement of data items over shards.
///
/// Item `d`'s **leader** is its modulo owner (`d mod n_shards`, matching
/// [`ItemPartition`]); its `factor - 1` **followers** sit on the next
/// shards around the ring, `(leader + k) mod n_shards` for `k = 1..factor`.
/// With `factor = 1` the map degenerates to plain ownership and every
/// function below agrees with [`ItemPartition`] exactly — the anchor for
/// the replication differential suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaMap {
    n_shards: usize,
    factor: usize,
}

impl ReplicaMap {
    /// Build a placement of `factor` replicas per item over `n_shards`
    /// shards.
    ///
    /// # Panics
    /// Panics if the placement is invalid: zero shards, zero factor, or
    /// `factor > n_shards` (two replicas of one item on the same shard).
    /// The cluster layer surfaces these as typed config errors.
    pub fn new(n_shards: usize, factor: usize) -> ReplicaMap {
        assert!(n_shards > 0, "a cluster needs at least one shard");
        assert!(
            factor > 0,
            "an item needs at least one replica (its leader)"
        );
        assert!(
            factor <= n_shards,
            "replication factor {factor} exceeds {n_shards} shards"
        );
        ReplicaMap { n_shards, factor }
    }

    /// The degenerate factor-1 map: leaders only, no followers. Equivalent
    /// to [`ItemPartition::new`] for every query below.
    pub fn solo(n_shards: usize) -> ReplicaMap {
        ReplicaMap::new(n_shards, 1)
    }

    /// Number of shards the replicas are spread over.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Replicas per item (leader included).
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// The shard leading item `d` — identical to [`ItemPartition::owner`].
    /// O(1).
    pub fn leader(&self, d: DataId) -> usize {
        d.index() % self.n_shards
    }

    /// The shard holding follower slot `k` (`1 <= k < factor`) of item `d`.
    /// O(1).
    pub fn follower(&self, d: DataId, k: usize) -> usize {
        debug_assert!(k >= 1 && k < self.factor);
        (self.leader(d) + k) % self.n_shards
    }

    /// All shards hosting item `d`, leader first then followers in slot
    /// order. O(factor).
    pub fn replicas(&self, d: DataId) -> impl Iterator<Item = usize> + '_ {
        let leader = self.leader(d);
        (0..self.factor).map(move |k| (leader + k) % self.n_shards)
    }

    /// True when shard `s` hosts item `d` as a *follower* (not its
    /// leader). O(factor).
    pub fn follows(&self, s: usize, d: DataId) -> bool {
        (1..self.factor).any(|k| self.follower(d, k) == s)
    }

    /// True when shard `s` hosts any replica of item `d`. O(factor).
    pub fn hosts(&self, s: usize, d: DataId) -> bool {
        self.leader(d) == s || self.follows(s, d)
    }
}

/// A malformed query-to-shard assignment handed to [`slice_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The assignment has a different length than the trace's query list.
    AssignmentLength {
        /// Queries in the trace.
        queries: usize,
        /// Entries in the assignment.
        assigned: usize,
    },
    /// An assignment entry referenced a shard outside `0..n_shards`.
    ShardOutOfRange {
        /// Index of the offending query in the trace.
        query_index: usize,
        /// The out-of-range shard.
        shard: usize,
        /// Number of shards in the partition.
        n_shards: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::AssignmentLength { queries, assigned } => write!(
                f,
                "assignment covers {assigned} queries but the trace has {queries}"
            ),
            PartitionError::ShardOutOfRange {
                query_index,
                shard,
                n_shards,
            } => write!(
                f,
                "query #{query_index} assigned to shard {shard} of {n_shards}"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Split a global trace into one trace per shard.
///
/// Query `i` goes to shard `assignment[i]`; every update stream is fanned
/// out to **all** shards hosting its item under `map` (leader first, then
/// followers in slot order), each copy keeping the global stream id. A
/// factor-1 map ([`ReplicaMap::solo`]) is plain ownership: each stream
/// lands on its item's owner and nowhere else.
///
/// Relative arrival order is preserved within every shard (a filtered
/// subsequence of a sorted list stays sorted, and each shard gets at most
/// one copy per stream — the placement is collision-free), so each slice
/// is a valid trace. Unfiltered, every query lands in exactly one slice and
/// every stream in exactly `factor` — the conservation property the
/// cluster tests check end-to-end.
///
/// With `filter` set, *demand filtering* applies: a copy is kept on a
/// hosting shard only if some query assigned **to that shard** reads the
/// item. Copies nobody co-located reads would only spawn update
/// transactions that compete with queries for CPU. Demand is judged per
/// hosting shard, not per leader, so a stream a follower placement needs
/// survives even when the leader has no co-located reader (pinned by
/// `filtered_slicing_must_not_starve_followers` below).
///
/// **Filtering is a lossy optimization**: dropped streams change the
/// hosting shard's CPU contention, `versions_arrived`/`updates_applied`
/// histograms and `cpu_busy`, so per-shard `report_digest`s differ from
/// the unfiltered slicing even at one shard. Use it for throughput
/// experiments (`ClusterConfig::filter_updates`), never for differential
/// pinning.
///
/// Stream copies kept across the slices plus those dropped equal
/// `updates.len() × factor`. O(N_q·r + N_u·factor + n_shards·S) where `r`
/// is the mean read-set size.
#[expect(
    clippy::indexing_slicing,
    reason = "check_assignment bounds every entry by n_shards, replicas() yields shard ids < n_shards, and d.index() < n_items is a trace invariant"
)]
pub fn slice_trace(
    trace: &Trace,
    assignment: &[usize],
    map: &ReplicaMap,
    filter: bool,
) -> Result<Vec<Trace>, PartitionError> {
    check_assignment(trace, assignment, map.n_shards())?;
    let n = map.n_shards();
    // Which items each shard actually reads (only consulted when filtering).
    let mut read = vec![false; if filter { n * trace.n_items } else { 0 }];
    if filter {
        for (q, &s) in trace.queries.iter().zip(assignment) {
            for &d in &q.items {
                read[s * trace.n_items + d.index()] = true;
            }
        }
    }
    let mut shards = empty_slices(trace, n);
    for (q, &s) in trace.queries.iter().zip(assignment) {
        shards[s].queries.push(q.clone());
    }
    for u in &trace.updates {
        for s in map.replicas(u.item) {
            if !filter || read[s * trace.n_items + u.item.index()] {
                shards[s].updates.push(u.clone());
            }
        }
    }
    Ok(shards)
}

fn check_assignment(
    trace: &Trace,
    assignment: &[usize],
    n_shards: usize,
) -> Result<(), PartitionError> {
    if assignment.len() != trace.queries.len() {
        return Err(PartitionError::AssignmentLength {
            queries: trace.queries.len(),
            assigned: assignment.len(),
        });
    }
    if let Some((query_index, &shard)) =
        assignment.iter().enumerate().find(|&(_, &s)| s >= n_shards)
    {
        return Err(PartitionError::ShardOutOfRange {
            query_index,
            shard,
            n_shards,
        });
    }
    Ok(())
}

fn empty_slices(trace: &Trace, n_shards: usize) -> Vec<Trace> {
    (0..n_shards)
        .map(|_| Trace {
            n_items: trace.n_items,
            queries: Vec::new(),
            updates: Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::time::{SimDuration, SimTime};
    use unit_core::types::{QueryId, QuerySpec, UpdateSpec, UpdateStreamId};

    fn query(id: u64, arrival: u64, items: &[u32]) -> QuerySpec {
        QuerySpec {
            id: QueryId(id),
            arrival: SimTime::from_secs(arrival),
            items: items.iter().map(|&i| DataId(i)).collect(),
            exec_time: SimDuration::from_secs(1),
            relative_deadline: SimDuration::from_secs(10),
            freshness_req: 0.9,
            pref_class: 0,
        }
    }

    fn update(id: u32, item: u32) -> UpdateSpec {
        UpdateSpec {
            id: UpdateStreamId(id),
            item: DataId(item),
            period: SimDuration::from_secs(60),
            exec_time: SimDuration::from_secs(2),
            first_arrival: SimTime::ZERO,
        }
    }

    fn kept_per_shard(shards: &[Trace]) -> Vec<usize> {
        shards.iter().map(|s| s.updates.len()).collect()
    }

    fn trace() -> Trace {
        Trace {
            n_items: 8,
            queries: vec![
                query(0, 1, &[0, 1]),
                query(1, 2, &[2]),
                query(2, 2, &[3, 5]),
                query(3, 4, &[6]),
            ],
            updates: vec![update(0, 0), update(1, 1), update(2, 5), update(3, 6)],
        }
    }

    #[test]
    fn ownership_is_modular_and_total() {
        let p = ItemPartition::new(3);
        for i in 0..32 {
            assert_eq!(p.owner(DataId(i)), (i as usize) % 3);
        }
        assert_eq!(ItemPartition::new(1).owner(DataId(31)), 0);
    }

    #[test]
    fn eligible_shards_dedup_and_sort() {
        let p = ItemPartition::new(4);
        // items 1, 5 -> shard 1 (twice); item 2 -> shard 2.
        assert_eq!(
            p.eligible_shards(&[DataId(5), DataId(2), DataId(1)]),
            vec![1, 2]
        );
        assert_eq!(ItemPartition::new(1).eligible_shards(&[DataId(7)]), vec![0]);
    }

    #[test]
    fn slices_conserve_queries_and_updates() {
        let t = trace();
        let shards = slice_trace(&t, &[0, 1, 0, 1], &ReplicaMap::solo(2), false).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(kept_per_shard(&shards), vec![2, 2]);
        // Every query in exactly one shard, order preserved.
        let ids: Vec<u64> = shards
            .iter()
            .flat_map(|s| s.queries.iter().map(|q| q.id.0))
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(shards[0].queries[0].id, QueryId(0));
        assert_eq!(shards[0].queries[1].id, QueryId(2));
        // Updates follow ownership: items 0, 6 -> shard 0; 1, 5 -> shard 1.
        let u0: Vec<u32> = shards[0].updates.iter().map(|u| u.item.0).collect();
        let u1: Vec<u32> = shards[1].updates.iter().map(|u| u.item.0).collect();
        assert_eq!(u0, vec![0, 6]);
        assert_eq!(u1, vec![1, 5]);
        // Slices keep the global id space and stay valid traces.
        for s in &shards {
            assert_eq!(s.n_items, 8);
            s.validate().unwrap();
        }
    }

    #[test]
    fn one_shard_slice_is_the_identity() {
        let t = trace();
        let shards = slice_trace(&t, &[0, 0, 0, 0], &ReplicaMap::solo(1), false).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0], t);
    }

    #[test]
    fn filtered_slices_drop_unread_streams() {
        let t = trace();
        let m = ReplicaMap::solo(2);
        // Queries 0,2 -> shard 0 read {0,1,3,5}; queries 1,3 -> shard 1
        // read {2,6}. Stream owners (item mod 2): 0,6 -> shard 0; 1,5 ->
        // shard 1. Only item 0 is read *on its owner*: item 6's reader runs
        // on shard 1 (which never sees shard-0 updates), and items 1/5 are
        // read only on shard 0 while their streams land on shard 1.
        let shards = slice_trace(&t, &[0, 1, 0, 1], &m, true).unwrap();
        let u0: Vec<u32> = shards[0].updates.iter().map(|u| u.item.0).collect();
        let u1: Vec<u32> = shards[1].updates.iter().map(|u| u.item.0).collect();
        assert_eq!(u0, vec![0]);
        assert_eq!(u1, Vec::<u32>::new());
        // 4 copies (4 streams x factor 1): 1 kept, 3 dropped.
        assert_eq!(kept_per_shard(&shards), vec![1, 0]);
        // Queries are routed exactly as in the unfiltered slicing.
        let unfiltered = slice_trace(&t, &[0, 1, 0, 1], &m, false).unwrap();
        for (f, u) in shards.iter().zip(&unfiltered) {
            assert_eq!(f.queries, u.queries);
            f.validate().unwrap();
        }
    }

    #[test]
    fn filtered_one_shard_keeps_exactly_the_read_streams() {
        let t = trace();
        // The single shard reads {0,1,2,3,5,6}; every update item (0,1,5,6)
        // is read, so filtering is the identity here.
        let shards = slice_trace(&t, &[0, 0, 0, 0], &ReplicaMap::solo(1), true).unwrap();
        assert_eq!(shards[0], t);
    }

    #[test]
    fn replica_map_places_leader_then_ring_followers() {
        let m = ReplicaMap::new(4, 3);
        // Item 5: leader 1, followers 2, 3.
        let d = DataId(5);
        assert_eq!(m.leader(d), 1);
        assert_eq!(m.replicas(d).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(m.hosts(1, d) && m.hosts(2, d) && m.hosts(3, d));
        assert!(!m.hosts(0, d));
        assert!(m.follows(2, d) && m.follows(3, d));
        assert!(!m.follows(1, d), "the leader is not a follower of itself");
        // Followers wrap around the ring.
        let r = ReplicaMap::new(5, 3);
        assert_eq!(r.replicas(DataId(4)).collect::<Vec<_>>(), vec![4, 0, 1]);
        // factor == n_shards puts one replica on every shard.
        let full = ReplicaMap::new(4, 4);
        let mut hosts: Vec<usize> = full.replicas(DataId(6)).collect();
        hosts.sort_unstable();
        assert_eq!(hosts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn replica_map_factor_one_agrees_with_item_partition() {
        let m = ReplicaMap::solo(3);
        let p = ItemPartition::new(3);
        for i in 0..32 {
            let d = DataId(i);
            assert_eq!(m.leader(d), p.owner(d));
            assert_eq!(m.replicas(d).collect::<Vec<_>>(), vec![p.owner(d)]);
            assert!(!m.follows(p.owner(d), d));
        }
    }

    #[test]
    fn replicated_slices_fan_out_updates_to_followers() {
        let t = trace();
        let m = ReplicaMap::new(2, 2);
        let shards = slice_trace(&t, &[0, 1, 0, 1], &m, false).unwrap();
        // Every stream lands on both shards (factor 2 over 2 shards), in
        // global order, with ids untouched.
        for s in &shards {
            let items: Vec<u32> = s.updates.iter().map(|u| u.item.0).collect();
            assert_eq!(items, vec![0, 1, 5, 6]);
            s.validate().unwrap();
        }
        assert_eq!(kept_per_shard(&shards), vec![4, 4]);
        assert_eq!(
            kept_per_shard(&shards).iter().sum::<usize>(),
            t.updates.len() * m.factor()
        );
    }

    /// Item 5's leader is shard 1, but its only reader (query 2) runs on
    /// shard 0 — which *follows* item 5 under a factor-2 ring. A filter
    /// that judged demand at the leader only would drop the stream
    /// everywhere and starve the follower; the follower's copy must stay.
    #[test]
    fn filtered_slicing_must_not_starve_followers() {
        let t = trace();
        let assignment = [0, 1, 0, 1];
        let m = ReplicaMap::new(2, 2);
        let shards = slice_trace(&t, &assignment, &m, true).unwrap();
        // Shard 0 reads {0,1,3,5}; it leads {0,6} and follows {1,5}.
        // Kept on shard 0: 0 (led + read), 1 and 5 (followed + read).
        let u0: Vec<u32> = shards[0].updates.iter().map(|u| u.item.0).collect();
        assert_eq!(u0, vec![0, 1, 5]);
        assert!(
            u0.contains(&5),
            "follower copy of item 5 must survive demand filtering"
        );
        // Shard 1 reads {2,6}; it leads {1,5} and follows {0,6}: only the
        // followed copy of 6 is read there.
        let u1: Vec<u32> = shards[1].updates.iter().map(|u| u.item.0).collect();
        assert_eq!(u1, vec![6]);
        // 8 copies total (4 streams x factor 2), 4 kept.
        assert_eq!(kept_per_shard(&shards), vec![3, 1]);
    }

    #[test]
    fn filtered_rejects_malformed_assignments_like_plain() {
        let t = trace();
        let m = ReplicaMap::solo(2);
        assert!(matches!(
            slice_trace(&t, &[0, 1], &m, true),
            Err(PartitionError::AssignmentLength { .. })
        ));
        assert!(matches!(
            slice_trace(&t, &[0, 1, 2, 0], &m, true),
            Err(PartitionError::ShardOutOfRange { shard: 2, .. })
        ));
    }

    #[test]
    fn replicated_rejects_malformed_assignments_like_plain() {
        let t = trace();
        let m = ReplicaMap::new(2, 2);
        assert!(matches!(
            slice_trace(&t, &[0, 1], &m, true),
            Err(PartitionError::AssignmentLength { .. })
        ));
        assert!(matches!(
            slice_trace(&t, &[0, 1, 2, 0], &m, false),
            Err(PartitionError::ShardOutOfRange { shard: 2, .. })
        ));
    }

    #[test]
    fn malformed_assignments_are_rejected() {
        let t = trace();
        let m = ReplicaMap::solo(2);
        assert_eq!(
            slice_trace(&t, &[0, 1], &m, false),
            Err(PartitionError::AssignmentLength {
                queries: 4,
                assigned: 2
            })
        );
        assert_eq!(
            slice_trace(&t, &[0, 1, 2, 0], &m, false),
            Err(PartitionError::ShardOutOfRange {
                query_index: 2,
                shard: 2,
                n_shards: 2
            })
        );
    }
}
