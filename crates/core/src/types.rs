//! Domain model: data items, user queries, update streams, and outcomes.
//!
//! Mirrors §2.1 of the paper. The database `D = {d_i}` holds `S` data items.
//! **User queries** read one or more items and carry a firm relative deadline
//! `qt_i` and a freshness requirement `qf_i`. **Updates** are periodic,
//! full-replacement writes of a single item; skipping them affects freshness
//! but never correctness, which is what makes update-frequency modulation a
//! legal load-shedding lever.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Identifier of a data item (index into the database, `0..n_items`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct DataId(pub u32);

impl DataId {
    /// The item id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DataId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Per-item state: a `Vec<T>` sized `n_items`, addressed by [`DataId`].
///
/// The engine's and the policies' per-item tables are built on this type, so
/// the argument for why an item index is in range lives here, once, instead
/// of at each of their access sites.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemVec<T> {
    items: Vec<T>,
}

impl<T> ItemVec<T> {
    /// `n_items` copies of `value`.
    pub fn new(n_items: usize, value: T) -> Self
    where
        T: Clone,
    {
        ItemVec {
            items: vec![value; n_items],
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the table covers no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The entry for `item`. O(1).
    #[expect(
        clippy::indexing_slicing,
        reason = "every DataId reaching a table passed Trace::validate's ItemOutOfRange check (MemBackend range-checks its own), and tables are sized n_items"
    )]
    pub fn at(&self, item: DataId) -> &T {
        &self.items[item.index()]
    }

    /// The entry for `item`, mutably. O(1).
    #[expect(
        clippy::indexing_slicing,
        reason = "same bound as `at`: ids are validated below n_items, tables sized n_items"
    )]
    pub fn at_mut(&mut self, item: DataId) -> &mut T {
        &mut self.items[item.index()]
    }

    /// `(item, entry)` pairs in item order.
    pub fn iter(&self) -> impl Iterator<Item = (DataId, &T)> + '_ {
        self.items
            .iter()
            .enumerate()
            .map(|(i, v)| (DataId(i as u32), v))
    }

    /// The entries in item order.
    pub fn values(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The entries in item order, mutably.
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.items.iter_mut()
    }

    /// The entries as a slice, in item order.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// The backing vector, in item order.
    pub fn into_vec(self) -> Vec<T> {
        self.items
    }
}

impl<T> From<Vec<T>> for ItemVec<T> {
    /// Entry `i` becomes the entry for `DataId(i)`.
    fn from(items: Vec<T>) -> Self {
        ItemVec { items }
    }
}

/// Identifier of a user query within a trace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Identifier of an update stream (one periodic source per [`UpdateSpec`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct UpdateStreamId(pub u32);

impl fmt::Display for UpdateStreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Transaction class. Updates have strictly higher dispatch priority than
/// user queries (§3.1: dual-priority ready queue), and the lock manager's
/// High-Priority rule compares classes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TxnClass {
    /// Background update transaction (higher priority).
    Update,
    /// Foreground user query transaction (lower priority).
    Query,
}

impl TxnClass {
    /// True for the update class.
    pub fn is_update(self) -> bool {
        matches!(self, TxnClass::Update)
    }
}

/// The four possible fortunes of a user query (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// Admitted, committed before its deadline, and read sufficiently fresh
    /// data.
    Success,
    /// Turned away by admission control before execution.
    Rejected,
    /// Deadline-Missed Failure: admitted but failed to commit before `qt_i`.
    DeadlineMiss,
    /// Data-Stale Failure: committed in time but the accessed items did not
    /// meet the freshness requirement `qf_i`.
    DataStale,
}

impl Outcome {
    /// All outcomes, in the order the paper enumerates them.
    pub const ALL: [Outcome; 4] = [
        Outcome::Success,
        Outcome::Rejected,
        Outcome::DeadlineMiss,
        Outcome::DataStale,
    ];

    /// Short label used by the experiment harness output.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Success => "success",
            Outcome::Rejected => "rejected",
            Outcome::DeadlineMiss => "dmf",
            Outcome::DataStale => "dsf",
        }
    }

    /// True for any of the three failure outcomes.
    pub fn is_failure(self) -> bool {
        !matches!(self, Outcome::Success)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A user query transaction as it appears in a trace (§2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Trace-unique identifier.
    pub id: QueryId,
    /// Arrival time at the server.
    pub arrival: SimTime,
    /// Read set `D_i`: the data items the query accesses. Non-empty,
    /// duplicate-free.
    pub items: Vec<DataId>,
    /// Estimated (and, in the simulator, actual) execution time `qe_i`. The
    /// paper assumes these estimates come from the DBMS's query-optimizer
    /// monitoring.
    pub exec_time: SimDuration,
    /// Firm relative deadline `qt_i`: the query is worthless after
    /// `arrival + qt_i`.
    pub relative_deadline: SimDuration,
    /// Freshness requirement `qf_i` in `(0, 1]`.
    pub freshness_req: f64,
    /// Former user-preference class: ignored by every policy and the
    /// engine; removed with ROADMAP item 9(5). Class 0 by default.
    #[serde(default)]
    pub pref_class: u32,
}

impl QuerySpec {
    /// Absolute deadline `arrival + qt_i`.
    pub fn deadline(&self) -> SimTime {
        self.arrival + self.relative_deadline
    }

    /// Validate the invariants a trace generator must uphold.
    pub fn validate(&self, n_items: usize) -> Result<(), SpecError> {
        if self.items.is_empty() {
            return Err(SpecError::EmptyReadSet(self.id));
        }
        // Items are checked in order: the first one out of range or
        // repeating an earlier item decides the error, so repeats are only
        // looked for before the first out-of-range item.
        let end = self
            .items
            .iter()
            .position(|d| d.index() >= n_items)
            .unwrap_or(self.items.len());
        let (in_range, rest) = self.items.split_at(end);
        if let Some(d) = first_repeat(in_range) {
            return Err(SpecError::DuplicateItem(self.id, d));
        }
        if let Some(&d) = rest.first() {
            return Err(SpecError::ItemOutOfRange(d, n_items));
        }
        if self.exec_time.is_zero() {
            return Err(SpecError::ZeroExecTime(self.id));
        }
        if self.relative_deadline.is_zero() {
            return Err(SpecError::ZeroDeadline(self.id));
        }
        if !(self.freshness_req > 0.0 && self.freshness_req <= 1.0) {
            return Err(SpecError::BadFreshnessReq(self.id, self.freshness_req));
        }
        Ok(())
    }
}

/// An owned spec fed to a streaming run (`SimRun::run_streamed`). O(1).
impl From<QuerySpec> for Cow<'_, QuerySpec> {
    fn from(spec: QuerySpec) -> Self {
        Cow::Owned(spec)
    }
}

/// A borrowed spec fed to a streaming run: the engine holds the reference
/// while the query is in flight, never a copy. O(1).
impl<'a> From<&'a QuerySpec> for Cow<'a, QuerySpec> {
    fn from(spec: &'a QuerySpec) -> Self {
        Cow::Borrowed(spec)
    }
}

/// A periodic update stream specification `u_j` (§2.1): which item it
/// refreshes, how often new versions arrive from the source, and how long one
/// application takes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateSpec {
    /// Trace-unique stream identifier.
    pub id: UpdateStreamId,
    /// The data item `ud_j` this stream refreshes.
    pub item: DataId,
    /// Ideal (source) period `pi_j` between consecutive versions.
    pub period: SimDuration,
    /// Execution time `ue_j` of applying one version.
    pub exec_time: SimDuration,
    /// Phase: arrival time of the first version.
    pub first_arrival: SimTime,
}

impl UpdateSpec {
    /// Validate the invariants a trace generator must uphold.
    pub fn validate(&self, n_items: usize) -> Result<(), SpecError> {
        if self.item.index() >= n_items {
            return Err(SpecError::ItemOutOfRange(self.item, n_items));
        }
        if self.period.is_zero() {
            return Err(SpecError::ZeroPeriod(self.id));
        }
        if self.exec_time.is_zero() {
            return Err(SpecError::ZeroUpdateExec(self.id));
        }
        Ok(())
    }
}

/// Errors produced when validating trace specifications.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A query declared an empty read set.
    EmptyReadSet(QueryId),
    /// A spec referenced an item outside `0..n_items`.
    ItemOutOfRange(DataId, usize),
    /// A query listed the same item twice.
    DuplicateItem(QueryId, DataId),
    /// A query with zero execution time.
    ZeroExecTime(QueryId),
    /// A query with zero relative deadline.
    ZeroDeadline(QueryId),
    /// A freshness requirement outside `(0, 1]`.
    BadFreshnessReq(QueryId, f64),
    /// An update stream with zero period.
    ZeroPeriod(UpdateStreamId),
    /// An update stream with zero execution time.
    ZeroUpdateExec(UpdateStreamId),
    /// Queries out of arrival order in a trace.
    UnsortedQueries(QueryId),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyReadSet(q) => write!(f, "query {q} has an empty read set"),
            SpecError::ItemOutOfRange(d, n) => {
                write!(f, "item {d} out of range (database has {n} items)")
            }
            SpecError::DuplicateItem(q, d) => write!(f, "query {q} reads item {d} twice"),
            SpecError::ZeroExecTime(q) => write!(f, "query {q} has zero execution time"),
            SpecError::ZeroDeadline(q) => write!(f, "query {q} has zero relative deadline"),
            SpecError::BadFreshnessReq(q, v) => {
                write!(f, "query {q} freshness requirement {v} outside (0,1]")
            }
            SpecError::ZeroPeriod(u) => write!(f, "update stream {u} has zero period"),
            SpecError::ZeroUpdateExec(u) => write!(f, "update stream {u} has zero execution time"),
            SpecError::UnsortedQueries(q) => {
                write!(f, "query {q} arrives before its predecessor in the trace")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete workload: database size plus the query and update traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Number of data items `S` in the database.
    pub n_items: usize,
    /// User queries, sorted by arrival time.
    pub queries: Vec<QuerySpec>,
    /// Periodic update streams.
    pub updates: Vec<UpdateSpec>,
}

impl Trace {
    /// Validate every spec and the arrival-order invariant.
    pub fn validate(&self) -> Result<(), SpecError> {
        for q in &self.queries {
            q.validate(self.n_items)?;
        }
        for w in windows2(&self.queries) {
            if w.1.arrival < w.0.arrival {
                return Err(SpecError::UnsortedQueries(w.1.id));
            }
        }
        for u in &self.updates {
            u.validate(self.n_items)?;
        }
        Ok(())
    }

    /// Total update-class work if every version were applied, over `horizon`.
    /// Used to report the offered update utilization of a trace.
    pub fn offered_update_utilization(&self, horizon: SimDuration) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        let mut work = 0.0;
        for u in &self.updates {
            let count = horizon.0 / u.period.0.max(1);
            work += count as f64 * u.exec_time.as_secs_f64();
        }
        work / horizon.as_secs_f64()
    }

    /// Total query-class work over `horizon` (every query admitted and run
    /// exactly once).
    pub fn offered_query_utilization(&self, horizon: SimDuration) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        let work: f64 = self.queries.iter().map(|q| q.exec_time.as_secs_f64()).sum();
        work / horizon.as_secs_f64()
    }

    /// Per-item query access counts (how many queries read each item).
    pub fn query_access_histogram(&self) -> Vec<u64> {
        let mut h = ItemVec::new(self.n_items, 0u64);
        for q in &self.queries {
            for &d in &q.items {
                *h.at_mut(d) += 1;
            }
        }
        h.into_vec()
    }

    /// Per-item count of versions the sources will emit over `horizon`.
    pub fn update_volume_histogram(&self, horizon: SimDuration) -> Vec<u64> {
        let mut h = ItemVec::new(self.n_items, 0u64);
        for u in &self.updates {
            if u.first_arrival.0 <= horizon.0 {
                let remaining = horizon.0 - u.first_arrival.0;
                *h.at_mut(u.item) += 1 + remaining / u.period.0.max(1);
            }
        }
        h.into_vec()
    }
}

/// Read sets up to this length are checked for repeats by a pairwise scan;
/// longer ones by sorting a copy, so a hostile read set stays O(k log k).
const SCAN_LEN: usize = 16;

/// The item at the first position of `items` that repeats an earlier one.
fn first_repeat(items: &[DataId]) -> Option<DataId> {
    if items.len() <= SCAN_LEN {
        return items
            .iter()
            .enumerate()
            .find(|&(k, d)| items.iter().take(k).any(|e| e == d))
            .map(|(_, &d)| d);
    }
    let mut sorted: Vec<(DataId, usize)> = items.iter().copied().zip(0..).collect();
    sorted.sort_unstable();
    // Within a run of equal items the second position is the first repeat.
    windows2(&sorted)
        .filter(|(a, b)| a.0 == b.0)
        .map(|(_, &(d, k))| (k, d))
        .min()
        .map(|(_, d)| d)
}

fn windows2<T>(slice: &[T]) -> impl Iterator<Item = (&T, &T)> {
    slice.iter().zip(slice.iter().skip(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn query(id: u64, arrival_s: u64, items: &[u32]) -> QuerySpec {
        QuerySpec {
            id: QueryId(id),
            arrival: SimTime::from_secs(arrival_s),
            items: items.iter().map(|&i| DataId(i)).collect(),
            exec_time: SimDuration::from_secs(2),
            relative_deadline: SimDuration::from_secs(20),
            freshness_req: 0.9,
            pref_class: 0,
        }
    }

    fn update(id: u32, item: u32, period_s: u64) -> UpdateSpec {
        UpdateSpec {
            id: UpdateStreamId(id),
            item: DataId(item),
            period: SimDuration::from_secs(period_s),
            exec_time: SimDuration::from_secs(1),
            first_arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn item_vec_is_addressed_and_iterated_by_data_id() {
        let mut v = ItemVec::new(3, 0u64);
        *v.at_mut(DataId(2)) += 5;
        *v.at_mut(DataId(0)) = 1;
        assert_eq!(*v.at(DataId(2)), 5);
        assert_eq!(v.len(), 3);
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            vec![(DataId(0), &1), (DataId(1), &0), (DataId(2), &5)]
        );
        assert_eq!(v.as_slice(), &[1, 0, 5]);
        assert_eq!(ItemVec::from(vec![1, 0, 5]), v);
        assert_eq!(v.into_vec(), vec![1, 0, 5]);
    }

    #[test]
    fn update_class_outranks_query_class() {
        assert!(TxnClass::Update < TxnClass::Query);
        assert!(TxnClass::Update.is_update());
        assert!(!TxnClass::Query.is_update());
    }

    #[test]
    fn deadline_is_arrival_plus_relative() {
        let q = query(1, 10, &[0]);
        assert_eq!(q.deadline(), SimTime::from_secs(30));
    }

    #[test]
    fn outcome_labels_and_failure_classification() {
        assert_eq!(Outcome::Success.label(), "success");
        assert!(!Outcome::Success.is_failure());
        for o in [Outcome::Rejected, Outcome::DeadlineMiss, Outcome::DataStale] {
            assert!(o.is_failure());
        }
        assert_eq!(Outcome::ALL.len(), 4);
    }

    #[test]
    fn query_validation_rejects_malformed_specs() {
        let mut q = query(1, 0, &[]);
        assert_eq!(q.validate(4), Err(SpecError::EmptyReadSet(QueryId(1))));

        q = query(1, 0, &[7]);
        assert_eq!(q.validate(4), Err(SpecError::ItemOutOfRange(DataId(7), 4)));

        q = query(1, 0, &[2, 2]);
        assert_eq!(
            q.validate(4),
            Err(SpecError::DuplicateItem(QueryId(1), DataId(2)))
        );

        q = query(1, 0, &[2]);
        q.exec_time = SimDuration::ZERO;
        assert_eq!(q.validate(4), Err(SpecError::ZeroExecTime(QueryId(1))));

        q = query(1, 0, &[2]);
        q.freshness_req = 1.5;
        assert!(matches!(q.validate(4), Err(SpecError::BadFreshnessReq(..))));

        q = query(1, 0, &[2]);
        q.freshness_req = 0.0;
        assert!(matches!(q.validate(4), Err(SpecError::BadFreshnessReq(..))));

        assert!(query(1, 0, &[0, 1, 3]).validate(4).is_ok());
    }

    #[test]
    fn the_first_bad_item_in_order_decides_the_error() {
        // The same cases through the pairwise scan and, behind 40 distinct
        // filler items, through the sorted copy.
        let dup = |d| Err(SpecError::DuplicateItem(QueryId(1), DataId(d)));
        let range = |d| Err(SpecError::ItemOutOfRange(DataId(d), 200));
        for filler in [0u32, 40] {
            let check = |items: &[u32]| {
                let mut all: Vec<u32> = (100..100 + filler).collect();
                all.extend_from_slice(items);
                query(1, 0, &all).validate(200)
            };
            assert_eq!(check(&[1, 900, 1]), range(900));
            assert_eq!(check(&[1, 1, 900]), dup(1));
            assert_eq!(check(&[900, 900]), range(900));
            assert_eq!(check(&[3, 2, 2, 3]), dup(2));
            assert_eq!(check(&[3, 2, 4]), Ok(()));
        }
    }

    #[test]
    fn a_long_read_set_reports_its_last_item_repeating() {
        let n = 100_000u32;
        let mut items: Vec<u32> = (0..n).collect();
        items.push(n / 2);
        assert_eq!(
            query(7, 0, &items).validate(n as usize),
            Err(SpecError::DuplicateItem(QueryId(7), DataId(n / 2)))
        );
        items.pop();
        assert!(query(7, 0, &items).validate(n as usize).is_ok());
        // Out of range before any repeat, and a repeat before it.
        items.extend([n, 3]);
        assert_eq!(
            query(7, 0, &items).validate(n as usize),
            Err(SpecError::ItemOutOfRange(DataId(n), n as usize))
        );
        items.insert(n as usize, 3);
        assert_eq!(
            query(7, 0, &items).validate(n as usize),
            Err(SpecError::DuplicateItem(QueryId(7), DataId(3)))
        );
    }

    #[test]
    fn update_validation_rejects_malformed_specs() {
        assert!(update(0, 1, 60).validate(4).is_ok());
        assert!(matches!(
            update(0, 9, 60).validate(4),
            Err(SpecError::ItemOutOfRange(..))
        ));
        let mut u = update(0, 1, 60);
        u.period = SimDuration::ZERO;
        assert_eq!(u.validate(4), Err(SpecError::ZeroPeriod(UpdateStreamId(0))));
    }

    #[test]
    fn trace_validation_requires_sorted_arrivals() {
        let trace = Trace {
            n_items: 4,
            queries: vec![query(1, 10, &[0]), query(2, 5, &[1])],
            updates: vec![],
        };
        assert_eq!(
            trace.validate(),
            Err(SpecError::UnsortedQueries(QueryId(2)))
        );
    }

    #[test]
    fn offered_utilizations_match_hand_computation() {
        // One stream: period 10s, exec 1s -> 10% utilization.
        let trace = Trace {
            n_items: 4,
            queries: vec![query(1, 0, &[0]), query(2, 1, &[1])],
            updates: vec![update(0, 0, 10)],
        };
        let horizon = SimDuration::from_secs(100);
        let uu = trace.offered_update_utilization(horizon);
        assert!((uu - 0.10).abs() < 0.01, "got {uu}");
        // Two queries x 2s over 100s -> 4%.
        let qu = trace.offered_query_utilization(horizon);
        assert!((qu - 0.04).abs() < 1e-9, "got {qu}");
    }

    #[test]
    fn histograms_count_accesses_and_versions() {
        let trace = Trace {
            n_items: 3,
            queries: vec![query(1, 0, &[0, 2]), query(2, 1, &[0])],
            updates: vec![update(0, 1, 25)],
        };
        assert_eq!(trace.query_access_histogram(), vec![2, 0, 1]);
        // Versions at t=0,25,50,75,100 within a 100s horizon -> 5.
        let h = trace.update_volume_histogram(SimDuration::from_secs(100));
        assert_eq!(h, vec![0, 5, 0]);
    }

    #[test]
    fn trace_serde_round_trip() {
        let trace = Trace {
            n_items: 2,
            queries: vec![query(1, 0, &[0])],
            updates: vec![update(0, 1, 30)],
        };
        let json = serde_json::to_string(&trace).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(trace, back);
    }
}
