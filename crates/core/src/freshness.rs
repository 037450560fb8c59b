//! Freshness measurement (§2.2).
//!
//! The paper classifies freshness metrics into **time-based**, **lag-based**,
//! and **divergence-based** families and adopts the lag-based one because the
//! workload consists of periodic full-replacement updates: staleness is
//! naturally "how many newer versions exist that the server has not applied".
//!
//! For a data item `d_j`:
//!
//! ```text
//! Qu(d_j) = 1 / (1 + Udrop_j)
//! ```
//!
//! where `Udrop_j` counts the versions that arrived since the last applied
//! one. For a query, freshness is aggregated *strictly* — the minimum over
//! the accessed read set — so the reported value lower-bounds every item the
//! answer was computed from:
//!
//! ```text
//! Qu(q_i) = min_{d_j ∈ D_i} Qu(d_j)          (Eq. 1)
//! ```
//!
//! The lag metric is the only one the server evaluates: no experiment here
//! reproduces a workload where the time- or divergence-based families
//! would judge a read set differently.

use crate::types::{DataId, ItemVec};

/// Lag-based freshness of a single item with `udrop` pending versions.
///
/// Always in `(0, 1]`: 1 when fully fresh, approaching 0 as versions pile up.
pub fn lag_freshness(udrop: u64) -> f64 {
    1.0 / (1.0 + udrop as f64)
}

/// The number of pending versions at which lag-based freshness first drops
/// below `req`. With the paper's default `qf = 0.9`, this is 1: a single
/// unapplied version already violates the requirement.
pub fn max_tolerable_udrop(req: f64) -> u64 {
    if req <= 0.0 {
        return u64::MAX;
    }
    // Largest u with 1/(1+u) >= req  <=>  u <= 1/req - 1.
    (1.0 / req - 1.0).floor().max(0.0) as u64
}

/// Strict (minimum) aggregation of item freshness over a read set (Eq. 1).
pub fn query_freshness<F>(items: &[DataId], mut item_freshness: F) -> f64
where
    F: FnMut(DataId) -> f64,
{
    items
        .iter()
        .map(|&d| item_freshness(d))
        .fold(f64::INFINITY, f64::min)
        .min(1.0)
}

/// Per-item freshness bookkeeping for the whole database.
///
/// The server-side view: every *version arrival* from a source increments the
/// item's pending count; every *applied* update transaction clears it (a
/// full-replacement update installs the newest version, so one application
/// catches the item up regardless of how many versions were skipped — the
/// stock-ticker argument from §1).
#[derive(Debug, Clone)]
pub struct FreshnessTable {
    pending: ItemVec<u64>,
    /// Total versions that arrived, per item (Fig. 3 "original" histogram).
    arrived: ItemVec<u64>,
    /// Total updates applied, per item (Fig. 3 "degraded" histogram).
    applied: ItemVec<u64>,
}

impl FreshnessTable {
    /// A table for `n_items` fully fresh items.
    pub fn new(n_items: usize) -> Self {
        FreshnessTable {
            pending: ItemVec::new(n_items, 0),
            arrived: ItemVec::new(n_items, 0),
            applied: ItemVec::new(n_items, 0),
        }
    }

    /// Number of items tracked.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when the table tracks no items.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// A new version of `item` arrived from its source.
    pub fn record_arrival(&mut self, item: DataId) {
        *self.pending.at_mut(item) += 1;
        *self.arrived.at_mut(item) += 1;
    }

    /// An update transaction for `item` committed, installing the newest
    /// version and clearing the backlog.
    pub fn record_applied(&mut self, item: DataId) {
        *self.pending.at_mut(item) = 0;
        *self.applied.at_mut(item) += 1;
    }

    /// Pending (unapplied) version count `Udrop_j`.
    pub fn udrop(&self, item: DataId) -> u64 {
        *self.pending.at(item)
    }

    /// Lag-based freshness of one item.
    pub fn item_freshness(&self, item: DataId) -> f64 {
        lag_freshness(self.udrop(item))
    }

    /// Strict-minimum freshness of a read set (Eq. 1).
    pub fn read_set_freshness(&self, items: &[DataId]) -> f64 {
        query_freshness(items, |d| self.item_freshness(d))
    }

    /// True when every item in the read set satisfies `req`.
    pub fn read_set_meets(&self, items: &[DataId], req: f64) -> bool {
        self.read_set_freshness(items) >= req
    }

    /// Items in `read_set` that currently violate `req` (the set an
    /// on-demand-update policy must refresh before the query runs).
    pub fn stale_items(&self, read_set: &[DataId], req: f64) -> Vec<DataId> {
        let tolerable = max_tolerable_udrop(req);
        read_set
            .iter()
            .copied()
            .filter(|&d| self.udrop(d) > tolerable)
            .collect()
    }

    /// Per-item arrived-version counts (Fig. 3 grey area).
    pub fn arrived_histogram(&self) -> &[u64] {
        self.arrived.as_slice()
    }

    /// Per-item applied-update counts (Fig. 3 black line).
    pub fn applied_histogram(&self) -> &[u64] {
        self.applied.as_slice()
    }

    /// Consume the table, handing back the `(arrived, applied)` histograms
    /// without copying them (end-of-run reporting).
    pub fn into_histograms(self) -> (Vec<u64>, Vec<u64>) {
        (self.arrived.into_vec(), self.applied.into_vec())
    }

    /// Fraction of arrived versions that were applied, over the whole
    /// database. 1.0 under IMU with no backlog; small under heavy shedding.
    pub fn applied_ratio(&self) -> f64 {
        let arrived: u64 = self.arrived.values().sum();
        if arrived == 0 {
            return 1.0;
        }
        let applied: u64 = self.applied.values().sum();
        applied as f64 / arrived as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_freshness_matches_formula() {
        assert_eq!(lag_freshness(0), 1.0);
        assert_eq!(lag_freshness(1), 0.5);
        assert!((lag_freshness(9) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tolerable_udrop_for_common_requirements() {
        // qf = 0.9: any pending version violates the requirement.
        assert_eq!(max_tolerable_udrop(0.9), 0);
        // qf = 0.5: exactly one pending version is tolerable.
        assert_eq!(max_tolerable_udrop(0.5), 1);
        // qf = 0.25: 1/(1+3) = 0.25 is still acceptable.
        assert_eq!(max_tolerable_udrop(0.25), 3);
        assert_eq!(max_tolerable_udrop(0.0), u64::MAX);
    }

    #[test]
    fn strict_min_aggregation() {
        let items = [DataId(0), DataId(1), DataId(2)];
        let f = query_freshness(&items, |d| match d.0 {
            0 => 1.0,
            1 => 0.5,
            _ => 0.25,
        });
        assert_eq!(f, 0.25);
        // Empty read set is vacuously fresh (clamped to 1).
        assert_eq!(query_freshness(&[], |_| 0.0), 1.0);
    }

    #[test]
    fn arrivals_accumulate_and_one_apply_clears() {
        let mut t = FreshnessTable::new(4);
        let d = DataId(2);
        assert_eq!(t.item_freshness(d), 1.0);
        t.record_arrival(d);
        t.record_arrival(d);
        t.record_arrival(d);
        assert_eq!(t.udrop(d), 3);
        assert!((t.item_freshness(d) - 0.25).abs() < 1e-12);
        // A single full-replacement application catches the item up.
        t.record_applied(d);
        assert_eq!(t.udrop(d), 0);
        assert_eq!(t.item_freshness(d), 1.0);
        assert_eq!(t.arrived_histogram()[2], 3);
        assert_eq!(t.applied_histogram()[2], 1);
    }

    #[test]
    fn stale_items_filters_by_requirement() {
        let mut t = FreshnessTable::new(3);
        t.record_arrival(DataId(0));
        t.record_arrival(DataId(2));
        t.record_arrival(DataId(2));
        let read_set = [DataId(0), DataId(1), DataId(2)];
        // qf = 0.9 -> both pending items are stale.
        assert_eq!(t.stale_items(&read_set, 0.9), vec![DataId(0), DataId(2)]);
        // qf = 0.5 tolerates one pending version -> only d2 is stale.
        assert_eq!(t.stale_items(&read_set, 0.5), vec![DataId(2)]);
        assert!(!t.read_set_meets(&read_set, 0.9));
        assert!(t.read_set_meets(&[DataId(1)], 0.9));
    }

    #[test]
    fn applied_ratio_tracks_shedding() {
        let mut t = FreshnessTable::new(2);
        assert_eq!(t.applied_ratio(), 1.0);
        for _ in 0..10 {
            t.record_arrival(DataId(0));
        }
        t.record_applied(DataId(0));
        assert!((t.applied_ratio() - 0.1).abs() < 1e-12);
    }

    fn table_with_backlog() -> FreshnessTable {
        let mut t = FreshnessTable::new(4);
        // d0 fresh; d1 one pending version; d2 three pending, one applied.
        t.record_arrival(DataId(1));
        t.record_arrival(DataId(2));
        t.record_applied(DataId(2));
        for _ in 0..3 {
            t.record_arrival(DataId(2));
        }
        t
    }

    /// An engine snapshot holds the table by value: restoring a clone over
    /// a table that has moved on, or over one of another size, brings back
    /// the per-item drops and both histograms as they were.
    #[test]
    fn checkpoint_round_trips_the_item_tables() {
        let mut t = table_with_backlog();
        let snap = t.clone();
        t.record_applied(DataId(2));
        t.record_arrival(DataId(0));

        let mut wrong = FreshnessTable::new(3);
        for back in [&mut t, &mut wrong] {
            back.clone_from(&snap);
            assert_eq!(back.len(), 4);
            for d in (0..4).map(DataId) {
                assert_eq!(back.udrop(d), snap.udrop(d), "{d}");
            }
            assert_eq!(back.arrived_histogram(), &[0, 1, 4, 0]);
            assert_eq!(back.applied_histogram(), &[0, 0, 1, 0]);
        }
    }

    // The lag metric is the only freshness model left; the two tests named
    // for "every model" now pin it alone.
    #[test]
    fn all_models_agree_on_fully_fresh_items() {
        let mut t = table_with_backlog();
        // Never-updated and caught-up items are both fully fresh.
        t.record_applied(DataId(1));
        for d in [DataId(0), DataId(1), DataId(3)] {
            assert_eq!(t.item_freshness(d), 1.0, "{d}");
        }
    }

    #[test]
    fn lag_model_matches_the_table() {
        let t = table_with_backlog();
        assert_eq!(t.item_freshness(DataId(1)), lag_freshness(1));
        assert_eq!(t.item_freshness(DataId(2)), lag_freshness(3));
    }

    #[test]
    fn read_set_aggregation_is_strict_min_for_every_model() {
        let t = table_with_backlog();
        let read_set = [DataId(0), DataId(1), DataId(2)];
        let min = read_set
            .iter()
            .map(|&d| t.item_freshness(d))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(t.read_set_freshness(&read_set), min);
        assert!((min - 0.25).abs() < 1e-12);
        // Empty read set is vacuously fresh.
        assert_eq!(t.read_set_freshness(&[]), 1.0);
    }
}
