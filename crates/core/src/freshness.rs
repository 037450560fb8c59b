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
//! The other two families are documented extensions, and
//! [`FreshnessModel`] makes the choice a configuration — the server
//! evaluates a query's read-set freshness under whichever model the
//! deployment calls for:
//!
//! * [`FreshnessModel::Lag`] — `1/(1+Udrop)`, the paper's metric and the
//!   default.
//! * [`FreshnessModel::TimeBased`] — `max(0, 1 − age/validity)`: staleness
//!   counted in wall-clock age against a temporal-validity interval, the
//!   classical real-time-database notion (cf. Xiong et al., RTSS'05, cited
//!   in the paper's related work). An item is perfectly fresh until a newer
//!   version exists, then decays linearly over `validity`.
//! * [`FreshnessModel::Divergence`] — `e^(−decay·Udrop)`: staleness as an
//!   exponential proxy for value divergence, appropriate when each skipped
//!   version moves the value by a comparable step (e.g. random-walk prices).
//!
//! All three agree that a fully applied item has freshness 1.0, so the
//! paper's headline experiments are unchanged under the default.

use crate::time::{SimDuration, SimTime};
use crate::types::DataId;
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FreshnessTable {
    pending: Vec<u64>,
    last_applied: Vec<SimTime>,
    last_arrival: Vec<SimTime>,
    /// Total versions that arrived, per item (Fig. 3 "original" histogram).
    arrived: Vec<u64>,
    /// Total updates applied, per item (Fig. 3 "degraded" histogram).
    applied: Vec<u64>,
}

impl FreshnessTable {
    /// A table for `n_items` fully fresh items.
    pub fn new(n_items: usize) -> Self {
        FreshnessTable {
            pending: vec![0; n_items],
            last_applied: vec![SimTime::ZERO; n_items],
            last_arrival: vec![SimTime::ZERO; n_items],
            arrived: vec![0; n_items],
            applied: vec![0; n_items],
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

    /// A new version of `item` arrived from its source at `now`.
    pub fn record_arrival(&mut self, item: DataId, now: SimTime) {
        let i = item.index();
        self.pending[i] += 1;
        self.arrived[i] += 1;
        self.last_arrival[i] = now;
    }

    /// An update transaction for `item` committed at `now`, installing the
    /// newest version and clearing the backlog.
    pub fn record_applied(&mut self, item: DataId, now: SimTime) {
        let i = item.index();
        self.pending[i] = 0;
        self.applied[i] += 1;
        self.last_applied[i] = now;
    }

    /// Pending (unapplied) version count `Udrop_j`.
    pub fn udrop(&self, item: DataId) -> u64 {
        self.pending[item.index()]
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
        &self.arrived
    }

    /// Per-item applied-update counts (Fig. 3 black line).
    pub fn applied_histogram(&self) -> &[u64] {
        &self.applied
    }

    /// Consume the table, handing back the `(arrived, applied)` histograms
    /// without copying them (end-of-run reporting).
    pub fn into_histograms(self) -> (Vec<u64>, Vec<u64>) {
        (self.arrived, self.applied)
    }

    /// Fraction of arrived versions that were applied, over the whole
    /// database. 1.0 under IMU with no backlog; small under heavy shedding.
    pub fn applied_ratio(&self) -> f64 {
        let arrived: u64 = self.arrived.iter().sum();
        if arrived == 0 {
            return 1.0;
        }
        let applied: u64 = self.applied.iter().sum();
        applied as f64 / arrived as f64
    }

    /// Serialize every per-item counter and timestamp into a checkpoint
    /// stream. See [`crate::checkpoint`].
    pub fn checkpoint_into(&self, enc: &mut crate::checkpoint::Enc) {
        enc.put_u64_slice(&self.pending);
        enc.put_usize(self.last_applied.len());
        for t in &self.last_applied {
            enc.put_u64(t.0);
        }
        enc.put_usize(self.last_arrival.len());
        for t in &self.last_arrival {
            enc.put_u64(t.0);
        }
        enc.put_u64_slice(&self.arrived);
        enc.put_u64_slice(&self.applied);
    }

    /// Restore state captured by [`FreshnessTable::checkpoint_into`].
    pub fn restore_from(
        &mut self,
        dec: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let n = self.pending.len();
        let pending = dec.take_u64_vec()?;
        if pending.len() != n {
            return Err(crate::checkpoint::CheckpointError::Mismatch {
                what: "freshness table size",
            });
        }
        self.pending = pending;
        for vec in [&mut self.last_applied, &mut self.last_arrival] {
            let m = dec.take_usize()?;
            if m != n {
                return Err(crate::checkpoint::CheckpointError::Mismatch {
                    what: "freshness table size",
                });
            }
            for t in vec.iter_mut() {
                *t = SimTime(dec.take_u64()?);
            }
        }
        let arrived = dec.take_u64_vec()?;
        let applied = dec.take_u64_vec()?;
        if arrived.len() != n || applied.len() != n {
            return Err(crate::checkpoint::CheckpointError::Mismatch {
                what: "freshness table size",
            });
        }
        self.arrived = arrived;
        self.applied = applied;
        Ok(())
    }

    /// **Time-based** freshness variant (documented extension): age of the
    /// item relative to a validity interval, `max(0, 1 - age/validity)`.
    pub fn time_freshness(&self, item: DataId, now: SimTime, validity: SimDuration) -> f64 {
        if validity.is_zero() {
            return if self.udrop(item) == 0 { 1.0 } else { 0.0 };
        }
        let i = item.index();
        if self.pending[i] == 0 {
            return 1.0;
        }
        // Stale since the first unapplied version; approximate its arrival by
        // the last recorded arrival (exact for Udrop == 1).
        let age = now.saturating_since(self.last_arrival[i]);
        (1.0 - age.as_secs_f64() / validity.as_secs_f64()).max(0.0)
    }

    /// **Divergence-based** freshness variant (documented extension): assumes
    /// each skipped version moves the value by a unit step, so divergence is
    /// proportional to the backlog; freshness decays exponentially with it.
    pub fn divergence_freshness(&self, item: DataId, decay: f64) -> f64 {
        (-decay * self.udrop(item) as f64).exp()
    }
}

/// Which freshness metric the server evaluates query read sets under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum FreshnessModel {
    /// Lag-based `1/(1+Udrop)` — the paper's metric.
    #[default]
    Lag,
    /// Time-based `max(0, 1 − age/validity)`.
    TimeBased {
        /// Temporal-validity interval: how long a superseded value remains
        /// acceptable.
        validity: SimDuration,
    },
    /// Divergence-based `e^(−decay·Udrop)`.
    Divergence {
        /// Per-skipped-version decay rate (> 0).
        decay: f64,
    },
}

impl FreshnessModel {
    /// Freshness of a single item at `now` under this model.
    pub fn item_freshness(&self, table: &FreshnessTable, item: DataId, now: SimTime) -> f64 {
        match *self {
            FreshnessModel::Lag => table.item_freshness(item),
            FreshnessModel::TimeBased { validity } => table.time_freshness(item, now, validity),
            FreshnessModel::Divergence { decay } => table.divergence_freshness(item, decay),
        }
    }

    /// Strict-minimum freshness of a read set at `now` (Eq. 1's aggregation
    /// applies to every model).
    pub fn read_set_freshness(
        &self,
        table: &FreshnessTable,
        items: &[DataId],
        now: SimTime,
    ) -> f64 {
        items
            .iter()
            .map(|&d| self.item_freshness(table, d, now))
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Validate model parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            FreshnessModel::Lag => Ok(()),
            FreshnessModel::TimeBased { validity } => {
                if validity.is_zero() {
                    Err("time-based freshness needs a positive validity interval".into())
                } else {
                    Ok(())
                }
            }
            FreshnessModel::Divergence { decay } => {
                if decay > 0.0 && decay.is_finite() {
                    Ok(())
                } else {
                    Err(format!("divergence decay must be positive, got {decay}"))
                }
            }
        }
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
        t.record_arrival(d, SimTime::from_secs(1));
        t.record_arrival(d, SimTime::from_secs(2));
        t.record_arrival(d, SimTime::from_secs(3));
        assert_eq!(t.udrop(d), 3);
        assert!((t.item_freshness(d) - 0.25).abs() < 1e-12);
        // A single full-replacement application catches the item up.
        t.record_applied(d, SimTime::from_secs(4));
        assert_eq!(t.udrop(d), 0);
        assert_eq!(t.item_freshness(d), 1.0);
        assert_eq!(t.arrived_histogram()[2], 3);
        assert_eq!(t.applied_histogram()[2], 1);
    }

    #[test]
    fn stale_items_filters_by_requirement() {
        let mut t = FreshnessTable::new(3);
        t.record_arrival(DataId(0), SimTime::from_secs(1));
        t.record_arrival(DataId(2), SimTime::from_secs(1));
        t.record_arrival(DataId(2), SimTime::from_secs(2));
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
        for s in 0..10 {
            t.record_arrival(DataId(0), SimTime::from_secs(s));
        }
        t.record_applied(DataId(0), SimTime::from_secs(10));
        assert!((t.applied_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn time_freshness_decays_with_age() {
        let mut t = FreshnessTable::new(1);
        let d = DataId(0);
        let validity = SimDuration::from_secs(10);
        assert_eq!(t.time_freshness(d, SimTime::from_secs(5), validity), 1.0);
        t.record_arrival(d, SimTime::from_secs(5));
        let f = t.time_freshness(d, SimTime::from_secs(10), validity);
        assert!((f - 0.5).abs() < 1e-12);
        // Beyond the validity interval the item is fully stale.
        assert_eq!(t.time_freshness(d, SimTime::from_secs(30), validity), 0.0);
        // Applying restores full freshness.
        t.record_applied(d, SimTime::from_secs(31));
        assert_eq!(t.time_freshness(d, SimTime::from_secs(31), validity), 1.0);
    }

    #[test]
    fn divergence_freshness_decays_exponentially() {
        let mut t = FreshnessTable::new(1);
        let d = DataId(0);
        assert_eq!(t.divergence_freshness(d, 0.5), 1.0);
        t.record_arrival(d, SimTime::from_secs(1));
        t.record_arrival(d, SimTime::from_secs(2));
        let f = t.divergence_freshness(d, 0.5);
        assert!((f - (-1.0f64).exp()).abs() < 1e-12);
    }

    fn table_with_backlog() -> FreshnessTable {
        let mut t = FreshnessTable::new(4);
        // d0 fresh; d1 one pending version (arrived t=10); d2 three pending.
        t.record_arrival(DataId(1), SimTime::from_secs(10));
        for s in [5, 10, 15] {
            t.record_arrival(DataId(2), SimTime::from_secs(s));
        }
        t
    }

    #[test]
    fn all_models_agree_on_fully_fresh_items() {
        let t = table_with_backlog();
        let now = SimTime::from_secs(20);
        for model in [
            FreshnessModel::Lag,
            FreshnessModel::TimeBased {
                validity: SimDuration::from_secs(10),
            },
            FreshnessModel::Divergence { decay: 0.7 },
        ] {
            assert_eq!(model.item_freshness(&t, DataId(0), now), 1.0, "{model:?}");
            assert_eq!(model.item_freshness(&t, DataId(3), now), 1.0, "{model:?}");
        }
    }

    #[test]
    fn lag_model_matches_the_table() {
        let t = table_with_backlog();
        let m = FreshnessModel::Lag;
        let now = SimTime::from_secs(20);
        assert_eq!(m.item_freshness(&t, DataId(1), now), 0.5);
        assert!((m.item_freshness(&t, DataId(2), now) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn time_model_decays_with_age_not_count() {
        let t = table_with_backlog();
        let m = FreshnessModel::TimeBased {
            validity: SimDuration::from_secs(20),
        };
        // d1's pending version arrived at t=10; at t=20 age=10 -> 0.5.
        assert!((m.item_freshness(&t, DataId(1), SimTime::from_secs(20)) - 0.5).abs() < 1e-12);
        // Far past validity: fully stale.
        assert_eq!(
            m.item_freshness(&t, DataId(1), SimTime::from_secs(100)),
            0.0
        );
    }

    #[test]
    fn divergence_model_decays_exponentially_with_count() {
        let t = table_with_backlog();
        let m = FreshnessModel::Divergence { decay: 0.5 };
        let now = SimTime::from_secs(20);
        let f1 = m.item_freshness(&t, DataId(1), now);
        let f2 = m.item_freshness(&t, DataId(2), now);
        assert!((f1 - (-0.5f64).exp()).abs() < 1e-12);
        assert!((f2 - (-1.5f64).exp()).abs() < 1e-12);
        assert!(f2 < f1);
    }

    #[test]
    fn read_set_aggregation_is_strict_min_for_every_model() {
        let t = table_with_backlog();
        let now = SimTime::from_secs(20);
        let read_set = [DataId(0), DataId(1), DataId(2)];
        for model in [
            FreshnessModel::Lag,
            FreshnessModel::TimeBased {
                validity: SimDuration::from_secs(20),
            },
            FreshnessModel::Divergence { decay: 0.5 },
        ] {
            let agg = model.read_set_freshness(&t, &read_set, now);
            let min = read_set
                .iter()
                .map(|&d| model.item_freshness(&t, d, now))
                .fold(f64::INFINITY, f64::min);
            assert!((agg - min).abs() < 1e-12, "{model:?}");
        }
        // Empty read set is vacuously fresh.
        assert_eq!(FreshnessModel::Lag.read_set_freshness(&t, &[], now), 1.0);
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert!(FreshnessModel::Lag.validate().is_ok());
        assert!(FreshnessModel::TimeBased {
            validity: SimDuration::ZERO
        }
        .validate()
        .is_err());
        assert!(FreshnessModel::Divergence { decay: 0.0 }
            .validate()
            .is_err());
        assert!(FreshnessModel::Divergence { decay: -1.0 }
            .validate()
            .is_err());
        assert!(FreshnessModel::Divergence { decay: 1.0 }.validate().is_ok());
    }
}
