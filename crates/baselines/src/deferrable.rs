//! DEF — deferrable update scheduling, after Xiong, Han & Lam ("A
//! deferrable scheduling algorithm for real-time transactions maintaining
//! data freshness", RTSS 2005), which the UNIT paper cites as the other
//! principled way to cut update workload (§5).
//!
//! Instead of applying versions on their periodic schedule (IMU), on demand
//! when a query already waits (ODU), or at controller-modulated rates
//! (UNIT), DEF *defers* each pending version until just before the item is
//! predicted to be read again: freshness is produced exactly when it is
//! about to be consumed. Next-access times are predicted per item with an
//! exponentially weighted moving average of observed access intervals.
//!
//! Trade-offs this exposes against the other policies:
//!
//! * vs **ODU**: the refresh lands *before* the reader arrives, so the
//!   reader doesn't spend its deadline waiting behind a 96-second update —
//!   but a mispredicted access reads stale data (DSF), which ODU never does.
//! * vs **UNIT**: no feedback control and no admission control; DEF spends
//!   update CPU proportional to *access* traffic, like ODU.

use unit_core::freshness::max_tolerable_udrop;
use unit_core::policy::{AdmissionDecision, Policy, UpdateAction};
use unit_core::snapshot::SnapshotView;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, ItemVec, QuerySpec, UpdateSpec};

/// EWMA factor for access-interval estimation (weight of the newest
/// observation).
const EWMA_ALPHA: f64 = 0.3;
/// Refresh when the predicted next access is within this many seconds
/// (covers the update execution time plus one tick).
const LEAD_TIME_SECS: f64 = 150.0;

/// The deferrable-update policy.
#[derive(Debug, Default)]
pub struct DeferrablePolicy {
    last_access: ItemVec<Option<SimTime>>,
    /// EWMA of per-item access intervals, seconds (`None` until two
    /// accesses have been seen).
    interval_ewma: ItemVec<Option<f64>>,
    refreshes_scheduled: u64,
}

impl DeferrablePolicy {
    /// Refreshes scheduled ahead of predicted accesses so far.
    pub fn refreshes_scheduled(&self) -> u64 {
        self.refreshes_scheduled
    }

    /// Predicted next access instant for `item`, if predictable.
    fn predicted_next_access(&self, item: DataId) -> Option<SimTime> {
        let last = (*self.last_access.at(item))?;
        let interval = (*self.interval_ewma.at(item))?;
        Some(last + SimDuration::from_secs_f64(interval))
    }
}

impl Policy for DeferrablePolicy {
    fn name(&self) -> &str {
        "DEF"
    }

    fn init(&mut self, n_items: usize, _updates: &[UpdateSpec]) {
        self.last_access = ItemVec::new(n_items, None);
        self.interval_ewma = ItemVec::new(n_items, None);
    }

    fn on_query_arrival(&mut self, _q: &QuerySpec, _sys: &SnapshotView<'_>) -> AdmissionDecision {
        AdmissionDecision::Admit
    }

    fn on_version_arrival(
        &mut self,
        _item: DataId,
        _now: SimTime,
        _sys: &SnapshotView<'_>,
    ) -> UpdateAction {
        // Never apply on the source's schedule: defer.
        UpdateAction::Skip
    }

    fn on_query_dispatch(&mut self, q: &QuerySpec, _freshness: f64) {
        // Learn per-item access intervals.
        for &d in &q.items {
            // The engine dispatches at lock-grant time; we only need
            // relative spacing, so arrival time is a fine proxy.
            let now = q.arrival;
            if let Some(last) = *self.last_access.at(d) {
                let observed = now.saturating_since(last).as_secs_f64();
                let a = EWMA_ALPHA;
                let ewma = self.interval_ewma.at_mut(d);
                *ewma = Some(match *ewma {
                    Some(prev) => (1.0 - a) * prev + a * observed,
                    None => observed,
                });
            }
            *self.last_access.at_mut(d) = Some(now);
        }
    }

    fn tick_refreshes(&mut self, now: SimTime, udrop: &dyn Fn(DataId) -> u64) -> Vec<DataId> {
        let lead = SimDuration::from_secs_f64(LEAD_TIME_SECS);
        let mut out = Vec::new();
        for (d, _) in self.last_access.iter() {
            if udrop(d) == 0 {
                continue; // already fresh
            }
            if let Some(next) = self.predicted_next_access(d) {
                if next <= now + lead {
                    out.push(d);
                    self.refreshes_scheduled += 1;
                }
            }
        }
        out
    }

    fn demand_refresh(&mut self, q: &QuerySpec, udrop: &dyn Fn(DataId) -> u64) -> Vec<DataId> {
        // ODU-style safety net: a mispredicted access that finds stale
        // data refreshes on demand.
        let tolerable = max_tolerable_udrop(q.freshness_req);
        q.items
            .iter()
            .copied()
            .filter(|&d| udrop(d) > tolerable)
            .collect()
    }

    fn checkpoint_state(&self, enc: &mut unit_core::checkpoint::Enc) {
        enc.put_usize(self.last_access.len());
        for t in self.last_access.values() {
            enc.put_opt_u64(t.map(|t| t.0));
        }
        for e in self.interval_ewma.values() {
            enc.put_opt_f64(*e);
        }
        enc.put_u64(self.refreshes_scheduled);
    }

    fn restore_state(
        &mut self,
        dec: &mut unit_core::checkpoint::Dec<'_>,
    ) -> Result<(), unit_core::checkpoint::CheckpointError> {
        let n = dec.take_usize()?;
        if n != self.last_access.len() {
            return Err(unit_core::checkpoint::CheckpointError::Mismatch {
                what: "DEF table size",
            });
        }
        for t in self.last_access.values_mut() {
            *t = dec.take_opt_u64()?.map(SimTime);
        }
        for e in self.interval_ewma.values_mut() {
            *e = dec.take_opt_f64()?;
        }
        self.refreshes_scheduled = dec.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::types::QueryId;

    fn query(arrival_s: u64, item: u32) -> QuerySpec {
        QuerySpec {
            id: QueryId(0),
            arrival: SimTime::from_secs(arrival_s),
            items: vec![DataId(item)],
            exec_time: SimDuration::from_secs(1),
            relative_deadline: SimDuration::from_secs(30),
            freshness_req: 0.9,
            pref_class: 0,
        }
    }

    fn policy() -> DeferrablePolicy {
        let mut p = DeferrablePolicy::default();
        p.init(4, &[]);
        p
    }

    #[test]
    fn versions_are_never_applied_at_arrival() {
        let mut p = policy();
        let snap = unit_core::snapshot::SystemSnapshot::empty(SimTime::ZERO);
        let sys = snap.view();
        assert!(!p
            .on_version_arrival(DataId(0), SimTime::from_secs(1), &sys)
            .is_apply());
    }

    #[test]
    fn learns_access_intervals_and_predicts() {
        let mut p = policy();
        // Accesses to item 0 every 100 s.
        for k in 0..5 {
            p.on_query_dispatch(&query(100 * k, 0), 1.0);
        }
        // Stale item, predicted access at ~t=500: not yet due at t=300.
        let refreshes = p.tick_refreshes(SimTime::from_secs(300), &|_| 1);
        assert!(refreshes.is_empty());
        // Due within the 150 s lead at t=360 (500 - 150 = 350).
        let refreshes = p.tick_refreshes(SimTime::from_secs(360), &|_| 1);
        assert_eq!(refreshes, vec![DataId(0)]);
        assert_eq!(p.refreshes_scheduled(), 1);
    }

    #[test]
    fn fresh_items_are_never_refreshed() {
        let mut p = policy();
        for k in 0..5 {
            p.on_query_dispatch(&query(100 * k, 0), 1.0);
        }
        let refreshes = p.tick_refreshes(SimTime::from_secs(480), &|_| 0);
        assert!(refreshes.is_empty(), "no pending version, nothing to do");
    }

    #[test]
    fn unobserved_items_are_not_predicted() {
        let mut p = policy();
        // One access is not enough to estimate an interval.
        p.on_query_dispatch(&query(100, 2), 1.0);
        let refreshes = p.tick_refreshes(SimTime::from_secs(1_000), &|_| 3);
        assert!(refreshes.is_empty());
    }

    #[test]
    fn demand_fallback_mirrors_odu() {
        let mut p = policy();
        let stale = p.demand_refresh(&query(10, 1), &|d| if d.0 == 1 { 2 } else { 0 });
        assert_eq!(stale, vec![DataId(1)]);
    }

    #[test]
    fn ewma_tracks_changing_rates() {
        let mut p = policy();
        // 100 s spacing, then 10 s spacing: the estimate must move down.
        for k in 0..4 {
            p.on_query_dispatch(&query(100 * k, 0), 1.0);
        }
        let before = p.interval_ewma.at(DataId(0)).unwrap();
        for k in 0..10 {
            p.on_query_dispatch(&query(400 + 10 * k, 0), 1.0);
        }
        let after = p.interval_ewma.at(DataId(0)).unwrap();
        assert!(after < before * 0.5, "EWMA {before} -> {after}");
    }
}
