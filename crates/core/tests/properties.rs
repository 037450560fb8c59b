//! Property-based tests (proptest) for unit-core's data structures and
//! invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use unit_core::controller::{Lbc, LbcConfig};
use unit_core::freshness::{lag_freshness, max_tolerable_udrop, FreshnessTable};
use unit_core::lottery::WeightedSampler;
use unit_core::modulation::{UpdateModulation, UpgradeRule};
use unit_core::tickets::TicketTable;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, Outcome};
use unit_core::usm::{OutcomeCounts, UsmWeights};

// ---------------------------------------------------------------------------
// Lottery / Fenwick sampler
// ---------------------------------------------------------------------------

proptest! {
    /// The sampler never returns an index with zero weight, never panics,
    /// and always returns in-range indices.
    #[test]
    fn lottery_only_draws_positive_weights(
        weights in prop::collection::vec(0.0f64..100.0, 1..200),
        seed in any::<u64>(),
    ) {
        let sampler = WeightedSampler::from_weights(&weights);
        let mut rng = StdRng::seed_from_u64(seed);
        let total: f64 = weights.iter().sum();
        for _ in 0..32 {
            match sampler.sample(&mut rng) {
                Some(idx) => {
                    prop_assert!(idx < weights.len());
                    prop_assert!(weights[idx] > 0.0, "drew zero-weight index {idx}");
                }
                None => prop_assert!(total <= 0.0, "None despite positive total {total}"),
            }
        }
    }

    /// Point updates keep the tree-total consistent with the weight vector.
    #[test]
    fn lottery_total_matches_weights_after_updates(
        initial in prop::collection::vec(0.0f64..50.0, 1..100),
        updates in prop::collection::vec((0usize..100, 0.0f64..50.0), 0..50),
    ) {
        let mut sampler = WeightedSampler::from_weights(&initial);
        let mut shadow = initial.clone();
        for (idx, w) in updates {
            let idx = idx % shadow.len();
            sampler.set(idx, w);
            shadow[idx] = w;
        }
        let expected: f64 = shadow.iter().sum();
        prop_assert!((sampler.total() - expected).abs() < 1e-6);
        for (i, &w) in shadow.iter().enumerate() {
            prop_assert!((sampler.weight(i) - w).abs() < 1e-9);
        }
    }
}

// ---------------------------------------------------------------------------
// USM
// ---------------------------------------------------------------------------

fn weights_strategy() -> impl Strategy<Value = UsmWeights> {
    (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0)
        .prop_map(|(r, fm, fs)| UsmWeights::penalties(r, fm, fs))
}

fn outcome_strategy() -> impl Strategy<Value = Outcome> {
    prop_oneof![
        Just(Outcome::Success),
        Just(Outcome::Rejected),
        Just(Outcome::DeadlineMiss),
        Just(Outcome::DataStale),
    ]
}

proptest! {
    /// Average USM always lies in the theoretical range [−max penalty, G_s].
    #[test]
    fn usm_within_range(
        weights in weights_strategy(),
        outcomes in prop::collection::vec(outcome_strategy(), 0..500),
    ) {
        let mut counts = OutcomeCounts::default();
        for o in &outcomes {
            counts.record(*o);
        }
        let usm = counts.average_usm(&weights);
        let (lo, hi) = weights.range();
        prop_assert!(usm >= lo - 1e-9, "usm {usm} below {lo}");
        prop_assert!(usm <= hi + 1e-9, "usm {usm} above {hi}");
        // Ratios always partition.
        if !outcomes.is_empty() {
            let sum: f64 = counts.ratios().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
        // Eq. 5 decomposition holds exactly.
        let [r, fm, fs] = counts.cost_components(&weights);
        let s = counts.success_ratio() * weights.gain;
        prop_assert!((usm - (s - r - fm - fs)).abs() < 1e-9);
    }

    /// Merging count sets is the same as recording the concatenation.
    #[test]
    fn usm_counts_merge_is_additive(
        a in prop::collection::vec(outcome_strategy(), 0..100),
        b in prop::collection::vec(outcome_strategy(), 0..100),
    ) {
        let mut ca = OutcomeCounts::default();
        for o in &a { ca.record(*o); }
        let mut cb = OutcomeCounts::default();
        for o in &b { cb.record(*o); }
        let mut concat = OutcomeCounts::default();
        for o in a.iter().chain(&b) { concat.record(*o); }
        prop_assert_eq!(ca.merged(&cb), concat);
    }
}

// ---------------------------------------------------------------------------
// Freshness
// ---------------------------------------------------------------------------

proptest! {
    /// Item freshness is always in (0, 1], strictly decreasing in the
    /// backlog, and the tolerable-udrop bound is exact.
    #[test]
    fn lag_freshness_bounds(udrop in 0u64..10_000) {
        let f = lag_freshness(udrop);
        prop_assert!(f > 0.0 && f <= 1.0);
        if udrop > 0 {
            prop_assert!(f < lag_freshness(udrop - 1));
        }
    }

    #[test]
    fn tolerable_udrop_is_tight(req in 0.01f64..1.0) {
        let k = max_tolerable_udrop(req);
        prop_assert!(lag_freshness(k) >= req - 1e-12);
        prop_assert!(lag_freshness(k + 1) < req + 1e-12);
    }

    /// Arbitrary interleavings of arrivals and applications keep the table
    /// consistent: freshness is min-aggregated and arrival/application
    /// totals never disagree with the event stream.
    #[test]
    fn freshness_table_consistency(
        events in prop::collection::vec((0u32..16, any::<bool>()), 0..300),
    ) {
        let mut table = FreshnessTable::new(16);
        let mut arrivals = [0u64; 16];
        let mut applies = [0u64; 16];
        let mut pending = [0u64; 16];
        for (item, is_apply) in &events {
            let d = DataId(*item);
            if *is_apply {
                table.record_applied(d);
                applies[*item as usize] += 1;
                pending[*item as usize] = 0;
            } else {
                table.record_arrival(d);
                arrivals[*item as usize] += 1;
                pending[*item as usize] += 1;
            }
        }
        for i in 0..16u32 {
            prop_assert_eq!(table.udrop(DataId(i)), pending[i as usize]);
            prop_assert_eq!(table.arrived_histogram()[i as usize], arrivals[i as usize]);
            prop_assert_eq!(table.applied_histogram()[i as usize], applies[i as usize]);
        }
        // Strict-min aggregation: the read-set freshness equals the minimum
        // item freshness.
        let read_set: Vec<DataId> = (0..16).map(DataId).collect();
        let min_item = (0..16u32)
            .map(|i| table.item_freshness(DataId(i)))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((table.read_set_freshness(&read_set) - min_item).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Modulation
// ---------------------------------------------------------------------------

proptest! {
    /// Any sequence of degrade/upgrade operations keeps every period within
    /// [ideal, cap x ideal].
    #[test]
    fn modulation_periods_stay_bounded(
        periods in prop::collection::vec(10u64..10_000, 1..32),
        ops in prop::collection::vec((any::<bool>(), 0usize..32), 0..200),
        geometric in any::<bool>(),
    ) {
        let n = periods.len();
        let ideal: Vec<SimDuration> = periods.iter().map(|&s| SimDuration::from_secs(s)).collect();
        let rule = if geometric { UpgradeRule::Geometric } else { UpgradeRule::LinearIdealStep };
        let mut m = UpdateModulation::with_rule(ideal.clone(), 0.1, 0.5, 64.0, rule);
        for (degrade, idx) in ops {
            let d = DataId((idx % n) as u32);
            if degrade {
                m.degrade(d);
            } else {
                m.upgrade_all();
            }
        }
        for (i, &ideal_period) in ideal.iter().enumerate() {
            let d = DataId(i as u32);
            let cur = m.current_period(d);
            prop_assert!(cur >= ideal_period, "period below ideal");
            let factor = m.degradation_factor(d);
            prop_assert!((1.0..=64.5).contains(&factor), "factor {factor} out of bounds");
            prop_assert!(m.survival_fraction(d) > 0.0 && m.survival_fraction(d) <= 1.0);
        }
    }

    /// Credit-based subsampling sheds asymptotically 1 - 1/f of a long
    /// version stream.
    #[test]
    fn modulation_survival_matches_factor(hits in 0usize..40) {
        let mut m = UpdateModulation::new(vec![SimDuration::from_secs(10)], 0.1, 0.5);
        let d = DataId(0);
        for _ in 0..hits {
            m.degrade(d);
        }
        let n = 20_000u64;
        let mut applied = 0u64;
        for k in 0..n {
            if m.should_apply(d, SimTime::from_secs(k * 10)) {
                applied += 1;
            }
        }
        let expected = m.survival_fraction(d);
        let observed = applied as f64 / n as f64;
        prop_assert!(
            (observed - expected).abs() < 0.01,
            "factor {:.2}: observed {observed:.4}, expected {expected:.4}",
            m.degradation_factor(d)
        );
    }
}

// ---------------------------------------------------------------------------
// Tickets & controller
// ---------------------------------------------------------------------------

proptest! {
    /// Shifted weights are non-negative with at least one zero; clamped
    /// weights are non-negative and zero exactly where tickets <= 0.
    #[test]
    fn ticket_weight_transforms(
        events in prop::collection::vec((0usize..16, any::<bool>(), 0.01f64..2.0), 1..200),
    ) {
        let mut t = TicketTable::with_scale(16, 0.9, 1.0, 1.0);
        for (item, is_update, mag) in events {
            if is_update {
                t.on_update(item, mag);
            } else {
                t.on_query_access(item, mag);
            }
        }
        let shifted = t.shifted_weights();
        prop_assert!(shifted.iter().all(|&w| w >= 0.0));
        prop_assert!(shifted.iter().any(|&w| w.abs() < 1e-12), "min must map to zero");
        let clamped = t.clamped_weights();
        for (i, &w) in clamped.iter().enumerate() {
            prop_assert!(w >= 0.0);
            prop_assert_eq!(w > 0.0, t.raw(i) > 0.0);
        }
    }

    /// The controller emits only coherent signal sets: one of the four
    /// Figure 2 outcomes, never contradictory pairs.
    #[test]
    fn lbc_signal_sets_are_coherent(
        outcomes in prop::collection::vec(outcome_strategy(), 16..200),
        weights in weights_strategy(),
        utilization in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use unit_core::policy::ControlSignal as S;
        let mut lbc = Lbc::new(weights, LbcConfig::default(), seed);
        for o in &outcomes {
            lbc.record(*o);
        }
        let signals = lbc.activate(SimTime::from_secs(100), utilization);
        let ok = signals.is_empty()
            || signals == vec![S::LoosenAdmission]
            || signals == vec![S::LoosenAdmission, S::DegradeUpdates]
            || signals == vec![S::DegradeUpdates, S::TightenAdmission]
            || signals == vec![S::UpgradeUpdates];
        prop_assert!(ok, "unexpected signal set {signals:?}");
        // Activation always drains the window.
        prop_assert_eq!(lbc.window_counts().total(), 0);
    }
}
