//! Differential test of the degrade lottery: `UnitPolicy`'s wheel against
//! the rule written out plainly as [`Reference`] — the uncapped positive
//! weights as linear cumulative spans in index order, the capped mass
//! after them, and one O(N) scan per draw for the first span whose end
//! exceeds `u · total` — with periods recomputed from scratch.
//!
//! Both sides start from the same trace and see the same ticket events and
//! control signals. After every signal the periods, the lottery RNG state,
//! `degrade_draws` and the `ModulationObs` records must be identical. The
//! wheel alone is checked against the scan target by target, and its hit
//! shares against the weights. With `--features validate` the wheel also
//! checks its span ends and that every resolved span contains its target.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unit_core::config::{UnitConfig, VictimWeighting};
use unit_core::lottery::VictimIndex;
use unit_core::modulation::UpgradeRule;
use unit_core::observe::ModulationObs;
use unit_core::policy::{ControlSignal, Policy};
use unit_core::snapshot::SystemSnapshot;
use unit_core::tickets::TicketTable;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, Outcome, QueryId, QuerySpec, UpdateSpec, UpdateStreamId};
use unit_core::unit_policy::{UnitPolicy, DEGRADE_DRAWS_PER_SIGNAL};
use unit_core::usm::UsmWeights;

/// Table sizes: degenerate, around powers of two, and past the draw cap.
const SIZES: [usize; 7] = [1, 2, 3, 1000, 1024, 1025, 4097];

/// The policy's lottery state, evolved by the plain rule.
struct Reference {
    cfg: UnitConfig,
    tickets: TicketTable,
    ideal: Vec<SimDuration>,
    current: Vec<SimDuration>,
    util_share: Vec<f64>,
    rng: StdRng,
    degrade_draws: u64,
    obs: Vec<ModulationObs>,
    /// Why each degrade signal with a positive total stopped.
    stops: Vec<Stop>,
}

/// Why a reference degrade signal ended, with the number of draws it made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The shed budget was met.
    Budget(usize),
    /// No uncapped item was left.
    Uncapped(usize),
    /// The draw cap was reached.
    Cap,
}

impl Reference {
    /// `UnitPolicy::init`'s tickets, periods and utilization shares.
    fn new(cfg: UnitConfig, n: usize, updates: &[UpdateSpec]) -> Self {
        let m = updates.len() as f64;
        let avg = updates
            .iter()
            .map(|u| u.exec_time.as_secs_f64())
            .sum::<f64>()
            / m;
        let var = updates
            .iter()
            .map(|u| (u.exec_time.as_secs_f64() - avg).powi(2))
            .sum::<f64>()
            / m;
        let mut tickets = TicketTable::with_scale(n, cfg.c_forget, avg, var.sqrt().max(1e-9));
        let mut ideal = vec![SimDuration::MAX; n];
        for u in updates {
            tickets.seed(u.item.index(), 0.5);
            ideal[u.item.index()] = ideal[u.item.index()].min(u.period);
        }
        let mut util_share = vec![0.0; n];
        for u in updates {
            util_share[u.item.index()] += u.exec_time.as_secs_f64() / u.period.as_secs_f64();
        }
        for (share, pi) in util_share.iter_mut().zip(&ideal) {
            if *pi == SimDuration::MAX || pi.is_zero() {
                *share = 0.0;
            }
        }
        Reference {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            tickets,
            current: ideal.clone(),
            ideal,
            util_share,
            degrade_draws: 0,
            obs: Vec::new(),
            stops: Vec::new(),
        }
    }

    fn degraded_period(&self, i: usize) -> SimDuration {
        let stretched = self.current[i].scale(1.0 + self.cfg.c_du);
        stretched.min(self.ideal[i].scale(self.cfg.max_degradation_factor))
    }

    fn degrade_is_noop(&self, i: usize) -> bool {
        self.ideal[i] == SimDuration::MAX || self.degraded_period(i) == self.current[i]
    }

    fn survival_fraction(&self, i: usize) -> f64 {
        let pi = self.ideal[i];
        let factor = if pi.is_zero() || pi == SimDuration::MAX {
            1.0
        } else {
            self.current[i].0 as f64 / pi.0 as f64
        };
        1.0 / factor
    }

    /// One `DegradeUpdates` signal: the wheel's rule, scanned linearly.
    fn degrade_batch(&mut self) {
        let weights = match self.cfg.victim_weighting {
            VictimWeighting::ShiftMin => self.tickets.shifted_weights(),
            VictimWeighting::ClampZero => self.tickets.clamped_weights(),
        };
        let (spans, hot, cold) = wheel(&weights, |i| self.degrade_is_noop(i));
        let total = hot + cold;
        if total <= 0.0 || !total.is_finite() {
            return;
        }
        let mut uncapped = spans.len();
        let mut shed = 0.0;
        let mut drawn = 0;
        let stop = loop {
            if drawn == DEGRADE_DRAWS_PER_SIGNAL {
                break Stop::Cap;
            }
            if shed >= self.cfg.modulation_step_util {
                break Stop::Budget(drawn);
            }
            if uncapped == 0 {
                break Stop::Uncapped(drawn);
            }
            drawn += 1;
            let target = self.rng.gen::<f64>() * total;
            let Some(victim) = scan(&spans, target) else {
                continue;
            };
            if self.degrade_is_noop(victim) {
                continue;
            }
            let before = self.survival_fraction(victim);
            let old_period = self.current[victim];
            self.current[victim] = self.degraded_period(victim);
            shed += self.util_share[victim] * (before - self.survival_fraction(victim));
            self.obs.push(ModulationObs {
                item: DataId(victim as u32),
                ticket: self.tickets.raw(victim),
                old_period,
                new_period: self.current[victim],
            });
            if self.degrade_is_noop(victim) {
                uncapped -= 1;
            }
        };
        self.degrade_draws += drawn as u64;
        self.stops.push(stop);
    }

    /// One `UpgradeUpdates` signal: degraded items by ascending (ticket,
    /// index) until the budget is restored.
    fn upgrade_batch(&mut self) {
        let mut order: Vec<usize> = (0..self.current.len())
            .filter(|&i| self.current[i] > self.ideal[i])
            .collect();
        order.sort_by(|&a, &b| {
            self.tickets
                .raw(a)
                .partial_cmp(&self.tickets.raw(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut restored = 0.0;
        for i in order {
            if restored >= self.cfg.upgrade_step_util {
                break;
            }
            let (pc, pi) = (self.current[i], self.ideal[i]);
            if pi == SimDuration::MAX {
                continue;
            }
            let before = self.survival_fraction(i);
            let next = match self.cfg.upgrade_rule {
                UpgradeRule::LinearIdealStep => pc.saturating_sub(pi.scale(self.cfg.c_uu)),
                UpgradeRule::Geometric => pc.scale(1.0 - self.cfg.c_uu),
            };
            self.current[i] = next.max(pi);
            restored += self.util_share[i] * (self.survival_fraction(i) - before);
            self.obs.push(ModulationObs {
                item: DataId(i as u32),
                ticket: self.tickets.raw(i),
                old_period: pc,
                new_period: self.current[i],
            });
        }
    }
}

/// The wheel's layout: the uncapped positive weights as linear cumulative
/// spans `(end, item)` in index order, less any weight the running end
/// absorbs, then `H` (the last end) and the capped mass `C`.
fn wheel(weights: &[f64], capped: impl Fn(usize) -> bool) -> (Vec<(f64, usize)>, f64, f64) {
    let (mut spans, mut hot, mut cold) = (Vec::new(), 0.0_f64, 0.0_f64);
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            if capped(i) {
                cold += w;
            } else if hot + w > hot {
                hot += w;
                spans.push((hot, i));
            }
        }
    }
    (spans, hot, cold)
}

/// The item of the first span whose end exceeds `target`, if any: O(N).
fn scan(spans: &[(f64, usize)], target: f64) -> Option<usize> {
    spans
        .iter()
        .find(|&&(end, _)| target < end)
        .map(|&(_, i)| i)
}

/// A policy and its reference, driven in lockstep.
struct Pair {
    policy: UnitPolicy,
    reference: Reference,
    now: SimTime,
    n: usize,
    /// The `ModulationObs` records of the last signal, once checked.
    last_obs: Vec<ModulationObs>,
}

impl Pair {
    fn new(cfg: UnitConfig, n: usize, updates: &[UpdateSpec]) -> Self {
        let mut policy = UnitPolicy::new(cfg.clone());
        policy.init(n, updates);
        policy.set_observed(true);
        Pair {
            reference: Reference::new(cfg, n, updates),
            policy,
            now: SimTime::ZERO,
            n,
            last_obs: Vec::new(),
        }
    }

    /// Eq. 7 on both sides.
    fn commit(&mut self, item: usize, exec: SimDuration) {
        self.policy.on_update_commit(DataId(item as u32), exec);
        self.reference.tickets.on_update(item, exec.as_secs_f64());
    }

    /// Eq. 6 on both sides (the configs fix `access_ticket_scale`).
    fn access(&mut self, item: usize, exec: SimDuration, deadline: SimDuration) {
        let q = query(vec![DataId(item as u32)], exec, deadline);
        self.policy.on_query_dispatch(&q, 1.0);
        let scale = self.reference.cfg.access_ticket_scale.unwrap_or(1.0);
        self.reference
            .tickets
            .on_query_access(item, exec.ratio(deadline) * scale);
    }

    /// Fill the LBC's window with `outcome`s and tick past its grace period;
    /// mirror whatever modulation signals the policy emits.
    fn signal(&mut self, outcome: Outcome) -> Result<(), TestCaseError> {
        let q = query(
            vec![DataId(0)],
            SimDuration::from_secs(1),
            SimDuration::from_secs(10),
        );
        for _ in 0..16 {
            self.policy.on_query_outcome(&q, outcome);
        }
        self.now += SimDuration::from_secs(60);
        let sys = SystemSnapshot::empty(self.now);
        let signals = self.policy.on_tick(self.now, &sys.view());
        prop_assert!(!signals.is_empty(), "the LBC did not fire on {outcome:?}");
        for s in signals {
            match s {
                ControlSignal::DegradeUpdates => self.reference.degrade_batch(),
                ControlSignal::UpgradeUpdates => self.reference.upgrade_batch(),
                ControlSignal::TightenAdmission | ControlSignal::LoosenAdmission => {}
            }
        }
        self.check()
    }

    fn check(&mut self) -> Result<(), TestCaseError> {
        for i in 0..self.n {
            prop_assert_eq!(
                self.policy.current_period(DataId(i as u32)),
                Some(self.reference.current[i]),
                "period of item {} after signal at {:?}",
                i,
                self.now
            );
        }
        prop_assert_eq!(
            self.policy.lottery_rng_state(),
            self.reference.rng.state(),
            "lottery RNG state"
        );
        prop_assert_eq!(
            self.policy.stats().degrade_draws,
            self.reference.degrade_draws,
            "degrade_draws"
        );
        let obs = self.policy.drain_modulation_obs();
        prop_assert!(
            obs == self.reference.obs,
            "ModulationObs differ: {} vs {} records",
            obs.len(),
            self.reference.obs.len()
        );
        self.reference.obs.clear();
        self.last_obs = obs;
        Ok(())
    }
}

fn query(items: Vec<DataId>, exec: SimDuration, deadline: SimDuration) -> QuerySpec {
    QuerySpec {
        id: QueryId(0),
        arrival: SimTime::ZERO,
        items,
        exec_time: exec,
        relative_deadline: deadline,
        freshness_req: 0.9,
        pref_class: 0,
    }
}

/// Ticket-table shapes the lottery must survive.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every item's history drawn independently.
    Spread,
    /// Three classes of items with identical histories.
    Ties,
    /// Nothing beyond the warm-start seeds.
    AllEqual,
    /// Spread, plus one item driven far below every other.
    OneVeryNegative,
    /// Most tickets pushed negative, so clamped weights are mostly zero.
    Zeros,
}

const SHAPES: [Shape; 5] = [
    Shape::Spread,
    Shape::Ties,
    Shape::AllEqual,
    Shape::OneVeryNegative,
    Shape::Zeros,
];

/// Update streams on a random subset of `n` items (the rest streamless):
/// mostly long periods, which the lottery can stretch, some
/// of a few ticks, which `scale` rounds back (capped from the start), and
/// some items with a second stream.
fn streams(rng: &mut StdRng, n: usize) -> Vec<UpdateSpec> {
    let mut out = Vec::new();
    let streamed = rng.gen_range(0.5..1.0);
    for i in 0..n {
        if n > 1 && !rng.gen_bool(streamed) {
            continue;
        }
        let copies = if rng.gen_bool(0.1) { 2 } else { 1 };
        for _ in 0..copies {
            let exec: u64 = rng.gen_range(1..150);
            let period = if rng.gen_bool(0.1) {
                SimDuration(rng.gen_range(1..=4))
            } else {
                // Update utilization ~1/n per item, as on the paper traces:
                // a signal's shed budget outlasts many stretches.
                SimDuration::from_secs(exec * n as u64 * rng.gen_range(2..200u64))
            };
            out.push(UpdateSpec {
                id: UpdateStreamId(out.len() as u32),
                item: DataId(i as u32),
                period,
                exec_time: SimDuration::from_secs(exec),
                first_arrival: SimTime::ZERO,
            });
        }
    }
    out
}

/// Ticket events between two signals.
fn shape_tickets(pair: &mut Pair, rng: &mut StdRng, shape: Shape) {
    let n = pair.n;
    let secs = SimDuration::from_secs;
    match shape {
        Shape::AllEqual => {}
        Shape::Spread | Shape::OneVeryNegative => {
            for _ in 0..rng.gen_range(0..2 * n) {
                let item = rng.gen_range(0..n);
                if rng.gen_bool(0.6) {
                    pair.commit(item, secs(rng.gen_range(1..150)));
                } else {
                    pair.access(
                        item,
                        secs(rng.gen_range(1..10)),
                        secs(rng.gen_range(10..100)),
                    );
                }
            }
            if let Shape::OneVeryNegative = shape {
                pair.access(rng.gen_range(0..n), secs(1_000), secs(1));
            }
        }
        Shape::Ties => {
            let exec = [secs(20), secs(90), secs(140)];
            for item in 0..n {
                pair.commit(item, exec[item % 3]);
            }
        }
        Shape::Zeros => {
            for item in 0..n {
                if rng.gen_bool(0.8) {
                    pair.access(item, secs(30), secs(10));
                } else {
                    pair.commit(item, secs(rng.gen_range(1..150)));
                }
            }
        }
    }
}

/// One generated scenario: a policy configuration, a trace of streams and
/// a sequence of ticket events and signals. The budgets stop signals after
/// a draw, partway, or never, so the draw cap binds.
fn scenario(n: usize, shape: Shape, seed: u64) -> Result<Pair, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut updates = streams(&mut rng, n);
    if updates.is_empty() {
        updates = streams(&mut rng, 1);
    }
    let cfg = UnitConfig {
        victim_weighting: if matches!(shape, Shape::Zeros) || rng.gen_bool(0.5) {
            VictimWeighting::ClampZero
        } else {
            VictimWeighting::ShiftMin
        },
        max_degradation_factor: [1.0, 1.5, 4.0, 64.0][rng.gen_range(0..4usize)],
        modulation_step_util: [1e-6, 0.05, 1e9][rng.gen_range(0..3usize)],
        upgrade_step_util: [1e-6, 0.005, 1e9][rng.gen_range(0..3usize)],
        upgrade_rule: if rng.gen_bool(0.5) {
            UpgradeRule::Geometric
        } else {
            UpgradeRule::LinearIdealStep
        },
        access_ticket_scale: Some([0.5, 3.0][rng.gen_range(0..2usize)]),
        ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(rng.gen())
    };
    let mut pair = Pair::new(cfg, n, &updates);
    for _ in 0..8 {
        shape_tickets(&mut pair, &mut rng, shape);
        let outcome = if rng.gen_bool(0.75) {
            Outcome::DeadlineMiss
        } else {
            Outcome::DataStale
        };
        pair.signal(outcome)?;
    }
    Ok(pair)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every table size and shape, both weightings, capped, uncapped and
    /// streamless items, budget, last-uncapped and draw-cap stops: the
    /// wheel decides exactly what the reference's scan does.
    #[test]
    fn indexed_lottery_matches_the_reference(
        size in 0..SIZES.len(),
        shape in 0..SHAPES.len(),
        seed in any::<u64>(),
    ) {
        scenario(SIZES[size], SHAPES[shape], seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wheel alone against the linear scan: the same total and span
    /// count, bit for bit, and the same item (or no-op) for random
    /// targets, for 0, for the largest draw, and for every span end and
    /// its float neighbours, where an off-by-one would show.
    #[test]
    fn index_resolves_like_a_linear_scan(
        size in 0..SIZES.len(),
        seed in any::<u64>(),
    ) {
        let n = SIZES[size];
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..5u32) {
                0 => 0.0,
                1 => 1.0,
                2 => rng.gen::<f64>() * 1e-9,
                3 => rng.gen::<f64>() * 1e-17,
                _ => rng.gen::<f64>() * 10.0,
            })
            .collect();
        let capped: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
        let (spans, hot, cold) = wheel(&weights, |i| capped[i]);
        let mut index = VictimIndex::default();
        let total = index.build(|w| w.extend_from_slice(&weights), |i| capped[i]);
        prop_assert_eq!(total.to_bits(), (hot + cold).to_bits());
        prop_assert_eq!(index.uncapped(), spans.len());
        let largest = 1.0 - f64::EPSILON / 2.0;
        let mut targets: Vec<f64> = (0..4096).map(|_| rng.gen::<f64>() * total).collect();
        targets.extend([0.0, largest * total, hot, cold]);
        for &(end, _) in &spans {
            let bits = end.to_bits();
            targets.extend([end, f64::from_bits(bits - 1), f64::from_bits(bits + 1)]);
        }
        for target in targets {
            prop_assert_eq!(index.resolve(target), scan(&spans, target), "target {:e}", target);
        }
    }
}

/// Each uncapped item's share of 200 000 draws is its weight over the
/// total, and the no-op share is the capped mass over it: the lottery is
/// proportional, whatever the wheel's layout.
#[test]
fn draws_hit_items_in_proportion_to_their_weight() {
    let weights = [3.0, 0.0, 1.0, 6.0, 2.5, 0.5, 4.0, 1.0, 7.0, 2.0];
    let capped = |i: usize| matches!(i, 3 | 6 | 9);
    let mut index = VictimIndex::default();
    let total = index.build(|w| w.extend_from_slice(&weights), capped);
    let mut rng = StdRng::seed_from_u64(0x107);
    let draws = 200_000;
    let (mut hits, mut noops) = ([0u32; 10], 0u32);
    for _ in 0..draws {
        match index.resolve(rng.gen::<f64>() * total) {
            Some(item) => hits[item] += 1,
            None => noops += 1,
        }
    }
    let share = |count: u32| f64::from(count) / f64::from(draws);
    let mass: f64 = weights.iter().sum();
    for (i, &w) in weights.iter().enumerate() {
        let expected = if capped(i) { 0.0 } else { w / mass };
        let observed = share(hits[i]);
        assert!(
            (observed - expected).abs() < 0.01,
            "item {i}: observed {observed:.4}, expected {expected:.4}"
        );
    }
    let capped_mass: f64 = (0..weights.len())
        .filter(|&i| capped(i))
        .map(|i| weights[i])
        .sum();
    let expected = capped_mass / mass;
    assert!(
        (share(noops) - expected).abs() < 0.01,
        "no-ops: observed {:.4}, expected {expected:.4}",
        share(noops)
    );
}

/// A signal with no uncapped item makes no draw: every streamed item is
/// capped at the ideal period (cap factor 1), so the RNG stays put.
#[test]
fn signals_without_uncapped_items_make_no_draws() {
    let mut rng = StdRng::seed_from_u64(7);
    let updates = streams(&mut rng, 1024);
    let cfg = UnitConfig {
        max_degradation_factor: 1.0,
        access_ticket_scale: Some(1.0),
        ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(3)
    };
    let mut pair = Pair::new(cfg, 1024, &updates);
    let before = pair.policy.lottery_rng_state();
    shape_tickets(&mut pair, &mut rng, Shape::Spread);
    pair.signal(Outcome::DeadlineMiss).unwrap();
    assert_eq!(pair.policy.stats().degrade_draws, 0);
    assert_eq!(pair.policy.lottery_rng_state(), before);
    assert_eq!(pair.reference.stops, [Stop::Uncapped(0)]);
}

/// At 131 072 items the wheel has its most spans in this suite.
#[test]
fn large_tables_match_the_reference() {
    for shape in [Shape::Spread, Shape::Ties] {
        let mut rng = StdRng::seed_from_u64(131_072);
        let updates = streams(&mut rng, 131_072);
        let cfg = UnitConfig {
            max_degradation_factor: 1.5,
            modulation_step_util: 1e9,
            access_ticket_scale: Some(1.0),
            ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(9)
        };
        let mut pair = Pair::new(cfg, 131_072, &updates);
        for outcome in [
            Outcome::DeadlineMiss,
            Outcome::DeadlineMiss,
            Outcome::DataStale,
        ] {
            shape_tickets(&mut pair, &mut rng, shape);
            pair.signal(outcome).unwrap();
        }
    }
}

/// `n` items, the first `streamed` of them with one long-period stream
/// each (per-item update utilization ≈ 1e-3), the rest streamless.
fn long_streams(n: usize, streamed: usize) -> Vec<UpdateSpec> {
    (0..streamed.min(n))
        .map(|i| UpdateSpec {
            id: UpdateStreamId(i as u32),
            item: DataId(i as u32),
            period: SimDuration::from_secs(10_000),
            exec_time: SimDuration::from_secs(10),
            first_arrival: SimTime::ZERO,
        })
        .collect()
}

/// Every way a signal ends — on the shed budget, on its last uncapped
/// item, and at the draw cap — leaves the generator, `degrade_draws` and
/// the periods exactly where the reference left them.
#[test]
fn signals_stop_on_the_budget_the_last_uncapped_item_and_the_cap() {
    let mut stops = Vec::new();
    for seed in 0..8 {
        // One stretch meets the budget.
        let mut rng = StdRng::seed_from_u64(seed);
        let updates = streams(&mut rng, 1024);
        let cfg = UnitConfig {
            modulation_step_util: 1e-12,
            access_ticket_scale: Some(1.0),
            ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(seed)
        };
        let mut pair = Pair::new(cfg, 1024, &updates);
        for _ in 0..4 {
            shape_tickets(&mut pair, &mut rng, Shape::Spread);
            pair.signal(Outcome::DeadlineMiss).unwrap();
        }
        stops.append(&mut pair.reference.stops);
        // Five uncapped items among 256, each capped by one stretch (cap
        // factor 1.1 = 1 + C_du), and a budget nothing meets.
        let cfg = UnitConfig {
            max_degradation_factor: 1.1,
            modulation_step_util: 1e9,
            access_ticket_scale: Some(1.0),
            ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(seed)
        };
        let mut pair = Pair::new(cfg, 256, &long_streams(256, 5));
        shape_tickets(&mut pair, &mut rng, Shape::Spread);
        pair.signal(Outcome::DeadlineMiss).unwrap();
        stops.append(&mut pair.reference.stops);
        // Every item streamed, far from its cap, and the same budget.
        let cfg = UnitConfig {
            max_degradation_factor: 64.0,
            modulation_step_util: 1e9,
            access_ticket_scale: Some(1.0),
            ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(seed)
        };
        let mut pair = Pair::new(cfg, 256, &long_streams(256, 256));
        shape_tickets(&mut pair, &mut rng, Shape::Spread);
        pair.signal(Outcome::DeadlineMiss).unwrap();
        stops.append(&mut pair.reference.stops);
    }
    let budget = stops
        .iter()
        .filter(|s| matches!(s, Stop::Budget(d) if *d > 1));
    let uncapped = stops
        .iter()
        .filter(|s| matches!(s, Stop::Uncapped(d) if *d > 5));
    assert!(
        budget.count() > 0,
        "no budget stop after the first draw: {stops:?}"
    );
    assert!(
        uncapped.count() > 0,
        "no last-uncapped stop past the fifth draw: {stops:?}"
    );
    assert!(
        stops.contains(&Stop::Cap),
        "no signal reached the cap: {stops:?}"
    );
}

/// A signal whose every draw lands on the capped mass: one uncapped item
/// with a sliver of the ticket mass, the rest streamless. All the capped
/// signal's draws are no-ops, and the stream still matches.
#[test]
fn signals_with_only_cold_draws_match_the_reference() {
    let n = 4096;
    let cfg = UnitConfig {
        victim_weighting: VictimWeighting::ClampZero,
        access_ticket_scale: Some(1.0),
        ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(17)
    };
    let mut pair = Pair::new(cfg, n, &long_streams(n, 1));
    // Updates slower than the only stream's raise the streamless tickets
    // by ≈ 1 each (the sigmoid is a step at zero dispersion).
    for item in 1..n {
        for _ in 0..20 {
            pair.commit(item, SimDuration::from_secs(20));
        }
    }
    let mut all_cold = 0;
    for _ in 0..6 {
        let draws = pair.policy.stats().degrade_draws;
        pair.signal(Outcome::DeadlineMiss).unwrap();
        assert_eq!(
            pair.policy.stats().degrade_draws - draws,
            DEGRADE_DRAWS_PER_SIGNAL as u64
        );
        if pair.last_obs.is_empty() {
            all_cold += 1;
        }
    }
    assert!(all_cold > 0, "every signal hit the uncapped item");
}

/// Equal tickets are upgraded in index order: the policy's integer keys
/// break ties exactly as the reference's sort does.
#[test]
fn upgrade_ties_are_visited_in_index_order() {
    let n = 512;
    let cfg = UnitConfig {
        victim_weighting: VictimWeighting::ClampZero,
        modulation_step_util: 1e9,
        upgrade_step_util: 0.002,
        access_ticket_scale: Some(1.0),
        ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(23)
    };
    // Every item streamed alike and never touched: all tickets stay at the
    // warm-start 0.5.
    let mut pair = Pair::new(cfg, n, &long_streams(n, n));
    for _ in 0..2 {
        pair.signal(Outcome::DeadlineMiss).unwrap();
    }
    for _ in 0..4 {
        pair.signal(Outcome::DataStale).unwrap();
        let items: Vec<u32> = pair.last_obs.iter().map(|m| m.item.0).collect();
        assert!(items.len() > 1, "an upgrade visited {} items", items.len());
        assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "tied tickets visited out of index order: {items:?}"
        );
    }
}
