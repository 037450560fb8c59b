//! Differential test of the degrade lottery: `UnitPolicy`'s bucket-indexed
//! draws against the loop they replaced — one Fenwick descent per draw
//! near an uncapped span, periods recomputed from scratch — kept below
//! verbatim as [`Reference`].
//!
//! Both sides start from the same trace and see the same ticket events and
//! control signals. After every signal the periods, the lottery RNG state,
//! `degrade_draws` and the `ModulationObs` records must be identical. With
//! `--features validate` the policy additionally asserts, draw by draw,
//! that every victim it resolves equals `WeightedSampler::locate` and that
//! every draw it skips lands on a capped item.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unit_core::config::{UnitConfig, VictimWeighting};
use unit_core::lottery::{VictimIndex, WeightedSampler};
use unit_core::modulation::UpgradeRule;
use unit_core::observe::ModulationObs;
use unit_core::policy::{ControlSignal, Policy};
use unit_core::snapshot::SystemSnapshot;
use unit_core::tickets::TicketTable;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, Outcome, QueryId, QuerySpec, UpdateSpec, UpdateStreamId};
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;

/// Table sizes: degenerate, around the bucket count's power-of-two steps,
/// and past the default draw cap.
const SIZES: [usize; 7] = [1, 2, 3, 1000, 1024, 1025, 4097];

/// The policy's lottery state, evolved by the pre-index degrade loop.
struct Reference {
    cfg: UnitConfig,
    tickets: TicketTable,
    ideal: Vec<SimDuration>,
    current: Vec<SimDuration>,
    util_share: Vec<f64>,
    rng: StdRng,
    degrade_draws: u64,
    obs: Vec<ModulationObs>,
    /// Where each degrade signal that ended early stopped.
    stops: Vec<Stop>,
}

/// Why a reference degrade signal ended before its draw cap, with the
/// number of draws it had made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The shed budget was met.
    Budget(usize),
    /// No uncapped item was left; the remaining draws were drained.
    Uncapped(usize),
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

    /// One `DegradeUpdates` signal, as the policy ran it before the index.
    fn degrade_batch(&mut self) {
        let mut weights = match self.cfg.victim_weighting {
            VictimWeighting::ShiftMin => self.tickets.shifted_weights(),
            VictimWeighting::ClampZero => self.tickets.clamped_weights(),
        };
        if self.cfg.lottery_sharpness != 1.0 {
            for w in &mut weights {
                *w = w.powf(self.cfg.lottery_sharpness);
            }
        }
        let sampler = WeightedSampler::from_weights(&weights);
        let total = sampler.total();
        if total <= 0.0 || !total.is_finite() {
            return;
        }
        let margin = total * 1e-6;
        let mut bounds: Vec<f64> = Vec::new();
        let mut uncapped = 0usize;
        let mut cum = 0.0_f64;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            let start = cum;
            cum += w;
            if !self.degrade_is_noop(i) {
                uncapped += 1;
                match bounds.last_mut() {
                    Some(end) if *end >= start - margin => *end = cum + margin,
                    _ => {
                        bounds.push(start - margin);
                        bounds.push(cum + margin);
                    }
                }
            }
        }
        let mut shed = 0.0;
        let mut remaining = self.cfg.degrade_victims_per_signal;
        while remaining > 0 {
            let drawn = self.cfg.degrade_victims_per_signal - remaining;
            if shed >= self.cfg.modulation_step_util {
                self.stops.push(Stop::Budget(drawn));
                break;
            }
            if uncapped == 0 {
                self.stops.push(Stop::Uncapped(drawn));
                for _ in 0..remaining {
                    let _ = self.rng.gen::<f64>();
                }
                self.degrade_draws += remaining as u64;
                break;
            }
            let target = self.rng.gen::<f64>() * total;
            if bounds.partition_point(|&b| b <= target) % 2 == 0 {
                self.degrade_draws += 1;
            } else {
                let victim = sampler.locate(target);
                if self.degrade_is_noop(victim) {
                    self.degrade_draws += 1;
                } else {
                    let before = self.survival_fraction(victim);
                    let old_period = self.current[victim];
                    self.current[victim] = self.degraded_period(victim);
                    let after = self.survival_fraction(victim);
                    shed += self.util_share[victim] * (before - after);
                    self.degrade_draws += 1;
                    self.obs.push(ModulationObs {
                        item: DataId(victim as u32),
                        ticket: self.tickets.raw(victim),
                        old_period,
                        new_period: self.current[victim],
                    });
                    if self.degrade_is_noop(victim) {
                        uncapped -= 1;
                    }
                }
            }
            remaining -= 1;
        }
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
/// a sequence of ticket events and signals.
fn scenario(n: usize, shape: Shape, seed: u64) -> Result<Pair, TestCaseError> {
    scenario_with(n, shape, seed, |_| {})
}

/// [`scenario`] with its generated configuration adjusted by `tweak`.
fn scenario_with(
    n: usize,
    shape: Shape,
    seed: u64,
    tweak: impl Fn(&mut UnitConfig),
) -> Result<Pair, TestCaseError> {
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
        lottery_sharpness: [1.0, 1.0, 0.5, 2.0, 3.7][rng.gen_range(0..5usize)],
        max_degradation_factor: [1.0, 1.5, 4.0, 64.0][rng.gen_range(0..4usize)],
        modulation_step_util: [1e-6, 0.05, 1e9][rng.gen_range(0..3usize)],
        upgrade_step_util: [1e-6, 0.005, 1e9][rng.gen_range(0..3usize)],
        degrade_victims_per_signal: [1, 64, 4096][rng.gen_range(0..3usize)],
        upgrade_rule: if rng.gen_bool(0.5) {
            UpgradeRule::Geometric
        } else {
            UpgradeRule::LinearIdealStep
        },
        access_ticket_scale: Some([0.5, 3.0][rng.gen_range(0..2usize)]),
        ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(rng.gen())
    };
    let mut cfg = cfg;
    tweak(&mut cfg);
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

    /// Every table size and shape, both weightings, sharpness ≠ 1, capped,
    /// uncapped and streamless items, budget stops and draw-cap stops:
    /// the indexed lottery decides exactly what the descent loop did.
    #[test]
    fn indexed_lottery_matches_the_descent_loop(
        size in 0..SIZES.len(),
        shape in 0..SHAPES.len(),
        seed in any::<u64>(),
    ) {
        scenario(SIZES[size], SHAPES[shape], seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The index alone against the sampler: the same total, bit for bit;
    /// every item it resolves is `locate`'s; every draw it skips lands on
    /// an item it was told is capped. Targets are random draws plus every
    /// span boundary and its float neighbours, where the exact descent
    /// must take over.
    #[test]
    fn index_agrees_with_the_sampler_draw_by_draw(
        size in 0..SIZES.len(),
        seed in any::<u64>(),
    ) {
        let n = SIZES[size];
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => 0.0,
                1 => 1.0,
                2 => rng.gen::<f64>() * 1e-9,
                _ => rng.gen::<f64>() * 10.0,
            })
            .collect();
        let capped: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
        let sampler = WeightedSampler::from_weights(&weights);
        let mut index = VictimIndex::default();
        let total = index.build(|w| w.extend_from_slice(&weights), |i| capped[i]);
        prop_assert_eq!(total.to_bits(), sampler.total().to_bits());
        prop_assume!(total > 0.0);
        let mut targets: Vec<f64> = (0..4096).map(|_| rng.gen::<f64>() * total).collect();
        let mut cum = 0.0_f64;
        for &w in weights.iter().filter(|&&w| w > 0.0) {
            cum += w;
            let bits = cum.to_bits();
            targets.extend([cum, f64::from_bits(bits - 1), f64::from_bits(bits + 1)]);
        }
        for target in targets.into_iter().filter(|t| (0.0..total).contains(t)) {
            let exact = sampler.locate(target);
            match index.resolve(target) {
                Some(item) => prop_assert_eq!(item, exact, "target {}", target),
                None => prop_assert!(capped[exact], "skipped target {} is on uncapped item {}", target, exact),
            }
        }
    }
}

/// A signal that runs out of uncapped items drains the rest of its draws in
/// bulk: every streamed item is capped at the ideal period (cap factor 1).
#[test]
fn signals_without_uncapped_items_drain_their_draws() {
    let mut rng = StdRng::seed_from_u64(7);
    let updates = streams(&mut rng, 1024);
    let cfg = UnitConfig {
        max_degradation_factor: 1.0,
        access_ticket_scale: Some(1.0),
        ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(3)
    };
    let mut pair = Pair::new(cfg, 1024, &updates);
    shape_tickets(&mut pair, &mut rng, Shape::Spread);
    pair.signal(Outcome::DeadlineMiss).unwrap();
    assert_eq!(pair.policy.stats().degrade_draws, 4096);
    assert_eq!(pair.policy.victim_counters().hot, 0);
}

/// The index resolves ≥ 99 % of the draws that land near an uncapped span
/// without the Fenwick descent. A silent fallback would change no decision,
/// so no digest would notice it; this counts.
#[test]
fn fast_path_settles_nearly_all_hot_draws() {
    let pair = scenario(1024, Shape::Spread, 0x5eed).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let updates = streams(&mut rng, 1024);
    let cfg = UnitConfig {
        max_degradation_factor: 64.0,
        modulation_step_util: 1e9,
        access_ticket_scale: Some(1.0),
        ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(5)
    };
    let mut busy = Pair::new(cfg, 1024, &updates);
    for _ in 0..8 {
        shape_tickets(&mut busy, &mut rng, Shape::Spread);
        busy.signal(Outcome::DeadlineMiss).unwrap();
    }
    for counters in [pair.policy.victim_counters(), busy.policy.victim_counters()] {
        assert!(
            counters.fallbacks * 100 <= counters.hot,
            "{} of {} hot draws fell back to the descent",
            counters.fallbacks,
            counters.hot
        );
    }
    assert!(busy.policy.victim_counters().hot > 1_000);
}

/// At 131 072 items the margin argument has the least headroom it gets in
/// this suite; with `--features validate` every draw is checked against
/// the exact descent as well.
#[test]
fn large_tables_match_the_descent_loop() {
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

/// Draws per lottery block (`unit_core::lottery::BLOCK`).
const BLOCK: usize = unit_core::lottery::BLOCK;

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

/// Signals that end partway through a draw block — on the shed budget, and
/// on the last uncapped item — leave the generator, `degrade_draws` and the
/// periods exactly where the descent loop left them.
#[test]
fn signals_stop_in_the_middle_of_a_block() {
    let mut budget = Vec::new();
    let mut uncapped = Vec::new();
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
        budget.extend(pair.reference.stops.iter().filter_map(|s| match *s {
            Stop::Budget(drawn) => Some(drawn),
            Stop::Uncapped(_) => None,
        }));
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
        uncapped.extend(pair.reference.stops.iter().filter_map(|s| match *s {
            Stop::Uncapped(drawn) => Some(drawn),
            Stop::Budget(_) => None,
        }));
        assert_eq!(
            pair.policy.stats().degrade_draws,
            4096,
            "the drain spends the cap"
        );
    }
    assert!(
        budget.iter().any(|d| d % BLOCK != 0),
        "no budget stop inside a block: {budget:?}"
    );
    assert!(
        uncapped.iter().any(|d| d % BLOCK != 0),
        "no last-uncapped stop inside a block: {uncapped:?}"
    );
}

/// A signal whose every draw lands in a cold bucket: one uncapped item
/// with a sliver of the ticket mass, the rest streamless. All 4096 draws
/// go through the blocks, none is resolved, and the stream still matches.
#[test]
fn signals_with_only_cold_draws_match_the_descent_loop() {
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
        let (hot, draws) = (
            pair.policy.victim_counters().hot,
            pair.policy.stats().degrade_draws,
        );
        pair.signal(Outcome::DeadlineMiss).unwrap();
        assert_eq!(pair.policy.stats().degrade_draws - draws, 4096);
        if pair.policy.victim_counters().hot == hot {
            all_cold += 1;
        }
    }
    assert!(all_cold > 0, "every signal resolved a draw");
}

/// Draw caps around the block size and past the default cap: one draw,
/// a block less one, one block, a block and one, and 4097.
#[test]
fn every_draw_cap_matches_the_descent_loop() {
    for cap in [1, 63, 64, 65, 4097] {
        for (seed, &shape) in (0..).zip(&SHAPES) {
            scenario_with(1024, shape, seed, |cfg| {
                cfg.degrade_victims_per_signal = cap;
            })
            .unwrap();
        }
    }
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
