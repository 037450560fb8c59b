//! The UNIT policy: the paper's contribution, assembled (§3, Figure 1).
//!
//! `UnitPolicy` wires the four mechanisms of the framework behind the
//! [`Policy`] interface:
//!
//! * the **USM window** and **Load Balancing Controller** ([`Lbc`]) watch
//!   query outcomes and emit control signals,
//! * **Query Admission Control** ([`AdmissionControl`]) gates arrivals with
//!   the deadline and system-USM checks, its tightness steered by TAC/LAC,
//! * **Update Frequency Modulation** ([`UpdateModulation`]) decides which
//!   arriving versions are applied, its periods steered by Degrade/Upgrade,
//! * the **ticket table + lottery** ([`TicketTable`], [`VictimIndex`])
//!   choose degradation victims proportionally to how unprofitable an item's
//!   updates currently are.
//!
//! Control activations happen on the periodic `on_tick` hook: the LBC's
//! grace-period and USM-drop triggers are evaluated there, so a fine tick
//! (1 simulated second by default in the simulator) realizes the paper's
//! "periodically or when the USM drops" rule at tick granularity.

use crate::admission::{AdmissionControl, AdmissionVerdict};
use crate::config::{UnitConfig, VictimWeighting};
use crate::controller::Lbc;
use crate::lottery::{VictimCounters, VictimIndex, BLOCK};
use crate::modulation::UpdateModulation;
use crate::observe::{AdmissionObs, ControllerObs, ModulationObs};
use crate::policy::{AdmissionDecision, ControlSignal, Policy, UpdateAction};
use crate::snapshot::SnapshotView;
use crate::tickets::TicketTable;
use crate::time::{SimDuration, SimTime};
use crate::types::{DataId, ItemVec, Outcome, QuerySpec, UpdateSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How many (cost-normalized) query accesses per update an item needs for
/// its ticket to stay negative, i.e. protected from degradation (DESIGN §12
/// deviation 8). One 96-second update blocks the CPU for roughly two query
/// deadlines, so an access and an update are *not* equal-value: protecting
/// an item only pays off when its access traffic outweighs the collateral
/// cost of its update stream. The auto-normalizing access decrement is
/// `0.5 · (qe/qt) / avg(qe/qt) / ACCESS_UPDATE_BALANCE`.
pub const ACCESS_UPDATE_BALANCE: f64 = 3.0;

/// Counters exposed for instrumentation and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitPolicyStats {
    /// Queries rejected by the deadline (promising-transaction) check.
    pub rejected_not_promising: u64,
    /// Queries rejected by the system-USM (endangerment) check.
    pub rejected_endangering: u64,
    /// Versions skipped by update-frequency modulation.
    pub versions_skipped: u64,
    /// Versions applied.
    pub versions_applied: u64,
    /// Total degrade lottery draws performed.
    pub degrade_draws: u64,
    /// Total `UpgradeUpdates` signals handled.
    pub upgrade_signals: u64,
}

/// The UNIT transaction-management policy (§3).
#[derive(Clone)]
pub struct UnitPolicy {
    cfg: UnitConfig,
    ac: AdmissionControl,
    tickets: TicketTable,
    modulation: UpdateModulation,
    lbc: Lbc,
    rng: StdRng,
    stats: UnitPolicyStats,
    /// Running sum/count of observed `qe/qt` for auto-normalizing Eq. 6's
    /// access decrement (see `UnitConfig::access_ticket_scale`).
    cpu_share_sum: f64,
    cpu_share_count: u64,
    /// Ideal per-item update utilization shares `ue_j / pi_j` (budgeting).
    util_share: ItemVec<f64>,
    /// True while an observer is installed on the driving server. Gates the
    /// observation buffers below; never influences decisions.
    observed: bool,
    /// Verdict behind the latest arrival decision (observation only).
    last_admission: Option<AdmissionObs>,
    /// Modulation boundaries crossed since the last drain (observation only).
    modulation_obs: Vec<ModulationObs>,
    /// The degrade lottery's per-signal draw index: rebuilt by every
    /// `DegradeUpdates` signal, so scratch rather than checkpointed state.
    victims: VictimIndex,
    /// `upgrade_batch`'s key buffer: scratch, refilled by every
    /// `UpgradeUpdates` signal.
    upgrade_keys: Vec<Reverse<u128>>,
}

impl UnitPolicy {
    /// Build a policy from a validated configuration.
    ///
    /// # Panics
    /// Panics if `cfg.validate()` fails.
    #[expect(
        clippy::panic,
        reason = "documented constructor contract, caught at config time"
    )]
    pub fn new(cfg: UnitConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid UnitConfig: {e}");
        }
        UnitPolicy {
            ac: AdmissionControl::new(cfg.c_flex_step),
            tickets: TicketTable::new(0, cfg.c_forget, 1.0),
            modulation: UpdateModulation::new(Vec::new(), cfg.c_du, cfg.c_uu),
            lbc: Lbc::new(cfg.weights, cfg.grace_period, cfg.seed ^ 0x1bc),
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: UnitPolicyStats::default(),
            cpu_share_sum: 0.0,
            cpu_share_count: 0,
            util_share: ItemVec::default(),
            observed: false,
            last_admission: None,
            modulation_obs: Vec::new(),
            victims: VictimIndex::default(),
            upgrade_keys: Vec::new(),
            cfg,
        }
    }

    /// Eq. 6 decrement for one access with CPU share `qe/qt`, after the
    /// configured scaling (auto-normalized against
    /// [`ACCESS_UPDATE_BALANCE`] when `access_ticket_scale` is `None`).
    fn access_decrement(&self, cpu_share: f64) -> f64 {
        match self.cfg.access_ticket_scale {
            Some(scale) => cpu_share * scale,
            None => {
                let base = 0.5 / ACCESS_UPDATE_BALANCE;
                if self.cpu_share_count == 0 {
                    return base;
                }
                let avg = self.cpu_share_sum / self.cpu_share_count as f64;
                if avg <= 0.0 {
                    base
                } else {
                    base * cpu_share / avg
                }
            }
        }
    }

    /// Convenience constructor: defaults with the given weights.
    pub fn with_weights(weights: crate::usm::UsmWeights) -> Self {
        UnitPolicy::new(UnitConfig::with_weights(weights))
    }

    /// The configuration this policy was built with.
    pub fn config(&self) -> &UnitConfig {
        &self.cfg
    }

    /// Current admission lag ratio `C_flex`.
    pub fn c_flex(&self) -> f64 {
        self.ac.c_flex()
    }

    /// Number of items whose update period is currently degraded.
    pub fn degraded_count(&self) -> usize {
        self.modulation.degraded_count()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> UnitPolicyStats {
        self.stats
    }

    /// Number of LBC activations so far.
    pub fn lbc_activations(&self) -> u64 {
        self.lbc.activations()
    }

    /// Raw ticket value of an item (diagnostics).
    pub fn ticket(&self, item: DataId) -> f64 {
        self.tickets.raw(item.index())
    }

    /// The lottery RNG's state words (diagnostics): two policies that
    /// consumed the same draws report the same state.
    pub fn lottery_rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// How the degrade lottery settled its draws so far (diagnostics: the
    /// counts never influence a decision and are not checkpointed).
    pub fn victim_counters(&self) -> VictimCounters {
        self.victims.counters()
    }

    fn apply_signal(&mut self, signal: ControlSignal) {
        #[cfg(feature = "validate")]
        let ticket_bits = self.tickets.ticket_sum().to_bits();
        match signal {
            ControlSignal::LoosenAdmission => self.ac.loosen(),
            ControlSignal::TightenAdmission => self.ac.tighten(),
            ControlSignal::DegradeUpdates => self.degrade_batch(),
            ControlSignal::UpgradeUpdates => {
                self.upgrade_batch();
                self.stats.upgrade_signals += 1;
            }
        }
        crate::validate_check!("ticket-conservation", {
            let after = self.tickets.ticket_sum().to_bits();
            if after == ticket_bits {
                Ok(())
            } else {
                Err(format!(
                    "{signal:?} changed the ticket sum: {:e} -> {:e}",
                    f64::from_bits(ticket_bits),
                    f64::from_bits(after)
                ))
            }
        });
        crate::validate_check!("period-bounds", self.modulation.check_period_bounds());
        crate::validate_check!("modulation-derived", self.modulation.check_derived());
    }

    /// One `UpgradeUpdates` signal: walk degraded items back toward their
    /// ideal periods in order of *query value* (lowest ticket first — the
    /// mirror image of degrade-by-highest-ticket), until the signal has
    /// restored `upgrade_step_util` of expected CPU. Staleness harm lives
    /// on the query-valuable items, so they are the ones a Data-Stale-
    /// dominated window should refresh; never-queried items keep their
    /// accumulated shedding.
    fn upgrade_batch(&mut self) {
        let budget = self.cfg.upgrade_step_util;
        // Ascending ticket = most query-valuable first; ties by index keep
        // the order deterministic. Each candidate is one integer key (see
        // `upgrade_key`), and a lazily-popped min-heap over the keys visits
        // items in exactly that order: O(N_degraded) heapify, then
        // O(log N) per item visited. The budget stops after about a seventh
        // of the degraded items (119 pops of ≈ 839 per signal on the paper
        // traces). The key buffer is reused across signals.
        let mut keys = std::mem::take(&mut self.upgrade_keys);
        keys.clear();
        keys.extend(
            self.modulation
                .degraded()
                .map(|d| Reverse(upgrade_key(self.tickets.raw(d.index()), d))),
        );
        let mut heap = BinaryHeap::from(keys);
        let mut restored = 0.0;
        while restored < budget {
            let Some(Reverse(key)) = heap.pop() else {
                break;
            };
            let d = DataId(key as u32);
            let before = self.modulation.survival_fraction(d);
            let old_period = self.observed.then(|| self.modulation.current_period(d));
            if self.modulation.upgrade_one(d) {
                let after = self.modulation.survival_fraction(d);
                restored += *self.util_share.at(d) * (after - before);
                if let Some(old_period) = old_period {
                    self.modulation_obs.push(ModulationObs {
                        item: d,
                        ticket: self.tickets.raw(d.index()),
                        old_period,
                        new_period: self.modulation.current_period(d),
                    });
                }
            }
        }
        self.upgrade_keys = heap.into_vec();
    }

    /// One `DegradeUpdates` signal: draw lottery victims (with replacement —
    /// repeats compound the 10% stretch) and stretch each one's period,
    /// until the signal has shed `modulation_step_util` of expected CPU or
    /// the draw cap is hit.
    ///
    /// Only draws that land on an item below its degradation cap change
    /// anything; the rest advance the RNG stream and the draw counter. The
    /// [`VictimIndex`] draws [`BLOCK`] at a time and marks, without a
    /// branch, the few that land near an uncapped item; only those are
    /// resolved, in draw order, to exactly the item `WeightedSampler::locate`
    /// would pick. When a hot draw ends the signal (budget met, or no
    /// uncapped item left) partway through a block, the RNG is rewound to
    /// the block's start and advanced past that draw alone, so victims, RNG
    /// consumption and `degrade_draws` are those of one descent per draw.
    fn degrade_batch(&mut self) {
        let total = self.victims.build(
            |weights| match self.cfg.victim_weighting {
                VictimWeighting::ShiftMin => self.tickets.shifted_weights_into(weights),
                VictimWeighting::ClampZero => self.tickets.clamped_weights_into(weights),
            },
            |i| self.modulation.degrade_is_noop(DataId(i as u32)),
        );
        crate::validate_check!("lottery-sampler", self.victims.check_sampler());
        if total <= 0.0 || !total.is_finite() {
            return; // all tickets equal: sample() would yield None unconsumed
        }
        let budget = self.cfg.modulation_step_util;
        let mut uncapped = self.victims.uncapped();
        let mut shed = 0.0;
        let mut remaining = self.cfg.degrade_victims_per_signal;
        let mut draws = [0; BLOCK];
        while remaining > 0 && shed < budget {
            if uncapped == 0 {
                // Every further draw picks a positive-weight (hence capped)
                // victim: no shed, no modulation change. Consume the same
                // number of RNG values and stop.
                for _ in 0..remaining {
                    let _ = self.rng.gen::<f64>();
                }
                self.stats.degrade_draws += remaining as u64;
                break;
            }
            let block = draws.get_mut(..remaining.min(BLOCK)).unwrap_or_default();
            let block_start = self.rng.clone();
            let mut hot = self.victims.draw_block(&mut self.rng, block);
            crate::validate_check!(
                "lottery-fast-path",
                (0..)
                    .zip(block.iter())
                    .filter(|(k, _)| hot >> k & 1 == 0)
                    .try_for_each(|(_, &draw)| {
                        let target = self.victims.target(draw);
                        let exact = self.victims.locate(target);
                        if self.modulation.degrade_is_noop(DataId(exact as u32)) {
                            Ok(())
                        } else {
                            Err(format!(
                                "draw {target:e}: cold bucket, but item {exact} is uncapped"
                            ))
                        }
                    })
            );
            let mut drawn = block.len();
            while hot != 0 {
                let k = hot.trailing_zeros() as usize;
                hot &= hot - 1;
                let Some(&draw) = block.get(k) else {
                    break; // the mask has no bit past the block
                };
                let victim = self.victims.resolve_draw(draw);
                crate::validate_check!("lottery-fast-path", {
                    let target = self.victims.target(draw);
                    let exact = self.victims.locate(target);
                    if victim == exact {
                        Ok(())
                    } else {
                        Err(format!(
                            "draw {target:e}: index chose item {victim}, the descent item {exact}"
                        ))
                    }
                });
                let d = DataId(victim as u32);
                let old_period = self.observed.then(|| self.modulation.current_period(d));
                // `None`: capped at build time or earlier in this signal.
                let Some(step) = self.modulation.degrade_step(d) else {
                    continue;
                };
                shed += *self.util_share.at(d) * (step.before - step.after);
                if let Some(old_period) = old_period {
                    self.modulation_obs.push(ModulationObs {
                        item: d,
                        ticket: self.tickets.raw(victim),
                        old_period,
                        new_period: self.modulation.current_period(d),
                    });
                }
                if step.now_capped {
                    uncapped -= 1;
                }
                if shed >= budget || uncapped == 0 {
                    // The signal stops after draw `k`: keep only the draws
                    // up to it on the RNG stream.
                    drawn = k + 1;
                    self.rng = block_start;
                    for _ in 0..drawn {
                        let _ = self.rng.gen::<f64>();
                    }
                    break;
                }
            }
            self.stats.degrade_draws += drawn as u64;
            remaining -= drawn;
        }
    }
}

/// `upgrade_batch`'s visiting key for an item with ticket `ticket`: the
/// ticket's bits mapped so that unsigned order is float order (negative
/// values flipped, positive ones offset past them), above the item index.
/// Ascending keys are ascending (ticket, index), the order `partial_cmp`
/// then index gives for any non-NaN tickets; adding `0.0` first makes
/// `-0.0` and `0.0` tie, as they do under `partial_cmp`.
fn upgrade_key(ticket: f64, item: DataId) -> u128 {
    let bits = (ticket + 0.0).to_bits();
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    u128::from(ordered) << 32 | u128::from(item.0)
}

impl Policy for UnitPolicy {
    fn name(&self) -> &str {
        "UNIT"
    }

    fn init(&mut self, n_items: usize, updates: &[UpdateSpec]) {
        let (ue_avg, ue_std) = if updates.is_empty() {
            (1.0, 1.0)
        } else {
            let n = updates.len() as f64;
            let avg = updates
                .iter()
                .map(|u| u.exec_time.as_secs_f64())
                .sum::<f64>()
                / n;
            let var = updates
                .iter()
                .map(|u| {
                    let d = u.exec_time.as_secs_f64() - avg;
                    d * d
                })
                .sum::<f64>()
                / n;
            (avg, var.sqrt().max(1e-9))
        };
        // Normalize Eq. 7's sigmoid by the dispersion of update execution
        // times so it stays informative at any time scale.
        self.tickets = TicketTable::with_scale(n_items, self.cfg.c_forget, ue_avg, ue_std);
        // Warm start: seed every item that has an update stream with one
        // average update's worth of ticket, so early Degrade signals can
        // already discriminate before the first per-item commit is observed
        // (update periods can exceed the controller's whole warm-up window).
        for u in updates {
            self.tickets.seed(u.item.index(), 0.5);
        }

        // Ideal period per item: the fastest stream updating it (streams are
        // normally one-per-item); items without a stream get MAX and are
        // transparent to modulation.
        let mut ideal = ItemVec::new(n_items, SimDuration::MAX);
        for u in updates {
            let slot = ideal.at_mut(u.item);
            if u.period < *slot {
                *slot = u.period;
            }
        }
        // Total exec over each item's streams per ideal period, summed in
        // stream order; items without a usable ideal period carry none.
        let mut util_share = ItemVec::new(n_items, 0.0);
        for u in updates {
            *util_share.at_mut(u.item) += u.exec_time.as_secs_f64() / u.period.as_secs_f64();
        }
        for (share, &pi) in util_share.values_mut().zip(ideal.values()) {
            if pi == SimDuration::MAX || pi.is_zero() {
                *share = 0.0;
            }
        }
        self.util_share = util_share;
        self.modulation = UpdateModulation::with_rule(
            ideal.into_vec(),
            self.cfg.c_du,
            self.cfg.c_uu,
            self.cfg.max_degradation_factor,
            self.cfg.upgrade_rule,
        );
    }

    fn on_query_arrival(&mut self, q: &QuerySpec, sys: &SnapshotView<'_>) -> AdmissionDecision {
        if !self.cfg.admission_enabled {
            self.last_admission = None;
            return AdmissionDecision::Admit;
        }
        let verdict = self.ac.evaluate(q, sys, &self.cfg.weights);
        match verdict {
            AdmissionVerdict::NotPromising { .. } => self.stats.rejected_not_promising += 1,
            AdmissionVerdict::EndangersSystem { .. } => self.stats.rejected_endangering += 1,
            AdmissionVerdict::Admitted => {}
        }
        if self.observed {
            self.last_admission = Some(AdmissionObs {
                c_flex: self.ac.c_flex(),
                verdict,
            });
        }
        verdict.decision()
    }

    fn on_version_arrival(
        &mut self,
        item: DataId,
        now: SimTime,
        _sys: &SnapshotView<'_>,
    ) -> UpdateAction {
        if self.modulation.should_apply(item, now) {
            self.stats.versions_applied += 1;
            UpdateAction::Apply
        } else {
            self.stats.versions_skipped += 1;
            UpdateAction::Skip
        }
    }

    fn on_query_dispatch(&mut self, q: &QuerySpec, _freshness: f64) {
        // Query effect on tickets (Eq. 6): each accessed item's ticket drops
        // by the query's CPU-utilization share (normalized so the average
        // access balances the average update — see UnitConfig).
        let share = q.exec_time.ratio(q.relative_deadline);
        self.cpu_share_sum += share;
        self.cpu_share_count += 1;
        let decrement = self.access_decrement(share);
        for &d in &q.items {
            self.tickets.on_query_access(d.index(), decrement);
        }
    }

    fn on_update_commit(&mut self, item: DataId, exec_time: SimDuration) {
        // Update effect on tickets (Eq. 7): executed updates raise the
        // item's victim odds, weighted by how expensive they are.
        self.tickets
            .on_update(item.index(), exec_time.as_secs_f64());
    }

    fn on_query_outcome(&mut self, _q: &QuerySpec, outcome: Outcome) {
        self.lbc.record(outcome);
    }

    fn on_tick(&mut self, now: SimTime, sys: &SnapshotView<'_>) -> Vec<ControlSignal> {
        let mut signals = self.lbc.maybe_activate(now, sys.recent_utilization);
        // Rejection-dominated windows normally just loosen admission, but
        // when C_flex already sits at its floor the LAC is a no-op: the
        // rejections are structural — queries are being turned away because
        // update work is queued ahead of their deadlines — so shed update
        // load as well. (Companion to the LBC's saturated-rejection case;
        // documented in DESIGN.md.)
        if signals.contains(&ControlSignal::LoosenAdmission)
            && !signals.contains(&ControlSignal::DegradeUpdates)
            && self.ac.at_floor()
        {
            signals.push(ControlSignal::DegradeUpdates);
        }
        for &s in &signals {
            self.apply_signal(s);
        }
        signals
    }

    /// Serialize every decision-affecting mutable field: admission knob,
    /// tickets, modulation periods/credit, LBC window + RNG, lottery RNG,
    /// stats, and the access-share normalizer. Observation buffers
    /// (`last_admission`, `modulation_obs`) are transient and skipped;
    /// `util_share` is rebuilt by [`Policy::init`] before restore.
    fn checkpoint_state(&self, enc: &mut crate::checkpoint::Enc) {
        self.ac.checkpoint_into(enc);
        self.tickets.checkpoint_into(enc);
        self.modulation.checkpoint_into(enc);
        self.lbc.checkpoint_into(enc);
        for w in self.rng.state() {
            enc.put_u64(w);
        }
        enc.put_u64(self.stats.rejected_not_promising);
        enc.put_u64(self.stats.rejected_endangering);
        enc.put_u64(self.stats.versions_skipped);
        enc.put_u64(self.stats.versions_applied);
        enc.put_u64(self.stats.degrade_draws);
        enc.put_u64(self.stats.upgrade_signals);
        enc.put_f64(self.cpu_share_sum);
        enc.put_u64(self.cpu_share_count);
    }

    fn restore_state(
        &mut self,
        dec: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        self.ac.restore_from(dec)?;
        self.tickets.restore_from(dec)?;
        self.modulation.restore_from(dec)?;
        self.lbc.restore_from(dec)?;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = dec.take_u64()?;
        }
        self.rng = StdRng::from_state(s);
        self.stats.rejected_not_promising = dec.take_u64()?;
        self.stats.rejected_endangering = dec.take_u64()?;
        self.stats.versions_skipped = dec.take_u64()?;
        self.stats.versions_applied = dec.take_u64()?;
        self.stats.degrade_draws = dec.take_u64()?;
        self.stats.upgrade_signals = dec.take_u64()?;
        self.cpu_share_sum = dec.take_f64()?;
        self.cpu_share_count = dec.take_u64()?;
        Ok(())
    }

    /// O(1): a tick is a no-op exactly when the LBC will not activate, and
    /// until an outcome lands only the grace timer can change that — so the
    /// LBC's [`Lbc::idle_until`] bound is exact. UNIT schedules no
    /// time-triggered refreshes.
    fn tick_idle_until(&self) -> SimTime {
        self.lbc.idle_until()
    }

    fn current_period(&self, item: DataId) -> Option<SimDuration> {
        Some(self.modulation.current_period(item))
    }

    /// O(1): flips the observation flag and clears stale buffers.
    fn set_observed(&mut self, observed: bool) {
        self.observed = observed;
        if !observed {
            self.last_admission = None;
            self.modulation_obs.clear();
        }
    }

    /// O(1): the buffered verdict behind the latest arrival decision.
    fn last_admission(&self) -> Option<AdmissionObs> {
        self.last_admission
    }

    /// O(N_d) for the ticket-mass sum; called at tick frequency only.
    fn controller_obs(&self) -> Option<ControllerObs> {
        Some(ControllerObs {
            c_flex: self.ac.c_flex(),
            degraded_items: self.modulation.degraded_count(),
            ticket_sum: self.tickets.ticket_sum(),
        })
    }

    /// O(n) in the drained records; O(1) when observation is off.
    fn drain_modulation_obs(&mut self) -> Vec<ModulationObs> {
        std::mem::take(&mut self.modulation_obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SystemSnapshot;
    use crate::types::{QueryId, UpdateStreamId};
    use crate::usm::UsmWeights;

    fn update_spec(id: u32, item: u32, period_s: u64, exec_s: u64) -> UpdateSpec {
        UpdateSpec {
            id: UpdateStreamId(id),
            item: DataId(item),
            period: SimDuration::from_secs(period_s),
            exec_time: SimDuration::from_secs(exec_s),
            first_arrival: SimTime::ZERO,
        }
    }

    fn query_spec(id: u64, items: &[u32], exec_s: u64, deadline_s: u64) -> QuerySpec {
        QuerySpec {
            id: QueryId(id),
            arrival: SimTime::ZERO,
            items: items.iter().map(|&i| DataId(i)).collect(),
            exec_time: SimDuration::from_secs(exec_s),
            relative_deadline: SimDuration::from_secs(deadline_s),
            freshness_req: 0.9,
            pref_class: 0,
        }
    }

    fn initialized_policy() -> UnitPolicy {
        let mut p = UnitPolicy::new(UnitConfig::default().with_seed(42));
        p.init(
            4,
            &[
                update_spec(0, 0, 10, 1),
                update_spec(1, 1, 20, 1),
                update_spec(2, 2, 30, 3),
            ],
        );
        p
    }

    #[test]
    fn feasible_queries_are_admitted_on_an_idle_server() {
        let mut p = initialized_policy();
        let sys = SystemSnapshot::empty(SimTime::ZERO);
        let d = p.on_query_arrival(&query_spec(1, &[0], 2, 30), &sys.view());
        assert_eq!(d, AdmissionDecision::Admit);
        assert_eq!(p.stats().rejected_not_promising, 0);
    }

    #[test]
    fn hopeless_queries_are_rejected() {
        let mut p = initialized_policy();
        let sys = SystemSnapshot::empty(SimTime::ZERO);
        let d = p.on_query_arrival(&query_spec(1, &[0], 30, 2), &sys.view());
        assert_eq!(d, AdmissionDecision::Reject);
        assert_eq!(p.stats().rejected_not_promising, 1);
    }

    #[test]
    fn undegraded_versions_are_applied_at_source_rate() {
        let mut p = initialized_policy();
        let sys = SystemSnapshot::empty(SimTime::ZERO);
        for k in 0..5u64 {
            let a = p.on_version_arrival(DataId(0), SimTime::from_secs(k * 10), &sys.view());
            assert_eq!(a, UpdateAction::Apply, "version {k} must be applied");
        }
        assert_eq!(p.stats().versions_applied, 5);
        assert_eq!(p.stats().versions_skipped, 0);
    }

    #[test]
    fn degrade_signals_cause_version_skipping() {
        let mut p = initialized_policy();
        let sys = SystemSnapshot::empty(SimTime::ZERO);

        // Make item 2 the obvious victim: many expensive updates, no queries.
        for _ in 0..50 {
            p.on_update_commit(DataId(2), SimDuration::from_secs(3));
        }
        // And make items 0, 1 query-valuable.
        for _ in 0..50 {
            p.on_query_dispatch(&query_spec(1, &[0, 1], 2, 10), 1.0);
        }

        // Drive degrade signals directly.
        for _ in 0..10 {
            p.apply_signal(ControlSignal::DegradeUpdates);
        }
        assert!(p.degraded_count() >= 1);
        assert!(
            p.current_period(DataId(2)).unwrap() > SimDuration::from_secs(30),
            "victim item 2 should be degraded, period = {:?}",
            p.current_period(DataId(2))
        );
        // Its versions are now subsampled.
        let mut applied = 0;
        for k in 0..100u64 {
            if p.on_version_arrival(DataId(2), SimTime::from_secs(k * 30), &sys.view())
                .is_apply()
            {
                applied += 1;
            }
        }
        assert!(applied < 100, "degraded stream must shed some versions");
        // Upgrades walk the period back to ideal.
        for _ in 0..200 {
            p.apply_signal(ControlSignal::UpgradeUpdates);
        }
        assert_eq!(
            p.current_period(DataId(2)),
            Some(SimDuration::from_secs(30))
        );
        assert_eq!(p.degraded_count(), 0);
    }

    #[test]
    fn admission_signals_move_c_flex() {
        let mut p = initialized_policy();
        let before = p.c_flex();
        p.apply_signal(ControlSignal::TightenAdmission);
        assert!(p.c_flex() > before);
        p.apply_signal(ControlSignal::LoosenAdmission);
        p.apply_signal(ControlSignal::LoosenAdmission);
        assert!(p.c_flex() < before);
    }

    #[test]
    fn tick_after_grace_period_activates_lbc() {
        let mut p = initialized_policy();
        let sys = SystemSnapshot::empty(SimTime::ZERO);
        // Feed a DSF-dominated window.
        for _ in 0..30 {
            p.on_query_outcome(&query_spec(1, &[0], 1, 10), Outcome::DataStale);
        }
        for _ in 0..70 {
            p.on_query_outcome(&query_spec(1, &[0], 1, 10), Outcome::Success);
        }
        // Before the grace period: no activation.
        assert!(p.on_tick(SimTime::from_secs(1), &sys.view()).is_empty());
        // After: DSF dominates -> UpgradeUpdates.
        let signals = p.on_tick(SimTime::from_secs(60), &sys.view());
        assert_eq!(signals, vec![ControlSignal::UpgradeUpdates]);
        assert_eq!(p.lbc_activations(), 1);
    }

    #[test]
    fn policy_name_and_periods_are_exposed() {
        let p = initialized_policy();
        assert_eq!(p.name(), "UNIT");
        assert_eq!(
            p.current_period(DataId(0)),
            Some(SimDuration::from_secs(10))
        );
        // Item 3 has no stream.
        assert_eq!(p.current_period(DataId(3)), Some(SimDuration::MAX));
    }

    #[test]
    fn with_weights_builder_sets_preferences() {
        let p = UnitPolicy::with_weights(UsmWeights::high_high_cfm());
        assert_eq!(p.config().weights, UsmWeights::high_high_cfm());
    }

    #[test]
    fn observation_hooks_buffer_only_when_observed() {
        let sys = SystemSnapshot::empty(SimTime::ZERO);

        // Unobserved: nothing is buffered.
        let mut quiet = initialized_policy();
        let _ = quiet.on_query_arrival(&query_spec(1, &[0], 30, 2), &sys.view());
        assert_eq!(quiet.last_admission(), None);
        for _ in 0..10 {
            quiet.apply_signal(ControlSignal::DegradeUpdates);
        }
        assert!(quiet.drain_modulation_obs().is_empty());

        // Observed: the same call sequence exposes its derived records.
        let mut p = initialized_policy();
        p.set_observed(true);
        let _ = p.on_query_arrival(&query_spec(1, &[0], 30, 2), &sys.view());
        let obs = p.last_admission().expect("verdict must be buffered");
        assert!(matches!(obs.verdict, AdmissionVerdict::NotPromising { .. }));
        assert!(obs.c_flex > 0.0);
        for _ in 0..10 {
            p.apply_signal(ControlSignal::DegradeUpdates);
        }
        let boundaries = p.drain_modulation_obs();
        assert!(!boundaries.is_empty(), "degrades must log boundaries");
        assert!(boundaries.iter().all(|m| m.new_period > m.old_period));
        assert!(
            p.drain_modulation_obs().is_empty(),
            "drain empties the buffer"
        );

        let ctl = p.controller_obs().expect("UNIT exposes controller state");
        assert!(ctl.degraded_items >= 1);
        assert!(ctl.ticket_sum.is_finite());

        // Observation never changed decisions: stats paths are identical.
        assert_eq!(p.stats(), quiet.stats());

        // Turning observation off clears the buffers.
        p.set_observed(false);
        assert_eq!(p.last_admission(), None);
    }

    #[test]
    fn upgrade_keys_order_like_partial_cmp_then_index() {
        let tickets = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1e300,
            f64::INFINITY,
        ];
        let items: Vec<(f64, DataId)> = (0..3u32)
            .flat_map(|i| tickets.iter().map(move |&t| (t, DataId(i))))
            .collect();
        for &(ta, a) in &items {
            for &(tb, b) in &items {
                let expected = ta
                    .partial_cmp(&tb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b));
                assert_eq!(
                    upgrade_key(ta, a).cmp(&upgrade_key(tb, b)),
                    expected,
                    "({ta}, {a:?}) vs ({tb}, {b:?})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid UnitConfig")]
    fn invalid_config_panics_at_construction() {
        let cfg = UnitConfig {
            c_forget: 2.0,
            ..UnitConfig::default()
        };
        let _ = UnitPolicy::new(cfg);
    }
}
