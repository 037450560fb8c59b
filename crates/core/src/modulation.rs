//! Update Frequency Modulation (§3.4): degrade and upgrade update periods.
//!
//! Each item `d_j` has an *ideal* period `pi_j` (the source rate from the
//! trace) and a *current* period `pc_j ≥ pi_j` the server actually applies
//! updates at. Degrading stretches a victim's period multiplicatively
//! (Eq. 9); upgrading walks every degraded period back toward ideal
//! (Eq. 10):
//!
//! ```text
//! degrade:  pc_j ← min(cap·pi_j, pc_j · (1 + C_du))     C_du = 0.1
//! upgrade:  pc_j ← max(pi_j, pc_j − C_uu·pi_j)          C_uu = 0.5   (linear)
//!       or  pc_j ← max(pi_j, pc_j · (1 − C_uu))                      (geometric)
//! ```
//!
//! Two departures from the paper's text, both documented in DESIGN.md:
//!
//! * **Clamp direction.** Eq. 10 prints `min(pi_j, …)`, but periods must
//!   never drop below the source period (there is nothing to apply more
//!   often than versions arrive) and the prose says periods are "decreased
//!   gradually … until they reach the ideal period" — so we clamp from
//!   below with `max`.
//! * **Degradation cap.** The paper leaves `pc_j` unbounded. Unbounded
//!   stretching makes recovery through Eq. 10's linear step arbitrarily
//!   slow, so we cap the degradation factor (default 64×, i.e. up to ~98.4%
//!   of an item's updates shed — beyond the ≥95% shedding the paper reports
//!   in Fig. 3(c)). The geometric upgrade rule — the paper's "essentially
//!   cut the update period by half and quickly converge" reading — is
//!   provided as an alternative and compared in the ablation benches.

use crate::time::{SimDuration, SimTime};
use crate::types::{DataId, ItemVec};
use serde::{Deserialize, Serialize};

/// How `UpgradeUpdates` walks a degraded period back toward ideal (Eq. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum UpgradeRule {
    /// `pc_j ← max(pi_j, pc_j − C_uu·pi_j)` — the formula as printed.
    /// Erases mild degradations (factor < 1 + C_uu) in a single signal,
    /// which destabilizes the controller when degradation is spread thin;
    /// kept for the ablation benches.
    LinearIdealStep,
    /// `pc_j ← max(pi_j, pc_j · (1 − C_uu))` — the "cut the update period by
    /// half and quickly converge" prose reading; geometric and proportional,
    /// so one signal relieves staleness without discarding the accumulated
    /// shedding. The default.
    #[default]
    Geometric,
}

/// Per-item current/ideal update periods with degrade/upgrade steps.
///
/// ```
/// use unit_core::modulation::UpdateModulation;
/// use unit_core::time::SimDuration;
/// use unit_core::types::DataId;
///
/// let mut m = UpdateModulation::new(vec![SimDuration::from_secs(100)], 0.1, 0.5);
/// m.degrade(DataId(0)); // Eq. 9: period x 1.1
/// assert_eq!(m.current_period(DataId(0)), SimDuration::from_secs(110));
/// m.upgrade_all(); // Eq. 10: back toward the ideal period
/// assert_eq!(m.current_period(DataId(0)), SimDuration::from_secs(100));
/// ```
#[derive(Debug, Clone)]
pub struct UpdateModulation {
    periods: ItemVec<Periods>,
    /// Banked application credit per item (see [`Self::should_apply`]);
    /// starts at 1 so the first version always applies.
    credit: ItemVec<f64>,
    c_du: f64,
    c_uu: f64,
    max_factor: f64,
    rule: UpgradeRule,
}

/// One item's periods and the state derived from them, side by side so a
/// lottery hit or an upgrade touches one entry. The derived fields are
/// refreshed on every period change, rebuilt on construction and restore,
/// and never checkpointed.
#[derive(Debug, Clone, Copy)]
struct Periods {
    /// Ideal period `pi_j`; `MAX` for an item without an update stream.
    ideal: SimDuration,
    /// Current period `pc_j`.
    current: SimDuration,
    /// Derived: the cap period `ideal · max_factor`.
    cap: SimDuration,
    /// Derived: the period the next Eq. 9 stretch moves `current` to.
    next: SimDuration,
    /// Derived: [`UpdateModulation::survival_fraction`].
    survival: f64,
}

impl Periods {
    /// `pc_j / pi_j`, or 1.0 for a streamless or zero ideal period.
    fn factor(&self) -> f64 {
        if self.ideal.is_zero() || self.ideal == SimDuration::MAX {
            1.0
        } else {
            self.current.0 as f64 / self.ideal.0 as f64
        }
    }

    /// [`UpdateModulation::degrade_is_noop`]: no stream, or Eq. 9 would
    /// leave the period where it is.
    fn capped(&self) -> bool {
        self.ideal == SimDuration::MAX || self.next == self.current
    }

    /// Recompute `next` and `survival` after `current` changed.
    fn refresh(&mut self, c_du: f64) {
        self.next = self.current.scale(1.0 + c_du).min(self.cap);
        self.survival = 1.0 / self.factor();
    }
}

/// What one effective Eq. 9 stretch did, from [`UpdateModulation::degrade_step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeStep {
    /// Survival fraction `pi_j / pc_j` before the stretch.
    pub before: f64,
    /// Survival fraction after it.
    pub after: f64,
    /// True when the item now sits at its cap: a further degrade is a no-op.
    pub now_capped: bool,
}

impl UpdateModulation {
    /// Default cap on `pc_j / pi_j`.
    pub const DEFAULT_MAX_FACTOR: f64 = 64.0;

    /// Build from the ideal periods (index = item id) with the default cap
    /// and the as-printed linear upgrade rule. Items without an update
    /// stream should carry `SimDuration::MAX`.
    ///
    /// # Panics
    /// Panics unless `c_du > 0` and `c_uu ∈ (0, 1]`.
    pub fn new(ideal: Vec<SimDuration>, c_du: f64, c_uu: f64) -> Self {
        Self::with_rule(
            ideal,
            c_du,
            c_uu,
            Self::DEFAULT_MAX_FACTOR,
            UpgradeRule::default(),
        )
    }

    /// Build with an explicit degradation cap and upgrade rule.
    pub fn with_rule(
        ideal: Vec<SimDuration>,
        c_du: f64,
        c_uu: f64,
        max_factor: f64,
        rule: UpgradeRule,
    ) -> Self {
        assert!(c_du > 0.0, "C_du must be positive, got {c_du}");
        assert!(
            c_uu > 0.0 && c_uu <= 1.0,
            "C_uu must be in (0,1], got {c_uu}"
        );
        assert!(max_factor >= 1.0, "cap must be >= 1, got {max_factor}");
        let credit = ItemVec::new(ideal.len(), 1.0);
        let periods = ideal
            .into_iter()
            .map(|pi| Periods {
                ideal: pi,
                current: pi,
                cap: SimDuration::ZERO,
                next: pi,
                survival: 1.0,
            })
            .collect::<Vec<_>>()
            .into();
        let mut m = UpdateModulation {
            periods,
            credit,
            c_du,
            c_uu,
            max_factor,
            rule,
        };
        m.rebuild_derived();
        m
    }

    /// Recompute every item's derived state. O(N).
    fn rebuild_derived(&mut self) {
        for p in self.periods.values_mut() {
            p.cap = p.ideal.scale(self.max_factor);
            p.refresh(self.c_du);
        }
    }

    /// Number of items tracked.
    pub fn len(&self) -> usize {
        self.periods.len()
    }

    /// True when no items are tracked.
    pub fn is_empty(&self) -> bool {
        self.periods.is_empty()
    }

    /// Ideal period `pi_j`.
    pub fn ideal_period(&self, item: DataId) -> SimDuration {
        self.periods.at(item).ideal
    }

    /// Current (possibly degraded) period `pc_j`.
    pub fn current_period(&self, item: DataId) -> SimDuration {
        self.periods.at(item).current
    }

    /// True when `pc_j > pi_j`.
    pub fn is_degraded(&self, item: DataId) -> bool {
        let p = self.periods.at(item);
        p.current > p.ideal
    }

    /// Number of currently degraded items.
    pub fn degraded_count(&self) -> usize {
        self.periods
            .values()
            .filter(|p| p.current > p.ideal)
            .count()
    }

    /// The currently degraded items, in index order.
    pub(crate) fn degraded(&self) -> impl Iterator<Item = DataId> + '_ {
        (0u32..)
            .zip(self.periods.values())
            .filter(|(_, p)| p.current > p.ideal)
            .map(|(i, _)| DataId(i))
    }

    /// Degradation factor `pc_j / pi_j` (1.0 when not degraded).
    pub fn degradation_factor(&self, item: DataId) -> f64 {
        self.periods.at(item).factor()
    }

    /// Degrade one victim: `pc_j ← pc_j · (1 + C_du)` (Eq. 9), capped at
    /// `max_factor · pi_j`.
    pub fn degrade(&mut self, item: DataId) {
        let _ = self.degrade_step(item);
    }

    /// [`Self::degrade`] that reports what it did: `None` when the stretch
    /// is a no-op (see [`Self::degrade_is_noop`]), otherwise the survival
    /// fractions around it and whether the item is now capped. The stretch
    /// itself is the cached `next` period, so Eq. 9 is evaluated once, for
    /// the stretch after this one. O(1).
    pub fn degrade_step(&mut self, item: DataId) -> Option<DegradeStep> {
        let c_du = self.c_du;
        let p = self.periods.at_mut(item);
        if p.capped() {
            return None;
        }
        let before = p.survival;
        p.current = p.next;
        p.refresh(c_du);
        Some(DegradeStep {
            before,
            after: p.survival,
            now_capped: p.capped(),
        })
    }

    /// True when [`Self::degrade`] would leave `item` unchanged — the item
    /// has no update stream, or its period already sits at the degradation
    /// cap. Read off the cached next stretch, refreshed with the `degrade`
    /// arithmetic on every period change, so callers can detect no-op
    /// lottery draws in O(1).
    pub fn degrade_is_noop(&self, item: DataId) -> bool {
        self.periods.at(item).capped()
    }

    /// Upgrade every degraded item one step toward its ideal period
    /// (Eq. 10), per the configured [`UpgradeRule`].
    pub fn upgrade_all(&mut self) {
        for i in 0..self.len() {
            self.upgrade_one(DataId(i as u32));
        }
    }

    /// Expected update-class CPU utilization under the current periods,
    /// given each item's ideal utilization share `u_j = ue_j / pi_j`.
    pub fn expected_utilization(&self, util_share: &[f64]) -> f64 {
        debug_assert_eq!(util_share.len(), self.len());
        self.periods
            .values()
            .zip(util_share)
            .map(|(p, &u)| u / p.factor())
            .sum()
    }

    /// Upgrade a single item one step toward its ideal period (the
    /// per-item body of Eq. 10). Returns true if the item was degraded.
    pub fn upgrade_one(&mut self, item: DataId) -> bool {
        let (rule, shrink, c_du) = (self.rule, self.c_uu, self.c_du);
        let p = self.periods.at_mut(item);
        let pi = p.ideal;
        let degraded = upgrade_step(rule, shrink, &mut p.current, pi);
        if degraded {
            p.refresh(c_du);
        }
        degraded
    }

    /// Rate-limiter used by the UNIT policy's version-arrival hook: should a
    /// version of `item` arriving at `now` be applied, given the current
    /// period?
    ///
    /// Credit-based subsampling: every arriving version earns
    /// `pi_j / pc_j` of credit (the survival fraction) and an application
    /// spends one unit. Undegraded items (`pc = pi`) therefore apply every
    /// version; a degradation factor of `f` sheds exactly `1 − 1/f` of the
    /// stream in the long run — smooth even for small factors, where a
    /// naive "one per `pc` interval" limiter would either shed nothing or a
    /// whole version at a time. The first version of each item is always
    /// applied (it initializes the item; credit starts at 1).
    pub fn should_apply(&mut self, item: DataId, _now: SimTime) -> bool {
        if self.ideal_period(item) == SimDuration::MAX {
            // No stream configured; apply whatever shows up.
            return true;
        }
        let earned = self.survival_fraction(item);
        let credit = self.credit.at_mut(item);
        *credit += earned;
        if *credit >= 1.0 {
            *credit -= 1.0;
            // Cap banked credit so a long-degraded item cannot burst-apply
            // many versions right after an upgrade.
            *credit = credit.min(1.0);
            true
        } else {
            false
        }
    }

    /// Expected fraction of versions that survive modulation for `item`
    /// (`pi_j / pc_j`, as `1 / degradation_factor`). Cached, O(1).
    pub fn survival_fraction(&self, item: DataId) -> f64 {
        self.periods.at(item).survival
    }

    /// Serialize periods, credit bank, and parameters into a checkpoint
    /// stream. See [`crate::checkpoint`].
    pub fn checkpoint_into(&self, enc: &mut crate::checkpoint::Enc) {
        enc.put_usize(self.periods.len());
        for (p, credit) in self.periods.values().zip(self.credit.values()) {
            enc.put_u64(p.ideal.0);
            enc.put_u64(p.current.0);
            enc.put_f64(*credit);
        }
        enc.put_f64(self.c_du);
        enc.put_f64(self.c_uu);
        enc.put_f64(self.max_factor);
        enc.put_u8(match self.rule {
            UpgradeRule::LinearIdealStep => 0,
            UpgradeRule::Geometric => 1,
        });
    }

    /// Restore state captured by [`UpdateModulation::checkpoint_into`].
    pub fn restore_from(
        &mut self,
        dec: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let n = dec.take_usize()?;
        if n != self.periods.len() {
            return Err(crate::checkpoint::CheckpointError::Mismatch {
                what: "modulation table size",
            });
        }
        for (p, credit) in self.periods.values_mut().zip(self.credit.values_mut()) {
            p.ideal = SimDuration(dec.take_u64()?);
            p.current = SimDuration(dec.take_u64()?);
            *credit = dec.take_f64()?;
        }
        self.c_du = dec.take_f64()?;
        self.c_uu = dec.take_f64()?;
        self.max_factor = dec.take_f64()?;
        self.rule = match dec.take_u8()? {
            0 => UpgradeRule::LinearIdealStep,
            1 => UpgradeRule::Geometric,
            v => {
                return Err(crate::checkpoint::CheckpointError::BadTag {
                    value: v as u64,
                    what: "upgrade rule",
                })
            }
        };
        self.rebuild_derived();
        Ok(())
    }

    /// Check `pi_j ≤ pc_j ≤ cap·pi_j` for every item; streamless items
    /// (`pi = MAX`) must remain untouched. The naive shadow of the clamps
    /// in [`Self::degrade`]/[`Self::upgrade_one`]; always compiled, invoked
    /// behind the `validate` feature (see [`crate::validate`]).
    pub fn check_period_bounds(&self) -> Result<(), String> {
        for (i, p) in self.periods.values().enumerate() {
            let (pi, pc) = (p.ideal, p.current);
            if pi == SimDuration::MAX {
                if pc != SimDuration::MAX {
                    return Err(format!(
                        "item {i}: streamless but period modulated to {pc:?}"
                    ));
                }
                continue;
            }
            if pc < pi {
                return Err(format!("item {i}: current {pc:?} below ideal {pi:?}"));
            }
            let cap = pi.scale(self.max_factor);
            if pc > cap {
                return Err(format!("item {i}: current {pc:?} above cap {cap:?}"));
            }
        }
        Ok(())
    }

    /// Check every item's cached cap period, next stretch (which decides
    /// [`Self::degrade_is_noop`]) and survival fraction against a fresh
    /// recomputation from the periods (bit for bit): the shadow of the
    /// refreshes in
    /// [`Self::degrade_step`]/[`Self::upgrade_one`]/[`Self::restore_from`];
    /// always compiled, invoked behind the `validate` feature (see
    /// [`crate::validate`]).
    pub fn check_derived(&self) -> Result<(), String> {
        for (i, p) in self.periods.values().enumerate() {
            let (pi, pc) = (p.ideal, p.current);
            let cap = pi.scale(self.max_factor);
            if p.cap != cap {
                return Err(format!("item {i}: cached cap {:?}, fresh {cap:?}", p.cap));
            }
            let next = pc.scale(1.0 + self.c_du).min(cap);
            if p.next != next {
                return Err(format!(
                    "item {i}: cached next period {:?}, fresh {next:?}",
                    p.next
                ));
            }
            let factor = if pi.is_zero() || pi == SimDuration::MAX {
                1.0
            } else {
                pc.0 as f64 / pi.0 as f64
            };
            let survival = 1.0 / factor;
            if p.survival.to_bits() != survival.to_bits() {
                return Err(format!(
                    "item {i}: cached survival {}, fresh {survival}",
                    p.survival
                ));
            }
        }
        Ok(())
    }
}

/// One Eq. 10 step of a period `pc` toward its ideal `pi` under `rule`,
/// clamped at `pi`; streamless (`pi = MAX`) and undegraded periods stay put.
/// Returns true if the period was degraded.
fn upgrade_step(rule: UpgradeRule, shrink: f64, pc: &mut SimDuration, pi: SimDuration) -> bool {
    if pi == SimDuration::MAX || *pc <= pi {
        return false;
    }
    let next = match rule {
        UpgradeRule::LinearIdealStep => pc.saturating_sub(pi.scale(shrink)),
        UpgradeRule::Geometric => pc.scale(1.0 - shrink),
    };
    *pc = next.max(pi);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modulation(periods_s: &[u64]) -> UpdateModulation {
        UpdateModulation::new(
            periods_s
                .iter()
                .map(|&s| SimDuration::from_secs(s))
                .collect(),
            0.1,
            0.5,
        )
    }

    #[test]
    fn degrade_stretches_by_ten_percent() {
        let mut m = modulation(&[100]);
        let d = DataId(0);
        assert!(!m.is_degraded(d));
        m.degrade(d);
        assert_eq!(m.current_period(d), SimDuration::from_secs(110));
        assert!(m.is_degraded(d));
        m.degrade(d);
        assert_eq!(m.current_period(d), SimDuration::from_secs(121));
        assert!((m.degradation_factor(d) - 1.21).abs() < 1e-9);
        assert_eq!(m.ideal_period(d), SimDuration::from_secs(100));
    }

    #[test]
    fn degradation_is_capped() {
        let mut m = modulation(&[10]);
        let d = DataId(0);
        for _ in 0..1000 {
            m.degrade(d);
        }
        let factor = m.degradation_factor(d);
        assert!(
            (factor - UpdateModulation::DEFAULT_MAX_FACTOR).abs() < 0.2,
            "factor {factor} should sit at the cap"
        );
        assert!(m.survival_fraction(d) > 0.015);
    }

    #[test]
    fn linear_upgrade_steps_back_and_clamps_at_ideal() {
        let mut m = UpdateModulation::with_rule(
            vec![SimDuration::from_secs(100)],
            0.1,
            0.5,
            64.0,
            UpgradeRule::LinearIdealStep,
        );
        let d = DataId(0);
        for _ in 0..8 {
            m.degrade(d); // 100 * 1.1^8 ≈ 214.36s
        }
        assert!(m.current_period(d) > SimDuration::from_secs(214));
        m.upgrade_all(); // −50s
        assert!(m.current_period(d) > SimDuration::from_secs(164));
        m.upgrade_all(); // −50s
        m.upgrade_all(); // would undershoot -> clamp at ideal
        assert_eq!(m.current_period(d), SimDuration::from_secs(100));
        assert!(!m.is_degraded(d));
        // Further upgrades are no-ops.
        m.upgrade_all();
        assert_eq!(m.current_period(d), SimDuration::from_secs(100));
    }

    #[test]
    fn geometric_upgrade_halves_toward_ideal() {
        let mut m = UpdateModulation::with_rule(
            vec![SimDuration::from_secs(10)],
            0.1,
            0.5,
            64.0,
            UpgradeRule::Geometric,
        );
        let d = DataId(0);
        for _ in 0..1000 {
            m.degrade(d); // hits the cap: 640s
        }
        m.upgrade_all(); // 320s
        assert_eq!(m.current_period(d), SimDuration::from_secs(320));
        m.upgrade_all(); // 160s
        m.upgrade_all(); // 80s
        m.upgrade_all(); // 40s
        m.upgrade_all(); // 20s
        m.upgrade_all(); // clamped at 10s
        assert_eq!(m.current_period(d), SimDuration::from_secs(10));
        assert!(!m.is_degraded(d));
    }

    #[test]
    fn period_never_drops_below_ideal() {
        let mut m = modulation(&[60, 90]);
        m.degrade(DataId(0));
        for _ in 0..100 {
            m.upgrade_all();
        }
        assert_eq!(m.current_period(DataId(0)), SimDuration::from_secs(60));
        assert_eq!(m.current_period(DataId(1)), SimDuration::from_secs(90));
    }

    #[test]
    fn streamless_items_are_ignored() {
        let mut m = UpdateModulation::new(vec![SimDuration::MAX], 0.1, 0.5);
        let d = DataId(0);
        m.degrade(d);
        assert_eq!(m.current_period(d), SimDuration::MAX);
        assert_eq!(m.degradation_factor(d), 1.0);
        m.upgrade_all();
        assert_eq!(m.current_period(d), SimDuration::MAX);
    }

    #[test]
    fn undegraded_items_apply_every_version() {
        let mut m = modulation(&[10]);
        let d = DataId(0);
        // Versions arrive exactly at the ideal period.
        let mut applied = 0;
        for k in 0..10u64 {
            if m.should_apply(d, SimTime::from_secs(k * 10)) {
                applied += 1;
            }
        }
        assert_eq!(applied, 10, "no degradation -> no shedding");
    }

    #[test]
    fn degraded_items_subsample_versions() {
        let mut m = modulation(&[10]);
        let d = DataId(0);
        // Stretch the period to ~40s: expect roughly one in four applied.
        for _ in 0..15 {
            m.degrade(d); // 10 * 1.1^15 ≈ 41.77s
        }
        let mut applied = 0;
        for k in 0..100u64 {
            if m.should_apply(d, SimTime::from_secs(k * 10)) {
                applied += 1;
            }
        }
        assert!(
            (20..=30).contains(&applied),
            "expected ~25 of 100 applied, got {applied}"
        );
        assert!((m.survival_fraction(d) - 10.0 / 41.77).abs() < 0.01);
    }

    #[test]
    fn first_version_is_always_applied() {
        let mut m = modulation(&[10]);
        for _ in 0..30 {
            m.degrade(DataId(0));
        }
        assert!(m.should_apply(DataId(0), SimTime::from_secs(5)));
    }

    #[test]
    fn capped_shedding_stays_above_survival_floor() {
        let mut m = modulation(&[10]);
        let d = DataId(0);
        for _ in 0..10_000 {
            m.degrade(d);
        }
        // Versions every 10s for 64_000s: cap factor 64 -> ~1/64 applied.
        let mut applied = 0u32;
        let n = 6_400u64;
        for k in 0..n {
            if m.should_apply(d, SimTime::from_secs(k * 10)) {
                applied += 1;
            }
        }
        let fraction = applied as f64 / n as f64;
        assert!(
            fraction > 0.01 && fraction < 0.03,
            "survival fraction {fraction} should be ≈ 1/64"
        );
    }

    #[test]
    fn expected_utilization_tracks_degradation() {
        let mut m = modulation(&[10, 20]);
        // shares: item0 = 0.5, item1 = 0.1 (per caller-provided u_j).
        let shares = [0.5, 0.1];
        assert!((m.expected_utilization(&shares) - 0.6).abs() < 1e-12);
        // Degrading item 0 to 2x halves its expected utilization.
        for _ in 0..8 {
            m.degrade(DataId(0)); // 1.1^8 ≈ 2.14
        }
        let expected = 0.5 / m.degradation_factor(DataId(0)) + 0.1;
        assert!((m.expected_utilization(&shares) - expected).abs() < 1e-12);
    }

    #[test]
    fn period_bounds_check_accepts_modulated_state() {
        let mut m = modulation(&[10, 20]);
        for _ in 0..100 {
            m.degrade(DataId(0));
        }
        m.upgrade_all();
        assert_eq!(m.check_period_bounds(), Ok(()));
    }

    #[test]
    fn period_bounds_check_catches_out_of_range_periods() {
        let mut m = modulation(&[10, 20]);
        // Corrupt the state directly, as a clamp bug would.
        m.periods.at_mut(DataId(0)).current = SimDuration::from_secs(5);
        let err = m.check_period_bounds().unwrap_err();
        assert!(err.contains("below ideal"), "{err}");
        m.periods.at_mut(DataId(0)).current = SimDuration::from_secs(10_000);
        let err = m.check_period_bounds().unwrap_err();
        assert!(err.contains("above cap"), "{err}");

        let mut m = UpdateModulation::new(vec![SimDuration::MAX], 0.1, 0.5);
        m.periods.at_mut(DataId(0)).current = SimDuration::from_secs(1);
        let err = m.check_period_bounds().unwrap_err();
        assert!(err.contains("streamless"), "{err}");
    }

    #[test]
    #[should_panic(expected = "C_du")]
    fn invalid_cdu_is_rejected() {
        UpdateModulation::new(vec![SimDuration::from_secs(1)], 0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "C_uu")]
    fn invalid_cuu_is_rejected() {
        UpdateModulation::new(vec![SimDuration::from_secs(1)], 0.1, 1.5);
    }
}
