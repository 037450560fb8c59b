//! Configuration for the UNIT policy: every constant §3 names, in one place.

use crate::controller::LbcConfig;
use crate::modulation::{UpdateModulation, UpgradeRule};
use crate::time::SimDuration;
use crate::usm::UsmWeights;
use serde::{Deserialize as De2, Serialize as Se2};
use serde::{Deserialize, Serialize};

/// Default RNG seed for a [`UnitConfig`]; fix your own for experiments.
pub const DEFAULT_SEED: u64 = 0x5EED_0001;

/// How raw tickets become non-negative lottery weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Se2, De2, Default)]
pub enum VictimWeighting {
    /// `T_j − T_min`, the rule as printed in §3.4.1. Flattens relative
    /// differences when one item is extremely hot; kept for ablation.
    ShiftMin,
    /// `max(T_j, 0)`: items whose query value outweighs their update cost
    /// are never degraded. The default (documented deviation — see
    /// `TicketTable::clamped_weights`).
    #[default]
    ClampZero,
}

/// Full configuration of a [`crate::unit_policy::UnitPolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitConfig {
    /// User-preference weights (`C_r`, `C_fm`, `C_fs`; `G_s = 1`) that
    /// price every query.
    pub weights: UsmWeights,
    /// Controller trigger tuning (grace period, drop threshold).
    pub lbc: LbcConfig,
    /// Initial lag ratio `C_flex` of the admission deadline check (paper: 1).
    pub initial_c_flex: f64,
    /// TAC/LAC step fraction (paper: 0.10).
    pub c_flex_step: f64,
    /// Lower clamp for `C_flex`.
    pub min_c_flex: f64,
    /// Upper clamp for `C_flex`.
    pub max_c_flex: f64,
    /// Ticket forgetting factor `C_forget` (paper: 0.9).
    pub c_forget: f64,
    /// Degrade step `C_du` (paper: 0.1): victim period `× (1 + C_du)`.
    pub c_du: f64,
    /// Upgrade step `C_uu` (paper: 0.5): period `− C_uu · pi_j` per signal.
    pub c_uu: f64,
    /// Cap on the per-item degradation factor `pc_j / pi_j` (see
    /// [`UpdateModulation`] docs for why the paper's unbounded stretch is
    /// capped).
    pub max_degradation_factor: f64,
    /// Which reading of Eq. 10 the upgrade step uses.
    pub upgrade_rule: UpgradeRule,
    /// Cap on lottery draws per `DegradeUpdates` signal (the signal stops
    /// earlier once it has shed `modulation_step_util` of expected CPU).
    /// The paper degrades per signal without stating a batch size; its
    /// technical report carries the sensitivity analysis.
    pub degrade_victims_per_signal: usize,
    /// Utilization budget per modulation signal: one `DegradeUpdates`
    /// signal sheds about this much expected update-class CPU, and one
    /// `UpgradeUpdates` signal restores at most this much. Budgeting both
    /// actuators in the same units lets the feedback loop settle instead of
    /// oscillating (an unbudgeted `C_uu = 0.5` halving can undo dozens of
    /// degrade signals at once). Documented calibration; ablations sweep it.
    pub modulation_step_util: f64,
    /// Utilization budget per `UpgradeUpdates` signal; defaults to a
    /// fraction of the degrade budget. Restoring more slowly than shedding
    /// biases the equilibrium toward freshness only where queries actually
    /// demand it (the ticket lottery already steers *which* items are shed).
    pub upgrade_step_util: f64,
    /// Master switch for admission control (disable for ablations: every
    /// query is admitted).
    pub admission_enabled: bool,
    /// How many (cost-normalized) query accesses per update an item needs
    /// for its ticket to stay negative (protected from degradation). One
    /// 96-second update blocks the CPU for roughly two query deadlines, so
    /// an access and an update are *not* equal-value: protecting an item
    /// only pays off when its access traffic outweighs the collateral cost
    /// of its update stream. Used by the auto-normalizing access decrement
    /// (`0.5 · (qe/qt)/avg(qe/qt) / balance`).
    pub access_update_balance: f64,
    /// Scale applied to Eq. 6's per-access ticket decrement `qe/qt`.
    /// `None` (default) auto-normalizes: the decrement becomes
    /// `0.5 · (qe/qt) / avg(qe/qt)`, making the *average* access worth as
    /// much ticket as the average update adds (Eq. 7's sigmoid averages
    /// 0.5). Without normalization the raw `qe/qt` (≈0.02 under the paper's
    /// deadline recipe) is so small that one update outweighs dozens of
    /// accesses and the lottery degrades query-hot items. `Some(1.0)` is the
    /// paper's literal rule; the ablation benches compare.
    pub access_ticket_scale: Option<f64>,
    /// How raw tickets are turned into lottery weights.
    pub victim_weighting: VictimWeighting,
    /// Selection-pressure exponent applied to the shifted ticket weights
    /// before the lottery draw (`w^sharpness`). 1.0 is the paper's plain
    /// lottery. Values > 1 concentrate degradation harder on the
    /// hot-updated/cold-queried items, protecting the query-relevant tail —
    /// the ablation benches sweep this.
    pub lottery_sharpness: f64,
    /// Seed for the policy's internal randomness (lottery draws, tie breaks).
    pub seed: u64,
}

impl Default for UnitConfig {
    fn default() -> Self {
        UnitConfig {
            weights: UsmWeights::naive(),
            lbc: LbcConfig::default(),
            initial_c_flex: 1.0,
            c_flex_step: 0.10,
            min_c_flex: 0.25,
            max_c_flex: 16.0,
            c_forget: 0.9,
            c_du: 0.1,
            c_uu: 0.5,
            max_degradation_factor: UpdateModulation::DEFAULT_MAX_FACTOR,
            upgrade_rule: UpgradeRule::default(),
            degrade_victims_per_signal: 4096,
            modulation_step_util: 0.05,
            upgrade_step_util: 0.005,
            admission_enabled: true,
            access_update_balance: 3.0,
            access_ticket_scale: None,
            victim_weighting: VictimWeighting::default(),
            lottery_sharpness: 1.0,
            seed: DEFAULT_SEED,
        }
    }
}

impl UnitConfig {
    /// Default configuration with the given preference weights.
    pub fn with_weights(weights: UsmWeights) -> Self {
        UnitConfig {
            weights,
            ..UnitConfig::default()
        }
    }

    /// Default configuration with a specific RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Default configuration with a specific grace period.
    pub fn with_grace_period(mut self, grace: SimDuration) -> Self {
        self.lbc.grace_period = grace;
        self
    }

    /// Sanity-check the configuration, returning a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.c_forget > 0.0 && self.c_forget <= 1.0) {
            return Err(format!("C_forget must be in (0,1], got {}", self.c_forget));
        }
        if self.c_du <= 0.0 {
            return Err(format!("C_du must be positive, got {}", self.c_du));
        }
        if !(self.c_uu > 0.0 && self.c_uu <= 1.0) {
            return Err(format!("C_uu must be in (0,1], got {}", self.c_uu));
        }
        if self.max_degradation_factor < 1.0 {
            return Err(format!(
                "max degradation factor must be >= 1, got {}",
                self.max_degradation_factor
            ));
        }
        if !(self.c_flex_step > 0.0 && self.c_flex_step < 1.0) {
            return Err(format!(
                "C_flex step must be in (0,1), got {}",
                self.c_flex_step
            ));
        }
        if !(self.min_c_flex > 0.0
            && self.min_c_flex <= self.initial_c_flex
            && self.initial_c_flex <= self.max_c_flex)
        {
            return Err("need 0 < min <= initial <= max C_flex".to_string());
        }
        if self.degrade_victims_per_signal == 0 {
            return Err("degrade_victims_per_signal must be >= 1".to_string());
        }
        if self.modulation_step_util <= 0.0 {
            return Err(format!(
                "modulation step budget must be positive, got {}",
                self.modulation_step_util
            ));
        }
        if self.upgrade_step_util <= 0.0 {
            return Err(format!(
                "upgrade step budget must be positive, got {}",
                self.upgrade_step_util
            ));
        }
        if self.access_update_balance <= 0.0 {
            return Err(format!(
                "access/update balance must be positive, got {}",
                self.access_update_balance
            ));
        }
        if self.lottery_sharpness <= 0.0 {
            return Err(format!(
                "lottery sharpness must be positive, got {}",
                self.lottery_sharpness
            ));
        }
        if self.lbc.threshold_fraction <= 0.0 {
            return Err("LBC threshold fraction must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = UnitConfig::default();
        assert_eq!(c.initial_c_flex, 1.0);
        assert_eq!(c.c_flex_step, 0.10);
        assert_eq!(c.c_forget, 0.9);
        assert_eq!(c.c_du, 0.1);
        assert_eq!(c.c_uu, 0.5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_override_fields() {
        let c = UnitConfig::with_weights(UsmWeights::high_high_cr())
            .with_seed(99)
            .with_grace_period(SimDuration::from_secs(10));
        assert_eq!(c.weights, UsmWeights::high_high_cr());
        assert_eq!(c.seed, 99);
        assert_eq!(c.lbc.grace_period, SimDuration::from_secs(10));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = UnitConfig::with_weights(UsmWeights::high_high_cfs()).with_seed(7);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: UnitConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn validate_catches_bad_constants() {
        let bad = |f: &dyn Fn(&mut UnitConfig)| {
            let mut c = UnitConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(&|c| c.c_forget = 1.5));
        assert!(bad(&|c| c.c_du = 0.0));
        assert!(bad(&|c| c.degrade_victims_per_signal = 0));
        assert!(bad(&|c| c.min_c_flex = 5.0)); // > initial
        assert!(bad(&|c| c.modulation_step_util = 0.0));
        assert!(bad(&|c| c.upgrade_step_util = -1.0));
        assert!(bad(&|c| c.access_update_balance = 0.0));
        assert!(bad(&|c| c.lottery_sharpness = 0.0));
    }
}
