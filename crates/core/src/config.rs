//! Configuration for the UNIT policy: the knobs a caller sets. Values that
//! nobody varies are `const`s beside the code that reads them (the LBC's
//! trigger in [`crate::controller`], the `C_flex` clamps in
//! [`crate::admission`], the access/update balance and the degrade draw
//! cap in [`crate::unit_policy`]).

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
    /// The LBC's grace period: the longest interval between controller
    /// activations (§3.2), once the window holds enough outcomes.
    pub grace_period: SimDuration,
    /// TAC/LAC step fraction of the admission lag ratio `C_flex`
    /// (paper: 0.10).
    pub c_flex_step: f64,
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
    /// Scale applied to Eq. 6's per-access ticket decrement `qe/qt`.
    /// `None` (default) auto-normalizes: the decrement becomes
    /// `0.5 · (qe/qt) / avg(qe/qt) / ACCESS_UPDATE_BALANCE`, pricing the
    /// average access against the average update's ticket (Eq. 7's sigmoid
    /// averages 0.5; see [`crate::unit_policy::ACCESS_UPDATE_BALANCE`]).
    /// Without normalization the raw `qe/qt` (≈0.02 under the paper's
    /// deadline recipe) is so small that one update outweighs dozens of
    /// accesses and the lottery degrades query-hot items. `Some(1.0)` is the
    /// paper's literal rule; the ablation benches compare.
    pub access_ticket_scale: Option<f64>,
    /// How raw tickets are turned into lottery weights.
    pub victim_weighting: VictimWeighting,
    /// Seed for the policy's internal randomness (lottery draws, tie breaks).
    pub seed: u64,
}

impl Default for UnitConfig {
    fn default() -> Self {
        UnitConfig {
            weights: UsmWeights::naive(),
            grace_period: SimDuration::from_secs(50),
            c_flex_step: 0.10,
            c_forget: 0.9,
            c_du: 0.1,
            c_uu: 0.5,
            max_degradation_factor: UpdateModulation::DEFAULT_MAX_FACTOR,
            upgrade_rule: UpgradeRule::default(),
            modulation_step_util: 0.05,
            upgrade_step_util: 0.005,
            admission_enabled: true,
            access_ticket_scale: None,
            victim_weighting: VictimWeighting::default(),
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
        self.grace_period = grace;
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = UnitConfig::default();
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
        assert_eq!(c.grace_period, SimDuration::from_secs(10));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = UnitConfig::with_weights(UsmWeights::high_high_cfs()).with_seed(7);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: UnitConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    /// The knob budget. A field belongs in `UnitConfig` only when two
    /// non-test callers want different values (the sensitivity sweep, an
    /// ablation row, the benchmark's seed or grace period); a value nobody
    /// varies is a `const` beside the code that reads it. Adding a field
    /// means extending this list, and meeting the rule.
    #[test]
    fn config_keeps_only_the_knobs_callers_set() {
        let json = serde_json::to_string(&UnitConfig::default()).unwrap();
        // The object's own keys: strings at nesting depth 1 followed by `:`
        // (no key or value of this config contains a quote or a bracket).
        let (mut keys, mut depth, mut chars) = (Vec::new(), 0, json.chars());
        while let Some(c) = chars.next() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                '"' => {
                    let s: String = chars.by_ref().take_while(|&c| c != '"').collect();
                    if depth == 1 && chars.clone().next() == Some(':') {
                        keys.push(s);
                    }
                }
                _ => {}
            }
        }
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "access_ticket_scale",
                "admission_enabled",
                "c_du",
                "c_flex_step",
                "c_forget",
                "c_uu",
                "grace_period",
                "max_degradation_factor",
                "modulation_step_util",
                "seed",
                "upgrade_rule",
                "upgrade_step_util",
                "victim_weighting",
                "weights",
            ]
        );
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
        assert!(bad(&|c| c.c_flex_step = 1.0));
        assert!(bad(&|c| c.modulation_step_util = 0.0));
        assert!(bad(&|c| c.upgrade_step_util = -1.0));
    }
}
