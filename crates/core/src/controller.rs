//! The Load Balancing Controller and its Adaptive Allocation Algorithm
//! (§3.2, Figure 2).
//!
//! The LBC watches the stream of query outcomes and periodically — or
//! whenever the windowed USM drops by more than a threshold (1% of the USM
//! range in the paper) — decides which actuator to move:
//!
//! ```text
//! R  = C_r  · R_r      (or R_r   when all penalties are zero)
//! Fm = C_fm · R_fm     (or R_fm)
//! Fs = C_fs · R_fs     (or R_fs)
//! switch max(R, Fm, Fs)        // ties broken randomly
//!   R:  Loosen Admission Control
//!   Fm: Degrade Update; Tighten Admission Control
//!   Fs: Upgrade Update
//! ```
//!
//! The intuition: whichever failure class currently dominates the USM cost
//! is the one to relieve. Rejections dominating means admission is too
//! tight; deadline misses dominating means the CPU is oversubscribed (shed
//! update load *and* admit less); stale reads dominating means update
//! shedding went too far. One amendment (documented in DESIGN.md): when a
//! rejection-dominated window coincides with a *saturated* CPU, the
//! controller also sheds update load — Figure 2's rejection case assumes
//! spare capacity, and without the amendment an update volume above 100%
//! utilization pins the system in a reject-everything equilibrium.
//!
//! Interpretation note: Figure 2 does not say what to do when the window has
//! no failures at all. We loosen admission in that case — with a clean
//! window the only improvable component is the rejection of future load, and
//! this lets `C_flex` recover after transient overloads.

use crate::policy::ControlSignal;
use crate::time::{SimDuration, SimTime};
use crate::types::Outcome;
use crate::usm::{OutcomeCounts, UsmWeights, UsmWindow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// USM-drop trigger threshold as a fraction of the USM range span (§3.2:
/// the paper's 1%).
pub const DROP_THRESHOLD_FRACTION: f64 = 0.01;

/// Minimum outcomes in the window before *any* activation (DESIGN §12
/// deviation 4). A window of one or two queries makes `max(R, F_m, F_s)` a
/// coin flip — e.g. a single stale read would fire `UpgradeUpdates` and
/// erase accumulated shedding — so the controller waits until the ratios
/// mean something. The effective activation period is therefore
/// `max(grace_period, time to collect this many outcomes)`.
pub const MIN_WINDOW_SAMPLES: u64 = 16;

/// CPU utilization at or above which a rejection-dominated window also
/// sheds update load (DESIGN §12 deviation 9; see the module docs on the
/// saturated-rejection case).
pub const SATURATION_UTILIZATION: f64 = 0.98;

/// The Load Balancing Controller.
#[derive(Debug, Clone)]
pub struct Lbc {
    weights: UsmWeights,
    /// Maximum interval between activations ("Grace Period"): the
    /// controller fires once this much time has passed since the last one,
    /// provided the window carries enough outcomes to act on.
    grace_period: SimDuration,
    window: UsmWindow,
    last_activation: SimTime,
    /// Average USM of the previously drained window (drop detection).
    prev_window_usm: Option<f64>,
    rng: StdRng,
    activations: u64,
}

impl Lbc {
    /// Build a controller for the users' preference vector and grace
    /// period; `seed` drives only the random tie-breaking of Figure 2's
    /// `switch`.
    pub fn new(weights: UsmWeights, grace_period: SimDuration, seed: u64) -> Self {
        Lbc {
            weights,
            grace_period,
            window: UsmWindow::new(),
            last_activation: SimTime::ZERO,
            prev_window_usm: None,
            rng: StdRng::seed_from_u64(seed),
            activations: 0,
        }
    }

    /// Feed one query outcome into the control window.
    pub fn record(&mut self, outcome: Outcome) {
        self.window.record_with(outcome, &self.weights);
    }

    /// Outcomes recorded since the last activation.
    pub fn window_counts(&self) -> &OutcomeCounts {
        self.window.counts()
    }

    /// Number of times the controller has activated.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// The trigger condition (§3.2): grace period elapsed, or windowed USM
    /// fell more than the threshold below the previous window's USM — in
    /// both cases only once the window holds [`MIN_WINDOW_SAMPLES`] outcomes.
    pub fn should_activate(&self, now: SimTime) -> bool {
        self.window.counts().total() >= MIN_WINDOW_SAMPLES
            && (now.saturating_since(self.last_activation) >= self.grace_period
                || self.usm_dropped())
    }

    /// Earliest instant at which [`Lbc::should_activate`] could first return
    /// true, assuming **no further outcomes are recorded** before then. Between
    /// two server events the window is frozen, so this bound is exact:
    ///
    /// * fewer than [`MIN_WINDOW_SAMPLES`] outcomes — activation is
    ///   impossible at any time ([`SimTime::MAX`]);
    /// * the USM-drop trigger currently holds — activation is already due
    ///   ([`SimTime::ZERO`]);
    /// * otherwise only the grace timer can fire, at
    ///   `last_activation + grace_period`.
    ///
    /// The engine uses this to skip runs of guaranteed-idle control ticks in
    /// bulk; any recorded outcome comes from a heap event, which re-bounds the
    /// skip. O(1).
    pub fn idle_until(&self) -> SimTime {
        if self.window.counts().total() < MIN_WINDOW_SAMPLES {
            SimTime::MAX
        } else if self.usm_dropped() {
            SimTime::ZERO
        } else {
            self.last_activation + self.grace_period
        }
    }

    /// The USM-drop trigger: the window's average USM fell more than
    /// [`DROP_THRESHOLD_FRACTION`] of the USM range below the previous
    /// window's. False before the first non-empty window has been drained.
    fn usm_dropped(&self) -> bool {
        self.prev_window_usm.is_some_and(|prev| {
            prev - self.window.average_usm() > DROP_THRESHOLD_FRACTION * self.weights.range_span()
        })
    }

    /// Run the Adaptive Allocation Algorithm if the trigger condition holds;
    /// returns the emitted signals (empty when not activated). `utilization`
    /// is the CPU utilization over the recent measurement window.
    pub fn maybe_activate(&mut self, now: SimTime, utilization: f64) -> Vec<ControlSignal> {
        if !self.should_activate(now) {
            return Vec::new();
        }
        self.activate(now, utilization)
    }

    /// Unconditionally run the Adaptive Allocation Algorithm on the current
    /// window, draining it.
    pub fn activate(&mut self, now: SimTime, utilization: f64) -> Vec<ControlSignal> {
        self.activations += 1;
        self.last_activation = now;
        let (counts, usm, costs) = self.window.take_priced();
        if counts.total() > 0 {
            self.prev_window_usm = Some(usm);
        }
        self.allocate(&counts, costs, utilization)
    }

    /// Serialize the controller's dynamic state (window, timers, drop
    /// reference, tie-break RNG, activation count) into a checkpoint stream.
    /// The preference set and grace period are construction-time inputs and
    /// are not written. See [`crate::checkpoint`].
    pub fn checkpoint_into(&self, enc: &mut crate::checkpoint::Enc) {
        self.window.checkpoint_into(enc);
        enc.put_u64(self.last_activation.0);
        enc.put_opt_f64(self.prev_window_usm);
        for w in self.rng.state() {
            enc.put_u64(w);
        }
        enc.put_u64(self.activations);
    }

    /// Restore state captured by [`Lbc::checkpoint_into`].
    pub fn restore_from(
        &mut self,
        dec: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        self.window.restore_from(dec)?;
        self.last_activation = SimTime(dec.take_u64()?);
        self.prev_window_usm = dec.take_opt_f64()?;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = dec.take_u64()?;
        }
        self.rng = StdRng::from_state(s);
        self.activations = dec.take_u64()?;
        Ok(())
    }

    /// Figure 2's decision body, on a window of outcome counts.
    fn allocate(
        &mut self,
        counts: &OutcomeCounts,
        costs: [f64; 3],
        utilization: f64,
    ) -> Vec<ControlSignal> {
        let (r, fm, fs) = if self.weights.is_naive() {
            // Line 2-3: with zero penalties, fall back to the raw ratios so
            // the controller still chases the dominant failure class.
            (
                counts.ratio(Outcome::Rejected),
                counts.ratio(Outcome::DeadlineMiss),
                counts.ratio(Outcome::DataStale),
            )
        } else {
            let [r, fm, fs] = costs;
            (r, fm, fs)
        };

        // Exact zero marks "no failures at all this window": the ratios/costs
        // below are sums of zero terms, not accumulated arithmetic drift.
        if r == 0.0 && fm == 0.0 && fs == 0.0 {
            return if counts.total() > 0 {
                vec![ControlSignal::LoosenAdmission]
            } else {
                Vec::new()
            };
        }

        match self.argmax_with_random_ties(r, fm, fs) {
            CostClass::Rejection => {
                // Figure 2 treats dominant rejections as a sign admission is
                // too tight and only loosens. That analysis implicitly
                // assumes the CPU has room; when rejections dominate *and*
                // the CPU is saturated, the backlog squeezing queries out is
                // update work (queries are being rejected), so shed it too —
                // otherwise an update volume above 100% utilization wedges
                // the controller in a reject-everything equilibrium.
                if utilization >= SATURATION_UTILIZATION {
                    vec![
                        ControlSignal::LoosenAdmission,
                        ControlSignal::DegradeUpdates,
                    ]
                } else {
                    vec![ControlSignal::LoosenAdmission]
                }
            }
            CostClass::DeadlineMiss => vec![
                ControlSignal::DegradeUpdates,
                ControlSignal::TightenAdmission,
            ],
            CostClass::DataStale => vec![ControlSignal::UpgradeUpdates],
        }
    }

    fn argmax_with_random_ties(&mut self, r: f64, fm: f64, fs: f64) -> CostClass {
        let max = r.max(fm).max(fs);
        let classes = [
            (r, CostClass::Rejection),
            (fm, CostClass::DeadlineMiss),
            (fs, CostClass::DataStale),
        ];
        #[expect(
            clippy::float_cmp,
            reason = "max is one of the three costs: exact equality finds the tied maxima"
        )]
        let mut tied = classes
            .into_iter()
            .filter(|&(cost, _)| cost == max)
            .map(|(_, class)| class);
        let pick = self.rng.gen_range(0..tied.clone().count());
        tied.nth(pick).unwrap_or(CostClass::Rejection)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CostClass {
    Rejection,
    DeadlineMiss,
    DataStale,
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRACE: SimDuration = SimDuration::from_secs(50);

    fn lbc(weights: UsmWeights) -> Lbc {
        Lbc::new(weights, GRACE, 7)
    }

    fn feed(lbc: &mut Lbc, outcome: Outcome, n: u64) {
        for _ in 0..n {
            lbc.record(outcome);
        }
    }

    #[test]
    fn grace_period_forces_activation_once_the_window_fills() {
        let mut l = lbc(UsmWeights::naive());
        feed(&mut l, Outcome::Success, 30);
        assert!(!l.should_activate(SimTime::from_secs(10)));
        assert!(l.should_activate(SimTime::from_secs(50)));
    }

    #[test]
    fn sparse_windows_defer_even_the_grace_trigger() {
        let mut l = lbc(UsmWeights::naive());
        feed(&mut l, Outcome::DataStale, 3); // below MIN_WINDOW_SAMPLES
        assert!(
            !l.should_activate(SimTime::from_secs(500)),
            "three outcomes cannot justify a control action"
        );
        feed(&mut l, Outcome::Success, 20);
        assert!(l.should_activate(SimTime::from_secs(500)));
    }

    #[test]
    fn usm_drop_triggers_early_activation() {
        let mut l = lbc(UsmWeights::naive());
        // First window: all success -> USM 1.0.
        feed(&mut l, Outcome::Success, 30);
        let _ = l.activate(SimTime::from_secs(1), 0.5);
        // Second window: half failures -> USM 0.5; drop 0.5 > 1% of span.
        feed(&mut l, Outcome::Success, 15);
        feed(&mut l, Outcome::DeadlineMiss, 15);
        assert!(l.should_activate(SimTime::from_secs(2)));
    }

    #[test]
    fn small_windows_do_not_trigger_on_noise() {
        let mut l = lbc(UsmWeights::naive());
        feed(&mut l, Outcome::Success, 30);
        let _ = l.activate(SimTime::from_secs(1), 0.5);
        // Only 3 samples, all failures: below MIN_WINDOW_SAMPLES.
        feed(&mut l, Outcome::DeadlineMiss, 3);
        assert!(!l.should_activate(SimTime::from_secs(2)));
    }

    #[test]
    fn dominant_rejection_cost_loosens_admission() {
        let mut l = lbc(UsmWeights::penalties(0.8, 0.2, 0.2));
        feed(&mut l, Outcome::Rejected, 10);
        feed(&mut l, Outcome::DeadlineMiss, 5);
        feed(&mut l, Outcome::Success, 85);
        // R = 0.8*0.10 = 0.08 > Fm = 0.2*0.05 = 0.01.
        let signals = l.activate(SimTime::from_secs(60), 0.5);
        assert_eq!(signals, vec![ControlSignal::LoosenAdmission]);
    }

    #[test]
    fn dominant_dmf_cost_degrades_updates_and_tightens() {
        let mut l = lbc(UsmWeights::penalties(0.2, 0.8, 0.2));
        feed(&mut l, Outcome::DeadlineMiss, 20);
        feed(&mut l, Outcome::Rejected, 5);
        feed(&mut l, Outcome::Success, 75);
        let signals = l.activate(SimTime::from_secs(60), 0.5);
        assert_eq!(
            signals,
            vec![
                ControlSignal::DegradeUpdates,
                ControlSignal::TightenAdmission
            ]
        );
    }

    #[test]
    fn dominant_dsf_cost_upgrades_updates() {
        let mut l = lbc(UsmWeights::penalties(0.2, 0.2, 0.8));
        feed(&mut l, Outcome::DataStale, 20);
        feed(&mut l, Outcome::Success, 80);
        let signals = l.activate(SimTime::from_secs(60), 0.5);
        assert_eq!(signals, vec![ControlSignal::UpgradeUpdates]);
    }

    #[test]
    fn naive_weights_use_raw_ratios() {
        let mut l = lbc(UsmWeights::naive());
        // More DSFs than anything else: must upgrade even with zero weights.
        feed(&mut l, Outcome::DataStale, 30);
        feed(&mut l, Outcome::DeadlineMiss, 10);
        feed(&mut l, Outcome::Success, 60);
        let signals = l.activate(SimTime::from_secs(60), 0.5);
        assert_eq!(signals, vec![ControlSignal::UpgradeUpdates]);
    }

    #[test]
    fn clean_window_loosens_admission() {
        let mut l = lbc(UsmWeights::naive());
        feed(&mut l, Outcome::Success, 10);
        assert_eq!(
            l.activate(SimTime::from_secs(60), 0.5),
            vec![ControlSignal::LoosenAdmission]
        );
    }

    #[test]
    fn saturated_rejections_also_shed_updates() {
        // Deviation 9: a rejection-dominated window sheds update load too
        // once utilization reaches SATURATION_UTILIZATION, and only then.
        let rejection_window = |utilization: f64| {
            let mut l = lbc(UsmWeights::penalties(0.8, 0.2, 0.2));
            feed(&mut l, Outcome::Rejected, 10);
            feed(&mut l, Outcome::DeadlineMiss, 5);
            feed(&mut l, Outcome::Success, 85);
            l.activate(SimTime::from_secs(60), utilization)
        };
        assert_eq!(
            rejection_window(SATURATION_UTILIZATION),
            vec![
                ControlSignal::LoosenAdmission,
                ControlSignal::DegradeUpdates
            ]
        );
        assert_eq!(
            rejection_window(0.979),
            vec![ControlSignal::LoosenAdmission]
        );
    }

    #[test]
    fn min_window_gate_opens_at_sixteen_outcomes() {
        // Grace trigger: 15 outcomes never activate, however late; the 16th
        // opens the gate.
        let mut l = lbc(UsmWeights::naive());
        feed(&mut l, Outcome::DeadlineMiss, MIN_WINDOW_SAMPLES - 1);
        assert!(!l.should_activate(SimTime::from_secs(1_000_000)));
        assert_eq!(l.idle_until(), SimTime::MAX);
        feed(&mut l, Outcome::DeadlineMiss, 1);
        assert!(l.should_activate(SimTime::ZERO + GRACE));
        assert_eq!(l.idle_until(), SimTime::ZERO + GRACE);

        // Drop trigger: after a clean window, 15 misses are no drop yet;
        // the 16th makes the activation due at once.
        let mut l = lbc(UsmWeights::naive());
        feed(&mut l, Outcome::Success, 30);
        let _ = l.activate(SimTime::from_secs(1), 0.5);
        feed(&mut l, Outcome::DeadlineMiss, MIN_WINDOW_SAMPLES - 1);
        assert!(!l.should_activate(SimTime::from_secs(2)));
        assert_eq!(l.idle_until(), SimTime::MAX);
        feed(&mut l, Outcome::DeadlineMiss, 1);
        assert!(l.should_activate(SimTime::from_secs(2)));
        assert_eq!(l.idle_until(), SimTime::ZERO);
    }

    #[test]
    fn empty_window_emits_nothing() {
        let mut l = lbc(UsmWeights::naive());
        assert!(l.activate(SimTime::from_secs(60), 0.5).is_empty());
    }

    #[test]
    fn activation_drains_the_window() {
        let mut l = lbc(UsmWeights::naive());
        feed(&mut l, Outcome::Success, 5);
        let _ = l.activate(SimTime::from_secs(60), 0.5);
        assert_eq!(l.window_counts().total(), 0);
        assert_eq!(l.activations(), 1);
        // Immediately after activation the grace period restarts.
        assert!(!l.should_activate(SimTime::from_secs(61)));
    }

    #[test]
    fn ties_are_broken_among_the_tied_classes_only() {
        // R and Fs tied at the max; Fm strictly below. The chosen signal must
        // never be the Fm pair.
        for seed in 0..20 {
            let mut l = Lbc::new(UsmWeights::penalties(0.5, 0.1, 0.5), GRACE, seed);
            feed(&mut l, Outcome::Rejected, 10);
            feed(&mut l, Outcome::DataStale, 10);
            feed(&mut l, Outcome::DeadlineMiss, 10);
            feed(&mut l, Outcome::Success, 70);
            let signals = l.activate(SimTime::from_secs(60), 0.5);
            assert!(
                signals == vec![ControlSignal::LoosenAdmission]
                    || signals == vec![ControlSignal::UpgradeUpdates],
                "unexpected signals {signals:?}"
            );
        }
    }
}
