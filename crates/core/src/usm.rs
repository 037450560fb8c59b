//! The User Satisfaction Metric (§2.3).
//!
//! Per query `q_i`, user satisfaction is a gain or a differentiated penalty
//! (Eq. 3):
//!
//! ```text
//! US(q_i) =  G_s     if q_i meets both qt_i and qf_i
//!           −C_r     if q_i is rejected
//!           −C_fm    if q_i misses its deadline (DMF)
//!           −C_fs    if q_i misses its freshness requirement (DSF)
//! ```
//!
//! The paper normalizes `G_s = 1`. Averaging the total over all submitted
//! queries gives (Eq. 5) `USM = S − R − F_m − F_s`, bounded by
//! `[−max(C_r, C_fm, C_fs), 1]` (§2.3.2).
//!
//! [`UsmWeights`] carries the user-preference knobs, including the Table 2
//! configurations used in the sensitivity experiments. [`OutcomeCounts`] and
//! [`UsmWindow`] do the bookkeeping for both the final report and the LBC's
//! sliding control window.

use crate::types::Outcome;
use serde::{Deserialize, Serialize};
use std::fmt;

/// User-preference weights: the success gain and the three failure penalties,
/// all normalized to the gain (§2.3.1).
///
/// ```
/// use unit_core::usm::{OutcomeCounts, UsmWeights};
/// use unit_core::types::Outcome;
///
/// // Deadline misses are the most annoying failure (Table 2).
/// let w = UsmWeights::low_high_cfm();
/// let mut counts = OutcomeCounts::default();
/// counts.record(Outcome::Success);
/// counts.record(Outcome::Success);
/// counts.record(Outcome::DeadlineMiss);
/// counts.record(Outcome::Rejected);
/// // USM = (2·1 − 0.8 − 0.2) / 4
/// assert!((counts.average_usm(&w) - 0.25).abs() < 1e-12);
/// assert_eq!(w.range(), (-0.8, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UsmWeights {
    /// Success gain `G_s` (1 in the paper).
    pub gain: f64,
    /// Rejection penalty `C_r`.
    pub c_r: f64,
    /// Deadline-Missed Failure penalty `C_fm`.
    pub c_fm: f64,
    /// Data-Stale Failure penalty `C_fs`.
    pub c_fs: f64,
}

impl Default for UsmWeights {
    /// The "naive" setting of §4.3: all penalties zero, so USM equals the
    /// traditional success ratio.
    fn default() -> Self {
        UsmWeights::naive()
    }
}

impl UsmWeights {
    /// All penalties zero — USM degenerates to the success ratio (§4.3).
    pub const fn naive() -> Self {
        UsmWeights {
            gain: 1.0,
            c_r: 0.0,
            c_fm: 0.0,
            c_fs: 0.0,
        }
    }

    /// General constructor with `G_s = 1`.
    pub const fn penalties(c_r: f64, c_fm: f64, c_fs: f64) -> Self {
        UsmWeights {
            gain: 1.0,
            c_r,
            c_fm,
            c_fs,
        }
    }

    /// Table 2, penalties < 1, "high C_r" column: (C_r, C_fm, C_fs) =
    /// (0.8, 0.2, 0.2).
    pub const fn low_high_cr() -> Self {
        UsmWeights::penalties(0.8, 0.2, 0.2)
    }

    /// Table 2, penalties < 1, "high C_fm" column: (0.2, 0.8, 0.2).
    pub const fn low_high_cfm() -> Self {
        UsmWeights::penalties(0.2, 0.8, 0.2)
    }

    /// Table 2, penalties < 1, "high C_fs" column: (0.2, 0.2, 0.8).
    pub const fn low_high_cfs() -> Self {
        UsmWeights::penalties(0.2, 0.2, 0.8)
    }

    /// Table 2, penalties > 1, "high C_r" column: (8, 2, 2).
    pub const fn high_high_cr() -> Self {
        UsmWeights::penalties(8.0, 2.0, 2.0)
    }

    /// Table 2, penalties > 1, "high C_fm" column: (2, 8, 2).
    pub const fn high_high_cfm() -> Self {
        UsmWeights::penalties(2.0, 8.0, 2.0)
    }

    /// Table 2, penalties > 1, "high C_fs" column: (2, 2, 8).
    pub const fn high_high_cfs() -> Self {
        UsmWeights::penalties(2.0, 2.0, 8.0)
    }

    /// True when every penalty is zero (the naive / success-ratio setting).
    pub fn is_naive(&self) -> bool {
        // Penalties are configured literals, not computed values.
        self.c_r == 0.0 && self.c_fm == 0.0 && self.c_fs == 0.0
    }

    /// Per-query satisfaction value for one outcome (Eq. 3).
    pub fn satisfaction(&self, outcome: Outcome) -> f64 {
        match outcome {
            Outcome::Success => self.gain,
            Outcome::Rejected => -self.c_r,
            Outcome::DeadlineMiss => -self.c_fm,
            Outcome::DataStale => -self.c_fs,
        }
    }

    /// The attainable USM interval `[−max penalty, G_s]` (§2.3.2).
    pub fn range(&self) -> (f64, f64) {
        (-self.max_penalty(), self.gain)
    }

    /// Width of the USM range; the LBC threshold is 1% of this (§3.2).
    pub fn range_span(&self) -> f64 {
        self.gain + self.max_penalty()
    }

    /// The largest of the three penalties.
    pub fn max_penalty(&self) -> f64 {
        self.c_r.max(self.c_fm).max(self.c_fs)
    }
}

impl fmt::Display for UsmWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Gs={} Cr={} Cfm={} Cfs={}",
            self.gain, self.c_r, self.c_fm, self.c_fs
        )
    }
}

/// Counts of query outcomes: `N_s`, `N_r`, `N_fm`, `N_fs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Successful queries.
    pub success: u64,
    /// Rejected queries.
    pub rejected: u64,
    /// Deadline-missed failures.
    pub deadline_miss: u64,
    /// Data-stale failures.
    pub data_stale: u64,
}

impl OutcomeCounts {
    /// Record one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Success => self.success += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::DeadlineMiss => self.deadline_miss += 1,
            Outcome::DataStale => self.data_stale += 1,
        }
    }

    /// Total submitted queries accounted for.
    pub fn total(&self) -> u64 {
        self.success + self.rejected + self.deadline_miss + self.data_stale
    }

    /// Count for a specific outcome.
    pub fn count(&self, outcome: Outcome) -> u64 {
        match outcome {
            Outcome::Success => self.success,
            Outcome::Rejected => self.rejected,
            Outcome::DeadlineMiss => self.deadline_miss,
            Outcome::DataStale => self.data_stale,
        }
    }

    /// Ratio of one outcome over the total (`R_s`, `R_r`, `R_fm`, `R_fs` of
    /// §4.5); 0 when no queries have been counted.
    pub fn ratio(&self, outcome: Outcome) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(outcome) as f64 / total as f64
        }
    }

    /// Success ratio `R_s` — the naive USM of §4.3.
    pub fn success_ratio(&self) -> f64 {
        self.ratio(Outcome::Success)
    }

    /// All four ratios `(R_s, R_r, R_fm, R_fs)`, in the paper's order.
    pub fn ratios(&self) -> [f64; 4] {
        [
            self.ratio(Outcome::Success),
            self.ratio(Outcome::Rejected),
            self.ratio(Outcome::DeadlineMiss),
            self.ratio(Outcome::DataStale),
        ]
    }

    /// Total USM (Eq. 4): sum of gains minus the three penalty sums.
    pub fn total_usm(&self, w: &UsmWeights) -> f64 {
        w.gain * self.success as f64
            - w.c_r * self.rejected as f64
            - w.c_fm * self.deadline_miss as f64
            - w.c_fs * self.data_stale as f64
    }

    /// Average USM (Eq. 5): `S − R − F_m − F_s`. Zero before any query.
    pub fn average_usm(&self, w: &UsmWeights) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.total_usm(w) / total as f64
        }
    }

    /// The three average cost components `(R, F_m, F_s)` of Eq. 5.
    pub fn cost_components(&self, w: &UsmWeights) -> [f64; 3] {
        let total = self.total().max(1) as f64;
        [
            w.c_r * self.rejected as f64 / total,
            w.c_fm * self.deadline_miss as f64 / total,
            w.c_fs * self.data_stale as f64 / total,
        ]
    }

    /// Element-wise sum of two count sets.
    pub fn merged(&self, other: &OutcomeCounts) -> OutcomeCounts {
        OutcomeCounts {
            success: self.success + other.success,
            rejected: self.rejected + other.rejected,
            deadline_miss: self.deadline_miss + other.deadline_miss,
            data_stale: self.data_stale + other.data_stale,
        }
    }
}

/// A resettable window over outcome counts — the LBC's view of "what happened
/// since my last activation" (§3.2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UsmWindow {
    counts: OutcomeCounts,
    /// Accumulated success gain, priced per recording.
    gain: f64,
    /// Accumulated rejection cost (`C_r` per rejection), priced per recording.
    cost_r: f64,
    /// Accumulated deadline-miss cost (`C_fm` per DMF).
    cost_fm: f64,
    /// Accumulated data-stale cost (`C_fs` per DSF).
    cost_fs: f64,
}

impl UsmWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one outcome into the window, pricing it with `weights`.
    pub fn record_with(&mut self, outcome: Outcome, weights: &UsmWeights) {
        self.counts.record(outcome);
        match outcome {
            Outcome::Success => self.gain += weights.gain,
            Outcome::Rejected => self.cost_r += weights.c_r,
            Outcome::DeadlineMiss => self.cost_fm += weights.c_fm,
            Outcome::DataStale => self.cost_fs += weights.c_fs,
        }
    }

    /// Record one outcome priced with unit gain and zero penalties (naive).
    pub fn record(&mut self, outcome: Outcome) {
        self.record_with(outcome, &UsmWeights::naive());
    }

    /// Counts accumulated since the last [`UsmWindow::take`].
    pub fn counts(&self) -> &OutcomeCounts {
        &self.counts
    }

    /// Average USM of the window under the per-recording pricing
    /// (`(gain − costs) / n`); 0 for an empty window.
    pub fn average_usm(&self) -> f64 {
        let n = self.counts.total();
        if n == 0 {
            0.0
        } else {
            let costs: f64 = [self.cost_r, self.cost_fm, self.cost_fs].iter().sum();
            (self.gain - costs) / n as f64
        }
    }

    /// Average cost components `(R, F_m, F_s)` under the per-recording
    /// pricing.
    pub fn cost_components(&self) -> [f64; 3] {
        let n = self.counts.total().max(1) as f64;
        [self.cost_r / n, self.cost_fm / n, self.cost_fs / n]
    }

    /// Whether anything has been recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.counts.total() == 0
    }

    /// Drain the window, returning its counts and resetting it.
    pub fn take(&mut self) -> OutcomeCounts {
        let counts = self.counts;
        *self = UsmWindow::default();
        counts
    }

    /// Serialize the window (counts plus priced accumulators) into a
    /// checkpoint stream. See [`crate::checkpoint`].
    pub fn checkpoint_into(&self, enc: &mut crate::checkpoint::Enc) {
        enc.put_u64(self.counts.success);
        enc.put_u64(self.counts.rejected);
        enc.put_u64(self.counts.deadline_miss);
        enc.put_u64(self.counts.data_stale);
        for v in [self.gain, self.cost_r, self.cost_fm, self.cost_fs] {
            enc.put_f64(v);
        }
    }

    /// Restore state captured by [`UsmWindow::checkpoint_into`].
    pub fn restore_from(
        &mut self,
        dec: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        self.counts.success = dec.take_u64()?;
        self.counts.rejected = dec.take_u64()?;
        self.counts.deadline_miss = dec.take_u64()?;
        self.counts.data_stale = dec.take_u64()?;
        for v in [
            &mut self.gain,
            &mut self.cost_r,
            &mut self.cost_fm,
            &mut self.cost_fs,
        ] {
            *v = dec.take_f64()?;
        }
        Ok(())
    }

    /// Drain the window, returning counts plus the priced USM average and
    /// cost components.
    pub fn take_priced(&mut self) -> (OutcomeCounts, f64, [f64; 3]) {
        let usm = self.average_usm();
        let costs = self.cost_components();
        let counts = self.counts;
        *self = UsmWindow::default();
        (counts, usm, costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfaction_matches_eq3() {
        let w = UsmWeights::penalties(0.5, 0.7, 0.3);
        assert_eq!(w.satisfaction(Outcome::Success), 1.0);
        assert_eq!(w.satisfaction(Outcome::Rejected), -0.5);
        assert_eq!(w.satisfaction(Outcome::DeadlineMiss), -0.7);
        assert_eq!(w.satisfaction(Outcome::DataStale), -0.3);
    }

    #[test]
    fn naive_usm_equals_success_ratio() {
        let w = UsmWeights::naive();
        assert!(w.is_naive());
        let mut c = OutcomeCounts::default();
        for _ in 0..6 {
            c.record(Outcome::Success);
        }
        for _ in 0..2 {
            c.record(Outcome::Rejected);
        }
        c.record(Outcome::DeadlineMiss);
        c.record(Outcome::DataStale);
        assert!((c.average_usm(&w) - 0.6).abs() < 1e-12);
        assert!((c.success_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn average_usm_matches_eq5_decomposition() {
        let w = UsmWeights::penalties(0.2, 0.8, 0.2);
        let mut c = OutcomeCounts::default();
        for _ in 0..5 {
            c.record(Outcome::Success);
        }
        for _ in 0..3 {
            c.record(Outcome::Rejected);
        }
        c.record(Outcome::DeadlineMiss);
        c.record(Outcome::DataStale);
        let [r, fm, fs] = c.cost_components(&w);
        let s = c.success_ratio() * w.gain;
        assert!((c.average_usm(&w) - (s - r - fm - fs)).abs() < 1e-12);
        assert!((r - 0.2 * 0.3).abs() < 1e-12);
        assert!((fm - 0.8 * 0.1).abs() < 1e-12);
        assert!((fs - 0.2 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn usm_stays_within_paper_range() {
        let w = UsmWeights::high_high_cfm();
        let (lo, hi) = w.range();
        assert_eq!(lo, -8.0);
        assert_eq!(hi, 1.0);
        assert_eq!(w.range_span(), 9.0);

        // All-success hits the top of the range.
        let mut c = OutcomeCounts::default();
        for _ in 0..10 {
            c.record(Outcome::Success);
        }
        assert_eq!(c.average_usm(&w), hi);

        // All worst-failure hits the bottom.
        let mut c = OutcomeCounts::default();
        for _ in 0..10 {
            c.record(Outcome::DeadlineMiss);
        }
        assert_eq!(c.average_usm(&w), lo);
    }

    #[test]
    fn table2_presets_match_paper() {
        assert_eq!(
            UsmWeights::low_high_cr(),
            UsmWeights::penalties(0.8, 0.2, 0.2)
        );
        assert_eq!(
            UsmWeights::low_high_cfm(),
            UsmWeights::penalties(0.2, 0.8, 0.2)
        );
        assert_eq!(
            UsmWeights::low_high_cfs(),
            UsmWeights::penalties(0.2, 0.2, 0.8)
        );
        assert_eq!(
            UsmWeights::high_high_cr(),
            UsmWeights::penalties(8.0, 2.0, 2.0)
        );
        assert_eq!(
            UsmWeights::high_high_cfm(),
            UsmWeights::penalties(2.0, 8.0, 2.0)
        );
        assert_eq!(
            UsmWeights::high_high_cfs(),
            UsmWeights::penalties(2.0, 2.0, 8.0)
        );
        for w in [UsmWeights::low_high_cr(), UsmWeights::high_high_cfs()] {
            assert!(!w.is_naive());
        }
    }

    #[test]
    fn ratios_sum_to_one_when_nonempty() {
        let mut c = OutcomeCounts::default();
        c.record(Outcome::Success);
        c.record(Outcome::Rejected);
        c.record(Outcome::Rejected);
        c.record(Outcome::DataStale);
        let sum: f64 = c.ratios().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(c.total(), 4);
        assert_eq!(c.count(Outcome::Rejected), 2);
    }

    #[test]
    fn empty_counts_are_neutral() {
        let c = OutcomeCounts::default();
        assert_eq!(c.total(), 0);
        assert_eq!(c.average_usm(&UsmWeights::naive()), 0.0);
        assert_eq!(c.ratios(), [0.0; 4]);
    }

    #[test]
    fn window_take_resets() {
        let mut w = UsmWindow::new();
        assert!(w.is_empty());
        w.record(Outcome::Success);
        w.record(Outcome::DeadlineMiss);
        assert!(!w.is_empty());
        let counts = w.take();
        assert_eq!(counts.success, 1);
        assert_eq!(counts.deadline_miss, 1);
        assert!(w.is_empty());
        assert_eq!(w.counts().total(), 0);
    }

    #[test]
    fn merged_adds_counts() {
        let mut a = OutcomeCounts::default();
        a.record(Outcome::Success);
        let mut b = OutcomeCounts::default();
        b.record(Outcome::Rejected);
        b.record(Outcome::Success);
        let m = a.merged(&b);
        assert_eq!(m.success, 2);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.total(), 3);
    }
}
