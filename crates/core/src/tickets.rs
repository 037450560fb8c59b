//! Ticket accounting for update-degradation victim selection (§3.4.1).
//!
//! Each data item `d_j` carries a ticket value `T_j`. The *larger* the
//! ticket, the more likely the item is picked by the lottery as the next
//! degradation victim — so the rules push tickets **up** for items the
//! system spends much time updating and **down** for items that queries
//! actually need:
//!
//! * **Query effect** (Eq. 6): each query access to `d_j` decreases the
//!   ticket by the query's CPU-utilization share `DT_j = qe_i / qt_i`.
//! * **Update effect** (Eq. 7): each update of `d_j` increases the ticket by
//!   the sigmoid of how much its execution time exceeds the system-wide
//!   average: `IT_j = 1 / (1 + e^{ue_avg − ue_j})`.
//! * **Forgetting** (Eq. 8): before every adjustment the old ticket is scaled
//!   by `C_forget` (0.9 in the paper, following adaptive-filter practice), so
//!   the table tracks the *current* access/update mix.
//!
//! Raw tickets may go negative; for the lottery the table exposes
//! `T_j − T_min` (§3.4.1), which is non-negative by construction.

use serde::{Deserialize, Serialize};

/// Sigmoid used by the update effect: smooth, outlier-tolerant mapping of
/// execution-time differences into `(0, 1)` (Eq. 7).
///
/// The paper's formula exponentiates the raw difference in seconds, which
/// degenerates to a step function whenever execution times are not O(1 s)
/// (e.g. `e^±48` for this reproduction's 48–144 s updates). `scale` divides
/// the difference before exponentiation; passing the dispersion of the
/// update execution times keeps the sigmoid in its informative range.
/// `scale = 1` recovers the paper's formula exactly.
pub fn update_increment(ue_avg_secs: f64, ue_secs: f64, scale: f64) -> f64 {
    let s = if scale > 0.0 { scale } else { 1.0 };
    1.0 / (1.0 + ((ue_avg_secs - ue_secs) / s).exp())
}

/// Per-item ticket table with exponential forgetting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TicketTable {
    tickets: Vec<f64>,
    c_forget: f64,
    /// Average update execution time `ue_avg` across all streams, seconds.
    ue_avg_secs: f64,
    /// Sigmoid normalization scale (dispersion of update execution times).
    ue_scale_secs: f64,
}

impl TicketTable {
    /// A table of `n_items` zero tickets.
    ///
    /// # Panics
    /// Panics unless `c_forget ∈ (0, 1]`.
    pub fn new(n_items: usize, c_forget: f64, ue_avg_secs: f64) -> Self {
        Self::with_scale(n_items, c_forget, ue_avg_secs, 1.0)
    }

    /// Like [`TicketTable::new`] with an explicit sigmoid scale (see
    /// [`update_increment`]).
    pub fn with_scale(n_items: usize, c_forget: f64, ue_avg_secs: f64, ue_scale_secs: f64) -> Self {
        assert!(
            c_forget > 0.0 && c_forget <= 1.0,
            "C_forget must be in (0,1], got {c_forget}"
        );
        TicketTable {
            tickets: vec![0.0; n_items],
            c_forget,
            ue_avg_secs,
            ue_scale_secs: if ue_scale_secs > 0.0 {
                ue_scale_secs
            } else {
                1.0
            },
        }
    }

    /// Number of items tracked.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// True when the table tracks no items.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Raw ticket value `T_j` (may be negative).
    ///
    /// # Panics
    /// Panics if `item` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "out-of-range item is the documented panic contract"
    )]
    pub fn raw(&self, item: usize) -> f64 {
        self.tickets[item]
    }

    /// The configured forgetting factor.
    pub fn c_forget(&self) -> f64 {
        self.c_forget
    }

    /// The average update execution time the sigmoid is centered on.
    pub fn ue_avg_secs(&self) -> f64 {
        self.ue_avg_secs
    }

    /// Query effect (Eq. 6 + Eq. 8): `T_j ← T_j · C_forget − qe/qt`.
    ///
    /// `cpu_share` is the accessing query's `qe_i / qt_i`.
    pub fn on_query_access(&mut self, item: usize, cpu_share: f64) {
        debug_assert!(cpu_share >= 0.0);
        #[expect(
            clippy::indexing_slicing,
            reason = "callers pass item ids from the validated trace, all < n_items"
        )]
        let t = &mut self.tickets[item];
        *t = *t * self.c_forget - cpu_share;
    }

    /// Update effect (Eq. 7 + Eq. 8):
    /// `T_j ← T_j · C_forget + sigmoid((ue_j − ue_avg)/scale)`.
    pub fn on_update(&mut self, item: usize, ue_secs: f64) {
        let inc = update_increment(self.ue_avg_secs, ue_secs, self.ue_scale_secs);
        #[expect(
            clippy::indexing_slicing,
            reason = "callers pass item ids from the validated trace, all < n_items"
        )]
        let t = &mut self.tickets[item];
        *t = *t * self.c_forget + inc;
    }

    /// Pre-seed an item's ticket (warm start). The policy seeds each item
    /// that has an update stream with one average update's worth of ticket
    /// (+0.5), so the very first `DegradeUpdates` signals can already tell
    /// updated items from stream-less ones instead of waiting one full
    /// update period per item to observe a commit. Query accesses quickly
    /// drive the hot items negative again.
    #[expect(
        clippy::indexing_slicing,
        reason = "seeding iterates the policy's own 0..n_items range"
    )]
    pub fn seed(&mut self, item: usize, value: f64) {
        self.tickets[item] = value;
    }

    /// Sum of every raw ticket, left to right. The modulation path reads
    /// tickets but must never write them; validate mode compares this sum
    /// bit-for-bit around each degrade/upgrade signal (see
    /// [`crate::validate`]).
    pub fn ticket_sum(&self) -> f64 {
        self.tickets.iter().sum()
    }

    /// Serialize every ticket plus the forgetting/sigmoid parameters into a
    /// checkpoint stream. See [`crate::checkpoint`].
    pub fn checkpoint_into(&self, enc: &mut crate::checkpoint::Enc) {
        enc.put_f64_slice(&self.tickets);
        enc.put_f64(self.c_forget);
        enc.put_f64(self.ue_avg_secs);
        enc.put_f64(self.ue_scale_secs);
    }

    /// Restore state captured by [`TicketTable::checkpoint_into`].
    pub fn restore_from(
        &mut self,
        dec: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let tickets = dec.take_f64_vec()?;
        if tickets.len() != self.tickets.len() {
            return Err(crate::checkpoint::CheckpointError::Mismatch {
                what: "ticket table size",
            });
        }
        self.tickets = tickets;
        self.c_forget = dec.take_f64()?;
        self.ue_avg_secs = dec.take_f64()?;
        self.ue_scale_secs = dec.take_f64()?;
        Ok(())
    }

    /// Lottery weights per the paper (§3.4.1): tickets shifted by `−T_min`
    /// so every weight is non-negative. The minimum-ticket item gets weight
    /// zero and is therefore never degraded — it is the item queries value
    /// most relative to its update cost.
    ///
    /// Caveat: when the ticket distribution is heavy-tailed (one very hot
    /// item with a large negative ticket), the shift flattens the *relative*
    /// differences among everything else — mildly query-relevant items end
    /// up with almost the same victim odds as never-queried ones. See
    /// [`TicketTable::clamped_weights`] for the sharper variant.
    pub fn shifted_weights(&self) -> Vec<f64> {
        let mut weights = Vec::new();
        self.shifted_weights_into(&mut weights);
        weights
    }

    /// [`TicketTable::shifted_weights`] written into `out` (cleared first),
    /// so a caller that draws every signal reuses one buffer.
    pub fn shifted_weights_into(&self, out: &mut Vec<f64>) {
        out.clear();
        let t_min = self.tickets.iter().copied().fold(f64::INFINITY, f64::min);
        if t_min.is_finite() {
            out.extend(self.tickets.iter().map(|&t| t - t_min));
        } else {
            out.resize(self.tickets.len(), 0.0);
        }
    }

    /// Lottery weights clamped at zero: `max(T_j, 0)`.
    ///
    /// A negative ticket means the item's (forgetting-weighted) query value
    /// exceeds its update cost — degrading it risks Data-Stale Failures for
    /// no CPU it could not have saved elsewhere. Clamping gives every such
    /// item zero victim odds instead of the small-but-harmful odds the
    /// global shift leaves them with. Documented deviation from §3.4.1
    /// (which subtracts `T_min`); the ablation benches compare both.
    pub fn clamped_weights(&self) -> Vec<f64> {
        let mut weights = Vec::new();
        self.clamped_weights_into(&mut weights);
        weights
    }

    /// [`TicketTable::clamped_weights`] written into `out` (cleared first).
    pub fn clamped_weights_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.tickets.iter().map(|&t| t.max(0.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_centered_and_monotone() {
        // Equal execution time -> exactly 1/2.
        assert!((update_increment(1.0, 1.0, 1.0) - 0.5).abs() < 1e-12);
        // Longer-than-average updates increase tickets faster.
        assert!(update_increment(1.0, 2.0, 1.0) > 0.5);
        assert!(update_increment(1.0, 0.5, 1.0) < 0.5);
        // Bounded even for outliers (saturates smoothly toward the limits).
        assert!(update_increment(1.0, 10.0, 1.0) < 1.0);
        assert!(update_increment(1.0, -10.0, 1.0) > 0.0);
        assert!(update_increment(1.0, 1000.0, 1.0) <= 1.0);
        assert!(update_increment(1.0, -1000.0, 1.0) >= 0.0);
        // Scale normalization keeps large absolute differences informative.
        let lo = update_increment(96.0, 48.0, 28.0);
        let hi = update_increment(96.0, 144.0, 28.0);
        assert!(lo > 0.1 && lo < 0.5, "low-cost update increment {lo}");
        assert!(hi > 0.5 && hi < 0.9, "high-cost update increment {hi}");
    }

    #[test]
    fn query_accesses_decrease_tickets() {
        let mut t = TicketTable::new(3, 0.9, 1.0);
        t.on_query_access(0, 0.25);
        assert!((t.raw(0) - (-0.25)).abs() < 1e-12);
        // Second access: forget then subtract.
        t.on_query_access(0, 0.25);
        assert!((t.raw(0) - (-0.25 * 0.9 - 0.25)).abs() < 1e-12);
        assert_eq!(t.raw(1), 0.0);
    }

    #[test]
    fn updates_increase_tickets() {
        let mut t = TicketTable::new(2, 0.9, 1.0);
        t.on_update(1, 1.0);
        assert!((t.raw(1) - 0.5).abs() < 1e-12);
        t.on_update(1, 1.0);
        assert!((t.raw(1) - (0.5 * 0.9 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn forgetting_bounds_ticket_growth() {
        // With C_forget < 1 tickets converge to inc / (1 - C_forget).
        let mut t = TicketTable::new(1, 0.9, 1.0);
        for _ in 0..10_000 {
            t.on_update(0, 1.0);
        }
        let limit = 0.5 / (1.0 - 0.9);
        assert!((t.raw(0) - limit).abs() < 1e-6, "got {}", t.raw(0));
    }

    #[test]
    fn no_forgetting_keeps_full_history() {
        // C_forget = 1: "all historical accesses and updates are effective".
        let mut t = TicketTable::new(1, 1.0, 1.0);
        for _ in 0..4 {
            t.on_update(0, 1.0);
        }
        assert!((t.raw(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_weights_are_nonnegative_with_zero_at_min() {
        let mut t = TicketTable::new(3, 0.9, 1.0);
        t.on_query_access(0, 0.9); // heavily queried -> most negative
        t.on_update(1, 2.0); // heavily updated -> most positive
        let w = t.shifted_weights();
        assert!(w.iter().all(|&x| x >= 0.0));
        assert_eq!(w[0], 0.0, "minimum-ticket item gets zero weight");
        assert!(w[1] > w[2], "hot-updated item outweighs untouched item");
    }

    #[test]
    fn hot_updated_cold_accessed_items_dominate_the_lottery() {
        // The §4.2 observation: updates on cold-accessed & hot-updated data
        // should be dropped more often than on hot-accessed & cold-updated.
        let mut t = TicketTable::new(2, 0.9, 1.0);
        // Item 0: hot accessed, cold updated.
        for _ in 0..50 {
            t.on_query_access(0, 0.2);
        }
        t.on_update(0, 1.0);
        // Item 1: cold accessed, hot updated.
        for _ in 0..50 {
            t.on_update(1, 1.0);
        }
        t.on_query_access(1, 0.2);
        let w = t.shifted_weights();
        assert!(
            w[1] > 10.0 * w[0].max(1e-9),
            "victim odds must strongly favor item 1: {w:?}"
        );
    }

    #[test]
    #[should_panic(expected = "C_forget")]
    fn invalid_forgetting_factor_is_rejected() {
        TicketTable::new(1, 0.0, 1.0);
    }
}
