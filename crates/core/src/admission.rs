//! Query Admission Control (§3.3).
//!
//! Two gates:
//!
//! 1. **Transaction deadline check** — is the query *promising*? Using the
//!    Earliest-possible Start Time (EST = all work that would run before it
//!    under the dual-priority EDF discipline), admit only if
//!    `C_flex · EST_i + qe_i < qt_i`. The lag ratio `C_flex` starts at 1 and
//!    is the controller's admission knob: TAC/LAC signals move it ±10%
//!    (larger `C_flex` = tighter admission). Against the engine's
//!    deadline-indexed view the EST probe is `O(log N_rq)`.
//!
//! 2. **System USM check** — would admitting the query cost more than
//!    rejecting it? Admitting inserts `qe_i` of work ahead of every admitted
//!    query with a later deadline; queries that were on track but would now
//!    miss are *endangered*. If their summed DMF penalty exceeds the
//!    rejection penalty `C_r`, reject the newcomer. The scan starts from an
//!    `O(log N_rq)` prefix sum and walks only strictly-later incumbents,
//!    stopping the moment the cost threshold is crossed.

use crate::policy::AdmissionDecision;
use crate::snapshot::SnapshotView;
use crate::types::QuerySpec;
use crate::usm::UsmWeights;
use serde::{Deserialize, Serialize};

/// Why an admission decision came out the way it did (for logs and tests).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionVerdict {
    /// Passed both checks.
    Admitted,
    /// Failed the deadline check: could not plausibly finish in time.
    NotPromising {
        /// `C_flex · EST + qe` in seconds, the left side of the test.
        projected_secs: f64,
        /// `qt` in seconds, the right side of the test.
        deadline_secs: f64,
    },
    /// Failed the system-USM check: admitting endangers more USM than the
    /// rejection costs.
    EndangersSystem {
        /// Summed `C_fm` over endangered transactions, up to the first
        /// point the sum exceeded `rejection_cost` (the scan short-circuits
        /// once the verdict is decided).
        endangered_cost: f64,
        /// The newcomer's rejection penalty `C_r`.
        rejection_cost: f64,
    },
}

impl AdmissionVerdict {
    /// Collapse to the binary decision a policy must return.
    pub fn decision(&self) -> AdmissionDecision {
        match self {
            AdmissionVerdict::Admitted => AdmissionDecision::Admit,
            _ => AdmissionDecision::Reject,
        }
    }
}

/// The admission-control state machine: holds `C_flex` and evaluates both
/// checks against a [`SnapshotView`].
///
/// ```
/// use unit_core::admission::{AdmissionControl, AdmissionVerdict};
/// use unit_core::snapshot::SystemSnapshot;
/// use unit_core::time::{SimDuration, SimTime};
/// use unit_core::types::{DataId, QueryId, QuerySpec};
/// use unit_core::usm::UsmWeights;
///
/// let ac = AdmissionControl::default();
/// let q = QuerySpec {
///     id: QueryId(1),
///     arrival: SimTime::ZERO,
///     items: vec![DataId(0)],
///     exec_time: SimDuration::from_secs(10),
///     relative_deadline: SimDuration::from_secs(5), // cannot finish in time
///     freshness_req: 0.9,
///     pref_class: 0,
/// };
/// let idle = SystemSnapshot::empty(SimTime::ZERO);
/// assert!(matches!(
///     ac.evaluate(&q, &idle.view(), &UsmWeights::naive()),
///     AdmissionVerdict::NotPromising { .. }
/// ));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionControl {
    c_flex: f64,
    step: f64,
    min_c_flex: f64,
    max_c_flex: f64,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        // The floor keeps the deadline check meaningful even after long
        // failure-free stretches of LAC signals: with C_flex = 0.25 a query
        // whose backlog-projected start already eats 4x its allowance is
        // still turned away the moment a flash crowd hits.
        AdmissionControl::new(1.0, 0.10, 0.25, 16.0)
    }
}

impl AdmissionControl {
    /// Build with an initial `C_flex`, a TAC/LAC step fraction (0.10 in the
    /// paper), and clamping bounds that keep the knob responsive in both
    /// directions.
    ///
    /// # Panics
    /// Panics if the bounds or step are not sensible
    /// (`0 < min ≤ initial ≤ max`, `0 < step < 1`).
    pub fn new(initial_c_flex: f64, step: f64, min_c_flex: f64, max_c_flex: f64) -> Self {
        assert!(
            step > 0.0 && step < 1.0,
            "step must be in (0,1), got {step}"
        );
        assert!(
            0.0 < min_c_flex && min_c_flex <= initial_c_flex && initial_c_flex <= max_c_flex,
            "need 0 < min <= initial <= max C_flex"
        );
        AdmissionControl {
            c_flex: initial_c_flex,
            step,
            min_c_flex,
            max_c_flex,
        }
    }

    /// Current value of the lag ratio `C_flex`.
    pub fn c_flex(&self) -> f64 {
        self.c_flex
    }

    /// True when `C_flex` sits at its lower clamp — admission is as loose
    /// as this controller can make it, so further LAC signals are no-ops.
    pub fn at_floor(&self) -> bool {
        self.c_flex <= self.min_c_flex * 1.0001
    }

    /// TAC signal: tighten admission (`C_flex` up one step).
    pub fn tighten(&mut self) {
        self.c_flex = (self.c_flex * (1.0 + self.step)).min(self.max_c_flex);
    }

    /// LAC signal: loosen admission (`C_flex` down one step).
    pub fn loosen(&mut self) {
        self.c_flex = (self.c_flex * (1.0 - self.step)).max(self.min_c_flex);
    }

    /// Evaluate both admission checks for query `q` against the view:
    /// `weights.c_r` prices the arriving query's rejection and
    /// `weights.c_fm` each endangered incumbent's deadline miss.
    pub fn evaluate(
        &self,
        q: &QuerySpec,
        sys: &SnapshotView<'_>,
        weights: &UsmWeights,
    ) -> AdmissionVerdict {
        // --- Transaction deadline check -------------------------------
        // EST_i = work ahead of q under dual-priority EDF (relative to now).
        // One O(log N_rq) prefix-sum probe against the engine's index.
        let est = sys.work_ahead_of(q.deadline());
        let projected = self.c_flex * est.as_secs_f64() + q.exec_time.as_secs_f64();
        let allowance = q.relative_deadline.as_secs_f64();
        if projected >= allowance {
            return AdmissionVerdict::NotPromising {
                projected_secs: projected,
                deadline_secs: allowance,
            };
        }

        // --- System USM check ------------------------------------------
        let endangered_cost = Self::endangered_cost(q, sys, weights.c_fm, weights.c_r);
        if endangered_cost > weights.c_r {
            return AdmissionVerdict::EndangersSystem {
                endangered_cost,
                rejection_cost: weights.c_r,
            };
        }
        AdmissionVerdict::Admitted
    }

    /// Serialize the full control state (knob plus static bounds) into a
    /// checkpoint stream. See [`crate::checkpoint`].
    pub fn checkpoint_into(&self, enc: &mut crate::checkpoint::Enc) {
        enc.put_f64(self.c_flex);
        enc.put_f64(self.step);
        enc.put_f64(self.min_c_flex);
        enc.put_f64(self.max_c_flex);
    }

    /// Restore state captured by [`AdmissionControl::checkpoint_into`].
    pub fn restore_from(
        &mut self,
        dec: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        self.c_flex = dec.take_f64()?;
        self.step = dec.take_f64()?;
        self.min_c_flex = dec.take_f64()?;
        self.max_c_flex = dec.take_f64()?;
        Ok(())
    }

    /// Summed DMF penalty of the admitted queries that `q` would push past
    /// their deadlines: a query is *endangered* when it completes in time
    /// without `q` but not with `q`'s `qe` inserted ahead of it. Each
    /// endangered incumbent costs `c_fm`.
    ///
    /// Incumbents with deadlines at or before the newcomer's are never
    /// delayed, so their work is folded in via one `O(log N_rq)` prefix
    /// probe and the scan visits only strictly-later incumbents (in EDF
    /// `(deadline, id)` order — integer microsecond sums make this exactly
    /// equal to the full sequential accumulation). The scan stops as soon
    /// as the accumulated cost exceeds `stop_above`: the verdict is decided
    /// and every summand is non-negative.
    fn endangered_cost(q: &QuerySpec, sys: &SnapshotView<'_>, c_fm: f64, stop_above: f64) -> f64 {
        if sys.ready_queue_len() == 0 {
            return 0.0;
        }
        let newcomer_deadline = q.deadline();
        let qe = q.exec_time;
        let now = sys.now;

        let mut cost = 0.0;
        // Running sum of work ahead of each incumbent: update backlog plus
        // every admitted query at or before the newcomer's deadline (none
        // of which the newcomer can delay — ties favor the incumbent).
        let mut ahead = sys.work_ahead_of(newcomer_deadline);
        sys.for_each_later(newcomer_deadline, |entry| {
            let finish_without = now + ahead + entry.remaining;
            let finish_with = finish_without + qe;
            if finish_without <= entry.deadline && finish_with > entry.deadline {
                cost += c_fm;
                if cost > stop_above {
                    return false;
                }
            }
            ahead += entry.remaining;
            true
        });
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{QueueEntryView, SystemSnapshot};
    use crate::time::{SimDuration, SimTime};
    use crate::types::{DataId, QueryId};

    fn query(id: u64, arrival_s: u64, exec_s: u64, deadline_s: u64) -> QuerySpec {
        QuerySpec {
            id: QueryId(id),
            arrival: SimTime::from_secs(arrival_s),
            items: vec![DataId(0)],
            exec_time: SimDuration::from_secs(exec_s),
            relative_deadline: SimDuration::from_secs(deadline_s),
            freshness_req: 0.9,
            pref_class: 0,
        }
    }

    fn entry(id: u64, deadline_s: u64, remaining_s: u64) -> QueueEntryView {
        QueueEntryView {
            id: QueryId(id),
            deadline: SimTime::from_secs(deadline_s),
            remaining: SimDuration::from_secs(remaining_s),
        }
    }

    #[test]
    fn idle_server_admits_feasible_query() {
        let ac = AdmissionControl::default();
        let sys = SystemSnapshot::empty(SimTime::ZERO);
        let verdict = ac.evaluate(&query(1, 0, 2, 10), &sys.view(), &UsmWeights::naive());
        assert_eq!(verdict, AdmissionVerdict::Admitted);
    }

    #[test]
    fn infeasible_deadline_is_rejected_even_when_idle() {
        let ac = AdmissionControl::default();
        let sys = SystemSnapshot::empty(SimTime::ZERO);
        // exec 10s, deadline 5s: cannot possibly finish.
        let verdict = ac.evaluate(&query(1, 0, 10, 5), &sys.view(), &UsmWeights::naive());
        assert!(matches!(verdict, AdmissionVerdict::NotPromising { .. }));
        assert_eq!(verdict.decision(), AdmissionDecision::Reject);
    }

    #[test]
    fn backlog_ahead_fails_the_deadline_check() {
        let ac = AdmissionControl::default();
        let mut sys = SystemSnapshot::empty(SimTime::ZERO);
        sys.update_backlog = SimDuration::from_secs(9);
        // EST 9 + exec 2 = 11 >= deadline 10 -> not promising.
        let verdict = ac.evaluate(&query(1, 0, 2, 10), &sys.view(), &UsmWeights::naive());
        assert!(matches!(verdict, AdmissionVerdict::NotPromising { .. }));
        // With deadline 12 it fits.
        let verdict = ac.evaluate(&query(1, 0, 2, 12), &sys.view(), &UsmWeights::naive());
        assert_eq!(verdict, AdmissionVerdict::Admitted);
    }

    #[test]
    fn only_earlier_deadline_work_counts_toward_est() {
        let ac = AdmissionControl::default();
        let mut sys = SystemSnapshot::empty(SimTime::ZERO);
        // One admitted query with a *later* deadline: does not precede us.
        sys.queries.push(entry(7, 100, 50));
        let verdict = ac.evaluate(&query(1, 0, 2, 10), &sys.view(), &UsmWeights::naive());
        assert_eq!(verdict, AdmissionVerdict::Admitted);
    }

    #[test]
    fn tighten_scales_est_and_flips_marginal_admissions() {
        let mut ac = AdmissionControl::default();
        let mut sys = SystemSnapshot::empty(SimTime::ZERO);
        sys.update_backlog = SimDuration::from_secs(7);
        let q = query(1, 0, 2, 10); // 1.0*7 + 2 = 9 < 10 -> admit
        assert_eq!(
            ac.evaluate(&q, &sys.view(), &UsmWeights::naive()),
            AdmissionVerdict::Admitted
        );
        ac.tighten(); // C_flex = 1.1 -> 1.1*7 + 2 = 9.7 < 10 -> still admit
        assert_eq!(
            ac.evaluate(&q, &sys.view(), &UsmWeights::naive()),
            AdmissionVerdict::Admitted
        );
        ac.tighten(); // C_flex = 1.21 -> 10.47 >= 10 -> reject
        assert!(matches!(
            ac.evaluate(&q, &sys.view(), &UsmWeights::naive()),
            AdmissionVerdict::NotPromising { .. }
        ));
        // Loosening twice restores admission (0.9-steps undershoot 1.0 a bit).
        ac.loosen();
        ac.loosen();
        assert_eq!(
            ac.evaluate(&q, &sys.view(), &UsmWeights::naive()),
            AdmissionVerdict::Admitted
        );
    }

    #[test]
    fn c_flex_respects_bounds() {
        let mut ac = AdmissionControl::new(1.0, 0.10, 0.5, 2.0);
        for _ in 0..100 {
            ac.tighten();
        }
        assert!((ac.c_flex() - 2.0).abs() < 1e-12);
        for _ in 0..100 {
            ac.loosen();
        }
        assert!((ac.c_flex() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn endangering_more_cost_than_rejection_gets_rejected() {
        let ac = AdmissionControl::default();
        let weights = UsmWeights::penalties(0.2, 0.8, 0.2); // C_fm > C_r
        let mut sys = SystemSnapshot::empty(SimTime::ZERO);
        // Incumbent: deadline 12s, 8s remaining -> finishes at 8s, slack 4s.
        sys.queries.push(entry(7, 12, 8));
        // Newcomer: exec 5s, deadline 6s (earlier) -> runs first, pushes the
        // incumbent to 13s > 12s: endangered, cost 0.8 > C_r 0.2 -> reject.
        let q = query(1, 0, 5, 6);
        let verdict = ac.evaluate(&q, &sys.view(), &weights);
        assert_eq!(
            verdict,
            AdmissionVerdict::EndangersSystem {
                endangered_cost: 0.8,
                rejection_cost: 0.2
            }
        );
    }

    #[test]
    fn cheap_dmf_lets_the_endangering_query_in() {
        let ac = AdmissionControl::default();
        // C_r > C_fm: rejecting is worse than one endangered incumbent.
        let weights = UsmWeights::penalties(0.8, 0.2, 0.2);
        let mut sys = SystemSnapshot::empty(SimTime::ZERO);
        sys.queries.push(entry(7, 12, 8));
        let q = query(1, 0, 5, 6);
        assert_eq!(
            ac.evaluate(&q, &sys.view(), &weights),
            AdmissionVerdict::Admitted
        );
    }

    #[test]
    fn naive_weights_disable_the_usm_check() {
        let ac = AdmissionControl::default();
        let mut sys = SystemSnapshot::empty(SimTime::ZERO);
        sys.queries.push(entry(7, 12, 8));
        let q = query(1, 0, 5, 6);
        // All penalties zero: 0 > 0 is false, so only the deadline check acts.
        assert_eq!(
            ac.evaluate(&q, &sys.view(), &UsmWeights::naive()),
            AdmissionVerdict::Admitted
        );
    }

    #[test]
    fn incumbents_already_doomed_are_not_counted_as_endangered() {
        let ac = AdmissionControl::default();
        let weights = UsmWeights::penalties(0.0, 1.0, 0.0);
        let mut sys = SystemSnapshot::empty(SimTime::ZERO);
        // Incumbent already cannot make it (deadline 5s, remaining 8s).
        sys.queries.push(entry(7, 5, 8));
        let q = query(1, 0, 1, 2);
        // It was doomed with or without the newcomer: not endangered.
        assert_eq!(
            ac.evaluate(&q, &sys.view(), &weights),
            AdmissionVerdict::Admitted
        );
    }

    #[test]
    fn endangered_cost_accumulates_over_multiple_incumbents() {
        let ac = AdmissionControl::default();
        let weights = UsmWeights::penalties(1.5, 1.0, 0.0);
        let mut sys = SystemSnapshot::empty(SimTime::ZERO);
        // Two incumbents, each with exactly 1s of slack.
        sys.queries.push(entry(7, 9, 8)); // finishes 8, deadline 9
        sys.queries.push(entry(8, 19, 10)); // finishes 18, deadline 19
                                            // Newcomer exec 2s, deadline 3s: delays both past their deadlines.
        let q = query(1, 0, 2, 3);
        let verdict = ac.evaluate(&q, &sys.view(), &weights);
        assert_eq!(
            verdict,
            AdmissionVerdict::EndangersSystem {
                endangered_cost: 2.0,
                rejection_cost: 1.5
            }
        );
    }
}
