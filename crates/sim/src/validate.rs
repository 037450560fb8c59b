//! Debug-mode runtime invariant checks for the simulator (feature
//! `validate`).
//!
//! The engine keeps two incremental accounting structures on its hot path:
//! the *work index* (remaining admitted-query work per deadline, behind
//! every `work_ahead_of` probe) and the [`OutcomeCounts`] tallies behind the
//! USM report. Both are shadows of state that can be recomputed naively.
//! The work index is recounted inline by the engine (an O(N) walk over the
//! admitted set compared against [`crate::worktreap::WorkTreap::entries`]);
//! the USM identity checker lives here. The engine invokes both at every
//! control tick and at end of run — see the conventions in
//! [`unit_core::validate`].

use unit_core::types::Outcome;
use unit_core::usm::{OutcomeCounts, UsmWeights};

/// Recount the outcome tallies from the raw per-query log and re-derive the
/// USM identity `G_s·N_s − C_r·N_r − C_fm·N_fm − C_fs·N_fs` (Eq. 4) as a
/// per-outcome satisfaction sum, comparing both against the engine's
/// incremental [`OutcomeCounts`].
pub fn check_usm_identity(
    counts: &OutcomeCounts,
    outcomes: &[Outcome],
    weights: &UsmWeights,
) -> Result<(), String> {
    let mut recount = OutcomeCounts::default();
    for &o in outcomes {
        recount.record(o);
    }
    if recount != *counts {
        return Err(format!(
            "outcome tallies diverge: recounted {recount:?}, engine kept {counts:?}"
        ));
    }
    let naive: f64 = outcomes.iter().map(|&o| weights.satisfaction(o)).sum();
    let fast = counts.total_usm(weights);
    let tol = 1e-9 * naive.abs().max(1.0);
    if (naive - fast).abs() > tol {
        return Err(format!(
            "USM identity: per-outcome satisfaction sum {naive}, closed form {fast}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usm_identity_holds_for_matching_log_and_counts() {
        let outcomes = [
            Outcome::Success,
            Outcome::Success,
            Outcome::Rejected,
            Outcome::DeadlineMiss,
            Outcome::DataStale,
        ];
        let mut counts = OutcomeCounts::default();
        for &o in &outcomes {
            counts.record(o);
        }
        let weights = UsmWeights::high_high_cfs();
        assert_eq!(check_usm_identity(&counts, &outcomes, &weights), Ok(()));
    }

    #[test]
    fn diverging_tallies_trip_the_checker() {
        let outcomes = [Outcome::Success, Outcome::Rejected];
        let mut counts = OutcomeCounts::default();
        for &o in &outcomes {
            counts.record(o);
        }
        counts.success += 1; // a double-counted outcome
        let weights = UsmWeights::naive();
        let err = check_usm_identity(&counts, &outcomes, &weights).unwrap_err();
        assert!(err.contains("diverge"), "{err}");
    }
}
