//! Debug-mode runtime invariant checking (feature `validate`).
//!
//! The hot paths in this workspace maintain incremental structures — Fenwick
//! prefix sums, modulated update periods, lottery samplers — whose
//! correctness is an *invariant*, not a type. With the `validate` feature
//! enabled, those invariants are re-derived the naive way (O(N) recounts)
//! and compared against the fast-path state at coarse boundaries (control
//! ticks, batch signals). A mismatch aborts the run immediately, at the
//! boundary where the divergence first became observable, instead of
//! surfacing thousands of events later as a subtly wrong report.
//!
//! Conventions, enforced across core and sim:
//!
//! * **Check functions are always compiled.** Each checker is an ordinary
//!   `pub fn … -> Result<(), String>` (e.g.
//!   [`crate::lottery::WeightedSampler::check_consistency`]), so it stays
//!   type-checked and unit-testable in every build.
//! * **Invocations are feature-gated.** Call sites go through
//!   [`crate::validate_check!`], which expands to nothing without the feature —
//!   release builds carry zero overhead and the golden benchmark digest is
//!   bit-identical with the feature off.
//! * **Failures abort.** A failed check is a bug in the incremental
//!   structure, never a recoverable condition; the macro panics with the
//!   invariant's name and the checker's message.

/// Run an invariant check only when the `validate` feature is enabled.
///
/// `$check` must evaluate to `Result<(), String>`. With the feature off the
/// whole statement is compiled out; with it on, an `Err` aborts with the
/// invariant name and message:
///
/// ```text
/// validate[lottery-sampler]: fenwick prefix 3: tree 1.25, naive 2.25
/// ```
///
/// The `cfg` resolves at the *expansion* site, so dependent crates gate the
/// checks behind their own `validate` feature (which should forward to
/// `unit-core/validate`).
#[macro_export]
macro_rules! validate_check {
    ($name:literal, $check:expr) => {
        #[cfg(feature = "validate")]
        {
            if let Err(msg) = $check {
                panic!("validate[{}]: {msg}", $name);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn ok_checks_pass_silently() {
        validate_check!("noop", Ok::<(), String>(()));
    }

    #[test]
    #[cfg(feature = "validate")]
    #[should_panic(expected = "validate[broken]: detail")]
    fn failed_checks_abort_with_name_and_message() {
        validate_check!("broken", Err::<(), String>("detail".into()));
    }

    #[test]
    #[cfg(not(feature = "validate"))]
    fn failed_checks_are_compiled_out_without_the_feature() {
        validate_check!("broken", Err::<(), String>("detail".into()));
    }
}
