//! The whole-workspace half of the determinism rules (DESIGN §15): no
//! nondeterminism can reach `report_digest`, and an exemption that does
//! not state its reason, names no real lint or suppresses nothing is
//! itself reported.

mod lint;

use lint::{clippy, digest_taint, normal_deps};

/// No digest crate has `unit-server` (home of `WallClock`) or `unit-bench`
/// in its normal-dependency closure. With `clippy.toml`'s per-site clock
/// and hash-container bans, neither a clock nor a clock call can reach a
/// digest.
#[test]
fn real_workspace_has_no_digest_taint_at_all() {
    let taint = digest_taint(&normal_deps());
    assert!(taint.is_empty(), "{taint:?}");
}

#[test]
fn a1_fixture_reports_malformed_allows() {
    let r = clippy("a1_allow.rs", "sim");
    assert!(!r.success);
    assert_eq!(
        r.codes(),
        [
            ("clippy::allow_attributes", 4),
            ("clippy::allow_attributes_without_reason", 4),
            ("unknown_lints", 6),
            ("clippy::unwrap_used", 7),
            ("unfulfilled_lint_expectations", 8),
        ]
    );
    assert!(
        r.findings[2].rendered.contains("clippy::q9"),
        "{}",
        r.findings[2].rendered
    );
}
