//! Fixture-driven tests for the interprocedural passes of `cargo xtask
//! lint`: each seeded violation (one per rule) must be reported with its
//! exact rule id and call path, and the real workspace must have no
//! findings at all.

use std::path::{Path, PathBuf};
use xtask::{analyze_workspace, Finding};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap()
}

/// Build a throwaway workspace containing the given `crates/<c>/src/<f>`
/// files and return its root.
fn fake_workspace(tag: &str, files: &[(&str, &str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("unit-analyze-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    for (krate, file, contents) in files {
        let src_dir = root.join("crates").join(krate).join("src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(src_dir.join(file), contents).unwrap();
    }
    root
}

fn by_rule<'a>(fs: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    fs.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn d5_fixture_reports_the_taint_flow_with_call_path() {
    let root = fake_workspace("d5", &[("sim", "stats.rs", &fixture("d5_taint.rs"))]);
    let fs = analyze_workspace(&root).unwrap();
    let d5 = by_rule(&fs, "D5");
    assert_eq!(d5.len(), 1, "{fs:?}");
    assert_eq!(d5[0].line, 14);
    assert_eq!(d5[0].file, "crates/sim/src/stats.rs");
    assert_eq!(d5[0].symbol, "sim::stamp_nanos");
    assert!(
        d5[0]
            .message
            .contains("sim::report_digest → sim::fold → sim::stamp_nanos"),
        "{}",
        d5[0].message
    );
    // The same line also trips per-file D2 — the two rules are
    // complementary, not redundant.
    assert!(fs.iter().any(|f| f.rule == "D2" && f.line == 14), "{fs:?}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn d6_fixture_reports_reachable_panics_with_call_path() {
    let root = fake_workspace("d6", &[("sim", "lookup.rs", &fixture("d6_reach.rs"))]);
    let fs = analyze_workspace(&root).unwrap();
    let d6 = by_rule(&fs, "D6");
    // Line 9's unwrap and line 12's raw index; line 11's annotated index
    // stays quiet.
    assert_eq!(
        d6.iter()
            .map(|f| (f.line, f.kind.as_str()))
            .collect::<Vec<_>>(),
        vec![(9, "call:unwrap"), (12, "index")],
        "{d6:?}"
    );
    for f in &d6 {
        assert_eq!(f.symbol, "sim::pick");
        assert!(
            f.message.contains("sim::lookup → sim::pick"),
            "{}",
            f.message
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn p2_fixture_reports_hot_path_allocations() {
    let root = fake_workspace("p2", &[("sim", "greedy.rs", &fixture("p2_hotpath.rs"))]);
    let fs = analyze_workspace(&root).unwrap();
    let p2 = by_rule(&fs, "P2");
    assert_eq!(
        p2.iter()
            .map(|f| (f.line, f.kind.as_str(), f.symbol.as_str()))
            .collect::<Vec<_>>(),
        vec![
            (9, "alloc:format!", "sim::Greedy::on_query"),
            (14, "alloc:.to_vec()", "sim::Greedy::snapshot"),
            (21, "alloc:.clone()", "sim::Greedy::on_tick"),
        ],
        "{p2:?}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a1_fixture_reports_malformed_allows() {
    let root = fake_workspace("a1", &[("sim", "bad.rs", &fixture("a1_allow.rs"))]);
    let fs = analyze_workspace(&root).unwrap();
    let a1 = by_rule(&fs, "A1");
    assert_eq!(a1.len(), 2, "{a1:?}");
    assert_eq!(a1[0].line, 4);
    assert!(
        a1[0].message.contains("no reason clause"),
        "{}",
        a1[0].message
    );
    assert_eq!(a1[1].line, 6);
    assert!(
        a1[1].message.contains("unknown rule id `Q9`"),
        "{}",
        a1[1].message
    );
    // And because neither annotation takes effect, both unwraps still
    // trip D3.
    assert_eq!(by_rule(&fs, "D3").len(), 2, "{fs:?}");
    std::fs::remove_dir_all(&root).ok();
}

// --- binary-level tests: exit codes and formats --------------------------

fn xtask_bin(root: &Path, args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .args(["--root", root.to_str().unwrap()])
        .output()
        .unwrap()
}

#[test]
fn lint_binary_emits_sarif() {
    let root = fake_workspace("sarif", &[("sim", "greedy.rs", &fixture("p2_hotpath.rs"))]);
    let out = xtask_bin(&root, &["lint", "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"version\":\"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"ruleId\":\"P2\""), "{stdout}");
    assert!(
        stdout.contains("\"uri\":\"crates/sim/src/greedy.rs\""),
        "{stdout}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// `analyze` and the ratchet flags are gone: each is a usage error now.
#[test]
fn analyze_binary_rejects_unknown_flags_with_exit_2() {
    let root = fake_workspace(
        "usage",
        &[("sim", "id.rs", "pub fn id(x: u32) -> u32 { x }\n")],
    );
    for args in [
        &["analyze"][..],
        &["lint", "--update-baseline"],
        &["lint", "--no-baseline"],
        &["lint", "--baseline", "x"],
        &["lint", "--format", "yaml"],
    ] {
        let out = xtask_bin(&root, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_dir_all(&root).ok();
}

// --- the real workspace ---------------------------------------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn real_workspace_has_no_findings() {
    let findings = analyze_workspace(&workspace_root()).unwrap();
    assert!(
        findings.is_empty(),
        "`cargo xtask lint` must be clean — fix each finding (CONTRIBUTING.md, \"Fixing a finding\"):\n{}",
        findings
            .iter()
            .map(|f| format!("{}:{} {} {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn real_workspace_has_no_digest_taint_at_all() {
    // D5 is the tentpole invariant: nothing nondeterministic is reachable
    // from report_digest or outcome-log construction.
    let findings = analyze_workspace(&workspace_root()).unwrap();
    let d5: Vec<_> = findings.iter().filter(|f| f.rule == "D5").collect();
    assert!(d5.is_empty(), "{d5:?}");
}
