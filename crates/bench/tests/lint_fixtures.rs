//! Every former fixture of the in-tree analyzer, each caught by what
//! replaced its rule (DESIGN §15): clippy under the workspace's real lint
//! settings for D1–D4, D6 and file-scoped exemptions, the `O(…)` doc check
//! for P1, and the dependency-closure check for the serving-clock boundary.
//! The fixtures live in `tests/fixtures/lint/`; no target compiles them.

mod lint;

use lint::{clippy, digest_taint, normal_deps};
use std::path::Path;

const POLICY: &str = include_str!("../../core/src/policy.rs");
const FAULT_HOOK: &str = include_str!("../../sim/src/faults.rs");
const OBSERVER: &str = include_str!("../../obs/src/recorder.rs");
const ENGINE: &str = include_str!("../../sim/src/engine.rs");
const RAND: &str = include_str!("../../../vendor/rand/src/lib.rs");

// --- P1: every hook the engine calls per event states its cost ----------
//
// Each fn in the `Policy`, `FaultHook` and `Observer` trait blocks, and each
// engine event-loop hook (`on_*`, `reschedule`), has `O(…)` in its doc.

/// The doc comment of the item starting at `lines[at]`, attributes
/// between the docs and the item skipped.
fn doc_above(lines: &[&str], at: usize) -> String {
    let mut doc = Vec::new();
    let mut in_attr = false;
    for line in lines[..at].iter().rev().map(|l| l.trim()) {
        if in_attr {
            in_attr = !line.starts_with("#[");
        } else if let Some(text) = line.strip_prefix("///") {
            doc.push(text);
        } else if line.ends_with(")]") && !line.starts_with("#[") {
            in_attr = true; // the last line of a multi-line attribute
        } else if !line.starts_with("#[") {
            break;
        }
    }
    doc.concat()
}

/// `(fn name, its doc)` for every item fn of `pub trait <name>` in `src`.
/// Trait items sit at one indent level, and the block closes at the first
/// unindented `}`.
fn trait_fns(src: &str, name: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let open = format!("pub trait {name}");
    let start = lines
        .iter()
        .position(|l| {
            l.strip_prefix(&open)
                .is_some_and(|rest| rest.starts_with([' ', ':', '<']))
        })
        .unwrap_or_else(|| panic!("no `pub trait {name}` block"));
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate().skip(start + 1) {
        if line.starts_with('}') {
            return out;
        }
        if let Some(sig) = line.strip_prefix("    fn ") {
            out.push((fn_name(sig), doc_above(&lines, i)));
        }
    }
    panic!("`pub trait {name}` block never closes");
}

/// `(fn name, its doc)` for every engine event-loop hook: the `on_*` and
/// `reschedule` methods of the simulator's impl blocks.
fn engine_hooks(src: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(sig) = line.strip_prefix("    fn ") else {
            continue;
        };
        let name = fn_name(sig);
        if name.starts_with("on_") || name == "reschedule" {
            out.push((name, doc_above(&lines, i)));
        }
    }
    out
}

/// The identifier a signature starts with.
fn fn_name(sig: &str) -> String {
    sig.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

#[test]
fn every_hook_documents_its_cost() {
    let surfaces = [
        ("Policy", trait_fns(POLICY, "Policy")),
        ("FaultHook", trait_fns(FAULT_HOOK, "FaultHook")),
        ("Observer", trait_fns(OBSERVER, "Observer")),
        ("engine", engine_hooks(ENGINE)),
    ];
    let mut missing = Vec::new();
    for (surface, fns) in surfaces {
        assert!(!fns.is_empty(), "{surface}: no fns found");
        for (name, doc) in fns {
            if !doc.contains("O(") {
                missing.push(format!("{surface}::{name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "no `/// O(…)` cost in the docs of {missing:?}"
    );
}

/// The source of `tests/fixtures/lint/<name>`.
fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint");
    std::fs::read_to_string(dir.join(name)).unwrap()
}

/// The fns of trait `name` in a P1 fixture whose docs give no `O(…)`.
fn undocumented(fixture_name: &str, name: &str) -> Vec<String> {
    let fns = trait_fns(&fixture(fixture_name), name);
    fns.into_iter()
        .filter(|(_, doc)| !doc.contains("O("))
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn p1_fixture_reports_undocumented_policy_fns() {
    assert_eq!(undocumented("p1_policy.rs", "Policy"), ["bad", "naked"]);
}

#[test]
fn p1_fixture_only_applies_to_the_policy_surface() {
    // The inherent `Greedy::outside_the_trait` has no doc either, but only
    // the trait block is the surface.
    let src = fixture("p1_policy.rs");
    let names: Vec<String> = trait_fns(&src, "Policy").into_iter().map(|f| f.0).collect();
    assert_eq!(names, ["good", "bad", "naked"]);
}

#[test]
fn p1_covers_the_observer_surface() {
    // The documented `on_event` and the inherent `RingRecorder` method
    // produce nothing.
    assert_eq!(
        undocumented("p1_observer.rs", "Observer"),
        ["flush", "drained"]
    );
}

#[test]
fn p1_covers_the_fault_hook_surface() {
    // The documented `health` and `Unrelated::ignored` produce nothing.
    assert_eq!(
        undocumented("p1_fault_hook.rs", "FaultHook"),
        ["update_fault", "load_at"]
    );
}

// --- D1–D4, D6, A1: clippy with the workspace's lint settings -----------

#[test]
fn d1_fixture_reports_every_hash_container() {
    let r = clippy("d1_hashmap.rs", "sim");
    let dt = "clippy::disallowed_types";
    assert_eq!(r.codes(), [(dt, 2), (dt, 3), (dt, 6), (dt, 7)]);
    assert!(
        r.findings[0].rendered.contains("BTreeMap"),
        "{}",
        r.findings[0].rendered
    );
    assert!(
        r.findings[1].rendered.contains("BTreeSet"),
        "{}",
        r.findings[1].rendered
    );
}

#[test]
fn d1_fixture_fires_in_workload() {
    // The streaming generators feed the engine in trace order.
    let r = clippy("d1_hashmap.rs", "workload");
    assert!(!r.findings.is_empty());
    assert!(r
        .findings
        .iter()
        .all(|f| f.code == "clippy::disallowed_types"));
}

#[test]
fn d2_fixture_reports_clocks_and_entropy() {
    let r = clippy("d2_wall_clock.rs", "core");
    let dm = "clippy::disallowed_methods";
    assert_eq!(r.codes(), [(dm, 5), (dm, 10), (dm, 14)]);
    for (f, call) in
        r.findings
            .iter()
            .zip(["Instant::now", "SystemTime::now", "available_parallelism"])
    {
        assert!(f.rendered.contains(call), "{}", f.rendered);
    }
    // OS entropy needs no ban: the vendored `rand` has no entropy source,
    // so `rand::thread_rng()` or `rand::random()` does not compile.
    assert!(!RAND.contains("thread_rng") && !RAND.contains("fn random"));
}

#[test]
fn d2_clock_boundary_fixture_flags_wallclock_outside_server() {
    // A digest crate cannot name `WallClock` without depending on
    // `unit-server`…
    let r = clippy("d2_clock_boundary.rs", "sim");
    assert!(!r.success);
    assert!(
        r.findings.iter().any(|f| f.code == "E0432" && f.line == 2),
        "{:?}",
        r.codes()
    );
    // …and once it does, the closure check reports it and every digest
    // crate that reaches it through that edge.
    let mut deps = normal_deps();
    deps.get_mut("unit-workload")
        .unwrap()
        .push("unit-server".into());
    assert_eq!(
        digest_taint(&deps),
        [
            "unit-workload reaches unit-server",
            "unit-cluster reaches unit-server"
        ]
    );
}

#[test]
fn d3_fixture_reports_unannotated_panics_only() {
    // Line 8's `.expect` carries a reasoned `#[expect]` on its fn.
    let r = clippy("d3_panics.rs", "core");
    assert_eq!(
        r.codes(),
        [("clippy::unwrap_used", 3), ("clippy::panic", 12)]
    );
}

/// The five library-code lints, in the order of the two crate fixtures.
const EVERY_RULE: [(&str, u64); 7] = [
    ("clippy::disallowed_types", 2),
    ("clippy::disallowed_types", 4),
    ("clippy::disallowed_types", 5),
    ("clippy::disallowed_methods", 9),
    ("clippy::unwrap_used", 13),
    ("clippy::float_cmp", 17),
    ("clippy::indexing_slicing", 21),
];

#[test]
fn faults_crate_fixture_trips_every_determinism_rule() {
    assert_eq!(clippy("faults_crate.rs", "faults").codes(), EVERY_RULE);
}

#[test]
fn obs_crate_fixture_trips_every_determinism_rule() {
    // The obs streams feed replay/export goldens.
    assert_eq!(clippy("obs_crate.rs", "obs").codes(), EVERY_RULE);
}

/// The streaming/shard-stepping fixture carries one violation of each
/// rule, and each is reported once, in both crates that code lives in.
#[test]
fn streaming_epoch_fixture_reports_one_violation_per_rule() {
    for krate in ["sim", "cluster"] {
        let r = clippy("streaming_epoch.rs", krate);
        let mut codes = r.codes();
        codes.sort_unstable();
        assert_eq!(
            codes,
            [
                ("clippy::disallowed_methods", 4),
                ("clippy::disallowed_types", 13),
                ("clippy::float_cmp", 18),
                ("clippy::indexing_slicing", 22),
                ("clippy::unwrap_used", 7),
            ],
            "crate {krate}"
        );
    }
}

#[test]
fn file_scoped_allow_suppresses_the_whole_file() {
    let r = clippy("allow_file.rs", "sim");
    assert!(r.success && r.findings.is_empty(), "{:?}", r.codes());
}

#[test]
fn lint_binary_exits_nonzero_with_json_findings() {
    // `-D warnings` turns every finding into an error, as in CI, and each
    // JSON diagnostic points at the fixture line.
    let r = clippy("d1_hashmap.rs", "sim");
    assert!(!r.success);
    assert!(
        r.findings[0].rendered.contains("d1_hashmap.rs:2:"),
        "{}",
        r.findings[0].rendered
    );
}

#[test]
fn lint_binary_exits_zero_on_a_clean_tree() {
    // The replacements CONTRIBUTING.md recommends pass the same settings.
    let r = clippy("clean.rs", "core");
    assert!(r.success && r.findings.is_empty(), "{:?}", r.codes());
}
