//! Shared by `lint_fixtures.rs` and `analyze_fixtures.rs`: run clippy on a
//! fixture under the workspace's real lint settings, and compute the
//! digest crates' dependency closures from `cargo metadata`. DESIGN §15.

use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

/// One line of rustc's `--error-format=json` output, in part.
#[derive(Deserialize)]
struct Diagnostic {
    code: Option<Code>,
    spans: Vec<Span>,
    rendered: String,
}

#[derive(Deserialize)]
struct Code {
    code: String,
}

#[derive(Deserialize)]
struct Span {
    line_start: u64,
    is_primary: bool,
}

/// One diagnostic that carries a lint or error code.
pub(crate) struct Finding {
    /// `clippy::unwrap_used`, `unknown_lints`, `E0432`, …
    pub(crate) code: String,
    /// Line of the primary span in the fixture.
    pub(crate) line: u64,
    /// The human-readable diagnostic, notes included.
    pub(crate) rendered: String,
}

/// What clippy made of one fixture.
pub(crate) struct Report {
    /// The exit status was zero: nothing fired.
    pub(crate) success: bool,
    pub(crate) findings: Vec<Finding>,
}

impl Report {
    /// `(code, line)` of every finding, in clippy's order.
    pub(crate) fn codes(&self) -> Vec<(&str, u64)> {
        self.findings
            .iter()
            .map(|f| (f.code.as_str(), f.line))
            .collect()
    }
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The root `Cargo.toml`'s `[workspace.lints.*]` tables as rustc flags,
/// lowest priority first, the way cargo passes them.
fn workspace_lint_flags() -> Vec<String> {
    let manifest = read(&root().join("Cargo.toml"));
    let mut flags = Vec::new();
    let mut tool = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            tool = match line {
                "[workspace.lints.rust]" => Some(""),
                "[workspace.lints.clippy]" => Some("clippy::"),
                _ => None,
            };
            continue;
        }
        let (Some(tool), Some((name, value))) = (tool, line.split_once('=')) else {
            continue;
        };
        if line.starts_with('#') {
            continue;
        }
        let level = match value.split('"').nth(1) {
            Some("allow") => "-A",
            Some("warn") => "-W",
            Some("deny") => "-D",
            Some("forbid") => "-F",
            other => panic!("lint `{name}`: level {other:?}"),
        };
        let priority: i64 = value.split_once("priority =").map_or(0, |(_, p)| {
            p.trim_end_matches(['}', ' ']).trim().parse().unwrap()
        });
        flags.push((priority, level, format!("{tool}{}", name.trim())));
    }
    flags.sort_by_key(|f| f.0);
    flags
        .into_iter()
        .flat_map(|(_, level, lint)| [level.to_string(), lint])
        .collect()
}

/// The lints `crates/<krate>/src/lib.rs` turns on for non-test code with
/// its `#![cfg_attr(not(test), warn(…))]` line.
fn crate_lints(krate: &str) -> Vec<String> {
    let lib = read(&root().join("crates").join(krate).join("src/lib.rs"));
    let start = lib.find("#![cfg_attr(").expect("a crate-level cfg_attr");
    let attr = &lib[start..][..lib[start..].find(")]").unwrap()];
    assert!(attr.contains("not(test)"), "{krate}: {attr}");
    attr.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .filter(|w| w.starts_with("clippy::"))
        .flat_map(|lint| ["-W".to_string(), lint.to_string()])
        .collect()
}

/// Lint `tests/fixtures/lint/<fixture>` as a library crate the way CI's
/// Clippy step lints `crates/<krate>/src`: the workspace lints, the
/// crate's own lints, the root `clippy.toml`, and `-D warnings`.
pub(crate) fn clippy(fixture: &str, krate: &str) -> Report {
    let driver = Path::new(env!("CARGO")).with_file_name("clippy-driver");
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/lint")
        .join(fixture);
    let name = format!("{}_{krate}", fixture.trim_end_matches(".rs"));
    let out = Command::new(&driver)
        .env("CLIPPY_CONF_DIR", root())
        .args(["--edition=2021", "--crate-type=lib", "--emit=metadata"])
        .args(["--error-format=json", "--crate-name", &name, "--out-dir"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint"))
        .args(workspace_lint_flags())
        .args(crate_lints(krate))
        .args(["-D", "warnings"])
        .arg(&src)
        .output()
        .unwrap_or_else(|e| {
            panic!(
                "{}: {e} (is the clippy component installed?)",
                driver.display()
            )
        });
    let findings = String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter_map(|line| {
            let d: Diagnostic = serde_json::from_str(line).expect("rustc JSON");
            let primary = d.spans.iter().find(|s| s.is_primary)?;
            Some(Finding {
                code: d.code?.code,
                line: primary.line_start,
                rendered: d.rendered,
            })
        })
        .collect();
    Report {
        success: out.status.success(),
        findings,
    }
}

#[derive(Deserialize)]
struct Metadata {
    packages: Vec<Package>,
}

#[derive(Deserialize)]
struct Package {
    name: String,
    dependencies: Vec<Dependency>,
}

#[derive(Deserialize)]
struct Dependency {
    name: String,
    kind: Option<String>, // `None` for a normal dependency
}

/// Each workspace member's normal (not dev, not build) dependencies, from
/// `cargo metadata`.
pub(crate) fn normal_deps() -> BTreeMap<String, Vec<String>> {
    let out = Command::new(env!("CARGO"))
        .args(["metadata", "--offline", "--no-deps", "--format-version=1"])
        .current_dir(root())
        .output()
        .expect("cargo metadata runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let meta: Metadata = serde_json::from_str(&stdout).expect("cargo metadata JSON");
    meta.packages
        .into_iter()
        .map(|p| {
            let normal = p.dependencies.into_iter().filter(|d| d.kind.is_none());
            (p.name, normal.map(|d| d.name).collect())
        })
        .collect()
}

/// `"<digest crate> reaches <crate>"` for every digest crate whose
/// normal-dependency closure holds `unit-server` (home of `WallClock`) or
/// `unit-bench`.
pub(crate) fn digest_taint(deps: &BTreeMap<String, Vec<String>>) -> Vec<String> {
    let mut taint = Vec::new();
    for root in "core sim workload baselines cluster faults obs".split(' ') {
        let root = format!("unit-{root}");
        assert!(deps.contains_key(&root), "{root}: not a member");
        let (mut closure, mut todo) = (BTreeSet::new(), vec![root.as_str()]);
        while let Some(name) = todo.pop() {
            if closure.insert(name) {
                todo.extend(deps.get(name).into_iter().flatten().map(String::as_str));
            }
        }
        for banned in ["unit-server", "unit-bench"] {
            if closure.contains(banned) {
                taint.push(format!("{root} reaches {banned}"));
            }
        }
    }
    taint
}
