//! # xtask — workspace automation for the UNIT repro
//!
//! One subcommand, `cargo xtask lint`: zero-dependency static analysis of
//! every `.rs` file under `crates/`. It runs the line-level determinism
//! and invariant rules (D1–D4, P1, A1) the golden-digest test relies on,
//! plus the interprocedural passes over an approximate workspace call
//! graph: D5 digest taint ([`taint`]), D6 panic reachability ([`reach`]),
//! and P2 hot-path allocation ([`hotpath`]). Any finding fails the run;
//! output is text, JSON, or SARIF ([`sarif`]) for code-scanning
//! annotations.
//!
//! See [`rules`] for the rule table and the allow-annotation syntax, and
//! DESIGN.md §2.2 / §15 for the invariant each rule guards.
//!
//! Test code is exempt by construction: files under `tests/`, `benches/`,
//! `examples/`, and `fixtures/` directories are skipped by the walker, and
//! `#[cfg(test)]` / `#[test]` items are skipped by the lexer.

#![warn(missing_docs)]

pub mod graph;
pub mod hotpath;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod rules;
pub mod sarif;
pub mod taint;

pub use rules::{check_source, FileCtx, Finding};

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directory names the walker never descends into.
const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "fixtures", "target"];

/// Collect every lintable `.rs` file under `<root>/crates`, sorted by path
/// so output and exit codes are stable.
///
/// # Errors
/// Fails when the directory tree cannot be read.
pub fn workspace_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates = root.join("crates");
    let mut files = Vec::new();
    walk(&crates, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Build the [`FileCtx`] for a file, given the workspace root.
///
/// Returns `None` for files that do not live under `<root>/crates/<name>/`.
pub fn file_ctx(root: &Path, path: &Path) -> Option<FileCtx> {
    let rel = path.strip_prefix(root).ok()?;
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    if parts.next().as_deref() != Some("crates") {
        return None;
    }
    let crate_name = parts.next()?.to_string();
    let rel_path = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/");
    Some(FileCtx {
        crate_name,
        rel_path,
    })
}

/// Crates included in the interprocedural call graph: the library crates
/// whose code can reach simulator state. `bench` (wall-clock measurement
/// by design) and `xtask` itself stay out.
pub const GRAPH_CRATES: &[&str] = &[
    "core",
    "sim",
    "workload",
    "baselines",
    "cluster",
    "faults",
    "obs",
    "server",
];

/// Run the full analysis — per-file rules plus the D5/D6/P2 graph passes —
/// over the workspace rooted at `root`. Findings come back sorted by
/// (file, line, rule), one per (file, line, rule, site tag).
///
/// # Errors
/// Fails when the tree cannot be walked or a source file cannot be read.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let mut parsed: Vec<graph::ParsedFile> = Vec::new();
    for path in workspace_rs_files(root)? {
        let Some(ctx) = file_ctx(root, &path) else {
            continue;
        };
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        findings.extend(check_source(&src, &ctx));
        if GRAPH_CRATES.contains(&ctx.crate_name.as_str()) {
            parsed.push(graph::parse_file(&src, ctx));
        }
    }
    let g = graph::Graph::build(&parsed);
    taint::rule_d5(&parsed, &g, &mut findings);
    reach::rule_d6(&parsed, &g, &mut findings);
    hotpath::rule_p2(&parsed, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.kind == b.kind
    });
    Ok(findings)
}

/// Render findings as human-readable text, one violation per paragraph.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}: {} {}", f.file, f.line, f.rule, f.message);
        let _ = writeln!(out, "    fix: {}", f.hint);
    }
    if findings.is_empty() {
        out.push_str("unit-lint: clean\n");
    } else {
        let _ = writeln!(out, "unit-lint: {} violation(s)", findings.len());
    }
    out
}

/// Render findings as a JSON array (hand-rolled: xtask has no dependencies).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{},\"hint\":{}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.message),
            json_str(&f.hint)
        );
        if !f.symbol.is_empty() {
            let _ = write!(out, ",\"symbol\":{}", json_str(&f.symbol));
        }
        out.push('}');
    }
    out.push_str("]\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn file_ctx_parses_crate_layout() {
        let root = Path::new("/ws");
        let ctx = file_ctx(root, Path::new("/ws/crates/sim/src/engine.rs")).unwrap();
        assert_eq!(ctx.crate_name, "sim");
        assert_eq!(ctx.rel_path, "crates/sim/src/engine.rs");
        assert!(file_ctx(root, Path::new("/ws/vendor/rand/src/lib.rs")).is_none());
    }

    #[test]
    fn render_text_mentions_rule_and_line() {
        let f = Finding::new(
            "crates/sim/src/x.rs".into(),
            7,
            "D1",
            "m".into(),
            "h".into(),
        );
        let text = render_text(&[f]);
        assert!(text.contains("crates/sim/src/x.rs:7: D1 m"));
        assert!(text.contains("fix: h"));
    }
}
