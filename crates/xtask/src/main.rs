//! `cargo xtask` — workspace automation CLI.
//!
//! ```text
//! cargo xtask lint [--format text|json|sarif] [--root <path>]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
xtask — workspace automation for the UNIT repro

USAGE:
    cargo xtask lint [--format text|json|sarif] [--root <path>]

SUBCOMMANDS:
    lint       run every static-analysis rule over crates/: the per-file
               determinism & invariant rules (D1-D4, P1, A1) and the
               interprocedural passes over the workspace call graph (D5
               digest taint, D6 panic reachability, P2 hot-path
               allocation); any finding fails (see DESIGN.md §15)

OPTIONS:
    --format <fmt>       output format: text, json, or sarif (default: text)
    --root <path>        workspace root (default: inferred from this binary)
";

/// Default root: two levels above this crate's manifest dir
/// (crates/xtask -> workspace root), so the pass works from any cwd.
fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn lint(args: &[String]) -> ExitCode {
    let mut format = "text".to_string();
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" || f == "sarif" => format = f.clone(),
                _ => {
                    eprintln!("xtask: --format expects `text`, `json`, or `sarif`");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask: --root expects a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(default_root);

    match xtask::analyze_workspace(&root) {
        Ok(findings) => {
            match format.as_str() {
                "json" => print!("{}", xtask::render_json(&findings)),
                "sarif" => print!("{}", xtask::sarif::render_sarif(&findings)),
                _ => print!("{}", xtask::render_text(&findings)),
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}
