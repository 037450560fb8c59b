//! `cargo xtask` — workspace automation CLI.
//!
//! ```text
//! cargo xtask lint    [--format text|json] [--root <path>]
//! cargo xtask analyze [--format text|json|sarif] [--root <path>]
//!                     [--baseline <path>] [--no-baseline] [--update-baseline]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found (for `analyze`:
//! non-baselined findings), `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
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
    cargo xtask lint    [--format text|json] [--root <path>]
    cargo xtask analyze [--format text|json|sarif] [--root <path>]
                        [--baseline <path>] [--no-baseline] [--update-baseline]

SUBCOMMANDS:
    lint       run the per-file determinism & invariant rules
               (D1-D4, P1, A1; see CONTRIBUTING.md and DESIGN.md §2.2)
    analyze    everything lint does, plus the interprocedural passes over
               the workspace call graph: D5 digest taint, D6 panic
               reachability, P2 hot-path allocation — gated by the
               xtask-baseline.json ratchet (see DESIGN.md §15)

OPTIONS:
    --format <fmt>       output format: text or json for lint;
                         text, json, or sarif for analyze (default: text)
    --root <path>        workspace root (default: inferred from this binary)
    --baseline <path>    baseline file (default: <root>/xtask-baseline.json)
    --no-baseline        report every finding, ignore the baseline
    --update-baseline    rewrite the baseline from the current findings
                         and exit 0
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
                Some(f) if f == "text" || f == "json" => format = f.clone(),
                _ => {
                    eprintln!("xtask: --format expects `text` or `json`");
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

    match xtask::lint_workspace(&root) {
        Ok(findings) => {
            if format == "json" {
                print!("{}", xtask::render_json(&findings));
            } else {
                print!("{}", xtask::render_text(&findings));
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

fn analyze(args: &[String]) -> ExitCode {
    let mut format = "text".to_string();
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut update_baseline = false;
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
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask: --baseline expects a path");
                    return ExitCode::from(2);
                }
            },
            "--no-baseline" => no_baseline = true,
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("xtask: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(default_root);
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("xtask-baseline.json"));

    let findings = match xtask::analyze_workspace(&root) {
        Ok(fs) => fs,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };

    if update_baseline {
        let rendered = xtask::baseline::render_baseline(&findings);
        if let Err(e) = std::fs::write(&baseline_path, rendered) {
            eprintln!("xtask: write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "unit-analyze: baseline updated with {} finding(s) at {}",
            findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    // Load the ratchet: a missing baseline file means an empty baseline
    // (every finding is new) unless --no-baseline asked for exactly that.
    let base = if no_baseline {
        xtask::baseline::Baseline::default()
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(src) => match xtask::baseline::parse_baseline(&src) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("xtask: {}: {e}", baseline_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(_) => xtask::baseline::Baseline::default(),
        }
    };
    let ratchet = base.ratchet(findings);

    match format.as_str() {
        "json" => print!("{}", xtask::render_json(&ratchet.new)),
        "sarif" => print!("{}", xtask::sarif::render_sarif(&ratchet.new)),
        _ => {
            print!("{}", xtask::render_text(&ratchet.new));
            if !ratchet.baselined.is_empty() {
                println!(
                    "unit-analyze: {} baselined finding(s) suppressed (accepted debt)",
                    ratchet.baselined.len()
                );
            }
            for (fp, desc) in &ratchet.stale {
                println!("unit-analyze: stale baseline entry {fp} ({desc}) — remove it");
            }
        }
    }
    if ratchet.new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
