//! The unit-lint rule set: determinism and invariant hygiene for the UNIT
//! workspace.
//!
//! | Rule | What it forbids | Where |
//! |------|-----------------|-------|
//! | `D1` | `HashMap`/`HashSet` (iteration-order nondeterminism) | `core`, `sim`, `workload`, `baselines`, `cluster`, `faults`, `obs`, `server` |
//! | `D2` | wall clocks (`Instant::now`, `SystemTime::now`, `WallClock`) everywhere but `bench`/`server`; unseeded RNGs (`thread_rng`, `rand::random`) everywhere but `bench` | two-tier, see below |
//! | `D3` | `unwrap()`/`expect()`/`panic!`-family in non-test library code | `core`, `sim`, `workload`, `baselines`, `cluster`, `faults`, `obs`, `server` |
//! | `D4` | direct `f64` `==`/`!=` against float literals; `as`-cast truncation of simulated-time values | library crates, except `core/src/time.rs` |
//! | `P1` | `Policy`/`FaultHook`/`Observer`-surface / event-loop functions without a `/// O(...)` complexity doc | `core/src/policy.rs`, `sim/src/engine.rs`, `sim/src/faults.rs`, `obs/src/recorder.rs` |
//! | `A1` | malformed `lint: allow` annotations (unknown rule id, or no reason clause) | everywhere |
//!
//! The interprocedural rules `D5` (digest taint), `D6` (panic
//! reachability), and `P2` (hot-path allocation) run over the workspace
//! call graph rather than one file; see [`crate::taint`], [`crate::reach`],
//! and [`crate::hotpath`]. Their allow annotations share this syntax.
//!
//! Suppression:
//!
//! * line-scoped — `// lint: allow(D3) — reason` on the violation line or
//!   the line directly above it (`panic` is an alias for `D3`);
//! * file-scoped — `// lint: allow-file(D1) — reason` anywhere in the file.
//!
//! Annotations without a reason are ignored (and reported as `A1`), so
//! every exemption in the tree carries its own justification.

use crate::lexer::{scan, Comment, Tok, TokKind};
use std::collections::BTreeMap;

/// Crates where iteration-order nondeterminism can reach simulator state.
/// `workload` is included since the streaming generators feed the engine
/// directly — a hash-ordered loop there would scramble trace order.
const D1_CRATES: &[&str] = &[
    "core",
    "sim",
    "workload",
    "baselines",
    "cluster",
    "faults",
    "obs",
    "server",
];
/// D2 is two-tier since the live serving runtime landed:
///
/// * **wall-clock tier** — `Instant::now` / `SystemTime::now` / the
///   `WallClock` type are allowed only in `server` (reading the machine
///   clock is the serving runtime's job; everything else consumes time
///   through the `Clock` trait) and `bench` (harness timing);
/// * **entropy tier** — `thread_rng` / `rand::random` are allowed only in
///   `bench`; the server must stay entropy-free like the rest.
const D2_WALL_EXEMPT_CRATES: &[&str] = &["bench", "server"];
/// Crates allowed to draw OS entropy (see [`D2_WALL_EXEMPT_CRATES`]).
const D2_ENTROPY_EXEMPT_CRATES: &[&str] = &["bench"];
/// Library crates where panics must be annotated.
const D3_CRATES: &[&str] = &[
    "core",
    "sim",
    "workload",
    "baselines",
    "cluster",
    "faults",
    "obs",
    "server",
];
/// Library crates where float-equality / time-cast hygiene applies.
const D4_CRATES: &[&str] = &[
    "core",
    "sim",
    "workload",
    "baselines",
    "cluster",
    "faults",
    "obs",
    "server",
];
/// The one file allowed to truncate simulated-time floats: the tick
/// conversion boundary itself.
const D4_EXEMPT_FILES: &[&str] = &["crates/core/src/time.rs"];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id (`D1` … `D6`, `P1`, `P2`, `A1`).
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
    /// How to fix it (or how to annotate an intentional exemption).
    pub hint: String,
    /// Qualified name of the function the finding is anchored to (empty
    /// for per-file rules).
    pub symbol: String,
    /// Short site tag (`call:unwrap`, `taint:Instant::now`, …); empty for
    /// per-file rules.
    pub kind: String,
}

impl Finding {
    /// A per-file finding (no symbol or site tag).
    pub fn new(file: String, line: u32, rule: &'static str, message: String, hint: String) -> Self {
        Finding {
            file,
            line,
            rule,
            message,
            hint,
            symbol: String::new(),
            kind: String::new(),
        }
    }
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Crate directory name under `crates/` (e.g. `"sim"`).
    pub crate_name: String,
    /// Workspace-relative path with forward slashes
    /// (e.g. `"crates/sim/src/engine.rs"`).
    pub rel_path: String,
}

/// Parsed allow annotations for one file.
#[derive(Debug, Default)]
pub struct Allows {
    /// rule -> lines carrying a line-scoped allow.
    lines: BTreeMap<String, Vec<u32>>,
    /// rules allowed for the whole file.
    file: Vec<String>,
}

impl Allows {
    /// Is `rule` suppressed at `line` (same line, the line above, or a
    /// file-scoped allow)?
    pub fn suppresses(&self, rule: &str, line: u32) -> bool {
        if self.file.iter().any(|r| r == rule) {
            return true;
        }
        self.lines
            .get(rule)
            .is_some_and(|ls| ls.iter().any(|&l| l == line || l + 1 == line))
    }
}

/// Map an annotation rule name to its canonical id. `A1` is deliberately
/// absent: annotation hygiene cannot be allowed away.
fn canonical_rule(name: &str) -> Option<&'static str> {
    match name.trim() {
        "D1" => Some("D1"),
        "D2" => Some("D2"),
        "D3" | "panic" => Some("D3"),
        "D4" => Some("D4"),
        "D5" => Some("D5"),
        "D6" => Some("D6"),
        "P1" => Some("P1"),
        "P2" => Some("P2"),
        _ => None,
    }
}

/// Parse `lint: allow(...)` / `lint: allow-file(...)` annotations out of the
/// file's comments. An annotation must carry a non-empty reason after the
/// closing parenthesis to take effect.
pub fn parse_allows(comments: &[Comment]) -> Allows {
    let mut allows = Allows::default();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let (file_scoped, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\u{2014}', '\u{2013}', '-', ':', '\t'])
            .trim();
        if reason.is_empty() {
            continue; // exemptions must be justified
        }
        for name in rest[..close].split(',') {
            let Some(rule) = canonical_rule(name) else {
                continue;
            };
            if file_scoped {
                allows.file.push(rule.to_string());
            } else {
                allows
                    .lines
                    .entry(rule.to_string())
                    .or_default()
                    .push(c.line);
            }
        }
    }
    allows
}

/// Run every rule over one file's source. Returns findings sorted by line.
pub fn check_source(src: &str, ctx: &FileCtx) -> Vec<Finding> {
    let s = scan(src);
    let allows = parse_allows(&s.comments);
    let mut findings = Vec::new();

    rule_d1(&s.toks, ctx, &mut findings);
    rule_d2(&s.toks, ctx, &mut findings);
    rule_d3(&s.toks, ctx, &mut findings);
    rule_d4(&s.toks, ctx, &mut findings);
    rule_p1(&s.toks, &s.comments, ctx, &mut findings);
    rule_a1(&s.comments, ctx, &mut findings);

    findings.retain(|f| !allows.suppresses(f.rule, f.line));
    findings.sort_by_key(|f| (f.line, f.rule));
    // One report per (line, rule): three float `==` on one line are one
    // problem to fix, not three.
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

fn in_crate(ctx: &FileCtx, list: &[&str]) -> bool {
    list.iter().any(|c| *c == ctx.crate_name)
}

fn push(
    findings: &mut Vec<Finding>,
    ctx: &FileCtx,
    line: u32,
    rule: &'static str,
    message: String,
    hint: String,
) {
    findings.push(Finding::new(
        ctx.rel_path.clone(),
        line,
        rule,
        message,
        hint,
    ));
}

/// A1 — allow-annotation hygiene: every `lint: allow(...)` must name a
/// known rule and carry a non-empty reason clause. Malformed annotations
/// are dead weight (they suppress nothing) and, worse, they *look* like
/// an audit trail — so they are findings in their own right.
fn rule_a1(comments: &[Comment], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let rest = if let Some(r) = rest.strip_prefix("allow-file(") {
            r
        } else if let Some(r) = rest.strip_prefix("allow(") {
            r
        } else {
            push(
                findings,
                ctx,
                c.line,
                "A1",
                format!("unrecognized lint annotation `lint:{rest}`"),
                "use `// lint: allow(RULE) — reason` or `// lint: allow-file(RULE) — reason`"
                    .to_string(),
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            push(
                findings,
                ctx,
                c.line,
                "A1",
                "allow annotation is missing its closing parenthesis".to_string(),
                "write `// lint: allow(RULE) — reason`".to_string(),
            );
            continue;
        };
        for name in rest[..close].split(',') {
            if canonical_rule(name).is_none() {
                push(
                    findings,
                    ctx,
                    c.line,
                    "A1",
                    format!("allow annotation names unknown rule id `{}`", name.trim()),
                    "valid ids: D1–D6, P1, P2 (alias `panic` for D3); delete the annotation if the rule no longer exists".to_string(),
                );
            }
        }
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\u{2014}', '\u{2013}', '-', ':', '\t'])
            .trim();
        if reason.is_empty() {
            push(
                findings,
                ctx,
                c.line,
                "A1",
                "allow annotation has no reason clause, so it suppresses nothing".to_string(),
                "append `— <why this exemption is sound>` after the closing parenthesis"
                    .to_string(),
            );
        }
    }
}

/// D1 — `HashMap`/`HashSet` in deterministic crates.
fn rule_d1(toks: &[Tok], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if !in_crate(ctx, D1_CRATES) {
        return;
    }
    for t in toks {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            push(
                findings,
                ctx,
                t.line,
                "D1",
                format!(
                    "{} has nondeterministic iteration order; crate `{}` feeds simulator state",
                    t.text, ctx.crate_name
                ),
                format!(
                    "use BTree{} (ordered) or an index-keyed Vec; see DESIGN.md §2.2",
                    &t.text[4..]
                ),
            );
        }
    }
}

/// D2 — wall clocks outside `server`/`bench`, unseeded entropy outside
/// `bench` (two tiers; see [`D2_WALL_EXEMPT_CRATES`]).
fn rule_d2(toks: &[Tok], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let wall_exempt = in_crate(ctx, D2_WALL_EXEMPT_CRATES);
    let entropy_exempt = in_crate(ctx, D2_ENTROPY_EXEMPT_CRATES);
    if wall_exempt && entropy_exempt {
        return;
    }
    let live = |t: &Tok| !t.in_test;
    for (i, t) in toks.iter().enumerate() {
        if !live(t) || t.kind != TokKind::Ident {
            continue;
        }
        let path_call = |head: &str, tail: &str| {
            t.text == head
                && toks.get(i + 1).is_some_and(|p| p.text == "::")
                && toks.get(i + 2).is_some_and(|m| m.text == tail)
        };
        // Wall-clock tier: reading (or naming a handle to) the machine
        // clock. `WallClock` as a bare type token counts — holding the
        // wall-clock handle outside the serving boundary is the leak this
        // tier exists to catch, whether or not `.now()` appears in the
        // same file.
        let wall_hit = if path_call("Instant", "now") {
            Some("Instant::now")
        } else if path_call("SystemTime", "now") {
            Some("SystemTime::now")
        } else if t.text == "WallClock" {
            Some("WallClock")
        } else {
            None
        };
        if let Some(what) = wall_hit {
            if !wall_exempt {
                push(
                    findings,
                    ctx,
                    t.line,
                    "D2",
                    format!("{what} reads the machine clock; only crates/server (the serving runtime) and bench may"),
                    "consume time through the unit_core::clock::Clock trait (VirtualClock outside the server)".to_string(),
                );
            }
            continue;
        }
        // Entropy tier: unseeded randomness.
        let entropy_hit = if t.text == "thread_rng" {
            Some("thread_rng")
        } else if path_call("rand", "random") {
            Some("rand::random")
        } else {
            None
        };
        if let Some(what) = entropy_hit {
            if !entropy_exempt {
                push(
                    findings,
                    ctx,
                    t.line,
                    "D2",
                    format!("{what} is nondeterministic; simulation code must not read OS entropy"),
                    "derive randomness from a seeded StdRng".to_string(),
                );
            }
        }
    }
}

/// D3 — panic-family calls in non-test library code.
fn rule_d3(toks: &[Tok], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if !in_crate(ctx, D3_CRATES) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == ".";
        let next_paren = toks.get(i + 1).is_some_and(|n| n.text == "(");
        let next_bang = toks.get(i + 1).is_some_and(|n| n.text == "!");
        let hit = match t.text.as_str() {
            "unwrap" | "expect" if prev_dot && next_paren => Some(format!(".{}()", t.text)),
            "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => {
                Some(format!("{}!", t.text))
            }
            _ => None,
        };
        if let Some(what) = hit {
            push(
                findings,
                ctx,
                t.line,
                "D3",
                format!("{what} can panic in library code"),
                "return a Result, or annotate: // lint: allow(panic) — <why this cannot fire>"
                    .to_string(),
            );
        }
    }
}

/// D4 — float equality and simulated-time truncation casts.
fn rule_d4(toks: &[Tok], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if !in_crate(ctx, D4_CRATES) || D4_EXEMPT_FILES.contains(&ctx.rel_path.as_str()) {
        return;
    }
    const INT_TYPES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    const TIME_MARKERS: &[&str] = &["as_secs_f64", "TICKS_PER_SEC"];
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        // D4a: `==` / `!=` adjacent to a float literal.
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            let float_adjacent = (i > 0 && toks[i - 1].kind == TokKind::Float)
                || toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Float);
            if float_adjacent {
                push(
                    findings,
                    ctx,
                    t.line,
                    "D4",
                    format!("direct float `{}` comparison is exact-representation fragile", t.text),
                    "compare against an epsilon, restructure around integer ticks, or annotate: // lint: allow(D4) — <why exactness is intended>".to_string(),
                );
            }
        }
        // D4b: `<time expr> as <int>` truncation outside core/src/time.rs.
        if t.kind == TokKind::Ident
            && t.text == "as"
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && INT_TYPES.contains(&n.text.as_str()))
        {
            // Walk back through the current expression (stop at statement /
            // block boundaries) looking for simulated-time markers.
            let mut j = i;
            let mut found = false;
            while j > 0 {
                j -= 1;
                let b = &toks[j];
                if b.kind == TokKind::Punct && matches!(b.text.as_str(), ";" | "{" | "}") {
                    break;
                }
                if b.kind == TokKind::Ident && TIME_MARKERS.contains(&b.text.as_str()) {
                    found = true;
                    break;
                }
                if i - j > 40 {
                    break;
                }
            }
            if found {
                push(
                    findings,
                    ctx,
                    t.line,
                    "D4",
                    "as-cast truncation of a simulated-time value outside core/src/time.rs"
                        .to_string(),
                    "convert through SimTime::from_secs_f64 / SimDuration::from_secs_f64 so rounding lives in one place".to_string(),
                );
            }
        }
    }
}

/// P1 — complexity documentation on the `Policy` and `FaultHook` trait
/// surfaces and the engine's event-loop hooks.
fn rule_p1(toks: &[Tok], comments: &[Comment], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    enum Scope {
        /// Every `fn` inside `trait <name> { … }` (and its impls share the
        /// docs through rustdoc inheritance, so only the trait is checked).
        TraitSurface(&'static str),
        /// Every `fn on_*` plus `fn reschedule` (the event loop hooks).
        EngineHooks,
    }
    let scope = match ctx.rel_path.as_str() {
        "crates/core/src/policy.rs" => Scope::TraitSurface("Policy"),
        "crates/sim/src/faults.rs" => Scope::TraitSurface("FaultHook"),
        "crates/obs/src/recorder.rs" => Scope::TraitSurface("Observer"),
        "crates/sim/src/engine.rs" => Scope::EngineHooks,
        _ => return,
    };

    // For a trait scope: find the token range of `trait <name> { … }`.
    let trait_range = match scope {
        Scope::TraitSurface(trait_name) => {
            let mut range = None;
            for (i, t) in toks.iter().enumerate() {
                if t.kind == TokKind::Ident
                    && t.text == "trait"
                    && toks.get(i + 1).is_some_and(|n| n.text == trait_name)
                {
                    let mut depth = 0usize;
                    for (j, u) in toks.iter().enumerate().skip(i) {
                        if u.kind == TokKind::Punct && u.text == "{" {
                            depth += 1;
                        } else if u.kind == TokKind::Punct && u.text == "}" {
                            depth -= 1;
                            if depth == 0 {
                                range = Some((i, j));
                                break;
                            }
                        }
                    }
                    break;
                }
            }
            range
        }
        Scope::EngineHooks => None,
    };

    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !(t.kind == TokKind::Ident && t.text == "fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let wanted = match scope {
            Scope::TraitSurface(_) => trait_range.is_some_and(|(lo, hi)| i > lo && i < hi),
            Scope::EngineHooks => name_tok.text.starts_with("on_") || name_tok.text == "reschedule",
        };
        if !wanted {
            continue;
        }
        // The doc block is the contiguous run of doc-comment lines directly
        // above the item (attributes may sit between the docs and the fn).
        let mut item_line = t.line;
        let mut k = i;
        while k > 0 {
            let p = &toks[k - 1];
            if p.kind == TokKind::Punct && p.text == "]" {
                // Skip a whole attribute `#[ … ]` backwards, whatever it holds.
                let mut depth = 0usize;
                let mut m = k - 1;
                loop {
                    if toks[m].kind == TokKind::Punct {
                        if toks[m].text == "]" {
                            depth += 1;
                        } else if toks[m].text == "[" {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                    }
                    if m == 0 {
                        break;
                    }
                    m -= 1;
                }
                if m > 0 && toks[m - 1].kind == TokKind::Punct && toks[m - 1].text == "#" {
                    m -= 1;
                }
                item_line = toks[m].line;
                k = m;
                continue;
            }
            let qualifier = (p.kind == TokKind::Ident
                && matches!(
                    p.text.as_str(),
                    "pub" | "crate" | "super" | "const" | "unsafe" | "default" | "async" | "extern"
                ))
                || (p.kind == TokKind::Punct && matches!(p.text.as_str(), "(" | ")"));
            if !qualifier {
                break;
            }
            item_line = p.line;
            k -= 1;
        }
        let mut doc_text = String::new();
        let mut want_line = item_line;
        for c in comments.iter().rev() {
            if !c.is_doc || c.line >= item_line {
                continue;
            }
            if c.line + 1 == want_line || c.line == want_line {
                doc_text.push_str(&c.text);
                want_line = c.line;
            }
        }
        if !doc_text.contains("O(") {
            push(
                findings,
                ctx,
                t.line,
                "P1",
                format!(
                    "`fn {}` is on the hot-path surface but its docs state no complexity bound",
                    name_tok.text
                ),
                "add a `/// O(...)` cost to the doc comment (see DESIGN.md §2.1)".to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_name: &str, rel: &str) -> FileCtx {
        FileCtx {
            crate_name: crate_name.to_string(),
            rel_path: rel.to_string(),
        }
    }

    #[test]
    fn d1_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            check_source(src, &ctx("sim", "crates/sim/src/x.rs"))
                .iter()
                .filter(|f| f.rule == "D1")
                .count(),
            1
        );
        assert!(check_source(src, &ctx("bench", "crates/bench/src/x.rs")).is_empty());
    }

    #[test]
    fn d3_skips_test_code_and_honors_allow() {
        let src = "
fn live() { x.unwrap(); }
fn ok() {
    // lint: allow(panic) — input validated above
    y.expect(\"fine\");
}
#[cfg(test)]
mod tests { fn t() { z.unwrap(); } }
";
        let fs = check_source(src, &ctx("core", "crates/core/src/x.rs"));
        let d3: Vec<_> = fs.iter().filter(|f| f.rule == "D3").collect();
        assert_eq!(d3.len(), 1);
        assert_eq!(d3[0].line, 2);
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let src = "// lint: allow(panic)\nfn f() { x.unwrap(); }\n";
        let fs = check_source(src, &ctx("core", "crates/core/src/x.rs"));
        assert_eq!(fs.iter().filter(|f| f.rule == "D3").count(), 1);
    }

    #[test]
    fn file_scoped_allow_covers_everything() {
        let src = "// lint: allow-file(D1) — prototype module\nuse std::collections::HashMap;\ntype M = HashMap<u8, u8>;\n";
        assert!(check_source(src, &ctx("core", "crates/core/src/x.rs")).is_empty());
    }

    #[test]
    fn d4_time_exempt_file() {
        let src = "let t = (secs * TICKS_PER_SEC as f64).round() as u64;\n";
        assert!(check_source(src, &ctx("core", "crates/core/src/time.rs")).is_empty());
        assert_eq!(
            check_source(src, &ctx("core", "crates/core/src/other.rs"))
                .iter()
                .filter(|f| f.rule == "D4")
                .count(),
            1
        );
    }
}
