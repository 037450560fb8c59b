//! **D5 — digest taint.** No D2-class nondeterminism source may flow into
//! any function reachable from `report_digest` or from outcome-log
//! construction.
//!
//! Sinks (the taint roots):
//!
//! * every `fn report_digest` in the analyzed crates;
//! * every function that constructs an `OutcomeRecord { … }` literal
//!   (the outcome log feeds the replay/export goldens).
//!
//! The pass walks the call graph *forward* from the sinks — everything a
//! sink (transitively) calls computes digest input — and reports any
//! nondeterminism source found in that closure:
//!
//! * wall clocks: `Instant::now`, `SystemTime::now`, `WallClock::now`
//!   (the serving runtime's handle — D2-legal in `crates/server`, but its
//!   ticks must never feed digest input);
//! * OS entropy: `thread_rng`, `rand::random`;
//! * machine shape: `available_parallelism`;
//! * iteration-order / address hashing: `HashMap` / `HashSet` anywhere in
//!   the body (their iteration order hashes pointer-derived state).
//!
//! `// lint: allow(D2)` does **not** suppress D5: the per-shard wall
//! clocks in `cluster::run` are D2-allowed *because* they are diagnostic
//! and digest-excluded — if one of them ever becomes reachable from
//! `report_digest`, that is exactly the regression this rule exists to
//! catch. Only an explicit `// lint: allow(D5) — reason` silences a D5
//! finding.

use crate::graph::{Graph, ParsedFile};
use crate::lexer::TokKind;
use crate::parser::{CallKind, FnDef};
use crate::rules::Finding;

/// One nondeterminism source site inside a fn body.
struct Source {
    what: &'static str,
    line: u32,
}

/// Does this fn body construct an `OutcomeRecord { … }` literal?
fn builds_outcome_record(file: &ParsedFile, d: &FnDef) -> bool {
    let Some((open, close)) = d.body else {
        return false;
    };
    let hi = close.min(file.toks.len());
    (open..hi).any(|i| {
        let t = &file.toks[i];
        t.kind == TokKind::Ident
            && t.text == "OutcomeRecord"
            && file
                .toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == "{")
    })
}

/// Collect the D5 source sites in one fn.
fn sources_in(file: &ParsedFile, d: &FnDef) -> Vec<Source> {
    let mut out = Vec::new();
    for c in &d.calls {
        let what = match (&c.kind, c.name.as_str()) {
            (CallKind::Qualified(q), "now") if q == "Instant" => Some("Instant::now"),
            (CallKind::Qualified(q), "now") if q == "SystemTime" => Some("SystemTime::now"),
            // The serving runtime's clock handle: D2-legal inside
            // crates/server, but its ticks must never feed digest input.
            (CallKind::Qualified(q), "now") if q == "WallClock" => Some("WallClock::now"),
            (_, "thread_rng") => Some("thread_rng"),
            (CallKind::Qualified(q), "random") if q == "rand" => Some("rand::random"),
            (_, "available_parallelism") => Some("available_parallelism"),
            _ => None,
        };
        if let Some(what) = what {
            out.push(Source { what, line: c.line });
        }
    }
    if let Some((open, close)) = d.body {
        let hi = close.min(file.toks.len());
        for t in &file.toks[open..hi] {
            if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                out.push(Source {
                    what: if t.text == "HashMap" {
                        "HashMap iteration order"
                    } else {
                        "HashSet iteration order"
                    },
                    line: t.line,
                });
            }
        }
    }
    out.sort_by_key(|s| s.line);
    out
}

/// Run the D5 pass. Findings are appended unsorted; the caller sorts.
pub fn rule_d5(files: &[ParsedFile], graph: &Graph, findings: &mut Vec<Finding>) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let d = graph.def(files, i);
            !d.in_test
                && (d.name == "report_digest" || builds_outcome_record(graph.file(files, i), d))
        })
        .collect();
    if roots.is_empty() {
        return;
    }
    let reach = graph.reach(roots.iter().copied());

    for i in 0..graph.nodes.len() {
        if !reach.contains(i) {
            continue;
        }
        let d = graph.def(files, i);
        if d.in_test {
            continue;
        }
        let file = graph.file(files, i);
        for s in sources_in(file, d) {
            if file.allows.suppresses("D5", s.line) {
                continue;
            }
            let path = graph.render_path(files, &reach.path_to(i));
            findings.push(Finding {
                file: file.ctx.rel_path.clone(),
                line: s.line,
                rule: "D5",
                message: format!(
                    "`{}` is a nondeterminism source inside digest-reachable code: {}",
                    s.what, path
                ),
                hint: "report_digest must be a pure function of (trace, seed, config); move the source out of the digest closure or annotate: // lint: allow(D5) — <why this cannot reach digest state>".to_string(),
                symbol: graph.qual_name(files, i),
                kind: format!("taint:{}", s.what),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::parse_file;
    use crate::rules::FileCtx;

    fn pf(crate_name: &str, rel: &str, src: &str) -> ParsedFile {
        parse_file(
            src,
            FileCtx {
                crate_name: crate_name.to_string(),
                rel_path: rel.to_string(),
            },
        )
    }

    fn run(files: &[ParsedFile]) -> Vec<Finding> {
        let g = Graph::build(files);
        let mut fs = Vec::new();
        rule_d5(files, &g, &mut fs);
        fs
    }

    #[test]
    fn wall_clock_reachable_from_digest_is_reported_with_path() {
        let files = vec![pf(
            "sim",
            "crates/sim/src/stats.rs",
            "
            pub fn report_digest(r: &R) -> u64 { mix(r) }
            fn mix(r: &R) -> u64 { stamp() }
            fn stamp() -> u64 { Instant::now(); 0 }
            ",
        )];
        let fs = run(&files);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "D5");
        assert_eq!(fs[0].line, 4);
        assert!(
            fs[0]
                .message
                .contains("sim::report_digest → sim::mix → sim::stamp"),
            "{}",
            fs[0].message
        );
    }

    #[test]
    fn allow_d2_does_not_suppress_d5_but_allow_d5_does() {
        let src = "
            pub fn report_digest(r: &R) -> u64 { a(); b(); 0 }
            fn a() {
                // lint: allow(D2) — diagnostic only
                Instant::now();
            }
            fn b() {
                // lint: allow(D5) — value is discarded before hashing
                Instant::now();
            }
        ";
        let files = vec![pf("sim", "crates/sim/src/stats.rs", src)];
        let fs = run(&files);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].symbol.ends_with("::a"), "{}", fs[0].symbol);
    }

    #[test]
    fn unreachable_wall_clock_is_clean() {
        let files = vec![pf(
            "cluster",
            "crates/cluster/src/run.rs",
            "
            pub fn report_digest(r: &R) -> u64 { 0 }
            pub fn shard_diag() { Instant::now(); }
            ",
        )];
        assert!(run(&files).is_empty());
    }

    #[test]
    fn outcome_record_construction_is_a_sink() {
        let files = vec![pf(
            "sim",
            "crates/sim/src/stats.rs",
            "
            pub fn record(q: &Q) -> OutcomeRecord {
                OutcomeRecord { t: stamp() }
            }
            fn stamp() -> u64 { SystemTime::now(); 0 }
            ",
        )];
        let fs = run(&files);
        assert_eq!(fs.len(), 1);
        assert!(
            fs[0].message.contains("SystemTime::now"),
            "{}",
            fs[0].message
        );
    }

    #[test]
    fn hashmap_and_parallelism_are_sources() {
        let files = vec![pf(
            "sim",
            "crates/sim/src/stats.rs",
            "
            pub fn report_digest(r: &R) -> u64 {
                let m: HashMap<u32, u32> = HashMap::new();
                let w = std::thread::available_parallelism();
                0
            }
            ",
        )];
        let fs = run(&files);
        let whats: Vec<_> = fs.iter().map(|f| f.kind.as_str()).collect();
        assert!(
            whats.contains(&"taint:HashMap iteration order"),
            "{whats:?}"
        );
        assert!(whats.contains(&"taint:available_parallelism"), "{whats:?}");
    }
}
