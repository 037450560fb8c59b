//! **D6 — panic reachability.** Every `unwrap`/`expect`/`panic!`-family/
//! indexing site reachable from a public library entry point is reported
//! with its call path, unless covered by a reasoned `// lint: allow`.
//!
//! Where D3 is a per-line rule ("there is an `unwrap` in library code"),
//! D6 answers the caller's question: *can this panic actually fire from
//! the API surface?* Roots are every unrestricted-`pub` fn in the
//! analyzed crates; a panic site buried in a private helper is reported
//! once per helper (with the shortest entry path), not once per caller.
//!
//! Suppression: a line-scoped `// lint: allow(D6) — reason` on the site,
//! or an existing `allow(D3)`/`allow(panic)` annotation — a justified D3
//! exemption ("cannot fire, input validated") covers reachability too,
//! so the two rules never demand duplicate annotations.

use crate::graph::{Graph, ParsedFile};
use crate::parser::{CallKind, FnDef};
use crate::rules::Finding;

/// One potential panic site inside a fn body.
struct PanicSite {
    /// `unwrap`, `expect`, `panic!`, `unreachable!`, … or `index`.
    what: String,
    /// Site tag (`call:unwrap`, `macro:panic`, `index`).
    kind: String,
    line: u32,
}

fn panic_sites(d: &FnDef) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for c in &d.calls {
        match (&c.kind, c.name.as_str()) {
            (CallKind::Method, "unwrap" | "expect") => out.push(PanicSite {
                what: format!(".{}()", c.name),
                kind: format!("call:{}", c.name),
                line: c.line,
            }),
            (CallKind::Macro, "panic" | "unreachable" | "todo" | "unimplemented") => {
                out.push(PanicSite {
                    what: format!("{}!", c.name),
                    kind: format!("macro:{}", c.name),
                    line: c.line,
                });
            }
            _ => {}
        }
    }
    for s in &d.index_sites {
        out.push(PanicSite {
            what: "indexing".to_string(),
            kind: "index".to_string(),
            line: s.line,
        });
    }
    out.sort_by_key(|s| s.line);
    out
}

/// Run the D6 pass. Findings are appended unsorted; the caller sorts.
pub fn rule_d6(files: &[ParsedFile], graph: &Graph, findings: &mut Vec<Finding>) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let d = graph.def(files, i);
            d.is_pub && !d.in_test
        })
        .collect();
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
        for s in panic_sites(d) {
            let allowed =
                file.allows.suppresses("D6", s.line) || file.allows.suppresses("D3", s.line);
            if allowed {
                continue;
            }
            let path = graph.render_path(files, &reach.path_to(i));
            findings.push(Finding {
                file: file.ctx.rel_path.clone(),
                line: s.line,
                rule: "D6",
                message: format!(
                    "{} can panic and is reachable from the public API: {}",
                    s.what, path
                ),
                hint: "return a Result, use .get(..), or annotate: // lint: allow(D6) — <why this cannot fire>".to_string(),
                symbol: graph.qual_name(files, i),
                kind: s.kind,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::parse_file;
    use crate::rules::FileCtx;

    fn pf(src: &str) -> ParsedFile {
        parse_file(
            src,
            FileCtx {
                crate_name: "sim".to_string(),
                rel_path: "crates/sim/src/x.rs".to_string(),
            },
        )
    }

    fn run(files: &[ParsedFile]) -> Vec<Finding> {
        let g = Graph::build(files);
        let mut fs = Vec::new();
        rule_d6(files, &g, &mut fs);
        fs
    }

    #[test]
    fn unwrap_behind_private_helper_is_reported_with_path() {
        let files = vec![pf("
            pub fn api() { helper(); }
            fn helper() { deep(); }
            fn deep() { x.unwrap(); }
            ")];
        let fs = run(&files);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "D6");
        assert_eq!(fs[0].line, 4);
        assert!(
            fs[0].message.contains("sim::api → sim::helper → sim::deep"),
            "{}",
            fs[0].message
        );
    }

    #[test]
    fn unreachable_panic_is_clean() {
        let files = vec![pf("
            pub fn api() {}
            fn orphan() { panic!(\"never called\"); }
            ")];
        assert!(run(&files).is_empty());
    }

    #[test]
    fn allow_d3_or_d6_suppresses() {
        let files = vec![pf("
            pub fn api() {
                // lint: allow(panic) — heap is non-empty by the loop guard
                a.unwrap();
                // lint: allow(D6) — index is bounds-checked above
                xs[i];
                b.expect(\"boom\");
            }
            ")];
        let fs = run(&files);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, "call:expect");
    }

    #[test]
    fn indexing_and_macros_are_sites() {
        let files = vec![pf("
            pub fn api(xs: &[u64], i: usize) -> u64 {
                if i > xs.len() { unreachable!(); }
                xs[i]
            }
            ")];
        let fs = run(&files);
        let kinds: Vec<_> = fs.iter().map(|f| f.kind.as_str()).collect();
        assert_eq!(kinds, vec!["macro:unreachable", "index"]);
    }

    #[test]
    fn private_only_code_is_out_of_scope() {
        let files = vec![pf("fn internal() { x.unwrap(); }")];
        assert!(run(&files).is_empty());
    }
}
