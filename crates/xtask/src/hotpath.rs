//! **P2 — hot-path allocation.** Flags `.clone()`, `.to_vec()`, and
//! `format!` inside the per-event hooks — where the event-loop
//! optimisation bought its wins, and where a stray per-event allocation
//! silently gives them back. (`Vec::new` is not in the set: it is `const`
//! and never allocates.)
//!
//! The hot set is:
//!
//! * every method of an `impl … for` block implementing `Policy`,
//!   `FaultHook`, or `Observer` (and the trait declarations' default
//!   bodies) — these run once per simulated event;
//! * every `on_*` / `reschedule` fn in `crates/sim/src/engine.rs` (the
//!   engine's own event-loop hooks, same set P1 documents).
//!
//! Scope is the hook bodies themselves (closures included), not their
//! transitive callees: a named helper that allocates is a deliberate,
//! reviewable choice; an inline allocation in the per-event loop is
//! usually an accident. Suppress with `// lint: allow(P2) — reason`.

use crate::graph::ParsedFile;
use crate::parser::{CallKind, FnDef};
use crate::rules::Finding;

/// Traits whose impl methods run once per simulated event.
const HOT_TRAITS: &[&str] = &["Policy", "FaultHook", "Observer"];

fn is_hot(file: &ParsedFile, d: &FnDef) -> bool {
    let in_hot_trait = d
        .trait_impl
        .as_deref()
        .is_some_and(|t| HOT_TRAITS.contains(&t))
        || (d.in_trait_decl && d.owner.as_deref().is_some_and(|o| HOT_TRAITS.contains(&o)));
    let engine_hook = file.ctx.rel_path == "crates/sim/src/engine.rs"
        && (d.name.starts_with("on_") || d.name == "reschedule");
    in_hot_trait || engine_hook
}

/// Run the P2 pass. Findings are appended unsorted; the caller sorts.
pub fn rule_p2(files: &[ParsedFile], findings: &mut Vec<Finding>) {
    for file in files {
        for d in &file.fns {
            if d.in_test || !is_hot(file, d) {
                continue;
            }
            for c in &d.calls {
                let what = match (&c.kind, c.name.as_str()) {
                    (CallKind::Method, "clone") => Some(".clone()"),
                    (CallKind::Method, "to_vec") => Some(".to_vec()"),
                    (CallKind::Macro, "format") => Some("format!"),
                    _ => None,
                };
                let Some(what) = what else { continue };
                if file.allows.suppresses("P2", c.line) {
                    continue;
                }
                let qual = format!("{}::{}", file.ctx.crate_name, d.qual_name());
                findings.push(Finding {
                    file: file.ctx.rel_path.clone(),
                    line: c.line,
                    rule: "P2",
                    message: format!("{what} allocates inside per-event hot path `{qual}`"),
                    hint: "hoist the allocation out of the hook, reuse a scratch buffer, or annotate: // lint: allow(P2) — <why this is not per-event>".to_string(),
                    symbol: qual,
                    kind: format!("alloc:{what}"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::parse_file;
    use crate::rules::FileCtx;

    fn pf(rel: &str, src: &str) -> ParsedFile {
        parse_file(
            src,
            FileCtx {
                crate_name: "sim".to_string(),
                rel_path: rel.to_string(),
            },
        )
    }

    fn run(files: &[ParsedFile]) -> Vec<Finding> {
        let mut fs = Vec::new();
        rule_p2(files, &mut fs);
        fs
    }

    #[test]
    fn policy_impl_allocations_are_reported() {
        let files = vec![pf(
            "crates/sim/src/p.rs",
            "
            impl Policy for Unit {
                fn on_query(&mut self, q: &Q) {
                    let label = format!(\"q{}\", q.id);
                    let copy = q.versions.to_vec();
                }
                fn decide(&self) -> Vec<u32> { Vec::new() }
                fn snapshot(&self) -> Vec<u32> { self.last.clone() }
            }
            ",
        )];
        let fs = run(&files);
        let kinds: Vec<_> = fs.iter().map(|f| f.kind.as_str()).collect();
        // `Vec::new` is const and allocation-free: not a finding.
        assert_eq!(
            kinds,
            vec!["alloc:format!", "alloc:.to_vec()", "alloc:.clone()"]
        );
        assert!(fs[0].symbol.contains("Unit::on_query"), "{}", fs[0].symbol);
    }

    #[test]
    fn engine_hooks_are_hot() {
        let engine = pf(
            "crates/sim/src/engine.rs",
            "impl Sim { fn on_completion(&mut self) { self.buf.clone(); } fn cold(&self) { x.clone(); } }",
        );
        let fs = run(&[engine]);
        let syms: Vec<_> = fs.iter().map(|f| f.symbol.as_str()).collect();
        assert_eq!(syms, vec!["sim::Sim::on_completion"]);
    }

    #[test]
    fn allow_p2_suppresses() {
        let files = vec![pf(
            "crates/sim/src/p.rs",
            "
            impl Observer for Rec {
                fn on_event(&mut self) {
                    // lint: allow(P2) — amortized: grows once then reused
                    self.names.push(format!(\"e\"));
                }
            }
            ",
        )];
        assert!(run(&files).is_empty());
    }

    #[test]
    fn cold_code_is_ignored() {
        let files = vec![pf(
            "crates/sim/src/p.rs",
            "pub fn setup() -> Vec<u32> { let v = Vec::new(); x.clone(); v }",
        )];
        assert!(run(&files).is_empty());
    }
}
