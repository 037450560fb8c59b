//! An approximate workspace call graph over the parsed function set.
//!
//! Resolution is name-based and deliberately over-approximate — when a
//! call cannot be pinned to one definition it resolves to *every*
//! same-named candidate, never to none:
//!
//! * `helper(…)` → every free `fn helper` in the analyzed crates;
//! * `Type::helper(…)` → every `fn helper` whose `impl` block names
//!   `Type` (as the implementing type or as the implemented trait), with
//!   `Self::` mapped to the caller's own owner;
//! * `x.helper(…)` → every method named `helper` anywhere in the
//!   workspace (the receiver's type is unknown without real inference);
//! * macros and unresolved paths (e.g. `std::…`) produce no edges — the
//!   passes treat those as leaf *sites*, not calls.
//!
//! False edges inflate reachability, so the interprocedural rules err
//! toward reporting.

use crate::lexer::{Comment, Tok};
use crate::parser::{CallKind, FnDef};
use crate::rules::{Allows, FileCtx};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One analyzed source file: its lint context, token stream, comments,
/// parsed allow annotations, and parsed function items.
#[derive(Debug)]
pub struct ParsedFile {
    /// Crate / path context.
    pub ctx: FileCtx,
    /// Full token stream (for body-range scanning in the passes).
    pub toks: Vec<Tok>,
    /// All comments (already consumed into `allows`, kept for doc scans).
    pub comments: Vec<Comment>,
    /// Parsed allow annotations.
    pub allows: Allows,
    /// Function items in source order.
    pub fns: Vec<FnDef>,
}

/// One node in the call graph.
#[derive(Debug)]
pub struct Node {
    /// Index into the `ParsedFile` list this fn came from.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct Graph {
    /// All nodes, in (file, fn) order.
    pub nodes: Vec<Node>,
    /// Adjacency: for each node, the nodes it may call (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
}

/// The result of a reachability sweep: shortest-hop BFS parents.
#[derive(Debug)]
pub struct Reach {
    /// `parent[i]` is `Some(p)` when node `i` was reached via `p`
    /// (`p == i` for roots); `None` when unreachable.
    pub parent: Vec<Option<usize>>,
}

impl Reach {
    /// Is node `i` reachable from any root?
    pub fn contains(&self, i: usize) -> bool {
        self.parent[i].is_some()
    }

    /// The root→…→`i` node path (empty when unreachable).
    pub fn path_to(&self, i: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = i;
        loop {
            match self.parent[cur] {
                Some(p) => {
                    path.push(cur);
                    if p == cur {
                        break;
                    }
                    cur = p;
                }
                None => return Vec::new(),
            }
        }
        path.reverse();
        path
    }
}

impl Graph {
    /// Build the graph over every fn in `files`.
    pub fn build(files: &[ParsedFile]) -> Graph {
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for (di, _) in f.fns.iter().enumerate() {
                nodes.push(Node {
                    file: fi,
                    fn_idx: di,
                });
            }
        }

        // Name-resolution maps. Test fns neither call nor get called —
        // the passes only reason about live library code.
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut owned: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            let d = &files[n.file].fns[n.fn_idx];
            if d.in_test {
                continue;
            }
            match &d.owner {
                None => free.entry(d.name.as_str()).or_default().push(i),
                Some(o) => {
                    methods.entry(d.name.as_str()).or_default().push(i);
                    owned
                        .entry((o.as_str(), d.name.as_str()))
                        .or_default()
                        .push(i);
                    if let Some(tr) = &d.trait_impl {
                        owned
                            .entry((tr.as_str(), d.name.as_str()))
                            .or_default()
                            .push(i);
                    }
                }
            }
        }

        let mut edges = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let d = &files[n.file].fns[n.fn_idx];
            let mut out = BTreeSet::new();
            if !d.in_test {
                for c in &d.calls {
                    let targets: Option<&Vec<usize>> = match &c.kind {
                        CallKind::Free => free.get(c.name.as_str()),
                        CallKind::Method => methods.get(c.name.as_str()),
                        CallKind::Qualified(q) => {
                            let q = if q == "Self" {
                                d.owner.as_deref().unwrap_or(q)
                            } else {
                                q.as_str()
                            };
                            owned.get(&(q, c.name.as_str()))
                        }
                        CallKind::Macro => None,
                    };
                    if let Some(ts) = targets {
                        out.extend(ts.iter().copied());
                    }
                }
            }
            edges.push(out.into_iter().collect());
        }
        Graph { nodes, edges }
    }

    /// BFS over call edges from `roots`, recording shortest-hop parents.
    pub fn reach(&self, roots: impl IntoIterator<Item = usize>) -> Reach {
        let mut parent = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &self.edges[i] {
                if parent[j].is_none() {
                    parent[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        Reach { parent }
    }

    /// `crate::Owner::name` display name for node `i`.
    pub fn qual_name(&self, files: &[ParsedFile], i: usize) -> String {
        let n = &self.nodes[i];
        let d = &files[n.file].fns[n.fn_idx];
        format!("{}::{}", files[n.file].ctx.crate_name, d.qual_name())
    }

    /// Render a node path as `a::F::f → b::G::g → …`.
    pub fn render_path(&self, files: &[ParsedFile], path: &[usize]) -> String {
        path.iter()
            .map(|&i| self.qual_name(files, i))
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// The fn definition behind node `i`.
    pub fn def<'a>(&self, files: &'a [ParsedFile], i: usize) -> &'a FnDef {
        let n = &self.nodes[i];
        &files[n.file].fns[n.fn_idx]
    }

    /// The file behind node `i`.
    pub fn file<'a>(&self, files: &'a [ParsedFile], i: usize) -> &'a ParsedFile {
        &files[self.nodes[i].file]
    }
}

/// Parse one source file into a [`ParsedFile`].
pub fn parse_file(src: &str, ctx: FileCtx) -> ParsedFile {
    let s = crate::lexer::scan(src);
    let fns = crate::parser::parse_fns(&s.toks);
    let allows = crate::rules::parse_allows(&s.comments);
    ParsedFile {
        ctx,
        toks: s.toks,
        comments: s.comments,
        allows,
        fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf(crate_name: &str, rel: &str, src: &str) -> ParsedFile {
        parse_file(
            src,
            FileCtx {
                crate_name: crate_name.to_string(),
                rel_path: rel.to_string(),
            },
        )
    }

    fn idx(g: &Graph, files: &[ParsedFile], name: &str) -> usize {
        (0..g.nodes.len())
            .find(|&i| g.def(files, i).name == name)
            .unwrap()
    }

    #[test]
    fn free_calls_link_across_files() {
        let files = vec![
            pf("sim", "crates/sim/src/a.rs", "pub fn entry() { helper(); }"),
            pf(
                "core",
                "crates/core/src/b.rs",
                "pub fn helper() { leaf(); }\nfn leaf() {}",
            ),
        ];
        let g = Graph::build(&files);
        let r = g.reach([idx(&g, &files, "entry")]);
        let leaf = idx(&g, &files, "leaf");
        assert!(r.contains(leaf));
        let path = r.path_to(leaf);
        assert_eq!(
            g.render_path(&files, &path),
            "sim::entry → core::helper → core::leaf"
        );
    }

    #[test]
    fn qualified_calls_resolve_through_traits_and_self() {
        let src = "
            pub trait Hook { fn fire(&self); }
            pub struct Gun;
            impl Gun {
                pub fn trigger(&self) { Self::cock(); Hook::fire(self); }
                fn cock() {}
            }
            impl Hook for Gun { fn fire(&self) { boom(); } }
            fn boom() {}
        ";
        let files = vec![pf("sim", "crates/sim/src/g.rs", src)];
        let g = Graph::build(&files);
        let r = g.reach([idx(&g, &files, "trigger")]);
        assert!(r.contains(idx(&g, &files, "cock")));
        assert!(r.contains(idx(&g, &files, "boom")));
    }

    #[test]
    fn method_calls_over_approximate_by_name() {
        let files = vec![
            pf("sim", "crates/sim/src/a.rs", "pub fn go(x: X) { x.step(); }"),
            pf(
                "core",
                "crates/core/src/b.rs",
                "impl A { pub fn step(&self) {} }\nimpl B { pub fn step(&self) { deep(); } }\nfn deep() {}",
            ),
        ];
        let g = Graph::build(&files);
        let r = g.reach([idx(&g, &files, "go")]);
        // Both candidates (and B::step's callee) are reachable.
        assert!(r.contains(idx(&g, &files, "deep")));
    }

    #[test]
    fn test_fns_are_isolated() {
        let src = "
            pub fn live() {}
            #[cfg(test)]
            mod tests {
                fn t() { dangerous(); }
            }
            fn dangerous() { q.unwrap(); }
        ";
        let files = vec![pf("sim", "crates/sim/src/a.rs", src)];
        let g = Graph::build(&files);
        let r = g.reach([idx(&g, &files, "live")]);
        assert!(!r.contains(idx(&g, &files, "dangerous")));
        // And the test fn itself produces no outgoing edges.
        let t = idx(&g, &files, "t");
        assert!(g.edges[t].is_empty());
    }
}
