//! Stage 2 of the reachability analysis: the `panic-reach` rule, run over
//! the [`CallGraph`](crate::graph).
//!
//! **panic-reach**: no panicking construct — `unwrap`/`expect`, the
//! `panic!`-family macros including `assert!`, slice indexing — may be
//! transitively reachable from a hot-path root, in *any* crate. Clippy's
//! `unwrap_used`/`expect_used`/`panic` denies cover the hot-path crates'
//! own calls, one crate at a time; this rule adds the asserts and indexing
//! clippy has no lint for, and the helper crates the hot path calls into:
//! a helper in `abft-core` that indexes a slice is a violation the moment
//! a filter can call it.
//!
//! The hot-path roots are the functions a mid-round server executes:
//! every `aggregate_into` impl (reached through `GradientFilter`
//! dispatch), plus the [`NAMED_ROOTS`] — the one server loop
//! (`RowSource::serve`, around `RoundEngine::step`) and each driver's
//! entry, from which every row source is reached. Named
//! roots are matched by function name + file, so a rename would silently
//! shrink the walk; [`unresolved_roots`] is the guard, and
//! `tests/workspace_clean.rs` fails when it is non-empty.
//!
//! Each violation carries a **witness chain** — the BFS path
//! `root → f → g → site` that proves reachability — rendered by the CLI
//! and serialized in `--json`. Suppression is edge- and site-scoped:
//!
//! - a `panic-reach` pragma at a **call site** cuts that edge out of the
//!   traversal (the annotation covers the edge it sits on, nothing more);
//! - the same pragma at a **site** (or at the `fn` definition line,
//!   covering the whole body) suppresses the site itself;
//! - a clippy `#[expect]` for the site's twin lint (`expect_used` over an
//!   `.expect(`, …) on its statement or `fn` justifies it too: the parser
//!   never records such a site (see [`parse`](crate::parse)).

use crate::graph::CallGraph;
use crate::parse::ParsedSource;
use crate::{annotated, pragmas_in, Hop, Violation};
use std::collections::BTreeMap;

/// The hot-path roots named by `(function, workspace-relative file)`: the
/// one server loop (which reaches the server step, and every row source's
/// `round_rows` — the D-SGD and peer-to-peer rounds included — through
/// the unknown-receiver fan-out), the lockstep entry, the one
/// simulated-server entry, and the simulated peer-to-peer entry (its
/// set-up and the followers' final-round step).
pub const NAMED_ROOTS: &[(&str, &str)] = &[
    ("serve", "crates/dgd/src/engine.rs"),
    ("execute", "crates/runtime/src/event_loop.rs"),
    ("execute_server", "crates/runtime/src/simulated.rs"),
    ("execute_p2p", "crates/runtime/src/simulated.rs"),
];

/// The [`NAMED_ROOTS`] no function of `graph` matches, as `name (file)`.
pub fn unresolved_roots(graph: &CallGraph) -> Vec<String> {
    NAMED_ROOTS
        .iter()
        .filter(|(name, file)| {
            !graph
                .nodes
                .iter()
                .any(|node| node.name == *name && node.file == *file)
        })
        .map(|(name, file)| format!("{name} ({file})"))
        .collect()
}

/// Whether a node is a hot-path root: an entry point a mid-round server
/// executes, from which the reachability rules start.
fn is_root(node: &crate::graph::Node) -> bool {
    use crate::parse::Owner;
    match node.name.as_str() {
        // Every filter implementation, wherever it lives: an impl of
        // `GradientFilter` (or the trait's own declaration/default), or
        // any `aggregate_into` defined under the filters crate.
        "aggregate_into" => {
            node.file.starts_with("crates/filters/")
                || match &node.owner {
                    Owner::Impl {
                        trait_name: Some(t),
                        ..
                    } => t == "GradientFilter",
                    Owner::Trait { trait_name } => trait_name == "GradientFilter",
                    _ => false,
                }
        }
        name => NAMED_ROOTS
            .iter()
            .any(|(root, file)| *root == name && node.file == *file),
    }
}

/// The functions reachable from the hot-path roots, each with one
/// shortest witness chain: a breadth-first walk from every root at once
/// that follows every call edge no `panic-reach` pragma cuts.
pub struct Walk<'g> {
    graph: &'g CallGraph,
    /// One BFS parent per reached node (`None` for the roots).
    parent: Vec<Option<usize>>,
    seen: Vec<bool>,
}

impl<'g> Walk<'g> {
    /// Walks `graph`. `files` is the same parsed set the graph was built
    /// from (for the pragmas that cut edges).
    pub fn new(graph: &'g CallGraph, files: &[ParsedSource]) -> Self {
        // Roots and edges are visited in deterministic (node-id) order.
        let roots: Vec<usize> = (0..graph.nodes.len())
            .filter(|&id| is_root(&graph.nodes[id]))
            .collect();
        Walk::from_roots(graph, files, &roots)
    }

    /// The same walk from the nodes `roots` alone (e.g. one dispatch
    /// function, to ask what it reaches).
    pub fn from_roots(graph: &'g CallGraph, files: &[ParsedSource], roots: &[usize]) -> Self {
        let allowed = pragma_lookup(files);
        let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
        let mut seen = vec![false; graph.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = roots.iter().copied().collect();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(id) = queue.pop_front() {
            for edge in &graph.edges[id] {
                // A call-site pragma cuts the edge.
                if seen[edge.to] || allowed(&graph.nodes[id].file, edge.call_line) {
                    continue;
                }
                seen[edge.to] = true;
                parent[edge.to] = Some(id);
                queue.push_back(edge.to);
            }
        }
        Walk {
            graph,
            parent,
            seen,
        }
    }

    /// The witness chain `root → … → fn` of node `id`, root first, or
    /// `None` when no root reaches it.
    pub fn chain(&self, id: usize) -> Option<Vec<Hop>> {
        let reached = self.seen.get(id) == Some(&true);
        reached.then(|| witness(self.graph, &self.parent, id))
    }
}

/// Whether a `panic-reach` pragma with a reason is in force at 0-based
/// `line` of a file — on the line, or in the annotation run directly
/// above it.
fn pragma_lookup(files: &[ParsedSource]) -> impl Fn(&str, usize) -> bool + '_ {
    let by_rel: BTreeMap<&str, &ParsedSource> = files.iter().map(|f| (f.rel.as_str(), f)).collect();
    move |rel: &str, line: usize| -> bool {
        let Some(src) = by_rel.get(rel) else {
            return false;
        };
        line < src.masked.len()
            && annotated(&src.masked, line, &|ml| {
                pragmas_in(&ml.comment)
                    .iter()
                    .any(|p| p.has_reason && p.rule == "panic-reach")
            })
    }
}

/// Runs `panic-reach` over the graph. `files` is the same parsed set the
/// graph was built from (for pragma lookups and source excerpts).
pub fn check(graph: &CallGraph, files: &[ParsedSource]) -> Vec<Violation> {
    let by_rel: BTreeMap<&str, &ParsedSource> = files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let allowed = pragma_lookup(files);
    let walk = Walk::new(graph, files);

    let mut out = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        // A pragma on the `fn` line covers the whole body.
        if node.sinks.is_empty() || allowed(&node.file, node.line) {
            continue;
        }
        let Some(chain) = walk.chain(id) else {
            continue;
        };
        let root_name = chain
            .first()
            .map_or_else(|| node.display.clone(), |h| h.func.clone());
        for sink in &node.sinks {
            if allowed(&node.file, sink.line) {
                continue;
            }
            out.push(Violation {
                file: node.file.clone(),
                line: sink.line + 1,
                rule: "panic-reach",
                message: format!(
                    "`{}` is reachable from hot-path root `{}` — the aggregation \
                     path must not panic on adversarial input; return an error \
                     or justify with a pragma",
                    sink.what, root_name
                ),
                excerpt: by_rel
                    .get(node.file.as_str())
                    .map_or(String::new(), |src| src.excerpt(sink.line)),
                chain: chain.clone(),
            });
        }
    }
    out
}

/// Reconstructs the witness chain `root → … → containing fn` for node
/// `id` from the BFS parent pointers, root first, with 1-based lines.
fn witness(graph: &CallGraph, parent: &[Option<usize>], id: usize) -> Vec<Hop> {
    let mut rev = vec![id];
    let mut cur = id;
    while let Some(p) = parent[cur] {
        rev.push(p);
        cur = p;
    }
    rev.reverse();
    rev.into_iter()
        .map(|n| Hop {
            func: graph.nodes[n].display.clone(),
            file: graph.nodes[n].file.clone(),
            line: graph.nodes[n].line + 1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let parsed: Vec<ParsedSource> = files
            .iter()
            .map(|(rel, src)| parse_source(rel, src))
            .collect();
        let graph = CallGraph::build(&parsed);
        check(&graph, &parsed)
    }

    const FILTER: &str = "pub struct M;\nimpl GradientFilter for M {\n    fn aggregate_into(&self) {\n        helper();\n    }\n}\n";

    #[test]
    fn a_walk_from_one_caller_finds_its_own_path_to_a_shared_callee() {
        let files = [
            ("crates/filters/src/m.rs", FILTER),
            (
                "crates/util/src/lib.rs",
                "pub fn helper() {\n    near();\n    far();\n}\nfn near() {\n    shared();\n}\nfn far() {\n    middle();\n}\nfn middle() {\n    shared();\n}\nfn shared() {}\n",
            ),
        ];
        let parsed: Vec<ParsedSource> = files
            .iter()
            .map(|(rel, src)| parse_source(rel, src))
            .collect();
        let graph = CallGraph::build(&parsed);
        let id = |name: &str| graph.nodes.iter().position(|n| n.name == name).unwrap();
        let names = |chain: Option<Vec<Hop>>| -> Vec<String> {
            chain.unwrap().into_iter().map(|hop| hop.func).collect()
        };
        let all = Walk::new(&graph, &parsed);
        assert_eq!(
            names(all.chain(id("shared"))),
            ["M::aggregate_into", "helper", "near", "shared"]
        );
        let from_far = Walk::from_roots(&graph, &parsed, &[id("far")]);
        assert_eq!(
            names(from_far.chain(id("shared"))),
            ["far", "middle", "shared"]
        );
        assert_eq!(from_far.chain(id("near")), None);
    }

    #[test]
    fn transitive_panic_is_reported_with_chain() {
        let v = run(&[
            ("crates/filters/src/mean.rs", FILTER),
            (
                "crates/core/src/util.rs",
                "pub fn helper() {\n    inner();\n}\nfn inner() {\n    Some(1).unwrap();\n}\n",
            ),
        ]);
        let panics: Vec<_> = v.iter().filter(|v| v.rule == "panic-reach").collect();
        assert_eq!(panics.len(), 1);
        let v = panics[0];
        assert_eq!(v.file, "crates/core/src/util.rs");
        assert_eq!(v.line, 5);
        let funcs: Vec<&str> = v.chain.iter().map(|h| h.func.as_str()).collect();
        assert_eq!(funcs, vec!["M::aggregate_into", "helper", "inner"]);
    }

    #[test]
    fn unreachable_panic_is_not_reported() {
        let v = run(&[
            ("crates/filters/src/mean.rs", FILTER),
            (
                "crates/core/src/util.rs",
                "pub fn helper() {}\npub fn cold() {\n    Some(1).unwrap();\n}\n",
            ),
        ]);
        assert!(v.iter().all(|v| v.rule != "panic-reach"));
    }

    #[test]
    fn sink_pragma_or_clippy_expect_suppresses() {
        for helper in [
            "pub fn helper() {\n    // LINT-ALLOW(panic-reach): length checked by caller\n    Some(1).unwrap();\n}\n",
            "pub fn helper() {\n    #[expect(clippy::unwrap_used, reason = \"length checked by caller\")]\n    Some(1).unwrap();\n}\n",
        ] {
            let v = run(&[
                ("crates/filters/src/mean.rs", FILTER),
                ("crates/core/src/util.rs", helper),
            ]);
            assert!(v.iter().all(|v| v.rule != "panic-reach"), "{v:#?}");
        }
    }

    #[test]
    fn edge_pragma_cuts_the_call_edge() {
        let v = run(&[
            (
                "crates/filters/src/mean.rs",
                "pub struct M;\nimpl GradientFilter for M {\n    fn aggregate_into(&self) {\n        // LINT-ALLOW(panic-reach): helper is only given non-empty batches here\n        helper();\n    }\n}\n",
            ),
            (
                "crates/core/src/util.rs",
                "pub fn helper() {\n    Some(1).unwrap();\n}\n",
            ),
        ]);
        assert!(v.iter().all(|v| v.rule != "panic-reach"));
    }

    #[test]
    fn trait_dispatch_fans_out_to_unnamed_receivers() {
        // The root calls `.refine()` on an unknown receiver; every impl
        // of that method — whatever the trait — must be assumed callable.
        let v = run(&[
            (
                "crates/filters/src/mean.rs",
                "pub struct M;\nimpl GradientFilter for M {\n    fn aggregate_into(&self, s: &dyn Strategy) {\n        s.refine();\n    }\n}\n",
            ),
            (
                "crates/core/src/strat.rs",
                "pub struct S;\nimpl Strategy for S {\n    fn refine(&self) {\n        panic!(\"boom\");\n    }\n}\n",
            ),
        ]);
        assert!(v
            .iter()
            .any(|v| v.rule == "panic-reach" && v.chain.len() == 2));
    }
}
