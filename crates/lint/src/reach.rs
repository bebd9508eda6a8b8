//! Stage 2 of the reachability analysis: the `panic-reach` and
//! `determinism-taint` rules, run over the [`CallGraph`](crate::graph).
//!
//! Both rules ask the same question — *which hazardous sites can a
//! hot-path root reach?* — and differ only in what counts as hazardous:
//!
//! - **panic-reach**: panicking constructs (`unwrap`/`expect`,
//!   `panic!`-family macros, slice indexing) transitively reachable from
//!   a root, in *any* crate. This is `no-panic-hot-path` escalated from
//!   per-file syntax to whole-workspace semantics: a helper in
//!   `abft-core` that indexes a slice is a violation the moment a filter
//!   can call it.
//! - **determinism-taint**: clock reads, thread spawning,
//!   `HashMap`/`HashSet`, and entropy-seeded RNG reachable from a root —
//!   except at sites inside the sanctioned homes (`telemetry::clock`,
//!   `linalg::pool`), whose whole purpose is to contain exactly those
//!   constructs behind a deterministic interface.
//!
//! The hot-path roots are the functions a mid-round server executes:
//! every `aggregate_into` impl (reached through `GradientFilter`
//! dispatch), plus the [`NAMED_ROOTS`] — the one server step every driver
//! calls (`RoundEngine::step`) and each driver's row-arrival path. Named
//! roots are matched by function name + file, so a rename would silently
//! shrink the walk; [`unresolved_roots`] is the guard, and
//! `tests/workspace_clean.rs` fails when it is non-empty.
//!
//! Each violation carries a **witness chain** — the BFS path
//! `root → f → g → site` that proves reachability — rendered by the CLI
//! and serialized in `--json`. Suppression is edge- and site-scoped:
//!
//! - a `panic-reach`/`determinism-taint` pragma at a **call site** cuts
//!   that edge out of the rule's traversal (the annotation covers the
//!   edge it sits on, nothing more);
//! - the same pragma at a **sink line** (or at the `fn` definition line,
//!   covering the whole body) suppresses the site itself;
//! - the legacy line-rule pragma for the same hazard
//!   (`no-panic-hot-path` for panics, `fixed-schedule` for clocks and
//!   spawns, `deterministic-collections` for hashed collections) is
//!   honored at sink lines, so a site justified once is not re-litigated
//!   by the reachability pass.

use crate::graph::CallGraph;
use crate::parse::{ParsedSource, SinkKind};
use crate::{annotated, pragmas_in, truncate, Hop, Violation};
use std::collections::BTreeMap;

/// Files whose determinism sinks are sanctioned: the clock home, and the
/// fixed-schedule pool (the one thread home). `panic-reach` deliberately
/// has no such list — nothing is allowed to panic mid-round.
const TAINT_HOMES: &[&str] = &["crates/telemetry/src/clock.rs", "crates/linalg/src/pool.rs"];

/// The hot-path roots named by `(function, workspace-relative file)`: the
/// server step, then how rows arrive in each driver — the S1 collector
/// the in-process driver and the event loop share, the event loop's
/// entry, the simulated server, the simulated peer-to-peer entry (which
/// is all of the EIG loop), and the asynchronous server.
pub const NAMED_ROOTS: &[(&str, &str)] = &[
    ("step", "crates/dgd/src/engine.rs"),
    ("collect_round", "crates/dgd/src/fleet.rs"),
    ("execute", "crates/runtime/src/event_loop.rs"),
    ("execute_server", "crates/runtime/src/simulated.rs"),
    ("execute_p2p", "crates/runtime/src/simulated.rs"),
    ("execute_async_server", "crates/runtime/src/async_server.rs"),
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

/// One reachability rule's configuration.
struct Rule {
    name: &'static str,
    /// Does this sink kind belong to the rule?
    applies: fn(SinkKind) -> bool,
    /// The legacy line rule whose pragma also suppresses a sink of this
    /// kind (the hazard is the same, only the scope of the check grew).
    legacy: fn(SinkKind) -> Option<&'static str>,
    /// Sanctioned sink locations (exact workspace-relative paths).
    homes: &'static [&'static str],
}

const RULES: &[Rule] = &[
    Rule {
        name: "panic-reach",
        applies: |k| k == SinkKind::Panic,
        legacy: |_| Some("no-panic-hot-path"),
        homes: &[],
    },
    Rule {
        name: "determinism-taint",
        applies: |k| {
            matches!(
                k,
                SinkKind::Clock | SinkKind::Spawn | SinkKind::HashOrder | SinkKind::Entropy
            )
        },
        legacy: |k| match k {
            SinkKind::Clock | SinkKind::Spawn => Some("fixed-schedule"),
            SinkKind::HashOrder => Some("deterministic-collections"),
            _ => None,
        },
        homes: TAINT_HOMES,
    },
];

/// Runs both reachability rules over the graph. `files` is the same
/// parsed set the graph was built from (for pragma lookups and source
/// excerpts).
pub fn check(graph: &CallGraph, files: &[ParsedSource]) -> Vec<Violation> {
    let by_rel: BTreeMap<&str, &ParsedSource> = files.iter().map(|f| (f.rel.as_str(), f)).collect();

    // Is a pragma naming any of `rules` (with a reason) in force at
    // 0-based `line` of `rel` — on the line, or in the annotation run
    // directly above it?
    let allowed = |rel: &str, line: usize, rules: &[&str]| -> bool {
        let Some(src) = by_rel.get(rel) else {
            return false;
        };
        if line >= src.masked.len() {
            return false;
        }
        annotated(&src.masked, line, &|ml| {
            pragmas_in(&ml.comment)
                .iter()
                .any(|p| p.has_reason && rules.iter().any(|r| p.rule == *r))
        })
    };

    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&id| is_root(&graph.nodes[id]))
        .collect();

    let mut out = Vec::new();
    for rule in RULES {
        // BFS from all roots at once, recording one parent per node so
        // every reached function has a shortest witness chain. Roots and
        // edges are visited in deterministic (node-id) order.
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; graph.nodes.len()];
        let mut seen = vec![false; graph.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = roots.iter().copied().collect();
        for &r in &roots {
            seen[r] = true;
        }
        while let Some(id) = queue.pop_front() {
            for edge in &graph.edges[id] {
                if seen[edge.to] {
                    continue;
                }
                // An edge-site pragma for this rule cuts the edge.
                if allowed(&graph.nodes[id].file, edge.call_line, &[rule.name]) {
                    continue;
                }
                seen[edge.to] = true;
                parent[edge.to] = Some((id, edge.call_line));
                queue.push_back(edge.to);
            }
        }

        for (id, node) in graph.nodes.iter().enumerate() {
            if !seen[id] {
                continue;
            }
            let live: Vec<_> = node
                .sinks
                .iter()
                .filter(|s| (rule.applies)(s.kind))
                .collect();
            if live.is_empty() {
                continue;
            }
            // Sanctioned home: sinks *located* there are the contained
            // implementation the rest of the workspace is allowed to
            // reach.
            if rule.homes.contains(&node.file.as_str()) {
                continue;
            }
            // A pragma on the `fn` line covers the whole body.
            if allowed(&node.file, node.line, &[rule.name]) {
                continue;
            }
            let chain = witness(graph, &parent, id);
            let root_name = chain
                .first()
                .map_or_else(|| node.display.clone(), |h| h.func.clone());
            for sink in live {
                let mut site_rules = vec![rule.name];
                if let Some(legacy) = (rule.legacy)(sink.kind) {
                    site_rules.push(legacy);
                }
                if allowed(&node.file, sink.line, &site_rules) {
                    continue;
                }
                let excerpt = by_rel
                    .get(node.file.as_str())
                    .and_then(|src| src.lines.get(sink.line))
                    .map_or(String::new(), |l| truncate(l.trim(), 160));
                let message = if rule.name == "panic-reach" {
                    format!(
                        "`{}` is reachable from hot-path root `{}` — the aggregation \
                         path must not panic on adversarial input; return an error \
                         or justify with a pragma",
                        sink.what, root_name
                    )
                } else {
                    format!(
                        "`{}` is reachable from hot-path root `{}` — nondeterminism \
                         must stay inside the sanctioned homes (`telemetry::clock`, \
                         `linalg::pool`)",
                        sink.what, root_name
                    )
                };
                out.push(Violation {
                    file: node.file.clone(),
                    line: sink.line + 1,
                    rule: rule.name,
                    message,
                    excerpt,
                    chain: chain.clone(),
                });
            }
        }
    }
    out
}

/// Reconstructs the witness chain `root → … → containing fn` for node
/// `id` from the BFS parent pointers, root first, with 1-based lines.
fn witness(graph: &CallGraph, parent: &[Option<(usize, usize)>], id: usize) -> Vec<Hop> {
    let mut rev = vec![id];
    let mut cur = id;
    while let Some((p, _)) = parent[cur] {
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
    fn sink_pragma_suppresses_including_legacy_rule_name() {
        let v = run(&[
            ("crates/filters/src/mean.rs", FILTER),
            (
                "crates/core/src/util.rs",
                "pub fn helper() {\n    // LINT-ALLOW(no-panic-hot-path): length checked by caller\n    Some(1).unwrap();\n}\n",
            ),
        ]);
        assert!(v.iter().all(|v| v.rule != "panic-reach"));
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
    fn determinism_sinks_in_sanctioned_homes_are_exempt() {
        let v = run(&[
            (
                "crates/linalg/src/pool.rs",
                "pub struct Pool;\nimpl GradientFilter for Pool {\n    fn aggregate_into(&self) {\n        std::thread::spawn(|| {});\n        tick();\n    }\n}\n",
            ),
            (
                "crates/telemetry/src/clock.rs",
                "pub fn tick() {\n    let _ = Instant::now();\n}\n",
            ),
        ]);
        assert!(v.iter().all(|v| v.rule != "determinism-taint"), "{v:#?}");
    }

    #[test]
    fn determinism_sink_outside_homes_is_reported() {
        let v = run(&[
            ("crates/filters/src/mean.rs", FILTER),
            (
                "crates/core/src/util.rs",
                "pub fn helper() {\n    let _ = Instant::now();\n}\n",
            ),
        ]);
        let taints: Vec<_> = v.iter().filter(|v| v.rule == "determinism-taint").collect();
        assert_eq!(taints.len(), 1);
        assert_eq!(taints[0].line, 2);
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
