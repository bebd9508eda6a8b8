//! The workspace itself must satisfy its own invariants: running the
//! linter over the real tree inside tier-1 makes `cargo test` fail the
//! moment a `partial_cmp`, an unjustified panic, an undocumented `unsafe`,
//! a hashed collection, or a stray spawn/clock lands on a guarded path —
//! or, since the reachability stage, the moment a panic or
//! nondeterminism sink becomes *transitively* reachable from a hot-path
//! root through any chain of calls, in any crate.

use abft_lint::{default_root, lint_workspace, unresolved_roots};

/// The most reason-carrying `LINT-ALLOW` pragmas the tree may hold.
const PRAGMA_CEILING: usize = 91;

#[test]
fn the_workspace_has_no_lint_violations() {
    let root = default_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let report = lint_workspace(&root).expect("workspace sources are readable");
    assert!(
        report.scanned > 100,
        "suspiciously few files scanned ({}) — did the tree move?",
        report.scanned
    );
    assert!(
        report.violations.is_empty(),
        "abft-lint found {} violation(s):\n{}",
        report.violations.len(),
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // A ratchet, not a target: a new exception has to raise this number
    // in the same diff, where a reviewer sees it. Lower it when pragmas go.
    assert!(
        report.pragmas <= PRAGMA_CEILING,
        "{} LINT-ALLOW pragmas in the tree, ceiling is {PRAGMA_CEILING}: remove the new \
         exception, or raise the ceiling in this file and say why in the PR",
        report.pragmas
    );
}

/// The reachability walk starts from functions named in a table
/// (`RoundEngine::step` and each driver's row-arrival path). A rename
/// that left the table behind would shrink the walk without a single
/// diagnostic — so every named root must exist in the real tree.
#[test]
fn every_named_hot_path_root_resolves_to_a_function() {
    let missing = unresolved_roots(&default_root()).expect("workspace sources are readable");
    assert!(
        missing.is_empty(),
        "hot-path roots named in crates/lint/src/reach.rs match no function: {missing:?}"
    );
}
