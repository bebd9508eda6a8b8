//! The workspace itself must satisfy its own invariants: running the
//! linter over the real tree inside tier-1 makes `cargo test` fail the
//! moment a `partial_cmp`, an unjustified panic, an undocumented `unsafe`,
//! a hashed collection, or a stray spawn/clock lands on a guarded path —
//! or, since the reachability stage, the moment a panic or
//! nondeterminism sink becomes *transitively* reachable from a hot-path
//! root through any chain of calls, in any crate.

use abft_lint::parse::{parse_source, ParsedSource};
use abft_lint::{default_root, lint_workspace, unresolved_roots};
use std::path::PathBuf;

/// The most reason-carrying `LINT-ALLOW` pragmas the tree may hold.
const PRAGMA_CEILING: usize = 85;

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

/// Every `src/*.rs` of the named crates, parsed.
fn parsed_sources(crates: &[&str]) -> Vec<(PathBuf, ParsedSource)> {
    let mut sources = Vec::new();
    for krate in crates {
        let dir = default_root().join("crates").join(krate).join("src");
        for entry in std::fs::read_dir(&dir).expect("crate sources are readable") {
            let path = entry.expect("crate sources are readable").path();
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("crate sources are readable");
            let parsed = parse_source(&path.to_string_lossy(), &source);
            sources.push((path, parsed));
        }
    }
    sources
}

/// The server step (S2) is written once. In the non-test `src/` of the
/// three crates that drive rounds, every call of the functions a step is
/// made of — the filter's `aggregate_into`, `observe_round`, and
/// `RunOptions::descend` — sits in `RoundEngine::step`, once each: a
/// driver that aggregates, observes or updates on its own has forked S2.
#[test]
fn the_server_step_is_only_called_from_round_engine_step() {
    const STEP_CALLS: [&str; 3] = ["aggregate_into", "descend", "observe_round"];
    let mut inside = Vec::new();
    let mut outside = Vec::new();
    for (path, parsed) in parsed_sources(&["dgd", "runtime", "ml"]) {
        for item in &parsed.items.fns {
            for call in &item.calls {
                if !STEP_CALLS.contains(&call.callee.as_str()) {
                    continue;
                }
                if item.display() == "RoundEngine::step" {
                    inside.push(call.callee.clone());
                } else {
                    outside.push(format!(
                        "{}:{}: {} calls {}",
                        path.display(),
                        call.line + 1,
                        item.display(),
                        call.callee
                    ));
                }
            }
        }
    }
    assert!(
        outside.is_empty(),
        "server-step calls outside RoundEngine::step:\n{}",
        outside.join("\n")
    );
    inside.sort();
    assert_eq!(inside, STEP_CALLS, "RoundEngine::step makes each call once");
}

/// The lockstep server is launched from one place. In the non-test `src/`
/// of the three crates between a scenario and a round, agents become
/// cells once (`DgdTask::fault_plan`) and the round loop is entered once
/// (`event_loop::execute`, for the in-process and the threaded launch
/// alike): a second `.run_rounds(` or `AgentCell::new` is a second
/// launcher. The other three counts are the set-up a launcher repeats —
/// budget, cost check, engine — pinned so a copy shows up here.
#[test]
fn the_lockstep_server_is_built_and_run_in_one_place() {
    const SITES: [(&str, usize); 5] = [
        (".run_rounds(", 1),
        ("AgentCell::new", 1),
        ("FaultBudget::new(", 2),
        ("validate::cost_dimension(", 3),
        ("RoundEngine::new(", 5),
    ];
    let sources = parsed_sources(&["dgd", "runtime", "scenario"]);
    for (pattern, expected) in SITES {
        let mut found = Vec::new();
        for (path, parsed) in &sources {
            let hits = parsed.live_code().filter(|code| code.contains(pattern));
            found.extend(hits.map(|code| format!("{}: {}", path.display(), code.trim())));
        }
        assert_eq!(
            found.len(),
            expected,
            "`{pattern}` sites in non-test dgd + runtime + scenario sources:\n{}",
            found.join("\n")
        );
    }
}

/// Each data-path trait produces its value one way: the in-place method
/// that writes into a caller's slot (a batch row, or the aggregate), next
/// to what describes the implementor. An allocating twin beside it — the
/// deleted `GradientFilter::aggregate`, `ByzantineStrategy::corrupt` and
/// `Model::loss_and_gradient` — is a second path to keep equal to the
/// first, so one coming back fails here, required or provided.
#[test]
fn each_data_path_trait_has_one_in_place_entry_point() {
    const SURFACES: [(&str, &str, &[&str]); 4] = [
        ("filters", "GradientFilter", &["aggregate_into", "name"]),
        (
            "attacks",
            "ByzantineStrategy",
            &["corrupt_into", "is_omniscient", "name"],
        ),
        (
            "ml",
            "Model",
            &[
                "accuracy",
                "loss_and_gradient_into",
                "param_dim",
                "params",
                "set_params",
            ],
        ),
        // The one twin left: `perfbench`'s `IsotropicCost` overrides
        // `CostFunction::gradient`, and `perfbench/` is the measuring
        // stick, changed only on its own — the method goes with that
        // override.
        (
            "problems",
            "CostFunction",
            &["dim", "gradient", "gradient_into", "value"],
        ),
    ];
    let sources = parsed_sources(&SURFACES.map(|(krate, _, _)| krate));
    for (_, name, expected) in SURFACES {
        let declared: Vec<&Vec<String>> = sources
            .iter()
            .flat_map(|(_, parsed)| &parsed.items.traits)
            .filter(|(trait_name, _)| trait_name == name)
            .map(|(_, methods)| methods)
            .collect();
        assert_eq!(
            declared.len(),
            1,
            "`trait {name}` declarations: {declared:?}"
        );
        let mut methods = declared[0].clone();
        methods.sort();
        assert_eq!(methods, expected, "the methods of `{name}`");
    }
}
