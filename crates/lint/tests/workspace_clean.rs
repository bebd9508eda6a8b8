//! The workspace itself must satisfy its own invariants. Tier-1 does not
//! run clippy, so this file holds the clippy policy in place — the bans in
//! `clippy.toml`, the levels in `[workspace.lints.clippy]`, the panic
//! denies of the hot-path crates — and runs `abft-lint` over the real
//! tree: `cargo test` fails the moment a panic becomes *transitively*
//! reachable from a hot-path root through any chain of calls, in any
//! crate, or the exceptions outgrow their ceiling.

use abft_lint::parse::{parse_source, CallSite, Owner, ParsedSource};
use abft_lint::{
    default_root, hot_path_chain, hot_path_chain_via, lint_workspace, unresolved_roots,
};
use std::path::{Path, PathBuf};

/// The most exceptions the tree may hold: reason-carrying `LINT-ALLOW`
/// pragmas, plus every guarded lint an `#[expect(…)]` names.
const PRAGMA_CEILING: usize = 62;

/// `clippy.toml`'s bans, as `(key, path)`.
const BANS: [(&str, &str); 10] = [
    ("disallowed-methods", "core::cmp::PartialOrd::partial_cmp"),
    ("disallowed-methods", "std::time::Instant::now"),
    ("disallowed-methods", "std::time::SystemTime::now"),
    ("disallowed-methods", "std::thread::spawn"),
    ("disallowed-methods", "std::thread::Builder::spawn"),
    ("disallowed-methods", "std::thread::Builder::spawn_scoped"),
    ("disallowed-methods", "std::thread::Scope::spawn"),
    ("disallowed-types", "std::collections::HashMap"),
    ("disallowed-types", "std::collections::HashSet"),
    ("disallowed-types", "std::hash::RandomState"),
];

/// The lints `[workspace.lints.clippy]` sets to `deny` for every
/// workspace crate.
const WORKSPACE_LINTS: [&str; 6] = [
    "disallowed_methods",
    "disallowed_types",
    "undocumented_unsafe_blocks",
    "missing_safety_doc",
    "allow_attributes",
    "allow_attributes_without_reason",
];

/// The lints the `lib.rs` of each hot-path crate denies outside tests.
const PANIC_LINTS: [&str; 6] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// The crates a mid-round server executes.
const HOT_PATH_CRATES: [&str; 5] = ["filters", "linalg", "runtime", "dgd", "ml"];

fn read(rel: &str) -> String {
    std::fs::read_to_string(default_root().join(rel)).expect("workspace files are readable")
}

/// The clippy half of the invariants is configuration; a line dropped from
/// it would switch a ban off without a single diagnostic.
#[test]
fn the_clippy_policy_is_in_force() {
    let config = read("clippy.toml");
    let config: Vec<&str> = config
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('#'))
        .collect();
    assert!(
        config.contains(&"check-private-items = true"),
        "clippy.toml must check private items: `missing_safety_doc` covers private `unsafe fn`s"
    );
    for (key, path) in BANS {
        let section: Vec<&str> = config
            .iter()
            .skip_while(|l| !l.starts_with(&format!("{key} = [")))
            .take_while(|l| **l != "]")
            .copied()
            .collect();
        assert!(
            section
                .iter()
                .any(|l| l.contains(&format!("path = \"{path}\""))),
            "clippy.toml: `{key}` must list `{path}`"
        );
    }

    let manifest = read("Cargo.toml");
    let table = |name: &str| -> Vec<&str> {
        let lines = manifest.lines().skip_while(|l| l.trim() != name).skip(1);
        lines
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .collect()
    };
    assert!(
        table("[workspace.lints.rust]").contains(&"unsafe_code = \"deny\""),
        "Cargo.toml: `[workspace.lints.rust]` must set `unsafe_code = \"deny\"`"
    );
    // The two homes of `unsafe`, one `expect` each: the pool's module-level
    // one for its lifetime erasure, and the item-level one on the SIMD
    // dispatch that calls `#[target_feature]` code after detecting the
    // feature. (The counting allocators of the allocation tests lift it
    // too, outside `src/`.)
    let root = default_root();
    let src_dirs = std::fs::read_dir(root.join("crates"))
        .expect("workspace crates are listed")
        .map(|entry| {
            entry
                .expect("workspace crates are listed")
                .path()
                .join("src")
        });
    let mut unsafe_homes: Vec<String> = src_dirs
        .chain([root.join("src")])
        .flat_map(|dir| parse_tree(&dir))
        .flat_map(|(path, parsed)| {
            let rel = path.strip_prefix(&root).unwrap_or(&path).display();
            let unsafe_expects = parsed.items.expects.iter();
            let unsafe_expects = unsafe_expects.filter(|(_, lint)| lint == "unsafe_code");
            vec![rel.to_string(); unsafe_expects.count()]
        })
        .collect();
    unsafe_homes.sort();
    assert_eq!(
        unsafe_homes,
        ["crates/linalg/src/pool.rs", "crates/linalg/src/simd.rs"],
        "non-test `src/` `expect(unsafe_code)`s, one per file"
    );
    // The pool lifts the deny for its module; the dispatch for one item.
    for (home, module_level) in [("pool", true), ("simd", false)] {
        let source: String = read(&format!("crates/linalg/src/{home}.rs"))
            .split_whitespace()
            .collect();
        assert_eq!(
            source.contains("#![expect(unsafe_code"),
            module_level,
            "crates/linalg/src/{home}.rs: a module-level `expect(unsafe_code)` must be {}",
            if module_level { "there" } else { "absent" }
        );
    }

    let levels = table("[workspace.lints.clippy]");
    for lint in WORKSPACE_LINTS {
        assert!(
            levels.contains(&format!("{lint} = \"deny\"").as_str()),
            "Cargo.toml: `[workspace.lints.clippy]` must set `{lint} = \"deny\"`"
        );
    }

    for krate in HOT_PATH_CRATES {
        let lib: String = read(&format!("crates/{krate}/src/lib.rs"))
            .split_whitespace()
            .collect();
        let opener = "#![cfg_attr(not(test),deny(";
        let denied: Vec<&str> = lib
            .split_once(opener)
            .and_then(|(_, rest)| rest.split_once(')'))
            .map_or(Vec::new(), |(list, _)| list.split(',').collect());
        for lint in PANIC_LINTS {
            assert!(
                denied.contains(&format!("clippy::{lint}").as_str()),
                "crates/{krate}/src/lib.rs must deny `clippy::{lint}` outside tests"
            );
        }
    }
}

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
    // in the same diff, where it shows. Lower it when exceptions go. A
    // clippy `#[expect]` counts once per guarded lint it names.
    let mut expects = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        for (path, parsed) in parse_tree(&root.join(dir)) {
            for (line, lint) in parsed.items.expects {
                if WORKSPACE_LINTS.contains(&lint.as_str()) || PANIC_LINTS.contains(&lint.as_str())
                {
                    let rel = path.strip_prefix(&root).unwrap_or(&path);
                    expects.push(format!("{}:{}: clippy::{lint}", rel.display(), line + 1));
                }
            }
        }
    }
    let exceptions = report.pragmas + expects.len();
    assert!(
        exceptions <= PRAGMA_CEILING,
        "{} LINT-ALLOW pragmas + {} guarded #[expect]s = {exceptions} exceptions in the tree, \
         ceiling is {PRAGMA_CEILING}: remove the new exception, or raise the ceiling in this \
         file and say why in the commit\n{}",
        report.pragmas,
        expects.len(),
        expects.join("\n")
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

/// The order-statistics tile kernel runs behind a trait method
/// (`simd::Kernel::compute`) inside `#[target_feature]` wrappers. The walk
/// must still reach it from a filter root — through the wrappers as well
/// as directly — or its indexing would drop out of `panic-reach`.
#[test]
fn the_tile_kernel_stays_inside_the_hot_path_walk() {
    let root = default_root();
    let chain = |file: &str, name: &str| {
        let chain = hot_path_chain(&root, file, name).expect("workspace sources are readable");
        let chain = chain.unwrap_or_else(|| panic!("the hot-path walk misses `{name}` ({file})"));
        chain.into_iter().map(|hop| hop.func).collect::<Vec<_>>()
    };
    for kernel in ["reduce_tile", "sort_lanes", "order_zeros"] {
        let funcs = chain("crates/filters/src/par.rs", kernel);
        assert!(
            funcs
                .first()
                .is_some_and(|f| f.ends_with("::aggregate_into")),
            "`{kernel}` must be reached from an `aggregate_into` root: {funcs:?}"
        );
        assert!(
            funcs.iter().any(|f| f == "TileKernel::compute"),
            "`{kernel}` must be reached through the kernel: {funcs:?}"
        );
    }
    for wrapper in ["widest", "run_avx2", "run_avx512"] {
        let funcs = chain("crates/linalg/src/simd.rs", wrapper);
        assert!(
            funcs.iter().any(|f| f == "trimmed_mean_columns"),
            "`{wrapper}` must be reached from the tile dispatch: {funcs:?}"
        );
    }
}

/// The Krum family's pair kernel runs behind the same trait method and
/// wrappers as the tile kernel. Its functions must be reached from a
/// filter root through `PairKernel::compute`, and the pair dispatch must
/// reach the wrappers itself — not only through the tile dispatch, which
/// the walk happens to find first.
#[test]
fn the_pair_kernel_stays_inside_the_hot_path_walk() {
    let root = default_root();
    let funcs = |chain: Option<Vec<abft_lint::Hop>>, what: &str| {
        let chain = chain.unwrap_or_else(|| panic!("the hot-path walk misses {what}"));
        chain.into_iter().map(|hop| hop.func).collect::<Vec<_>>()
    };
    for kernel in ["transpose_block", "row_pairs", "sweep", "advance"] {
        let chain = hot_path_chain(&root, "crates/filters/src/par.rs", kernel);
        let funcs = funcs(chain.expect("workspace sources are readable"), kernel);
        assert!(
            funcs
                .first()
                .is_some_and(|f| f.ends_with("::aggregate_into")),
            "`{kernel}` must be reached from an `aggregate_into` root: {funcs:?}"
        );
        assert!(
            funcs.iter().any(|f| f == "PairKernel::compute"),
            "`{kernel}` must be reached through the kernel: {funcs:?}"
        );
    }
    let dispatch = ("crates/filters/src/par.rs", "fill_pairs");
    for wrapper in ["widest", "run_avx2", "run_avx512"] {
        let chain = hot_path_chain_via(&root, dispatch, "crates/linalg/src/simd.rs", wrapper);
        let funcs = funcs(chain.expect("workspace sources are readable"), wrapper);
        assert!(
            funcs
                .first()
                .is_some_and(|f| f.ends_with("::aggregate_into")),
            "`{wrapper}` must be reached from an `aggregate_into` root: {funcs:?}"
        );
        assert!(
            funcs.iter().any(|f| f == "pairwise_dist_sq_into"),
            "`{wrapper}` must be reached from the pair dispatch: {funcs:?}"
        );
    }
}

/// The MLP's forward and backward passes are one `simd::Kernel` too
/// (`Pass` in `crates/ml/src/net.rs`), run by `Mlp::pass` through
/// `simd::widest`. Its loop functions must be reached from the D-SGD row
/// source through `Pass::compute`, and its dispatch must reach the
/// wrappers itself — the filter dispatches reach them first, and through
/// the wrappers' `compute` fan-out they reach the MLP's loops as well.
#[test]
fn the_mlp_kernel_stays_inside_the_hot_path_walk() {
    let root = default_root();
    let funcs = |chain: Option<Vec<abft_lint::Hop>>, what: &str| {
        let chain = chain.unwrap_or_else(|| panic!("the hot-path walk misses {what}"));
        chain.into_iter().map(|hop| hop.func).collect::<Vec<_>>()
    };
    let source = ("crates/ml/src/dsgd.rs", "round_rows");
    // `store` ends both backward rows' chunks and `gate` the `δ_prev`
    // ones': `sum_lanes` would name the trait's bodiless declaration.
    for kernel in [
        "forward_slices",
        "dot_slice",
        "fill_chunks",
        "store",
        "gate",
    ] {
        let chain = hot_path_chain_via(&root, source, "crates/ml/src/net.rs", kernel);
        let funcs = funcs(chain.expect("workspace sources are readable"), kernel);
        assert!(
            funcs.first().is_some_and(|f| f.ends_with("::serve")),
            "`{kernel}` must be reached from the `serve` root: {funcs:?}"
        );
        for hop in ["MiniBatch::round_rows", "Pass::compute"] {
            assert!(
                funcs.iter().any(|f| f == hop),
                "`{kernel}` must be reached through `{hop}`: {funcs:?}"
            );
        }
    }
    let dispatch = ("crates/ml/src/net.rs", "pass");
    for wrapper in ["widest", "run_avx2", "run_avx512"] {
        let chain = hot_path_chain_via(&root, dispatch, "crates/linalg/src/simd.rs", wrapper);
        let funcs = funcs(chain.expect("workspace sources are readable"), wrapper);
        assert!(
            funcs.iter().any(|f| f == "Mlp::pass"),
            "`{wrapper}` must be reached from the MLP dispatch: {funcs:?}"
        );
    }
}

/// Every `.rs` file under `dir`, parsed — skipping build output and the
/// lint fixtures, which break the rules on purpose.
fn parse_tree(dir: &Path) -> Vec<(PathBuf, ParsedSource)> {
    let mut sources = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return sources;
    };
    for entry in entries {
        let path = entry.expect("workspace sources are readable").path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("fixtures") {
                sources.extend(parse_tree(&path));
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path).expect("workspace sources are readable");
            let parsed = parse_source(&path.to_string_lossy(), &source);
            sources.push((path, parsed));
        }
    }
    sources
}

/// Every `src/` file of the named crates, parsed.
fn parsed_sources(crates: &[&str]) -> Vec<(PathBuf, ParsedSource)> {
    let src = |krate: &&str| default_root().join("crates").join(krate).join("src");
    crates.iter().flat_map(|k| parse_tree(&src(k))).collect()
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
/// budget, cost check, engine (the lockstep server, the one simulated
/// server, the peer-to-peer leader and its followers) — pinned so a copy
/// shows up here.
#[test]
fn the_lockstep_server_is_built_and_run_in_one_place() {
    const SITES: [(&str, usize); 5] = [
        (".run_rounds(", 1),
        ("AgentCell::new", 1),
        ("FaultBudget::new(", 2),
        ("validate::cost_dimension(", 3),
        ("RoundEngine::new(", 4),
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

/// Every driver shares one loop. In the non-test `src/` of the crates
/// that step an engine, there is one round loop, `RowSource::serve` — the
/// lockstep, deadline, staleness, peer-to-peer and mini-batch sources all
/// run it — and every `.step(` call sits in it, except the one that steps
/// the peer-to-peer followers, whose rows no server sees. The per-round
/// S1 budget, an absent row shrinking `f`, is written once.
#[test]
fn the_server_topologies_share_one_loop() {
    const STEPS: [&str; 2] = [
        "dgd/src/engine.rs: RowSource::serve",
        "runtime/src/peer_to_peer.rs: Perspectives::step_followers",
    ];
    const ROUND_LOOP: &str = "for t in 0..=";
    const S1_BUDGET: &str = "f.saturating_sub(n - batch.len())";
    let crates = default_root().join("crates");
    let mut steps = Vec::new();
    let mut loops = Vec::new();
    let mut budgets = Vec::new();
    for (path, parsed) in parsed_sources(&["dgd", "runtime", "ml"]) {
        let rel = path.strip_prefix(&crates).unwrap_or(&path).display();
        for item in &parsed.items.fns {
            let calls = item.calls.iter().filter(|c| c.method && c.callee == "step");
            steps.extend(calls.map(|_| format!("{rel}: {}", item.display())));
        }
        let hits = parsed.live_code().filter(|code| code.contains(ROUND_LOOP));
        loops.extend(hits.map(|code| format!("{rel}: {}", code.trim())));
        let hits = parsed.live_code().filter(|code| code.contains(S1_BUDGET));
        budgets.extend(hits.map(|code| format!("{rel}: {}", code.trim())));
    }
    steps.sort();
    assert_eq!(steps, STEPS, "`.step(` call sites");
    assert_eq!(loops.len(), 1, "`{ROUND_LOOP}` round loops: {loops:?}");
    assert_eq!(budgets.len(), 1, "`{S1_BUDGET}` sites: {budgets:?}");
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
                "classes",
                "input_dim",
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

/// An observer has one method. `observe` gets a lazy view from which any
/// metric can be read, so there is nothing to declare up front: the
/// deleted `Probe` mask and `RunObserver::probe` coming back fail here.
#[test]
fn the_observer_contract_is_one_method() {
    let sources = parsed_sources(&["core"]);
    let declared: Vec<&Vec<String>> = sources
        .iter()
        .flat_map(|(_, parsed)| &parsed.items.traits)
        .filter(|(trait_name, _)| trait_name == "RunObserver")
        .map(|(_, methods)| methods)
        .collect();
    assert_eq!(
        declared,
        [&vec!["observe".to_string()]],
        "`trait RunObserver`"
    );
    let root = default_root();
    let mut found = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        for (path, parsed) in parse_tree(&root.join(dir)) {
            let probes = parsed.items.fns.iter().filter(|f| f.name == "probe");
            found.extend(probes.map(|f| format!("{}: fn {}", path.display(), f.display())));
            let structs = parsed.live_code().filter(|code| {
                code.split_once("struct Probe").is_some_and(|(_, rest)| {
                    !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                })
            });
            found.extend(structs.map(|code| format!("{}: {}", path.display(), code.trim())));
        }
    }
    assert!(
        found.is_empty(),
        "a probe mask is back:\n{}",
        found.join("\n")
    );
}

/// The row reductions and `axpy` have one home, `rowops`. Each `Vector`
/// method among them calls its `rowops` kernel on the vector's entries
/// and does nothing else: no loop or iterator in its code (comments
/// aside), no call but the kernel, `as_slice`, `as_mut_slice` and
/// `clone`. `scale_mut` is deleted (its callers call `rowops::scale`).
#[test]
fn vector_reductions_are_calls_into_rowops() {
    const KEPT: [&str; 6] = ["axpy", "dist", "dot", "norm", "norm_sq", "scale"];
    const REDUCTIONS: [&str; 7] = [
        "axpy",
        "dist",
        "dot",
        "norm",
        "norm_sq",
        "scale",
        "scale_mut",
    ];
    const ACCESSORS: [&str; 3] = ["as_slice", "as_mut_slice", "clone"];
    const LOOPS: [&str; 7] = ["for ", "while ", "loop ", ".iter", ".zip", ".sum", ".fold"];
    let path = default_root().join("crates/linalg/src/vector.rs");
    let source = std::fs::read_to_string(&path).expect("workspace sources are readable");
    let parsed = parse_source(&path.to_string_lossy(), &source);
    let mut kept = Vec::new();
    let mut own = Vec::new();
    for item in &parsed.items.fns {
        let inherent = matches!(
            &item.owner,
            Owner::Impl { self_ty, trait_name: None } if self_ty == "Vector"
        );
        if !inherent || !REDUCTIONS.contains(&item.name.as_str()) {
            continue;
        }
        kept.push(item.name.clone());
        let is_kernel =
            |c: &CallSite| c.qualifier.as_deref() == Some("rowops") && c.callee == item.name;
        if !item.calls.iter().any(is_kernel) {
            own.push(format!("Vector::{0} does not call rowops::{0}", item.name));
        }
        for call in &item.calls {
            if !is_kernel(call) && !ACCESSORS.contains(&call.callee.as_str()) {
                own.push(format!("Vector::{} calls {}", item.name, call.callee));
            }
        }
        let body = parsed.lines[item.line + 1..]
            .iter()
            .take_while(|l| *l != "    }")
            .map(|l| l.split("//").next().unwrap_or_default());
        for code in body.filter(|code| LOOPS.iter().any(|w| code.contains(w))) {
            own.push(format!("Vector::{}: {}", item.name, code.trim()));
        }
    }
    assert!(
        own.is_empty(),
        "arithmetic of its own in vector.rs:\n{}",
        own.join("\n")
    );
    kept.sort();
    assert_eq!(kept, KEPT, "the reductions `Vector` keeps");
}
