//! End-to-end reachability tests: run the real `abft-lint` binary over
//! the fixture workspaces in `tests/fixtures/` and pin exit codes, the
//! witness-chain rendering, and the JSON schema.
//!
//! The fixtures live under a directory named `fixtures`, which the
//! workspace scan skips — they are only ever linted by pointing the
//! binary at them explicitly, as these tests do.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the binary over `root`, returning `(exit_code, stdout)`.
fn lint(root: &str, json: bool) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_abft-lint"));
    cmd.arg(fixture(root));
    if json {
        cmd.arg("--json");
    }
    let out = cmd.output().expect("abft-lint runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn seeded_transitive_panic_exits_one_with_a_full_witness_chain() {
    let (code, stdout) = lint("panic_ws", false);
    assert_eq!(code, 1, "a reachable panic must fail the lint:\n{stdout}");
    // The diagnostic lands on the sink, not on the root …
    assert!(stdout.contains("crates/util/src/lib.rs"), "{stdout}");
    assert!(stdout.contains("panic-reach"), "{stdout}");
    assert!(stdout.contains("seeded transitive panic"), "{stdout}");
    // … and the chain walks root → … → sink across every hop.
    let chain = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("chain:"))
        .expect("witness chain line");
    for hop in ["aggregate_into", "checked_push", "record", "verify"] {
        assert!(chain.contains(hop), "chain must include {hop}: {chain}");
    }
    // The util crate is no hot-path crate, so clippy's panic denies never
    // see it: reachability is what caught the panic.
    assert!(!stdout.contains("no-panic-hot-path"), "{stdout}");
}

#[test]
fn a_reachable_assert_is_reported_and_a_clippy_expect_is_honoured() {
    let (_, stdout) = lint("panic_ws", false);
    // Clippy has no lint for `assert!`: panic-reach reports it with its chain …
    let assert_at = stdout
        .find("`assert!` is reachable")
        .expect("the seeded assert is reported");
    let chain = stdout[assert_at..]
        .lines()
        .find(|l| l.trim_start().starts_with("chain:"))
        .expect("witness chain line");
    for hop in ["aggregate_into", "checked_push", "record", "bound"] {
        assert!(chain.contains(hop), "chain must include {hop}: {chain}");
    }
    // … while the `.expect(` its `#[expect(clippy::expect_used)]` justifies
    // is not: one annotation per site, checked by the compiler.
    assert!(!stdout.contains("`expect` is reachable"), "{stdout}");
    assert!(stdout.contains("2 violation(s)"), "{stdout}");
}

#[test]
fn trait_dispatch_carries_the_chain_across_crates() {
    let (_, stdout) = lint("panic_ws", false);
    let chain = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("chain:"))
        .expect("witness chain line");
    // The root sits in the filters crate (reached through `GradientFilter`
    // dynamic dispatch from the fixture server loop) and the sink in the util
    // crate: a cross-crate edge the line-level rules can never see.
    let filters = chain.find("crates/filters/src/mean.rs").expect("root hop");
    let util = chain.find("crates/util/src/lib.rs").expect("sink hop");
    assert!(filters < util, "chain must run root → sink: {chain}");
}

#[test]
fn json_report_carries_the_chain_with_stable_keys() {
    let (code, stdout) = lint("panic_ws", true);
    assert_eq!(code, 1);
    let json = stdout.trim();
    assert!(
        json.starts_with(r#"{"pragmas":0,"violations":["#) && json.ends_with("]}"),
        "{json}"
    );
    for key in [
        "\"rule\":\"panic-reach\"",
        "\"file\":\"crates/util/src/lib.rs\"",
        "\"chain\":[",
        "\"func\":\"Mean::aggregate_into\"",
        "\"func\":\"verify\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn a_root_missing_from_the_tree_is_reported_not_silently_skipped() {
    // The fixture workspace has a server loop and a filter but no event
    // loop and no simulated drivers: the one named root it does define
    // resolves, every other one is listed by name and file.
    let missing = abft_lint::unresolved_roots(&fixture("panic_ws")).expect("fixture is readable");
    assert!(
        !missing.iter().any(|m| m.starts_with("serve ")),
        "the fixture server loop defines serve: {missing:?}"
    );
    for root in [
        "execute (crates/runtime/src/event_loop.rs)",
        "execute_server (crates/runtime/src/simulated.rs)",
        "execute_p2p (crates/runtime/src/simulated.rs)",
    ] {
        assert!(
            missing.iter().any(|m| m == root),
            "{root} not in {missing:?}"
        );
    }
    // One loop and three entries: every row source is reached from them.
    assert_eq!(missing.len(), 3, "{missing:?}");
    assert_eq!(missing.len(), abft_lint::reach::NAMED_ROOTS.len() - 1);
}
