//! Fixture tests: one positive (flagged) and one negative (clean) case per
//! rule, plus the pragma mechanism — honored with a reason, rejected
//! without one, and rejected for unknown rule names.
//!
//! Fixtures are inline string literals run through [`abft_lint::lint_source`]
//! under paths chosen to land in each rule's scope; none of them ever
//! touch the real workspace tree.

use abft_lint::{lint_source, Violation};

/// The rules triggered by `src` when linted under `rel`, in order.
fn rules(rel: &str, src: &str) -> Vec<&'static str> {
    lint_source(rel, src).iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------- float

#[test]
fn float_total_order_flags_partial_cmp() {
    let src = "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let found = lint_source("crates/ml/src/fixture.rs", src);
    assert!(found.iter().any(|v| v.rule == "float-total-order"));
    let hit = found
        .iter()
        .find(|v| v.rule == "float-total-order")
        .expect("checked above");
    assert_eq!(hit.line, 2);
    assert!(hit.excerpt.contains("partial_cmp"));
}

#[test]
fn float_total_order_applies_in_tests_and_benches_too() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = 1.0f64.partial_cmp(&2.0);\n    }\n}\n";
    assert!(rules("crates/ml/src/fixture.rs", src).contains(&"float-total-order"));
    let bench = "fn main() {\n    let _ = 1.0f64.partial_cmp(&2.0);\n}\n";
    assert!(rules("crates/ml/benches/fixture.rs", bench).contains(&"float-total-order"));
}

#[test]
fn float_total_order_accepts_total_cmp() {
    let src = "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.total_cmp(b));\n}\n";
    assert!(rules("crates/ml/src/fixture.rs", src).is_empty());
}

#[test]
fn float_total_order_ignores_comments_and_strings() {
    let src = "fn f() {\n    // partial_cmp would be wrong here\n    let s = \"partial_cmp\";\n    let _ = s;\n}\n";
    assert!(rules("crates/ml/src/fixture.rs", src).is_empty());
}

// ------------------------------------------------------------- no-panic

#[test]
fn no_panic_flags_unwrap_in_hot_path_crates() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    for krate in ["filters", "linalg", "runtime", "dgd"] {
        let rel = format!("crates/{krate}/src/fixture.rs");
        assert_eq!(
            rules(&rel, src),
            vec!["no-panic-hot-path"],
            "{krate} is a no-panic crate"
        );
    }
}

#[test]
fn no_panic_flags_every_panicking_macro() {
    for stmt in [
        "x.unwrap();",
        "x.expect(\"reason\");",
        "panic!(\"boom\");",
        "unreachable!();",
        "todo!();",
        "unimplemented!();",
        "assert!(cond);",
        "assert_eq!(a, b);",
        "assert_ne!(a, b);",
    ] {
        let src = format!("pub fn f() {{\n    {stmt}\n}}\n");
        assert!(
            rules("crates/filters/src/fixture.rs", &src).contains(&"no-panic-hot-path"),
            "{stmt} must be flagged"
        );
    }
}

#[test]
fn no_panic_exempts_debug_assert() {
    let src = "pub fn f(i: usize, n: usize) {\n    debug_assert!(i < n);\n    debug_assert_eq!(n % 2, 0);\n}\n";
    assert!(rules("crates/filters/src/fixture.rs", src).is_empty());
}

#[test]
fn no_panic_exempts_tests_and_other_crates() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    // Same code in a non-hot-path crate: clean.
    assert!(rules("crates/ml/src/fixture.rs", src).is_empty());
    // In a hot-path crate's tests/ target: clean.
    assert!(rules("crates/filters/tests/fixture.rs", src).is_empty());
    // In a #[cfg(test)] region of hot-path src: clean.
    let in_tests =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
    assert!(rules("crates/filters/src/fixture.rs", in_tests).is_empty());
}

#[test]
fn no_panic_ignores_doc_comment_mentions() {
    let src = "/// # Panics\n///\n/// Never panics: `unwrap()` is not reachable.\npub fn f() {}\n";
    assert!(rules("crates/linalg/src/fixture.rs", src).is_empty());
}

// --------------------------------------------------------------- unsafe

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_eq!(
        rules("crates/ml/src/fixture.rs", src),
        vec!["unsafe-needs-safety"]
    );
}

#[test]
fn unsafe_with_safety_comment_is_clean() {
    let above = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees `p` is valid.\n    unsafe { *p }\n}\n";
    assert!(rules("crates/ml/src/fixture.rs", above).is_empty());
    let same_line = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: caller guarantees `p` is valid.\n}\n";
    assert!(rules("crates/ml/src/fixture.rs", same_line).is_empty());
}

#[test]
fn unsafe_fn_accepts_safety_doc_section() {
    let src = "/// Reads a byte.\n///\n/// # Safety\n///\n/// `p` must be valid for reads.\npub unsafe fn f(p: *const u8) -> u8 {\n    // SAFETY: valid per this function's contract.\n    unsafe { *p }\n}\n";
    assert!(rules("crates/ml/src/fixture.rs", src).is_empty());
}

#[test]
fn unsafe_safety_comment_survives_attributes_and_continuations() {
    // The annotation walk skips attributes and multi-line statement
    // continuations between the comment and the `unsafe` token.
    let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees `p` is valid.\n    #[allow(clippy::let_and_return)]\n    let v =\n        unsafe { *p };\n    v\n}\n";
    assert!(rules("crates/ml/src/fixture.rs", src).is_empty());
}

#[test]
fn unsafe_applies_in_tests_too() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x = 0u8;\n        let _ = unsafe { *(&x as *const u8) };\n    }\n}\n";
    assert_eq!(
        rules("crates/ml/src/fixture.rs", src),
        vec!["unsafe-needs-safety"]
    );
}

// ---------------------------------------------------------- collections

#[test]
fn hashed_collections_are_flagged_in_src() {
    let src = "use std::collections::HashMap;\npub fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    let _ = m;\n}\n";
    let found = rules("crates/ml/src/fixture.rs", src);
    assert!(found.iter().all(|&r| r == "deterministic-collections"));
    assert!(!found.is_empty());
    let set = "use std::collections::HashSet;\n";
    assert_eq!(
        rules("crates/ml/src/fixture.rs", set),
        vec!["deterministic-collections"]
    );
}

#[test]
fn btree_collections_are_clean() {
    let src = "use std::collections::{BTreeMap, BTreeSet};\npub fn f(m: &BTreeMap<u32, u32>, s: &BTreeSet<u32>) -> usize {\n    m.len() + s.len()\n}\n";
    assert!(rules("crates/ml/src/fixture.rs", src).is_empty());
}

// ------------------------------------------------------- fixed-schedule

#[test]
fn thread_spawn_is_flagged_outside_the_pools() {
    let src = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
    assert_eq!(
        rules("crates/ml/src/fixture.rs", src),
        vec!["fixed-schedule"]
    );
}

#[test]
fn thread_spawn_is_sanctioned_in_the_pool_homes() {
    let src = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
    assert!(rules("crates/linalg/src/pool.rs", src).is_empty());
    // The S1 collector dispatches over the pool; it spawns nothing itself
    // and so earns no exemption.
    assert_eq!(
        rules("crates/dgd/src/fleet.rs", src),
        vec!["fixed-schedule"]
    );
}

#[test]
fn instant_now_is_flagged_outside_bench() {
    let src = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(
        rules("crates/scenario/src/fixture.rs", src),
        vec!["fixed-schedule"]
    );
    // No crate name buys an exemption.
    assert_eq!(
        rules("crates/bench/src/fixture.rs", src),
        vec!["fixed-schedule"]
    );
}

#[test]
fn instant_now_is_sanctioned_in_the_telemetry_clock_home() {
    let src = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    // The telemetry crate's clock module is the one sanctioned home …
    assert!(rules("crates/telemetry/src/clock.rs", src).is_empty());
    // … but only that file: the rest of the telemetry crate stays banned.
    assert_eq!(
        rules("crates/telemetry/src/lib.rs", src),
        vec!["fixed-schedule"]
    );
}

#[test]
fn the_async_driver_is_not_a_timing_or_panic_home() {
    // The asynchronous server schedules agents on *virtual* clocks; a
    // wall-clock read there would silently break seeded reproducibility,
    // so the driver home gets no sanction.
    let timed = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(
        rules("crates/runtime/src/async_server.rs", timed),
        vec!["fixed-schedule"]
    );
    // And it sits on the aggregation hot path, so the no-panic rule
    // applies exactly as it does to the synchronous drivers.
    let panicking = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(
        rules("crates/runtime/src/async_server.rs", panicking),
        vec!["no-panic-hot-path"]
    );
}

// --------------------------------------------------------------- pragma

#[test]
fn pragma_with_reason_suppresses_the_violation() {
    let above = "pub fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(no-panic-hot-path): fixture justification\n    x.unwrap()\n}\n";
    assert!(rules("crates/filters/src/fixture.rs", above).is_empty());
    let same_line = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // LINT-ALLOW(no-panic-hot-path): fixture justification\n}\n";
    assert!(rules("crates/filters/src/fixture.rs", same_line).is_empty());
}

#[test]
fn pragma_only_covers_its_own_rule() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(float-total-order): wrong rule for this site\n    x.unwrap()\n}\n";
    assert_eq!(
        rules("crates/filters/src/fixture.rs", src),
        vec!["no-panic-hot-path"]
    );
}

#[test]
fn pragma_without_reason_is_itself_a_violation() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(no-panic-hot-path)\n    x.unwrap()\n}\n";
    let found = rules("crates/filters/src/fixture.rs", src);
    // The bare pragma does not suppress, and is flagged on top.
    assert!(found.contains(&"pragma"));
    assert!(found.contains(&"no-panic-hot-path"));
    // A colon followed by nothing is still no reason.
    let empty = "pub fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(no-panic-hot-path):\n    x.unwrap()\n}\n";
    assert!(rules("crates/filters/src/fixture.rs", empty).contains(&"pragma"));
}

#[test]
fn pragma_naming_unknown_rule_is_flagged() {
    let src = "// LINT-ALLOW(no-such-rule): reason text\npub fn f() {}\n";
    let found = lint_source("crates/ml/src/fixture.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, "pragma");
    assert!(found[0].message.contains("no-such-rule"));
}

#[test]
fn pragma_covers_every_line_of_a_multi_line_statement() {
    // The pragma sits above the first line of a statement whose violating
    // token only appears on a continuation line; the whole statement is
    // covered, not just its first line.
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(no-panic-hot-path): fixture justification\n    let y = x\n        .map(|v| v + 1)\n        .unwrap();\n    y\n}\n";
    assert!(rules("crates/filters/src/fixture.rs", src).is_empty());
    // Same for a sort chain split across lines.
    let sort = "pub fn f(xs: &mut [f64]) {\n    // LINT-ALLOW(float-total-order): fixture justification\n    xs.sort_by(|a, b| a\n        .partial_cmp(b)\n        .unwrap());\n}\n";
    assert!(rules("crates/ml/src/fixture.rs", sort).is_empty());
}

#[test]
fn pragma_stops_where_the_multi_line_statement_ends() {
    // Coverage extends to the statement's closing `;` and no further: the
    // violation in the *next* statement stays flagged.
    let src = "pub fn f(x: Option<u32>, z: Option<u32>) -> u32 {\n    // LINT-ALLOW(no-panic-hot-path): fixture justification\n    let y = x\n        .map(|v| v + 1)\n        .unwrap();\n    y + z.unwrap()\n}\n";
    let found = lint_source("crates/filters/src/fixture.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, "no-panic-hot-path");
    assert_eq!(found[0].line, 6, "only the follow-up statement is flagged");
}

#[test]
fn pragma_does_not_leak_past_an_intervening_statement() {
    // The pragma sits above a *complete* statement; the violation on the
    // line after it must stay flagged.
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(no-panic-hot-path): covers only the next statement\n    let y = x;\n    y.unwrap()\n}\n";
    assert_eq!(
        rules("crates/filters/src/fixture.rs", src),
        vec!["no-panic-hot-path"]
    );
}

// ------------------------------------------------------------ reporting

#[test]
fn violations_carry_location_excerpt_and_json() {
    let src = "fn f(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b).is_some()\n}\n";
    let found = lint_source("crates/ml/src/fixture.rs", src);
    assert_eq!(found.len(), 1);
    let v: &Violation = &found[0];
    assert_eq!((v.file.as_str(), v.line), ("crates/ml/src/fixture.rs", 2));
    let text = v.to_string();
    assert!(text.contains("crates/ml/src/fixture.rs:2"));
    assert!(text.contains("float-total-order"));
    let json = v.to_json();
    assert!(json.contains("\"file\":\"crates/ml/src/fixture.rs\""));
    assert!(json.contains("\"line\":2"));
    assert!(json.contains("\"rule\":\"float-total-order\""));
}
