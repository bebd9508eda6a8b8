//! Fixture tests for what `abft-lint` checks per site: which panicking
//! constructs `panic-reach` reports, and the pragma mechanism — honored
//! with a reason, rejected without one, rejected for unknown rule names,
//! and covering exactly one (possibly multi-line) statement.
//!
//! Fixtures are inline string literals run through
//! [`abft_lint::lint_sources`] as the body of a filter's `aggregate_into`
//! (a hot-path root); none of them ever touch the real workspace tree.

use abft_lint::{lint_sources, Violation};

const FIXTURE: &str = "crates/filters/src/fixture.rs";

/// `body` as the body of a hot-path root, starting on line 4.
fn root(body: &str) -> String {
    format!(
        "pub struct M;\nimpl GradientFilter for M {{\n    fn aggregate_into(&self, x: Option<u32>, xs: &[u32]) -> u32 {{\n{body}\n    }}\n}}\n"
    )
}

fn violations(body: &str) -> Vec<Violation> {
    lint_sources(&[(FIXTURE, &root(body))]).violations
}

/// The rules triggered by `body`, in order.
fn rules(body: &str) -> Vec<&'static str> {
    violations(body).iter().map(|v| v.rule).collect()
}

// ------------------------------------------------------------- no-panic

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
        "let _ = xs[0];",
    ] {
        assert_eq!(
            rules(&format!("        {stmt}")),
            vec!["panic-reach"],
            "{stmt} must be flagged"
        );
    }
}

#[test]
fn no_panic_exempts_debug_assert() {
    let body =
        "        debug_assert!(xs[0] < 2);\n        debug_assert_eq!(xs.len() % 2, 0);\n        0";
    assert!(rules(body).is_empty());
}

#[test]
fn no_panic_ignores_doc_comment_mentions() {
    let body =
        "        // Never panics: `unwrap()` and `xs[0]` are not reachable.\n        x.unwrap_or(0)";
    assert!(rules(body).is_empty());
}

// --------------------------------------------------------------- pragma

#[test]
fn pragma_with_reason_suppresses_the_violation() {
    let above = "        // LINT-ALLOW(panic-reach): fixture justification\n        x.unwrap()";
    assert!(rules(above).is_empty());
    let same_line = "        x.unwrap() // LINT-ALLOW(panic-reach): fixture justification";
    assert!(rules(same_line).is_empty());
}

#[test]
fn pragma_only_covers_its_own_rule() {
    let body = "        // LINT-ALLOW(pragma): wrong rule for this site\n        x.unwrap()";
    assert_eq!(rules(body), vec!["panic-reach"]);
}

#[test]
fn pragma_without_reason_is_itself_a_violation() {
    let body = "        // LINT-ALLOW(panic-reach)\n        x.unwrap()";
    let found = rules(body);
    // The bare pragma does not suppress, and is flagged on top.
    assert!(found.contains(&"pragma"));
    assert!(found.contains(&"panic-reach"));
    // A colon followed by nothing is still no reason.
    let empty = "        // LINT-ALLOW(panic-reach):\n        x.unwrap()";
    assert!(rules(empty).contains(&"pragma"));
}

#[test]
fn pragma_naming_unknown_rule_is_flagged() {
    // The retired line rules are unknown names now: their exceptions are
    // clippy `#[expect]`s.
    for rule in ["no-such-rule", "no-panic-hot-path"] {
        let src = format!("// LINT-ALLOW({rule}): reason text\npub fn f() {{}}\n");
        let found = lint_sources(&[("crates/ml/src/fixture.rs", &src)]).violations;
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "pragma");
        assert!(found[0].message.contains(rule));
    }
}

#[test]
fn pragma_covers_every_line_of_a_multi_line_statement() {
    // The pragma sits above the first line of a statement whose violating
    // token only appears on a continuation line; the whole statement is
    // covered, not just its first line.
    let chain = "        // LINT-ALLOW(panic-reach): fixture justification\n        let y = x\n            .map(|v| v + 1)\n            .unwrap();\n        y";
    assert!(rules(chain).is_empty());
    // Same for a sum broken before its operator.
    let sum = "        // LINT-ALLOW(panic-reach): fixture justification\n        xs.iter().sum::<u32>()\n            + xs[0]";
    assert!(rules(sum).is_empty());
}

#[test]
fn pragma_stops_where_the_multi_line_statement_ends() {
    // Coverage extends to the statement's closing `;` and no further: the
    // violation in the *next* statement stays flagged.
    let body = "        // LINT-ALLOW(panic-reach): fixture justification\n        let y = x\n            .map(|v| v + 1)\n            .unwrap();\n        y + xs[0]";
    let found = violations(body);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, "panic-reach");
    assert_eq!(found[0].line, 8, "only the follow-up statement is flagged");
}

#[test]
fn pragma_does_not_leak_past_an_intervening_statement() {
    // The pragma sits above a *complete* statement; the violation on the
    // line after it must stay flagged.
    let body = "        // LINT-ALLOW(panic-reach): covers only the next statement\n        let y = x;\n        y.unwrap()";
    assert_eq!(rules(body), vec!["panic-reach"]);
}

// ------------------------------------------------------------ reporting

#[test]
fn violations_carry_location_excerpt_and_json() {
    let found = violations("        x.unwrap()");
    assert_eq!(found.len(), 1);
    let v: &Violation = &found[0];
    assert_eq!((v.file.as_str(), v.line), (FIXTURE, 4));
    assert_eq!(v.excerpt, "x.unwrap()");
    let text = v.to_string();
    assert!(text.contains("crates/filters/src/fixture.rs:4"));
    assert!(text.contains("panic-reach"));
    let json = v.to_json();
    assert!(json.contains("\"file\":\"crates/filters/src/fixture.rs\""));
    assert!(json.contains("\"line\":4"));
    assert!(json.contains("\"rule\":\"panic-reach\""));
    assert!(json.contains("\"chain\":[{\"func\":\"M::aggregate_into\""));
}
