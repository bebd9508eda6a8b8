//! `abft-lint`: a std-only static-analysis pass enforcing the repo's two
//! load-bearing guarantees — bit-identical traces at any thread/worker
//! count, and a never-panic aggregation path — as mechanical, named rules
//! instead of conventions.
//!
//! The scanner is deliberately line-level (no `syn`: the container is
//! vendored-only): a small lexer blanks comments, string literals, and
//! char literals out of every line, tracks `#[cfg(test)]` regions by brace
//! matching, and then applies token-level rules to the surviving code.
//! That is coarse, but every invariant below is phrased so a token match
//! is the right signal — and the escape hatch is explicit and audited:
//!
//! ```text
//! // LINT-ALLOW(float-total-order): reason the exception is sound
//! ```
//!
//! on the flagged line (trailing comment) or the comment lines directly
//! above it. A pragma without a reason, or naming an unknown rule, is
//! itself a violation — every exception stays a reviewed, justified line.
//!
//! # Rules
//!
//! | rule | invariant it guards |
//! |------|---------------------|
//! | `float-total-order` | no `partial_cmp` anywhere: float comparators must be `f64::total_cmp`, so a NaN orders deterministically instead of panicking or collapsing the sort |
//! | `no-panic-hot-path` | no `unwrap`/`expect`/`panic!`/`assert!`/`unreachable!`/`todo!`/`unimplemented!` in non-test code of the aggregation-path crates (`filters`, `linalg`, `runtime`, `dgd`); `debug_assert!` is exempt |
//! | `unsafe-needs-safety` | every `unsafe` occurrence carries a `// SAFETY:` comment (or a `# Safety` doc section) on the line or directly above it |
//! | `deterministic-collections` | no `HashMap`/`HashSet` in crate sources: iteration order must not depend on hashing, use `BTreeMap`/`BTreeSet`/`Vec` |
//! | `fixed-schedule` | no `thread::spawn`/`.spawn(` outside `linalg/src/pool.rs` (the one thread home), and no `Instant::now` outside `telemetry/src/clock.rs` (the one clock home) — work schedules are pure functions of the input, never of timing |
//!
//! The library half ([`lint_source`], [`lint_workspace`]) exists so the
//! fixture tests and the `workspace_clean` gate run in-process under
//! `cargo test -p abft-lint`; the binary half wraps it for CI and local
//! use (`cargo run -p abft-lint`, add `--json` for machine output).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub mod graph;
pub mod parse;
pub mod reach;

/// The registered rule names, in diagnostic order. The first five are
/// line-level (stage 1); `panic-reach` and `determinism-taint` are the
/// call-graph reachability rules (stage 2, see [`reach`]); `pragma`
/// covers malformed `LINT-ALLOW` annotations themselves.
pub const RULES: &[&str] = &[
    "float-total-order",
    "no-panic-hot-path",
    "unsafe-needs-safety",
    "deterministic-collections",
    "fixed-schedule",
    "panic-reach",
    "determinism-taint",
    "pragma",
];

/// Crates whose `src/` trees must stay panic-free outside tests: the
/// aggregation hot path and everything a mid-round server executes.
const NO_PANIC_CRATES: &[&str] = &["filters", "linalg", "runtime", "dgd"];

/// Files allowed to spawn threads: the one fixed-schedule pool.
const SPAWN_ALLOWED: &[&str] = &["crates/linalg/src/pool.rs"];

/// Files allowed to read the wall clock: the telemetry crate's clock
/// home, which every metrics-only wall-clock read in the stack funnels
/// through.
const CLOCK_ALLOWED: &[&str] = &["crates/telemetry/src/clock.rs"];

/// One hop of a reachability witness chain: a function on the path from
/// a hot-path root to the offending site, located at its definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Display name (`Type::method` for impl methods, bare name for free
    /// functions).
    pub func: String,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the `fn` definition.
    pub line: usize,
}

/// One diagnostic: where, which rule, and what the line looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// What the rule guards and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// For the reachability rules: the witness call chain from a hot-path
    /// root to the function containing the site, root first. Empty for
    /// the line-level rules.
    pub chain: Vec<Hop>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        write!(f, "    {}", self.excerpt)?;
        if !self.chain.is_empty() {
            let rendered: Vec<String> = self
                .chain
                .iter()
                .map(|h| format!("{} ({}:{})", h.func, h.file, h.line))
                .collect();
            write!(f, "\n    chain: {}", rendered.join(" → "))?;
        }
        Ok(())
    }
}

impl Violation {
    /// The violation as one JSON object (std-only serialization). The
    /// schema is stable: `file`, `line`, `rule`, `message`, `excerpt`,
    /// and `chain` (always present; `[]` for line-level rules), with
    /// every chain hop carrying `func`, `file`, `line`.
    pub fn to_json(&self) -> String {
        let chain: Vec<String> = self
            .chain
            .iter()
            .map(|h| {
                format!(
                    r#"{{"func":"{}","file":"{}","line":{}}}"#,
                    escape_json(&h.func),
                    escape_json(&h.file),
                    h.line
                )
            })
            .collect();
        format!(
            r#"{{"file":"{}","line":{},"rule":"{}","message":"{}","excerpt":"{}","chain":[{}]}}"#,
            escape_json(&self.file),
            self.line,
            self.rule,
            escape_json(&self.message),
            escape_json(&self.excerpt),
            chain.join(",")
        )
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lexing: blank comments and literals out of the code, keep comments aside.
// ---------------------------------------------------------------------------

/// One source line after masking: `code` with comments/strings blanked,
/// `comment` holding the line's comment text (for SAFETY / pragma checks).
#[derive(Debug, Default, Clone)]
pub(crate) struct MaskedLine {
    pub(crate) code: String,
    pub(crate) comment: String,
}

/// Splits `source` into per-line code and comment streams. String and char
/// literal *contents* are dropped from the code stream (the delimiters
/// stay), so tokens inside literals never match a rule; comment text —
/// line, block, and doc comments alike — lands in the comment stream, so
/// `SAFETY:` and `LINT-ALLOW` annotations stay visible.
pub(crate) fn mask(source: &str) -> Vec<MaskedLine> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }
    let bytes = source.as_bytes();
    let mut lines = Vec::new();
    let mut cur = MaskedLine::default();
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    cur.comment.push_str("//");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if b == b'"' {
                    state = State::Str;
                    cur.code.push('"');
                    i += 1;
                } else if let Some(hashes) = raw_string_open(bytes, i) {
                    state = State::RawStr(hashes);
                    cur.code.push_str("r\"");
                    i += raw_open_len(bytes, i);
                } else if b == b'\'' {
                    if let Some(end) = char_literal_end(bytes, i) {
                        cur.code.push_str("''");
                        i = end;
                    } else {
                        // A lifetime, not a literal.
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(b as char);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(b as char);
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    cur.comment.push_str("*/");
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    cur.comment.push_str("/*");
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(b as char);
                    i += 1;
                }
            }
            State::Str => {
                if b == b'\\' {
                    // Skip the escaped byte — except a line continuation,
                    // whose newline must still close the current line.
                    i += if bytes.get(i + 1) == Some(&b'\n') {
                        1
                    } else {
                        2
                    };
                } else if b == b'"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' && closes_raw(bytes, i, hashes) {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
        }
    }
    // Don't emit a phantom line after a trailing newline — line counts
    // must match `source.lines()`.
    if !cur.code.is_empty() || !cur.comment.is_empty() || !source.ends_with('\n') {
        lines.push(cur);
    }
    lines
}

/// `Some(hash_count)` when position `i` opens a raw (byte) string literal
/// — `r"`, `r#"`, `br##"`, … Identifier characters directly before the
/// `r` (as in `agr"` being part of a name) disqualify it.
fn raw_string_open(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

/// Byte length of the raw-string opener at `i` (`r###"` → 5).
fn raw_open_len(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    j + 1 - i
}

/// Whether the `"` at `i` is followed by `hashes` `#`s, closing a raw
/// string.
fn closes_raw(bytes: &[u8], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// `Some(end_index)` when the `'` at `i` starts a char literal (as opposed
/// to a lifetime); `end_index` is one past the closing quote.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1)? {
        b'\\' => {
            // Escaped char: scan for the closing quote, skipping escapes.
            let mut j = i + 2;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => return Some(j + 1),
                    b'\n' => return None,
                    _ => j += 1,
                }
            }
            None
        }
        _ => (bytes.get(i + 2)? == &b'\'').then_some(i + 3),
    }
}

// ---------------------------------------------------------------------------
// #[cfg(test)] regions
// ---------------------------------------------------------------------------

/// Marks every line covered by a `#[cfg(test)]` item (attribute line
/// through the matching closing brace, or through the `;` of a
/// `mod tests;` declaration).
pub(crate) fn test_regions(lines: &[MaskedLine]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut line = 0;
    while line < lines.len() {
        let compact: String = lines[line]
            .code
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        if !compact.contains("#[cfg(test)]") {
            line += 1;
            continue;
        }
        // Walk forward to the item's opening brace (or terminating `;`),
        // then to its matching close.
        let mut depth: i64 = 0;
        let mut opened = false;
        let start = line;
        'item: while line < lines.len() {
            for c in lines[line].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    ';' if !opened => break 'item, // `mod tests;`
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            line += 1;
        }
        let end = line.min(lines.len() - 1);
        for flag in in_test.iter_mut().take(end + 1).skip(start) {
            *flag = true;
        }
        line = end + 1;
    }
    in_test
}

// ---------------------------------------------------------------------------
// Token matching
// ---------------------------------------------------------------------------

/// Whether `line` contains `token` with identifier boundaries on both
/// sides (so `assert!` does not match inside `debug_assert!`).
pub(crate) fn has_word(line: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + token.len();
        let after_ok = !line[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

/// A parsed `LINT-ALLOW` pragma: the rule it names and whether it carries
/// a non-empty reason.
pub(crate) struct Pragma {
    pub(crate) rule: String,
    pub(crate) has_reason: bool,
}

/// Extracts every pragma from one comment string.
pub(crate) fn pragmas_in(comment: &str) -> Vec<Pragma> {
    let mut found = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("LINT-ALLOW") {
        rest = &rest[pos + "LINT-ALLOW".len()..];
        let Some(open) = rest.strip_prefix('(') else {
            continue;
        };
        let Some(close) = open.find(')') else {
            continue;
        };
        let rule = open[..close].trim().to_string();
        let after = &open[close + 1..];
        let has_reason = after
            .strip_prefix(':')
            .is_some_and(|reason| !reason.trim().is_empty());
        found.push(Pragma { rule, has_reason });
        rest = after;
    }
    found
}

// ---------------------------------------------------------------------------
// The per-file pass
// ---------------------------------------------------------------------------

/// What part of the workspace a file belongs to, derived from its
/// workspace-relative path. Decides which rules apply.
struct FileScope<'a> {
    rel: &'a str,
    /// `crates/<name>/…` → `<name>`.
    crate_name: Option<&'a str>,
    /// Library/binary source (a `src/` tree) as opposed to `tests/`,
    /// `benches/`, or `examples/` targets.
    in_src: bool,
}

impl<'a> FileScope<'a> {
    fn of(rel: &'a str) -> Self {
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next());
        FileScope {
            rel,
            crate_name,
            in_src: rel.contains("/src/") || rel.starts_with("src/"),
        }
    }

    fn no_panic_applies(&self) -> bool {
        self.in_src
            && self
                .crate_name
                .is_some_and(|c| NO_PANIC_CRATES.contains(&c))
    }
}

/// Lints one file's source text. `rel` is the workspace-relative path
/// (with `/` separators) and selects which rules apply — see the module
/// docs for the scoping table.
pub fn lint_source(rel: &str, source: &str) -> Vec<Violation> {
    lint_file(rel, source).0
}

/// [`lint_source`], plus the number of well-formed `LINT-ALLOW` pragmas
/// (known rule, non-empty reason) in the file — the exceptions the
/// linter honours.
fn lint_file(rel: &str, source: &str) -> (Vec<Violation>, usize) {
    let scope = FileScope::of(rel);
    let masked = mask(source);
    let in_test = test_regions(&masked);
    let orig: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    let mut pragmas = 0;

    let mut push = |line_idx: usize, rule: &'static str, message: String| {
        out.push(Violation {
            file: rel.to_string(),
            line: line_idx + 1,
            rule,
            message,
            excerpt: orig
                .get(line_idx)
                .map_or(String::new(), |l| truncate(l.trim(), 160)),
            chain: Vec::new(),
        });
    };

    // Is a violation of `rule` on line `idx` covered by a pragma on the
    // same line or in the comment block directly above?
    let allowed = |idx: usize, rule: &str| {
        annotated(&masked, idx, &|line| {
            pragmas_in(&line.comment)
                .iter()
                .any(|p| p.rule == rule && p.has_reason)
        })
    };

    for (idx, line) in masked.iter().enumerate() {
        let code = line.code.as_str();

        // Malformed pragmas are violations wherever they appear, and are
        // never suppressible.
        for pragma in pragmas_in(&line.comment) {
            if !RULES.contains(&pragma.rule.as_str()) {
                push(
                    idx,
                    "pragma",
                    format!("LINT-ALLOW names unknown rule `{}`", pragma.rule),
                );
            } else if !pragma.has_reason {
                push(
                    idx,
                    "pragma",
                    format!(
                        "LINT-ALLOW({}) lacks a reason — every exception must be justified",
                        pragma.rule
                    ),
                );
            } else {
                pragmas += 1;
            }
        }

        // float-total-order: everywhere, tests and benches included — a
        // partial comparator is wrong wherever it sorts floats.
        if has_word(code, "partial_cmp") && !allowed(idx, "float-total-order") {
            push(
                idx,
                "float-total-order",
                "`partial_cmp` breaks the total-order contract — use `f64::total_cmp` \
                 so NaN orders deterministically instead of panicking"
                    .to_string(),
            );
        }

        // unsafe-needs-safety: everywhere, tests included.
        if has_word(code, "unsafe") && !safety_documented(&masked, idx) {
            push(
                idx,
                "unsafe-needs-safety",
                "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section) \
                 on the line or directly above it"
                    .to_string(),
            );
        }

        if in_test[idx] {
            continue;
        }

        // no-panic-hot-path: non-test src of the aggregation-path crates.
        if scope.no_panic_applies() {
            const PANICS: &[&str] = &[
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ];
            let hit = PANICS.iter().any(|p| code.contains(p))
                || ["assert!", "assert_eq!", "assert_ne!"]
                    .iter()
                    .any(|p| has_word(code, &p[..p.len() - 1]) && code.contains(p));
            if hit && !allowed(idx, "no-panic-hot-path") {
                push(
                    idx,
                    "no-panic-hot-path",
                    format!(
                        "panicking construct in non-test code of the `{}` crate — \
                         return an error, or justify with a pragma",
                        scope.crate_name.unwrap_or("?")
                    ),
                );
            }
        }

        // deterministic-collections: all crate sources.
        if scope.in_src
            && (has_word(code, "HashMap") || has_word(code, "HashSet"))
            && !allowed(idx, "deterministic-collections")
        {
            push(
                idx,
                "deterministic-collections",
                "hashed collections iterate in nondeterministic order — \
                 use `BTreeMap`/`BTreeSet`/`Vec` on determinism-critical paths"
                    .to_string(),
            );
        }

        // fixed-schedule: spawning and timing outside the sanctioned homes.
        if scope.in_src {
            let spawns = (code.contains("thread::spawn") || code.contains(".spawn("))
                && !SPAWN_ALLOWED.contains(&scope.rel);
            if spawns && !allowed(idx, "fixed-schedule") {
                push(
                    idx,
                    "fixed-schedule",
                    "thread spawning outside `linalg/src/pool.rs` — \
                     all parallelism must ride the fixed-schedule pools"
                        .to_string(),
                );
            }
            if code.contains("Instant::now")
                && !CLOCK_ALLOWED.contains(&scope.rel)
                && !allowed(idx, "fixed-schedule")
            {
                push(
                    idx,
                    "fixed-schedule",
                    "`Instant::now` outside `telemetry::clock` — \
                     timing must never feed control flow; route wall-clock metrics \
                     through `abft_telemetry::clock`"
                        .to_string(),
                );
            }
        }
    }
    (out, pragmas)
}

/// Whether the `unsafe` on line `idx` carries a safety comment: `SAFETY:`
/// in the same line's comment, or `SAFETY:`/`# Safety` anywhere in the
/// annotation run directly above (see [`annotated`]).
fn safety_documented(masked: &[MaskedLine], idx: usize) -> bool {
    annotated(masked, idx, &|line| {
        line.comment.contains("SAFETY:") || line.comment.contains("# Safety")
    })
}

/// Whether `matches` holds for line `idx`'s own comment or any comment in
/// the run directly above it. The upward walk skips blank lines,
/// attribute lines, and code lines that belong to the same multi-line
/// statement — recognized from **either side** of the line break: the
/// upper line visibly continuing (ending in `=`, `(`, `,`, or an
/// operator), or the lower line visibly being a continuation (starting
/// with `.`, `?`, a closing delimiter, or an operator). An annotation
/// above (or on the first line of) a multi-line statement therefore
/// covers the whole statement, including its continuation lines.
pub(crate) fn annotated(
    masked: &[MaskedLine],
    idx: usize,
    matches: &dyn Fn(&MaskedLine) -> bool,
) -> bool {
    if matches(&masked[idx]) {
        return true;
    }
    // The nearest non-blank code line at or below the walk position:
    // the line whose "am I a continuation?" shape decides whether the
    // line above it is part of the same statement.
    let mut below = masked[idx].code.trim().to_string();
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &masked[j];
        let code = line.code.trim();
        let transparent = code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#![")
            || ends_continued(code)
            || starts_continuation(&below);
        if !transparent {
            return false;
        }
        if matches(line) {
            return true;
        }
        if !code.is_empty() {
            below = code.to_string();
        }
    }
    false
}

/// Whether a line's code visibly continues onto the next line: it ends
/// mid-expression.
fn ends_continued(code: &str) -> bool {
    code.ends_with('=')
        || code.ends_with('(')
        || code.ends_with(',')
        || code.ends_with("&&")
        || code.ends_with("||")
        || code.ends_with('+')
}

/// Whether a line's code visibly continues the previous line: method
/// chains, `?` propagation, closing delimiters of multi-line calls, and
/// trailing binary operators broken before the operand.
fn starts_continuation(code: &str) -> bool {
    code.starts_with('.')
        || code.starts_with('?')
        || code.starts_with(')')
        || code.starts_with(']')
        || code.starts_with("&&")
        || code.starts_with("||")
        || code.starts_with('+')
}

pub(crate) fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max).collect();
        format!("{cut}…")
    }
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// What one pass over a workspace found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The violations, sorted by `(file, line, rule)` so output ordering
    /// is stable across runs and platforms.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub scanned: usize,
    /// Number of well-formed `LINT-ALLOW` pragmas honoured — every
    /// exception in force. The `workspace_clean` gate holds it to a
    /// committed ceiling, so a new exception is a visible diff.
    pub pragmas: usize,
}

/// Lints every Rust source file of the workspace rooted at `root`:
/// `crates/`, `src/`, `examples/`, and `tests/`, skipping `vendor/`
/// (external code), `target/`, and `fixtures/` directories (lint-test
/// inputs that violate rules on purpose).
///
/// Two stages run over the tree: the line-level rules ([`lint_source`])
/// per file, then the call-graph reachability rules (`panic-reach`,
/// `determinism-taint` — see [`reach`]) over an item-level parse of the
/// `src/` trees ([`parse`], [`graph`]).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let (mut report, parsed) = scan(root)?;
    let graph = graph::CallGraph::build(&parsed);
    report.violations.extend(reach::check(&graph, &parsed));
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}

/// The named hot-path roots ([`reach::NAMED_ROOTS`]) that match no
/// function of the workspace at `root`, as `name (file)` strings. Roots
/// are matched by name and file, so renaming one would silently shrink
/// the reachability walk; the workspace's own `workspace_clean` test
/// requires this list to be empty.
pub fn unresolved_roots(root: &Path) -> io::Result<Vec<String>> {
    let (_, parsed) = scan(root)?;
    Ok(reach::unresolved_roots(&graph::CallGraph::build(&parsed)))
}

/// Reads the tree once: the line-level report and the item-level parse
/// of the `src/` trees.
fn scan(root: &Path) -> io::Result<(Report, Vec<parse::ParsedSource>)> {
    let mut files = Vec::new();
    for top in ["crates", "src", "examples", "tests"] {
        collect_rust_files(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut report = Report {
        violations: Vec::new(),
        scanned: files.len(),
        pragmas: 0,
    };
    let mut parsed = Vec::new();
    for path in &files {
        let source = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let (violations, pragmas) = lint_file(&rel, &source);
        report.violations.extend(violations);
        report.pragmas += pragmas;
        // The reachability stage audits the library/binary source trees:
        // that is where hot-path roots and everything they can call live.
        // The lint crate itself is tool code — it is never linked into a
        // runtime binary, and name-based resolution would otherwise alias
        // its helpers (`build`, `check`, …) into the runtime graph.
        if FileScope::of(&rel).in_src && !rel.starts_with("crates/lint/") {
            parsed.push(parse::parse_source(&rel, &source));
        }
    }
    Ok((report, parsed))
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | "fixtures" | ".git") {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root this crate was compiled in — what the binary and
/// the `workspace_clean` gate lint by default.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_strings_and_comments() {
        let lines = mask("let x = \"partial_cmp\"; // partial_cmp here\nlet y = 1;");
        assert!(!lines[0].code.contains("partial_cmp"));
        assert!(lines[0].comment.contains("partial_cmp"));
        assert!(lines[1].code.contains("let y"));
    }

    #[test]
    fn masking_handles_raw_strings_chars_and_lifetimes() {
        let src =
            "let r = r#\"unsafe \"quoted\" unwrap()\"#;\nlet c = '\\'';\nfn f<'a>(x: &'a str) {}\n";
        let lines = mask(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(!lines[1].code.contains('\\'));
        assert!(lines[2].code.contains("&'a str"));
    }

    #[test]
    fn block_comments_span_lines_and_nest() {
        let src = "a /* one\n /* two */ still\n done */ b";
        let lines = mask(src);
        assert_eq!(lines[0].code.trim(), "a");
        assert_eq!(lines[1].code.trim(), "");
        assert_eq!(lines[2].code.trim(), "b");
    }

    #[test]
    fn cfg_test_region_covers_the_braced_item() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() {}\n}\nfn after() {}\n";
        let masked = mask(src);
        let regions = test_regions(&masked);
        assert_eq!(regions, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn word_boundaries_exclude_debug_assert() {
        assert!(has_word("assert!(x)", "assert"));
        assert!(!has_word("debug_assert!(x)", "assert"));
        assert!(has_word("a.partial_cmp(b)", "partial_cmp"));
    }

    #[test]
    fn pragma_parsing() {
        let ps = pragmas_in("// LINT-ALLOW(float-total-order): PartialOrd over integers");
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].rule, "float-total-order");
        assert!(ps[0].has_reason);
        let bad = pragmas_in("// LINT-ALLOW(no-panic-hot-path):   ");
        assert!(!bad[0].has_reason);
    }
}
