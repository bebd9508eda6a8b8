//! `abft-lint`: the one workspace invariant clippy cannot check — no panic
//! that a hot-path root reaches through any chain of calls, in any crate —
//! reported with the call chain that proves it.
//!
//! The token-level invariants are clippy's: `clippy.toml` bans partial
//! float order, wall-clock reads, thread spawns and hashed collections,
//! `[workspace.lints.clippy]` requires `SAFETY` comments and reasoned
//! `#[expect]`s instead of `#[allow]`s, and the `lib.rs` of `filters`,
//! `linalg`, `runtime` and `dgd` denies `unwrap`, `expect`, `panic!` and
//! their kin outside tests. A clippy exception is `#[expect(lint, reason =
//! "…")]`, and the build fails once it goes stale.
//!
//! What clippy sees is one crate at a time, and it has no lint for
//! `assert!` or for indexing. This crate reads every `src/` tree of the
//! workspace with a std-only lexer and item parser (no `syn`: the build is
//! offline; see [`parse`]), resolves call sites into a workspace-wide call
//! graph ([`graph`]), and walks it from the hot-path roots ([`reach`]). A
//! reachable panic is justified with a pragma:
//!
//! ```text
//! // LINT-ALLOW(panic-reach): reason the panic cannot fire
//! ```
//!
//! on the line, or in the comment run directly above the statement it
//! belongs to; see [`reach`] for call-site and `fn`-line pragmas. A pragma
//! without a reason, or naming an unknown rule, is itself a violation
//! (`pragma`). Where clippy already denies the panic, the clippy
//! `#[expect]` over the site justifies it here too, so no site carries two
//! annotations.
//!
//! The library half ([`lint_sources`], [`lint_workspace`]) exists so the
//! fixture tests and the `workspace_clean` gate run in-process under
//! `cargo test -p abft-lint`; the binary half wraps it for CI and local
//! use (`cargo run -p abft-lint`, add `--json` for machine output).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub mod graph;
pub mod parse;
pub mod reach;

/// The registered rule names: `panic-reach`, the call-graph reachability
/// rule (see [`reach`]), and `pragma`, which covers malformed `LINT-ALLOW`
/// annotations themselves.
pub const RULES: &[&str] = &["panic-reach", "pragma"];

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
    /// For `panic-reach`: the witness call chain from a hot-path root to
    /// the function containing the site, root first. Empty for `pragma`.
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
    /// and `chain` (always present; `[]` for `pragma`), with
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
/// `comment` holding the line's comment text (for pragma lookups).
#[derive(Debug, Default, Clone)]
pub(crate) struct MaskedLine {
    pub(crate) code: String,
    pub(crate) comment: String,
}

/// Splits `source` into per-line code and comment streams. String and char
/// literal *contents* are dropped from the code stream (the delimiters
/// stay), so tokens inside literals never match a rule; comment text —
/// line, block, and doc comments alike — lands in the comment stream, so
/// `LINT-ALLOW` annotations stay visible.
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

/// Whether `matches` holds for line `idx`'s own comment or any comment in
/// the run directly above it. The upward walk skips blank lines,
/// attributes (a multi-line one whole), and code lines that belong to the
/// same multi-line statement — recognized from **either side** of the
/// line break: the upper line visibly continuing (ending in `=`, `(`, `,`,
/// or an operator), or the lower line visibly being a continuation
/// (starting with `.`, `?`, a closing delimiter, or an operator). An annotation
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
            || code == ")]"
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
    /// Number of well-formed `LINT-ALLOW` pragmas honoured. The
    /// `workspace_clean` gate adds the guarded clippy `#[expect]`s and
    /// holds the sum to a committed ceiling, so a new exception is a
    /// visible diff.
    pub pragmas: usize,
}

/// Lints the `src/` trees of the workspace rooted at `root` — `src/` and
/// every `crates/*/src/` — which is where the hot-path roots and
/// everything they can call live.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let sources = read_src_trees(root)?;
    let files: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, source)| (rel.as_str(), source.as_str()))
        .collect();
    Ok(lint_sources(&files))
}

/// Lints in-memory sources, each a `(workspace-relative path, text)` pair
/// in path order: every file's `LINT-ALLOW` pragmas are checked, then
/// `panic-reach` walks the call graph of all of them.
pub fn lint_sources(files: &[(&str, &str)]) -> Report {
    let mut violations = Vec::new();
    let mut pragmas = 0;
    let mut parsed = Vec::new();
    for &(rel, source) in files {
        let file = parse::parse_source(rel, source);
        pragmas += check_pragmas(&file, &mut violations);
        // The lint crate itself is tool code — it is never linked into a
        // runtime binary, and name-based resolution would otherwise alias
        // its helpers (`build`, `check`, …) into the runtime graph.
        if !rel.starts_with("crates/lint/") {
            parsed.push(file);
        }
    }
    let graph = graph::CallGraph::build(&parsed);
    violations.extend(reach::check(&graph, &parsed));
    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report {
        violations,
        scanned: files.len(),
        pragmas,
    }
}

/// Flags every malformed `LINT-ALLOW` pragma of `file` — one naming an
/// unknown rule, or carrying no reason — and returns how many are well
/// formed.
fn check_pragmas(file: &parse::ParsedSource, out: &mut Vec<Violation>) -> usize {
    let mut honoured = 0;
    for (idx, line) in file.masked.iter().enumerate() {
        for pragma in pragmas_in(&line.comment) {
            let message = if !RULES.contains(&pragma.rule.as_str()) {
                format!(
                    "LINT-ALLOW names unknown rule `{}` — the rule is `panic-reach`; \
                     clippy's exceptions are `#[expect(lint, reason = \"…\")]`",
                    pragma.rule
                )
            } else if !pragma.has_reason {
                format!(
                    "LINT-ALLOW({}) lacks a reason — every exception must be justified",
                    pragma.rule
                )
            } else {
                honoured += 1;
                continue;
            };
            out.push(Violation {
                file: file.rel.clone(),
                line: idx + 1,
                rule: "pragma",
                message,
                excerpt: file.excerpt(idx),
                chain: Vec::new(),
            });
        }
    }
    honoured
}

/// The named hot-path roots ([`reach::NAMED_ROOTS`]) that match no
/// function of the workspace at `root`, as `name (file)` strings. Roots
/// are matched by name and file, so renaming one would silently shrink
/// the reachability walk; the workspace's own `workspace_clean` test
/// requires this list to be empty.
pub fn unresolved_roots(root: &Path) -> io::Result<Vec<String>> {
    let parsed: Vec<_> = read_src_trees(root)?
        .iter()
        .map(|(rel, source)| parse::parse_source(rel, source))
        .collect();
    Ok(reach::unresolved_roots(&graph::CallGraph::build(&parsed)))
}

/// The witness chain by which the hot-path walk reaches the function
/// `name` defined in the workspace-relative `file` — root first, the
/// function last — or `None` when no root reaches it (or no such function
/// exists). The chain is the one a `panic-reach` violation in that
/// function would print, so `Some` means its panics are checked.
pub fn hot_path_chain(root: &Path, file: &str, name: &str) -> io::Result<Option<Vec<Hop>>> {
    let parsed = parsed_workspace(root)?;
    let graph = graph::CallGraph::build(&parsed);
    let walk = reach::Walk::new(&graph, &parsed);
    Ok(node_of(&graph, file, name).and_then(|id| walk.chain(id)))
}

/// [`hot_path_chain`] of the function `name` in `file`, forced through
/// the function `via_name` in `via_file`: the walk's chain to `via`, then
/// the shortest path on from `via` along call edges no pragma cuts. `None`
/// when no root reaches `via`, or `via` does not reach the function. It
/// tells which of several callers a shared function is reached from, where
/// [`hot_path_chain`] shows only the first.
pub fn hot_path_chain_via(
    root: &Path,
    (via_file, via_name): (&str, &str),
    file: &str,
    name: &str,
) -> io::Result<Option<Vec<Hop>>> {
    let parsed = parsed_workspace(root)?;
    let graph = graph::CallGraph::build(&parsed);
    let (Some(via), Some(id)) = (
        node_of(&graph, via_file, via_name),
        node_of(&graph, file, name),
    ) else {
        return Ok(None);
    };
    let to_via = reach::Walk::new(&graph, &parsed).chain(via);
    let onward = reach::Walk::from_roots(&graph, &parsed, &[via]).chain(id);
    Ok(to_via.zip(onward).map(|(mut chain, onward)| {
        chain.extend(onward.into_iter().skip(1));
        chain
    }))
}

/// The workspace's `src/` files, the lint crate's own excluded, parsed.
fn parsed_workspace(root: &Path) -> io::Result<Vec<parse::ParsedSource>> {
    Ok(read_src_trees(root)?
        .iter()
        .filter(|(rel, _)| !rel.starts_with("crates/lint/"))
        .map(|(rel, source)| parse::parse_source(rel, source))
        .collect())
}

/// The call-graph node of the function `name` defined in `file`.
fn node_of(graph: &graph::CallGraph, file: &str, name: &str) -> Option<usize> {
    graph
        .nodes
        .iter()
        .position(|node| node.file == file && node.name == name)
}

/// Every `.rs` file under `root/src/` and `root/crates/*/src/`, as
/// `(workspace-relative path, text)` pairs sorted by path — which makes
/// call-graph node ids, and so every ordering downstream, deterministic.
fn read_src_trees(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut trees = vec![root.join("src")];
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for entry in crates {
            trees.push(entry?.path().join("src"));
        }
    }
    let mut files = Vec::new();
    for tree in &trees {
        collect_rust_files(tree, &mut files)?;
    }
    files.sort();
    files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            Ok((rel, std::fs::read_to_string(path)?))
        })
        .collect()
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
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
    fn pragma_parsing() {
        let ps = pragmas_in("// LINT-ALLOW(panic-reach): the index is bounded above");
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].rule, "panic-reach");
        assert!(ps[0].has_reason);
        let bad = pragmas_in("// LINT-ALLOW(panic-reach):   ");
        assert!(!bad[0].has_reason);
    }
}
