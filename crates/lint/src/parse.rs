//! Stage 1 of the reachability analysis: a std-only item parser.
//!
//! Works on the masked line stream of the lexer in the crate root
//! (comments, string/char literals, and `#[cfg(test)]` regions already
//! handled — no `syn`, the build is offline). The masked code is tokenized
//! into identifiers and punctuation, then a single recursive pass extracts:
//!
//! - `fn` definitions, each tagged with its owner (`Free`, an
//!   `impl Type`/`impl Trait for Type` block, or a `trait` declaration),
//! - every call site inside a body (`free(…)`, `Qual::assoc(…)`,
//!   `.method(…)`), which stage 2 resolves into call-graph edges,
//! - every *panic site* inside a body: `unwrap`/`expect`, the
//!   `panic!`-family macros, and slice indexing `x[i]`, and
//! - every clippy lint an `#[expect(…)]` attribute names.
//!
//! A panic site that an `#[expect(clippy::<lint>, reason = …)]` on its
//! statement or its `fn` already justifies — `expect_used` over an
//! `.expect(`, `panic` over a `panic!` — is not recorded: clippy checks
//! that exception, and the compiler fails it once it goes stale.
//!
//! Functions inside `#[cfg(test)]` regions are dropped: they are neither
//! reachable from the hot-path roots nor legitimate resolution targets,
//! and keeping them out prevents a test helper from aliasing a production
//! function by name. `debug_assert!`-family macro arguments are skipped
//! entirely — they vanish from release builds.
//!
//! The parser is deliberately approximate where Rust's grammar is
//! irrelevant to call extraction (it tracks delimiters, not expressions),
//! but it is conservative in the direction that matters: an unresolvable
//! construct yields *more* candidate edges in stage 2, never fewer.

use crate::{mask, test_regions, MaskedLine};

/// Who owns a parsed function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Owner {
    /// A free function (module-level, including functions nested in
    /// other bodies).
    Free,
    /// A method in an `impl` block: `impl SelfTy { … }` or
    /// `impl TraitName for SelfTy { … }`.
    Impl {
        /// Base identifier of the implementing type (`Krum`, not
        /// `Krum<'a>`).
        self_ty: String,
        /// Base identifier of the implemented trait, when this is a
        /// trait impl.
        trait_name: Option<String>,
    },
    /// A method declared in a `trait` block (a default body, or a
    /// body-less signature that still anchors dispatch fan-out).
    Trait {
        /// The declaring trait's name.
        trait_name: String,
    },
}

/// One panic site inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// The offending token, for diagnostics (`unwrap`, `assert!`,
    /// `slice-index`, …).
    pub what: String,
    /// 0-based line of the site.
    pub line: usize,
}

/// One call site inside a function body, before resolution.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called identifier (last path segment).
    pub callee: String,
    /// For `Qual::callee(…)`: the path segment directly before the final
    /// `::` (`Vector` in `abft_linalg::Vector::zeros`). `Self` is kept
    /// verbatim and resolved against the owner in stage 2.
    pub qualifier: Option<String>,
    /// Whether this was a `.callee(…)` method call.
    pub method: bool,
    /// 0-based line of the call.
    pub line: usize,
}

/// One parsed function.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub owner: Owner,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    pub calls: Vec<CallSite>,
    pub sinks: Vec<Sink>,
}

impl FnItem {
    /// `Type::name` for methods, bare `name` otherwise.
    pub fn display(&self) -> String {
        match &self.owner {
            Owner::Free => self.name.clone(),
            Owner::Impl { self_ty, .. } => format!("{}::{}", self_ty, self.name),
            Owner::Trait { trait_name } => format!("{}::{}", trait_name, self.name),
        }
    }
}

/// Everything stage 2 needs from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    /// Trait declarations: name → the method names it declares (used to
    /// resolve `TraitName::method(…)` qualifiers).
    pub traits: Vec<(String, Vec<String>)>,
    /// Every lint an `#[expect(…)]` attribute names (a clippy lint without
    /// its `clippy::` prefix, a compiler lint such as `unsafe_code` as
    /// spelled), with the attribute's 0-based line — test regions included.
    pub expects: Vec<(usize, String)>,
}

/// One source file, parsed: what [`lint_workspace`](crate::lint_workspace)
/// hands to the graph builder and the reach checker.
#[derive(Debug)]
pub struct ParsedSource {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Original source lines (for excerpts).
    pub lines: Vec<String>,
    /// Masked lines (for pragma lookups).
    pub(crate) masked: Vec<MaskedLine>,
    pub items: FileItems,
}

impl ParsedSource {
    /// The code of every line outside `#[cfg(test)]` regions, comments
    /// and literal contents masked out — what a textual count of call
    /// sites should look at.
    pub fn live_code(&self) -> impl Iterator<Item = &str> {
        let in_test = test_regions(&self.masked);
        let live = self.masked.iter().zip(in_test).filter(|(_, test)| !test);
        live.map(|(line, _)| line.code.as_str())
    }

    /// Line `idx` (0-based) as a diagnostic shows it: trimmed, and cut at
    /// 160 characters.
    pub fn excerpt(&self, idx: usize) -> String {
        let line = self.lines.get(idx).map_or("", |l| l.trim());
        match line.char_indices().nth(160) {
            Some((cut, _)) => format!("{}…", &line[..cut]),
            None => line.to_string(),
        }
    }
}

/// Masks, tokenizes, and item-parses one source file.
pub fn parse_source(rel: &str, source: &str) -> ParsedSource {
    let masked = mask(source);
    let in_test = test_regions(&masked);
    let toks = tokenize(&masked);
    let mut items = FileItems::default();
    let mut p = Parser {
        toks: &toks,
        pos: 0,
        in_test: &in_test,
        items: &mut items,
        expected: Vec::new(),
    };
    p.parse_scope(&Owner::Free, None);
    ParsedSource {
        rel: rel.to_string(),
        lines: source.lines().map(str::to_string).collect(),
        masked,
        items,
    }
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
struct Tok {
    /// An identifier, or a punctuation string (single char, or `::`).
    text: String,
    /// 0-based source line.
    line: usize,
}

impl Tok {
    fn is_ident(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// Splits the masked code stream into identifier and punctuation tokens.
/// `::` is one token; everything else is a single character.
fn tokenize(masked: &[MaskedLine]) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (line, ml) in masked.iter().enumerate() {
        let bytes = ml.code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b.is_ascii_whitespace() {
                i += 1;
            } else if b.is_ascii_alphanumeric() || b == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: ml.code[start..i].to_string(),
                    line,
                });
            } else if b == b':' && bytes.get(i + 1) == Some(&b':') {
                toks.push(Tok {
                    text: "::".to_string(),
                    line,
                });
                i += 2;
            } else {
                toks.push(Tok {
                    text: (b as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

// ---------------------------------------------------------------------------
// Item parser
// ---------------------------------------------------------------------------

/// Keywords that look like `ident(` call sites but never are.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "move",
    "fn", "as", "where", "let", "mut", "ref", "pub", "use", "mod", "const", "static", "unsafe",
    "await", "dyn", "impl", "box",
];

/// Identifier tokens that may directly precede a `[` without the bracket
/// being an index expression (`for x in [..]`, `return [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "in", "return", "if", "else", "match", "loop", "while", "break", "continue", "move", "mut",
    "ref", "as", "where", "let", "impl", "fn", "pub", "use", "mod", "const", "static", "type",
    "enum", "struct", "trait", "dyn", "unsafe", "await", "box", "await",
];

/// Each panic site with a clippy twin, and the lint: an `#[expect]`
/// naming that lint justifies the site. Asserts and indexing have none.
const CLIPPY_TWINS: &[(&str, &str)] = &[
    ("unwrap", "unwrap_used"),
    ("expect", "expect_used"),
    ("panic!", "panic"),
    ("unreachable!", "unreachable"),
    ("todo!", "todo"),
    ("unimplemented!", "unimplemented"),
];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    in_test: &'a [bool],
    items: &'a mut FileItems,
    /// The clippy lints named by the `#[expect]`s seen so far, each with
    /// the token index its scope ends at.
    expected: Vec<(usize, String)>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    fn at(&self, offset: usize) -> Option<&Tok> {
        self.toks.get(self.pos + offset)
    }

    fn line_is_test(&self, line: usize) -> bool {
        self.in_test.get(line).copied().unwrap_or(false)
    }

    /// Skips one attribute (`#[…]` / `#![…]`) with balanced brackets,
    /// positioned on the `#`. When it is an `expect`, records the lints it
    /// names and puts them in force over the statement (`in_body`) or item
    /// it annotates.
    fn attribute(&mut self, in_body: bool) {
        let start = self.pos;
        self.bump(); // '#'
        if self.peek().is_some_and(|t| t.text == "!") {
            self.bump();
        }
        if self.peek().is_some_and(|t| t.text == "[") {
            self.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match self.bump() {
                    Some(t) if t.text == "[" => depth += 1,
                    Some(t) if t.text == "]" => depth -= 1,
                    Some(_) => {}
                    None => break,
                }
            }
        }
        let toks = &self.toks[start..self.pos.min(self.toks.len())];
        if toks
            .iter()
            .find(|t| t.is_ident())
            .is_none_or(|t| t.text != "expect")
        {
            return;
        }
        let end = self.scope_end(in_body);
        for w in toks.windows(3) {
            let lint = match [0, 1, 2].map(|i| w[i].text.as_str()) {
                ["clippy", "::", _] => &w[2],
                ["(" | ",", _, "," | ")"] if w[1].is_ident() => &w[1],
                _ => continue,
            };
            self.items.expects.push((lint.line, lint.text.clone()));
            self.expected.push((end, lint.text.clone()));
        }
    }

    /// The token index where the statement or item starting at the current
    /// position ends: its `;`, the `}` closing a block it opened (unless
    /// `else`, `.` or `?` continues past it), or the `}` closing the
    /// enclosing block — and, in a body, the `,` ending a match arm.
    fn scope_end(&self, in_body: bool) -> usize {
        let mut depth = 0usize;
        for (i, t) in self.toks.iter().enumerate().skip(self.pos) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "}" if depth == 0 => return i,
                "}" => {
                    depth -= 1;
                    let next = self.toks.get(i + 1).map_or("", |t| t.text.as_str());
                    if depth == 0 && !matches!(next, "else" | "." | "?") {
                        return i;
                    }
                }
                ";" if depth == 0 => return i,
                "," if depth == 0 && in_body => return i,
                _ => {}
            }
        }
        self.toks.len()
    }

    /// Records a panic site at the current token, unless an `#[expect]` in
    /// force names the clippy lint that denies it.
    fn panic_sink(&self, item: &mut FnItem, what: String, line: usize) {
        let twin = CLIPPY_TWINS.iter().find(|(site, _)| *site == what);
        let justified = twin.is_some_and(|(_, lint)| {
            self.expected
                .iter()
                .any(|(end, expected)| *end >= self.pos && expected == lint)
        });
        if !justified {
            item.sinks.push(Sink { what, line });
        }
    }

    /// Skips a balanced `<…>` group. Positioned on the `<`.
    fn skip_angles(&mut self) {
        let mut depth = 0i64;
        loop {
            match self.bump() {
                Some(t) if t.text == "<" => depth += 1,
                Some(t) if t.text == ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return;
                    }
                }
                // A `(` inside generics (`Fn(..)` bounds) — skip the
                // group so its `>`-free arrows don't confuse the count.
                Some(t) if t.text == "(" => {
                    let mut p = 1usize;
                    while p > 0 {
                        match self.bump() {
                            Some(t) if t.text == "(" => p += 1,
                            Some(t) if t.text == ")" => p -= 1,
                            Some(_) => {}
                            None => return,
                        }
                    }
                }
                Some(_) => {}
                None => return,
            }
        }
    }

    /// Parses a type path after `impl`/`for`: `a::b::Name<…>` (with
    /// optional leading `&`/`'lifetime`/`dyn`/`mut`). Returns the base
    /// identifier of the last path segment.
    fn parse_type_path(&mut self) -> Option<String> {
        let mut last = None;
        loop {
            match self.peek() {
                Some(t) if t.text == "&" || t.text == "'" || t.text == "*" => {
                    self.bump();
                }
                Some(t) if t.is_ident() && (t.text == "dyn" || t.text == "mut") => {
                    self.bump();
                }
                _ => break,
            }
        }
        loop {
            match self.peek() {
                Some(t) if t.is_ident() => {
                    last = Some(t.text.clone());
                    self.bump();
                }
                _ => break,
            }
            match self.peek() {
                Some(t) if t.text == "<" => {
                    self.skip_angles();
                }
                _ => {}
            }
            match self.peek() {
                Some(t) if t.text == "::" => {
                    self.bump();
                }
                _ => break,
            }
        }
        // Trailing generics on the last segment.
        if self.peek().is_some_and(|t| t.text == "<") {
            self.skip_angles();
        }
        last
    }

    /// Parses item streams: the top level, and the insides of
    /// `impl`/`trait`/`mod` blocks. Stops at the matching `}` (consumed)
    /// or end of input. `trait_ctx` carries a trait name when directly
    /// inside a `trait` block.
    fn parse_scope(&mut self, owner: &Owner, stop_depth: Option<()>) {
        while let Some(tok) = self.peek() {
            match tok.text.as_str() {
                "#" => self.attribute(false),
                "}" => {
                    self.bump();
                    if stop_depth.is_some() {
                        return;
                    }
                }
                "{" => {
                    // An anonymous brace at item level (a `mod m {`
                    // already consumed its header tokens as plain
                    // idents): recurse with the same owner so nested
                    // items are still found.
                    self.bump();
                    self.parse_scope(owner, Some(()));
                }
                "impl" => self.parse_impl(),
                "trait" => self.parse_trait(),
                "fn" if self.at(1).is_some_and(Tok::is_ident) => {
                    self.parse_fn(owner.clone());
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Parses `impl<…> Type {` / `impl<…> Trait for Type {` headers, then
    /// the block body as a scope owned by the impl.
    fn parse_impl(&mut self) {
        self.bump(); // `impl`
        if self.peek().is_some_and(|t| t.text == "<") {
            self.skip_angles();
        }
        let first = self.parse_type_path();
        let (self_ty, trait_name) = if self.peek().is_some_and(|t| t.text == "for") {
            self.bump();
            let ty = self.parse_type_path();
            (ty, first)
        } else {
            (first, None)
        };
        // Skip the where clause (no braces can appear before the block's).
        while let Some(t) = self.peek() {
            if t.text == "{" || t.text == ";" {
                break;
            }
            self.bump();
        }
        if self.peek().is_some_and(|t| t.text == "{") {
            self.bump();
            let owner = Owner::Impl {
                self_ty: self_ty.unwrap_or_else(|| "?".to_string()),
                trait_name,
            };
            self.parse_scope(&owner, Some(()));
        }
    }

    /// Parses `trait Name … { … }`, recording the declared method names.
    fn parse_trait(&mut self) {
        self.bump(); // `trait`
        let name = match self.peek() {
            Some(t) if t.is_ident() => t.text.clone(),
            _ => return,
        };
        self.bump();
        while let Some(t) = self.peek() {
            if t.text == "{" || t.text == ";" {
                break;
            }
            self.bump();
        }
        if self.peek().is_some_and(|t| t.text == "{") {
            self.bump();
            let owner = Owner::Trait {
                trait_name: name.clone(),
            };
            let before = self.items.fns.len();
            self.parse_scope(&owner, Some(()));
            let methods = self.items.fns[before..]
                .iter()
                .filter(|f| f.owner == owner)
                .map(|f| f.name.clone())
                .collect();
            self.items.traits.push((name, methods));
        }
    }

    /// Parses one `fn name …;` or `fn name … { body }`. Positioned on
    /// the `fn` keyword.
    fn parse_fn(&mut self, owner: Owner) {
        let def_line = self.peek().map_or(0, |t| t.line);
        self.bump(); // `fn`
        let name = match self.peek() {
            Some(t) if t.is_ident() => t.text.clone(),
            _ => return,
        };
        self.bump();
        // Signature: scan to the body `{` or the terminating `;`,
        // tracking (), [], and <> groups so an array type's `;` or a
        // closure's `|…|` never ends the signature early.
        loop {
            match self.peek() {
                Some(t) if t.text == "<" => self.skip_angles(),
                Some(t) if t.text == "(" || t.text == "[" => {
                    let open = t.text.clone();
                    let close = if open == "(" { ")" } else { "]" };
                    self.bump();
                    let mut depth = 1usize;
                    while depth > 0 {
                        match self.bump() {
                            Some(t) if t.text == open => depth += 1,
                            Some(t) if t.text == close => depth -= 1,
                            Some(_) => {}
                            None => return,
                        }
                    }
                }
                Some(t) if t.text == "{" => break,
                Some(t) if t.text == ";" => {
                    // A body-less declaration (trait method signature).
                    self.bump();
                    if !self.line_is_test(def_line) {
                        self.items.fns.push(FnItem {
                            name,
                            owner,
                            line: def_line,
                            calls: Vec::new(),
                            sinks: Vec::new(),
                        });
                    }
                    return;
                }
                Some(_) => {
                    self.bump();
                }
                None => return,
            }
        }
        self.bump(); // `{`
        let mut item = FnItem {
            name,
            owner,
            line: def_line,
            calls: Vec::new(),
            sinks: Vec::new(),
        };
        self.scan_body(&mut item);
        if !self.line_is_test(def_line) {
            self.items.fns.push(item);
        }
    }

    /// Scans a function body (positioned just past the opening `{`),
    /// collecting call sites and sinks until the matching `}`.
    fn scan_body(&mut self, item: &mut FnItem) {
        let mut depth = 1usize;
        while depth > 0 {
            let Some(tok) = self.peek() else { return };
            match tok.text.as_str() {
                "{" => {
                    depth += 1;
                    self.bump();
                }
                "}" => {
                    depth -= 1;
                    self.bump();
                }
                "#" => self.attribute(true),
                "fn" if self.at(1).is_some_and(Tok::is_ident) => {
                    // A nested function: its own item, its own sites.
                    self.parse_fn(Owner::Free);
                }
                "[" => {
                    // An index expression when the token before the `[`
                    // is a value-ish primary: an identifier (`xs[i]`,
                    // `self.data[i]`) or a closing delimiter
                    // (`row(i)[0]`, `a[0][1]`). Array literals/types sit
                    // after `=`/`(`/`:`/`,`/`&`/keywords and never match.
                    let prev = self.pos.checked_sub(1).and_then(|i| self.toks.get(i));
                    let indexable = prev.is_some_and(|p| {
                        (p.is_ident() && !NON_INDEX_KEYWORDS.contains(&p.text.as_str()))
                            || p.text == ")"
                            || p.text == "]"
                    });
                    if indexable {
                        self.panic_sink(item, "slice-index".to_string(), tok.line);
                    }
                    self.bump();
                }
                _ if tok.is_ident() => self.scan_ident(item),
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Handles one identifier inside a body: macro invocation, call
    /// site, sink token, or plain word.
    fn scan_ident(&mut self, item: &mut FnItem) {
        let tok = self.toks[self.pos].clone();
        let name = tok.text.as_str();
        let next = self.at(1).map(|t| t.text.clone()).unwrap_or_default();
        let prev = self
            .pos
            .checked_sub(1)
            .and_then(|i| self.toks.get(i))
            .map(|t| t.text.clone())
            .unwrap_or_default();

        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
        if next == "!" && self.at(2).is_some_and(|t| "([{".contains(t.text.as_str())) {
            if name.starts_with("debug_assert") {
                // Exempt, and its arguments vanish from release builds:
                // skip the whole group.
                self.bump(); // name
                self.bump(); // !
                self.skip_group();
                return;
            }
            if PANIC_MACROS.contains(&name) {
                self.panic_sink(item, format!("{name}!"), tok.line);
            }
            // Scan the macro arguments as ordinary tokens (calls inside
            // `format!`/`write!`/… still create edges).
            self.bump();
            self.bump();
            return;
        }

        // Call site: `name(`, or `name::<…>(` with a turbofish.
        let opens_call = next == "(" || (next == "::" && self.turbofish_then_paren());
        if opens_call && !NON_CALL_KEYWORDS.contains(&name) {
            let (qualifier, method) = if prev == "." {
                (None, true)
            } else if prev == "::" {
                (self.qualifier_before(self.pos - 1), false)
            } else {
                (None, false)
            };
            if method && (name == "unwrap" || name == "expect") {
                // Panic sites, not edges: nothing in the workspace
                // defines these.
                self.panic_sink(item, name.to_string(), tok.line);
            } else {
                item.calls.push(CallSite {
                    callee: name.to_string(),
                    qualifier,
                    method,
                    line: tok.line,
                });
            }
        }

        self.bump();
    }

    /// Skips one balanced `(…)`/`[…]`/`{…}` group. Positioned on the
    /// opening delimiter.
    fn skip_group(&mut self) {
        let Some(open) = self.peek().map(|t| t.text.clone()) else {
            return;
        };
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return,
        };
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some(t) if t.text == open => depth += 1,
                Some(t) if t.text == close => depth -= 1,
                Some(_) => {}
                None => return,
            }
        }
    }

    /// Whether the identifier at the cursor is followed by a turbofish
    /// and an argument list: `sort_lanes::<32>(…)`, `.sum::<f64>()`.
    fn turbofish_then_paren(&self) -> bool {
        if self.at(2).is_none_or(|t| t.text != "<") {
            return false;
        }
        let angles = self.toks.get(self.pos + 2..).unwrap_or_default();
        let mut depth = 0usize;
        for (i, t) in angles.iter().enumerate() {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return angles.get(i + 1).is_some_and(|t| t.text == "(");
                    }
                }
                _ => {}
            }
        }
        false
    }

    /// The path segment directly before the `::` at `sep` — skipping a
    /// turbofish `::<…>` if present: `Vec::<f64>::new` → `Vec`.
    fn qualifier_before(&self, sep: usize) -> Option<String> {
        let mut i = sep.checked_sub(1)?;
        if self.toks.get(i)?.text == ">" {
            // Walk back over the balanced angle group.
            let mut depth = 1i64;
            while depth > 0 {
                i = i.checked_sub(1)?;
                match self.toks.get(i)?.text.as_str() {
                    ">" => depth += 1,
                    "<" => depth -= 1,
                    _ => {}
                }
            }
            i = i.checked_sub(1)?;
            if self.toks.get(i)?.text == "::" {
                i = i.checked_sub(1)?;
            }
        }
        let t = self.toks.get(i)?;
        t.is_ident().then(|| t.text.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        parse_source("crates/x/src/lib.rs", src).items
    }

    #[test]
    fn extracts_free_fns_and_calls() {
        let items = parse("fn a() {\n    b();\n    helper::c();\n}\nfn b() {}\n");
        assert_eq!(items.fns.len(), 2);
        let a = &items.fns[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.owner, Owner::Free);
        assert_eq!(a.calls.len(), 2);
        assert_eq!(a.calls[0].callee, "b");
        assert_eq!(a.calls[1].callee, "c");
        assert_eq!(a.calls[1].qualifier.as_deref(), Some("helper"));
    }

    #[test]
    fn extracts_impl_methods_with_trait_context() {
        let src = "struct K;\nimpl Filter for K {\n    fn aggregate_into(&self) {\n        self.helper();\n    }\n}\nimpl K {\n    fn helper(&self) {}\n}\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 2);
        assert_eq!(
            items.fns[0].owner,
            Owner::Impl {
                self_ty: "K".into(),
                trait_name: Some("Filter".into())
            }
        );
        assert!(items.fns[0]
            .calls
            .iter()
            .any(|c| c.callee == "helper" && c.method));
        assert_eq!(
            items.fns[1].owner,
            Owner::Impl {
                self_ty: "K".into(),
                trait_name: None
            }
        );
    }

    #[test]
    fn trait_decl_records_method_names_and_default_bodies() {
        let src = "trait Filter {\n    fn aggregate_into(&self);\n    fn aggregate(&self) {\n        self.aggregate_into();\n    }\n}\n";
        let items = parse(src);
        assert_eq!(items.traits.len(), 1);
        assert_eq!(items.traits[0].0, "Filter");
        assert_eq!(items.traits[0].1, vec!["aggregate_into", "aggregate"]);
        // The default body is a node with an edge.
        let default = items.fns.iter().find(|f| f.name == "aggregate").unwrap();
        assert!(default.calls.iter().any(|c| c.callee == "aggregate_into"));
    }

    #[test]
    fn generic_impl_headers_resolve_base_names() {
        let src = "impl<P: Clone + Send> Bus<P> for SimNet<P> {\n    fn send(&mut self) {}\n}\n";
        let items = parse(src);
        assert_eq!(
            items.fns[0].owner,
            Owner::Impl {
                self_ty: "SimNet".into(),
                trait_name: Some("Bus".into())
            }
        );
    }

    #[test]
    fn panic_sinks_unwrap_expect_macros_and_indexing() {
        let src = "fn f(x: Option<u32>, xs: &[f64], i: usize) {\n    x.unwrap();\n    x.expect(\"boom\");\n    panic!(\"no\");\n    let _ = xs[i];\n}\n";
        let items = parse(src);
        let kinds: Vec<&str> = items.fns[0].sinks.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(kinds, vec!["unwrap", "expect", "panic!", "slice-index"]);
    }

    #[test]
    fn debug_assert_arguments_are_exempt() {
        let src = "fn f(xs: &[f64], i: usize) {\n    debug_assert!(xs[i] > 0.0);\n    debug_assert_eq!(xs[i], 1.0);\n}\n";
        let items = parse(src);
        assert!(items.fns[0].sinks.is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_panic_sinks() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()\n}\n";
        let items = parse(src);
        assert!(items.fns[0].sinks.is_empty());
    }

    #[test]
    fn array_types_and_literals_are_not_index_sinks() {
        let src = "fn f() -> [f64; 2] {\n    let a: [f64; 2] = [0.0, 1.0];\n    for _x in [1, 2] {}\n    a\n}\n";
        let items = parse(src);
        assert!(items.fns[0].sinks.is_empty(), "{:?}", items.fns[0].sinks);
    }

    #[test]
    fn clippy_expect_justifies_its_twin_on_the_statement_or_fn() {
        let src = "fn f(x: Option<u32>) {\n    #[expect(clippy::expect_used, reason = \"x\")]\n    let _a = x.expect(\"a\");\n    let _b = x.expect(\"b\");\n}\n#[expect(\n    clippy::unwrap_used,\n    reason = \"x\"\n)]\npub(crate) fn g(x: Option<u32>) {\n    x.unwrap();\n    x.expect(\"c\");\n}\n";
        let items = parse(src);
        let sites =
            |f: usize| -> Vec<usize> { items.fns[f].sinks.iter().map(|s| s.line).collect() };
        // Only the statement under the attribute is covered …
        assert_eq!(sites(0), vec![3]);
        // … and a `fn`-level expect covers its own lint, not another one.
        assert_eq!(sites(1), vec![11]);
        let lints: Vec<&str> = items.expects.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(lints, vec!["expect_used", "unwrap_used"]);
    }

    #[test]
    fn clippy_expect_does_not_justify_an_assert_or_other_lints() {
        let src = "fn f(xs: &[u32]) {\n    #[expect(clippy::expect_used, reason = \"x\")]\n    assert!(xs[0] > 0);\n    #[allow(clippy::unwrap_used)]\n    xs.first().unwrap();\n}\n";
        let items = parse(src);
        let kinds: Vec<&str> = items.fns[0].sinks.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(kinds, vec!["assert!", "slice-index", "unwrap"]);
        assert_eq!(items.expects, vec![(1, "expect_used".to_string())]);
    }

    #[test]
    fn compiler_lint_expects_are_recorded_by_name() {
        let src = "#![expect(unsafe_code, reason = \"x\")]\n#[expect(dead_code, clippy::panic, reason = \"y\")]\nfn f() {}\n";
        let lints: Vec<String> = parse(src).expects.into_iter().map(|(_, l)| l).collect();
        assert_eq!(lints, ["unsafe_code", "dead_code", "panic"]);
    }

    #[test]
    fn cfg_test_functions_are_dropped() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { Some(1).unwrap(); }\n}\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "live");
    }

    #[test]
    fn method_chains_and_turbofish_resolve() {
        let src = "fn f(v: &V) {\n    v.rows().iter().step();\n    Vec::<f64>::with_capacity(4);\n    Self::go();\n}\n";
        let items = parse(src);
        let calls = &items.fns[0].calls;
        assert!(calls.iter().any(|c| c.callee == "rows" && c.method));
        assert!(calls
            .iter()
            .any(|c| c.callee == "with_capacity" && c.qualifier.as_deref() == Some("Vec")));
        assert!(calls
            .iter()
            .any(|c| c.callee == "go" && c.qualifier.as_deref() == Some("Self")));
    }

    #[test]
    fn a_turbofish_on_the_callee_is_still_a_call() {
        let src = "fn f(v: &V) {\n    lanes::<32>(v);\n    v.iter().sum::<Vec<f64>>();\n    let t = size_of::<u8>;\n}\n";
        let items = parse(src);
        let calls: Vec<(&str, bool)> = items.fns[0]
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.method))
            .collect();
        assert_eq!(calls, [("lanes", false), ("iter", true), ("sum", true)]);
    }

    #[test]
    fn fn_pointer_types_are_not_nested_fns() {
        let src = "fn f(cb: fn(usize) -> usize) -> usize {\n    cb(3)\n}\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 1);
        assert!(items.fns[0].calls.iter().any(|c| c.callee == "cb"));
    }

    #[test]
    fn array_type_semicolon_does_not_end_signature() {
        let src = "fn f(x: [f64; 3]) -> f64 {\n    x.iter().sum()\n}\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 1);
        assert!(items.fns[0].calls.iter().any(|c| c.callee == "sum"));
    }
}
