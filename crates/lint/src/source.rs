//! The shared source model every pass analyzes.
//!
//! The pipeline is deliberately *not* a Rust parser: the passes check
//! structural disciplines (who mutates what, in which function, holding
//! which lock), and a token stream with line numbers carries enough
//! structure for that while staying dependency-free and fast enough to
//! scan the whole workspace in milliseconds. The stages:
//!
//! 1. [`strip_noncode`] blanks comments and literal *contents* while
//!    preserving line structure (ported from the PR-4 scanner, whose
//!    edge cases — nested block comments, raw strings with hashes, byte
//!    strings, char-vs-lifetime ticks — are pinned by unit tests).
//! 2. [`tokenize`] produces identifier/punctuation tokens, merging the
//!    two-character operators the passes care about (`::`, `=>`, `==`,
//!    compound assignment, shifts).
//! 3. [`strip_test_tokens`] removes every `#[cfg(test)]`-gated item, so
//!    test code is exempt from every pass by construction.
//! 4. [`FnWalker`] tracks the enclosing named-function stack as a pass
//!    scans, so L003 can attribute a token to its function.
//!
//! Known (documented) approximations: macro bodies are scanned as
//! ordinary tokens, closures do not open a named scope, and types are
//! unknown — each pass states what it over- or under-approximates.

/// One token of non-test code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub text: String,
    pub line: usize,
    pub is_ident: bool,
}

impl Tok {
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// The source text reduced to code: comments and literal *contents*
/// blanked out (replaced by spaces), line structure preserved so
/// reported line numbers match the original file.
pub fn strip_noncode(src: &str) -> Vec<(char, usize)> {
    let chars: Vec<char> = src.chars().collect();
    let mut out: Vec<(char, usize)> = Vec::with_capacity(chars.len());
    let mut line = 1usize;
    let mut i = 0usize;

    let is_ident = |c: char| c.is_alphanumeric() || c == '_';

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push(('\n', line));
            line += 1;
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment — Rust block comments nest.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '\n' {
                    out.push(('\n', line));
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"...", r#"..."#, br##"..."##. Only when
        // the r/b starts an identifier-like token of its own.
        let prev_ident = i > 0 && is_ident(chars[i - 1]);
        if !prev_ident && (c == 'r' || c == 'b') {
            let mut j = i;
            if c == 'b' && chars.get(j + 1) == Some(&'r') {
                j += 1;
            }
            if c == 'r' || j > i {
                let mut hashes = 0usize;
                let mut k = j + 1;
                while chars.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if chars.get(k) == Some(&'"') {
                    // Scan for the closing quote + same number of '#'.
                    out.push((' ', line));
                    i = k + 1;
                    'raw: while i < chars.len() {
                        if chars[i] == '\n' {
                            out.push(('\n', line));
                            line += 1;
                            i += 1;
                            continue;
                        }
                        if chars[i] == '"' {
                            let mut h = 0usize;
                            while chars.get(i + 1 + h) == Some(&'#') {
                                h += 1;
                            }
                            if h >= hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Plain (or byte) string literal with escapes.
        if c == '"' || (c == 'b' && !prev_ident && chars.get(i + 1) == Some(&'"')) {
            out.push((' ', line));
            i += if c == 'b' { 2 } else { 1 };
            while i < chars.len() {
                match chars[i] {
                    '\\' => i += 2,
                    '\n' => {
                        out.push(('\n', line));
                        line += 1;
                        i += 1;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' / '\n' are literals; 'a in a
        // generic position has no closing quote within two chars.
        if c == '\'' {
            if chars.get(i + 1) == Some(&'\\') {
                // Escaped char literal: skip to closing quote.
                out.push((' ', line));
                i += 2;
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
                i += 1;
                continue;
            }
            if chars.get(i + 2) == Some(&'\'') {
                out.push((' ', line));
                i += 3;
                continue;
            }
            // Lifetime: keep the tick so tokens don't fuse.
            out.push(('\'', line));
            i += 1;
            continue;
        }
        out.push((c, line));
        i += 1;
    }
    out
}

/// Two-character operators merged into one punctuation token. Order
/// matters only in that each pair is tried before its first character
/// alone.
const TWO_CHAR: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "&&", "||", "..",
    "<<", ">>", "&=", "|=", "^=",
];

/// Tokenizes stripped code into identifiers and punctuation.
pub fn tokenize(code: &[(char, usize)]) -> Vec<Tok> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::with_capacity(code.len() / 4);
    let mut i = 0usize;
    while i < code.len() {
        let (c, line) = code[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if is_ident(c) {
            let start = i;
            while i < code.len() && is_ident(code[i].0) {
                i += 1;
            }
            out.push(Tok {
                text: code[start..i].iter().map(|&(ch, _)| ch).collect(),
                line,
                is_ident: true,
            });
            continue;
        }
        let pair: String = code[i..]
            .iter()
            .take(2)
            .map(|&(ch, _)| ch)
            .collect();
        if pair.len() == 2 && TWO_CHAR.contains(&pair.as_str()) {
            out.push(Tok {
                text: pair,
                line,
                is_ident: false,
            });
            i += 2;
            continue;
        }
        out.push(Tok {
            text: c.to_string(),
            line,
            is_ident: false,
        });
        i += 1;
    }
    out
}

/// Whether the token at `i` begins a `#[cfg(test)]` attribute; returns
/// the index just past the closing `]`.
fn cfg_test_attr(toks: &[Tok], i: usize) -> Option<usize> {
    if !toks[i].is("#") || !toks.get(i + 1)?.is("[") {
        return None;
    }
    let mut depth = 1usize;
    let mut j = i + 2;
    let mut body = String::new();
    while j < toks.len() && depth > 0 {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => depth -= 1,
            t if depth >= 1 => body.push_str(t),
            _ => {}
        }
        j += 1;
    }
    if body == "cfg(test)" {
        Some(j)
    } else {
        None
    }
}

/// Skips the item a `#[cfg(test)]` attribute gates: stacked attributes,
/// then everything through the matching close brace of the item's body,
/// or through the first `;` for body-less items.
fn skip_gated_item(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => {
                let mut depth = 1usize;
                i += 1;
                while i < toks.len() && depth > 0 {
                    match toks[i].text.as_str() {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            ";" => return i + 1,
            "#" => {
                // A stacked attribute — step over its bracket group.
                i += 1;
                if i < toks.len() && toks[i].is("[") {
                    let mut depth = 1usize;
                    i += 1;
                    while i < toks.len() && depth > 0 {
                        match toks[i].text.as_str() {
                            "[" => depth += 1,
                            "]" => depth -= 1,
                            _ => {}
                        }
                        i += 1;
                    }
                }
            }
            _ => i += 1,
        }
    }
    i
}

/// Removes every `#[cfg(test)]`-gated item from the token stream.
pub fn strip_test_tokens(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is("#") {
            if let Some(after) = cfg_test_attr(&toks, i) {
                i = skip_gated_item(&toks, after);
                continue;
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Full front end: source text → non-test token stream.
pub fn lex(src: &str) -> Vec<Tok> {
    strip_test_tokens(tokenize(&strip_noncode(src)))
}

/// Tracks the enclosing named-function stack while a pass scans tokens
/// left to right. Call [`FnWalker::step`] on every index *before*
/// inspecting the token there. Closures and unnamed blocks change brace
/// depth but not the stack; the stack therefore answers "which `fn`'s
/// body am I in", with the outermost entry being the item-level
/// function.
#[derive(Debug, Default)]
pub struct FnWalker {
    stack: Vec<(String, usize)>,
    pending: Option<String>,
    depth: usize,
}

impl FnWalker {
    pub fn new() -> Self {
        Self::default()
    }

    /// The outermost (item-level) enclosing named function.
    pub fn outermost(&self) -> Option<&str> {
        self.stack.first().map(|(n, _)| n.as_str())
    }

    /// Advances the tracker over `toks[i]`.
    pub fn step(&mut self, toks: &[Tok], i: usize) {
        match toks[i].text.as_str() {
            "{" => {
                self.depth += 1;
                if let Some(name) = self.pending.take() {
                    self.stack.push((name, self.depth));
                }
            }
            "}" => {
                if self.stack.last().is_some_and(|(_, d)| *d == self.depth) {
                    self.stack.pop();
                }
                self.depth = self.depth.saturating_sub(1);
            }
            ";" => {
                // Body-less declaration cancels a pending fn.
                self.pending = None;
            }
            "fn" => {
                if let Some(next) = toks.get(i + 1) {
                    if next.is_ident {
                        self.pending = Some(next.text.clone());
                    }
                }
            }
            _ => {}
        }
    }
}

/// The identifier receiving a method call: for `a.b(..).c()` at the `.`
/// before `c`, walks back over one balanced `(..)` / `[..]` group (a
/// call or index) and returns the identifier in front — `b` here,
/// `inner` for `self.inner.lock()`, `shard` for `self.shard(k).lock()`.
pub fn receiver_before(toks: &[Tok], dot: usize) -> Option<&str> {
    let mut i = dot.checked_sub(1)?;
    for close in [")", "]"] {
        let open = if close == ")" { "(" } else { "[" };
        if toks[i].is(close) {
            let mut depth = 1usize;
            while depth > 0 {
                i = i.checked_sub(1)?;
                if toks[i].is(close) {
                    depth += 1;
                } else if toks[i].is(open) {
                    depth -= 1;
                }
            }
            i = i.checked_sub(1)?;
            break;
        }
    }
    if toks[i].is_ident {
        Some(&toks[i].text)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_strings_and_char_literals_are_blanked() {
        let src = r#"
fn f() {
    // x.unwrap() in a line comment
    /* block /* nested */ comment */
    let s = "call .unwrap() maybe";
    let raw = r"\.unwrap()";
    let c = '"';
    let lt: &'static str = s;
}
"#;
        let ts = texts(src);
        assert!(!ts.iter().any(|t| t == "unwrap"), "{ts:?}");
        assert!(ts.iter().any(|t| t == "static"), "{ts:?}");
    }

    #[test]
    fn raw_strings_with_hashes_and_byte_strings_are_skipped() {
        let src = "fn f() { let a = r#\"x.unwrap()\"#; let b = b\"y.expect(\"; }\n";
        assert!(!texts(src).iter().any(|t| t == "unwrap" || t == "expect"));
    }

    #[test]
    fn two_char_operators_merge() {
        let ts = texts("fn f() { a += 1; b == c; d => e; x::y; }");
        for op in ["+=", "==", "=>", "::"] {
            assert!(ts.iter().any(|t| t == op), "{op} missing in {ts:?}");
        }
    }

    #[test]
    fn line_numbers_survive_stripping() {
        let toks = lex("fn f() {\n    x.unwrap();\n}\n");
        let unwrap = toks.iter().find(|t| t.is("unwrap")).expect("token");
        assert_eq!(unwrap.line, 2);
    }

    #[test]
    fn cfg_test_items_are_removed() {
        let src = r#"
fn prod() { x.ok(); }

#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}

#[cfg(test)]
#[derive(Debug)]
struct T { x: u8 }

#[cfg(test)]
use helpers::unwrap_all;

fn prod2() { z.frob(); }
"#;
        let ts = texts(src);
        assert!(!ts.iter().any(|t| t == "unwrap" || t == "unwrap_all"), "{ts:?}");
        assert!(ts.iter().any(|t| t == "prod2"));
        // cfg(not(test)) and cfg_attr are NOT exempt.
        let ts2 = texts("#[cfg(not(test))]\nfn f() { x.unwrap(); }\n");
        assert!(ts2.iter().any(|t| t == "unwrap"));
    }

    #[test]
    fn fn_walker_tracks_nesting() {
        let toks = lex("fn outer() { fn inner() { body(); } tail(); }");
        let mut w = FnWalker::new();
        let (mut at_body, mut at_tail, mut after) = (None, None, Some(String::new()));
        for i in 0..toks.len() {
            w.step(&toks, i);
            if toks[i].is("body") {
                at_body = w.outermost().map(String::from);
            }
            if toks[i].is("tail") {
                at_tail = w.outermost().map(String::from);
            }
            after = w.outermost().map(String::from);
        }
        assert_eq!(at_body.as_deref(), Some("outer"));
        assert_eq!(at_tail.as_deref(), Some("outer"));
        assert_eq!(after, None, "the stack empties after the outer body");
    }

    #[test]
    fn receiver_walks_over_call_groups() {
        let toks = lex("self.shard(user, fp).lock()");
        let dot = toks
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| t.is("."))
            .map(|(i, _)| i)
            .expect("dot");
        assert_eq!(receiver_before(&toks, dot), Some("shard"));
        let toks2 = lex("self.inner.read()");
        let dot2 = toks2
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| t.is("."))
            .map(|(i, _)| i)
            .expect("dot");
        assert_eq!(receiver_before(&toks2, dot2), Some("inner"));
    }
}
