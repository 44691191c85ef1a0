//! The workspace's one JSON codec: a value tree, a strict parser, a
//! compact printer and the typed accessors decoders are written with.
//!
//! Everything in `crates/` and `src/` that reads or writes JSON goes
//! through this module — validity certificates and analyzer diagnostics
//! (`fgac-analyze`), the lint report (`fgac-lint`), the bench bins'
//! baselines and reports (`fgac-bench`), and `fgacbench` through the
//! `fgac_analyze::Json` re-export. Each of those owns only the mapping
//! between its own types and [`Json`]; tokenizing, escaping and number
//! handling live here once.
//!
//! Numbers: integers are wired as `i64`, with a dedicated [`Json::UInt`]
//! for values above `i64::MAX` so the unsigned certificate fields
//! (`policy_epoch`, `probe_rows`) survive the trip at full range.
//! Doubles keep Rust's `{:?}` rendering, which also emits the
//! non-finite tokens `NaN`, `inf` and `-inf` — the parser accepts those
//! three as an extension so every in-memory double survives too.
//!
//! Strictness: the parser takes exactly one value with nothing but
//! whitespace after it, and nesting is bounded by [`MAX_DEPTH`]. What a
//! *format* tolerates is the format's decision: a decoder that must
//! refuse unknown or duplicate keys (a corrupted key would otherwise
//! silently revert its field to the default) says so with
//! [`Json::check_keys`]; one that evolves additively just looks its
//! keys up with [`Json::field`] and ignores the rest.

use crate::{Error, Result};
use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. Certificates
/// nest two levels per expression level under a fixed six-level
/// envelope, and the SQL parser caps expressions at 128 levels, so no
/// document this workspace writes comes near; an adversarial `[[[[…`
/// gets an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 512;

/// A JSON value. Object keys keep insertion order (the printers emit
/// fixed key orders, and order is irrelevant to the readers).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    /// Non-negative integer above `i64::MAX`. Losing the high bit of a
    /// policy epoch would let a stale epoch alias a live one.
    UInt(u64),
    Double(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn usize(n: usize) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// `Int` when it fits, `UInt` above `i64::MAX` — the form
    /// [`Json::parse`] gives the same digits back in.
    pub fn u64(n: u64) -> Json {
        match i64::try_from(n) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::UInt(n),
        }
    }

    /// An object with the given fields, in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact rendering, keys in stored order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Double(d) => {
                let _ = write!(out, "{d:?}");
            }
            Json::Str(s) => write_json_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Strict parse: exactly one value, nothing but whitespace after it.
    pub fn parse(input: &str) -> Result<Json> {
        let mut p = Parser {
            chars: input.chars().peekable(),
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.chars.peek().is_some() {
            return Err(parse_err("trailing content after JSON value"));
        }
        Ok(v)
    }

    /// The first field named `key`, when `self` is an object that has one.
    pub fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// [`Json::field`] for a key the format requires.
    pub fn required(&self, what: &str, key: &str) -> Result<&Json> {
        self.field(key)
            .ok_or_else(|| parse_err(format!("{what} missing {key}")))
    }

    pub fn as_str(&self, what: &str) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(parse_err(format!("{what}: expected string"))),
        }
    }

    pub fn as_bool(&self, what: &str) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(parse_err(format!("{what}: expected bool"))),
        }
    }

    pub fn as_usize(&self, what: &str) -> Result<usize> {
        match self {
            Json::Int(i) => {
                usize::try_from(*i).map_err(|_| parse_err(format!("{what}: negative index")))
            }
            _ => Err(parse_err(format!("{what}: expected integer"))),
        }
    }

    pub fn as_u64(&self, what: &str) -> Result<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).map_err(|_| parse_err(format!("{what}: negative"))),
            Json::UInt(u) => Ok(*u),
            _ => Err(parse_err(format!("{what}: expected integer"))),
        }
    }

    /// Any of the three number variants, as a double.
    pub fn as_f64(&self, what: &str) -> Result<f64> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::UInt(u) => Ok(*u as f64),
            Json::Double(d) => Ok(*d),
            _ => Err(parse_err(format!("{what}: expected number"))),
        }
    }

    pub fn as_arr(&self, what: &str) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(parse_err(format!("{what}: expected array"))),
        }
    }

    /// Rejects anything but an object whose keys are all in `allowed`
    /// and all distinct. Unknown keys must be fatal to a checker's wire
    /// format: a one-byte corruption of a key name would otherwise
    /// silently reset that field to its default and still verify.
    pub fn check_keys(&self, what: &str, allowed: &[&str]) -> Result<()> {
        let Json::Obj(fields) = self else {
            return Err(parse_err(format!("{what}: expected object")));
        };
        for (i, (k, _)) in fields.iter().enumerate() {
            if !allowed.contains(&k.as_str()) {
                return Err(parse_err(format!("{what}: unknown key {k:?}")));
            }
            if fields[..i].iter().any(|(prev, _)| prev == k) {
                return Err(parse_err(format!("{what}: duplicate key {k:?}")));
            }
        }
        Ok(())
    }
}

fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn parse_err(msg: impl Into<String>) -> Error {
    Error::Parse(format!("JSON: {}", msg.into()))
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    /// Open arrays/objects around the value being parsed.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> Result<()> {
        match self.chars.next() {
            Some(c) if c == want => Ok(()),
            other => Err(parse_err(format!("expected '{want}', found {other:?}"))),
        }
    }

    fn keyword(&mut self, rest: &str, out: Json) -> Result<Json> {
        self.chars.next();
        for want in rest.chars() {
            self.eat(want)?;
        }
        Ok(out)
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.chars.peek().copied() {
            Some('n') => self.keyword("ull", Json::Null),
            Some('t') => self.keyword("rue", Json::Bool(true)),
            Some('f') => self.keyword("alse", Json::Bool(false)),
            Some('N') => self.keyword("aN", Json::Double(f64::NAN)),
            Some('i') => self.keyword("nf", Json::Double(f64::INFINITY)),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('[') => {
                let mut items = Vec::new();
                self.sequence(']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some('{') => {
                let mut fields = Vec::new();
                self.sequence('}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(parse_err(format!("unexpected input {other:?}"))),
        }
    }

    /// The body of an array or object — `open (item (, item)*)? close`
    /// — one nesting level down, refusing past [`MAX_DEPTH`].
    fn sequence(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return Err(parse_err(format!("nesting exceeds {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.chars.next();
        self.skip_ws();
        if self.chars.peek() == Some(&close) {
            self.chars.next();
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.chars.next() {
                    Some(',') => continue,
                    Some(c) if c == close => break,
                    other => {
                        return Err(parse_err(format!(
                            "expected ',' or '{close}', found {other:?}"
                        )))
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn number(&mut self) -> Result<Json> {
        let mut text = String::new();
        let negative = self.chars.peek() == Some(&'-');
        if negative {
            text.push('-');
            self.chars.next();
            // `-inf` is the `{:?}` rendering of negative infinity.
            if self.chars.peek() == Some(&'i') {
                return self.keyword("nf", Json::Double(f64::NEG_INFINITY));
            }
        }
        let mut is_double = false;
        while let Some(&c) = self.chars.peek() {
            match c {
                '0'..='9' => text.push(c),
                '.' | 'e' | 'E' | '+' | '-' => {
                    is_double = true;
                    text.push(c);
                }
                _ => break,
            }
            self.chars.next();
        }
        if is_double {
            text.parse::<f64>()
                .map(Json::Double)
                .map_err(|_| parse_err(format!("bad number {text:?}")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Json::Int(i))
        } else if !negative {
            // i64 overflowed; the unsigned wire fields reach up here.
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| parse_err(format!("integer out of range: {text:?}")))
        } else {
            Err(parse_err(format!("integer out of range: {text:?}")))
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{0008}'),
                    Some('f') => out.push('\u{000c}'),
                    Some('u') => {
                        let mut v = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| parse_err("bad \\u escape"))?;
                            v = v * 16 + d;
                        }
                        out.push(char::from_u32(v).ok_or_else(|| parse_err("bad \\u escape"))?);
                    }
                    other => return Err(parse_err(format!("bad escape {other:?}"))),
                },
                Some(c) => out.push(c),
                None => return Err(parse_err("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Escaper-hostile suffixes: quotes, backslashes, control characters,
    /// JSON structure characters, multi-byte unicode, keyword lookalikes.
    const SPECIALS: &[&str] = &[
        "",
        "\"quoted\"",
        "back\\slash",
        "new\nline",
        "tab\there",
        "car\rriage",
        "\u{1}\u{8}\u{c}\u{7f}",
        "π—𝄞",
        "{}[]:,",
        "null",
        "-3.5e2",
        "inf",
    ];

    fn wire_string() -> impl Strategy<Value = String> {
        (0..SPECIALS.len(), "[a-z]{0,6}").prop_map(|(i, base)| format!("{base}{}", SPECIALS[i]))
    }

    /// Values in the form the parser produces: `UInt` only above
    /// `i64::MAX`, no NaN (not equal to itself; pinned separately).
    fn json() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<i64>().prop_map(Json::Int),
            any::<u64>().prop_map(Json::u64),
            any::<i64>().prop_map(|n| Json::Double(n as f64 / 1024.0)),
            prop_oneof![
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(-0.0),
                Just(f64::MAX),
                Just(f64::MIN_POSITIVE),
                Just(1e300),
            ]
            .prop_map(Json::Double),
            wire_string().prop_map(Json::Str),
        ];
        leaf.prop_recursive(4, 32, 4, |inner| {
            prop_oneof![
                vec(inner.clone(), 0..4).prop_map(Json::Arr),
                vec((wire_string(), inner), 0..4).prop_map(Json::Obj),
            ]
        })
    }

    proptest! {
        #[test]
        fn parse_inverts_render(v in json()) {
            let text = v.render();
            let back = Json::parse(&text)
                .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{text}"));
            prop_assert_eq!(back, v);
        }

        #[test]
        fn printing_is_a_fixpoint(v in json()) {
            let text = v.render();
            let back = Json::parse(&text)
                .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
            prop_assert_eq!(back.render(), text);
        }

        /// Whitespace between tokens is the only thing the parser skips.
        #[test]
        fn inter_token_whitespace_is_ignored(v in json()) {
            let spaced = Json::Arr(vec![v.clone(), Json::Obj(vec![("k".into(), v.clone())])]);
            let text = format!(" \n[ {} ,\t{{ \"k\" : {} }} ]\r\n", v.render(), v.render());
            prop_assert_eq!(Json::parse(&text).expect("spaced document parses"), spaced);
        }
    }

    /// Every single-byte substitution in a rendered document either
    /// errors or parses to a value that renders and re-parses to itself
    /// — never a panic, never a value the printer cannot carry.
    #[test]
    fn single_byte_corruption_errors_or_reparses() {
        let doc = Json::obj([
            (
                "s",
                Json::str("quote \" slash \\ nl \n ctrl \u{1} uni \u{263a}"),
            ),
            (
                "n",
                Json::Arr(vec![
                    Json::Int(-42),
                    Json::u64(u64::MAX),
                    Json::Double(1.5e-7),
                ]),
            ),
            (
                "x",
                Json::Arr(vec![
                    Json::Double(f64::NEG_INFINITY),
                    Json::Double(f64::NAN),
                ]),
            ),
            (
                "o",
                Json::obj([
                    ("t", Json::Bool(true)),
                    ("f", Json::Bool(false)),
                    ("z", Json::Null),
                ]),
            ),
            ("e", Json::Arr(vec![Json::Arr(vec![]), Json::Obj(vec![])])),
        ])
        .render();
        let mut parsed = 0usize;
        for i in 0..doc.len() {
            for b in 0..=u8::MAX {
                let mut corrupted = doc.clone().into_bytes();
                if corrupted[i] == b {
                    continue;
                }
                corrupted[i] = b;
                let Ok(s) = String::from_utf8(corrupted) else {
                    continue;
                };
                if let Ok(v) = Json::parse(&s) {
                    parsed += 1;
                    let text = v.render();
                    let again = Json::parse(&text)
                        .unwrap_or_else(|e| panic!("re-parse of {text:?} failed: {e}"));
                    assert_eq!(again.render(), text, "byte {i} -> {b:#04x}");
                }
            }
        }
        assert!(
            parsed > 0,
            "some corruptions (digits, letters in strings) must still parse"
        );
    }

    #[test]
    fn integers_keep_the_full_u64_range() {
        for (n, want) in [
            (0, Json::Int(0)),
            (i64::MAX as u64, Json::Int(i64::MAX)),
            (i64::MAX as u64 + 1, Json::UInt(i64::MAX as u64 + 1)),
            (u64::MAX, Json::UInt(u64::MAX)),
        ] {
            assert_eq!(Json::u64(n), want);
            let back = Json::parse(&want.render()).expect("parses");
            assert_eq!(back, want);
            assert_eq!(back.as_u64("n").expect("unsigned"), n);
        }
        assert_eq!(
            Json::parse("-9223372036854775808").expect("i64::MIN"),
            Json::Int(i64::MIN)
        );
        assert!(Json::Int(-1).as_u64("n").is_err());
        assert!(Json::Int(-1).as_usize("n").is_err());
        assert!(Json::UInt(u64::MAX).as_usize("n").is_err());
        assert_eq!(
            Json::UInt(u64::MAX).as_f64("n").expect("number"),
            u64::MAX as f64
        );
    }

    #[test]
    fn nonfinite_doubles_round_trip() {
        for (d, text) in [
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (-0.0, "-0.0"),
        ] {
            assert_eq!(Json::Double(d).render(), text);
            assert_eq!(Json::parse(text).expect("parses"), Json::Double(d));
        }
        assert_eq!(Json::Double(f64::NAN).render(), "NaN");
        assert!(matches!(Json::parse("NaN"), Ok(Json::Double(d)) if d.is_nan()));
    }

    #[test]
    fn string_escapes_decode() {
        let j = Json::str("quote \" slash \\ nl \n cr \r tab \t ctrl \u{1} uni \u{263a}");
        assert_eq!(
            j.render(),
            "\"quote \\\" slash \\\\ nl \\n cr \\r tab \\t ctrl \\u0001 uni \u{263a}\""
        );
        assert_eq!(Json::parse(&j.render()).expect("parses"), j);
        // Escapes the printer never emits still decode.
        assert_eq!(
            Json::parse(r#""\u263a\u0041\/\b\f""#).expect("parses"),
            Json::str("\u{263a}A/\u{8}\u{c}")
        );
    }

    #[test]
    fn check_keys_rejects_unknown_and_duplicate_keys() {
        let ok = Json::parse(r#"{"a":1,"b":2}"#).expect("parses");
        assert!(ok.check_keys("t", &["a", "b", "c"]).is_ok());
        assert!(ok.check_keys("t", &["a"]).is_err(), "unknown key b");
        let dup = Json::parse(r#"{"a":1,"a":2}"#).expect("duplicates are the decoder's call");
        assert!(dup.check_keys("t", &["a"]).is_err(), "duplicate key a");
        assert_eq!(dup.field("a"), Some(&Json::Int(1)));
        assert!(
            Json::Arr(vec![]).check_keys("t", &[]).is_err(),
            "not an object"
        );
        assert!(ok.required("t", "a").is_ok());
        assert!(ok.required("t", "z").is_err());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            " ",
            "{",
            "[",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{a:1}",
            "nonsense",
            "nul",
            "tru",
            "-",
            "-in",
            "1e",
            "1.2.3",
            "18446744073709551616", // > u64::MAX
            "-9223372036854775809", // < i64::MIN
            "{} trailing",
            "[] []",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"bad \\u12\"",
            "\"surrogate \\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "input {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        // The shown crash: a million unclosed brackets used to overflow
        // the stack; objects recurse through the same guard.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(100_000)).is_err());
        // Depth, not length: a long flat array is fine.
        assert!(Json::parse(&format!("[{}0]", "0,".repeat(100_000))).is_ok());
    }
}
