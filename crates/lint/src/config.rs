//! `lint.toml`: scope, per-pass configuration, allowlists, and the
//! `Ordering::Relaxed` audit ledger.
//!
//! The parser is a hand-rolled TOML subset (the container has no toml
//! crate): `[section]` / `[[array-of-tables]]` headers and `key = value`
//! pairs where a value is a quoted string, an integer, a bool, or an
//! array of quoted strings. That covers the whole configuration
//! language on purpose — a config format nobody can parse by eye is how
//! allowlists rot.
//!
//! Policy, enforced here: **scoping is opt-out**. Discovery walks every
//! `.rs` file under the configured roots; exclusions are explicit, and
//! a per-pass `include` prefix overrides an `exclude` prefix, so
//! "exclude `crates/bench` but keep `crates/bench/src/lib.rs`" is
//! expressible. A new crate is linted the moment it exists. Every
//! `[[allow]]` and `[[relaxed]]` entry must carry a non-empty `reason`.

use std::collections::BTreeMap;

/// Workspace discovery scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// Workspace-relative directories to walk.
    pub roots: Vec<String>,
    /// Directory *names* skipped anywhere in the walk.
    pub exclude_dirs: Vec<String>,
    /// Workspace-relative file paths (or path prefixes) skipped.
    pub exclude_files: Vec<String>,
}

impl Default for Scope {
    fn default() -> Self {
        Scope {
            roots: vec!["crates".into(), "src".into()],
            exclude_dirs: vec![
                "target".into(),
                "fixtures".into(),
                "vendor".into(),
                "tests".into(),
                "benches".into(),
            ],
            exclude_files: Vec::new(),
        }
    }
}

/// Per-pass switches. A pass absent from `lint.toml` runs everywhere —
/// opting out is the thing that must be written down.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassConfig {
    pub disabled: bool,
    /// Path prefixes this pass is restricted to (empty = everywhere).
    pub include: Vec<String>,
    /// Path prefixes this pass skips. `include` wins over `exclude`.
    pub exclude: Vec<String>,
}

/// One allowlisted finding: pass + file + message substring + why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub pass: String,
    pub file: String,
    /// Substring of the finding message; empty matches any finding of
    /// that pass in that file.
    pub contains: String,
    pub reason: String,
}

/// One audited file in the `Ordering::Relaxed` ledger. L002 enforces
/// the ledger both ways: an unaudited file with `Relaxed` sites is a
/// finding, and a stale `sites` count is a finding (so the ledger
/// cannot drift from the code it describes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaxedAudit {
    pub file: String,
    pub sites: usize,
    pub reason: String,
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Config {
    pub scope: Scope,
    pub passes: BTreeMap<String, PassConfig>,
    pub allows: Vec<Allow>,
    pub relaxed: Vec<RelaxedAudit>,
}

impl Config {
    /// Parses `lint.toml` text. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Config, String> {
        let doc = parse_toml_subset(text)?;
        let mut cfg = Config::default();
        for table in doc {
            match table.header.as_str() {
                "scope" => {
                    for (k, v, ln) in table.entries {
                        match k.as_str() {
                            "roots" => cfg.scope.roots = v.into_list(ln)?,
                            "exclude_dirs" => cfg.scope.exclude_dirs = v.into_list(ln)?,
                            "exclude_files" => cfg.scope.exclude_files = v.into_list(ln)?,
                            _ => return Err(format!("line {ln}: unknown scope key `{k}`")),
                        }
                    }
                }
                h if h.starts_with("pass.") => {
                    let code = h["pass.".len()..].to_string();
                    let pc = cfg.passes.entry(code).or_default();
                    for (k, v, ln) in table.entries {
                        match k.as_str() {
                            "disabled" => pc.disabled = v.into_bool(ln)?,
                            "include" => pc.include = v.into_list(ln)?,
                            "exclude" => pc.exclude = v.into_list(ln)?,
                            _ => return Err(format!("line {ln}: unknown pass key `{k}`")),
                        }
                    }
                }
                "allow" => {
                    let mut a = Allow {
                        pass: String::new(),
                        file: String::new(),
                        contains: String::new(),
                        reason: String::new(),
                    };
                    let mut line = 0;
                    for (k, v, ln) in table.entries {
                        line = ln;
                        match k.as_str() {
                            "pass" => a.pass = v.into_str(ln)?,
                            "file" => a.file = v.into_str(ln)?,
                            "contains" => a.contains = v.into_str(ln)?,
                            "reason" => a.reason = v.into_str(ln)?,
                            _ => return Err(format!("line {ln}: unknown allow key `{k}`")),
                        }
                    }
                    if a.pass.is_empty() || a.file.is_empty() {
                        return Err(format!("line {line}: [[allow]] needs pass and file"));
                    }
                    if a.reason.trim().is_empty() {
                        return Err(format!(
                            "line {line}: [[allow]] for {} in {} has no reason — every \
                             allowlist entry must be justified",
                            a.pass, a.file
                        ));
                    }
                    cfg.allows.push(a);
                }
                "relaxed" => {
                    let mut file = String::new();
                    let mut sites = 0usize;
                    let mut reason = String::new();
                    let mut line = 0;
                    for (k, v, ln) in table.entries {
                        line = ln;
                        match k.as_str() {
                            "file" => file = v.into_str(ln)?,
                            "sites" => sites = v.into_int(ln)? as usize,
                            "reason" => reason = v.into_str(ln)?,
                            _ => return Err(format!("line {ln}: unknown relaxed key `{k}`")),
                        }
                    }
                    if file.is_empty() || reason.trim().is_empty() {
                        return Err(format!(
                            "line {line}: [[relaxed]] needs file and a non-empty reason"
                        ));
                    }
                    cfg.relaxed.push(RelaxedAudit { file, sites, reason });
                }
                h => return Err(format!("unknown section `[{h}]`")),
            }
        }
        Ok(cfg)
    }

    /// The effective config for a pass (default when unconfigured).
    pub fn pass(&self, code: &str) -> PassConfig {
        self.passes.get(code).cloned().unwrap_or_default()
    }

    /// Whether `file` (workspace-relative, `/`-separated) is in scope
    /// for `code`. `include` overrides `exclude`.
    pub fn pass_in_scope(&self, code: &str, file: &str) -> bool {
        let pc = self.pass(code);
        if pc.include.iter().any(|p| file.starts_with(p.as_str())) {
            return true;
        }
        if !pc.include.is_empty() {
            return false;
        }
        !pc.exclude.iter().any(|p| file.starts_with(p.as_str()))
    }

    /// Index of the first `[[allow]]` entry matching a finding, if any.
    pub fn allow_index(&self, pass: &str, file: &str, message: &str) -> Option<usize> {
        self.allows.iter().position(|a| {
            a.pass == pass
                && a.file == file
                && (a.contains.is_empty() || message.contains(&a.contains))
        })
    }
}

enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    List(Vec<String>),
}

impl Value {
    fn into_str(self, ln: usize) -> Result<String, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("line {ln}: expected a string")),
        }
    }
    fn into_int(self, ln: usize) -> Result<i64, String> {
        match self {
            Value::Int(i) => Ok(i),
            _ => Err(format!("line {ln}: expected an integer")),
        }
    }
    fn into_bool(self, ln: usize) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(b),
            _ => Err(format!("line {ln}: expected true/false")),
        }
    }
    fn into_list(self, ln: usize) -> Result<Vec<String>, String> {
        match self {
            Value::List(v) => Ok(v),
            _ => Err(format!("line {ln}: expected an array of strings")),
        }
    }
}

struct Table {
    header: String,
    entries: Vec<(String, Value, usize)>,
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (idx, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

fn parse_string(s: &str, ln: usize) -> Result<String, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("line {ln}: expected a quoted string, got `{s}`"))?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(format!("line {ln}: bad escape \\{other:?}")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn parse_value(s: &str, ln: usize) -> Result<Value, String> {
    let s = s.trim();
    if s.starts_with('"') {
        return parse_string(s, ln).map(Value::Str);
    }
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = s.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let mut items = Vec::new();
        // Split on commas outside quotes.
        let mut cur = String::new();
        let mut in_str = false;
        let mut escaped = false;
        for c in inner.chars() {
            if escaped {
                cur.push(c);
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_str => {
                    cur.push(c);
                    escaped = true;
                }
                '"' => {
                    cur.push(c);
                    in_str = !in_str;
                }
                ',' if !in_str => {
                    items.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
        }
        if !cur.trim().is_empty() {
            items.push(cur);
        }
        let mut out = Vec::new();
        for item in items {
            out.push(parse_string(item.trim(), ln)?);
        }
        return Ok(Value::List(out));
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("line {ln}: cannot parse value `{s}`"))
}

/// Net `[`/`]` balance outside quoted strings — used to join
/// multi-line arrays into one logical line.
fn bracket_balance(line: &str) -> i64 {
    let mut balance = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => balance += 1,
            ']' if !in_str => balance -= 1,
            _ => {}
        }
    }
    balance
}

fn parse_toml_subset(text: &str) -> Result<Vec<Table>, String> {
    let mut tables: Vec<Table> = Vec::new();
    // Join lines while an array value is still open.
    let mut logical: Vec<(String, usize)> = Vec::new();
    let mut pending: Option<(String, usize, i64)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let ln = idx + 1;
        let stripped = strip_comment(raw).trim().to_string();
        match pending.take() {
            Some((mut buf, start, balance)) => {
                let next = balance + bracket_balance(&stripped);
                buf.push(' ');
                buf.push_str(&stripped);
                if next > 0 {
                    pending = Some((buf, start, next));
                } else {
                    logical.push((buf, start));
                }
            }
            None => {
                if stripped.is_empty() {
                    continue;
                }
                let balance = bracket_balance(&stripped);
                if stripped.contains('=') && balance > 0 {
                    pending = Some((stripped, ln, balance));
                } else {
                    logical.push((stripped, ln));
                }
            }
        }
    }
    if let Some((buf, start, _)) = pending {
        return Err(format!("line {start}: unterminated array `{buf}`"));
    }
    for (line, ln) in logical {
        let line = line.as_str();
        if let Some(h) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            tables.push(Table {
                header: h.trim().to_string(),
                entries: Vec::new(),
            });
            continue;
        }
        if let Some(h) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            tables.push(Table {
                header: h.trim().to_string(),
                entries: Vec::new(),
            });
            continue;
        }
        let eq = line
            .find('=')
            .ok_or_else(|| format!("line {ln}: expected `key = value`, got `{line}`"))?;
        let key = line[..eq].trim().to_string();
        let value = parse_value(&line[eq + 1..], ln)?;
        let table = tables
            .last_mut()
            .ok_or_else(|| format!("line {ln}: key `{key}` before any [section]"))?;
        table.entries.push((key, value, ln));
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# workspace lint configuration
[scope]
roots = ["crates", "src"]
exclude_dirs = ["target", "fixtures"]
exclude_files = ["crates/bench/src/bin/old.rs"]

[pass.L003]
include = ["crates/core", "crates/server"]

[pass.L004]
exclude = ["crates/bench"]

[[allow]]
pass = "L004"
file = "crates/core/src/lib.rs"
contains = "swallows"
reason = "the dropped error is a metrics write; the verdict is already a deny"

[[relaxed]]
file = "crates/core/src/metrics.rs"
sites = 4
reason = "monotonic stats counters, read only for reporting"
"#;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::parse(SAMPLE).expect("parses");
        assert_eq!(cfg.scope.roots, vec!["crates", "src"]);
        assert_eq!(cfg.scope.exclude_files.len(), 1);
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.relaxed[0].sites, 4);
        assert!(cfg.pass("L002") == PassConfig::default(), "absent pass = default");
    }

    #[test]
    fn include_overrides_exclude_and_restricts() {
        let cfg = Config::parse(SAMPLE).expect("parses");
        // L003 has an include list: only those prefixes are in scope.
        assert!(cfg.pass_in_scope("L003", "crates/core/src/engine.rs"));
        assert!(!cfg.pass_in_scope("L003", "crates/wal/src/log.rs"));
        // L004 has only an exclude list.
        assert!(cfg.pass_in_scope("L004", "crates/core/src/engine.rs"));
        assert!(!cfg.pass_in_scope("L004", "crates/bench/src/bin/b.rs"));
        // Unconfigured pass: everything in scope.
        assert!(cfg.pass_in_scope("L002", "crates/anything/src/new.rs"));
    }

    #[test]
    fn allow_matching_is_pass_file_and_substring() {
        let cfg = Config::parse(SAMPLE).expect("parses");
        assert_eq!(
            cfg.allow_index("L004", "crates/core/src/lib.rs", "swallows the error"),
            Some(0)
        );
        assert_eq!(cfg.allow_index("L004", "crates/core/src/lib.rs", "accept on Err"), None);
        assert_eq!(cfg.allow_index("L002", "crates/core/src/lib.rs", "swallows the error"), None);
    }

    #[test]
    fn reasons_are_mandatory() {
        let no_reason = "[[allow]]\npass = \"L004\"\nfile = \"a.rs\"\nreason = \"\"\n";
        assert!(Config::parse(no_reason).unwrap_err().contains("justified"));
        let no_relaxed_reason = "[[relaxed]]\nfile = \"a.rs\"\nsites = 2\n";
        assert!(Config::parse(no_relaxed_reason).is_err());
    }

    #[test]
    fn comments_and_errors() {
        let cfg = Config::parse("[scope]\nroots = [\"a#b\"] # trailing\n").expect("parses");
        assert_eq!(cfg.scope.roots, vec!["a#b"]);
        assert!(Config::parse("[bogus]\n").is_err());
        assert!(Config::parse("key = 1\n").unwrap_err().contains("before any"));
        assert!(Config::parse("[scope]\nroots = 3\n").is_err());
    }
}
