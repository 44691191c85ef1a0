//! Lint findings and the JSON report wire form.
//!
//! The wire shape follows `crates/analyze/src/diag.rs`: objects with
//! string values in a fixed key order, written and read through the
//! workspace codec ([`fgac_types::json`]) so CI and tests can prove
//! round-trips, and forward compatibility at the code level — a pass
//! code this build does not know parses to [`PassCode::Unrecognized`]
//! with [`Severity::Unknown`] instead of rejecting the document, so an
//! older reader still loads a newer linter's report.

use fgac_types::Json;
use std::fmt;

/// Stable pass codes. Append-only: a code, once published, never
/// changes meaning — CI and archived reports key on them. A retired
/// code is never reused, and parses as [`PassCode::Unrecognized`]:
/// `L001` `MutationOutsideWriter` (writer-only mutation of swept policy
/// state) is enforced by the type system; `L002` `RelaxedSyncDecision`
/// by `fgac_types::Counter` and clippy's `disallowed_types`; `L004`
/// `ErrorPathMustDeny` by the `fgac_core::Admitted` token; `L005`
/// `UncheckedWireArithmetic` and `L006` `PanicSite` by clippy lints
/// denied at crate roots (DESIGN.md §4l).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PassCode {
    /// `L003`: the static lock-acquisition graph has a cycle, or a
    /// function upgrades a `read()` to a `write()` on the same
    /// `RwLock` while the read guard may still be live.
    LockOrderInversion,
    /// A pass code this build does not know. Never emitted by the
    /// analyzer; produced only by the wire parser so a newer writer's
    /// report still loads. Always [`Severity::Unknown`].
    Unrecognized,
}

pub const ALL_CODES: &[PassCode] = &[PassCode::LockOrderInversion];

impl PassCode {
    pub fn as_str(&self) -> &'static str {
        match self {
            PassCode::LockOrderInversion => "L003",
            PassCode::Unrecognized => "L???",
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            PassCode::LockOrderInversion => "LockOrderInversion",
            PassCode::Unrecognized => "Unrecognized",
        }
    }

    pub fn from_str_code(s: &str) -> Option<PassCode> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for PassCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Finding severity. Every L-code defaults to `Error` — these passes
/// check invariants, not style. `Unknown` exists only for
/// forward-compat parsing, mirroring `fgac_analyze::Severity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warning,
    Unknown,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Unknown => "unknown",
        }
    }

    pub fn from_str_sev(s: &str) -> Option<Severity> {
        Some(match s {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            "unknown" => Severity::Unknown,
            _ => return None,
        })
    }
}

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub code: PassCode,
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line in the original source.
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(
        code: PassCode,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            code,
            severity: Severity::Error,
            file: file.into(),
            line,
            message: message.into(),
        }
    }

    /// One JSON object, keys in fixed order, string values only (the
    /// line number is carried as a decimal string, like the header
    /// counts).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("code", Json::str(self.code.as_str())),
            ("name", Json::str(self.code.name())),
            ("severity", Json::str(self.severity.as_str())),
            ("file", Json::str(self.file.clone())),
            ("line", Json::str(self.line.to_string())),
            ("message", Json::str(self.message.clone())),
        ])
        .render()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.file,
            self.line,
            self.severity.as_str(),
            self.code,
            self.message
        )
    }
}

/// Per-pass tallies for the report header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassSummary {
    pub code: String,
    pub name: String,
    pub findings: usize,
    pub ms: u128,
}

/// The whole lint run: header + findings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    pub elapsed_ms: u128,
    pub files_scanned: usize,
    pub passes: Vec<PassSummary>,
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The machine form CI consumes and archives (`lint-report.json`):
    /// one header field per line, one finding per line, every value a
    /// compact codec rendering.
    pub fn to_json(&self) -> String {
        let passes = Json::Arr(
            self.passes
                .iter()
                .map(|p| {
                    Json::obj([
                        ("code", Json::str(p.code.clone())),
                        ("name", Json::str(p.name.clone())),
                        ("findings", Json::str(p.findings.to_string())),
                        ("ms", Json::str(p.ms.to_string())),
                    ])
                })
                .collect(),
        );
        let header = [
            ("tool", Json::str("fgac-lint")),
            ("schema", Json::str("1")),
            ("elapsed_ms", Json::str(self.elapsed_ms.to_string())),
            ("files_scanned", Json::str(self.files_scanned.to_string())),
            ("passes", passes),
        ];
        let mut out = String::from("{\n");
        for (key, value) in header {
            out.push_str(&format!("  \"{key}\":{},\n", value.render()));
        }
        out.push_str("  \"findings\":[");
        if !self.findings.is_empty() {
            let body: Vec<String> = self
                .findings
                .iter()
                .map(|d| format!("\n    {}", d.to_json()))
                .collect();
            out.push_str(&body.join(","));
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

/// Parses a report previously produced by [`Report::to_json`]. Strict
/// on structure (`findings` must be present; every key this build reads
/// must hold the shape it wrote), lenient on unknown keys (additive
/// evolution) and unknown pass codes (forward compatibility).
pub fn report_from_json(input: &str) -> Option<Report> {
    let doc = Json::parse(input).ok()?;
    let mut report = Report::default();
    if let Some(v) = doc.field("elapsed_ms") {
        report.elapsed_ms = count(v)?;
    }
    if let Some(v) = doc.field("files_scanned") {
        report.files_scanned = count(v)?;
    }
    for p in array(doc.field("passes"))? {
        report.passes.push(PassSummary {
            code: text(p, "code")?.into(),
            name: text(p, "name")?.into(),
            findings: count(p.field("findings")?)?,
            ms: count(p.field("ms")?)?,
        });
    }
    for f in doc.field("findings")?.as_arr("findings").ok()? {
        report.findings.push(finding_from_json(f)?);
    }
    Some(report)
}

/// The elements of an optional array field: empty when absent, `None`
/// when present but not an array.
fn array(field: Option<&Json>) -> Option<&[Json]> {
    field.map_or(Some(&[]), |v| v.as_arr("array").ok())
}

fn text<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    obj.field(key)?.as_str(key).ok()
}

/// A count carried as a decimal string.
fn count<T: std::str::FromStr>(v: &Json) -> Option<T> {
    v.as_str("count").ok()?.parse().ok()
}

fn finding_from_json(obj: &Json) -> Option<Finding> {
    let code = PassCode::from_str_code(text(obj, "code")?).unwrap_or(PassCode::Unrecognized);
    // An unrecognized finding is neither clean nor an error: whatever
    // severity the (newer) writer attached, this build cannot act on it.
    let severity = if code == PassCode::Unrecognized {
        Severity::Unknown
    } else {
        Severity::from_str_sev(text(obj, "severity")?)?
    };
    Some(Finding {
        code,
        severity,
        file: text(obj, "file")?.into(),
        line: count(obj.field("line")?)?,
        message: text(obj, "message")?.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            elapsed_ms: 42,
            files_scanned: 87,
            passes: vec![PassSummary {
                code: "L003".into(),
                name: "LockOrderInversion".into(),
                findings: 1,
                ms: 1,
            }],
            findings: vec![Finding::new(
                PassCode::LockOrderInversion,
                "crates/core/src/engine.rs",
                171,
                "weird \"quotes\"\nand\tlines",
            )],
        }
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(PassCode::LockOrderInversion.as_str(), "L003");
        assert_eq!(
            PassCode::from_str_code("L003"),
            Some(PassCode::LockOrderInversion)
        );
        assert_eq!(ALL_CODES.len(), 1);
        // The forward-compat sentinel is parser-only, and a retired
        // code is not a live one.
        assert_eq!(PassCode::from_str_code("L???"), None);
        for retired in ["L001", "L002", "L004", "L005", "L006"] {
            assert_eq!(PassCode::from_str_code(retired), None);
        }
    }

    #[test]
    fn report_round_trips_including_escapes() {
        let r = sample();
        let back = report_from_json(&r.to_json()).expect("round-trip parses");
        assert_eq!(r, back);
        let empty = Report::default();
        assert_eq!(report_from_json(&empty.to_json()), Some(empty));
    }

    #[test]
    fn unknown_pass_codes_parse_to_unrecognized_unknown() {
        let json = r#"{
  "tool":"fgac-lint","schema":"1","elapsed_ms":"1","files_scanned":"2",
  "passes":[],
  "findings":[
    {"code":"L099","name":"FuturePass","severity":"critical","file":"a.rs","line":"7","message":"from the future"},
    {"code":"L003","name":"LockOrderInversion","severity":"error","file":"b.rs","line":"9","message":"known"},
    {"code":"L001","name":"MutationOutsideWriter","severity":"error","file":"c.rs","line":"3","message":"retired"},
    {"code":"L002","name":"RelaxedSyncDecision","severity":"error","file":"f.rs","line":"6","message":"retired"},
    {"code":"L005","name":"Retired","severity":"error","file":"d.rs","line":"4","message":"retired"},
    {"code":"L006","name":"Retired","severity":"error","file":"e.rs","line":"5","message":"retired"}
  ]
}"#;
        let r = report_from_json(json).expect("forward-compat parse");
        assert_eq!(r.findings.len(), 6);
        assert_eq!(r.findings[0].code, PassCode::Unrecognized);
        assert_eq!(r.findings[0].severity, Severity::Unknown);
        assert_eq!(r.findings[1].code, PassCode::LockOrderInversion);
        assert_eq!(r.findings[1].severity, Severity::Error);
        // A retired code reads like one from the future.
        for f in &r.findings[2..] {
            assert_eq!(f.code, PassCode::Unrecognized, "{}", f.file);
            assert_eq!(f.severity, Severity::Unknown, "{}", f.file);
        }
        // Structural strictness is unchanged: a known code with an
        // unknown severity string is still rejected.
        let bad = json.replace("\"error\"", "\"critical\"");
        assert_eq!(report_from_json(&bad), None);
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        for bad in ["", "{", "nonsense", "{\"findings\":[{]}", "{\"elapsed_ms\":\"x\"}"] {
            assert!(report_from_json(bad).is_none(), "input {bad:?}");
        }
    }
}
