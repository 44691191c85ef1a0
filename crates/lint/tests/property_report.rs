//! Property tests for the lint report wire format, mirroring
//! `tests/property_certificate.rs`: arbitrary reports — escaper-hostile
//! strings included — must survive `Report::to_json` →
//! `report_from_json` losslessly, and pass codes from a future build
//! must degrade to `Unrecognized`/`Unknown` instead of rejecting the
//! document.

use fgac_lint::report::{
    report_from_json, Finding, PassCode, PassSummary, Report, Severity, ALL_CODES,
};
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
    "\u{1}\u{7f}",
    "π—𝄞",
    "{}[]:,",
    "null",
    "-3.5e2",
];

fn wire_string() -> impl Strategy<Value = String> {
    (0..SPECIALS.len(), "[a-z]{0,6}").prop_map(|(i, base)| format!("{base}{}", SPECIALS[i]))
}

fn pass_code() -> impl Strategy<Value = PassCode> {
    (0..ALL_CODES.len()).prop_map(|i| ALL_CODES[i])
}

fn severity() -> impl Strategy<Value = Severity> {
    prop_oneof![Just(Severity::Error), Just(Severity::Warning)]
}

fn finding() -> impl Strategy<Value = Finding> {
    (pass_code(), severity(), wire_string(), 0usize..100_000, wire_string()).prop_map(
        |(code, severity, file, line, message)| Finding {
            code,
            severity,
            file,
            line,
            message,
        },
    )
}

fn pass_summary() -> impl Strategy<Value = PassSummary> {
    (wire_string(), wire_string(), 0usize..1000, 0u64..100_000).prop_map(
        |(code, name, findings, ms)| PassSummary {
            code,
            name,
            findings,
            ms: u128::from(ms),
        },
    )
}

fn report() -> impl Strategy<Value = Report> {
    (
        0u64..1_000_000,
        0usize..10_000,
        vec(pass_summary(), 0..4),
        vec(finding(), 0..6),
    )
        .prop_map(|(elapsed_ms, files_scanned, passes, findings)| Report {
            elapsed_ms: u128::from(elapsed_ms),
            files_scanned,
            passes,
            findings,
        })
}

proptest! {
    #[test]
    fn report_json_round_trips(r in report()) {
        let back = report_from_json(&r.to_json());
        prop_assert_eq!(back, Some(r));
    }

    /// A report whose findings carry pass codes this build has never
    /// heard of still parses; the foreign findings come back as
    /// `Unrecognized` with `Unknown` severity and everything else is
    /// untouched.
    #[test]
    fn unknown_codes_from_the_future_degrade_gracefully(
        r in report(),
        tail in "[A-Z][0-9]{3}",
        file in wire_string(),
        message in wire_string(),
        line in 0usize..100_000,
    ) {
        prop_assume!(PassCode::from_str_code(&tail).is_none());
        let json = r.to_json();
        // Splice a future finding in by hand: the writer is a newer
        // build, so we cannot construct it through this build's API.
        let foreign = format!(
            "{{\"code\":\"{tail}\",\"name\":\"FuturePass\",\"severity\":\"critical\",\
             \"file\":{},\"line\":\"{line}\",\"message\":{}}}",
            json_escape(&file),
            json_escape(&message),
        );
        let spliced = if r.findings.is_empty() {
            json.replace("\"findings\":[]", &format!("\"findings\":[{foreign}]"))
        } else {
            json.replacen("\"findings\":[\n", &format!("\"findings\":[\n    {foreign},\n"), 1)
        };
        let back = report_from_json(&spliced).expect("forward-compat parse");
        let mut expected = r.findings.clone();
        expected.insert(
            0,
            Finding {
                code: PassCode::Unrecognized,
                severity: Severity::Unknown,
                file,
                line,
                message,
            },
        );
        prop_assert_eq!(back.findings, expected);
    }
}

/// Standalone escaper matching `report.rs`'s private `json_str`, for
/// splicing hand-built documents.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
