//! Diagnostic model: stable codes, severities, and the JSON wire form
//! consumed by CI (`fgac-analyze --json`).

use fgac_types::Json;
use std::fmt;

/// Stable diagnostic codes. Codes are append-only: a code, once
/// published, never changes meaning — CI configurations key on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// `P001`: the view's predicate is unsatisfiable — the grant can
    /// never produce a row, so either the policy is a typo or the grant
    /// is dead weight that still costs every validity check.
    UnsatisfiableViewPredicate,
    /// `P002`: the view is subsumed by another view granted to the same
    /// principal — everything it authorizes, the wider grant already
    /// authorizes.
    RedundantGrant,
    /// `P003`: a revocation had no effect because a role grant still
    /// supplies the view — the DBA believes access was removed but the
    /// principal's effective set is unchanged.
    ShadowedByRevocation,
    /// `P004`: the grant can never participate in a validity check —
    /// the view is missing from the catalog, is not an AUTHORIZATION
    /// view, or its body no longer binds (dropped table/column).
    UnusableView,
    /// `P005`: a conditional-validity (C3) probe for this view would
    /// read columns of a relation the principal holds no view over —
    /// the Section 5.4 leakage channel. The engine fails closed on it,
    /// so the view also cannot deliver its conditional grants.
    LeakyConditionalCheck,
    /// `P006`: a `$`/`$$` parameter in the view body is never
    /// constrained by a predicate, so instantiation can never pin it.
    UnboundParameter,
    /// `W001`: two views granted to the same principal contradict each
    /// other on the same relation — often intentional (disjoint
    /// partitions), sometimes a sign one predicate is mis-written.
    CrossViewContradiction,
    /// `Q001`: the query references a relation no granted view covers —
    /// no inference rule can ever derive validity, so the validator
    /// rejects before building the DAG and the checker flags any
    /// certificate claiming otherwise.
    UncoveredRelation,
    /// `Q002`: an acceptance is conditional on a remainder probe that is
    /// not itself certified valid — running it would read relations the
    /// user is not authorized over (the per-query form of `P005`).
    UnauthorizedProbe,
    /// `Q003`: the certificate references a grant that does not exist at
    /// the current policy epoch — the view was revoked, never granted,
    /// or the certificate was minted under a stale epoch.
    StaleGrantEpoch,
    /// `Q004`: a certificate derivation step failed independent
    /// re-verification — malformed premises, an ill-typed substitution,
    /// a prover obligation that does not re-prove, or a recorded block
    /// that does not match the re-derived one.
    CertificateStepUnverified,
    /// `F001`: composing granted views (joining them back together on
    /// an exposed key) reveals a column combination over one relation
    /// that no single grant exposes — transitive disclosure widening.
    TransitiveDisclosureWidening,
    /// `F002`: a constraint-visibility grant lets values of a protected
    /// relation be inferred through an inclusion dependency whose
    /// source side the principal can already read.
    ConstraintInferenceChannel,
    /// `F003`: a conditionally-valid (C3) view whose remainder probe
    /// evaluates predicates over columns the principal cannot otherwise
    /// see — each probe outcome leaks a bounded number of bits about
    /// those cells (the Section 5.4 channel, statically bounded).
    ProbeChannelExposure,
    /// `F004`: the flow delta of a *proposed* grant — which cells of the
    /// disclosure lattice it would newly make reachable, and which new
    /// flow findings it would introduce. Informational by construction.
    GrantFlowDiff,
    /// A finding code this build does not know. Never emitted by the
    /// analyzer; produced only by the wire parser so a newer writer's
    /// output still loads (forward compatibility). Always carries
    /// [`Severity::Unknown`]: an unrecognized finding is neither a
    /// clean bill nor an error.
    UnrecognizedFinding,
}

impl Code {
    /// The stable short code (`P001` ... `W001`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::UnsatisfiableViewPredicate => "P001",
            Code::RedundantGrant => "P002",
            Code::ShadowedByRevocation => "P003",
            Code::UnusableView => "P004",
            Code::LeakyConditionalCheck => "P005",
            Code::UnboundParameter => "P006",
            Code::CrossViewContradiction => "W001",
            Code::UncoveredRelation => "Q001",
            Code::UnauthorizedProbe => "Q002",
            Code::StaleGrantEpoch => "Q003",
            Code::CertificateStepUnverified => "Q004",
            Code::TransitiveDisclosureWidening => "F001",
            Code::ConstraintInferenceChannel => "F002",
            Code::ProbeChannelExposure => "F003",
            Code::GrantFlowDiff => "F004",
            Code::UnrecognizedFinding => "F???",
        }
    }

    /// Human-readable name of the code.
    pub fn name(&self) -> &'static str {
        match self {
            Code::UnsatisfiableViewPredicate => "UnsatisfiableViewPredicate",
            Code::RedundantGrant => "RedundantGrant",
            Code::ShadowedByRevocation => "ShadowedByRevocation",
            Code::UnusableView => "UnusableView",
            Code::LeakyConditionalCheck => "LeakyConditionalCheck",
            Code::UnboundParameter => "UnboundParameter",
            Code::CrossViewContradiction => "CrossViewContradiction",
            Code::UncoveredRelation => "UncoveredRelation",
            Code::UnauthorizedProbe => "UnauthorizedProbe",
            Code::StaleGrantEpoch => "StaleGrantEpoch",
            Code::CertificateStepUnverified => "CertificateStepUnverified",
            Code::TransitiveDisclosureWidening => "TransitiveDisclosureWidening",
            Code::ConstraintInferenceChannel => "ConstraintInferenceChannel",
            Code::ProbeChannelExposure => "ProbeChannelExposure",
            Code::GrantFlowDiff => "GrantFlowDiff",
            Code::UnrecognizedFinding => "UnrecognizedFinding",
        }
    }

    /// Parses a short code back into the enum.
    pub fn from_str_code(s: &str) -> Option<Code> {
        Some(match s {
            "P001" => Code::UnsatisfiableViewPredicate,
            "P002" => Code::RedundantGrant,
            "P003" => Code::ShadowedByRevocation,
            "P004" => Code::UnusableView,
            "P005" => Code::LeakyConditionalCheck,
            "P006" => Code::UnboundParameter,
            "W001" => Code::CrossViewContradiction,
            "Q001" => Code::UncoveredRelation,
            "Q002" => Code::UnauthorizedProbe,
            "Q003" => Code::StaleGrantEpoch,
            "Q004" => Code::CertificateStepUnverified,
            "F001" => Code::TransitiveDisclosureWidening,
            "F002" => Code::ConstraintInferenceChannel,
            "F003" => Code::ProbeChannelExposure,
            "F004" => Code::GrantFlowDiff,
            _ => return None,
        })
    }

    /// The severity this code carries when its analysis *completes*.
    /// (An exhausted analysis reports [`Severity::Unknown`] instead.)
    pub fn default_severity(&self) -> Severity {
        match self {
            Code::UnsatisfiableViewPredicate
            | Code::ShadowedByRevocation
            | Code::UnusableView
            | Code::LeakyConditionalCheck
            | Code::UncoveredRelation
            | Code::UnauthorizedProbe
            | Code::StaleGrantEpoch
            | Code::CertificateStepUnverified
            | Code::TransitiveDisclosureWidening
            | Code::ConstraintInferenceChannel => Severity::Error,
            Code::RedundantGrant
            | Code::UnboundParameter
            | Code::CrossViewContradiction
            | Code::ProbeChannelExposure
            | Code::GrantFlowDiff => Severity::Warning,
            Code::UnrecognizedFinding => Severity::Unknown,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Diagnostic severity. `Unknown` is the fail-open level: the analysis
/// ran out of budget before it could prove or refute the defect, so
/// neither a clean bill nor a finding is claimed.
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

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One finding of the policy analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// The principal whose effective grant set the finding concerns
    /// (empty for catalog-level findings).
    pub principal: String,
    /// The object — usually a view name — the finding is anchored to.
    pub object: String,
    pub message: String,
}

impl Diagnostic {
    /// A finding with the code's default severity.
    pub fn new(
        code: Code,
        principal: impl Into<String>,
        object: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            principal: principal.into(),
            object: object.into(),
            message: message.into(),
        }
    }

    /// The fail-open form: the analysis for `code` could not finish
    /// within its budget, so the result is unknown rather than clean.
    pub fn unknown(
        code: Code,
        principal: impl Into<String>,
        object: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Unknown,
            ..Diagnostic::new(code, principal, object, message)
        }
    }

    /// One JSON object, keys in fixed order.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("code", Json::str(self.code.as_str())),
            ("name", Json::str(self.code.name())),
            ("severity", Json::str(self.severity.as_str())),
            ("principal", Json::str(self.principal.clone())),
            ("object", Json::str(self.object.clone())),
            ("message", Json::str(self.message.clone())),
        ])
        .render()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] ", self.severity, self.code)?;
        if !self.principal.is_empty() {
            write!(f, "principal '{}': ", self.principal)?;
        }
        if !self.object.is_empty() {
            write!(f, "{}: ", self.object)?;
        }
        write!(f, "{}", self.message)
    }
}

/// Renders a diagnostic list as a pretty-printed JSON array.
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "[]".to_string();
    }
    let body: Vec<String> = diags.iter().map(|d| format!("  {}", d.to_json())).collect();
    format!("[\n{}\n]", body.join(",\n"))
}

/// Parses a diagnostic array previously produced by
/// [`diagnostics_to_json`]. Structure is strict (an array of objects,
/// every required key present with a string value); evolution is
/// additive, so `name` (derivable from the code) and keys this build
/// does not know are ignored.
pub fn diagnostics_from_json(input: &str) -> Option<Vec<Diagnostic>> {
    let doc = Json::parse(input).ok()?;
    doc.as_arr("diagnostics")
        .ok()?
        .iter()
        .map(diagnostic_from_json)
        .collect()
}

fn diagnostic_from_json(j: &Json) -> Option<Diagnostic> {
    let text = |key: &str| j.field(key)?.as_str(key).ok();
    // Forward compatibility: a code this build does not know (a newer
    // analyzer's finding) parses as [`Code::UnrecognizedFinding`]
    // instead of rejecting the whole document.
    let code = Code::from_str_code(text("code")?).unwrap_or(Code::UnrecognizedFinding);
    // An unrecognized finding is neither clean nor an error: whatever
    // severity the (newer) writer attached, this build cannot act on
    // it, so it degrades to the fail-open level.
    let severity = if code == Code::UnrecognizedFinding {
        Severity::Unknown
    } else {
        Severity::from_str_sev(text("severity")?)?
    };
    Some(Diagnostic {
        code,
        severity,
        principal: text("principal")?.into(),
        object: text("object")?.into(),
        message: text("message")?.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        for (code, s) in [
            (Code::UnsatisfiableViewPredicate, "P001"),
            (Code::RedundantGrant, "P002"),
            (Code::ShadowedByRevocation, "P003"),
            (Code::UnusableView, "P004"),
            (Code::LeakyConditionalCheck, "P005"),
            (Code::UnboundParameter, "P006"),
            (Code::CrossViewContradiction, "W001"),
            (Code::UncoveredRelation, "Q001"),
            (Code::UnauthorizedProbe, "Q002"),
            (Code::StaleGrantEpoch, "Q003"),
            (Code::CertificateStepUnverified, "Q004"),
            (Code::TransitiveDisclosureWidening, "F001"),
            (Code::ConstraintInferenceChannel, "F002"),
            (Code::ProbeChannelExposure, "F003"),
            (Code::GrantFlowDiff, "F004"),
        ] {
            assert_eq!(code.as_str(), s);
            assert_eq!(Code::from_str_code(s), Some(code));
        }
        // The forward-compat sentinel is parser-only: no short code maps
        // to it, and its own spelling does not round-trip into a real code.
        assert_eq!(Code::from_str_code("F???"), None);
    }

    #[test]
    fn unknown_codes_parse_to_severity_unknown_not_error() {
        // A newer analyzer emitted F009 with a severity this build has
        // never heard of: the document still loads, the finding carries
        // the fail-open severity, and known findings around it survive.
        let json = r#"[
  {"code":"F009","name":"FutureFinding","severity":"critical","principal":"11","object":"v","message":"from the future"},
  {"code":"F001","name":"TransitiveDisclosureWidening","severity":"error","principal":"11","object":"w","message":"known"}
]"#;
        let back = diagnostics_from_json(json).expect("forward-compat parse");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].code, Code::UnrecognizedFinding);
        assert_eq!(back[0].severity, Severity::Unknown);
        assert_eq!(back[0].message, "from the future");
        assert_eq!(back[1].code, Code::TransitiveDisclosureWidening);
        assert_eq!(back[1].severity, Severity::Error);

        // Structural strictness is unchanged: a known code with an
        // unknown severity string is still rejected.
        let bad = r#"[{"code":"F001","severity":"critical","principal":"","object":"","message":""}]"#;
        assert_eq!(diagnostics_from_json(bad), None);
    }

    #[test]
    fn json_round_trips_including_escapes() {
        let diags = vec![
            Diagnostic::new(Code::UnusableView, "11", "mygrades", "weird \"quotes\"\nand\tlines"),
            Diagnostic::unknown(Code::RedundantGrant, "", "v2", "budget exhausted"),
        ];
        let json = diagnostics_to_json(&diags);
        let back = diagnostics_from_json(&json).expect("round-trip parses");
        assert_eq!(diags, back);
        assert_eq!(diagnostics_from_json("[]"), Some(vec![]));
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        for bad in ["", "[", "[{]", "[{\"code\":\"P001\"}]", "nonsense"] {
            assert_eq!(diagnostics_from_json(bad), None, "input {bad:?}");
        }
    }
}
