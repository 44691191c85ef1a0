//! Golden bytes for the three JSON wire forms other tools key on: the
//! certificate (`fgac-analyze --certify --json`), the diagnostic array
//! (`fgac-analyze --json`) and the lint report (`fgac-lint --json`).
//! The files under `tests/golden/` were captured at the commit before
//! the writers moved onto the shared codec (`fgac_types::json`), so a
//! change to any byte of a writer's output fails here first.

use fgac::analyze::{
    certificate_to_json, diagnostics_to_json, CertVerdict, Certificate, Code, Diagnostic,
    Obligation, RuleId, Step,
};
use fgac_algebra::{ArithOp, CmpOp, ScalarExpr, SpjBlock};
use fgac_lint::report::{Finding, PassCode, PassSummary, Report};
use fgac_types::{Column, DataType, Ident, Schema, Value};

const HOSTILE: &str = "quote \" slash \\ nl \n cr \r tab \t ctrl \u{1}\u{1f} uni π—𝄞 {}[]:,";

fn block() -> SpjBlock {
    SpjBlock {
        scans: vec![(
            Ident::new("grades"),
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("grade", DataType::Int).nullable(),
                Column::new("weight", DataType::Double),
                Column::new("final", DataType::Bool),
            ]),
        )],
        conjuncts: vec![ScalarExpr::eq(
            ScalarExpr::col(0),
            ScalarExpr::Lit(Value::Str("11".into())),
        )],
        projection: vec![ScalarExpr::Col(0), ScalarExpr::Col(1)],
        distinct: true,
    }
}

fn certificate() -> Certificate {
    let mut u1 = Step::new(RuleId::U1);
    u1.view = Some(Ident::new("mygrades"));
    u1.constraint = Some(Ident::new("fk_grades"));
    u1.block = Some(block());
    u1.substitution = vec![1, 0];
    u1.pins = vec![
        ("k".into(), Value::Int(-3)),
        ("d".into(), Value::Double(f64::NEG_INFINITY)),
    ];
    u1.note = HOSTILE.into();
    let mut goal = Step::new(RuleId::C3a);
    goal.premises = vec![0, 0];
    goal.probe_rows = Some(u64::MAX - 1);
    goal.obligations = vec![Obligation {
        premise: vec![ScalarExpr::And(vec![
            ScalarExpr::IsNull {
                expr: Box::new(ScalarExpr::Col(1)),
                negated: true,
            },
            ScalarExpr::Or(vec![ScalarExpr::Not(Box::new(ScalarExpr::cmp(
                CmpOp::LtEq,
                ScalarExpr::Arith {
                    op: ArithOp::Mod,
                    left: Box::new(ScalarExpr::Col(1)),
                    right: Box::new(ScalarExpr::Neg(Box::new(ScalarExpr::Lit(Value::Double(
                        1.5e-7,
                    ))))),
                },
                ScalarExpr::AccessParam("uid".into()),
            )))]),
        ])],
        conclusion: vec![
            ScalarExpr::Lit(Value::Bool(true)),
            ScalarExpr::Lit(Value::Null),
        ],
        arity: 2,
    }];
    Certificate {
        principal: "o'brien \"11\"".into(),
        policy_epoch: u64::MAX,
        verdict: CertVerdict::Conditional,
        params: vec![("user_id".into(), Value::Str("11".into()))],
        query_tables: vec![Ident::new("grades"), Ident::new("registered")],
        query: Some(block()),
        steps: vec![u1, goal],
    }
}

fn report() -> Report {
    Report {
        elapsed_ms: 42,
        files_scanned: 87,
        passes: vec![
            PassSummary {
                code: "L001".into(),
                name: "MutationOutsideWriter".into(),
                findings: 1,
                ms: 3,
            },
            PassSummary {
                code: "L005".into(),
                name: "UncheckedWireArithmetic".into(),
                findings: 1,
                ms: 0,
            },
        ],
        findings: vec![
            Finding::new(
                PassCode::LockOrderInversion,
                "crates/core/src/engine.rs",
                171,
                HOSTILE,
            ),
            Finding::new(
                PassCode::LockOrderInversion,
                "crates/wal/src/log.rs",
                9,
                "len + 4",
            ),
        ],
    }
}

#[test]
fn certificate_bytes_are_pinned() {
    assert_eq!(
        certificate_to_json(&certificate()),
        include_str!("golden/certificate.json")
    );
}

#[test]
fn diagnostics_bytes_are_pinned() {
    assert_eq!(
        diagnostics_to_json(&[]),
        include_str!("golden/diagnostics_empty.json")
    );
    let diags = [
        Diagnostic::new(Code::UnusableView, "11", "mygrades", HOSTILE),
        Diagnostic::unknown(Code::RedundantGrant, "", "v2", "budget exhausted"),
    ];
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/diagnostics.json")
    );
}

#[test]
fn lint_report_bytes_are_pinned() {
    assert_eq!(
        Report::default().to_json(),
        include_str!("golden/lint_report_empty.json")
    );
    assert_eq!(report().to_json(), include_str!("golden/lint_report.json"));
}
