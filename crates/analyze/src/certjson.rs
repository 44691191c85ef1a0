//! JSON wire form for [`Certificate`]s: the mapping between the
//! certificate types and the workspace codec ([`fgac_types::json`]).
//!
//! `fgac-analyze --certify` output and the CI certification corpus must
//! provably round-trip, so the decoder is stricter than general JSON:
//! every object is held to its key list with [`Json::check_keys`]. A
//! corrupted key would otherwise silently revert its field to the
//! default — exactly the failure mode a checker wire format must
//! refuse.
//!
//! Expressions, values and schemas are tagged arrays (`["cmp", "=", l,
//! r]`); blocks, obligations, steps and the certificate are objects in a
//! fixed key order. The unsigned fields (`policy_epoch`, `probe_rows`)
//! use the codec's full-range `u64` form.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

use crate::cert::{CertVerdict, Certificate, Obligation, RuleId, Step};
use fgac_algebra::{ArithOp, CmpOp, ScalarExpr, SpjBlock};
use fgac_types::{Column, DataType, Error, Ident, Result, Schema, Value};

pub use fgac_types::Json;

fn parse_err(msg: impl Into<String>) -> Error {
    Error::Parse(format!("certificate JSON: {}", msg.into()))
}

/// A tagged array: `[tag, rest...]`.
fn tagged<const N: usize>(tag: &str, rest: [Json; N]) -> Json {
    let mut items = Vec::with_capacity(N + 1);
    items.push(Json::str(tag));
    items.extend(rest);
    Json::Arr(items)
}

fn arr<T>(items: &[T], f: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(f).collect())
}

/// An object of the fields that are present, in the given order.
fn present<const N: usize>(fields: [(&str, Option<Json>); N]) -> Json {
    Json::obj(fields.into_iter().filter_map(|(k, v)| Some((k, v?))))
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => tagged("null", []),
        Value::Bool(b) => tagged("bool", [Json::Bool(*b)]),
        Value::Int(i) => tagged("int", [Json::Int(*i)]),
        Value::Double(d) => tagged("double", [Json::Double(*d)]),
        Value::Str(s) => tagged("str", [Json::str(s.clone())]),
    }
}

fn cmp_op_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::NotEq => "<>",
        CmpOp::Lt => "<",
        CmpOp::LtEq => "<=",
        CmpOp::Gt => ">",
        CmpOp::GtEq => ">=",
    }
}

fn arith_op_str(op: ArithOp) -> &'static str {
    match op {
        ArithOp::Add => "+",
        ArithOp::Sub => "-",
        ArithOp::Mul => "*",
        ArithOp::Div => "/",
        ArithOp::Mod => "%",
    }
}

fn type_str(t: DataType) -> &'static str {
    match t {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Double => "double",
        DataType::Str => "str",
    }
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];
const ARITH_OPS: [ArithOp; 5] = [
    ArithOp::Add,
    ArithOp::Sub,
    ArithOp::Mul,
    ArithOp::Div,
    ArithOp::Mod,
];
const TYPES: [DataType; 4] = [
    DataType::Bool,
    DataType::Int,
    DataType::Double,
    DataType::Str,
];

/// Decodes a spelling by searching `all` for the variant that encodes
/// to it, so each spelling is written down once, in an exhaustive match.
fn unspelled<T: Copy>(all: &[T], spell: fn(T) -> &'static str, j: &Json, what: &str) -> Result<T> {
    let s = j.as_str(what)?;
    all.iter()
        .copied()
        .find(|t| spell(*t) == s)
        .ok_or_else(|| parse_err(format!("unknown {what} {s:?}")))
}

fn expr_to_json(e: &ScalarExpr) -> Json {
    match e {
        ScalarExpr::Col(i) => tagged("col", [Json::usize(*i)]),
        ScalarExpr::Lit(v) => tagged("lit", [value_to_json(v)]),
        ScalarExpr::AccessParam(p) => tagged("ap", [Json::str(p.clone())]),
        ScalarExpr::Cmp { op, left, right } => tagged(
            "cmp",
            [
                Json::str(cmp_op_str(*op)),
                expr_to_json(left),
                expr_to_json(right),
            ],
        ),
        ScalarExpr::And(es) => tagged("and", [arr(es, expr_to_json)]),
        ScalarExpr::Or(es) => tagged("or", [arr(es, expr_to_json)]),
        ScalarExpr::Not(e) => tagged("not", [expr_to_json(e)]),
        ScalarExpr::IsNull { expr, negated } => {
            tagged("isnull", [expr_to_json(expr), Json::Bool(*negated)])
        }
        ScalarExpr::Arith { op, left, right } => tagged(
            "arith",
            [
                Json::str(arith_op_str(*op)),
                expr_to_json(left),
                expr_to_json(right),
            ],
        ),
        ScalarExpr::Neg(e) => tagged("neg", [expr_to_json(e)]),
    }
}

fn schema_to_json(s: &Schema) -> Json {
    arr(s.columns(), |c| {
        Json::Arr(vec![
            Json::str(c.name.as_str()),
            Json::str(type_str(c.ty)),
            Json::Bool(c.nullable),
        ])
    })
}

fn block_to_json(b: &SpjBlock) -> Json {
    Json::obj([
        (
            "scans",
            arr(&b.scans, |(t, s)| {
                Json::Arr(vec![Json::str(t.as_str()), schema_to_json(s)])
            }),
        ),
        ("conjuncts", arr(&b.conjuncts, expr_to_json)),
        ("projection", arr(&b.projection, expr_to_json)),
        ("distinct", Json::Bool(b.distinct)),
    ])
}

fn pairs_to_json(pairs: &[(String, Value)]) -> Json {
    arr(pairs, |(k, v)| {
        Json::Arr(vec![Json::str(k.clone()), value_to_json(v)])
    })
}

fn obligation_to_json(ob: &Obligation) -> Json {
    Json::obj([
        ("premise", arr(&ob.premise, expr_to_json)),
        ("conclusion", arr(&ob.conclusion, expr_to_json)),
        ("arity", Json::usize(ob.arity)),
    ])
}

fn step_to_json(s: &Step) -> Json {
    present([
        ("rule", Some(Json::str(s.rule.as_str()))),
        ("block", s.block.as_ref().map(block_to_json)),
        ("premises", Some(arr(&s.premises, |&p| Json::usize(p)))),
        ("view", s.view.as_ref().map(|v| Json::str(v.as_str()))),
        (
            "constraint",
            s.constraint.as_ref().map(|c| Json::str(c.as_str())),
        ),
        (
            "substitution",
            Some(arr(&s.substitution, |&i| Json::usize(i))),
        ),
        ("pins", Some(pairs_to_json(&s.pins))),
        ("obligations", Some(arr(&s.obligations, obligation_to_json))),
        ("probe_rows", s.probe_rows.map(Json::u64)),
        ("note", Some(Json::str(s.note.clone()))),
    ])
}

/// Renders a certificate as compact JSON.
pub fn certificate_to_json(cert: &Certificate) -> String {
    present([
        ("principal", Some(Json::str(cert.principal.clone()))),
        ("policy_epoch", Some(Json::u64(cert.policy_epoch))),
        ("verdict", Some(Json::str(cert.verdict.as_str()))),
        ("params", Some(pairs_to_json(&cert.params))),
        (
            "query_tables",
            Some(arr(&cert.query_tables, |t| Json::str(t.as_str()))),
        ),
        ("query", cert.query.as_ref().map(block_to_json)),
        ("steps", Some(arr(&cert.steps, step_to_json))),
    ])
    .render()
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn value_from_json(j: &Json) -> Result<Value> {
    let items = j.as_arr("value")?;
    let tag = items.first().map(|t| t.as_str("value tag")).transpose()?;
    match (tag, items) {
        (Some("null"), [_]) => Ok(Value::Null),
        (Some("bool"), [_, b]) => Ok(Value::Bool(b.as_bool("bool value")?)),
        (Some("int"), [_, Json::Int(i)]) => Ok(Value::Int(*i)),
        (Some("double"), [_, Json::Double(d)]) => Ok(Value::Double(*d)),
        (Some("double"), [_, Json::Int(i)]) => Ok(Value::Double(*i as f64)),
        (Some("str"), [_, s]) => Ok(Value::Str(s.as_str("str value")?.into())),
        _ => Err(parse_err("malformed value encoding")),
    }
}

fn exprs_from_json(j: &Json, what: &str) -> Result<Vec<ScalarExpr>> {
    j.as_arr(what)?.iter().map(expr_from_json).collect()
}

fn expr_from_json(j: &Json) -> Result<ScalarExpr> {
    let items = j.as_arr("expr")?;
    let tag = items.first().map(|t| t.as_str("expr tag")).transpose()?;
    let boxed = |e: &Json| expr_from_json(e).map(Box::new);
    match (tag, items) {
        (Some("col"), [_, i]) => Ok(ScalarExpr::Col(i.as_usize("col")?)),
        (Some("lit"), [_, v]) => Ok(ScalarExpr::Lit(value_from_json(v)?)),
        (Some("ap"), [_, p]) => Ok(ScalarExpr::AccessParam(p.as_str("ap")?.into())),
        (Some("cmp"), [_, op, l, r]) => Ok(ScalarExpr::Cmp {
            op: unspelled(&CMP_OPS, cmp_op_str, op, "comparison operator")?,
            left: boxed(l)?,
            right: boxed(r)?,
        }),
        (Some("and"), [_, es]) => Ok(ScalarExpr::And(exprs_from_json(es, "and")?)),
        (Some("or"), [_, es]) => Ok(ScalarExpr::Or(exprs_from_json(es, "or")?)),
        (Some("not"), [_, e]) => Ok(ScalarExpr::Not(boxed(e)?)),
        (Some("isnull"), [_, e, neg]) => Ok(ScalarExpr::IsNull {
            expr: boxed(e)?,
            negated: neg.as_bool("isnull")?,
        }),
        (Some("arith"), [_, op, l, r]) => Ok(ScalarExpr::Arith {
            op: unspelled(&ARITH_OPS, arith_op_str, op, "arithmetic operator")?,
            left: boxed(l)?,
            right: boxed(r)?,
        }),
        (Some("neg"), [_, e]) => Ok(ScalarExpr::Neg(boxed(e)?)),
        _ => Err(parse_err("malformed expression encoding")),
    }
}

fn schema_from_json(j: &Json) -> Result<Schema> {
    let cols = j
        .as_arr("schema")?
        .iter()
        .map(|c| {
            let [name, ty, nullable] = c.as_arr("column")? else {
                return Err(parse_err("column must be [name, type, nullable]"));
            };
            let col = Column::new(
                Ident::new(name.as_str("column name")?),
                unspelled(&TYPES, type_str, ty, "data type")?,
            );
            Ok(if nullable.as_bool("column nullable")? {
                col.nullable()
            } else {
                col
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Schema::new(cols))
}

fn block_from_json(j: &Json) -> Result<SpjBlock> {
    j.check_keys("block", &["scans", "conjuncts", "projection", "distinct"])?;
    let scans = j
        .required("block", "scans")?
        .as_arr("scans")?
        .iter()
        .map(|s| {
            let [table, schema] = s.as_arr("scan")? else {
                return Err(parse_err("scan must be [table, schema]"));
            };
            Ok((
                Ident::new(table.as_str("scan table")?),
                schema_from_json(schema)?,
            ))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(SpjBlock {
        scans,
        conjuncts: exprs_from_json(j.required("block", "conjuncts")?, "conjuncts")?,
        projection: exprs_from_json(j.required("block", "projection")?, "projection")?,
        distinct: j.required("block", "distinct")?.as_bool("distinct")?,
    })
}

fn pairs_from_json(j: &Json, what: &str) -> Result<Vec<(String, Value)>> {
    j.as_arr(what)?
        .iter()
        .map(|p| {
            let [k, v] = p.as_arr(what)? else {
                return Err(parse_err(format!("{what}: expected [name, value]")));
            };
            Ok((k.as_str(what)?.into(), value_from_json(v)?))
        })
        .collect()
}

fn indices_from_json(j: &Json, what: &str) -> Result<Vec<usize>> {
    j.as_arr(what)?.iter().map(|i| i.as_usize(what)).collect()
}

fn obligation_from_json(j: &Json) -> Result<Obligation> {
    j.check_keys("obligation", &["premise", "conclusion", "arity"])?;
    Ok(Obligation {
        premise: exprs_from_json(j.required("obligation", "premise")?, "premise")?,
        conclusion: exprs_from_json(j.required("obligation", "conclusion")?, "conclusion")?,
        arity: j.required("obligation", "arity")?.as_usize("arity")?,
    })
}

fn step_from_json(j: &Json) -> Result<Step> {
    j.check_keys(
        "step",
        &[
            "rule",
            "block",
            "premises",
            "view",
            "constraint",
            "substitution",
            "pins",
            "obligations",
            "probe_rows",
            "note",
        ],
    )?;
    let rule_str = j.required("step", "rule")?.as_str("rule")?;
    let rule = RuleId::from_str_id(rule_str)
        .ok_or_else(|| parse_err(format!("unknown rule id {rule_str:?}")))?;
    let mut step = Step::new(rule);
    step.block = j.field("block").map(block_from_json).transpose()?;
    if let Some(p) = j.field("premises") {
        step.premises = indices_from_json(p, "premises")?;
    }
    if let Some(v) = j.field("view") {
        step.view = Some(Ident::new(v.as_str("view")?));
    }
    if let Some(c) = j.field("constraint") {
        step.constraint = Some(Ident::new(c.as_str("constraint")?));
    }
    if let Some(s) = j.field("substitution") {
        step.substitution = indices_from_json(s, "substitution")?;
    }
    if let Some(p) = j.field("pins") {
        step.pins = pairs_from_json(p, "pins")?;
    }
    if let Some(o) = j.field("obligations") {
        step.obligations = o
            .as_arr("obligations")?
            .iter()
            .map(obligation_from_json)
            .collect::<Result<_>>()?;
    }
    if let Some(n) = j.field("probe_rows") {
        step.probe_rows = Some(n.as_u64("probe_rows")?);
    }
    if let Some(n) = j.field("note") {
        step.note = n.as_str("note")?.into();
    }
    Ok(step)
}

/// Parses a certificate previously produced by [`certificate_to_json`].
pub fn certificate_from_json(input: &str) -> Result<Certificate> {
    let j = Json::parse(input)?;
    j.check_keys(
        "certificate",
        &[
            "principal",
            "policy_epoch",
            "verdict",
            "params",
            "query_tables",
            "query",
            "steps",
        ],
    )?;
    let field = |key: &str| j.required("certificate", key);
    let verdict_str = field("verdict")?.as_str("verdict")?;
    let verdict = CertVerdict::from_str_verdict(verdict_str)
        .ok_or_else(|| parse_err(format!("unknown verdict {verdict_str:?}")))?;
    Ok(Certificate {
        principal: field("principal")?.as_str("principal")?.into(),
        policy_epoch: field("policy_epoch")?.as_u64("policy_epoch")?,
        verdict,
        params: pairs_from_json(field("params")?, "params")?,
        query_tables: field("query_tables")?
            .as_arr("query_tables")?
            .iter()
            .map(|t| Ok(Ident::new(t.as_str("query table")?)))
            .collect::<Result<_>>()?,
        query: j.field("query").map(block_from_json).transpose()?,
        steps: field("steps")?
            .as_arr("steps")?
            .iter()
            .map(step_from_json)
            .collect::<Result<_>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> SpjBlock {
        SpjBlock {
            scans: vec![(
                Ident::new("grades"),
                Schema::new(vec![
                    Column::new("student_id", DataType::Str),
                    Column::new("grade", DataType::Int).nullable(),
                ]),
            )],
            conjuncts: vec![ScalarExpr::eq(
                ScalarExpr::col(0),
                ScalarExpr::Lit(Value::Str("11".into())),
            )],
            projection: vec![ScalarExpr::Col(0), ScalarExpr::Col(1)],
            distinct: false,
        }
    }

    fn sample_cert() -> Certificate {
        let mut u1 = Step::new(RuleId::U1);
        u1.view = Some(Ident::new("mygrades"));
        u1.block = Some(sample_block());
        u1.pins = vec![("k".into(), Value::Int(3))];
        u1.note = "root \"view\"\nline2".into();
        let mut goal = Step::new(RuleId::C3a);
        goal.premises = vec![0, 0];
        goal.block = Some(sample_block());
        goal.probe_rows = Some(2);
        goal.obligations = vec![Obligation {
            premise: vec![ScalarExpr::And(vec![
                ScalarExpr::IsNull {
                    expr: Box::new(ScalarExpr::Col(1)),
                    negated: true,
                },
                ScalarExpr::Or(vec![ScalarExpr::Not(Box::new(ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::Arith {
                        op: ArithOp::Add,
                        left: Box::new(ScalarExpr::Col(1)),
                        right: Box::new(ScalarExpr::Neg(Box::new(ScalarExpr::Lit(
                            Value::Double(1.5),
                        )))),
                    },
                    ScalarExpr::AccessParam("uid".into()),
                )))]),
            ])],
            conclusion: vec![ScalarExpr::Lit(Value::Bool(true)), ScalarExpr::Lit(Value::Null)],
            arity: 2,
        }];
        Certificate {
            principal: "11".into(),
            policy_epoch: 42,
            verdict: CertVerdict::Conditional,
            params: vec![("user_id".into(), Value::Str("11".into()))],
            query_tables: vec![Ident::new("grades")],
            query: Some(sample_block()),
            steps: vec![u1, goal],
        }
    }

    #[test]
    fn certificate_round_trips() {
        let cert = sample_cert();
        let json = certificate_to_json(&cert);
        let back = certificate_from_json(&json).expect("round-trip parses");
        assert_eq!(cert, back);
        // And the re-rendered form is byte-identical (canonical output).
        assert_eq!(certificate_to_json(&back), json);
    }

    #[test]
    fn no_query_block_round_trips() {
        let mut cert = sample_cert();
        cert.query = None;
        cert.verdict = CertVerdict::Unconditional;
        cert.steps[1] = Step::new(RuleId::U2Dag);
        cert.steps[1].premises = vec![0];
        let back = certificate_from_json(&certificate_to_json(&cert)).expect("parses");
        assert_eq!(cert, back);
    }

    #[test]
    fn nonfinite_doubles_round_trip() {
        for d in [f64::INFINITY, f64::NEG_INFINITY, 1e300, -0.0] {
            let j = Json::Double(d).render();
            let back = Json::parse(&j).expect("parses");
            assert_eq!(back, Json::Double(d), "value {d:?} via {j:?}");
        }
        // NaN != NaN, so check the shape by hand.
        let back = Json::parse(&Json::Double(f64::NAN).render()).expect("parses");
        assert!(matches!(back, Json::Double(d) if d.is_nan()));
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"principal\":}",
            "nonsense",
            "{} trailing",
            "{\"principal\":\"a\"}",
            "18446744073709551615", // > i64::MAX
            "\"unterminated",
            "{\"a\":\"\\q\"}",
        ] {
            assert!(certificate_from_json(bad).is_err(), "input {bad:?}");
        }
    }

    #[test]
    fn full_u64_epoch_and_probe_rows_round_trip() {
        let mut cert = sample_cert();
        cert.policy_epoch = u64::MAX;
        cert.steps[1].probe_rows = Some(u64::MAX - 1);
        let back = certificate_from_json(&certificate_to_json(&cert)).expect("parses");
        assert_eq!(cert, back);
    }

    #[test]
    fn unknown_and_duplicate_keys_rejected() {
        let cert = sample_cert();
        let json = certificate_to_json(&cert);
        for (bad, why) in [
            (
                json.replace("\"policy_epoch\"", "\"policy_epocj\""),
                "corrupted certificate key",
            ),
            (json.replace("\"premises\"", "\"premisft\""), "corrupted step key"),
            (json.replace("\"arity\"", "\"aritz\""), "corrupted obligation key"),
            (json.replace("\"distinct\"", "\"distinkt\""), "corrupted block key"),
            (
                json.replacen("{\"rule\"", "{\"rule\":\"U1\",\"rule\"", 1),
                "duplicate step key",
            ),
        ] {
            assert!(certificate_from_json(&bad).is_err(), "{why}: {bad}");
        }
    }

    #[test]
    fn negative_epoch_rejected() {
        let cert = sample_cert();
        let json = certificate_to_json(&cert).replace("\"policy_epoch\":42", "\"policy_epoch\":-1");
        assert!(certificate_from_json(&json).is_err());
    }

    #[test]
    fn unknown_rule_rejected() {
        let cert = sample_cert();
        let json = certificate_to_json(&cert).replace("\"rule\":\"U1\"", "\"rule\":\"U9\"");
        assert!(certificate_from_json(&json).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let j = Json::Str("quote \" slash \\ nl \n tab \t ctrl \u{1} uni \u{263a}".into());
        let back = Json::parse(&j.render()).expect("parses");
        assert_eq!(back, j);
    }
}
