//! Scalar expression evaluation with SQL three-valued logic.
//!
//! There is one evaluator in two mutually recursive halves, split by
//! what a node yields. [`eval_ref`] yields values: column and literal
//! leaves as `Cow::Borrowed`, arithmetic as `Cow::Owned`. [`truth`]
//! yields the three-valued result of the boolean nodes (comparisons,
//! `AND`/`OR`/`NOT`, `IS NULL`) as `Option<bool>`, `None` being SQL's
//! UNKNOWN. Each asks the other for a node of the other kind, so every
//! node has exactly one implementation, a `column <op> literal` or
//! `column <op> column` comparison reads both operands in place and
//! allocates nothing, and a predicate never builds a `Value` at all.
//! [`eval`] and [`eval_predicate`] are thin wrappers.

use fgac_algebra::{ArithOp, ScalarExpr};
use fgac_types::{Error, Result, Row, Value};
use std::borrow::Cow;

/// Whether [`truth`] (rather than [`eval_ref`]) implements `expr`.
fn is_boolean_node(expr: &ScalarExpr) -> bool {
    matches!(
        expr,
        ScalarExpr::Cmp { .. }
            | ScalarExpr::And(_)
            | ScalarExpr::Or(_)
            | ScalarExpr::Not(_)
            | ScalarExpr::IsNull { .. }
    )
}

/// Evaluates `expr` on `row`, borrowing the result from the row or the
/// expression wherever no new value has to be computed. NULL propagates
/// per SQL 3VL; comparisons between non-NULL values of incompatible
/// types are type errors.
///
/// Inlined into every operand position, so reading a leaf operand is a
/// bounds-checked index, not a call.
#[inline]
pub(crate) fn eval_ref<'a>(expr: &'a ScalarExpr, row: &'a Row) -> Result<Cow<'a, Value>> {
    // Every node is evaluated by exactly one of `eval_ref` and `truth`,
    // so between them the fault site fires once per node.
    #[cfg(feature = "fault-injection")]
    if !is_boolean_node(expr) {
        fgac_types::faults::hit("exec::eval")?;
    }
    match expr {
        ScalarExpr::Col(i) => row
            .values()
            .get(*i)
            .map(Cow::Borrowed)
            .ok_or_else(|| Error::Internal(format!("column offset {i} out of range"))),
        ScalarExpr::Lit(v) => Ok(Cow::Borrowed(v)),
        computed => eval_computed(computed, row).map(Cow::Owned),
    }
}

/// The non-leaf half of [`eval_ref`]: every node that builds a value.
fn eval_computed(expr: &ScalarExpr, row: &Row) -> Result<Value> {
    if is_boolean_node(expr) {
        return Ok(truth(expr, row, "")?.map_or(Value::Null, Value::Bool));
    }
    match expr {
        ScalarExpr::AccessParam(p) => Err(Error::Execution(format!(
            "access-pattern parameter $${p} was not bound to a value"
        ))),
        ScalarExpr::Arith { op, left, right } => {
            arith(*op, &*eval_ref(left, row)?, &*eval_ref(right, row)?)
        }
        ScalarExpr::Neg(e) => match &*eval_ref(e, row)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Double(d) => Ok(Value::Double(-d)),
            Value::Null => Ok(Value::Null),
            other => Err(Error::Type(format!("cannot negate {other}"))),
        },
        // `eval_ref` answers leaves, and `truth` the boolean nodes,
        // before control gets here; delegating keeps the match total
        // without a panic site.
        _ => eval_ref(expr, row).map(Cow::into_owned),
    }
}

/// The three-valued truth of `expr` on `row`: `None` is UNKNOWN. A node
/// that yields a value instead must yield a boolean or NULL; `expects`
/// words the type error otherwise (`"<expects>, got <value>"`).
///
/// A scan spends its time here, on one comparison per row, so only the
/// comparison is answered in this function and every other node in
/// [`truth_of_other`]: kept this small, it holds both operands in
/// registers (measured: 15 % off a filtered scan of `grades`).
fn truth(expr: &ScalarExpr, row: &Row, expects: &str) -> Result<Option<bool>> {
    #[cfg(feature = "fault-injection")]
    if is_boolean_node(expr) {
        fgac_types::faults::hit("exec::eval")?;
    }
    let ScalarExpr::Cmp { op, left, right } = expr else {
        return truth_of_other(expr, row, expects);
    };
    let l = eval_ref(left, row)?;
    let r = eval_ref(right, row)?;
    if l.is_null() || r.is_null() {
        return Ok(None);
    }
    match l.sql_cmp(&r) {
        Some(ord) => Ok(Some(op.test(ord))),
        None => Err(Error::Type(format!("cannot compare {l} with {r}"))),
    }
}

#[inline(never)]
fn truth_of_other(expr: &ScalarExpr, row: &Row, expects: &str) -> Result<Option<bool>> {
    match expr {
        ScalarExpr::And(es) => connective(es, row, false, "AND expects booleans"),
        ScalarExpr::Or(es) => connective(es, row, true, "OR expects booleans"),
        ScalarExpr::Not(e) => Ok(truth(e, row, "NOT expects a boolean")?.map(|b| !b)),
        ScalarExpr::IsNull { expr, negated } => {
            Ok(Some(eval_ref(expr, row)?.is_null() != *negated))
        }
        value => match &*eval_ref(value, row)? {
            Value::Bool(b) => Ok(Some(*b)),
            Value::Null => Ok(None),
            other => Err(Error::Type(format!("{expects}, got {other}"))),
        },
    }
}

/// `AND` (`absorbing` = FALSE) or `OR` (`absorbing` = TRUE) over
/// `members`: the absorbing value decides at once; otherwise UNKNOWN if
/// any member was, else the other value.
fn connective(
    members: &[ScalarExpr],
    row: &Row,
    absorbing: bool,
    expects: &str,
) -> Result<Option<bool>> {
    let mut unknown = false;
    for member in members {
        match truth(member, row, expects)? {
            Some(b) if b == absorbing => return Ok(Some(absorbing)),
            Some(_) => {}
            None => unknown = true,
        }
    }
    Ok(if unknown { None } else { Some(!absorbing) })
}

/// Evaluates `expr` on `row` to an owned value (see [`eval_ref`] for
/// the semantics; this clones a borrowed leaf).
pub fn eval(expr: &ScalarExpr, row: &Row) -> Result<Value> {
    eval_ref(expr, row).map(Cow::into_owned)
}

/// SQL predicate truth: TRUE keeps the row; FALSE and NULL drop it.
#[inline]
pub fn eval_predicate(expr: &ScalarExpr, row: &Row) -> Result<bool> {
    Ok(truth(expr, row, "predicate must be boolean")? == Some(true))
}

fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            let out = match op {
                ArithOp::Add => a.checked_add(b),
                ArithOp::Sub => a.checked_sub(b),
                ArithOp::Mul => a.checked_mul(b),
                ArithOp::Div => {
                    if b == 0 {
                        return Err(Error::Execution("division by zero".into()));
                    }
                    a.checked_div(b)
                }
                ArithOp::Mod => {
                    if b == 0 {
                        return Err(Error::Execution("modulo by zero".into()));
                    }
                    a.checked_rem(b)
                }
            };
            out.map(Value::Int)
                .ok_or_else(|| Error::Execution("integer overflow".into()))
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(Error::Type(format!("cannot apply arithmetic to {l}, {r}")));
            };
            let out = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => {
                    if b == 0.0 {
                        return Err(Error::Execution("division by zero".into()));
                    }
                    a / b
                }
                ArithOp::Mod => a % b,
            };
            Ok(Value::Double(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::CmpOp;

    fn row(vals: Vec<Value>) -> Row {
        Row(vals)
    }

    #[test]
    fn leaves_are_borrowed_and_computed_values_owned() {
        let r = row(vec![Value::Str("x".into())]);
        let col = ScalarExpr::col(0);
        let lit = ScalarExpr::lit("x");
        assert!(matches!(eval_ref(&col, &r), Ok(Cow::Borrowed(_))));
        assert!(matches!(eval_ref(&lit, &r), Ok(Cow::Borrowed(_))));
        let cmp = ScalarExpr::eq(col, lit);
        assert!(matches!(
            eval_ref(&cmp, &r),
            Ok(Cow::Owned(Value::Bool(true)))
        ));
        // The owning wrapper agrees with the borrowing evaluator.
        assert_eq!(eval(&cmp, &r).unwrap(), Value::Bool(true));
        assert!(matches!(
            eval(&ScalarExpr::col(1), &r),
            Err(Error::Internal(_))
        ));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_site_fires_once_per_node() {
        use fgac_types::faults::{self, Fault};
        // AND(c0 = 'x', c0 IS NULL): 1 + (1 + 2) + (1 + 1) nodes, whether
        // the root is asked for its truth or for its value.
        let e = ScalarExpr::And(vec![
            ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit("x")),
            ScalarExpr::IsNull {
                expr: Box::new(ScalarExpr::col(0)),
                negated: false,
            },
        ]);
        let r = row(vec![Value::Str("x".into())]);
        faults::arm("exec::eval", Fault::ErrorOnNth(u64::MAX));
        assert!(!eval_predicate(&e, &r).unwrap());
        assert_eq!(faults::hits("exec::eval"), 6);
        assert_eq!(eval(&e, &r).unwrap(), Value::Bool(false));
        assert_eq!(faults::hits("exec::eval"), 12);
        faults::disarm_all();
    }

    #[test]
    fn three_valued_and_or() {
        let t = ScalarExpr::lit(true);
        let f = ScalarExpr::lit(false);
        let n = ScalarExpr::Lit(Value::Null);
        let r = row(vec![]);
        assert_eq!(
            eval(&ScalarExpr::And(vec![t.clone(), n.clone()]), &r).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval(&ScalarExpr::And(vec![f.clone(), n.clone()]), &r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&ScalarExpr::Or(vec![t.clone(), n.clone()]), &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&ScalarExpr::Or(vec![f, n]), &r).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn null_comparison_is_unknown_and_filtered() {
        let e = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::lit(5));
        let r = row(vec![Value::Null]);
        assert_eq!(eval(&e, &r).unwrap(), Value::Null);
        assert!(!eval_predicate(&e, &r).unwrap());
    }

    #[test]
    fn cross_type_numeric_comparison() {
        let e = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(2.5));
        assert_eq!(
            eval(&e, &row(vec![Value::Int(2)])).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn type_mismatch_errors() {
        let e = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::lit(5));
        let r = row(vec![Value::Str("x".into())]);
        assert!(matches!(eval(&e, &r), Err(Error::Type(_))));
    }

    #[test]
    fn integer_and_double_arithmetic() {
        let r = row(vec![Value::Int(7), Value::Int(2)]);
        let div = ScalarExpr::Arith {
            op: ArithOp::Div,
            left: Box::new(ScalarExpr::col(0)),
            right: Box::new(ScalarExpr::col(1)),
        };
        assert_eq!(eval(&div, &r).unwrap(), Value::Int(3));
        let r2 = row(vec![Value::Double(7.0), Value::Int(2)]);
        assert_eq!(eval(&div, &r2).unwrap(), Value::Double(3.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let div = ScalarExpr::Arith {
            op: ArithOp::Div,
            left: Box::new(ScalarExpr::lit(1)),
            right: Box::new(ScalarExpr::lit(0)),
        };
        assert!(eval(&div, &row(vec![])).is_err());
    }

    #[test]
    fn null_propagates_through_arith() {
        let add = ScalarExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(ScalarExpr::Lit(Value::Null)),
            right: Box::new(ScalarExpr::lit(1)),
        };
        assert_eq!(eval(&add, &row(vec![])).unwrap(), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        let e = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::col(0)),
            negated: false,
        };
        assert_eq!(
            eval(&e, &row(vec![Value::Null])).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&e, &row(vec![Value::Int(1)])).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn unbound_access_param_errors() {
        let e = ScalarExpr::AccessParam("1".into());
        assert!(matches!(eval(&e, &row(vec![])), Err(Error::Execution(_))));
    }
}
