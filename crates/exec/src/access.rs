//! The index access path: a selection over one table, or a DML filter,
//! visits only the rows an equality conjunct can keep.
//!
//! A conjunct `col = literal` whose column leads one of the table's key
//! indexes (see `fgac_storage`'s index set) names the rows it can be
//! TRUE on: the literal's equal range. Visiting those rows, in
//! ascending position, instead of every row must give the same rows, in
//! the same order, and the same `Result` — error text included. Every
//! conjunct still runs on every visited row; what has to hold is that a
//! skipped row would neither have been kept nor have raised an error:
//!
//! * the equality is FALSE or UNKNOWN exactly off its equal range. So
//!   the literal is non-NULL and of the column's own type (an `Int`
//!   literal on a `Double` column compares numerically, the index does
//!   not);
//! * every conjunct evaluated before it on a skipped row cannot error,
//!   so it is the first conjunct or is preceded only by comparisons and
//!   `IS NULL` tests of columns and literals of comparable types;
//! * a DML filter is one `AND`, which goes on past an UNKNOWN member: it
//!   also visits the rows where the column is NULL. A selection stops at
//!   the first conjunct that is not TRUE, so it does not.

use fgac_algebra::{CmpOp, ScalarExpr};
use fgac_storage::Table;
use fgac_types::{DataType, Error, Result, Row, Schema, Value};

/// Calls `visit` with each row of `t` that `conjuncts` may keep, with
/// its position, ascending: an index's equal range when one serves (see
/// the module docs), every row otherwise. With `and_filter` the
/// conjuncts are the members of one `AND` (a DML filter).
pub(crate) fn for_each_candidate<'a>(
    t: &'a Table,
    conjuncts: &[&ScalarExpr],
    and_filter: bool,
    mut visit: impl FnMut(usize, &'a Row) -> Result<()>,
) -> Result<()> {
    let rows = t.rows();
    match index_positions(t, conjuncts, and_filter) {
        Some(positions) => positions.into_iter().try_for_each(|p| {
            // An index that names a row the table does not hold has
            // drifted from its rows: fail rather than drop the row.
            let row = rows.get(p).ok_or_else(|| {
                Error::Internal(format!(
                    "index of {} names row {p} of {}",
                    t.name(),
                    rows.len()
                ))
            })?;
            visit(p, row)
        }),
        None => rows
            .iter()
            .enumerate()
            .try_for_each(|(p, row)| visit(p, row)),
    }
}

pub(crate) fn index_positions(
    t: &Table,
    conjuncts: &[&ScalarExpr],
    and_filter: bool,
) -> Option<Vec<usize>> {
    let schema = t.schema();
    for c in conjuncts {
        let served = equality(c, schema).and_then(|(col, v)| Some((col, t.positions_eq(col, v)?)));
        if let Some((col, mut positions)) = served {
            if and_filter {
                positions.extend(t.positions_eq(col, &Value::Null)?);
                positions.sort_unstable();
            }
            return Some(positions);
        }
        if !cannot_error(c, schema) {
            return None;
        }
    }
    None
}

/// `col = literal` (either way round), the literal of a kind whose SQL
/// equality with the column's values is `Value::eq`.
fn equality<'e>(c: &'e ScalarExpr, schema: &Schema) -> Option<(usize, &'e Value)> {
    let ScalarExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    let (col, v) = match (&**left, &**right) {
        (ScalarExpr::Col(i), ScalarExpr::Lit(v)) | (ScalarExpr::Lit(v), ScalarExpr::Col(i)) => {
            (*i, v)
        }
        _ => return None,
    };
    (v.data_type() == Some(schema.columns().get(col)?.ty)).then_some((col, v))
}

/// Whether `c` is a boolean combination of comparisons and `IS NULL`
/// tests over columns and literals of comparable types: it evaluates to
/// TRUE, FALSE or UNKNOWN on every row of the table, never to an error.
fn cannot_error(c: &ScalarExpr, schema: &Schema) -> bool {
    // The type of a leaf: `Some(None)` for a NULL literal.
    let leaf = |e: &ScalarExpr| match e {
        ScalarExpr::Col(i) => schema.columns().get(*i).map(|col| Some(col.ty)),
        ScalarExpr::Lit(v) => Some(v.data_type()),
        _ => None,
    };
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Double);
    match c {
        ScalarExpr::Cmp { left, right, .. } => match (leaf(left), leaf(right)) {
            (Some(Some(l)), Some(Some(r))) => l == r || (numeric(l) && numeric(r)),
            (Some(_), Some(_)) => true,
            _ => false,
        },
        ScalarExpr::IsNull { expr, .. } => leaf(expr).is_some(),
        ScalarExpr::And(members) | ScalarExpr::Or(members) => {
            members.iter().all(|m| cannot_error(m, schema))
        }
        ScalarExpr::Not(e) => cannot_error(e, schema),
        ScalarExpr::Lit(v) => matches!(v, Value::Null | Value::Bool(_)),
        _ => false,
    }
}
