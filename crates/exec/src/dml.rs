//! DML execution (INSERT / UPDATE / DELETE) and constraint audits.
//!
//! These are the *unchecked* engine primitives; per-tuple authorization
//! of updates (Section 4.4) wraps them in `fgac-core`.

use crate::access::for_each_candidate;
use crate::eval::{eval, eval_predicate};
use crate::exec::flatten_ands;
use fgac_algebra::{bind_table_expr, ParamScope, ScalarExpr};
use fgac_sql::{self as sql};
use fgac_storage::{Database, InclusionDependency, Table};
use fgac_types::{Error, Ident, Result, Row, Value};

/// Result of a DML statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmlOutcome {
    /// Rows inserted / updated / deleted.
    pub affected: usize,
}

/// Executes an `INSERT` (constraint-checked). Multi-row inserts are
/// atomic: if any row fails its constraint check, rows inserted earlier
/// in the same statement are rolled back.
pub fn execute_insert(db: &mut Database, stmt: &sql::Insert, params: &ParamScope) -> Result<DmlOutcome> {
    let rows = insert_rows(db, stmt, params)?;
    let affected = insert_all_atomic(db, &stmt.table, rows)?;
    Ok(DmlOutcome { affected })
}

/// Inserts every row or none: on any constraint/type failure the rows
/// this call inserted are rolled back (to a journal mark taken on entry)
/// before the error propagates.
pub fn insert_all_atomic(db: &mut Database, table: &Ident, rows: Vec<Row>) -> Result<usize> {
    let mark = db.mark();
    let out = try_insert_all(db, table, rows);
    if out.is_err() {
        db.rollback_to(mark);
    }
    out
}

fn try_insert_all(db: &mut Database, table: &Ident, rows: Vec<Row>) -> Result<usize> {
    let mut n = 0;
    for row in rows {
        #[cfg(feature = "fault-injection")]
        fgac_types::faults::hit("exec::insert_row")?;
        db.insert(table, row)?;
        n += 1;
    }
    Ok(n)
}

/// Materializes the full-width rows an `INSERT` statement denotes,
/// without writing them (used by update authorization to test tuples
/// *before* insertion).
pub fn insert_rows(db: &Database, stmt: &sql::Insert, params: &ParamScope) -> Result<Vec<Row>> {
    let meta = db
        .catalog()
        .table(&stmt.table)
        .ok_or_else(|| Error::Bind(format!("unknown table {}", stmt.table)))?;
    let schema = meta.schema.clone();

    // Column positions: explicit list or full schema order.
    let positions: Vec<usize> = if stmt.columns.is_empty() {
        (0..schema.len()).collect()
    } else {
        stmt.columns
            .iter()
            .map(|c| {
                schema
                    .index_of(c)
                    .ok_or_else(|| Error::Bind(format!("no column {c} in {}", stmt.table)))
            })
            .collect::<Result<_>>()?
    };

    let mut out = Vec::with_capacity(stmt.rows.len());
    for value_exprs in &stmt.rows {
        if value_exprs.len() != positions.len() {
            return Err(Error::Type(format!(
                "INSERT expects {} values, got {}",
                positions.len(),
                value_exprs.len()
            )));
        }
        let mut row = vec![Value::Null; schema.len()];
        for (expr, &pos) in value_exprs.iter().zip(&positions) {
            let bound = bind_table_expr(db.catalog(), &stmt.table, expr, params)?;
            if !bound.referenced_cols().is_empty() {
                return Err(Error::Bind(
                    "INSERT values must be constant expressions".into(),
                ));
            }
            row[pos] = eval(&bound, &Row(vec![]))?;
        }
        out.push(Row(row));
    }
    Ok(out)
}

/// The bound form of an UPDATE: optional filter plus per-column
/// assignment expressions, all over the table row.
pub type BoundUpdate = (Option<ScalarExpr>, Vec<(usize, ScalarExpr)>);

/// Binds an `UPDATE`'s filter and assignments.
pub fn bind_update(
    db: &Database,
    stmt: &sql::Update,
    params: &ParamScope,
) -> Result<BoundUpdate> {
    let meta = db
        .catalog()
        .table(&stmt.table)
        .ok_or_else(|| Error::Bind(format!("unknown table {}", stmt.table)))?;
    let filter = stmt
        .filter
        .as_ref()
        .map(|f| bind_table_expr(db.catalog(), &stmt.table, f, params))
        .transpose()?;
    let assignments = stmt
        .assignments
        .iter()
        .map(|(col, e)| {
            let idx = meta
                .schema
                .index_of(col)
                .ok_or_else(|| Error::Bind(format!("no column {col} in {}", stmt.table)))?;
            let bound = bind_table_expr(db.catalog(), &stmt.table, e, params)?;
            Ok((idx, bound))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((filter, assignments))
}

/// Executes an `UPDATE`.
pub fn execute_update(db: &mut Database, stmt: &sql::Update, params: &ParamScope) -> Result<DmlOutcome> {
    let (filter, assignments) = bind_update(db, stmt, params)?;
    let affected = update_matching(db, &stmt.table, filter.as_ref(), &assignments, |_, _| Ok(()))?;
    Ok(DmlOutcome { affected })
}

/// Applies bound assignments to rows matching the filter; returns the
/// number of rows updated.
///
/// Evaluate-before-mutate: the filter and every assignment are
/// evaluated for **all** matching rows — and each `(old, new)` pair is
/// handed to `check` (per-tuple update authorization, Section 4.4) —
/// before the first row is written, so an error on the Nth match leaves
/// the table untouched rather than half-updated. The write itself goes
/// through `Database::apply_row_updates`: type and key checks on every
/// replacement, all or nothing.
pub fn update_matching(
    db: &mut Database,
    table: &Ident,
    filter: Option<&ScalarExpr>,
    assignments: &[(usize, ScalarExpr)],
    mut check: impl FnMut(&Row, &Row) -> Result<()>,
) -> Result<usize> {
    let mut updates = Vec::new();
    for_each_match(db.table_required(table)?, filter, |i, row| {
        #[cfg(feature = "fault-injection")]
        fgac_types::faults::hit("exec::update_row")?;
        let mut new = row.clone();
        for (idx, e) in assignments {
            new.0[*idx] = eval(e, row)?;
        }
        check(row, &new)?;
        updates.push((i, new));
        Ok(())
    })?;
    db.apply_row_updates(table, updates)
}

/// Executes a `DELETE`.
pub fn execute_delete(db: &mut Database, stmt: &sql::Delete, params: &ParamScope) -> Result<DmlOutcome> {
    let filter = stmt
        .filter
        .as_ref()
        .map(|f| bind_table_expr(db.catalog(), &stmt.table, f, params))
        .transpose()?;
    let affected = delete_matching(db, &stmt.table, filter.as_ref(), |_| Ok(()))?;
    Ok(DmlOutcome { affected })
}

/// Deletes the rows matching the filter; returns how many.
///
/// Evaluate-before-mutate: the full victim set is decided — each victim
/// handed to `check` (per-tuple delete authorization) — before any row
/// is removed, so a filter or check error deletes nothing. Removal is by
/// position, exact even for duplicate rows (bag semantics).
pub fn delete_matching(
    db: &mut Database,
    table: &Ident,
    filter: Option<&ScalarExpr>,
    mut check: impl FnMut(&Row) -> Result<()>,
) -> Result<usize> {
    let mut victims = Vec::new();
    for_each_match(db.table_required(table)?, filter, |i, row| {
        #[cfg(feature = "fault-injection")]
        fgac_types::faults::hit("exec::delete_row")?;
        check(row)?;
        victims.push(i);
        Ok(())
    })?;
    db.delete_at(table, &victims)
}

/// Calls `hit` with each row of `t` the filter holds on, and its
/// position, in table order. The filter runs on every row, or on an
/// index's equal range when one serves a conjunct of it (see
/// [`crate::access`]): the same rows, order and errors either way.
fn for_each_match(
    t: &Table,
    filter: Option<&ScalarExpr>,
    mut hit: impl FnMut(usize, &Row) -> Result<()>,
) -> Result<()> {
    let Some(f) = filter else {
        return t.rows().iter().enumerate().try_for_each(|(i, row)| hit(i, row));
    };
    let conjuncts = flatten_ands(std::slice::from_ref(f));
    for_each_candidate(t, &conjuncts, true, |i, row| {
        if eval_predicate(f, row)? {
            hit(i, row)?;
        }
        Ok(())
    })
}

/// Audits a (possibly conditional) inclusion dependency against the
/// current data, returning the violating source rows. An empty result
/// means the constraint holds on this state — useful for validating that
/// a database state is *legal* before the U3 rules assume the constraint.
pub fn audit_inclusion(db: &Database, dep: &InclusionDependency) -> Result<Vec<Row>> {
    let catalog = db.catalog();
    let src_meta = catalog.table_required(&dep.src_table)?;
    let dst_meta = catalog.table_required(&dep.dst_table)?;
    let params = ParamScope::new();
    let src_filter = dep
        .src_filter
        .as_ref()
        .map(|f| bind_table_expr(catalog, &dep.src_table, f, &params))
        .transpose()?;
    let dst_filter = dep
        .dst_filter
        .as_ref()
        .map(|f| bind_table_expr(catalog, &dep.dst_table, f, &params))
        .transpose()?;

    let src_idx: Vec<usize> = dep
        .src_columns
        .iter()
        .map(|c| {
            src_meta.schema.index_of(c).ok_or_else(|| {
                Error::Internal(format!(
                    "inclusion dependency {} names unknown column {c} in {}",
                    dep.name, dep.src_table
                ))
            })
        })
        .collect::<Result<_>>()?;
    let dst_idx: Vec<usize> = dep
        .dst_columns
        .iter()
        .map(|c| {
            dst_meta.schema.index_of(c).ok_or_else(|| {
                Error::Internal(format!(
                    "inclusion dependency {} names unknown column {c} in {}",
                    dep.name, dep.dst_table
                ))
            })
        })
        .collect::<Result<_>>()?;

    // Materialize target keys.
    let mut dst_keys = std::collections::HashSet::new();
    for row in db.table_required(&dep.dst_table)?.rows() {
        if let Some(f) = &dst_filter {
            if !eval_predicate(f, row)? {
                continue;
            }
        }
        dst_keys.insert(row.project(&dst_idx));
    }

    let mut violations = Vec::new();
    for row in db.table_required(&dep.src_table)?.rows() {
        if let Some(f) = &src_filter {
            if !eval_predicate(f, row)? {
                continue;
            }
        }
        if !dst_keys.contains(&row.project(&src_idx)) {
            violations.push(row.clone());
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_sql::{parse_statement, Statement};
    use fgac_types::{Column, DataType, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "students",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("name", DataType::Str),
                Column::new("type", DataType::Str).nullable(),
            ]),
            Some(vec![Ident::new("student_id")]),
        )
        .unwrap();
        db.create_table(
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
            None,
        )
        .unwrap();
        db
    }

    fn stmt(s: &str) -> Statement {
        parse_statement(s).unwrap()
    }

    #[test]
    fn insert_full_and_partial_columns() {
        let mut d = db();
        let Statement::Insert(i) = stmt("insert into students values ('11', 'ann', 'FullTime')")
        else {
            panic!()
        };
        let out = execute_insert(&mut d, &i, &ParamScope::new()).unwrap();
        assert_eq!(out.affected, 1);

        let Statement::Insert(i) =
            stmt("insert into students (student_id, name) values ('12', 'bob')")
        else {
            panic!()
        };
        execute_insert(&mut d, &i, &ParamScope::new()).unwrap();
        let rows = d.table(&Ident::new("students")).unwrap().rows();
        assert_eq!(rows[1].get(2), &Value::Null);
    }

    #[test]
    fn insert_with_param() {
        let mut d = db();
        let Statement::Insert(i) =
            stmt("insert into students values ($user_id, 'ann', 'FullTime')")
        else {
            panic!()
        };
        execute_insert(&mut d, &i, &ParamScope::with_user("42")).unwrap();
        assert!(d
            .table(&Ident::new("students"))
            .unwrap()
            .rows()[0]
            .get(0)
            .eq(&Value::Str("42".into())));
    }

    #[test]
    fn update_with_filter_and_expression() {
        let mut d = db();
        for (id, n) in [("11", "ann"), ("12", "bob")] {
            let Statement::Insert(i) = stmt(&format!(
                "insert into students values ('{id}', '{n}', 'FullTime')"
            )) else {
                panic!()
            };
            execute_insert(&mut d, &i, &ParamScope::new()).unwrap();
        }
        let Statement::Update(u) =
            stmt("update students set name = 'anne' where student_id = '11'")
        else {
            panic!()
        };
        let out = execute_update(&mut d, &u, &ParamScope::new()).unwrap();
        assert_eq!(out.affected, 1);
        let rows = d.table(&Ident::new("students")).unwrap().rows();
        assert_eq!(rows[0].get(1), &Value::Str("anne".into()));
        assert_eq!(rows[1].get(1), &Value::Str("bob".into()));
    }

    #[test]
    fn delete_with_filter() {
        let mut d = db();
        for id in ["11", "12", "13"] {
            let Statement::Insert(i) =
                stmt(&format!("insert into students values ('{id}', 'x', 'y')"))
            else {
                panic!()
            };
            execute_insert(&mut d, &i, &ParamScope::new()).unwrap();
        }
        let Statement::Delete(del) = stmt("delete from students where student_id <> '12'") else {
            panic!()
        };
        let out = execute_delete(&mut d, &del, &ParamScope::new()).unwrap();
        assert_eq!(out.affected, 2);
        assert_eq!(d.table(&Ident::new("students")).unwrap().len(), 1);
    }

    fn scores_db() -> (Database, Ident) {
        let mut d = db();
        d.create_table(
            "scores",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("points", DataType::Int),
            ]),
            None,
        )
        .unwrap();
        let t = Ident::new("scores");
        for (s, p) in [("11", 4), ("12", 0), ("13", 2)] {
            d.insert(&t, Row(vec![s.into(), Value::Int(p)])).unwrap();
        }
        (d, t)
    }

    #[test]
    fn update_eval_error_mid_statement_leaves_table_unchanged() {
        let (mut d, t) = scores_db();
        let before = d.table(&t).unwrap().rows().to_vec();
        // The assignment divides by zero on the 2nd of 3 matching rows;
        // the 1st row must not have been updated when the error lands.
        let Statement::Update(u) = stmt("update scores set points = 100 / points") else {
            panic!()
        };
        let err = execute_update(&mut d, &u, &ParamScope::new()).unwrap_err();
        assert!(matches!(err, Error::Execution(_)));
        assert_eq!(d.table(&t).unwrap().rows(), &before[..]);
    }

    #[test]
    fn delete_eval_error_mid_statement_leaves_table_unchanged() {
        let (mut d, t) = scores_db();
        let before = d.table(&t).unwrap().rows().to_vec();
        // The filter errors on the 2nd row; the 1st (matching) row must
        // survive.
        let Statement::Delete(del) = stmt("delete from scores where 100 / points > 10") else {
            panic!()
        };
        let err = execute_delete(&mut d, &del, &ParamScope::new()).unwrap_err();
        assert!(matches!(err, Error::Execution(_)));
        assert_eq!(d.table(&t).unwrap().rows(), &before[..]);
    }

    #[test]
    fn delete_by_key_visits_only_the_equal_range() {
        let reg = Ident::new("registered");
        let rows: Vec<Row> = [("x", "c1"), ("y", "c1"), ("x", "c2"), ("z", "c3"), ("x", "c3")]
            .iter()
            .map(|&(s, c)| Row(vec![s.into(), c.into()]))
            .collect();
        // `keyed` indexes the child side of its foreign key; `plain`
        // declares none and scans.
        let mut keyed = db();
        keyed
            .add_foreign_key(fgac_storage::ForeignKey {
                name: Ident::new("fk_reg"),
                child_table: reg.clone(),
                child_columns: vec![Ident::new("student_id")],
                parent_table: Ident::new("students"),
                parent_columns: vec![Ident::new("student_id")],
            })
            .unwrap();
        let mut plain = db();
        let Statement::Delete(del) = stmt("delete from registered where student_id = 'x'") else {
            panic!()
        };
        let filter = bind_table_expr(
            keyed.catalog(),
            &reg,
            del.filter.as_ref().unwrap(),
            &ParamScope::new(),
        )
        .unwrap();
        let (mut seen, mut visited) = (Vec::new(), Vec::new());
        for d in [&mut keyed, &mut plain] {
            d.load(&reg, rows.clone()).unwrap();
            d.commit();
            let t = d.table(&reg).unwrap();
            visited.push(crate::access::index_positions(t, &[&filter], true));
            let mut checked = Vec::new();
            let n = delete_matching(d, &reg, Some(&filter), |row| {
                checked.push(row.clone());
                Ok(())
            });
            assert_eq!(n, Ok(3));
            assert_eq!(d.table(&reg).unwrap().len(), 2);
            seen.push(checked);
        }
        // The keyed delete visits the equal range and nothing else.
        assert_eq!(visited, vec![Some(vec![0, 2, 4]), None]);
        assert_eq!(seen[0], seen[1], "the check sees the same rows in the same order");
        assert_eq!(seen[0], vec![rows[0].clone(), rows[2].clone(), rows[4].clone()]);
    }

    #[test]
    fn multi_row_insert_is_atomic() {
        let mut d = db();
        let Statement::Insert(i) = stmt(
            "insert into students values ('21', 'a', 'x'), ('21', 'b', 'x'), ('22', 'c', 'x')",
        ) else {
            panic!()
        };
        // 2nd row duplicates the 1st row's primary key: nothing lands.
        let err = execute_insert(&mut d, &i, &ParamScope::new()).unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert!(d.table(&Ident::new("students")).unwrap().is_empty());
    }

    #[test]
    fn pk_violation_surfaces() {
        let mut d = db();
        let Statement::Insert(i) = stmt("insert into students values ('11', 'a', 'b')") else {
            panic!()
        };
        execute_insert(&mut d, &i, &ParamScope::new()).unwrap();
        let err = execute_insert(&mut d, &i, &ParamScope::new());
        assert!(matches!(err, Err(Error::Constraint(_))));
    }

    #[test]
    fn audit_conditional_inclusion() {
        let mut d = db();
        for (id, ty) in [("11", "FullTime"), ("12", "PartTime")] {
            let Statement::Insert(i) =
                stmt(&format!("insert into students values ('{id}', 'x', '{ty}')"))
            else {
                panic!()
            };
            execute_insert(&mut d, &i, &ParamScope::new()).unwrap();
        }
        // Constraint: full-time students must be registered (Example 5.3).
        let dep = InclusionDependency {
            name: Ident::new("ft_reg"),
            src_table: Ident::new("students"),
            src_columns: vec![Ident::new("student_id")],
            src_filter: Some(fgac_sql::parse_expr("type = 'FullTime'").unwrap()),
            dst_table: Ident::new("registered"),
            dst_columns: vec![Ident::new("student_id")],
            dst_filter: None,
        };
        // 11 is FullTime and unregistered: one violation. 12 is PartTime:
        // exempt.
        let v = audit_inclusion(&d, &dep).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].get(0), &Value::Str("11".into()));

        let Statement::Insert(i) = stmt("insert into registered values ('11', 'cs101')") else {
            panic!()
        };
        execute_insert(&mut d, &i, &ParamScope::new()).unwrap();
        assert!(audit_inclusion(&d, &dep).unwrap().is_empty());
    }

    #[test]
    fn insert_rejects_non_constant_values() {
        let d = db();
        let Statement::Insert(i) = stmt("insert into students values (name, 'a', 'b')") else {
            panic!()
        };
        assert!(insert_rows(&d, &i, &ParamScope::new()).is_err());
    }
}
