//! Authorization of updates (Section 4.4).
//!
//! "We consider updates individually, and checking if the
//! insertion/deletion/update of a particular tuple is authorized only
//! requires evaluation of a (fully instantiated) predicate."
//!
//! An `AUTHORIZE` condition may reference:
//! * bare columns — the inserted tuple (INSERT), the deleted tuple
//!   (DELETE), or the *new* tuple (UPDATE);
//! * `OLD(col)` / `NEW(col)` — the before/after images (UPDATE).
//!
//! A DML statement is authorized iff **every** affected tuple satisfies
//! at least one granted condition for that (action, table). For UPDATE,
//! a condition with a column list applies only when the statement
//! assigns a subset of those columns. A denial names the statement,
//! never the tuple: the tuple may be one the principal cannot read.

use crate::grants::Grants;
use crate::session::Session;
use fgac_algebra::{ArithOp, CmpOp, ScalarExpr};
use fgac_sql::{self as sql, DmlAction};
use fgac_storage::Database;
use fgac_types::{Error, Ident, Result, Row, Value};

/// Checks DML statements against granted `AUTHORIZE` conditions and
/// executes them when every affected tuple is authorized.
pub struct UpdateAuthorizer<'a> {
    pub grants: &'a Grants,
}

impl<'a> UpdateAuthorizer<'a> {
    pub fn new(grants: &'a Grants) -> Self {
        UpdateAuthorizer { grants }
    }

    /// Authorizes and (if allowed) executes an INSERT.
    pub fn insert(
        &self,
        db: &mut Database,
        session: &Session,
        stmt: &sql::Insert,
    ) -> Result<usize> {
        let rows = fgac_exec::insert_rows(db, stmt, session.params())?;
        let conds = self.conditions(db, session, DmlAction::Insert, &stmt.table, &[])?;
        for row in &rows {
            // INSERT: bare columns = the new tuple; OLD is meaningless.
            conds.authorize(&Env {
                old: None,
                new: Some(row),
            })?;
        }
        // Every tuple is authorized: apply all-or-nothing so a
        // constraint failure on a later row cannot strand earlier ones.
        fgac_exec::insert_all_atomic(db, &stmt.table, rows)
    }

    /// Authorizes and (if allowed) executes a DELETE.
    pub fn delete(
        &self,
        db: &mut Database,
        session: &Session,
        stmt: &sql::Delete,
    ) -> Result<usize> {
        let conds = self.conditions(db, session, DmlAction::Delete, &stmt.table, &[])?;
        let filter = stmt
            .filter
            .as_ref()
            .map(|f| fgac_algebra::bind_table_expr(db.catalog(), &stmt.table, f, session.params()))
            .transpose()?;
        // One pass authorizes every victim before any row is removed.
        fgac_exec::delete_matching(db, &stmt.table, filter.as_ref(), |row| {
            // DELETE has no after-image: bare columns (bound to the
            // "new" slots) and OLD() both refer to the deleted tuple.
            conds.authorize(&Env {
                old: Some(row),
                new: Some(row),
            })
        })
    }

    /// Authorizes and (if allowed) executes an UPDATE.
    pub fn update(
        &self,
        db: &mut Database,
        session: &Session,
        stmt: &sql::Update,
    ) -> Result<usize> {
        let assigned: Vec<Ident> = stmt.assignments.iter().map(|(c, _)| c.clone()).collect();
        let conds = self.conditions(db, session, DmlAction::Update, &stmt.table, &assigned)?;
        let (filter, assignments) = fgac_exec::bind_update(db, stmt, session.params())?;
        // One pass computes each old/new image pair and authorizes it
        // before any row is written.
        fgac_exec::update_matching(db, &stmt.table, filter.as_ref(), &assignments, |old, new| {
            conds.authorize(&Env {
                old: Some(old),
                new: Some(new),
            })
        })
    }

    /// Collects and binds the conditions applicable to (action, table)
    /// for this user. For UPDATE, conditions with a column list apply
    /// only when the assigned columns are a subset of the list.
    fn conditions<'s>(
        &self,
        db: &Database,
        session: &'s Session,
        action: DmlAction,
        table: &'s Ident,
        assigned: &[Ident],
    ) -> Result<Conditions<'s>> {
        let mut out = Vec::new();
        for auth in self.grants.update_auths_for(session.user()) {
            if auth.action != action || &auth.table != table {
                continue;
            }
            if action == DmlAction::Update
                && !auth.columns.is_empty()
                && !assigned.iter().all(|c| auth.columns.contains(c))
            {
                continue;
            }
            out.push(bind_condition(db, table, &auth.condition, session)?);
        }
        if out.is_empty() {
            return Err(Error::Unauthorized(format!(
                "no {action} authorization on {table} for user {}",
                session.user()
            )));
        }
        Ok(Conditions {
            conds: out,
            action,
            table,
            user: session.user(),
        })
    }
}

/// The bound conditions one statement's tuples are checked against,
/// and what its denial names.
struct Conditions<'s> {
    conds: Vec<BoundCondition>,
    action: DmlAction,
    table: &'s Ident,
    user: &'s str,
}

impl Conditions<'_> {
    /// `Ok` when the tuple images satisfy at least one condition. The
    /// denial's text depends on the statement's action and table and on
    /// the user, never on the tuple.
    fn authorize(&self, env: &Env<'_>) -> Result<()> {
        for c in &self.conds {
            let mut vals = Vec::with_capacity(2 * c.width);
            match env.old {
                Some(r) => vals.extend(r.values().iter().cloned()),
                None => vals.extend(std::iter::repeat_n(Value::Null, c.width)),
            }
            match env.new {
                Some(r) => vals.extend(r.values().iter().cloned()),
                None => vals.extend(std::iter::repeat_n(Value::Null, c.width)),
            }
            if fgac_exec::eval_predicate(&c.expr, &Row(vals))? {
                return Ok(());
            }
        }
        Err(Error::Unauthorized(format!(
            "{} on {} is not authorized for user {}: a tuple it affects satisfies no granted condition",
            self.action, self.table, self.user
        )))
    }
}

/// A condition bound over the old++new double-width row.
struct BoundCondition {
    expr: ScalarExpr,
    width: usize,
}

/// The tuple images available when evaluating a condition.
struct Env<'a> {
    old: Option<&'a Row>,
    new: Option<&'a Row>,
}

/// Binds an `AUTHORIZE` condition over `[old row ++ new row]`:
/// `OLD(col)` → offset in the old image, `NEW(col)` and bare columns →
/// offset in the new image (falling back to the old image for DELETE,
/// where there is no new tuple — bare columns mean the deleted tuple).
fn bind_condition(
    db: &Database,
    table: &Ident,
    cond: &sql::Expr,
    session: &Session,
) -> Result<BoundCondition> {
    let meta = db
        .catalog()
        .table(table)
        .ok_or_else(|| Error::Bind(format!("unknown table {table}")))?;
    let width = meta.schema.len();
    let expr = bind_expr(cond, &meta.schema, width, session)?;
    Ok(BoundCondition { expr, width })
}

fn bind_expr(
    e: &sql::Expr,
    schema: &fgac_types::Schema,
    width: usize,
    session: &Session,
) -> Result<ScalarExpr> {
    let col_idx = |name: &Ident| -> Result<usize> {
        schema
            .index_of(name)
            .ok_or_else(|| Error::Bind(format!("unknown column {name} in authorize condition")))
    };
    Ok(match e {
        // Bare column: the statement's subject tuple — the inserted
        // tuple, the post-update image, or the deleted tuple (the caller
        // supplies the deleted tuple as both images for DELETE). Bound to
        // the "new" slots (offset width + i).
        // Qualifiers (e.g. `Students.student_id` in the paper's example)
        // are tolerated and ignored: conditions are single-table.
        sql::Expr::Column { name, .. } => ScalarExpr::Col(width + col_idx(name)?),
        sql::Expr::Literal(v) => ScalarExpr::Lit(v.clone()),
        sql::Expr::Param(p) => match session.params().get(p) {
            Some(v) => ScalarExpr::Lit(v.clone()),
            None => return Err(Error::Bind(format!("unbound session parameter ${p}"))),
        },
        sql::Expr::AccessParam(p) => {
            return Err(Error::Unsupported(format!(
                "$$-parameters ($${p}) are not allowed in authorize conditions"
            )))
        }
        sql::Expr::Function { name, args, .. } if name == &Ident::new("old") => {
            let col = single_column_arg(args)?;
            ScalarExpr::Col(col_idx(&col)?)
        }
        sql::Expr::Function { name, args, .. } if name == &Ident::new("new") => {
            let col = single_column_arg(args)?;
            ScalarExpr::Col(width + col_idx(&col)?)
        }
        sql::Expr::Function { name, .. } => {
            return Err(Error::Unsupported(format!(
                "function {name} not allowed in authorize conditions"
            )))
        }
        sql::Expr::Unary { op, expr } => {
            let inner = bind_expr(expr, schema, width, session)?;
            match op {
                sql::UnaryOp::Not => ScalarExpr::Not(Box::new(inner)),
                sql::UnaryOp::Neg => ScalarExpr::Neg(Box::new(inner)),
            }
        }
        sql::Expr::Binary { left, op, right } => {
            let l = bind_expr(left, schema, width, session)?;
            let r = bind_expr(right, schema, width, session)?;
            use sql::BinaryOp as B;
            match op {
                B::And => ScalarExpr::And(vec![l, r]),
                B::Or => ScalarExpr::Or(vec![l, r]),
                B::Eq => ScalarExpr::cmp(CmpOp::Eq, l, r),
                B::NotEq => ScalarExpr::cmp(CmpOp::NotEq, l, r),
                B::Lt => ScalarExpr::cmp(CmpOp::Lt, l, r),
                B::LtEq => ScalarExpr::cmp(CmpOp::LtEq, l, r),
                B::Gt => ScalarExpr::cmp(CmpOp::Gt, l, r),
                B::GtEq => ScalarExpr::cmp(CmpOp::GtEq, l, r),
                B::Add => arith(ArithOp::Add, l, r),
                B::Sub => arith(ArithOp::Sub, l, r),
                B::Mul => arith(ArithOp::Mul, l, r),
                B::Div => arith(ArithOp::Div, l, r),
                B::Mod => arith(ArithOp::Mod, l, r),
            }
        }
        sql::Expr::IsNull { expr, negated } => ScalarExpr::IsNull {
            expr: Box::new(bind_expr(expr, schema, width, session)?),
            negated: *negated,
        },
    })
}

fn arith(op: ArithOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Arith {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

fn single_column_arg(args: &[sql::Expr]) -> Result<Ident> {
    match args {
        [sql::Expr::Column { name, .. }] => Ok(name.clone()),
        _ => Err(Error::Bind(
            "OLD()/NEW() take exactly one column argument".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::{Column, DataType, Schema};

    fn setup() -> (Database, Grants) {
        let mut db = Database::new();
        db.create_table(
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
            None,
        )
        .unwrap();
        db.create_table(
            "students",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("name", DataType::Str),
                Column::new("address", DataType::Str).nullable(),
            ]),
            Some(vec![Ident::new("student_id")]),
        )
        .unwrap();
        db.insert(
            &Ident::new("students"),
            Row(vec!["11".into(), "ann".into(), "old addr".into()]),
        )
        .unwrap();
        db.insert(
            &Ident::new("students"),
            Row(vec!["12".into(), "bob".into(), "elsewhere".into()]),
        )
        .unwrap();

        let mut grants = Grants::new();
        // Section 4.4's two authorizations.
        let sql::Statement::Authorize(a1) = fgac_sql::parse_statement(
            "authorize insert on registered where student_id = $user_id",
        )
        .unwrap() else {
            panic!()
        };
        let sql::Statement::Authorize(a2) = fgac_sql::parse_statement(
            "authorize update on students (address) where old(student_id) = $user_id",
        )
        .unwrap() else {
            panic!()
        };
        grants.grant_update("11", a1);
        grants.grant_update("11", a2);
        (db, grants)
    }

    fn parse_insert(s: &str) -> sql::Insert {
        match fgac_sql::parse_statement(s).unwrap() {
            sql::Statement::Insert(i) => i,
            _ => panic!(),
        }
    }

    fn parse_update(s: &str) -> sql::Update {
        match fgac_sql::parse_statement(s).unwrap() {
            sql::Statement::Update(u) => u,
            _ => panic!(),
        }
    }

    fn parse_delete(s: &str) -> sql::Delete {
        match fgac_sql::parse_statement(s).unwrap() {
            sql::Statement::Delete(d) => d,
            _ => panic!(),
        }
    }

    #[test]
    fn own_registration_insert_allowed() {
        let (mut db, grants) = setup();
        let auth = UpdateAuthorizer::new(&grants);
        let session = Session::new("11");
        let n = auth
            .insert(
                &mut db,
                &session,
                &parse_insert("insert into registered values ('11', 'cs101')"),
            )
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn other_users_registration_insert_rejected() {
        let (mut db, grants) = setup();
        let auth = UpdateAuthorizer::new(&grants);
        let session = Session::new("11");
        let err = auth.insert(
            &mut db,
            &session,
            &parse_insert("insert into registered values ('12', 'cs101')"),
        );
        assert!(matches!(err, Err(Error::Unauthorized(_))));
        // Nothing inserted.
        assert_eq!(db.table(&Ident::new("registered")).unwrap().len(), 0);
    }

    #[test]
    fn mixed_batch_rejected_atomically() {
        let (mut db, grants) = setup();
        let auth = UpdateAuthorizer::new(&grants);
        let session = Session::new("11");
        let err = auth.insert(
            &mut db,
            &session,
            &parse_insert("insert into registered values ('11', 'cs101'), ('12', 'cs101')"),
        );
        assert!(err.is_err());
        assert_eq!(db.table(&Ident::new("registered")).unwrap().len(), 0);
    }

    #[test]
    fn own_address_update_allowed() {
        let (mut db, grants) = setup();
        let auth = UpdateAuthorizer::new(&grants);
        let session = Session::new("11");
        let n = auth
            .update(
                &mut db,
                &session,
                &parse_update(
                    "update students set address = 'new addr' where student_id = '11'",
                ),
            )
            .unwrap();
        assert_eq!(n, 1);
        let rows = db.table(&Ident::new("students")).unwrap().rows();
        assert_eq!(rows[0].get(2), &Value::Str("new addr".into()));
    }

    #[test]
    fn updating_unlisted_column_rejected() {
        // The grant covers only (address); changing name is out of scope.
        let (mut db, grants) = setup();
        let auth = UpdateAuthorizer::new(&grants);
        let session = Session::new("11");
        let err = auth.update(
            &mut db,
            &session,
            &parse_update("update students set name = 'eve' where student_id = '11'"),
        );
        assert!(matches!(err, Err(Error::Unauthorized(_))));
    }

    #[test]
    fn updating_someone_elses_address_rejected() {
        let (mut db, grants) = setup();
        let auth = UpdateAuthorizer::new(&grants);
        let session = Session::new("11");
        let err = auth.update(
            &mut db,
            &session,
            &parse_update("update students set address = 'x' where student_id = '12'"),
        );
        assert!(matches!(err, Err(Error::Unauthorized(_))));
        // Wide update touching both rows also rejected (12's row fails).
        let err = auth.update(
            &mut db,
            &session,
            &parse_update("update students set address = 'x'"),
        );
        assert!(err.is_err());
        // No partial effects.
        let rows = db.table(&Ident::new("students")).unwrap().rows();
        assert_eq!(rows[0].get(2), &Value::Str("old addr".into()));
    }

    #[test]
    fn delete_without_grant_rejected() {
        let (mut db, grants) = setup();
        let auth = UpdateAuthorizer::new(&grants);
        let session = Session::new("11");
        let err = auth.delete(
            &mut db,
            &session,
            &parse_delete("delete from students where student_id = '11'"),
        );
        assert!(matches!(err, Err(Error::Unauthorized(_))));
    }

    #[test]
    fn delete_with_matching_condition_allowed() {
        let (mut db, mut grants) = setup();
        let sql::Statement::Authorize(a) = fgac_sql::parse_statement(
            "authorize delete on registered where student_id = $user_id",
        )
        .unwrap() else {
            panic!()
        };
        grants.grant_update("11", a);
        // Seed rows bypassing checks (admin load).
        db.insert(
            &Ident::new("registered"),
            Row(vec!["11".into(), "cs101".into()]),
        )
        .unwrap();
        db.insert(
            &Ident::new("registered"),
            Row(vec!["12".into(), "cs101".into()]),
        )
        .unwrap();
        let auth = UpdateAuthorizer::new(&grants);
        let session = Session::new("11");
        // Deleting own row works.
        let n = auth
            .delete(
                &mut db,
                &session,
                &parse_delete("delete from registered where student_id = '11'"),
            )
            .unwrap();
        assert_eq!(n, 1);
        // Unfiltered delete hits 12's row -> rejected, nothing deleted.
        let err = auth.delete(&mut db, &session, &parse_delete("delete from registered"));
        assert!(err.is_err());
        assert_eq!(db.table(&Ident::new("registered")).unwrap().len(), 1);
    }

    /// Two states that differ only in the values of a row the principal
    /// cannot read give byte-identical denials.
    #[test]
    fn a_denial_names_the_statement_never_a_hidden_row() {
        let denial = |hidden_grade: i64, sql: &str| {
            let mut db = Database::new();
            db.create_table(
                "grades",
                Schema::new(vec![
                    Column::new("student_id", DataType::Str),
                    Column::new("course_id", DataType::Str),
                    Column::new("grade", DataType::Int),
                ]),
                None,
            )
            .unwrap();
            for (student, grade) in [("11", 90), ("12", hidden_grade)] {
                db.insert(
                    &Ident::new("grades"),
                    Row(vec![student.into(), "cs101".into(), Value::Int(grade)]),
                )
                .unwrap();
            }
            let mut grants = Grants::new();
            for action in ["update", "delete"] {
                let sql::Statement::Authorize(a) = fgac_sql::parse_statement(&format!(
                    "authorize {action} on grades where student_id = $user_id"
                ))
                .unwrap() else {
                    panic!()
                };
                grants.grant_update("11", a);
            }
            let auth = UpdateAuthorizer::new(&grants);
            let session = Session::new("11");
            let outcome = match fgac_sql::parse_statement(sql).unwrap() {
                sql::Statement::Update(u) => auth.update(&mut db, &session, &u),
                sql::Statement::Delete(d) => auth.delete(&mut db, &session, &d),
                _ => panic!("{sql}"),
            };
            outcome.unwrap_err()
        };
        for sql in [
            "update grades set grade = grade where student_id <> '11'",
            "delete from grades where grade < 100",
        ] {
            let (a, b) = (denial(70, sql), denial(60, sql));
            assert!(matches!(a, Error::Unauthorized(_)), "{sql}: {a:?}");
            assert_eq!(a.to_string(), b.to_string(), "{sql}");
        }
    }

    #[test]
    fn new_old_images_available_in_update_condition() {
        let (mut db, mut grants) = setup();
        // Grades can only be raised, never lowered.
        db.create_table(
            "scores",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("score", DataType::Int),
            ]),
            None,
        )
        .unwrap();
        db.insert(&Ident::new("scores"), Row(vec!["11".into(), Value::Int(50)]))
            .unwrap();
        let sql::Statement::Authorize(a) = fgac_sql::parse_statement(
            "authorize update on scores where new(score) >= old(score)",
        )
        .unwrap() else {
            panic!()
        };
        grants.grant_update("t", a);
        let auth = UpdateAuthorizer::new(&grants);
        let session = Session::new("t");
        let n = auth
            .update(&mut db, &session, &parse_update("update scores set score = 60"))
            .unwrap();
        assert_eq!(n, 1);
        let err = auth.update(&mut db, &session, &parse_update("update scores set score = 10"));
        assert!(matches!(err, Err(Error::Unauthorized(_))));
    }
}
