//! The Truman model (Section 3): transparent query modification.
//!
//! "The idea behind the Truman security model is to provide each user
//! with a personal and restricted view of the complete database. User
//! queries are modified transparently to make sure that the user does not
//! get to see anything more than her view of the database."
//!
//! Two policy styles are supported, mirroring the paper:
//!
//! * [`TrumanPolicy::substitute_view`] — the general Truman model: each
//!   base relation is replaced by a (parameterized) authorization view of
//!   that relation (Section 3.2).
//! * [`TrumanPolicy::append_predicate`] — Oracle VPD style: a policy
//!   function contributes `WHERE`-clause predicates per relation
//!   (Section 3.1).
//!
//! This is the **baseline the Non-Truman model argues against**: it
//! silently changes query semantics (the `avg(grade)` example of Section
//! 3.3) and introduces redundant joins/predicates that cost execution
//! time (experiment E4).

use crate::admitted::Admitted;
use crate::session::Session;
use fgac_sql::{Expr, Query, TableRef};
use fgac_storage::Database;
use fgac_types::{Error, Ident, Result};
use std::collections::BTreeMap;

/// A per-relation Truman policy.
#[derive(Debug, Clone, Default)]
pub struct TrumanPolicy {
    /// table -> replacement authorization view name (must exist in the
    /// catalog; typically a parameterized view).
    view_substitutions: BTreeMap<Ident, Ident>,
    /// table -> predicate appended for that table (over the table's
    /// columns, may use `$` parameters).
    predicates: BTreeMap<Ident, Expr>,
}

impl TrumanPolicy {
    pub fn new() -> Self {
        Self::default()
    }

    /// Truman model proper: replace `table` with `view` wherever it
    /// appears in a query.
    pub fn substitute_view(mut self, table: impl Into<Ident>, view: impl Into<Ident>) -> Self {
        self.view_substitutions.insert(table.into(), view.into());
        self
    }

    /// VPD style: append `predicate` (SQL text over the table's columns)
    /// whenever `table` appears in a query.
    pub fn append_predicate(mut self, table: impl Into<Ident>, predicate: &str) -> Result<Self> {
        let expr = fgac_sql::parse_expr(predicate)?;
        self.predicates.insert(table.into(), expr);
        Ok(self)
    }

    /// Rewrites a query per the policy. Every rewritten table keeps its
    /// original binding name (via an alias), so the rest of the query is
    /// untouched — the modification is transparent, which is exactly the
    /// problem.
    pub fn rewrite(&self, query: &Query) -> Result<Query> {
        let mut out = query.clone();
        let mut appended: Vec<Expr> = Vec::new();
        for tref in &mut out.from {
            self.rewrite_table(tref, &mut appended)?;
            for join in &mut tref.joins {
                // Table substitution inside JOIN syntax: handled by
                // rewriting name + alias the same way.
                let mut tmp = TableRef {
                    name: join.table.clone(),
                    alias: join.alias.clone(),
                    joins: vec![],
                };
                self.rewrite_table(&mut tmp, &mut appended)?;
                join.table = tmp.name;
                join.alias = tmp.alias;
            }
        }
        for pred in appended {
            out.selection = Some(match out.selection.take() {
                Some(existing) => Expr::and(existing, pred),
                None => pred,
            });
        }
        Ok(out)
    }

    fn rewrite_table(&self, tref: &mut TableRef, appended: &mut Vec<Expr>) -> Result<()> {
        let binding = tref.binding_name().clone();
        if let Some(view) = self.view_substitutions.get(&tref.name) {
            tref.alias = Some(binding.clone());
            tref.name = view.clone();
        }
        if let Some(pred) = self.predicates.get(&tref.name) {
            // Qualify unqualified columns with the binding name so the
            // predicate lands on the right table instance.
            appended.push(qualify(pred, &binding));
        }
        Ok(())
    }
}

/// Qualifies bare column references with `binding`.
fn qualify(e: &Expr, binding: &Ident) -> Expr {
    match e {
        Expr::Column {
            qualifier: None,
            name,
        } => Expr::Column {
            qualifier: Some(binding.clone()),
            name: name.clone(),
        },
        Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) | Expr::AccessParam(_) => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(qualify(expr, binding)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(qualify(left, binding)),
            op: *op,
            right: Box::new(qualify(right, binding)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(qualify(expr, binding)),
            negated: *negated,
        },
        Expr::Function {
            name,
            args,
            distinct,
            star,
        } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| qualify(a, binding)).collect(),
            distinct: *distinct,
            star: *star,
        },
    }
}

/// Executes `sql` under the Truman model: rewrite transparently, then
/// run the *modified* query. The caller never learns the query was
/// changed — hence "Truman's world". The rewrite is the admission, so
/// the rewritten query is admitted without a validity check.
pub fn truman_execute(
    db: &Database,
    policy: &TrumanPolicy,
    session: &Session,
    sql: &str,
) -> Result<fgac_exec::QueryResult> {
    let query = match fgac_sql::parse_statement(sql)? {
        fgac_sql::Statement::Query(q) => q,
        _ => return Err(Error::Unsupported("truman_execute takes a SELECT".into())),
    };
    let rewritten = policy.rewrite(&query)?;
    let bound = fgac_algebra::bind_query(db.catalog(), &rewritten, session.params())?;
    Admitted::new(db, &bound).execute()
}

/// The rewritten SQL text (for inspection / the E4 bench's redundancy
/// counting).
pub fn truman_rewrite_sql(policy: &TrumanPolicy, sql: &str) -> Result<String> {
    let query = match fgac_sql::parse_statement(sql)? {
        fgac_sql::Statement::Query(q) => q,
        _ => return Err(Error::Unsupported("expected a SELECT".into())),
    };
    Ok(fgac_sql::printer::print_query(&policy.rewrite(&query)?))
}

/// Counts base-relation scans in the plan the Truman rewrite executes vs
/// the original — the paper's "redundant joins" cost (Section 3.3).
pub fn scan_count_delta(
    db: &Database,
    policy: &TrumanPolicy,
    session: &Session,
    sql: &str,
) -> Result<(usize, usize)> {
    let query = match fgac_sql::parse_statement(sql)? {
        fgac_sql::Statement::Query(q) => q,
        _ => return Err(Error::Unsupported("expected a SELECT".into())),
    };
    let original = fgac_algebra::bind_query(db.catalog(), &query, session.params())?;
    let rewritten =
        fgac_algebra::bind_query(db.catalog(), &policy.rewrite(&query)?, session.params())?;
    Ok((
        original.plan.scanned_tables().len(),
        rewritten.plan.scanned_tables().len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_storage::ViewDef;
    use fgac_types::{Column, DataType, Row, Schema, Value};

    /// Section 3.3's schema + data: the misleading-average scenario.
    fn db() -> Database {
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
        let g = Ident::new("grades");
        for (s, c, gr) in [
            ("11", "cs101", 60),
            ("12", "cs101", 90),
            ("13", "cs101", 90),
        ] {
            db.insert(&g, Row(vec![s.into(), c.into(), Value::Int(gr)]))
                .unwrap();
        }
        db.add_view(ViewDef {
            name: Ident::new("mygrades"),
            authorization: true,
            query: fgac_sql::parse_query("select * from grades where student_id = $user_id")
                .unwrap(),
        })
        .unwrap();
        db
    }

    #[test]
    fn misleading_average_of_section_3_3() {
        // Query: select avg(grade) from Grades. True answer: 80.
        // Truman answer for user 11: avg of her own grades = 60 — the
        // paper's flagship misleading result.
        let db = db();
        let policy = TrumanPolicy::new().substitute_view("grades", "mygrades");
        let session = Session::new("11");
        let r = truman_execute(&db, &policy, &session, "select avg(grade) from grades").unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Double(60.0));

        // Unrestricted execution gives the true average.
        let truth = fgac_exec::run_query_sql(
            &db,
            "select avg(grade) from grades",
            session.params(),
        )
        .unwrap();
        assert_eq!(truth.rows[0].get(0), &Value::Double(80.0));
    }

    #[test]
    fn vpd_predicate_append_matches_view_substitution() {
        let db = db();
        let vpd = TrumanPolicy::new()
            .append_predicate("grades", "student_id = $user_id")
            .unwrap();
        let tv = TrumanPolicy::new().substitute_view("grades", "mygrades");
        let session = Session::new("12");
        let q = "select grade from grades where course_id = 'cs101'";
        let a = truman_execute(&db, &vpd, &session, q).unwrap();
        let b = truman_execute(&db, &tv, &session, q).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.rows, vec![Row(vec![Value::Int(90)])]);
    }

    #[test]
    fn rewrite_preserves_aliases() {
        let policy = TrumanPolicy::new().substitute_view("grades", "mygrades");
        let out = truman_rewrite_sql(
            &policy,
            "select g.grade from grades g where g.course_id = 'cs101'",
        )
        .unwrap();
        assert!(out.contains("mygrades AS g"), "{out}");
    }

    #[test]
    fn rewrite_without_alias_keeps_binding_name() {
        let policy = TrumanPolicy::new().substitute_view("grades", "mygrades");
        let out =
            truman_rewrite_sql(&policy, "select grades.grade from grades").unwrap();
        // `grades.grade` must still resolve: view aliased back to grades.
        assert!(out.contains("mygrades AS grades"), "{out}");
        let db = db();
        let r = truman_execute(
            &db,
            &policy,
            &Session::new("11"),
            "select grades.grade from grades",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn predicate_append_qualifies_per_instance() {
        // Self-join: predicate must constrain each instance separately.
        let db = db();
        let vpd = TrumanPolicy::new()
            .append_predicate("grades", "student_id = $user_id")
            .unwrap();
        let r = truman_execute(
            &db,
            &vpd,
            &Session::new("11"),
            "select a.grade, b.grade from grades a, grades b where a.course_id = b.course_id",
        )
        .unwrap();
        // User 11 has one grade; self join restricted to her rows = 1 row.
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn truman_rewrite_adds_redundant_scans() {
        // When the policy view itself contains a join, the rewritten
        // query scans more relations — the E4 redundancy effect.
        let mut db = db();
        db.create_table(
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
            None,
        )
        .unwrap();
        db.add_view(ViewDef {
            name: Ident::new("costudentgrades"),
            authorization: true,
            query: fgac_sql::parse_query(
                "select grades.* from grades, registered \
                 where registered.student_id = $user_id \
                 and grades.course_id = registered.course_id",
            )
            .unwrap(),
        })
        .unwrap();
        let policy = TrumanPolicy::new().substitute_view("grades", "costudentgrades");
        let session = Session::new("11");
        let (orig, rewritten) = scan_count_delta(
            &db,
            &policy,
            &session,
            "select grade from grades where course_id = 'cs101'",
        )
        .unwrap();
        assert_eq!(orig, 1);
        assert_eq!(rewritten, 2);
    }
}
