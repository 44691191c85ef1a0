//! Prepared statements (Section 5.6's optimization target).
//!
//! "Most uses of a database are from application programs, which execute
//! the same queries repeatedly, albeit with different constant values,
//! for different users. For ODBC/JDBC prepared statements, we can
//! analyze the query ... and come up with a cheap test that is used each
//! time the query is executed."
//!
//! A [`Prepared`] query is parsed once; every execution binds it with
//! the session's parameters and goes through the engine's validity
//! cache, so re-executions with the same instantiation cost a
//! fingerprint lookup (see experiment E5). Templates written with
//! `$user_id` hit the cache *per user*, templates with `$`-parameters
//! hit per parameter value — exactly the "cheap per-execution test".

use crate::engine::{Engine, EngineResponse};
use crate::session::Session;
use fgac_sql::Statement;
use fgac_types::{Error, Result};

/// A parsed, reusable statement.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) stmt: Statement,
    pub(crate) text: String,
}

impl Prepared {
    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.text
    }

    pub fn is_query(&self) -> bool {
        matches!(self.stmt, Statement::Query(_))
    }
}

impl Engine {
    /// Parses a statement for repeated execution.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let stmt = fgac_sql::parse_statement(sql)?;
        match stmt {
            Statement::Query(_) | Statement::Insert(_) | Statement::Update(_)
            | Statement::Delete(_) => Ok(Prepared {
                stmt,
                text: sql.to_string(),
            }),
            _ => Err(Error::Unsupported(
                "only queries and DML can be prepared".into(),
            )),
        }
    }

    /// Executes a prepared statement for a session (validity checked,
    /// cache-accelerated).
    pub fn execute_prepared(
        &mut self,
        session: &Session,
        prepared: &Prepared,
    ) -> Result<EngineResponse> {
        match &prepared.stmt {
            // Queries ride the full hot path: the prepared text keys the
            // plan cache, so a re-execution reuses the cached bound plan
            // (no re-bind) and its precomputed validity fingerprint.
            Statement::Query(q) => {
                let cached = match self.plan_cache().get(&prepared.text, session.params()) {
                    Some(c) => c,
                    None => self.plan_query(session, &prepared.text, q)?,
                };
                self.run_query(session, &cached, None)
            }
            // DML re-dispatches on the stored statement; parsing is
            // skipped, per-tuple authorization runs every time.
            _ => self.execute_statement(session, &prepared.stmt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.admin_script(
            "create table grades (student_id varchar not null, \
               course_id varchar not null, grade int);
             create authorization view MyGrades as \
               select * from grades where student_id = $user_id;
             insert into grades values ('11','cs101',90), ('12','cs101',70);",
        )
        .unwrap();
        e.grant_view("11", "mygrades").unwrap();
        e.grant_view("12", "mygrades").unwrap();
        e
    }

    #[test]
    fn prepared_template_reuses_cache_per_user() {
        let mut e = engine();
        // One template, two users: the $user_id makes it valid for both,
        // each against their own instantiation.
        let p = e
            .prepare("select grade from grades where student_id = $user_id")
            .unwrap();
        assert!(p.is_query());
        for user in ["11", "12", "11", "12", "11"] {
            let s = Session::new(user);
            let r = e.execute_prepared(&s, &p).unwrap();
            assert_eq!(r.rows().unwrap().rows.len(), 1);
        }
        let (hits, _) = e.cache().stats();
        assert!(hits >= 3, "repeat executions must hit the cache");
    }

    #[test]
    fn prepared_dml_is_authorized_per_execution() {
        let mut e = engine();
        e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
            .unwrap();
        let p = e
            .prepare("insert into grades values ($user_id, 'cs202', 50)")
            .unwrap();
        assert!(!p.is_query());
        // Authorized for 11...
        assert!(e.execute_prepared(&Session::new("11"), &p).is_ok());
        // ...but 12 has no insert authorization.
        assert!(e.execute_prepared(&Session::new("12"), &p).is_err());
    }

    #[test]
    fn ddl_cannot_be_prepared() {
        let e = engine();
        assert!(e.prepare("create table t (a int)").is_err());
    }
}
