//! # fgac-exec
//!
//! Query execution over [`fgac_storage::Database`] with SQL multiset
//! semantics and three-valued logic.
//!
//! In the Non-Truman model the *original* query executes unmodified once
//! validated (Section 4); in the Truman model the *rewritten* query
//! executes. Both paths land here. Conditional-validity checking (rule
//! C3a condition 3) also calls into the executor to probe whether the
//! instantiated view-remainder `v_r` is non-empty on the current state.
//!
//! Operators: filter, duplicate-preserving project, distinct, hash /
//! nested-loop join (picked per predicate shape), hash aggregate, sort +
//! limit for presentation. They form a push pipeline over borrowed rows
//! (`exec.rs`): a scan offers the table's own rows, the filter, the
//! projection, the aggregate, duplicate elimination and the join's
//! build and probe all read them in place, and a table row is cloned
//! only when it is itself a result row (`select *`) — a value only into
//! a row that is being built. Predicates run through the one borrowing
//! evaluator (`eval.rs`), which allocates nothing for a column/literal
//! comparison. The [`rows_cloned`] counter makes the row copies
//! observable to tests and benches: 0 for a projection or an aggregate
//! over a filtered scan, `|result|` for `select * … where`.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

mod access;
#[cfg(test)]
mod differential;
mod dml;
mod eval;
mod exec;
mod pushdown;

pub use dml::{
    audit_inclusion, bind_update, delete_matching, execute_delete, execute_insert,
    execute_update, insert_all_atomic, insert_rows, update_matching, DmlOutcome,
};
pub use eval::{eval, eval_predicate};
pub use exec::{
    execute_bound, execute_plan, execute_plan_cow, reset_rows_cloned, rows_cloned, run_query_sql,
    QueryResult,
};
pub use pushdown::push_selections;
