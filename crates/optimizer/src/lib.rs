//! # fgac-optimizer
//!
//! A Volcano-style optimizer (Graefe & McKenna \[13\]) extended with the
//! multi-query-optimization DAG machinery of Roy et al. \[25\], as the
//! paper's Section 5.6 prescribes for validity testing:
//!
//! * [`Dag`] — the AND-OR DAG: *equivalence nodes* (OR) hold alternative
//!   *operation nodes* (AND); hash-consing **unifies** identical
//!   subexpressions, which is exactly how authorization-view DAGs are
//!   matched against the query DAG (Section 5.6.2).
//! * [`expand`] — applies algebraic equivalence rules (join
//!   commutativity/associativity, selection push/split/merge,
//!   projection transposition) to a fixpoint under a node budget,
//!   producing the *expanded DAG* of Figure 1(c).
//! * Subsumption derivations (Section 5.6.1): a selection can be
//!   answered from a weaker selection (via the implication prover), and
//!   a coarser aggregation from a finer one.
//! * [`mark_valid`] — the bottom-up validity marking of Section 5.6.2:
//!   an equivalence node is valid if any child operation is valid; an
//!   operation node is valid if all its children are valid.
//! * [`extract_best`] — classic cost-based plan extraction, used both to
//!   run queries and to measure validity-checking overhead *relative to*
//!   normal optimization (experiment E2).

mod cost;
mod dag;
mod expand;
mod extract;
pub mod rules;
mod viewmatch;

pub use cost::{CostModel, TableStats};
pub use dag::{Dag, DagStats, EqId, OpId, OpNode, Operator};
pub use expand::{expand, expand_counting_passes, ExpandOptions};
pub use extract::{extract_any, extract_best};
pub use viewmatch::{mark_valid, Marking};
