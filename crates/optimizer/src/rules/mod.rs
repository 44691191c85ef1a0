//! Algebraic equivalence rules applied during DAG expansion.
//!
//! Each rule inspects one operation node (or one equivalence class) and
//! adds alternative operation nodes *into the same equivalence class*,
//! exactly as the paper describes: "Applying an equivalence rule to an
//! operation node results in an alternative equivalent expression, which
//! is added as another child of the parent equivalence node" (Section
//! 5.6.1).
//!
//! All rules are multiset-sound. Column references are positional, so
//! rules that reorder inputs remap offsets explicitly (join commutativity
//! wraps the swapped join in a permutation projection to preserve output
//! column order).

mod aggregate;
mod join;
mod project;
mod select;
mod subsume;

pub use aggregate::{agg_select_commute, global_agg_to_grouped};
pub use join::{join_associate, join_commute};
pub use project::{project_select_transpose, select_project_transpose};
pub use select::select_push_into_join;
pub use subsume::{aggregate_rollup, selection_subsumption};

use crate::dag::{Dag, OpId};

/// Applies every structural (per-operation) rule to `op`. Returns how
/// many rule applications were attempted, whether or not they changed
/// the DAG: a rewrite whose result hash-consing finds already present
/// still counts (`join_commute` counts every join). Compare
/// [`Dag::stats`] before and after to learn whether the DAG changed.
pub fn apply_structural(dag: &mut Dag, op: OpId) -> usize {
    let mut attempts = 0;
    attempts += join_commute(dag, op) as usize;
    attempts += join_associate(dag, op);
    attempts += select_push_into_join(dag, op);
    attempts += project_select_transpose(dag, op);
    attempts += select_project_transpose(dag, op);
    attempts += agg_select_commute(dag, op);
    attempts += global_agg_to_grouped(dag, op);
    attempts
}

/// Shared helper: the lowest and highest column offsets a conjunct
/// references, if any.
pub(crate) fn col_range(e: &fgac_algebra::ScalarExpr) -> Option<(usize, usize)> {
    let cols = e.referenced_cols();
    match (cols.first(), cols.last()) {
        (Some(&lo), Some(&hi)) => Some((lo, hi)),
        _ => None,
    }
}
