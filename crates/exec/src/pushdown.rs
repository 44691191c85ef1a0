//! Selection pushdown pre-pass for execution.
//!
//! The binder (deliberately) emits a canonical shape — one selection
//! over a cross-join chain — which is ideal for DAG matching but
//! catastrophic to interpret directly (the executor would materialize
//! the cross product). This pass pushes conjuncts to their lowest
//! position so the hash-join path sees its equi-join keys. It is a
//! deterministic, semantics-preserving rewrite (the same partition rule
//! the optimizer's `select_push_into_join` uses), applied before every
//! execution; full cost-based optimization remains the optimizer's job.
//!
//! Only a join gives a selection somewhere to go, so a plan without one
//! — every single-table query — is handed back borrowed: no
//! normalization and no copy of the plan (string literals included) on
//! the per-request path. The executor does not depend on the normal
//! form; it passes identity projections through by itself.

use fgac_algebra::{normalize, normalize_conjuncts, Plan};
use std::borrow::Cow;

/// Pushes selections down through joins, recursively. Returns the plan
/// itself when it has no join.
pub fn push_selections(plan: &Plan) -> Cow<'_, Plan> {
    if has_join(plan) {
        Cow::Owned(push(&normalize(plan)))
    } else {
        Cow::Borrowed(plan)
    }
}

fn has_join(plan: &Plan) -> bool {
    match plan {
        Plan::Scan { .. } => false,
        Plan::Join { .. } => true,
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Aggregate { input, .. } => has_join(input),
    }
}

fn push(plan: &Plan) -> Plan {
    match plan {
        Plan::Select { input, conjuncts } => {
            let inner = push(input);
            if let Plan::Join {
                left,
                right,
                conjuncts: jc,
            } = inner
            {
                let la = left.arity();
                let mut a_only = Vec::new();
                let mut b_only = Vec::new();
                let mut mixed = jc;
                for c in conjuncts {
                    let cols = c.referenced_cols();
                    if !cols.is_empty() && cols.iter().all(|&i| i < la) {
                        a_only.push(c.clone());
                    } else if !cols.is_empty() && cols.iter().all(|&i| i >= la) {
                        b_only.push(c.map_cols(&|i| i - la));
                    } else {
                        mixed.push(c.clone());
                    }
                }
                let new_left = if a_only.is_empty() {
                    *left
                } else {
                    push(&Plan::Select {
                        input: left,
                        conjuncts: normalize_conjuncts(&a_only),
                    })
                };
                let new_right = if b_only.is_empty() {
                    *right
                } else {
                    push(&Plan::Select {
                        input: right,
                        conjuncts: normalize_conjuncts(&b_only),
                    })
                };
                return Plan::Join {
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    conjuncts: normalize_conjuncts(&mixed),
                };
            }
            Plan::Select {
                input: Box::new(inner),
                conjuncts: conjuncts.clone(),
            }
        }
        Plan::Project { input, exprs } => Plan::Project {
            input: Box::new(push(input)),
            exprs: exprs.clone(),
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(push(input)),
        },
        Plan::Join {
            left,
            right,
            conjuncts,
        } => Plan::Join {
            left: Box::new(push(left)),
            right: Box::new(push(right)),
            conjuncts: conjuncts.clone(),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(push(input)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        Plan::Scan { .. } => plan.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::{CmpOp, ScalarExpr};
    use fgac_types::{Column, DataType, Schema};

    fn scan(t: &str) -> Plan {
        Plan::scan(
            t,
            Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("y", DataType::Int),
            ]),
        )
    }

    #[test]
    fn pushes_through_cross_join() {
        // σ_{a.x=1 ∧ a.y=b.x ∧ b.y>2}(A × B)
        let p = scan("a").join(scan("b"), vec![]).select(vec![
            ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1)),
            ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(2)),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(3), ScalarExpr::lit(2)),
        ]);
        let pushed = push_selections(&p);
        let Plan::Join {
            left,
            right,
            conjuncts,
        } = &*pushed
        else {
            panic!("expected join at top, got {pushed}");
        };
        assert!(matches!(**left, Plan::Select { .. }));
        assert!(matches!(**right, Plan::Select { .. }));
        assert_eq!(conjuncts.len(), 1, "equi-join conjunct stays on the join");
    }

    #[test]
    fn deep_chains_push_fully() {
        // σ over ((A × B) × C): conjuncts land at each level.
        let p = scan("a")
            .join(scan("b"), vec![])
            .join(scan("c"), vec![])
            .select(vec![
                ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(7)),
                ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(2)),
                ScalarExpr::eq(ScalarExpr::col(3), ScalarExpr::col(4)),
            ]);
        let pushed = push_selections(&p);
        // No Select-over-Join remains anywhere.
        let mut ok = true;
        pushed.visit(&mut |n| {
            if let Plan::Select { input, .. } = n {
                if matches!(**input, Plan::Join { .. }) {
                    ok = false;
                }
            }
        });
        assert!(ok, "selection left above a join:\n{pushed}");
    }

    #[test]
    fn joinless_plan_is_borrowed() {
        let p = scan("a")
            .select(vec![ScalarExpr::eq(
                ScalarExpr::col(0),
                ScalarExpr::lit("x"),
            )])
            .project(vec![ScalarExpr::col(1)]);
        assert!(matches!(push_selections(&p), Cow::Borrowed(_)));
        let joined = scan("a").join(scan("b"), vec![]);
        assert!(matches!(push_selections(&joined), Cow::Owned(_)));
    }
}
