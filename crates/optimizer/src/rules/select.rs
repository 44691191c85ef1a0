//! Selection pushdown into joins.

use super::col_range;
use crate::dag::{Dag, OpId, Operator};
use fgac_algebra::normalize_conjuncts;

/// `σ_p(A ⋈_j B)  ≡  σ_pA(A) ⋈_{j ∧ p_mixed} σ_pB(B)`:
/// conjuncts referencing only `A` (resp. `B`) move below the join;
/// cross-side conjuncts merge into the join predicate.
///
/// Returns the number of alternatives added.
pub fn select_push_into_join(dag: &mut Dag, op_id: OpId) -> usize {
    let node = dag.op(op_id);
    let Operator::Select { .. } = node.op else {
        return 0;
    };
    let child = node.children[0];
    let class = dag.class_of(op_id);

    let mut added = 0;
    let members: Vec<OpId> = dag.ops_of(child).to_vec();
    for member in members {
        let inner = dag.op(member);
        let (
            Operator::Select { conjuncts },
            Operator::Join {
                conjuncts: join_conj,
            },
        ) = (&dag.op(op_id).op, &inner.op)
        else {
            continue;
        };
        let (a_class, b_class) = (inner.children[0], inner.children[1]);
        let a_arity = dag.arity(a_class);

        let mut a_only = Vec::new();
        let mut b_only = Vec::new();
        let mut mixed = join_conj.clone();
        for c in conjuncts {
            match col_range(c) {
                Some((_, hi)) if hi < a_arity => a_only.push(c.clone()),
                Some((lo, _)) if lo >= a_arity => b_only.push(c.map_cols(&|i| i - a_arity)),
                _ => mixed.push(c.clone()),
            }
        }

        let new_a = if a_only.is_empty() {
            a_class
        } else {
            dag.add_op(
                Operator::Select {
                    conjuncts: normalize_conjuncts(&a_only),
                },
                vec![a_class],
                None,
            )
        };
        let new_b = if b_only.is_empty() {
            b_class
        } else {
            dag.add_op(
                Operator::Select {
                    conjuncts: normalize_conjuncts(&b_only),
                },
                vec![b_class],
                None,
            )
        };
        dag.add_op(
            Operator::Join {
                conjuncts: normalize_conjuncts(&mixed),
            },
            vec![new_a, new_b],
            Some(class),
        );
        added += 1;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::{Plan, ScalarExpr};
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
    fn pushes_single_side_conjuncts_below() {
        let mut dag = Dag::new();
        // σ_{a.x=1 ∧ b.y=2 ∧ a.y=b.x}(A × B)
        let p = scan("a").join(scan("b"), vec![]).select(vec![
            ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1)),
            ScalarExpr::eq(ScalarExpr::col(3), ScalarExpr::lit(2)),
            ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(2)),
        ]);
        let root = dag.insert_plan(&p);
        let sel_op = dag.ops_of(root)[0];
        assert_eq!(select_push_into_join(&mut dag, sel_op), 1);
        // Root class should now include a Join member.
        let has_join = dag
            .ops_of(root)
            .iter()
            .any(|&o| matches!(dag.op(o).op, Operator::Join { .. }));
        assert!(has_join);
    }
}
