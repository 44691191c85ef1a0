//! Join commutativity and associativity (the rules used for Figure 1).

use super::col_range;
use crate::dag::{Dag, OpId, Operator};
use fgac_algebra::{normalize_conjuncts, ScalarExpr};

/// Join commutativity: `A ⋈_p B  ≡  π_swap(B ⋈_p' A)`.
///
/// Column references are positional, so the swapped join is wrapped in a
/// permutation projection restoring the original column order.
pub fn join_commute(dag: &mut Dag, op_id: OpId) -> bool {
    let node = dag.op(op_id);
    let Operator::Join { conjuncts } = &node.op else {
        return false;
    };
    let (l, r) = (node.children[0], node.children[1]);
    let (la, ra) = (dag.arity(l), dag.arity(r));

    // Remap: left cols shift right by ra, right cols shift left by la.
    let remapped: Vec<ScalarExpr> = conjuncts
        .iter()
        .map(|c| c.map_cols(&|i| if i < la { i + ra } else { i - la }))
        .collect();
    let class = dag.class_of(op_id);
    let swapped = dag.add_op(
        Operator::Join {
            conjuncts: normalize_conjuncts(&remapped),
        },
        vec![r, l],
        None,
    );
    // Permutation projection restoring A ++ B order.
    let perm: Vec<ScalarExpr> = (0..la)
        .map(|i| ScalarExpr::Col(ra + i))
        .chain((0..ra).map(ScalarExpr::Col))
        .collect();
    dag.add_op(Operator::Project { exprs: perm }, vec![swapped], Some(class));
    true
}

/// Join associativity: `(A ⋈ B) ⋈ C  ≡  A ⋈ (B ⋈ C)`.
///
/// With positional columns and left-to-right concatenation both shapes
/// produce columns in order `A ++ B ++ C`, so only the *placement* of
/// conjuncts changes: a conjunct goes to the inner `(B ⋈ C)` join iff it
/// references no `A` column.
///
/// Returns the number of alternatives added.
pub fn join_associate(dag: &mut Dag, op_id: OpId) -> usize {
    let node = dag.op(op_id);
    let Operator::Join { .. } = node.op else {
        return 0;
    };
    let (left_class, c_class) = (node.children[0], node.children[1]);
    let class = dag.class_of(op_id);
    let c_arity = dag.arity(c_class);

    let mut added = 0;
    // For every join-shaped member of the left child: ((A ⋈ B) ⋈ C).
    let members: Vec<OpId> = dag.ops_of(left_class).to_vec();
    for member in members {
        let inner = dag.op(member);
        let (Operator::Join { conjuncts: top }, Operator::Join { conjuncts: bot }) =
            (&dag.op(op_id).op, &inner.op)
        else {
            continue;
        };
        let (a_class, b_class) = (inner.children[0], inner.children[1]);
        let a_arity = dag.arity(a_class);
        let b_arity = dag.arity(b_class);
        debug_assert_eq!(a_arity + b_arity, dag.arity(left_class));

        // Partition all conjuncts by lowest referenced column.
        let mut inner_conj = Vec::new(); // references only B/C
        let mut outer_conj = Vec::new(); // references A (or nothing)
        for c in top.iter().chain(bot.iter()) {
            match col_range(c) {
                Some((lo, hi)) => {
                    debug_assert!(hi < a_arity + b_arity + c_arity);
                    if lo >= a_arity {
                        inner_conj.push(c.map_cols(&|i| i - a_arity));
                    } else {
                        outer_conj.push(c.clone());
                    }
                }
                None => outer_conj.push(c.clone()),
            }
        }

        let bc = dag.add_op(
            Operator::Join {
                conjuncts: normalize_conjuncts(&inner_conj),
            },
            vec![b_class, c_class],
            None,
        );
        dag.add_op(
            Operator::Join {
                conjuncts: normalize_conjuncts(&outer_conj),
            },
            vec![a_class, bc],
            Some(class),
        );
        added += 1;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_any;
    use fgac_algebra::Plan;
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
    fn commute_preserves_class() {
        let mut dag = Dag::new();
        let p = scan("a").join(
            scan("b"),
            vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::col(2))],
        );
        let root = dag.insert_plan(&p);
        let join_op = dag.ops_of(root)[0];
        assert!(join_commute(&mut dag, join_op));
        // Class now has 2 members: the join and the projected swap.
        assert_eq!(dag.ops_of(root).len(), 2);
        // Double application is a no-op thanks to hash-consing.
        let before = dag.stats();
        join_commute(&mut dag, join_op);
        assert_eq!(dag.stats(), before);
    }

    #[test]
    fn associate_regroups() {
        let mut dag = Dag::new();
        // (A ⋈_{a.y=b.x} B) ⋈_{b.y=c.x} C
        let p = scan("a")
            .join(
                scan("b"),
                vec![ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(2))],
            )
            .join(
                scan("c"),
                vec![ScalarExpr::eq(ScalarExpr::col(3), ScalarExpr::col(4))],
            );
        let root = dag.insert_plan(&p);
        let top = dag.ops_of(root)[0];
        assert_eq!(join_associate(&mut dag, top), 1);
        assert_eq!(dag.ops_of(root).len(), 2);
        // Some member of the root class is now A ⋈ (B ⋈ C): check a B⋈C
        // class exists by extracting and scanning shapes.
        let plan = extract_any(&dag, root).unwrap();
        assert_eq!(plan.scanned_tables().len(), 3);
    }
}
