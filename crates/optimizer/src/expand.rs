//! DAG expansion: apply equivalence rules to a fixpoint (Section 5.6.1,
//! Figure 1(c)) under a node budget.

use crate::dag::{Dag, DagStats};
use crate::rules;

/// Expansion controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandOptions {
    /// Stop expanding when the DAG reaches this many operation nodes
    /// (the paper notes the DAG is "at worst exponential in the number of
    /// relations" — the budget keeps worst cases bounded).
    pub max_ops: usize,
    /// Maximum full passes over the DAG.
    pub max_passes: usize,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions {
            max_ops: 20_000,
            max_passes: 12,
        }
    }
}

/// Expands the DAG to a fixpoint (or until budget). Returns final stats.
pub fn expand(dag: &mut Dag, opts: &ExpandOptions) -> DagStats {
    expand_counting_passes(dag, opts).0
}

/// [`expand`], also returning how many passes it ran. The last pass is
/// the first that left the DAG unchanged, unless `max_passes` or
/// `max_ops` stopped expansion before the fixpoint.
///
/// Evaluation is semi-naive: a pass runs the rules only on the ops and
/// classes whose inputs changed since the rules last ran on them (the
/// DAG's dirty flags), since a rule re-run on unchanged inputs adds
/// nothing. Each pass still walks ids in
/// ascending order and tests the flag on reaching an id, so an op
/// dirtied earlier in the same pass is rewritten in it, exactly when a
/// pass over every op would have produced something from it: op
/// creation order, and so every id and `ops_of` list, is that of the
/// every-pass loop.
pub fn expand_counting_passes(dag: &mut Dag, opts: &ExpandOptions) -> (DagStats, usize) {
    let mut passes = 0;
    while passes < opts.max_passes {
        passes += 1;
        let before = dag.stats();

        // Structural rules over the ops that exist when the pass starts.
        for op in dag.all_ops() {
            if dag.stats().op_nodes >= opts.max_ops {
                return (dag.stats(), passes);
            }
            if dag.take_op_dirty(op) {
                rules::apply_structural(dag, op);
            }
        }

        // Class-level derivations: selection subsumption and aggregate
        // rollup (Section 5.6.1's "subsumption derivations").
        for class in dag.classes() {
            if dag.stats().op_nodes >= opts.max_ops {
                return (dag.stats(), passes);
            }
            // The class may have been merged away during this loop.
            if dag.find(class) != class || !dag.take_class_dirty(class) {
                continue;
            }
            rules::selection_subsumption(dag, class);
            rules::aggregate_rollup(dag, class);
        }

        // A pass changes the DAG only by adding op nodes (a new class
        // comes with its first op) and by merging classes, which lowers
        // `eq_nodes`. Equal stats therefore mean an unchanged DAG, and
        // the next pass would repeat this one exactly.
        if dag.stats() == before {
            break;
        }
    }
    (dag.stats(), passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Operator;
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

    /// Figure 1(c): the chain join A ⋈ B ⋈ C expands to contain all
    /// three join orders (modulo commutativity): (AB)C, A(BC), and the
    /// (AC)B order reached through commute+associate chains.
    #[test]
    fn figure1_expansion_produces_all_join_orders() {
        let mut dag = Dag::new();
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
        expand(&mut dag, &ExpandOptions::default());

        // Gather the table-sets of every Join op in the DAG to see which
        // groupings were generated.
        let mut pair_groupings = std::collections::BTreeSet::new();
        for op in dag.all_ops() {
            let node = dag.op(op);
            if !matches!(node.op, Operator::Join { .. }) {
                continue;
            }
            let mut tables: Vec<String> = Vec::new();
            for &c in &node.children {
                if let Some(plan) = crate::extract_any(&dag, c) {
                    let mut t: Vec<String> =
                        plan.scanned_tables().iter().map(|i| i.to_string()).collect();
                    t.sort();
                    tables.push(t.join("+"));
                }
            }
            if tables.iter().any(|t| t.contains('+')) || tables.len() == 2 {
                pair_groupings.insert(tables.join(" JOIN "));
            }
        }
        let all: String = pair_groupings.iter().cloned().collect::<Vec<_>>().join("; ");
        // (A⋈B) and (B⋈C) sub-joins must both exist.
        assert!(all.contains("a JOIN b"), "groupings: {all}");
        assert!(all.contains("b JOIN c"), "groupings: {all}");

        // The root class must have gained alternatives.
        assert!(dag.ops_of(root).len() >= 2);
    }

    #[test]
    fn expansion_is_idempotent_at_fixpoint() {
        let mut dag = Dag::new();
        let p = scan("a").join(
            scan("b"),
            vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::col(2))],
        );
        dag.insert_plan(&p);
        let s1 = expand(&mut dag, &ExpandOptions::default());
        let s2 = expand(&mut dag, &ExpandOptions::default());
        assert_eq!(s1, s2);
    }

    #[test]
    fn budget_caps_expansion() {
        let mut dag = Dag::new();
        // 6-relation chain join.
        let mut p = scan("t0");
        for i in 1..6 {
            let off = 2 * i;
            p = p.join(
                scan(&format!("t{i}")),
                vec![ScalarExpr::eq(
                    ScalarExpr::col(off - 1),
                    ScalarExpr::col(off),
                )],
            );
        }
        dag.insert_plan(&p);
        let stats = expand(
            &mut dag,
            &ExpandOptions {
                max_ops: 500,
                ..Default::default()
            },
        );
        assert!(stats.op_nodes <= 600, "stats: {stats:?}");
    }
}
