//! DAG expansion stops at its fixpoint: the first pass that leaves the
//! DAG unchanged. Stopping there must give exactly the DAG that running
//! every allowed pass gives, on Figure 1's chain joins (E1) and on the
//! query shapes of a cold admission over the university views, and on
//! seeded random plans whose roots share subtrees.
//!
//! A cold check expands the views' DAG once and then only the query laid
//! over a copy of it. That overlay must reach the query verdict of one
//! DAG built from the query and the views together and, where both
//! expansions converge, the same classes and operations; on the
//! cold-admission shapes, the very same DAG size.

use fgac::algebra::{bind_query, normalize, AggExpr, AggFunc, CmpOp, Plan, ScalarExpr};
use fgac::core::nontruman::distinct_elimination;
use fgac::core::{AuthorizationView, Session};
use fgac::optimizer::{
    expand_counting_passes, mark_valid, rules, Dag, DagStats, EqId, ExpandOptions,
};
use fgac::storage::Database;
use fgac::types::{Column, DataType, Schema};
use fgac::workload::university::{build, University, UniversityConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The reference: every pass `max_passes` allows, no fixpoint test.
fn expand_every_pass(dag: &mut Dag, opts: &ExpandOptions) -> DagStats {
    for _ in 0..opts.max_passes {
        for op in dag.all_ops() {
            if dag.stats().op_nodes >= opts.max_ops {
                return dag.stats();
            }
            rules::apply_structural(dag, op);
        }
        for class in dag.classes() {
            if dag.stats().op_nodes >= opts.max_ops {
                return dag.stats();
            }
            if dag.find(class) != class {
                continue;
            }
            rules::selection_subsumption(dag, class);
            rules::aggregate_rollup(dag, class);
        }
    }
    dag.stats()
}

/// A DAG holding `plans`, and the root class of each.
fn dag_of(plans: &[Plan]) -> (Dag, Vec<EqId>) {
    let mut dag = Dag::new();
    let roots = plans.iter().map(|p| dag.insert_plan(p)).collect();
    (dag, roots)
}

/// Expands `plans` both ways and checks that they agree; returns the
/// DAG's stats and the passes the fixpoint test ran.
fn assert_fixpoint_matches_reference(name: &str, plans: &[Plan]) -> (DagStats, usize) {
    let opts = ExpandOptions::default();
    let (mut dag, roots) = dag_of(plans);
    let (stats, passes) = expand_counting_passes(&mut dag, &opts);
    let (mut reference, ref_roots) = dag_of(plans);
    let ref_stats = expand_every_pass(&mut reference, &opts);

    assert_eq!(stats, ref_stats, "{name}: stats after {passes} passes");
    for (&root, &ref_root) in roots.iter().zip(&ref_roots) {
        assert_eq!(dag.find(root), reference.find(ref_root), "{name}: root class");
        assert_eq!(dag.ops_of(root), reference.ops_of(ref_root), "{name}: root ops");
    }
    let classes = dag.classes();
    assert_eq!(stats.eq_nodes, classes.len(), "{name}: live class count");
    assert_eq!(classes, reference.classes(), "{name}: classes");
    for class in classes {
        assert_eq!(dag.ops_of(class), reference.ops_of(class), "{name}: class {class:?}");
    }

    // Stopped by the node budget, not by a pass that changed nothing:
    // there is no last pass to check.
    if stats.op_nodes >= opts.max_ops {
        eprintln!("{name}: stopped by the node budget at {} ops in pass {passes}", stats.op_nodes);
        return (stats, passes);
    }
    // Converged before the cap: pass `passes` was the first unchanged
    // one, so one pass fewer gives the same DAG and two fewer do not.
    if passes < opts.max_passes {
        let capped = |max_passes: usize| {
            let (mut dag, _) = dag_of(plans);
            expand_counting_passes(&mut dag, &ExpandOptions { max_passes, ..opts })
        };
        assert_eq!(capped(passes - 1), (stats, passes - 1), "{name}: last pass changed nothing");
        if passes >= 2 {
            assert_ne!(capped(passes - 2).0, stats, "{name}: pass {} changed the DAG", passes - 1);
        }
    }
    (stats, passes)
}

/// The chain join t0 ⋈ t1 ⋈ … ⋈ t(n-1) on adjacent columns (E1).
fn chain_join(n: usize) -> Plan {
    let schema = Schema::new(vec![
        Column::new("x", DataType::Int),
        Column::new("y", DataType::Int),
    ]);
    let mut plan = Plan::scan("t0", schema.clone());
    for i in 1..n {
        let off = 2 * i;
        plan = plan.join(
            Plan::scan(format!("t{i}").as_str(), schema.clone()),
            vec![ScalarExpr::eq(ScalarExpr::col(off - 1), ScalarExpr::col(off))],
        );
    }
    plan
}

#[test]
fn chain_joins_expand_to_the_same_dag_as_every_pass() {
    for n in 2..=6 {
        assert_fixpoint_matches_reference(&format!("chain n={n}"), &[chain_join(n)]);
    }
}

/// The university of a cold admission, the plans of one student's
/// granted views, and one bound query of each cold-admission class:
/// accept, conditional accept, deny, and one the compiled fast path would
/// admit.
fn cold_admission_cases() -> (University, Vec<Plan>, Vec<(String, Plan)>) {
    let uni = build(UniversityConfig {
        students: 20,
        courses: 6,
        ..Default::default()
    })
    .expect("university builds");
    let catalog = uni.engine.database().catalog();
    let id = uni.student(0);
    let other = uni.student(1);
    let session = Session::new(id.as_str());
    let views: Vec<Plan> = uni
        .engine
        .grants()
        .views_for(&id)
        .into_iter()
        .filter_map(|name| {
            let def = catalog.view(&name).filter(|d| d.authorization)?;
            let view = AuthorizationView::new(def.name.clone(), def.query.clone());
            if view.is_access_pattern() {
                return None;
            }
            let bound = view.instantiate(catalog, session.params()).ok()?;
            Some(normalize(&bound.plan))
        })
        .collect();
    assert!(views.len() >= 4, "student holds the university views");

    let shapes = [
        format!("select avg(grade) from grades where student_id = '{id}' and grade >= -1000001"),
        "select * from grades where course_id = 'c0001' and grade >= -1000002".to_string(),
        format!("select grade from grades where student_id = '{other}' and grade >= -1000003"),
        "select course_id, name from courses where name <> 'x1000004'".to_string(),
    ];
    let queries = shapes
        .into_iter()
        .map(|sql| {
            let query = fgac::sql::parse_query(&sql).expect("parses");
            let bound = bind_query(catalog, &query, session.params()).expect("binds");
            (sql, normalize(&bound.plan))
        })
        .collect();
    (uni, views, queries)
}

#[test]
fn cold_admission_shapes_converge_early_to_the_same_dag() {
    let (_uni, views, queries) = cold_admission_cases();
    for (sql, query) in &queries {
        let mut plans = vec![query.clone()];
        plans.extend(views.iter().cloned());
        let (_, passes) = assert_fixpoint_matches_reference(sql, &plans);
        assert!(
            passes < ExpandOptions::default().max_passes,
            "{sql}: expansion ran all {passes} passes"
        );
    }
}

/// Distinct elimination, expansion, distinct elimination: what a check
/// runs on a DAG once its plans are in. Returns the expansion's stats and
/// whether it stopped at its fixpoint.
fn settle(dag: &mut Dag, db: &Database) -> (DagStats, bool) {
    let opts = ExpandOptions::default();
    distinct_elimination(dag, db);
    let (stats, passes) = expand_counting_passes(dag, &opts);
    distinct_elimination(dag, db);
    (stats, passes < opts.max_passes && stats.op_nodes < opts.max_ops)
}

/// The distinct operations of `dag` over canonical classes. `op_nodes`
/// also counts an operation that a later merge made congruent to another,
/// so it depends on the order in which merges and insertions came.
fn live_ops(dag: &Dag) -> usize {
    let ops: HashSet<_> = dag
        .all_ops()
        .map(|o| {
            let node = dag.op(o);
            let children: Vec<EqId> = node.children.iter().map(|&c| dag.find(c)).collect();
            (node.op.clone(), children)
        })
        .collect();
    ops.len()
}

/// What the joint DAG and the overlay came to.
struct Built {
    stats: DagStats,
    live_ops: usize,
    converged: bool,
    query_valid: bool,
}

/// One DAG of the query and the views together, in the order a check
/// used to insert them: the query first.
fn joint(db: &Database, views: &[Plan], query: &Plan) -> Built {
    let mut dag = Dag::new();
    let q = dag.insert_plan(query);
    let roots: Vec<EqId> = views.iter().map(|v| dag.insert_plan(v)).collect();
    let (stats, converged) = settle(&mut dag, db);
    Built {
        stats,
        live_ops: live_ops(&dag),
        converged,
        query_valid: mark_valid(&dag, &roots).is_valid(&dag, q),
    }
}

/// The query laid over the settled DAG of `views`, settled again.
fn overlay(db: &Database, views: &[Plan], query: &Plan) -> Built {
    let mut dag = Dag::new();
    let roots: Vec<EqId> = views.iter().map(|v| dag.insert_plan(v)).collect();
    let (_, views_converged) = settle(&mut dag, db);
    let q = dag.insert_plan(query);
    let (stats, converged) = settle(&mut dag, db);
    Built {
        stats,
        live_ops: live_ops(&dag),
        converged: views_converged && converged,
        query_valid: mark_valid(&dag, &roots).is_valid(&dag, q),
    }
}

#[test]
fn cold_admission_overlay_matches_the_joint_dag() {
    let (uni, views, queries) = cold_admission_cases();
    let db = uni.engine.database();
    let mut accepted = 0;
    for (sql, query) in &queries {
        let (joint, overlay) = (joint(db, &views, query), overlay(db, &views, query));
        assert!(joint.converged && overlay.converged, "{sql}");
        assert_eq!(overlay.stats, joint.stats, "{sql}: DAG size");
        assert_eq!(overlay.query_valid, joint.query_valid, "{sql}: query root validity");
        accepted += usize::from(joint.query_valid);
    }
    // The marking alone decides some shapes and not others.
    assert!(accepted > 0 && accepted < queries.len(), "{accepted} accepted by marking");
}

/// Random select/project/join/aggregate trees over four two-column
/// tables. Every new node is built over members of a pool of earlier
/// subplans, so the roots share subtrees, and the same relation is often
/// spelled two ways: expansion then merges classes whose consumers must
/// be rewritten again.
struct PlanGen {
    rng: StdRng,
    pool: Vec<Plan>,
}

impl PlanGen {
    fn new(seed: u64) -> PlanGen {
        let schema = Schema::new(vec![
            Column::new("x", DataType::Int),
            Column::new("y", DataType::Int),
        ]);
        let tables = 3 + (seed % 2) as usize;
        let pool = (0..tables)
            .map(|i| Plan::scan(format!("t{i}").as_str(), schema.clone()))
            .collect();
        PlanGen {
            rng: StdRng::seed_from_u64(seed),
            pool,
        }
    }

    fn pick(&mut self) -> Plan {
        let i = self.rng.gen_range(0..self.pool.len());
        self.pool[i].clone()
    }

    /// A conjunct over `arity` columns; few constants, so that one
    /// selection often implies another.
    fn conjunct(&mut self, arity: usize) -> ScalarExpr {
        let c = ScalarExpr::col(self.rng.gen_range(0..arity));
        let k = ScalarExpr::lit(self.rng.gen_range(0..3i64));
        match self.rng.gen_range(0..4u32) {
            0 => ScalarExpr::eq(c, k),
            1 => ScalarExpr::cmp(CmpOp::Gt, c, k),
            2 => ScalarExpr::eq(c, ScalarExpr::col(self.rng.gen_range(0..arity))),
            _ => ScalarExpr::cmp(CmpOp::Lt, c, ScalarExpr::lit(5i64)),
        }
    }

    /// Adds one node over pool members to the pool and returns it.
    fn grow(&mut self) -> Plan {
        let input = self.pick();
        let arity = input.arity();
        let plan = match self.rng.gen_range(0..20u32) {
            0..=4 => {
                let n = self.rng.gen_range(1..3usize);
                let conjuncts = (0..n).map(|_| self.conjunct(arity)).collect();
                input.select(conjuncts)
            }
            5..=6 => {
                let n = self.rng.gen_range(1..=arity);
                let cols = (0..n)
                    .map(|_| ScalarExpr::col(self.rng.gen_range(0..arity)))
                    .collect();
                input.project(cols)
            }
            7..=12 => {
                let right = self.pick();
                if input.scanned_tables().len() + right.scanned_tables().len() > 4 {
                    return input;
                }
                let on = ScalarExpr::eq(
                    ScalarExpr::col(self.rng.gen_range(0..arity)),
                    ScalarExpr::col(arity + self.rng.gen_range(0..right.arity())),
                );
                input.join(right, vec![on])
            }
            13..=17 => match respell(&input) {
                Some(plan) => plan,
                None => return input,
            },
            _ => {
                let group_by = (0..self.rng.gen_range(0..arity))
                    .map(ScalarExpr::col)
                    .collect();
                let func = [AggFunc::CountStar, AggFunc::Sum, AggFunc::Min, AggFunc::Max]
                    [self.rng.gen_range(0..4usize)];
                let arg = (func != AggFunc::CountStar)
                    .then(|| ScalarExpr::col(self.rng.gen_range(0..arity)));
                input.aggregate(
                    group_by,
                    vec![AggExpr {
                        func,
                        arg,
                        distinct: false,
                    }],
                )
            }
        };
        self.pool.push(plan.clone());
        plan
    }
}

/// A second spelling of `plan` that expansion should find equivalent:
/// a join commuted under a permutation projection, or a selection over
/// a join folded into the join's predicate.
fn respell(plan: &Plan) -> Option<Plan> {
    match plan {
        Plan::Join {
            left,
            right,
            conjuncts,
        } => {
            let (la, ra) = (left.arity(), right.arity());
            let swapped = conjuncts
                .iter()
                .map(|c| c.map_cols(&|i| if i < la { i + ra } else { i - la }))
                .collect();
            let perm = (0..la)
                .map(|i| ScalarExpr::col(ra + i))
                .chain((0..ra).map(ScalarExpr::col))
                .collect();
            Some(right.as_ref().clone().join(left.as_ref().clone(), swapped).project(perm))
        }
        Plan::Select { input, conjuncts } => match input.as_ref() {
            Plan::Join {
                left,
                right,
                conjuncts: on,
            } => {
                let on = on.iter().chain(conjuncts).cloned().collect();
                Some(left.as_ref().clone().join(right.as_ref().clone(), on))
            }
            _ => None,
        },
        _ => None,
    }
}

/// The plans of generated seed `seed`.
fn generated(seed: u64) -> Vec<Plan> {
    let mut plan_gen = PlanGen::new(seed);
    let nodes = 10 + (seed % 8) as usize;
    (0..nodes).map(|_| plan_gen.grow()).collect()
}

#[test]
fn generated_plans_with_shared_subtrees_expand_to_the_same_dag_as_every_pass() {
    // This range includes seeds (356, 446) in which a merge late in
    // expansion hands new members to a consumer whose rules already ran;
    // a DAG that failed to re-dirty that consumer would stop short. Every
    // DAG in it stays under the node budget, so the helper's convergence
    // check applies to each.
    for seed in 300..460u64 {
        let plans = generated(seed);
        let name = format!("seed {seed}");
        assert_fixpoint_matches_reference(&name, &plans);
        let (mut dag, _) = dag_of(&plans);
        let opts = ExpandOptions::default();
        let stats = expand_counting_passes(&mut dag, &opts).0;
        assert!(stats.op_nodes < opts.max_ops, "{name}: reached the node budget");
    }
}

#[test]
fn a_run_the_node_budget_stops_is_compared_without_a_last_pass() {
    // Seed 275 reaches the budget in pass 7: the reference agrees, and
    // the helper must not ask that pass to have changed nothing.
    let opts = ExpandOptions::default();
    let (stats, passes) = assert_fixpoint_matches_reference("seed 275", &generated(275));
    assert!(stats.op_nodes >= opts.max_ops, "seed 275: {stats:?} after {passes} passes");
    assert!(passes < opts.max_passes);
}

#[test]
fn generated_overlays_match_the_joint_dag() {
    // The last plan of each seed is the query; the others are views. An
    // overlay expands the views to their fixpoint before the query comes,
    // so a merge can land before or after an operation is built, and
    // `op_nodes` can differ while the classes and the distinct operations
    // agree. Where the joint expansion stops at the pass cap short of its
    // fixpoint, the overlay, which runs more passes in all, may reach
    // further; only the verdict is compared then.
    let db = Database::new();
    let mut capped = 0;
    for seed in 300..460u64 {
        let plans = generated(seed);
        let (query, views) = plans.split_last().expect("plans");
        let (joint, overlay) = (joint(&db, views, query), overlay(&db, views, query));
        let name = format!("seed {seed}");
        assert_eq!(overlay.query_valid, joint.query_valid, "{name}: query root validity");
        if !joint.converged || !overlay.converged {
            eprintln!("{name}: stopped short of the fixpoint; verdict compared only");
            capped += 1;
            continue;
        }
        assert_eq!(overlay.stats.eq_nodes, joint.stats.eq_nodes, "{name}: classes");
        assert_eq!(overlay.live_ops, joint.live_ops, "{name}: distinct operations");
    }
    // Nine seeds stop at the pass cap on both sides, and seed 395's views
    // alone do: the other 150 are compared in full.
    assert_eq!(capped, 10, "seeds stopped short of their fixpoint");
}
