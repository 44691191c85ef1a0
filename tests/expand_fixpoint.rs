//! DAG expansion stops at its fixpoint: the first pass that leaves the
//! DAG unchanged. Stopping there must give exactly the DAG that running
//! every allowed pass gives, on Figure 1's chain joins (E1) and on the
//! query shapes of a cold admission over the university views.

use fgac::algebra::{bind_query, normalize, Plan, ScalarExpr};
use fgac::core::{AuthorizationView, Session};
use fgac::optimizer::{expand_counting_passes, rules, Dag, DagStats, EqId, ExpandOptions};
use fgac::types::{Column, DataType, Schema};
use fgac::workload::university::{build, UniversityConfig};

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
/// passes the fixpoint test ran.
fn assert_fixpoint_matches_reference(name: &str, plans: &[Plan]) -> usize {
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
    passes
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

#[test]
fn cold_admission_shapes_converge_early_to_the_same_dag() {
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

    // One text of each cold-admission class: accept, conditional accept,
    // deny, and one the compiled fast path would admit.
    let shapes = [
        format!("select avg(grade) from grades where student_id = '{id}' and grade >= -1000001"),
        "select * from grades where course_id = 'c0001' and grade >= -1000002".to_string(),
        format!("select grade from grades where student_id = '{other}' and grade >= -1000003"),
        "select course_id, name from courses where name <> 'x1000004'".to_string(),
    ];
    for sql in &shapes {
        let query = fgac::sql::parse_query(sql).expect("parses");
        let bound = bind_query(catalog, &query, session.params()).expect("binds");
        let mut plans = vec![normalize(&bound.plan)];
        plans.extend(views.iter().cloned());
        let passes = assert_fixpoint_matches_reference(sql, &plans);
        assert!(
            passes < ExpandOptions::default().max_passes,
            "{sql}: expansion ran all {passes} passes"
        );
    }
}
