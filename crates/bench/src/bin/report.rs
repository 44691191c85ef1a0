//! Regenerates every experiment table (E1–E8). See DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded results.
//!
//! Usage: `cargo run -p fgac-bench --bin report --release [-- --exp e4]`

use fgac_algebra::{Plan, ScalarExpr};
use fgac_bench::{
    check_with, median_time, median_time_with_setup, ms, pick_triple, row, university, us,
};
use fgac_core::truman::{scan_count_delta, TrumanPolicy};
use fgac_core::{CheckOptions, Engine, Session, Validator, Verdict};
use fgac_optimizer::{expand, expand_counting_passes, extract_any, Dag, ExpandOptions, Operator};
use fgac_types::{Column, DataType, Schema};
use fgac_workload::querygen::{synthetic_view_family, university_mix};
use fgac_workload::university::{build, UniversityConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let exp = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("all");

    println!("fgac experiment report — reproduction of Rizvi et al., SIGMOD 2004");
    println!("(the paper publishes no measured tables; E1 reproduces its only");
    println!("figure, E8 its worked examples, E2–E7 the evaluation Section 5.6");
    println!("proposes — see DESIGN.md §4)\n");

    if exp == "all" || exp == "e1" {
        e1();
    }
    if exp == "all" || exp == "e2" {
        e2();
    }
    if exp == "all" || exp == "e3" {
        e3();
    }
    if exp == "all" || exp == "e4" {
        e4();
    }
    if exp == "all" || exp == "e5" {
        e5();
    }
    if exp == "all" || exp == "e6" {
        e6();
    }
    if exp == "all" || exp == "e7" {
        e7();
    }
    if exp == "all" || exp == "e8" {
        e8();
    }
}

fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// The chain join t0 ⋈ t1 ⋈ … ⋈ t(n-1) on adjacent columns.
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
            vec![ScalarExpr::eq(
                ScalarExpr::col(off - 1),
                ScalarExpr::col(off),
            )],
        );
    }
    plan
}

/// E1 — Figure 1: AND-OR DAG for chain joins.
fn e1() {
    banner("E1", "Figure 1 — AND-OR DAG for A ⋈ B ⋈ C and growth with n");
    let widths = [3, 12, 12, 14, 14, 12, 12, 10, 17];
    println!(
        "{}",
        row(
            &[
                "n",
                "init eq",
                "init op",
                "expanded eq",
                "expanded op",
                "passes",
                "join sets",
                "insert µs",
                "insert+expand µs",
            ],
            &widths
        )
    );
    for n in 2..=6 {
        let plan = chain_join(n);
        let insert = median_time(9, || Dag::new().insert_plan(&plan));
        let insert_expand = median_time(9, || {
            let mut dag = Dag::new();
            dag.insert_plan(&plan);
            expand(&mut dag, &ExpandOptions::default())
        });
        let mut dag = Dag::new();
        dag.insert_plan(&plan);
        let init = dag.stats();
        let opts = ExpandOptions::default();
        let (expanded, passes) = expand_counting_passes(&mut dag, &opts);
        // At the fixpoint one more pass leaves the DAG as it is; a DAG
        // it still changes was cut off by `max_passes`.
        let mut next = dag.clone();
        let capped = expand(&mut next, &ExpandOptions { max_passes: 1, ..opts }) != expanded;
        let passes = if capped { format!("{passes} (cap)") } else { passes.to_string() };

        // Distinct table-sets joined anywhere in the DAG — the "ways of
        // grouping" Figure 1(c) illustrates.
        let mut join_sets = std::collections::BTreeSet::new();
        for op in dag.all_ops() {
            let node = dag.op(op);
            if !matches!(node.op, Operator::Join { .. }) {
                continue;
            }
            let mut tables: Vec<String> = Vec::new();
            for &c in &node.children {
                if let Some(p) = extract_any(&dag, c) {
                    tables.extend(p.scanned_tables().iter().map(|t| t.to_string()));
                }
            }
            tables.sort();
            join_sets.insert(tables.join("+"));
        }
        println!(
            "{}",
            row(
                &[
                    &n.to_string(),
                    &init.eq_nodes.to_string(),
                    &init.op_nodes.to_string(),
                    &expanded.eq_nodes.to_string(),
                    &expanded.op_nodes.to_string(),
                    &passes,
                    &join_sets.len().to_string(),
                    &us(insert),
                    &us(insert_expand),
                ],
                &widths
            )
        );
    }
    println!(
        "\nshape check: Figure 1(b) initial DAG for n=3 has 5 eq / 5 op nodes;\n\
         expansion adds the alternative join orders (A(BC), (AC)B reachable\n\
         through commute+associate), growing super-linearly with n. A\n\
         passes entry marked (cap) stopped at `max_passes` before its\n\
         fixpoint, so that row's DAG is truncated, not complete."
    );
}

/// E2 — validity-check overhead vs plain optimization.
fn e2() {
    banner(
        "E2",
        "validity-check overhead: optimize vs +basic (U1/U2) vs +complex (U3/C3)",
    );
    let uni = university(200);
    let (student, reg, unreg) = pick_triple(&uni);
    let mix = university_mix(&student, &reg, &unreg);
    let iters = 9;

    let widths = [44, 12, 13, 13, 13];
    println!(
        "{}",
        row(
            &["query (class)", "optimize µs", "basic µs", "complex µs", "verdict"],
            &widths
        )
    );
    for q in &mix {
        // Plain optimization: bind + expand + extract best.
        let db = uni.engine.database();
        let parsed = fgac_sql::parse_query(&q.sql).unwrap();
        let session = Session::new(q.user.clone());
        let bound = fgac_algebra::bind_query(db.catalog(), &parsed, session.params()).unwrap();
        let opt = median_time(iters, || {
            let mut dag = Dag::new();
            let root = dag.insert_plan(&bound.plan);
            expand(&mut dag, &ExpandOptions::default());
            let model = fgac_optimizer::CostModel::new(
                fgac_optimizer::TableStats::from_database(db),
            );
            fgac_optimizer::extract_best(&dag, root, &model)
        });

        let basic = median_time(iters, || {
            check_with(&uni, CheckOptions::basic_only(), &q.user, &q.sql)
        });
        let complex = median_time(iters, || {
            check_with(&uni, CheckOptions::default(), &q.user, &q.sql)
        });
        let verdict = check_with(&uni, CheckOptions::default(), &q.user, &q.sql);
        let label = format!("{} ({})", q.label, q.class);
        let label = if label.len() > 43 { label[..43].to_string() } else { label };
        println!(
            "{}",
            row(
                &[
                    &label,
                    &us(opt),
                    &us(basic),
                    &us(complex),
                    &format!("{verdict:?}"),
                ],
                &widths
            )
        );
    }
    println!(
        "\nshape check (paper §5.6): basic-rule checking 'does not increase\n\
         the cost significantly beyond normal query optimization'; the\n\
         complex rules cost more, dominated by U3 derivation + C3 probes."
    );
}

/// E3 — scaling with the number of authorization views ± pruning.
fn e3() {
    banner(
        "E3",
        "validity check vs #authorization views, with/without irrelevant-view pruning",
    );
    let widths = [8, 16, 16, 14];
    println!(
        "{}",
        row(&["views", "no-prune µs", "prune µs", "speedup"], &widths)
    );
    for n in [4usize, 16, 64, 128, 256] {
        let mut uni = build(UniversityConfig::default().with_students(100)).unwrap();
        // A fixed handful of *relevant* views over grades, plus (n-4)
        // *irrelevant* join views over students × courses. Pruning keeps
        // the relevant ones only (the transitive table closure from the
        // grades query never reaches students-courses-only views).
        for (name, body) in synthetic_view_family(4) {
            uni.engine.admin_script(&body).unwrap();
            uni.engine.grant_view("student", &name).unwrap();
        }
        for i in 0..n.saturating_sub(4) {
            let noise = format!(
                "create authorization view noise{i} as \
                 select s.name, c.name from students s, courses c \
                 where s.type = 'FullTime' and c.course_id = 'c{:04}'",
                i % 10
            );
            uni.engine.admin_script(&noise).unwrap();
            uni.engine.grant_view("student", &format!("noise{i}")).unwrap();
        }
        let (student, _, _) = pick_triple(&uni);
        let sql = format!("select grade from grades where student_id = '{student}'");
        let iters = 7;
        let no_prune = median_time(iters, || {
            check_with(
                &uni,
                CheckOptions {
                    prune_irrelevant_views: false,
                    ..Default::default()
                },
                &student,
                &sql,
            )
        });
        let prune = median_time(iters, || {
            check_with(&uni, CheckOptions::default(), &student, &sql)
        });
        println!(
            "{}",
            row(
                &[
                    &n.to_string(),
                    &us(no_prune),
                    &us(prune),
                    &format!("{:.2}x", no_prune.as_secs_f64() / prune.as_secs_f64().max(1e-9)),
                ],
                &widths
            )
        );
    }
    println!(
        "\nshape check (paper §5.6): cost grows with the number of granted\n\
         views; 'eliminate authorization views that cannot possibly be of\n\
         use' flattens the curve."
    );
}

/// E4 — Truman vs Non-Truman execution characteristics.
fn e4() {
    banner(
        "E4",
        "Truman-rewritten vs Non-Truman-original execution as data scales (§3.3)",
    );
    let widths = [10, 10, 12, 14, 12, 14];
    println!(
        "{}",
        row(
            &["students", "|grades|", "truman ms", "original ms", "check ms", "scans T vs O"],
            &widths
        )
    );
    for students in [500usize, 2_000, 8_000, 20_000] {
        let uni = university(students);
        let (student, reg, _) = pick_triple(&uni);
        let session = Session::new(student.clone());
        // The Truman policy whose view contains a join — the redundant
        // join case of §3.3.
        let policy = TrumanPolicy::new().substitute_view("grades", "costudentgrades");
        let sql = format!("select grade from grades where course_id = '{reg}'");

        let truman = median_time(5, || {
            uni.engine.truman_execute(&policy, &session, &sql).unwrap()
        });
        // Non-Truman: the check happens once (cached afterwards); the
        // query then runs unmodified.
        let check = median_time(3, || {
            Validator::new(uni.engine.database(), uni.engine.grants())
                .check_sql(&session, &sql)
                .unwrap()
        });
        let original = median_time(5, || {
            fgac_exec::run_query_sql(uni.engine.database(), &sql, session.params()).unwrap()
        });
        let (o_scans, t_scans) =
            scan_count_delta(uni.engine.database(), &policy, &session, &sql).unwrap();
        let grades_rows = uni
            .engine
            .database()
            .table(&"grades".into())
            .unwrap()
            .len();
        println!(
            "{}",
            row(
                &[
                    &students.to_string(),
                    &grades_rows.to_string(),
                    &ms(truman),
                    &ms(original),
                    &ms(check),
                    &format!("{t_scans} vs {o_scans}"),
                ],
                &widths
            )
        );
        // Verify the check accepts (conditionally — the student is
        // registered) so running the original is legitimate.
        let verdict = uni.engine.check(&session, &sql).unwrap().verdict;
        assert_ne!(verdict, Verdict::Invalid, "E4 query must be accepted");
    }
    println!(
        "\nshape check (paper §3.3): the Truman rewrite drags the view's\n\
         extra join into every execution, so it slows down relative to the\n\
         original as data grows; the Non-Truman model pays a one-time\n\
         validity check and then runs the original query unmodified.\n\
         (Truman also answers aggregate queries misleadingly — see E8.)"
    );
}

/// E5 — validity-cache effectiveness.
fn e5() {
    banner("E5", "prepared/repeated query checking: cold vs cached (§5.6)");
    let uni = university(500);
    let (student, reg, unreg) = pick_triple(&uni);
    let mix = university_mix(&student, &reg, &unreg);
    let session = Session::new(student.clone());

    let widths = [44, 12, 12, 10];
    println!(
        "{}",
        row(&["query", "cold µs", "cached µs", "speedup"], &widths)
    );
    for q in mix.iter().filter(|q| q.expected != Verdict::Invalid) {
        uni.engine.cache().clear();
        let cold = median_time(1, || uni.engine.check(&session, &q.sql).unwrap());
        let cached = median_time(9, || uni.engine.check(&session, &q.sql).unwrap());
        let label = if q.label.len() > 43 { &q.label[..43] } else { q.label };
        println!(
            "{}",
            row(
                &[
                    label,
                    &us(cold),
                    &us(cached),
                    &format!("{:.0}x", cold.as_secs_f64() / cached.as_secs_f64().max(1e-9)),
                ],
                &widths
            )
        );
    }
    let snap = uni.engine.cache().snapshot();
    println!(
        "\ncache counters: {} hits / {} misses ({} entries, {:.0}% hit rate)",
        snap.hits,
        snap.misses,
        snap.entries,
        snap.hit_rate() * 100.0
    );
    println!(
        "shape check (paper §5.6): 'if the same query is reissued multiple\n\
         times in a session, we can cache the results of the validity\n\
         check' — cached checks are orders of magnitude cheaper."
    );
}

/// E6 — the cost and state-sensitivity of conditional validity.
fn e6() {
    banner("E6", "C3 conditional validity: probe cost and state dependence (§4.3)");
    let widths = [10, 12, 14, 12, 16];
    println!(
        "{}",
        row(
            &[
                "students",
                "|registered|",
                "C3 check ms",
                "no-C3 ms",
                "verdict"
            ],
            &widths
        )
    );
    for students in [100usize, 1_000, 5_000, 20_000] {
        let uni = university(students);
        let (student, reg, _) = pick_triple(&uni);
        let session = Session::new(student.clone());
        let sql = format!("select * from grades where course_id = '{reg}'");
        let t = median_time(3, || {
            Validator::new(uni.engine.database(), uni.engine.grants())
                .check_sql(&session, &sql)
                .unwrap()
        });
        // The same machinery with C3 off: it rejects once the
        // unconditional rules are exhausted, without a probe.
        let no_c3 = median_time(3, || {
            let options = CheckOptions {
                enable_c3: false,
                ..Default::default()
            };
            check_with(&uni, options, &student, &sql)
        });
        let verdict = check_with(&uni, CheckOptions::default(), &student, &sql);
        let regs = uni
            .engine
            .database()
            .table(&"registered".into())
            .unwrap()
            .len();
        println!(
            "{}",
            row(
                &[
                    &students.to_string(),
                    &regs.to_string(),
                    &ms(t),
                    &ms(no_c3),
                    &format!("{verdict:?}"),
                ],
                &widths
            )
        );
    }

    // State dependence: the same query accepted/rejected by state.
    let uni = university(100);
    let (student, reg, unreg) = pick_triple(&uni);
    println!("\nstate dependence for user {student}:");
    for (course, expected) in [(reg, "Conditional"), (unreg, "Invalid")] {
        let sql = format!("select * from grades where course_id = '{course}'");
        let v = check_with(&uni, CheckOptions::default(), &student, &sql);
        println!("  course {course}: verdict {v:?} (expected {expected})");
    }
    println!(
        "\nshape check (paper §4.3/§5.4): conditional validity requires a\n\
         database probe (v_r non-emptiness), so it costs more than pure\n\
         inference and flips with the state."
    );
}

/// E7 — per-tuple update authorization.
fn e7() {
    banner("E7", "update authorization throughput (§4.4)");
    let widths = [10, 14, 16, 16];
    println!(
        "{}",
        row(
            &["batch", "authorized ms", "per-tuple µs", "reject batch ms"],
            &widths
        )
    );
    for batch in [100usize, 1_000, 5_000] {
        // Each run inserts into a fresh engine; building it is not timed.
        let session = Session::new("u");
        let values: Vec<String> = (0..batch).map(|i| format!("('u', 'c{i}')")).collect();
        let sql = format!("insert into registered values {}", values.join(", "));
        let t = median_time_with_setup(3, e7_engine, |mut e| e.execute(&session, &sql).unwrap());

        // A batch whose last tuple is unauthorized: rejected atomically.
        let mut bad_values = values.clone();
        bad_values.push("('intruder', 'c0')".to_string());
        let bad_sql = format!("insert into registered values {}", bad_values.join(", "));
        let t_bad = median_time_with_setup(3, e7_engine, |mut e| {
            e.execute(&session, &bad_sql).unwrap_err()
        });
        println!(
            "{}",
            row(
                &[
                    &batch.to_string(),
                    &ms(t),
                    &format!("{:.2}", t.as_secs_f64() * 1e6 / batch as f64),
                    &ms(t_bad),
                ],
                &widths
            )
        );
    }
    println!(
        "\nshape check (paper §4.4): checking updates 'only requires\n\
         evaluation of a (fully instantiated) predicate' per tuple —\n\
         per-tuple cost stays flat as batches grow; a single unauthorized\n\
         tuple rejects the whole statement with no partial effects."
    );
}

/// E7's empty `registered` table with `u`'s insert authorization.
fn e7_engine() -> Engine {
    let mut e = Engine::new();
    e.admin_script(
        "create table registered (student_id varchar not null, \
         course_id varchar not null);",
    )
    .unwrap();
    e.grant_update_sql(
        "u",
        "authorize insert on registered where student_id = $user_id",
    )
    .unwrap();
    e
}

/// E8 — the acceptance matrix over the paper's worked examples.
fn e8() {
    banner(
        "E8",
        "acceptance matrix: paper examples × {Truman answer, Non-Truman verdict}",
    );
    let mut uni = build(UniversityConfig::tiny()).unwrap();
    // Extra grants echoing the paper's scenarios.
    uni.engine.grant_view("registrar", "regstudents").unwrap();
    uni.engine.grant_constraint("registrar", "all_registered").unwrap();
    let (student, reg, unreg) = pick_triple(&uni);
    let policy = TrumanPolicy::new().substitute_view("grades", "mygrades");

    let cases: Vec<(&str, String, String)> = vec![
        (
            "§3.3 misleading avg",
            student.clone(),
            "select avg(grade) from grades".to_string(),
        ),
        (
            "Ex 4.1 own avg",
            student.clone(),
            format!("select avg(grade) from grades where student_id = '{student}'"),
        ),
        (
            "Ex 4.1 course avg",
            student.clone(),
            format!("select avg(grade) from grades where course_id = '{reg}'"),
        ),
        (
            "Ex 4.4 registered course",
            student.clone(),
            format!("select * from grades where course_id = '{reg}'"),
        ),
        (
            "Ex 4.3 unregistered course",
            student.clone(),
            format!("select * from grades where course_id = '{unreg}'"),
        ),
        (
            "Ex 5.1 distinct names",
            "registrar".to_string(),
            "select distinct name, type from students".to_string(),
        ),
        (
            "Ex 5.1 without distinct",
            "registrar".to_string(),
            "select name, type from students".to_string(),
        ),
        (
            "§2 secretary by id",
            "secretary".to_string(),
            format!("select * from grades where student_id = '{student}'"),
        ),
        (
            "§2 secretary full list",
            "secretary".to_string(),
            "select * from grades".to_string(),
        ),
    ];

    let widths = [28, 52, 22, 15];
    println!(
        "{}",
        row(&["example", "query", "Truman", "Non-Truman"], &widths)
    );
    for (label, user, sql) in cases {
        let session = Session::new(user.clone());
        let truman = if user == student {
            match uni.engine.truman_execute(&policy, &session, &sql) {
                Ok(r) => match r.rows.first() {
                    Some(first) => format!("answers {}", first.get(0)),
                    None => "answers (empty)".to_string(),
                },
                Err(_) => "error".to_string(),
            }
        } else {
            "n/a".to_string()
        };
        let verdict = uni.engine.check(&session, &sql).unwrap().verdict;
        let sql_short = if sql.len() > 51 { format!("{}…", &sql[..50]) } else { sql.clone() };
        println!(
            "{}",
            row(&[label, &sql_short, &truman, &format!("{verdict:?}")], &widths)
        );
    }
    println!(
        "\nshape check: the Truman column shows answers even where they are\n\
         misleading (§3.3); the Non-Truman column matches the paper's\n\
         verdicts exactly (see tests/paper_examples.rs for the assertions)."
    );
}
