//! The view side of a cold proof is built once per principal, session
//! parameters, policy epoch and options, and every cold check starts from
//! a copy of it. These tests warm that view side with one cold check
//! before each step, then show that no verdict outlives what it was
//! built from — a revoke, a grant, a new table, another session's
//! parameters, other checker options — and that a check served from the
//! memoized side reports exactly what a check that builds its own does.

use fgac::analyze::certificate_to_json;
use fgac::prelude::*;
use fgac::workload::querygen::university_mix;
use fgac::workload::university::{build, University, UniversityConfig};
use std::cell::Cell;

fn university() -> University {
    build(UniversityConfig::tiny()).expect("university builds")
}

/// A student and a course they are registered for.
fn registered(uni: &University) -> (String, String) {
    let s = uni.student(0);
    let (_, c) = uni
        .registrations
        .iter()
        .find(|(st, _)| *st == s)
        .expect("student 0 registers for a course")
        .clone();
    (s, c)
}

/// A conjunct no two calls on one thread repeat, so the text is new to
/// both caches of the test's engine.
fn fresh() -> String {
    thread_local!(static N: Cell<u64> = const { Cell::new(1_000_000) });
    N.with(|n| {
        n.set(n.get() + 1);
        format!("grade >= -{}", n.get())
    })
}

/// The engine's verdict on `sql` from a cold proof (neither cache holds
/// the text).
fn cold(engine: &Engine, session: &Session, sql: &str) -> ValidityReport {
    let report = engine.check(session, sql).expect("check runs");
    assert!(
        !report.rules.iter().any(|r| r.starts_with("validity cache hit")),
        "{sql}: expected a cold check, got {:?}",
        report.rules
    );
    report
}

/// The caps the engine admits `user` with at its current epoch.
fn caps(engine: &Engine, user: &str) -> std::sync::Arc<fgac::core::PrincipalCaps> {
    engine.compiled_policies().principal(
        engine.policy_epoch(),
        user,
        engine.database().catalog(),
        engine.grants(),
    )
}

/// A report's every field that the prover writes, as text.
fn render(report: &ValidityReport) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {} {:?} {}",
        report.verdict,
        report.reason,
        report.rules,
        report.dag_stats,
        report.views_considered,
        report.exhausted,
        report
            .certificate
            .as_ref()
            .map(certificate_to_json)
            .unwrap_or_default()
    )
}

#[test]
fn a_revoked_view_stops_admitting_on_the_next_cold_check() {
    let mut uni = university();
    let (s, c) = registered(&uni);
    let session = Session::new(s.as_str());
    let query = |extra: String| format!("select * from grades where course_id = '{c}' and {extra}");
    assert_eq!(cold(&uni.engine, &session, &query(fresh())).verdict, Verdict::Conditional);

    uni.engine.revoke_view("student", "costudentgrades").unwrap();
    let report = cold(&uni.engine, &session, &query(fresh()));
    assert_eq!(report.verdict, Verdict::Invalid, "rules: {:?}", report.rules);
}

#[test]
fn a_view_granted_into_an_existing_component_admits_its_query() {
    let mut uni = university();
    let (s, _) = registered(&uni);
    let session = Session::new(s.as_str());
    uni.engine
        .admin_script(
            "create authorization view TopGrades as select * from grades where grade >= 90;",
        )
        .unwrap();
    let query =
        |extra: String| format!("select course_id from grades where grade >= 95 and {extra}");
    assert_eq!(cold(&uni.engine, &session, &query(fresh())).verdict, Verdict::Invalid);

    uni.engine.grant_view(&s, "topgrades").unwrap();
    let report = cold(&uni.engine, &session, &query(fresh()));
    assert_eq!(report.verdict, Verdict::Unconditional, "rules: {:?}", report.rules);
}

#[test]
fn a_new_table_whose_key_decides_distinct_elimination_rebuilds_the_dag() {
    let mut uni = university();
    let (s, _) = registered(&uni);
    let session = Session::new(s.as_str());
    // Two views over tables that do not exist yet: they cannot bind.
    uni.engine
        .admin_script(
            "create authorization view MyLocker as \
               select distinct locker_id, student_id from lockers where student_id = $user_id;
             create authorization view MyDesk as \
               select distinct desk_id, student_id from desks where student_id = $user_id;",
        )
        .unwrap();
    uni.engine.grant_view(&s, "mylocker").unwrap();
    uni.engine.grant_view(&s, "mydesk").unwrap();
    let warm = cold(&uni.engine, &session, &format!("select * from grades where {}", fresh()));
    assert!(
        warm.rules.iter().any(|r| r.starts_with("view mylocker skipped")),
        "rules: {:?}",
        warm.rules
    );

    // Creating a table grants nothing, so the principal's caps survive
    // the sweep. `lockers` has a key that makes the view's DISTINCT
    // redundant; `desks` has none.
    uni.engine
        .admin_script(
            "create table lockers (locker_id varchar not null, student_id varchar not null, \
               primary key (locker_id));
             create table desks (desk_id varchar not null, student_id varchar not null);",
        )
        .unwrap();
    let locker = cold(
        &uni.engine,
        &session,
        &format!("select locker_id, student_id from lockers where student_id = '{s}'"),
    );
    assert_eq!(locker.verdict, Verdict::Unconditional, "rules: {:?}", locker.rules);
    assert!(!locker.rules.iter().any(|r| r.contains("skipped")), "rules: {:?}", locker.rules);
    let desk = cold(
        &uni.engine,
        &session,
        &format!("select desk_id, student_id from desks where student_id = '{s}'"),
    );
    assert_eq!(desk.verdict, Verdict::Invalid, "rules: {:?}", desk.rules);
}

#[test]
fn two_sessions_of_one_user_with_different_parameters_get_their_own_verdicts() {
    let mut uni = university();
    let (s, _) = registered(&uni);
    uni.engine
        .admin_script(
            "create authorization view RecentGrades as \
             select * from grades where grade >= $time;",
        )
        .unwrap();
    uni.engine.grant_view(&s, "recentgrades").unwrap();
    let early = Session::new(s.as_str()).with_param("time", 50);
    let late = Session::new(s.as_str()).with_param("time", 70);
    let query =
        |extra: String| format!("select course_id from grades where grade >= 60 and {extra}");

    // The same text under each session, alternating, so each check finds
    // the other session's view side stored.
    for _ in 0..2 {
        let sql = query(fresh());
        let e = cold(&uni.engine, &early, &sql);
        assert_eq!(e.verdict, Verdict::Unconditional, "early: {:?}", e.rules);
        let l = cold(&uni.engine, &late, &sql);
        assert_eq!(l.verdict, Verdict::Invalid, "late: {:?}", l.rules);
    }
}

#[test]
fn unpruned_options_on_the_same_caps_report_the_unpruned_view_side() {
    let mut uni = build(UniversityConfig::default()).expect("university builds");
    // E3's shape: views no grades query can use, over students × courses.
    for i in 0..12 {
        uni.engine
            .admin_script(&format!(
                "create authorization view noise{i} as \
                 select s.name, c.name from students s, courses c \
                 where s.type = 'FullTime' and c.course_id = 'c{:04}';",
                i % 10
            ))
            .unwrap();
        uni.engine.grant_view("student", &format!("noise{i}")).unwrap();
    }
    let (s, _) = registered(&uni);
    let session = Session::new(s.as_str());
    let sql = format!("select grade from grades where student_id = '{s}'");
    let e = &uni.engine;
    let unpruned = CheckOptions {
        prune_irrelevant_views: false,
        ..CheckOptions::default()
    };
    let check = |options: &CheckOptions, with_caps: bool| {
        let v = Validator::new(e.database(), e.grants()).with_options(options.clone());
        let v = if with_caps { v.with_compiled(caps(e, &s)) } else { v };
        v.check_sql(&session, &sql).expect("check runs")
    };

    let pruned_ref = check(&CheckOptions::default(), false);
    let unpruned_ref = check(&unpruned, false);
    assert!(unpruned_ref.views_considered >= pruned_ref.views_considered + 12);
    assert!(unpruned_ref.dag_stats.op_nodes > pruned_ref.dag_stats.op_nodes);
    // Pruned, unpruned, pruned again: each on the caps the one before
    // left its view side in.
    for (options, reference) in [
        (CheckOptions::default(), &pruned_ref),
        (unpruned.clone(), &unpruned_ref),
        (CheckOptions::default(), &pruned_ref),
    ] {
        let report = check(&options, true);
        assert_eq!(report.views_considered, reference.views_considered);
        assert_eq!(report.dag_stats, reference.dag_stats);
        assert_eq!(render(&report), render(reference));
    }
}

#[test]
fn a_check_from_the_memoized_view_side_reports_what_a_fresh_build_does() {
    let uni = university();
    let (s, c) = registered(&uni);
    let unreg = (0..uni.config.courses)
        .map(|i| uni.course(i))
        .find(|k| !uni.registrations.contains(&(s.clone(), k.clone())))
        .expect("a course student 0 skips");
    let mut cases: Vec<(String, String)> = university_mix(&s, &c, &unreg)
        .into_iter()
        .map(|q| (q.user, q.sql))
        .collect();
    cases.extend([
        ("registrar".into(), "select distinct name, type from students".into()),
        ("registrar".into(), "select name from students".into()),
        ("secretary".into(), format!("select grade from grades where student_id = '{s}'")),
        ("secretary".into(), "select grade from grades".into()),
    ]);
    let e = &uni.engine;
    for (user, sql) in &cases {
        let session = Session::new(user.as_str());
        let fresh = Validator::new(e.database(), e.grants())
            .check_sql(&session, sql)
            .expect("check runs");
        let caps = caps(e, user);
        // The first check may build the view side; the second is served
        // from it.
        for _ in 0..2 {
            let served = Validator::new(e.database(), e.grants())
                .with_compiled(caps.clone())
                .check_sql(&session, sql)
                .expect("check runs");
            assert_eq!(render(&served), render(&fresh), "{user}: {sql}");
        }
    }
}
