//! Pins the prover's output. For a fixed corpus of (principal, query)
//! cases — the E8 acceptance matrix, the university query mix and the
//! paper's worked examples, plus a few cases that reach the rarer rules
//! — each report's verdict, reason, rule trace, DAG size, views
//! considered and certificate JSON must equal
//! `tests/golden/derivations.txt` byte for byte.
//!
//! A change to any inference rule that moves a derivation fails here
//! first. The failing run writes its full output to `derivations.txt`
//! under cargo's integration-test scratch directory (the path is in the
//! panic message); after an intended change, review that file's diff
//! against the golden and copy it over by hand.

use fgac::analyze::certificate_to_json;
use fgac::prelude::*;
use fgac::workload::querygen::university_mix;
use fgac::workload::university::{build, UniversityConfig};
use std::collections::BTreeSet;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/derivations.txt");

/// The paper's schema and hand-picked data, as in
/// `tests/paper_examples.rs`, plus views that reach U3c and C3b.
const PAPER_DDL: &str = "
    create table students (
        student_id varchar not null, name varchar not null,
        type varchar not null, primary key (student_id));
    create table courses (
        course_id varchar not null, name varchar not null,
        primary key (course_id));
    create table registered (
        student_id varchar not null, course_id varchar not null,
        primary key (student_id, course_id));
    create table grades (
        student_id varchar not null, course_id varchar not null,
        grade int, primary key (student_id, course_id));
    create table feespaid (
        student_id varchar not null, primary key (student_id));

    create authorization view MyGrades as
        select * from grades where student_id = $user_id;
    create authorization view CoStudentGrades as
        select grades.* from grades, registered
        where registered.student_id = $user_id
          and grades.course_id = registered.course_id;
    create authorization view AvgGrades as
        select course_id, avg(grade) from grades group by course_id;
    create authorization view RegStudents as
        select registered.course_id, students.name, students.type
        from registered, students
        where students.student_id = registered.student_id;
    create authorization view RegStudentsId as
        select students.student_id, registered.course_id,
               students.name, students.type
        from registered, students
        where students.student_id = registered.student_id;
    create authorization view MyRegistrations as
        select * from registered where student_id = $user_id;
    create authorization view SingleGrade as
        select * from grades where student_id = $$1;
    create authorization view FeesPaidView as
        select * from feespaid;
    -- U3c: the remainder's join attribute is projected, and
    -- `select student_id from registered` is valid through AllRegistered.
    create authorization view RegNames as
        select registered.student_id, registered.course_id, students.name
        from registered, students
        where students.student_id = registered.student_id;
    create authorization view AllRegistered as
        select * from registered;

    create inclusion dependency all_registered
        on students (student_id) references registered (student_id);
    create inclusion dependency ft_registered
        on students (student_id) where type = 'FullTime'
        references registered (student_id);
    create inclusion dependency fees_registered
        on feespaid (student_id) references registered (student_id);

    insert into students values
        ('11', 'ann', 'FullTime'), ('12', 'bob', 'PartTime'),
        ('13', 'carol', 'FullTime');
    insert into courses values ('cs101', 'intro'), ('cs202', 'systems');
    insert into registered values
        ('11', 'cs101'), ('12', 'cs101'), ('12', 'cs202'), ('13', 'cs202');
    insert into grades values
        ('11', 'cs101', 90), ('12', 'cs101', 70), ('12', 'cs202', 85),
        ('13', 'cs202', 60);
    insert into feespaid values ('11'), ('12');
";

/// One section of the golden: the report of `sql` checked for `user`.
fn render(
    out: &mut String,
    label: &str,
    engine: &Engine,
    user: &str,
    sql: &str,
) -> ValidityReport {
    let report = Validator::new(engine.database(), engine.grants())
        .check_sql(&Session::new(user), sql)
        .unwrap_or_else(|e| panic!("{label}: check fails: {e}"));
    let _ = writeln!(out, "== {label}");
    let _ = writeln!(out, "principal: {user}");
    let _ = writeln!(out, "query: {sql}");
    let _ = writeln!(out, "verdict: {:?}", report.verdict);
    let _ = writeln!(out, "reason: {:?}", report.reason);
    for rule in &report.rules {
        let _ = writeln!(out, "rule: {rule}");
    }
    let _ = writeln!(out, "dag_stats: {:?}", report.dag_stats);
    let _ = writeln!(out, "views_considered: {}", report.views_considered);
    match &report.certificate {
        Some(cert) => {
            let _ = writeln!(out, "certificate: {}", certificate_to_json(cert));
        }
        None => {
            let _ = writeln!(out, "certificate: none");
        }
    }
    out.push('\n');
    report
}

/// Renders the whole corpus, returning the text and every report.
fn corpus() -> (String, Vec<ValidityReport>) {
    let mut out = String::new();
    let mut reports = Vec::new();

    // The E8 acceptance matrix, over the tiny university with the
    // registrar's extra grants.
    let mut uni = build(UniversityConfig::tiny()).unwrap();
    uni.engine.grant_view("registrar", "regstudents").unwrap();
    uni.engine.grant_constraint("registrar", "all_registered").unwrap();
    let student = uni.student(0);
    let reg = uni
        .registrations
        .iter()
        .find(|(s, _)| s == &student)
        .map(|(_, c)| c.clone())
        .expect("student registers");
    let unreg = (0..uni.config.courses)
        .map(|i| uni.course(i))
        .find(|c| !uni.is_registered(&student, c))
        .expect("unregistered course exists");
    let e8: Vec<(&str, &str, String)> = vec![
        ("E8 §3.3 misleading avg", &student, "select avg(grade) from grades".into()),
        (
            "E8 Ex 4.1 own avg",
            &student,
            format!("select avg(grade) from grades where student_id = '{student}'"),
        ),
        (
            "E8 Ex 4.1 course avg",
            &student,
            format!("select avg(grade) from grades where course_id = '{reg}'"),
        ),
        (
            "E8 Ex 4.4 registered course",
            &student,
            format!("select * from grades where course_id = '{reg}'"),
        ),
        (
            "E8 Ex 4.3 unregistered course",
            &student,
            format!("select * from grades where course_id = '{unreg}'"),
        ),
        (
            "E8 Ex 5.1 distinct names",
            "registrar",
            "select distinct name, type from students".into(),
        ),
        ("E8 Ex 5.1 without distinct", "registrar", "select name, type from students".into()),
        (
            "E8 §2 secretary by id",
            "secretary",
            format!("select * from grades where student_id = '{student}'"),
        ),
        ("E8 §2 secretary full list", "secretary", "select * from grades".into()),
    ];
    for (label, user, sql) in &e8 {
        reports.push(render(&mut out, label, &uni.engine, user, sql));
    }
    for q in university_mix(&student, &reg, &unreg) {
        let label = format!("mix {}", q.label);
        reports.push(render(&mut out, &label, &uni.engine, &q.user, &q.sql));
    }
    reports.push(render(
        &mut out,
        "university Q001 uncovered relation",
        &uni.engine,
        &student,
        "select * from courses",
    ));

    // The paper's worked examples, each principal holding the grants
    // its test gives it.
    let mut e = Engine::new();
    e.admin_script(PAPER_DDL).unwrap();
    let grants: &[(&str, &[&str], &[&str])] = &[
        ("11", &["mygrades"], &[]),
        ("c11", &["costudentgrades"], &[]),
        ("avg", &["avggrades"], &[]),
        ("reg", &["myregistrations"], &[]),
        ("u51", &["regstudents"], &["all_registered"]),
        ("u53", &["regstudents"], &["ft_registered"]),
        ("u54", &["regstudentsid", "feespaidview"], &["fees_registered", "all_registered"]),
        ("sec", &["singlegrade"], &[]),
        ("12", &["myregistrations", "singlegrade"], &[]),
        ("u3c", &["regnames", "allregistered"], &["all_registered"]),
        ("dj", &["allregistered", "singlegrade"], &[]),
    ];
    for (user, views, constraints) in grants {
        for v in *views {
            e.grant_view(user, v).unwrap();
        }
        for c in *constraints {
            e.grant_constraint(user, c).unwrap();
        }
    }
    // Example 4.4's student holds both views; the paper's user 11 is
    // "c11" for Example 4.3 (CoStudentGrades alone) and "11" otherwise.
    e.grant_view("11", "costudentgrades").unwrap();
    e.grant_view("11", "myregistrations").unwrap();
    let paper: &[(&str, &str, &str)] = &[
        ("§5.2 own grade", "11", "select grade from grades where student_id = '11'"),
        (
            "§5.2 own good grades",
            "11",
            "select course_id from grades where student_id = '11' and grade >= 90",
        ),
        ("Ex 4.1 own avg", "11", "select avg(grade) from grades where student_id = '11'"),
        ("Ex 4.1 course avg", "avg", "select avg(grade) from grades where course_id = 'cs101'"),
        ("§3.3 overall avg", "11", "select avg(grade) from grades"),
        ("Ex 4.3 without registrations", "c11", "select * from grades where course_id = 'cs101'"),
        ("Ex 4.4 registered course", "11", "select * from grades where course_id = 'cs101'"),
        ("Ex 4.4 unregistered course", "11", "select * from grades where course_id = 'cs202'"),
        (
            "Ex 4.4 registration query",
            "reg",
            "select 1 from registered where student_id = 'reg' and course_id = 'cs101'",
        ),
        ("Ex 5.1 distinct names", "u51", "select distinct name, type from students"),
        ("Ex 5.1 without distinct", "u51", "select name, type from students"),
        (
            "Ex 5.3 full-time names",
            "u53",
            "select distinct name from students where type = 'FullTime'",
        ),
        ("Ex 5.3 all names", "u53", "select distinct name, type from students"),
        (
            "Ex 5.4 fees paid join",
            "u54",
            "select distinct name from students, feespaid \
             where students.student_id = feespaid.student_id",
        ),
        ("§2 single grade by id", "sec", "select * from grades where student_id = '13'"),
        ("§2 single grade full list", "sec", "select * from grades"),
        (
            "§6 dependent join",
            "12",
            "select g.grade from registered r, grades g \
             where r.student_id = '12' and r.student_id = g.student_id",
        ),
        (
            "§6 dependent join without a constant",
            "dj",
            "select g.grade from registered r, grades g where r.student_id = g.student_id",
        ),
        ("§5.6 rejected scan", "11", "select * from grades"),
        ("U3c names with multiplicity", "u3c", "select name from students"),
        (
            "C3b grades without a key",
            "11",
            "select grade from grades where course_id = 'cs101'",
        ),
        ("Q001 uncovered relation", "11", "select * from feespaid"),
    ];
    for (label, user, sql) in paper {
        reports.push(render(&mut out, label, &e, user, sql));
    }
    (out, reports)
}

const ALL_RULES: [RuleId; 10] = [
    RuleId::U1,
    RuleId::U2Dag,
    RuleId::U2Match,
    RuleId::U2Restrict,
    RuleId::U2Compose,
    RuleId::U3a,
    RuleId::U3c,
    RuleId::C3a,
    RuleId::C3b,
    RuleId::DependentJoin,
];

#[test]
fn corpus_reaches_every_rule_and_both_denial_kinds() {
    let (_, reports) = corpus();
    let used: BTreeSet<&str> = reports
        .iter()
        .filter_map(|r| r.certificate.as_ref())
        .flat_map(|c| c.steps.iter().map(|s| s.rule.as_str()))
        .collect();
    for rule in ALL_RULES {
        assert!(used.contains(rule.as_str()), "no certificate uses {}", rule.as_str());
    }
    let denied = |needle: &str| {
        reports
            .iter()
            .any(|r| r.verdict == Verdict::Invalid && r.rules.iter().any(|l| l.contains(needle)))
    };
    assert!(denied("Q001:"), "no Q001 denial in the corpus");
    assert!(
        denied("remainder probe is empty"),
        "no C3 probe-empty denial in the corpus"
    );
}

#[test]
fn derivations_match_the_golden() {
    let (text, _) = corpus();
    assert_eq!(text, corpus().0, "the prover is not deterministic within one process");
    if text != GOLDEN {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/derivations.txt");
        std::fs::write(actual, &text).unwrap();
        let first = text
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "prover output differs from tests/golden/derivations.txt at line {} \
             (full output written to {actual}):\n  now:    {}\n  golden: {}",
            first + 1,
            text.lines().nth(first).unwrap_or("<end>"),
            GOLDEN.lines().nth(first).unwrap_or("<end>"),
        );
    }
}
