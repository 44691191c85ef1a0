//! The data-commit restamp of conditional accepts.
//!
//! A conditional accept (rule C3a/C3b) rests on one fact about the
//! data: its remainder probe is non-empty. At each commit the engine
//! carries such an accept to the new data version unless the statement
//! removed a row that may have been a witness of the probe. These tests
//! pin that rule from the outside: which commits keep an accept a plain
//! cache hit, which send the next check cold, and — by property — that
//! every served verdict equals an uncached certification on the same
//! state.
//!
//! The C3 probe counter is process-wide, so every test here holds
//! [`serial`] while it runs.

use fgac::core::nontruman::c3_probe_count;
use fgac::prelude::*;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const STUDENTS: [&str; 3] = ["11", "12", "13"];
const COURSES: [&str; 2] = ["cs101", "cs202"];

/// Conditional for a principal registered in cs101.
const Q101: &str = "select * from grades where course_id = 'cs101'";

fn engine_with(options: CheckOptions) -> Engine {
    let mut e = Engine::new().with_check_options(options);
    e.admin_script(
        "
        create table grades (
            student_id varchar not null, course_id varchar not null,
            grade int, primary key (student_id, course_id));
        create table registered (
            student_id varchar not null, course_id varchar not null);
        create authorization view MyGrades as
            select * from grades where student_id = $user_id;
        create authorization view CoStudentGrades as
            select grades.* from grades, registered
            where registered.student_id = $user_id
              and grades.course_id = registered.course_id;
        create authorization view MyRegistrations as
            select * from registered where student_id = $user_id;
        insert into grades values
            ('11', 'cs101', 90), ('12', 'cs101', 70), ('13', 'cs202', 60);
        insert into registered values
            ('11', 'cs101'), ('12', 'cs101'), ('12', 'cs202');
        ",
    )
    .unwrap();
    for user in ["11", "12"] {
        e.grant_view(user, "costudentgrades").unwrap();
        e.grant_view(user, "myregistrations").unwrap();
    }
    e
}

fn engine() -> Engine {
    engine_with(CheckOptions::default())
}

/// Was the verdict served by the validity cache without any check?
fn plain_hit(report: &ValidityReport) -> bool {
    report.rules.iter().any(|r| r == "validity cache hit")
}

/// Checks `Q101` for principal 11 and returns the report, asserting the
/// verdict.
fn check(e: &Engine, verdict: Verdict) -> ValidityReport {
    let report = e.check(&Session::new("11"), Q101).unwrap();
    assert_eq!(report.verdict, verdict, "rules: {:?}", report.rules);
    report
}

#[test]
fn deleting_or_updating_a_non_witness_keeps_the_accept_a_hit() {
    let _serial = serial();
    let mut e = engine();
    assert!(!plain_hit(&check(&e, Verdict::Conditional)));
    let probes = c3_probe_count();
    for dml in [
        "delete from registered where student_id = '12' and course_id = 'cs101'",
        "update registered set course_id = 'cs303' where student_id = '12'",
        "delete from grades where student_id = '13'",
    ] {
        let v = e.data_version();
        e.admin_script(dml).unwrap();
        assert!(e.data_version() > v, "{dml} committed");
        assert!(plain_hit(&check(&e, Verdict::Conditional)), "after {dml}");
    }
    assert_eq!(c3_probe_count(), probes, "no C3 probe re-ran");
}

#[test]
fn removing_the_witness_sends_the_next_check_cold_and_it_flips() {
    let _serial = serial();
    for dml in [
        "delete from registered where student_id = '11'",
        "update registered set course_id = 'cs202' where student_id = '11'",
    ] {
        let mut e = engine();
        check(&e, Verdict::Conditional);
        let probes = c3_probe_count();
        e.admin_script(dml).unwrap();
        let report = check(&e, Verdict::Invalid);
        assert!(!plain_hit(&report), "{dml}: served from the cache");
        assert!(c3_probe_count() > probes, "{dml}: the probe re-ran");
    }
}

#[test]
fn an_insert_never_unstamps_an_accept() {
    let _serial = serial();
    let mut e = engine();
    check(&e, Verdict::Conditional);
    let probes = c3_probe_count();
    for dml in [
        // A second witness, a row of another principal, an unrelated row.
        "insert into registered values ('11', 'cs101')",
        "insert into registered values ('13', 'cs101')",
        "insert into registered values ('11', 'cs202')",
        "insert into grades values ('13', 'cs101', 55)",
    ] {
        e.admin_script(dml).unwrap();
        assert!(plain_hit(&check(&e, Verdict::Conditional)), "after {dml}");
    }
    assert_eq!(c3_probe_count(), probes);
}

#[test]
fn an_accept_made_with_emission_off_stays_pinned() {
    let _serial = serial();
    let mut e = engine_with(CheckOptions {
        emit_certificates: false,
        ..CheckOptions::default()
    });
    check(&e, Verdict::Conditional);
    assert!(plain_hit(&check(&e, Verdict::Conditional)));
    let probes = c3_probe_count();
    e.admin_script("delete from registered where student_id = '13'")
        .unwrap();
    assert!(!plain_hit(&check(&e, Verdict::Conditional)));
    assert!(
        c3_probe_count() > probes,
        "no certificate, no probe to judge"
    );
}

#[test]
fn stale_by_policy_and_restamped_by_data_still_revalidates() {
    let _serial = serial();
    let mut e = engine();
    check(&e, Verdict::Conditional);
    // Affects principal 11: the certificate-carrying accept stays behind
    // at its mint epoch.
    e.grant_view("11", "mygrades").unwrap();
    e.admin_script("delete from registered where student_id = '12' and course_id = 'cs202'")
        .unwrap();
    let probes = c3_probe_count();
    let (hits, misses) = e.cache().revalidation_stats();
    let report = check(&e, Verdict::Conditional);
    assert!(
        report
            .rules
            .iter()
            .any(|r| r.contains("certificate revalidated")),
        "rules: {:?}",
        report.rules
    );
    assert_eq!(e.cache().revalidation_stats(), (hits + 1, misses));
    assert_eq!(c3_probe_count(), probes, "revalidation runs no probe");
    assert!(plain_hit(&check(&e, Verdict::Conditional)));
}

/// One step of the property test's interleaving.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        student: usize,
        course: usize,
    },
    Update {
        student: usize,
        from: usize,
        to: usize,
    },
    Delete {
        student: usize,
        course: usize,
    },
    Read {
        principal: usize,
        query: usize,
    },
}

/// Conditional while the principal is registered in the course, denied
/// otherwise; the last is denied on every state.
const READS: [&str; 3] = [
    Q101,
    "select * from grades where course_id = 'cs202'",
    "select * from grades",
];

fn op() -> impl Strategy<Value = Op> {
    let student = 0..STUDENTS.len();
    let course = 0..COURSES.len();
    prop_oneof![
        (student.clone(), course.clone())
            .prop_map(|(student, course)| Op::Insert { student, course }),
        (student.clone(), course.clone(), course.clone())
            .prop_map(|(student, from, to)| Op::Update { student, from, to }),
        (student, course).prop_map(|(student, course)| Op::Delete { student, course }),
        (0..2usize, 0..READS.len()).prop_map(|(principal, query)| Op::Read { principal, query }),
        (0..2usize, 0..READS.len()).prop_map(|(principal, query)| Op::Read { principal, query }),
    ]
}

fn dml(op: &Op) -> Option<String> {
    Some(match *op {
        Op::Insert { student, course } => format!(
            "insert into registered values ('{}', '{}')",
            STUDENTS[student], COURSES[course]
        ),
        Op::Update { student, from, to } => format!(
            "update registered set course_id = '{}' \
             where student_id = '{}' and course_id = '{}'",
            COURSES[to], STUDENTS[student], COURSES[from]
        ),
        Op::Delete { student, course } => format!(
            "delete from registered where student_id = '{}' and course_id = '{}'",
            STUDENTS[student], COURSES[course]
        ),
        Op::Read { .. } => return None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random INSERT/UPDATE/DELETE on `registered` interleaved with
    /// conditional and denied reads of two principals: every verdict the
    /// cached path serves equals an uncached certification on the same
    /// state.
    #[test]
    fn served_verdicts_equal_uncached_certification(ops in proptest::collection::vec(op(), 1..40)) {
        let _serial = serial();
        let mut e = engine();
        for op in &ops {
            if let Some(sql) = dml(op) {
                e.admin_script(&sql).unwrap();
                continue;
            }
            let Op::Read { principal, query } = *op else { continue };
            let session = Session::new(STUDENTS[principal]);
            let served = e.check(&session, READS[query]).unwrap();
            let cold = e.certify(&session, READS[query]).unwrap();
            prop_assert_eq!(
                served.verdict,
                cold.verdict,
                "{} as {} after {:?}: served by {:?}",
                READS[query],
                STUDENTS[principal],
                ops,
                served.rules
            );
        }
    }
}
