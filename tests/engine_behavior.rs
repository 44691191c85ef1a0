//! Engine-level behavioral tests: caching across DML, roles, session
//! parameters, error classification, multi-user isolation.

use fgac::prelude::*;
use fgac_types::Value;

fn engine() -> Engine {
    let mut e = Engine::new();
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
        insert into registered values ('12', 'cs101');
        ",
    )
    .unwrap();
    e
}

#[test]
fn per_user_isolation_of_parameterized_views() {
    // One view definition, different instantiations (Section 2's
    // rule-based framework): each user sees exactly her slice.
    let mut e = engine();
    e.grant_view("11", "mygrades").unwrap();
    e.grant_view("12", "mygrades").unwrap();
    for (user, expected_grade) in [("11", 90i64), ("12", 70)] {
        let s = Session::new(user);
        let r = e
            .execute(
                &s,
                &format!("select grade from grades where student_id = '{user}'"),
            )
            .unwrap();
        assert_eq!(r.rows().unwrap().rows[0].get(0), &Value::Int(expected_grade));
        // And cannot read the other user's row.
        let other = if user == "11" { "12" } else { "11" };
        assert!(e
            .execute(
                &s,
                &format!("select grade from grades where student_id = '{other}'")
            )
            .is_err());
    }
}

#[test]
fn conditional_cache_invalidation_on_dml() {
    // An Invalid verdict must not be served from cache after an insert
    // that makes the query conditionally valid.
    let mut e = engine();
    e.grant_view("11", "costudentgrades").unwrap();
    e.grant_view("11", "myregistrations").unwrap();
    e.grant_update_sql("11", "authorize insert on registered where student_id = $user_id")
        .unwrap();
    let s = Session::new("11");
    let q = "select * from grades where course_id = 'cs101'";

    // Not registered yet: Invalid (and cached).
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Invalid);
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Invalid); // cache hit

    // Register; the stale Invalid entry must expire.
    e.execute(&s, "insert into registered values ('11', 'cs101')")
        .unwrap();
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Conditional);
}

#[test]
fn unconditional_verdicts_survive_dml() {
    let mut e = engine();
    e.grant_view("11", "mygrades").unwrap();
    e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        .unwrap();
    let s = Session::new("11");
    let q = "select grade from grades where student_id = '11'";
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Unconditional);
    e.execute(&s, "insert into grades values ('11', 'cs303', 75)")
        .unwrap();
    // Served from cache (unconditional verdicts are state-independent).
    let report = e.check(&s, q).unwrap();
    assert_eq!(report.verdict, Verdict::Unconditional);
    assert!(report.rules.iter().any(|r| r.contains("cache")));
}

#[test]
fn grant_changes_clear_the_cache() {
    let mut e = engine();
    let s = Session::new("11");
    let q = "select grade from grades where student_id = '11'";
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Invalid);
    // Granting the view must invalidate the cached rejection.
    e.grant_view("11", "mygrades").unwrap();
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Unconditional);
}

#[test]
fn delegation_flows_through_engine() {
    // Section 6: delegation collects views into the delegatee's set;
    // inference then runs on the union.
    let mut e = engine();
    e.grant_view("11", "mygrades").unwrap();
    e.delegate_view("11", "assistant", "mygrades").unwrap();
    // The assistant's own $user_id instantiation governs: she sees HER
    // slice of grades via the delegated view definition, not user 11's.
    let s = Session::new("assistant");
    assert!(e
        .execute(&s, "select * from grades where student_id = '11'")
        .is_err());
    // A user holding nothing cannot delegate.
    assert!(e.delegate_view("99", "x", "mygrades").is_err());
}

#[test]
fn roles_compose_with_parameterized_views() {
    let mut e = engine();
    e.grant_view("student-role", "mygrades").unwrap();
    e.add_role("11", "student-role").unwrap();
    let s = Session::new("11");
    let r = e
        .execute(&s, "select grade from grades where student_id = '11'")
        .unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 1);
}

#[test]
fn extra_session_parameters_flow_into_views() {
    let mut e = engine();
    e.admin_script(
        "create authorization view DaytimeGrades as
            select * from grades where student_id = $user_id and $hour >= 9 and $hour <= 17;",
    )
    .unwrap();
    e.grant_view("11", "daytimegrades").unwrap();
    // Daytime session: view is non-vacuous, query valid.
    let day = Session::new("11").with_param("hour", 12);
    let q = "select grade from grades where student_id = '11'";
    assert_eq!(
        e.check(&day, q).unwrap().verdict,
        Verdict::Unconditional,
        "daytime access allowed"
    );
    // Night session: the instantiated view is empty (predicate folds to
    // FALSE), so nothing is derivable from it.
    let night = Session::new("11").with_param("hour", 3);
    assert_eq!(e.check(&night, q).unwrap().verdict, Verdict::Invalid);
}

#[test]
fn queries_on_view_names_work_and_check() {
    // Users may also write queries against the view by name (the paper
    // allows both); the binder inlines it and validity is trivial.
    let mut e = engine();
    e.grant_view("11", "mygrades").unwrap();
    let s = Session::new("11");
    let r = e.execute(&s, "select avg(grade) from mygrades").unwrap();
    assert_eq!(r.rows().unwrap().rows[0].get(0), &Value::Double(90.0));
}

#[test]
fn error_classification() {
    let mut e = engine();
    e.grant_view("11", "mygrades").unwrap();
    let s = Session::new("11");
    // Parse error.
    assert!(matches!(
        e.execute(&s, "selecct nonsense"),
        Err(Error::Parse(_))
    ));
    // Bind error (unknown table).
    assert!(matches!(
        e.execute(&s, "select * from nope"),
        Err(Error::Bind(_))
    ));
    // Unauthorized.
    assert!(matches!(
        e.execute(&s, "select * from grades"),
        Err(Error::Unauthorized(_))
    ));
    // Unsupported (nested subquery — excluded as in the paper §5).
    assert!(matches!(
        e.execute(&s, "select * from grades where grade in (select grade from grades)"),
        Err(Error::Unsupported(_))
    ));
}

#[test]
fn order_by_and_limit_do_not_affect_validity() {
    let mut e = engine();
    e.grant_view("11", "mygrades").unwrap();
    let s = Session::new("11");
    let r = e
        .execute(
            &s,
            "select course_id, grade from grades where student_id = '11' \
             order by grade desc limit 1",
        )
        .unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 1);
}

#[test]
fn validity_report_carries_rule_trace() {
    let mut e = engine();
    e.grant_view("11", "mygrades").unwrap();
    let s = Session::new("11");
    let report = e
        .check(&s, "select grade from grades where student_id = '11'")
        .unwrap();
    assert!(report.is_valid());
    assert!(!report.rules.is_empty());
    assert!(report.views_considered >= 1);
}

#[test]
fn dml_through_engine_is_atomic_per_statement() {
    let mut e = engine();
    e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        .unwrap();
    let s = Session::new("11");
    let before = e.database().table(&"grades".into()).unwrap().len();
    // Second tuple unauthorized: whole statement rejected.
    let err = e.execute(
        &s,
        "insert into grades values ('11', 'cs404', 50), ('12', 'cs404', 50)",
    );
    assert!(err.is_err());
    assert_eq!(e.database().table(&"grades".into()).unwrap().len(), before);
}

#[test]
fn truman_and_nontruman_agree_when_query_is_within_the_view() {
    // When the query only touches the user's own slice, both models
    // give the same (correct) answer — the divergence is only outside.
    let mut e = engine();
    e.grant_view("11", "mygrades").unwrap();
    let s = Session::new("11");
    let policy = TrumanPolicy::new().substitute_view("grades", "mygrades");
    let q = "select grade from grades where student_id = '11'";
    let truman = e.truman_execute(&policy, &s, q).unwrap();
    let nt = e.execute(&s, q).unwrap();
    assert_eq!(&truman.rows, &nt.rows().unwrap().rows);
}

#[test]
fn failed_dml_does_not_bump_version_or_evict_cache() {
    // A rolled-back statement must be invisible to the cache layer: the
    // data version stays put and version-pinned (Conditional) verdicts
    // keep being served from cache.
    let mut e = engine();
    e.grant_view("11", "costudentgrades").unwrap();
    e.grant_view("11", "myregistrations").unwrap();
    e.grant_update_sql("11", "authorize insert on registered where student_id = $user_id")
        .unwrap();
    let s = Session::new("11");
    e.execute(&s, "insert into registered values ('11', 'cs101')")
        .unwrap();

    // Conditional verdict, pinned to the current data version.
    let q = "select * from grades where course_id = 'cs101'";
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Conditional);
    let v0 = e.data_version();
    let (hits_before, _) = e.cache().stats();

    // Unauthorized tuple: statement rejected and rolled back.
    let err = e.execute(&s, "insert into registered values ('12', 'cs202')");
    assert!(err.is_err());
    assert_eq!(e.data_version(), v0, "failed DML must not bump the version");

    // The pinned verdict is still served from cache.
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Conditional);
    let (hits_after, _) = e.cache().stats();
    assert!(hits_after > hits_before, "expected a cache hit after failed DML");
}

#[test]
fn committed_dml_bumps_version_and_reverifies_conditional_verdicts() {
    let mut e = engine();
    e.grant_view("11", "costudentgrades").unwrap();
    e.grant_view("11", "myregistrations").unwrap();
    e.grant_update_sql("11", "authorize delete on registered where student_id = $user_id")
        .unwrap();
    e.grant_update_sql("11", "authorize insert on registered where student_id = $user_id")
        .unwrap();
    let s = Session::new("11");
    e.execute(&s, "insert into registered values ('11', 'cs101')")
        .unwrap();

    let q = "select * from grades where course_id = 'cs101'";
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Conditional);
    let v0 = e.data_version();

    // Committed DML invalidates the pinned verdict: deleting the
    // registration flips the query back to Invalid.
    e.execute(&s, "delete from registered where student_id = '11'")
        .unwrap();
    assert!(e.data_version() > v0, "committed DML must bump the version");
    assert_eq!(e.check(&s, q).unwrap().verdict, Verdict::Invalid);
}

#[test]
fn update_enforces_primary_and_foreign_keys_all_or_nothing() {
    let mut e = Engine::new();
    e.admin_script(
        "
        create table students (student_id varchar not null, name varchar,
            primary key (student_id));
        create table enrolled (student_id varchar not null, course_id varchar,
            foreign key (student_id) references students (student_id));
        insert into students values ('11', 'ann'), ('12', 'bob');
        insert into enrolled values ('11', 'cs101');
        ",
    )
    .unwrap();
    e.grant_update_sql("11", "authorize update on students where true")
        .unwrap();
    e.grant_update_sql("11", "authorize update on enrolled where true")
        .unwrap();
    let s = Session::new("11");
    let rows = |e: &Engine, t: &str| e.database().table(&t.into()).unwrap().rows().to_vec();
    let (students, enrolled, v0) = (rows(&e, "students"), rows(&e, "enrolled"), e.data_version());

    // A duplicate primary key is refused with the INSERT path's message.
    let err = e
        .execute(
            &s,
            "update students set student_id = '12' where student_id = '11'",
        )
        .unwrap_err();
    assert_eq!(
        err,
        Error::Constraint(r#"duplicate primary key [Str("12")] in students"#.into())
    );
    // So is a child key with no parent; the admin path checks the same.
    let dangling = "update enrolled set student_id = '99'";
    let err = e.execute(&s, dangling).unwrap_err();
    assert_eq!(
        err,
        Error::Constraint(
            r#"foreign key fk_enrolled_0: value [Str("99")] not present in students"#.into()
        )
    );
    assert!(matches!(
        e.admin_script(dangling),
        Err(Error::Constraint(_))
    ));
    assert_eq!(
        rows(&e, "students"),
        students,
        "refused updates change nothing"
    );
    assert_eq!(rows(&e, "enrolled"), enrolled);
    assert_eq!(e.data_version(), v0);

    // Keys are checked against the statement's final state: two rows
    // may swap keys in one UPDATE.
    e.admin_script(
        "create table seats (seat int not null, primary key (seat));
         insert into seats values (1), (2);",
    )
    .unwrap();
    e.grant_update_sql("11", "authorize update on seats where true")
        .unwrap();
    let n = e.execute(&s, "update seats set seat = 3 - seat").unwrap();
    assert_eq!(n.affected(), Some(2));
    assert_eq!(rows(&e, "seats"), vec![Row(vec![Value::Int(2)]), Row(vec![Value::Int(1)])]);
    assert!(matches!(
        e.admin_script("insert into seats values (1)"),
        Err(Error::Constraint(_))
    ));
}
