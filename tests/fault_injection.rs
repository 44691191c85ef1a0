//! Fault-injection harness for the engine boundary.
//!
//! Exercises the robustness contract end to end: injected errors and
//! panics mid-DML must leave tables byte-identical to their
//! pre-statement state and the engine usable afterwards, and a starved
//! validity-check budget must produce a `ResourceExhausted`-backed DENY
//! — never an ALLOW.
//!
//! The whole file is gated on the `fault-injection` feature, which the
//! root crate's self dev-dependency enables for test builds only.
#![cfg(feature = "fault-injection")]

use fgac::prelude::*;
use fgac::types::faults::{self, Fault};
use fgac::types::Budget;

fn engine() -> Engine {
    let mut e = Engine::new();
    e.admin_script(
        "
        create table grades (
            student_id varchar not null, course_id varchar not null,
            grade int, primary key (student_id, course_id));
        create authorization view MyGrades as
            select * from grades where student_id = $user_id;
        insert into grades values
            ('11', 'cs101', 90), ('12', 'cs101', 70), ('13', 'cs202', 60);
        ",
    )
    .unwrap();
    e.grant_view("11", "mygrades").unwrap();
    e
}

fn grades(e: &Engine) -> Vec<Row> {
    e.database().table(&"grades".into()).unwrap().rows().to_vec()
}

/// Disarms all faults when dropped, so a failed assertion in one test
/// cannot leave a fault armed for code that runs during unwinding.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        faults::disarm_all();
    }
}

/// Runs `f` with the default panic hook replaced by a silent one, so
/// intentionally injected panics don't spray backtraces over the test
/// output.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn injected_error_mid_update_leaves_table_unchanged() {
    let _guard = Disarm;
    let mut e = engine();
    e.grant_update_sql("11", "authorize update on grades where grade >= 0")
        .unwrap();
    let s = Session::new("11");
    let before = grades(&e);
    let v0 = e.data_version();

    // The UPDATE matches all three rows; the injected fault fires while
    // processing the second.
    faults::arm("exec::update_row", Fault::ErrorOnNth(2));
    let err = e
        .execute(&s, "update grades set grade = grade + 1")
        .unwrap_err();
    assert!(matches!(err, Error::Internal(_)), "got {err:?}");
    faults::disarm_all();

    assert_eq!(grades(&e), before, "table must be byte-identical");
    assert_eq!(e.data_version(), v0, "failed DML must not bump the version");

    // The engine remains fully usable.
    let r = e
        .execute(&s, "select grade from grades where student_id = '11'")
        .unwrap();
    assert_eq!(r.rows().unwrap().rows[0].get(0), &Value::Int(90));
}

#[test]
fn injected_panic_mid_insert_rolls_back_and_engine_survives() {
    let _guard = Disarm;
    let mut e = engine();
    e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        .unwrap();
    let s = Session::new("11");
    let before = grades(&e);
    let v0 = e.data_version();

    // Three authorized rows; the storage layer panics inserting the
    // second, after the first has already landed. The engine's
    // pre-statement snapshot must undo the stranded first row.
    faults::arm("storage::insert", Fault::PanicOnNth(2));
    let err = with_quiet_panics(|| {
        e.execute(
            &s,
            "insert into grades values ('11', 'cs404', 50), ('11', 'cs405', 51), ('11', 'cs406', 52)",
        )
    })
    .unwrap_err();
    assert!(matches!(err, Error::Internal(_)), "got {err:?}");
    faults::disarm_all();

    assert_eq!(grades(&e), before, "partial insert must be rolled back");
    assert_eq!(e.data_version(), v0);

    // Engine still answers queries and accepts the same DML afterwards.
    let n = e
        .execute(&s, "insert into grades values ('11', 'cs404', 50)")
        .unwrap();
    assert_eq!(n.affected(), Some(1));
}

#[test]
fn injected_panic_between_row_and_index_write_keeps_keys_enforced() {
    let _guard = Disarm;
    let mut e = engine();
    e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        .unwrap();
    let s = Session::new("11");
    let before = grades(&e);

    // The `storage::insert` site sits after the row is appended and
    // journaled but before the key index learns of it: the second row
    // is in the table, unindexed, when the panic unwinds.
    faults::arm("storage::insert", Fault::PanicOnNth(2));
    let err = with_quiet_panics(|| {
        e.execute(
            &s,
            "insert into grades values ('11', 'cs501', 1), ('11', 'cs502', 2)",
        )
    })
    .unwrap_err();
    assert!(matches!(err, Error::Internal(_)), "got {err:?}");
    faults::disarm_all();
    assert_eq!(grades(&e), before, "both rows must be rolled back");

    // The rebuilt index still knows every surviving key...
    let err = e
        .execute(&s, "insert into grades values ('11', 'cs101', 0)")
        .unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "got {err:?}");
    // ...and none of the rolled-back ones: each inserts once, then is
    // refused as a duplicate.
    for course in ["cs501", "cs502"] {
        let sql = format!("insert into grades values ('11', '{course}', 3)");
        assert_eq!(e.execute(&s, &sql).unwrap().affected(), Some(1));
        assert!(matches!(e.execute(&s, &sql), Err(Error::Constraint(_))));
    }
}

#[test]
fn injected_panic_during_query_eval_is_isolated() {
    let _guard = Disarm;
    let mut e = engine();
    let s = Session::new("11");
    let q = "select grade from grades where student_id = '11'";

    faults::arm("exec::eval", Fault::PanicOnNth(1));
    let err = with_quiet_panics(|| e.execute(&s, q)).unwrap_err();
    assert!(matches!(err, Error::Internal(_)), "got {err:?}");
    faults::disarm_all();

    // The panic did not poison the engine: the same query now runs.
    let r = e.execute(&s, q).unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 1);
}

#[test]
fn starved_budget_denies_and_never_allows() {
    // The query is accepted under the default budget...
    let mut accepting = engine();
    let s = Session::new("11");
    let q = "select grade from grades where student_id = '11'";
    assert!(accepting.execute(&s, q).is_ok());

    // ...and under starvation it must deny with ResourceExhausted; an
    // Ok here would be a wrong ALLOW, the one outcome the fail-closed
    // contract forbids.
    let mut starved = engine().with_check_options(CheckOptions {
        budget: Budget::with_max_steps(2),
        ..CheckOptions::default()
    });
    let report = starved.check(&s, q).unwrap();
    assert_eq!(report.verdict, Verdict::Invalid);
    assert!(report.exhausted.is_some());
    match starved.execute(&s, q) {
        Err(Error::ResourceExhausted(_)) => {}
        other => panic!("expected ResourceExhausted deny, got {other:?}"),
    }
}

#[test]
fn every_budget_level_accepts_correctly_or_denies_exhausted() {
    // Sweep the step budget across the exhaustion boundary. At every
    // level the outcome must be either the correct answer or a
    // ResourceExhausted deny — a partial check may never surface as an
    // ALLOW, and it may never misreport plain "unauthorized" either.
    let s = Session::new("11");
    let q = "select grade from grades where student_id = '11'";
    let mut denied = 0;
    let mut accepted = 0;
    for n in 1..=32 {
        let mut e = engine().with_check_options(CheckOptions {
            budget: Budget::with_max_steps(n),
            ..CheckOptions::default()
        });
        match e.execute(&s, q) {
            Ok(r) => {
                accepted += 1;
                assert_eq!(r.rows().unwrap().rows.len(), 1);
            }
            Err(Error::ResourceExhausted(_)) => denied += 1,
            Err(other) => panic!("budget {n}: unexpected error {other:?}"),
        }
    }
    assert!(denied > 0, "sweep never crossed the exhaustion boundary");
    assert!(accepted > 0, "sweep never reached an accepting budget");
}

#[test]
fn disarmed_faults_are_invisible() {
    // With nothing armed, instrumented builds behave exactly like
    // normal ones: the full authorized DML round-trip succeeds.
    let _guard = Disarm;
    faults::disarm_all();
    let mut e = engine();
    e.grant_update_sql("11", "authorize update on grades where student_id = $user_id")
        .unwrap();
    let s = Session::new("11");
    let n = e
        .execute(&s, "update grades set grade = 95 where student_id = '11'")
        .unwrap();
    assert_eq!(n.affected(), Some(1));
    let r = e
        .execute(&s, "select grade from grades where student_id = '11'")
        .unwrap();
    assert_eq!(r.rows().unwrap().rows[0].get(0), &Value::Int(95));
}

// ---------------------------------------------------------------------------
// Per-request wall-clock deadlines (threaded into the same Budget meter
// as the step fuel; see Engine::execute_at).
// ---------------------------------------------------------------------------

#[test]
fn expired_deadline_denies_before_touching_any_cache() {
    use std::time::{Duration, Instant};
    let mut e = engine();
    let s = Session::new("11");
    let q = "select grade from grades where student_id = '11'";

    let validity_before = e.cache().stats();
    let plan_before = e.plan_cache().stats();
    let past = Instant::now() - Duration::from_millis(10);
    match e.execute_at(&s, q, Some(past)) {
        Err(Error::ResourceExhausted(m)) => {
            assert!(m.starts_with("deadline"), "deadline deny must be marked: {m}");
        }
        other => panic!("expected deadline ResourceExhausted, got {other:?}"),
    }
    assert_eq!(
        e.cache().stats(),
        validity_before,
        "an expired deadline must not read or write the validity cache"
    );
    assert_eq!(
        e.plan_cache().stats(),
        plan_before,
        "an expired deadline must not read or write the plan cache"
    );

    // Nothing was poisoned: the identical query with a generous deadline
    // is admitted and answers correctly.
    let r = e
        .execute_at(&s, q, Some(Instant::now() + Duration::from_secs(5)))
        .unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 1);
}

#[test]
fn expired_deadline_denies_even_a_cache_hot_query() {
    use std::time::{Duration, Instant};
    let mut e = engine();
    let s = Session::new("11");
    let q = "select grade from grades where student_id = '11'";

    // Warm every layer: the verdict and plan are now cached.
    e.execute(&s, q).unwrap();
    e.execute(&s, q).unwrap();

    // The deadline gate sits in front of the caches, so a hot verdict
    // cannot leak past an exhausted allowance (fail-closed even on the
    // fast path).
    let past = Instant::now() - Duration::from_millis(1);
    match e.execute_at(&s, q, Some(past)) {
        Err(Error::ResourceExhausted(m)) => assert!(m.starts_with("deadline"), "{m}"),
        other => panic!("expected deadline deny on the hot path, got {other:?}"),
    }
    // And the cache still serves the next in-budget request.
    assert!(e.execute(&s, q).is_ok());
}

#[test]
fn deadline_and_fuel_exhaustion_are_distinguishable() {
    use std::time::{Duration, Instant};
    let s = Session::new("11");
    let q = "select grade from grades where student_id = '11'";

    // Fuel exhaustion: same error variant, no deadline marker — a
    // client (or the network front end) can tell "retry later" from
    // "this query is too expensive at this budget".
    let mut starved = engine().with_check_options(CheckOptions {
        budget: Budget::with_max_steps(2),
        ..CheckOptions::default()
    });
    let fuel_msg = match starved.execute(&s, q) {
        Err(Error::ResourceExhausted(m)) => m,
        other => panic!("expected fuel ResourceExhausted, got {other:?}"),
    };
    assert!(
        !fuel_msg.starts_with("deadline"),
        "fuel exhaustion must not carry the deadline marker: {fuel_msg}"
    );

    let mut e = engine();
    let deadline_msg = match e.execute_at(&s, q, Some(Instant::now() - Duration::from_millis(1))) {
        Err(Error::ResourceExhausted(m)) => m,
        other => panic!("expected deadline ResourceExhausted, got {other:?}"),
    };
    assert!(deadline_msg.starts_with("deadline"), "{deadline_msg}");
    assert_ne!(fuel_msg, deadline_msg);
}

#[test]
fn deadline_expiry_is_never_a_wrong_allow_or_plain_deny() {
    use std::time::{Duration, Instant};
    // Sweep deadlines from already-expired through comfortable. At every
    // point the outcome must be the correct answer or a deadline-marked
    // ResourceExhausted — never a plain Unauthorized (which would claim
    // an authorization verdict that was never computed) and never a
    // wrong ALLOW for a revoked principal.
    let s = Session::new("11");
    let q = "select grade from grades where student_id = '11'";
    for micros in [0u64, 1, 10, 100, 10_000, 1_000_000] {
        let mut e = engine();
        let at = Instant::now() + Duration::from_micros(micros);
        match e.execute_at(&s, q, Some(at)) {
            Ok(r) => assert_eq!(r.rows().unwrap().rows.len(), 1),
            Err(Error::ResourceExhausted(m)) => {
                assert!(m.starts_with("deadline") || m.contains("deadline"), "{m}")
            }
            Err(other) => panic!("deadline {micros}us: unexpected {other:?}"),
        }
        // A revoked principal is denied regardless of deadline pressure.
        let mut revoked = engine();
        revoked.revoke_view("11", "mygrades").unwrap();
        match revoked.execute_at(&s, q, Some(Instant::now() + Duration::from_micros(micros))) {
            Ok(_) => panic!("deadline pressure produced a wrong ALLOW"),
            Err(Error::Unauthorized(_)) | Err(Error::ResourceExhausted(_)) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
}
