//! Churn chaos harness: policy churn interleaved with concurrent
//! readers and crash/restart (WAL recovery).
//!
//! The invariant under test is the fail-closed one from DESIGN.md §4j:
//! once a revocation completes — dependency sweep done, write lock
//! released — the revoked principal is denied on the *very next*
//! request, whether that request rides a warm cache, a certificate
//! revalidation, or a recovered engine. No stale verdict, ever.

#![allow(
    clippy::disallowed_types,
    reason = "test harness: temp-dir ids need fetch_add's return value, and the readers' stop flag is a test signal whose threads are joined before any assertion"
)]

use fgac::prelude::*;
use fgac_core::SharedEngine;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "fgac-churn-chaos-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SCHEMA: &str = "
    create table grades (student_id varchar not null, course_id varchar not null,
        grade int, primary key (student_id, course_id));
    create authorization view MyGrades as
        select * from grades where student_id = $user_id;
    insert into grades values
        ('11', 'cs101', 90), ('11', 'cs202', 80), ('12', 'cs101', 70);
";

fn populate(e: &mut Engine) {
    e.admin_script(SCHEMA).unwrap();
    e.grant_view("11", "mygrades").unwrap();
    e.grant_view("12", "mygrades").unwrap();
}

const Q11: &str = "select grade from grades where student_id = '11'";

/// Live churn against concurrent readers. The writer revokes and
/// re-grants principal 11 while six readers hammer 11's query and two
/// more keep principal 12 (never revoked) warm. After every revocation
/// the writer runs a sequenced-after probe that must deny; after every
/// grant, one that must allow. Pad churn on an unrelated principal and
/// unrelated DDL are mixed in so the dependency sweep — not a blanket
/// clear — is what keeps 12's entries serving.
#[test]
fn concurrent_readers_never_see_a_stale_verdict_under_churn() {
    let mut e = Engine::new();
    populate(&mut e);
    let shared = SharedEngine::new(e);
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..6 {
        let shared = shared.clone();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let s = Session::new("11");
            while !stop.load(Ordering::Relaxed) {
                match shared.execute(&s, Q11) {
                    Ok(r) => assert_eq!(r.rows().unwrap().rows.len(), 2),
                    Err(Error::Unauthorized(_)) => {}
                    Err(other) => panic!("reader saw non-auth error: {other:?}"),
                }
            }
        }));
    }
    // Principal 12 is never touched by the churn: every one of its
    // checks after the first must be warm (restamped or revalidated).
    for _ in 0..2 {
        let shared = shared.clone();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let s = Session::new("12");
            let q = "select grade from grades where student_id = '12'";
            while !stop.load(Ordering::Relaxed) {
                let r = shared.execute(&s, q).expect("12 is never revoked");
                assert_eq!(r.rows().unwrap().rows.len(), 1);
            }
        }));
    }

    let probe = Session::new("11");
    for round in 0..40 {
        shared.with_write(|e| e.revoke_view("11", "mygrades")).unwrap();
        match shared.execute(&probe, Q11) {
            Err(Error::Unauthorized(_)) => {}
            other => panic!("round {round}: stale ALLOW after revoke: {other:?}"),
        }
        // Unrelated churn: another principal's grant flips and a table
        // nobody queries appears. Neither may disturb 12's warm path.
        shared.with_write(|e| e.grant_view("99", "mygrades")).unwrap();
        shared.with_write(|e| e.revoke_view("99", "mygrades")).unwrap();
        if round % 8 == 0 {
            shared
                .with_write(|e| {
                    e.admin_script(&format!("create table pad_{round} (x int)"))
                })
                .unwrap();
        }
        shared.with_write(|e| e.grant_view("11", "mygrades")).unwrap();
        let r = shared.execute(&probe, Q11).unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 2, "round {round}: stale DENY after grant");
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    // The churn exercised the warm paths it was built to protect: the
    // sweep restamped/revalidated rather than cold-starting everything.
    let stats = shared.with_read(|e| e.cache().snapshot());
    assert!(stats.hits > 0, "readers never rode the validity cache");
    let (plan_hits, _) = shared.with_read(|e| e.plan_cache().stats());
    assert!(plan_hits > 0, "readers never rode the plan cache");
}

/// Crash (drop without close) right after a revocation: recovery must
/// replay the revoke from the WAL and deny the principal on the first
/// request — a cached ALLOW from before the crash must not survive.
#[test]
fn revocation_survives_crash_and_recovery() {
    let dir = tmp_dir("revoke");
    {
        let mut e = Engine::open(&dir).unwrap();
        populate(&mut e);
        let s = Session::new("11");
        // Warm accept: plan + validity caches hold an ALLOW for 11.
        assert!(e.execute(&s, Q11).is_ok());
        assert!(e.execute(&s, Q11).is_ok());
        e.revoke_view("11", "mygrades").unwrap();
        e.sync().unwrap();
        // Crash: dropped without close(); the WAL tail has the revoke.
    }
    let (mut back, report) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    assert!(report.records_replayed > 0);
    let err = back.execute(&Session::new("11"), Q11).unwrap_err();
    assert!(
        matches!(err, Error::Unauthorized(_)),
        "recovered engine served a stale verdict: {err:?}"
    );
    // The never-revoked principal still works after recovery.
    let r = back
        .execute(&Session::new("12"), "select grade from grades where student_id = '12'")
        .unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 1);
}

/// Full chaos matrix: churn, crash mid-churn, recover, keep churning.
/// After every step — including across the crash — the allow/deny
/// answer must match the shadow grant state exactly.
#[test]
fn churn_crash_recover_churn_matches_shadow_state() {
    let dir = tmp_dir("matrix");
    let users = ["11", "12"];
    // Shadow state: who currently holds the grant.
    let mut granted = [true, true];

    let check_all = |e: &mut Engine, granted: &[bool; 2], ctx: &str| {
        for (i, u) in users.iter().enumerate() {
            let q = format!("select grade from grades where student_id = '{u}'");
            match e.execute(&Session::new(*u), &q) {
                Ok(r) => {
                    assert!(granted[i], "{ctx}: stale ALLOW for {u}");
                    assert_eq!(r.rows().unwrap().rows.len(), if i == 0 { 2 } else { 1 });
                }
                Err(Error::Unauthorized(_)) => {
                    assert!(!granted[i], "{ctx}: stale DENY for {u}")
                }
                Err(other) => panic!("{ctx}: non-auth error: {other:?}"),
            }
        }
    };

    {
        let mut e = Engine::open(&dir).unwrap();
        populate(&mut e);
        // Deterministic pseudo-random churn (xorshift).
        let mut x = 0x9E37_79B9u64;
        for step in 0..24 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) % 2;
            if granted[i] {
                e.revoke_view(users[i], "mygrades").unwrap();
            } else {
                e.grant_view(users[i], "mygrades").unwrap();
            }
            granted[i] = !granted[i];
            check_all(&mut e, &granted, &format!("pre-crash step {step}"));
        }
        e.sync().unwrap();
        // Crash mid-churn: no close(), caches full of mixed verdicts.
    }

    let (mut back, _) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    check_all(&mut back, &granted, "first requests after recovery");

    // Keep churning on the recovered engine: the replayed grant state
    // is the real one, so further flips behave identically.
    for step in 0..8 {
        let i = step % 2;
        if granted[i] {
            back.revoke_view(users[i], "mygrades").unwrap();
        } else {
            back.grant_view(users[i], "mygrades").unwrap();
        }
        granted[i] = !granted[i];
        check_all(&mut back, &granted, &format!("post-recovery step {step}"));
    }
}
