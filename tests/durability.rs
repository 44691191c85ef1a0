//! Durability and recovery: `Engine::open` must reproduce exactly the
//! committed state of the engine that wrote the directory — tables,
//! catalog, grants, and validator verdicts — and must fail closed when
//! the durable policy state is damaged.

#![allow(
    clippy::disallowed_types,
    reason = "test harness: temp-dir ids need fetch_add's return value, which a Counter does not give"
)]

use fgac::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "fgac-durability-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SCHEMA: &str = "
    create table students (student_id varchar not null, name varchar not null,
        type varchar not null, primary key (student_id));
    create table grades (student_id varchar not null, course_id varchar not null,
        grade int, primary key (student_id, course_id));
    create authorization view MyGrades as
        select * from grades where student_id = $user_id;
    insert into students values ('11', 'ann', 'FullTime'), ('12', 'bob', 'PartTime');
    insert into grades values ('11', 'cs101', 90), ('12', 'cs101', 70);
";

/// Sets up the university-style fixture on any engine (durable or not).
fn populate(e: &mut Engine) {
    e.admin_script(SCHEMA).unwrap();
    e.grant_view("11", "mygrades").unwrap();
    e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        .unwrap();
}

fn my_grade_query(e: &mut Engine, user: &str) -> fgac::types::Result<EngineResponse> {
    let s = Session::new(user);
    e.execute(
        &s,
        &format!("select grade from grades where student_id = '{user}'"),
    )
}

#[test]
fn reopen_after_close_restores_identical_state() {
    let dir = tmp_dir("roundtrip");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    let s = Session::new("11");
    e.execute(&s, "insert into grades values ('11', 'cs202', 85)")
        .unwrap();
    let fp = e.state_fingerprint();
    let version = e.data_version();
    e.close().unwrap();

    let (mut back, report) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    assert_eq!(report.truncated_tail_bytes, 0, "clean shutdown, no repair");
    assert!(report.records_replayed > 0);
    assert_eq!(back.state_fingerprint(), fp, "recovered state differs");
    assert_eq!(back.data_version(), version);
    // The recovered engine serves the same verdicts and rows.
    let r = my_grade_query(&mut back, "11").unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 2);
    assert!(my_grade_query(&mut back, "11").is_ok());
    assert!(back
        .execute(&Session::new("11"), "select grade from grades")
        .is_err());
}

#[test]
fn recovered_state_matches_in_memory_engine() {
    // The same op sequence applied to a plain in-memory engine and a
    // durable one (through a crash) must yield identical fingerprints —
    // including the data version, which conditions cached verdicts.
    let dir = tmp_dir("parity");
    let mut durable = Engine::open(&dir).unwrap();
    let mut shadow = Engine::new();
    for e in [&mut durable, &mut shadow] {
        populate(e);
        let s = Session::new("11");
        e.execute(&s, "insert into grades values ('11', 'cs303', 77)")
            .unwrap();
        e.revoke_view("11", "mygrades").unwrap();
        e.grant_view("11", "mygrades").unwrap();
        e.add_role("11", "student").unwrap();
    }
    drop(durable); // crash: no close(), no sync()
    let recovered = Engine::open(&dir).unwrap();
    assert_eq!(recovered.state_fingerprint(), shadow.state_fingerprint());
}

#[test]
fn drop_without_close_is_a_supported_crash() {
    let dir = tmp_dir("dirty");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    let fp = e.state_fingerprint();
    drop(e);

    let mut back = Engine::open(&dir).unwrap();
    assert_eq!(back.state_fingerprint(), fp);
    assert!(my_grade_query(&mut back, "11").is_ok());
}

#[test]
fn pre_crash_cached_verdict_is_never_served_after_recovery() {
    let dir = tmp_dir("stale-verdict");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    let q = "select grade from grades where student_id = '11'";
    let s = Session::new("11");
    // Warm both caches with a Valid verdict under the grant...
    e.execute(&s, q).unwrap();
    e.execute(&s, q).unwrap();
    // ...then revoke, and crash without a clean shutdown.
    e.revoke_view("11", "mygrades").unwrap();
    let pre_crash_epoch = e.policy_epoch();
    drop(e);

    let (mut back, _) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    // The epoch moves strictly past every pre-crash epoch, so no plan
    // cached before the crash could ever be keyed correctly...
    assert!(back.policy_epoch() > pre_crash_epoch);
    // ...and both caches start cold.
    assert_eq!(back.cache().stats(), (0, 0));
    assert_eq!(back.plan_cache().stats(), (0, 0));
    // The query that was Valid (and cached) before the revoke is now
    // rejected — the stale verdict did not survive the crash.
    let err = back.execute(&s, q).unwrap_err();
    assert!(err.is_unauthorized(), "got {err:?}");
}

#[test]
fn torn_tail_is_truncated_and_reported() {
    let dir = tmp_dir("torn");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    let fp = e.state_fingerprint();
    e.close().unwrap();
    // Simulate a power cut mid-append: a frame header promising more
    // bytes than the file holds.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[120, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3]);
    std::fs::write(&wal, &bytes).unwrap();

    let (back, report) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    assert_eq!(report.truncated_tail_bytes, 11);
    assert_eq!(back.state_fingerprint(), fp, "committed prefix preserved");
}

#[test]
fn corrupt_policy_record_refuses_to_serve() {
    let dir = tmp_dir("corrupt");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    e.close().unwrap();
    // Flip one bit inside the log body (the final record is the
    // AUTHORIZE grant — a policy record).
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&wal, &bytes).unwrap();

    let err = Engine::open(&dir).unwrap_err();
    assert!(
        matches!(err, Error::Corrupt(_)),
        "corrupt policy state must fail closed, got {err:?}"
    );
}

#[test]
fn recovery_is_idempotent() {
    let dir = tmp_dir("idempotent");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    drop(e); // dirty
    let wal = dir.join("wal.log");

    let (first, _) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    let fp = first.state_fingerprint();
    let len_after_first = std::fs::metadata(&wal).unwrap().len();
    drop(first);

    // A second recovery replays the same records, appends nothing, and
    // reproduces the same state.
    let (second, report) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    assert_eq!(second.state_fingerprint(), fp);
    assert_eq!(report.truncated_tail_bytes, 0);
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), len_after_first);
}

#[cfg(feature = "fault-injection")]
#[test]
fn recovery_aborted_mid_replay_is_harmless() {
    use fgac::types::faults::{self, Fault};
    let dir = tmp_dir("mid-recovery");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    let fp = e.state_fingerprint();
    drop(e);
    let wal = dir.join("wal.log");
    let len_before = std::fs::metadata(&wal).unwrap().len();

    // Crash in the middle of the recovery scan: the third frame.
    faults::arm("wal::recover", Fault::ErrorOnNth(3));
    let err = Engine::open(&dir).unwrap_err();
    assert!(matches!(err, Error::Internal(_)), "got {err:?}");
    faults::disarm_all();

    // The aborted recovery changed nothing on disk; a retry succeeds and
    // reproduces the full committed state.
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), len_before);
    let back = Engine::open(&dir).unwrap();
    assert_eq!(back.state_fingerprint(), fp);
}

#[test]
fn snapshots_rotate_the_log_and_survive_reopen() {
    let dir = tmp_dir("snapshot");
    let opts = DurabilityOptions {
        sync_on_commit: false,
        snapshot_every: 4,
    };
    let (mut e, _) = Engine::open_with(&dir, opts.clone()).unwrap();
    populate(&mut e); // > 4 records: at least one snapshot installed
    let s = Session::new("11");
    e.execute(&s, "insert into grades values ('11', 'cs404', 65)")
        .unwrap();
    let fp = e.state_fingerprint();
    drop(e);

    assert!(dir.join("snapshot.fgs").exists(), "snapshot was installed");
    let (back, report) = Engine::open_with(&dir, opts).unwrap();
    assert!(report.snapshot_lsn.is_some());
    assert!(
        report.records_replayed < report.snapshot_lsn.unwrap() as usize + report.records_replayed,
        "rotation kept the replayed tail short"
    );
    assert_eq!(back.state_fingerprint(), fp);
}

#[test]
fn explicit_snapshot_now_folds_the_whole_log() {
    let dir = tmp_dir("snapshot-now");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    e.snapshot_now().unwrap();
    let fp = e.state_fingerprint();
    drop(e);

    let (back, report) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    assert!(report.snapshot_lsn.is_some());
    assert_eq!(report.records_replayed, 0, "everything came from the snapshot");
    assert_eq!(back.state_fingerprint(), fp);
}

#[test]
fn orphaned_snapshot_without_log_refuses_fresh_init() {
    // A directory holding snapshot.fgs but no wal.log is the remnant of
    // a partial delete or botched restore. Opening it must not quietly
    // initialize an empty engine (which would later overwrite the
    // snapshot and discard all surviving durable state).
    let dir = tmp_dir("orphan-snapshot");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    e.snapshot_now().unwrap();
    e.close().unwrap();
    std::fs::remove_file(dir.join("wal.log")).unwrap();

    let err = Engine::open(&dir).unwrap_err();
    assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    assert!(
        dir.join("snapshot.fgs").exists(),
        "the refusal must leave the snapshot untouched"
    );
}

#[test]
fn lost_snapshot_rename_fails_closed() {
    // The inverse partial state: the log rotation survived but the
    // snapshot covering the rotated-away records is gone. Serving the
    // empty log as truth would silently drop every acknowledged commit.
    let dir = tmp_dir("lost-snapshot");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    e.snapshot_now().unwrap();
    e.close().unwrap();
    std::fs::remove_file(dir.join("snapshot.fgs")).unwrap();

    let err = Engine::open(&dir).unwrap_err();
    assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
}

#[test]
fn in_memory_engine_has_no_durability() {
    let mut e = Engine::new();
    populate(&mut e);
    assert!(!e.is_durable());
    assert!(e.snapshot_now().is_err());
    assert!(e.sync().is_ok(), "sync is a no-op in memory");
}

// ---------------------------------------------------------------------------
// Idempotent close: the lifecycle contract the network front end
// (fgac-server) relies on during graceful shutdown.
// ---------------------------------------------------------------------------

#[test]
fn close_is_idempotent_and_use_after_close_fails_cleanly() {
    let dir = tmp_dir("idempotent-close");
    let mut e = Engine::open(&dir).unwrap();
    populate(&mut e);
    let s = Session::new("11");
    my_grade_query(&mut e, "11").unwrap();

    // First close: syncs and succeeds.
    e.close().unwrap();

    // Every statement class after close is a clean, typed refusal — not
    // a panic, not a silent no-op that could lose an un-synced write.
    let err = my_grade_query(&mut e, "11").unwrap_err();
    assert!(
        matches!(err, Error::Unsupported(ref m) if m.contains("closed")),
        "query after close: {err:?}"
    );
    let err = e
        .execute(&s, "insert into grades values ('11', 'cs999', 50)")
        .unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "dml after close: {err:?}");
    let err = e.admin_script("create table t2 (a int)").unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "ddl after close: {err:?}");
    let err = e.grant_view("12", "mygrades").unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "grant after close: {err:?}");
    let err = e.snapshot_now().unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "snapshot after close: {err:?}");

    // Second close: distinguishable double-close error, still clean.
    let err = e.close().unwrap_err();
    assert!(
        err.to_string().contains("double close"),
        "second close must report double-close: {err}"
    );

    // The directory remains a valid store: reopening recovers cleanly
    // with nothing torn (close synced everything).
    let (mut reopened, report) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    assert_eq!(report.truncated_tail_bytes, 0, "clean close left a torn tail");
    let r = my_grade_query(&mut reopened, "11").unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_on_an_in_memory_engine_is_also_idempotent() {
    // The contract is uniform: no WAL attached, same lifecycle rules.
    let mut e = Engine::new();
    populate(&mut e);
    e.close().unwrap();
    assert!(e.is_closed());
    let err = e.close().unwrap_err();
    assert!(err.to_string().contains("double close"), "{err}");
    let err = my_grade_query(&mut e, "11").unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "{err:?}");
}
