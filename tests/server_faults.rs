//! Crash-matrix-style wire-fault tests for the network front end.
//!
//! The wire layer has three injection sites (`fault-injection` builds):
//! `server::read_frame` (read aborted), `server::write_frame` (response
//! dropped whole), and `server::write_frame_torn` (response cut in half
//! mid-write). This file sweeps faults across a live insert workload
//! and checks the durability contract from the client's point of view:
//!
//! > **Every acknowledged commit survives.** An ack the client never
//! > saw may or may not have committed (the torn frame carried it),
//! > but an `Affected` response that *arrived* is durable across drain
//! > and recovery — and the WAL recovers with no torn tail.
//!
//! These tests arm the **process-global** fault registry (the faulting
//! site fires on server connection threads, which cannot see a test
//! thread's thread-local arming), so they live in their own test binary
//! and serialize on a file-local mutex: a globally armed wire fault
//! hitting some other test's server would be cross-test sabotage.

#![allow(
    clippy::disallowed_types,
    reason = "test harness: temp-dir ids need fetch_add's return value, which a Counter does not give"
)]
#![cfg(feature = "fault-injection")]

use fgac::types::faults::{self, Fault};
use fgac_core::{DurabilityOptions, Engine, SharedEngine};
use fgac_server::{Client, Response, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Global-registry users must not overlap, even across test threads in
/// this binary.
static GLOBAL_FAULTS: Mutex<()> = Mutex::new(());

/// Disarms all faults when dropped, so a failed assertion cannot leave
/// a fault armed for whatever runs next.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        faults::disarm_all();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "fgac-server-faults-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const FIXTURE: &str = "
    create table grades (student_id varchar not null, course_id varchar not null,
        grade int, primary key (student_id, course_id));
    create authorization view MyGrades as
        select * from grades where student_id = $user_id;
    grant view MyGrades to '11';
";

fn durable_engine(dir: &PathBuf) -> SharedEngine {
    let (mut e, _) = Engine::open_with(dir, DurabilityOptions::default()).unwrap();
    e.admin_script(FIXTURE).unwrap();
    e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        .unwrap();
    SharedEngine::new(e)
}

/// Runs `total` inserts against a fresh server over `dir`, with `fault`
/// armed globally at `site` before the workload starts. The client
/// reconnects on any transport error (the injected fault may hit its
/// own write, the server's response, or tear the frame in half — all
/// look like a broken connection from here). Returns the set of course
/// ids whose insert was **acknowledged** on the wire.
fn faulted_insert_run(dir: &PathBuf, site: &'static str, nth: u64, total: u32) -> Vec<String> {
    let server = Server::start(
        durable_engine(dir),
        ServerConfig {
            drain_deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    faults::arm_global(site, Fault::ErrorOnNth(nth));
    let mut acked = Vec::new();
    let mut client: Option<Client> = None;
    for i in 0..total {
        if client.is_none() {
            let mut c = match Client::connect(addr, Duration::from_secs(5)) {
                Ok(c) => c,
                Err(_) => continue,
            };
            match c.hello("11") {
                Ok(Response::Ok(_)) => client = Some(c),
                _ => continue,
            }
        }
        let course = format!("c{i}");
        let sql = format!("insert into grades values ('11', '{course}', 50)");
        let Some(c) = client.as_mut() else { continue };
        match c.query(&sql) {
            Ok(Response::Affected(1)) => acked.push(course),
            // Duplicate key: an earlier attempt committed but its ack
            // was torn — the commit exists, we just never counted it.
            // Either way this course id is settled; move on.
            Ok(Response::Error(m)) if m.contains("duplicate") || m.contains("primary key") => {}
            Ok(_) => {}
            Err(_) => {
                // Transport fault: this connection is done. The insert
                // is in an unknown state (committed-but-unacked is
                // legal); reconnect and continue with the next one.
                client = None;
            }
        }
    }
    faults::disarm_all();
    let report = server.finish().unwrap();
    assert!(
        report.drained_cleanly,
        "drain left work behind after wire faults at {site}"
    );
    acked
}

/// Recovers `dir` and asserts every acked course id is present, with a
/// clean (untruncated) log.
fn assert_acked_survive(dir: &PathBuf, acked: &[String], context: &str) {
    let (mut e, report) = Engine::open_with(dir, DurabilityOptions::default()).unwrap();
    assert_eq!(
        report.truncated_tail_bytes, 0,
        "{context}: graceful close left a torn WAL tail"
    );
    let r = e
        .execute(
            &fgac_core::Session::new("11"),
            "select course_id from grades where student_id = '11'",
        )
        .unwrap();
    let present: std::collections::HashSet<String> = r
        .rows()
        .unwrap()
        .rows
        .iter()
        .map(|row| match row.get(0) {
            fgac_types::Value::Str(s) => s.clone(),
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    for course in acked {
        assert!(
            present.contains(course),
            "{context}: acknowledged insert '{course}' lost ({} acked, {} present)",
            acked.len(),
            present.len()
        );
    }
    e.close().unwrap();
}

#[test]
fn wire_fault_matrix_never_loses_an_acked_commit() {
    let _serial = GLOBAL_FAULTS.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarm;

    // The matrix: each wire site, faulting at an early and a mid-stream
    // hit. (`write_frame` counts every frame either side sends after
    // arming, so the hit numbers land at different workload positions —
    // the point is coverage of "before", "during", and "between".)
    let matrix: &[(&'static str, u64)] = &[
        ("server::write_frame", 3),
        ("server::write_frame", 17),
        ("server::write_frame_torn", 3),
        ("server::write_frame_torn", 17),
        ("server::read_frame", 2),
        ("server::read_frame", 9),
    ];
    for (site, nth) in matrix {
        faults::disarm_all();
        let dir = tmp_dir(&format!("matrix-{}-{nth}", site.replace("::", "-")));
        let acked = faulted_insert_run(&dir, site, *nth, 30);
        assert!(
            !acked.is_empty(),
            "{site} hit {nth}: workload never got an ack — fault swallowed everything"
        );
        assert_acked_survive(&dir, &acked, &format!("{site} hit {nth}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_response_loses_the_ack_but_never_the_commit() {
    // Focused version of the matrix with the interesting asymmetry made
    // explicit: tear exactly the response to the 2nd query frame the
    // server writes after arming. The client sees a broken connection;
    // the table still gains the row, because the WAL commit point is
    // upstream of the response write.
    let _serial = GLOBAL_FAULTS.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarm;
    let dir = tmp_dir("torn-ack");
    let server = Server::start(
        durable_engine(&dir),
        ServerConfig {
            drain_deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    c.hello("11").unwrap();
    // Arm *after* the handshake: the client's own query frame is hit 1
    // (write_frame is shared), the server's response to it is hit 2.
    faults::arm_global("server::write_frame_torn", Fault::ErrorOnNth(2));
    let outcome = c.query("insert into grades values ('11', 'torn1', 50)");
    assert!(
        outcome.is_err(),
        "the torn response reached the client whole: {outcome:?}"
    );
    assert!(faults::hits("server::write_frame_torn") >= 2, "fault never fired");
    faults::disarm_all();

    // Unacked ≠ aborted: the commit happened before the response.
    let mut c2 = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    c2.hello("11").unwrap();
    match c2.query("select course_id from grades where student_id = '11'").unwrap() {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1, "committed row missing"),
        other => panic!("expected rows, got {other:?}"),
    }
    server.finish().unwrap();
    assert_acked_survive(&dir, &["torn1".into()], "torn ack");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_handler_panic_is_an_error_and_returns_the_permit() {
    // One permit: if the panicking request kept it, the query after it
    // on the same connection would wait forever (and the drain would
    // time out).
    let _serial = GLOBAL_FAULTS.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarm;
    let dir = tmp_dir("handler-panic");
    let server = Server::start(
        durable_engine(&dir),
        ServerConfig {
            workers: 1,
            drain_deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    c.hello("11").unwrap();
    let q = "select course_id from grades where student_id = '11'";

    faults::arm_global("server::handle_request", Fault::PanicOnNth(1));
    match c.query(q).unwrap() {
        Response::Error(m) => assert!(m.contains("panicked"), "{m}"),
        other => panic!("expected Error for a panicking handler, got {other:?}"),
    }
    faults::arm_global("server::handle_request", Fault::ErrorOnNth(1));
    match c.query(q).unwrap() {
        Response::Error(m) => assert!(m.contains("injected fault"), "{m}"),
        other => panic!("expected Error for a failing handler, got {other:?}"),
    }
    faults::disarm_all();

    match c.query(q).unwrap() {
        Response::Rows { .. } => {}
        other => panic!("the connection did not recover its permit: {other:?}"),
    }
    let report = server.finish().unwrap();
    assert!(report.drained_cleanly);
    let panics = report.metrics.iter().find(|(k, _)| *k == "worker_panics").unwrap().1;
    assert_eq!(panics, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_fault_closes_the_connection_but_not_the_server() {
    let _serial = GLOBAL_FAULTS.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarm;
    let dir = tmp_dir("read-fault");
    let server = Server::start(
        durable_engine(&dir),
        ServerConfig {
            drain_deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // The read-site check runs at read entry, and the connection thread
    // enters its post-handshake read immediately after answering HELLO —
    // so arm before connecting: hit 1 is the handshake read (passes),
    // hit 2 is the next read, which aborts. The connection dies without
    // a response, and *only* the connection.
    faults::arm_global("server::read_frame", Fault::ErrorOnNth(2));
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    c.hello("11").unwrap();
    let outcome = c.query("select course_id from grades where student_id = '11'");
    assert!(outcome.is_err(), "read fault produced a response: {outcome:?}");
    faults::disarm_all();

    let mut c2 = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    c2.hello("11").unwrap();
    assert!(matches!(c2.ping().unwrap(), Response::Ok(_)));
    let report = server.finish().unwrap();
    assert!(report.drained_cleanly);
    let _ = std::fs::remove_dir_all(&dir);
}
