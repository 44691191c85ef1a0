//! Integration tests for the network front end: protocol semantics,
//! backpressure, deadlines, robustness against misbehaving clients,
//! and graceful drain with zero acknowledged-commit loss.
//!
//! Wire-level fault injection (torn/dropped response frames) lives in
//! `tests/server_faults.rs` — those tests arm the process-global fault
//! registry, which must not race the servers started here.

#![allow(
    clippy::disallowed_types,
    reason = "test harness: temp-dir ids need fetch_add's return value, and the refusal tally gates a client loop; every assertion reads it after join"
)]

use fgac_core::{DurabilityOptions, Engine, SharedEngine};
use fgac_server::{AdminOp, Client, Response, Server, ServerConfig};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "fgac-server-test-{tag}-{}-{}",
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
    insert into grades values ('11', 'cs101', 90), ('12', 'cs101', 70);
    grant view MyGrades to '11';
";

fn fixture_engine() -> SharedEngine {
    let mut e = Engine::new();
    e.admin_script(FIXTURE).unwrap();
    e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        .unwrap();
    SharedEngine::new(e)
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        drain_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn connect(server: &Server, principal: &str) -> Client {
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    let hello = c.hello(principal).unwrap();
    assert!(matches!(hello, Response::Ok(_)), "handshake failed: {hello:?}");
    c
}

#[test]
fn queries_dml_and_denials_round_trip() {
    let server = Server::start(fixture_engine(), quick_config()).unwrap();
    let mut alice = connect(&server, "11");

    // Covered query: rows come back, query ran unmodified.
    match alice.query("select grade from grades where student_id = '11'").unwrap() {
        Response::Rows { names, rows } => {
            assert_eq!(names.len(), 1);
            assert_eq!(rows.len(), 1);
        }
        other => panic!("expected rows, got {other:?}"),
    }
    // Authorized DML.
    match alice.query("insert into grades values ('11', 'cs900', 75)").unwrap() {
        Response::Affected(1) => {}
        other => panic!("expected Affected(1), got {other:?}"),
    }
    // Uncovered query: DENIED, with the engine's fail-closed reason.
    match alice.query("select grade from grades where student_id = '12'").unwrap() {
        Response::Denied(_) => {}
        other => panic!("expected Denied, got {other:?}"),
    }
    // A principal with no grants at all is denied, not errored.
    let mut mallory = connect(&server, "99");
    match mallory.query("select grade from grades where student_id = '11'").unwrap() {
        Response::Denied(_) => {}
        other => panic!("expected Denied for ungranted principal, got {other:?}"),
    }

    let report = server.finish().unwrap();
    assert!(report.drained_cleanly);
}

#[test]
fn admin_plane_is_gated_to_the_admin_principal() {
    let server = Server::start(fixture_engine(), quick_config()).unwrap();

    // Non-admin principals get DENIED (this *is* an authorization
    // decision, unlike shedding).
    let mut alice = connect(&server, "11");
    match alice
        .admin(AdminOp::GrantView {
            principal: "12".into(),
            view: "mygrades".into(),
        })
        .unwrap()
    {
        Response::Denied(_) => {}
        other => panic!("expected Denied for non-admin, got {other:?}"),
    }

    // The admin can grant; the new grant is live for fresh checks.
    let mut admin = connect(&server, "admin");
    match admin
        .admin(AdminOp::GrantView {
            principal: "12".into(),
            view: "mygrades".into(),
        })
        .unwrap()
    {
        Response::Ok(_) => {}
        other => panic!("expected Ok from admin grant, got {other:?}"),
    }
    let mut bob = connect(&server, "12");
    match bob.query("select grade from grades where student_id = '12'").unwrap() {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("granted principal still refused: {other:?}"),
    }
    // And revocation propagates the same way.
    match admin
        .admin(AdminOp::RevokeView {
            principal: "12".into(),
            view: "mygrades".into(),
        })
        .unwrap()
    {
        Response::Ok(_) => {}
        other => panic!("expected Ok from revoke, got {other:?}"),
    }
    match bob.query("select grade from grades where student_id = '12'").unwrap() {
        Response::Denied(_) => {}
        other => panic!("revoked principal still allowed: {other:?}"),
    }
    server.finish().unwrap();
}

#[test]
fn shed_under_backpressure_is_never_denied() {
    // workers=1 and a one-slot queue; the test thread stalls the single
    // worker by holding the engine's write lock, so: request A occupies
    // the worker, request B occupies the queue slot, request C must be
    // shed — deterministically, and with the SHED status, never DENIED.
    let engine = fixture_engine();
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..quick_config()
        },
    )
    .unwrap();
    let q = "select grade from grades where student_id = '11'";

    let barrier = Arc::new(std::sync::Barrier::new(2));
    let stall = {
        let engine = engine.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            engine.with_write(|_| {
                barrier.wait(); // lock held: let the test proceed
                std::thread::sleep(Duration::from_millis(3000));
            });
        })
    };
    barrier.wait();

    // A and B: sent while the worker is stalled; both will eventually
    // succeed (in-flight + queued), so run them on their own threads.
    // Sequence the admissions on the server's lock-free gauges so the
    // scenario is deterministic even on a loaded machine: A inside the
    // worker first, then B parked in the queue slot.
    let addr = server.local_addr();
    let spawn_query = || {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
            c.hello("11").unwrap();
            c.query(q).unwrap()
        })
    };
    let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
        let t = std::time::Instant::now();
        while !cond() {
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let a = spawn_query();
    wait_for("A to occupy the stalled worker", &|| server.inflight() == 1);
    let b = spawn_query();
    wait_for("B to occupy the queue slot", &|| server.queue_depth() == 1);
    let in_flight = vec![a, b];

    // C: must be shed immediately — admission control refuses without
    // blocking, and the refusal is SHED (retryable), not DENIED.
    let mut c = connect(&server, "11");
    let t = std::time::Instant::now();
    match c.query(q).unwrap() {
        Response::Shed(_) => {}
        Response::Denied(m) => panic!("backpressure surfaced as DENIED: {m}"),
        other => panic!("expected Shed, got {other:?}"),
    }
    assert!(
        t.elapsed() < Duration::from_millis(300),
        "shed answer must be immediate, took {:?}",
        t.elapsed()
    );

    // Once the stall clears, A and B complete with real answers, and a
    // retry of C's query now succeeds: shed was transient, not a verdict.
    stall.join().unwrap();
    for h in in_flight {
        match h.join().unwrap() {
            Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
            other => panic!("stalled request did not complete: {other:?}"),
        }
    }
    match c.query(q).unwrap() {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("retry after shed failed: {other:?}"),
    }

    let report = server.finish().unwrap();
    let shed = report.metrics.iter().find(|(k, _)| *k == "resp_shed").unwrap().1;
    assert!(shed >= 1, "server never recorded the shed");
}

#[test]
fn concurrent_overload_completes_every_request_and_never_denies() {
    // One permit and a one-place line against 4 clients: admission
    // refuses whatever finds both taken. Clients retry refusals with
    // bounded backoff, so every request must end in its rows — a
    // refusal is transient, never a verdict — and the drain is clean.
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 20;
    const MAX_ATTEMPTS: u32 = 40;
    let engine = fixture_engine();
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..quick_config()
        },
    )
    .unwrap();
    let refused = Arc::new(AtomicU64::new(0));

    // Start overloaded: the engine's write lock is held until the first
    // refusal, so one request holds the permit, one waits in line and
    // the others are refused.
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let stall = {
        let engine = engine.clone();
        let barrier = Arc::clone(&barrier);
        let refused = Arc::clone(&refused);
        std::thread::spawn(move || {
            engine.with_write(|_| {
                barrier.wait();
                let t = std::time::Instant::now();
                while refused.load(Ordering::Relaxed) == 0 && t.elapsed() < Duration::from_secs(2) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        })
    };
    barrier.wait();

    let addr = server.local_addr();
    let started = std::time::Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let refused = Arc::clone(&refused);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
                assert!(matches!(client.hello("11").unwrap(), Response::Ok(_)));
                for i in 0..REQUESTS {
                    // The hot text, and every fourth request a literal
                    // variant of its own (a plan-cache miss); both
                    // select the one grade of 90.
                    let sql = if i % 4 == 0 {
                        format!(
                            "select grade from grades where student_id = '11' and grade > {}",
                            c * REQUESTS + i
                        )
                    } else {
                        "select course_id, grade from grades where student_id = '11'".to_string()
                    };
                    for attempt in 0.. {
                        match client.query(&sql).unwrap() {
                            Response::Rows { rows, .. } => {
                                assert_eq!(rows.len(), 1, "{sql}");
                                break;
                            }
                            Response::Shed(_) | Response::Unavailable(_) | Response::Timeout(_) => {
                                refused.fetch_add(1, Ordering::Relaxed);
                                assert!(
                                    attempt < MAX_ATTEMPTS,
                                    "request never admitted after {MAX_ATTEMPTS} attempts"
                                );
                                // Exponential backoff capped at 25 ms,
                                // staggered per client.
                                let base_us = (200u64 << attempt.min(7)).min(25_000);
                                let stagger = base_us * c as u64 / CLIENTS as u64;
                                std::thread::sleep(Duration::from_micros(base_us / 2 + stagger));
                            }
                            Response::Denied(m) => panic!("overload surfaced as DENIED: {m}"),
                            other => panic!("unexpected response: {other:?}"),
                        }
                    }
                }
                client.bye().unwrap();
            })
        })
        .collect();
    for h in clients {
        h.join().unwrap();
    }
    stall.join().unwrap();
    let report = server.finish().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "overload run took {:?}",
        started.elapsed()
    );
    assert!(
        report.drained_cleanly,
        "overload left work behind: {report:?}"
    );
    let metric = |name: &str| report.metrics.iter().find(|(k, _)| *k == name).unwrap().1;
    assert_eq!(metric("resp_denied"), 0);
    assert_eq!(metric("resp_rows"), (CLIENTS * REQUESTS) as u64);
    let refused = refused.load(Ordering::Relaxed);
    assert!(refused >= 1, "the run never overloaded");
    assert_eq!(
        metric("resp_shed") + metric("resp_unavailable") + metric("resp_timeout"),
        refused,
        "every refusal a client absorbed is one the server counted"
    );
}

#[test]
fn drain_refuses_the_waiting_request_and_finishes_the_running_one() {
    // workers=1 and a one-slot line, the engine stalled behind its write
    // lock: A holds the only permit, B waits for it. The drain deadline
    // passes with both still there, so finish() must refuse B with
    // UNAVAILABLE (counted), never DENIED, and still let A finish before
    // the engine closes.
    let engine = fixture_engine();
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            drain_deadline: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let q = "select grade from grades where student_id = '11'";

    // The write lock is held until B has been refused, so A is still
    // executing when the drain closes admission. The timeout only bounds
    // a broken drain.
    let (release, released) = std::sync::mpsc::channel::<()>();
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let stall = {
        let engine = engine.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            engine.with_write(|_| {
                barrier.wait();
                let _ = released.recv_timeout(Duration::from_secs(10));
            });
        })
    };
    barrier.wait();

    let addr = server.local_addr();
    let spawn_query = || {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
            c.hello("11").unwrap();
            c.query(q).unwrap()
        })
    };
    let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
        let t = std::time::Instant::now();
        while !cond() {
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let a = spawn_query();
    wait_for("A to hold the only permit", &|| server.inflight() == 1);
    let b = spawn_query();
    wait_for("B to wait in line", &|| server.queue_depth() == 1);
    let b = std::thread::spawn(move || {
        let answer = b.join().unwrap();
        let _ = release.send(());
        answer
    });

    let report = server.finish().unwrap();
    match b.join().unwrap() {
        Response::Unavailable(_) => {}
        Response::Denied(m) => panic!("drain refusal surfaced as DENIED: {m}"),
        other => panic!("expected Unavailable for the waiting request, got {other:?}"),
    }
    match a.join().unwrap() {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("the running request did not complete: {other:?}"),
    }
    stall.join().unwrap();
    let counter = |name: &str| report.metrics.iter().find(|(k, _)| *k == name).unwrap().1;
    assert!(!report.drained_cleanly);
    assert_eq!(report.refused_jobs, 1);
    assert_eq!(counter("drain_shed"), 1);
    assert_eq!(counter("resp_denied"), 0);
}

#[test]
fn deadline_expiry_is_timeout_status_not_denied() {
    let server = Server::start(fixture_engine(), quick_config()).unwrap();
    let mut c = connect(&server, "11");
    let q = "select grade from grades where student_id = '11'";

    // Warm the caches so the deadline gate is tested on the hot path too.
    assert!(matches!(c.query(q).unwrap(), Response::Rows { .. }));

    // A zero-millisecond deadline has expired by the time a worker picks
    // the job up: TIMEOUT on the wire, distinguishable from both DENIED
    // (authorization) and SHED (admission).
    match c.query_deadline(q, 0).unwrap() {
        Response::Timeout(m) => assert!(m.contains("deadline"), "{m}"),
        Response::Denied(m) => panic!("deadline expiry surfaced as DENIED: {m}"),
        other => panic!("expected Timeout, got {other:?}"),
    }

    // The same query with a generous deadline still succeeds: the
    // expired request left no trace in any cache.
    match c.query_deadline(q, 5_000).unwrap() {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("expected rows after timeout, got {other:?}"),
    }
    server.finish().unwrap();
}

#[test]
fn connection_cap_refuses_with_shed_status() {
    let server = Server::start(
        fixture_engine(),
        ServerConfig {
            max_connections: 1,
            ..quick_config()
        },
    )
    .unwrap();
    let mut first = connect(&server, "11");

    // Second connection: refused at accept time with a SHED frame.
    let mut second = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    match second.hello("11") {
        Ok(Response::Shed(_)) => {}
        Ok(other) => panic!("expected Shed at the connection cap, got {other:?}"),
        // The refusal frame may race the HELLO write; a closed pipe is
        // also acceptable, but a DENIED never is (asserted by the Ok arm).
        Err(_) => {}
    }

    // The first connection is unaffected.
    match first.query("select grade from grades where student_id = '11'").unwrap() {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("existing connection broken by cap refusal: {other:?}"),
    }

    // Closing the first frees the slot for a new client.
    first.bye().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let mut third = connect(&server, "11");
    assert!(matches!(third.ping().unwrap(), Response::Ok(_)));
    server.finish().unwrap();
}

#[test]
fn slowloris_and_idle_connections_are_cut_loose() {
    let server = Server::start(
        fixture_engine(),
        ServerConfig {
            idle_timeout: Duration::from_millis(250),
            frame_timeout: Duration::from_millis(250),
            ..quick_config()
        },
    )
    .unwrap();

    // Idle client: connected, handshaken, then silent past the idle
    // timeout. The server closes the connection.
    let mut idle = connect(&server, "11");
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        idle.ping().is_err(),
        "idle connection should have been closed by the server"
    );

    // Slowloris: starts a frame, then drips nothing. The per-frame
    // deadline cuts it off even though bytes arrived recently.
    let mut slow = connect(&server, "11");
    slow.stream().write_all(&[0x07, 0x00]).unwrap(); // 2 bytes of a 13-byte header
    slow.stream().flush().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let followup = slow.ping();
    assert!(
        followup.is_err(),
        "stalled mid-frame connection should have been closed, got {followup:?}"
    );

    // The server itself is healthy and serving new clients.
    let mut fresh = connect(&server, "11");
    assert!(matches!(fresh.ping().unwrap(), Response::Ok(_)));

    let report = server.finish().unwrap();
    let idle_cut = report.metrics.iter().find(|(k, _)| *k == "conns_idle_timeout").unwrap().1;
    let stalled = report.metrics.iter().find(|(k, _)| *k == "conns_stalled").unwrap().1;
    assert!(idle_cut >= 1, "idle timeout not recorded");
    assert!(stalled >= 1, "stall not recorded");
}

#[test]
fn corrupt_frames_and_protocol_violations_are_isolated_per_connection() {
    let server = Server::start(fixture_engine(), quick_config()).unwrap();
    let mut honest = connect(&server, "11");

    // Garbage bytes (a plausible length, then noise): the server answers
    // PROTOCOL and closes that connection only.
    let mut vandal = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    vandal.hello("11").unwrap();
    let mut garbage = vec![5u8, 0, 0, 0]; // len = 5
    garbage.extend_from_slice(&[0xAB; 14]); // bogus kind/CRCs/payload
    vandal.stream().write_all(&garbage).unwrap();
    vandal.stream().flush().unwrap();
    // The server answers PROTOCOL (the vandal may read it as the reply
    // to its next call) and then closes; within two calls the
    // connection is observably dead, and nothing ever looks like a
    // successful result.
    match vandal.ping() {
        Ok(Response::Protocol(_)) | Err(_) => {}
        Ok(other) => panic!("expected Protocol or closed connection, got {other:?}"),
    }
    let after = vandal.ping();
    assert!(after.is_err(), "corrupt frame did not close the connection: {after:?}");

    // Skipping the handshake is a protocol violation, answered as such.
    let mut rude = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    match rude.query("select 1") {
        Ok(Response::Protocol(_)) | Err(_) => {}
        Ok(other) => panic!("expected Protocol for missing HELLO, got {other:?}"),
    }

    // The honest connection never noticed.
    match honest.query("select grade from grades where student_id = '11'").unwrap() {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("honest connection disturbed: {other:?}"),
    }

    let report = server.finish().unwrap();
    let corrupt = report.metrics.iter().find(|(k, _)| *k == "frames_corrupt").unwrap().1;
    assert!(corrupt >= 1, "corrupt frame not counted");
}

#[test]
fn metrics_expose_server_and_engine_counters() {
    let server = Server::start(fixture_engine(), quick_config()).unwrap();
    let mut c = connect(&server, "11");
    let q = "select grade from grades where student_id = '11'";
    for _ in 0..3 {
        c.query(q).unwrap();
    }
    let metrics: std::collections::HashMap<String, u64> =
        c.metrics().unwrap().into_iter().collect();
    assert!(metrics["requests"] >= 3, "{metrics:?}");
    assert!(metrics["resp_rows"] >= 3);
    assert_eq!(metrics["resp_denied"], 0);
    // Engine-side counters ride along: repeats hit the plan cache.
    assert!(metrics["plan_cache_hits"] >= 1, "{metrics:?}");
    assert!(metrics.contains_key("validity_cache_hits"));
    assert!(metrics.contains_key("policy_epoch"));
    assert!(metrics.contains_key("c3_probes"));
    // Churn-survival counters (PR-8): change totals and how the sweep
    // resolved cached entries.
    assert!(metrics.contains_key("policy_changes"));
    assert!(metrics.contains_key("full_invalidations"));
    assert!(metrics.contains_key("validity_cache_invalidated"));
    assert!(metrics.contains_key("validity_cache_revalidation_hits"));
    assert!(metrics.contains_key("validity_cache_revalidation_misses"));
    assert!(metrics.contains_key("plan_cache_invalidated"));
    server.finish().unwrap();
}

#[test]
fn graceful_drain_under_load_loses_no_acknowledged_commit() {
    // Clients hammer authorized inserts against a durable engine while
    // the main thread drains the server mid-load. Contract: every
    // insert a client saw acknowledged (Affected(1) on the wire) must
    // be present after recovery — acknowledgment happens only after the
    // WAL commit point, and finish() syncs before closing.
    let dir = tmp_dir("drain");
    let (mut engine, _) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    engine.admin_script(FIXTURE).unwrap();
    engine
        .grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        .unwrap();
    let server = Server::start(
        SharedEngine::new(engine),
        ServerConfig {
            workers: 3,
            drain_deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let writers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut acked = Vec::new();
                let mut c = match Client::connect(addr, Duration::from_secs(5)) {
                    Ok(c) => c,
                    Err(_) => return acked,
                };
                if c.hello("11").is_err() {
                    return acked;
                }
                for i in 0..200u32 {
                    let course = format!("w{w}c{i}");
                    let sql = format!("insert into grades values ('11', '{course}', 50)");
                    match c.query(&sql) {
                        Ok(Response::Affected(1)) => acked.push(course),
                        // Drain reached us: unavailable/shed or a closed
                        // socket. Nothing further will be acknowledged.
                        Ok(_) | Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();

    // Let the load build, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.finish().unwrap();
    let acked: Vec<String> = writers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert!(!acked.is_empty(), "no insert was acknowledged before drain");

    // The WAL on disk is final: recovery must replay every acked commit
    // without touching a byte of the log (clean close = no torn tail,
    // no truncation rewrite).
    let wal_bytes = std::fs::read(dir.join("wal.log")).unwrap();
    let (mut recovered, rec) = Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    assert_eq!(rec.truncated_tail_bytes, 0, "graceful close left a torn tail");
    let after = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(wal_bytes, after, "recovery rewrote a cleanly closed WAL");

    let r = recovered
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
    for course in &acked {
        assert!(
            present.contains(course),
            "acknowledged insert '{course}' lost across drain ({} acked, report {:?})",
            acked.len(),
            report
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn requests_after_drain_are_unavailable_not_denied() {
    let engine = fixture_engine();
    let server = Server::start(engine.clone(), quick_config()).unwrap();
    let addr = server.local_addr();
    let mut c = connect(&server, "11");
    assert!(matches!(
        c.query("select grade from grades where student_id = '11'").unwrap(),
        Response::Rows { .. }
    ));
    server.finish().unwrap();

    // The engine behind the server is closed and every clone knows it.
    assert!(engine.is_closed());
    let err = engine
        .execute(
            &fgac_core::Session::new("11"),
            "select grade from grades where student_id = '11'",
        )
        .unwrap_err();
    assert!(
        matches!(err, fgac_types::Error::Unsupported(_)),
        "post-drain execute must be a clean closed-engine error: {err:?}"
    );
    // And the port no longer accepts work.
    assert!(
        Client::connect(addr, Duration::from_millis(500))
            .and_then(|mut c| c.hello("11"))
            .is_err(),
        "drained server still serving"
    );
}
