//! Crash-matrix property test: kill the engine at every WAL fault site,
//! recover, and require the recovered engine to equal the committed
//! prefix exactly.
//!
//! A randomized workload (DDL, grants, revocations, role changes,
//! delegation, constraint visibility, admin and user DML) is applied in
//! lockstep to a durable engine and an in-memory *shadow* engine. The
//! shadow only applies an op after the durable engine committed it, so
//! at every moment the shadow IS the committed prefix. Each matrix cell
//! arms one fault site (`wal::append`, `wal::append_torn`, `wal::flush`,
//! `wal::snapshot`, `wal::recover`) at its Nth hit; when the injected
//! crash fires, the engine is dropped mid-flight and reopened, and the
//! recovered state fingerprint — tables, catalog, grants, and the data
//! version that conditions cached verdicts — must be byte-identical to
//! the shadow's. Probe queries then confirm the validator reaches the
//! same verdicts on both.
//!
//! The cell outcomes are appended to `target/crash-matrix-report.txt`
//! so CI can publish the matrix.

#![allow(
    clippy::disallowed_types,
    reason = "test harness: temp-dir ids need fetch_add's return value, which a Counter does not give"
)]
#![cfg(feature = "fault-injection")]

use fgac::prelude::*;
use fgac::types::faults::{self, Fault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "fgac-crash-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Disarms all faults when dropped, so a failed assertion cannot leave a
/// fault armed for other tests on this thread.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        faults::disarm_all();
    }
}

/// One workload operation. Every op either commits fully (WAL record
/// durable, state applied) or fails as a crash — none can fail for a
/// "legitimate" reason, so any `Err` marks the crash point.
#[derive(Debug, Clone)]
enum Op {
    Admin(String),
    UserDml { user: String, sql: String },
    GrantView { principal: String, view: String },
    RevokeView { principal: String, view: String },
    GrantConstraint { principal: String, name: String },
    GrantUpdate { principal: String, sql: String },
    AddRole { user: String, role: String },
    DelegateView { from: String, to: String, view: String },
}

fn apply(e: &mut Engine, op: &Op) -> fgac::types::Result<()> {
    match op {
        Op::Admin(sql) => e.admin_script(sql),
        Op::UserDml { user, sql } => {
            e.execute(&Session::new(user.clone()), sql).map(|_| ())
        }
        Op::GrantView { principal, view } => e.grant_view(principal, view),
        Op::RevokeView { principal, view } => e.revoke_view(principal, view),
        Op::GrantConstraint { principal, name } => e.grant_constraint(principal, name),
        Op::GrantUpdate { principal, sql } => e.grant_update_sql(principal, sql),
        Op::AddRole { user, role } => e.add_role(user, role),
        Op::DelegateView { from, to, view } => e.delegate_view(from, to, view),
    }
}

const USERS: [&str; 3] = ["11", "12", "13"];
const VIEWS: [&str; 2] = ["mygrades", "myregistrations"];

/// Fixed prefix: schema, authorization views, an inclusion dependency,
/// update authorizations, seed rows. One statement per op so each op
/// commits exactly one WAL record.
fn setup_ops() -> Vec<Op> {
    let mut ops: Vec<Op> = [
        "create table students (student_id varchar not null, name varchar not null, \
         primary key (student_id))",
        "create table grades (student_id varchar not null, course_id varchar not null, \
         grade int, primary key (student_id, course_id))",
        "create table registered (student_id varchar not null, course_id varchar not null, \
         primary key (student_id, course_id))",
        "create authorization view MyGrades as \
         select * from grades where student_id = $user_id",
        "create authorization view MyRegistrations as \
         select * from registered where student_id = $user_id",
        "create inclusion dependency all_registered on \
         grades (student_id, course_id) references registered (student_id, course_id)",
        "insert into students values ('11', 'ann'), ('12', 'bob'), ('13', 'cam')",
    ]
    .into_iter()
    .map(|s| Op::Admin(s.to_string()))
    .collect();
    for user in USERS {
        ops.push(Op::GrantUpdate {
            principal: user.into(),
            sql: "authorize insert on registered where student_id = $user_id".into(),
        });
        ops.push(Op::GrantUpdate {
            principal: user.into(),
            sql: "authorize insert on grades where student_id = $user_id".into(),
        });
    }
    ops
}

/// Randomized tail: `n` ops drawn from every record-producing category.
/// `holds` mirrors the view-grant table so delegation ops are only
/// generated when they will succeed (a legitimate delegation failure
/// would be indistinguishable from a crash).
fn random_ops(rng: &mut StdRng, n: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n);
    let mut holds: Vec<(String, String)> = Vec::new();
    for i in 0..n {
        let user = USERS[rng.gen_range(0..USERS.len())].to_string();
        let view = VIEWS[rng.gen_range(0..VIEWS.len())].to_string();
        match rng.gen_range(0..10u32) {
            0..=2 => {
                // Unique keys per op index: inserts never collide.
                let table = if rng.gen_bool(0.5) { "registered" } else { "grades" };
                let tail = if table == "grades" { ", 80" } else { "" };
                ops.push(Op::UserDml {
                    user: user.clone(),
                    sql: format!(
                        "insert into {table} values ('{user}', 'c{i}'{tail})"
                    ),
                });
            }
            3 => ops.push(Op::Admin(format!(
                "delete from registered where course_id = 'c{}'",
                rng.gen_range(0..(i + 1))
            ))),
            4..=5 => {
                holds.push((user.clone(), view.clone()));
                ops.push(Op::GrantView { principal: user, view });
            }
            6 => {
                holds.retain(|(u, v)| !(u == &user && v == &view));
                ops.push(Op::RevokeView { principal: user, view });
            }
            7 => ops.push(Op::GrantConstraint {
                principal: user,
                name: "all_registered".into(),
            }),
            8 => ops.push(Op::AddRole {
                user,
                role: "student".into(),
            }),
            _ => {
                if let Some((from, view)) = holds.last().cloned() {
                    holds.push((user.clone(), view.clone()));
                    ops.push(Op::DelegateView { from, to: user, view });
                } else {
                    holds.push((user.clone(), view.clone()));
                    ops.push(Op::GrantView { principal: user, view });
                }
            }
        }
    }
    ops
}

/// Compares the recovered engine against the shadow: state fingerprint
/// (tables, catalog, grants, data version) plus validator verdicts and
/// result rows for probe queries.
fn assert_equivalent(recovered: &mut Engine, shadow: &mut Engine, cell: &str) {
    assert_eq!(
        recovered.state_fingerprint(),
        shadow.state_fingerprint(),
        "[{cell}] recovered state != committed prefix"
    );
    let probes = [
        "select grade from grades where student_id = $user_id",
        "select * from registered where student_id = $user_id",
        "select grade from grades",
        "select count(*) from registered",
    ];
    for user in USERS {
        let s = Session::new(user);
        for q in probes {
            let a = recovered.execute(&s, q);
            let b = shadow.execute(&s, q);
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "[{cell}] rows differ for {user}: {q}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "[{cell}] verdicts differ for {user} on {q}: {a:?} vs {b:?}"
                ),
            }
        }
    }
}

fn report(line: &str) {
    let _ = std::fs::create_dir_all("target");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("target/crash-matrix-report.txt")
    {
        let _ = writeln!(f, "{line}");
    }
}

/// Runs one matrix cell: arm `site` at its `nth` hit, run the workload
/// until the crash fires (or it doesn't), recover, verify.
/// Returns whether the fault actually fired.
fn run_cell(seed: u64, site: &'static str, nth: u64) -> bool {
    let _guard = Disarm;
    let dir = tmp_dir(&format!("{}-{nth}", site.replace("::", "-")));
    let opts = DurabilityOptions {
        sync_on_commit: false,
        snapshot_every: 16, // small: the workload crosses rotation
    };
    let (mut durable, _) = Engine::open_with(&dir, opts.clone()).unwrap();
    let mut shadow = Engine::new();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = setup_ops();
    ops.extend(random_ops(&mut rng, 40));

    faults::arm(site, Fault::ErrorOnNth(nth));
    let mut crashed = false;
    for op in &ops {
        match apply(&mut durable, op) {
            Ok(()) => {
                // Committed: the shadow follows. It cannot fail — the
                // durable engine just did the same thing successfully.
                apply(&mut shadow, op).unwrap();
            }
            Err(_) => {
                crashed = true;
                break;
            }
        }
    }
    faults::disarm_all();

    // The failed op must have been rolled back in memory too: before the
    // "machine dies", the live engine already equals the committed state.
    assert_eq!(
        durable.state_fingerprint(),
        shadow.state_fingerprint(),
        "[{site}@{nth}] live engine ran ahead of the log after a WAL failure"
    );
    drop(durable); // the crash: no close, no sync

    let (mut recovered, _) = Engine::open_with(&dir, opts).unwrap();
    let cell = format!("seed={seed} {site}@{nth}");
    assert_equivalent(&mut recovered, &mut shadow, &cell);

    // The recovered engine must accept new work — a fresh table, so this
    // holds no matter how early in the workload the crash fired.
    for op in [
        Op::Admin("create table postcrash (k varchar not null, primary key (k))".into()),
        Op::Admin("insert into postcrash values ('x')".into()),
        Op::GrantView {
            principal: "11".into(),
            view: "mygrades".into(),
        },
    ] {
        apply(&mut recovered, &op).unwrap();
        apply(&mut shadow, &op).unwrap();
    }
    assert_eq!(recovered.state_fingerprint(), shadow.state_fingerprint());

    let _ = std::fs::remove_dir_all(&dir);
    report(&format!(
        "cell seed={seed} site={site} nth={nth} fired={crashed} ok"
    ));
    crashed
}

/// Every append-path fault site, at every hit from the first record to
/// past the end of the workload. `fired` goes false once `nth` exceeds
/// the workload's record count — those cells double as clean-run checks.
#[test]
fn crash_matrix_append_sites() {
    for seed in [7, 42] {
        for site in ["wal::append", "wal::append_torn", "wal::flush"] {
            let mut fired = true;
            let mut nth = 1;
            while fired {
                fired = run_cell(seed, site, nth);
                nth += match nth {
                    // Exhaustive through the setup prefix, then stride —
                    // every record kind is hit; runtime stays bounded.
                    0..=16 => 1,
                    _ => 7,
                };
            }
            assert!(nth > 17, "workload too short to exercise {site}");
        }
    }
}

/// A failed automatic snapshot must not fail the committed statement:
/// the log already holds every record, so recovery just replays more.
#[test]
fn crash_matrix_snapshot_site() {
    for seed in [7, 42] {
        let fired = run_cell(seed, "wal::snapshot", 1);
        assert!(!fired, "a swallowed snapshot failure is not a crash");
    }
}

/// A failure *after* the log-rotation rename (inside snapshot install)
/// must poison the store: the next op fails instead of being
/// acknowledged into the old log's unlinked inode, and recovery picks
/// up the already-durable snapshot + rotated log.
#[test]
fn crash_matrix_rotate_site() {
    for seed in [7, 42] {
        let fired = run_cell(seed, "wal::rotate", 1);
        assert!(fired, "a poisoned store must stop accepting work");
    }
}

/// Crash during an *explicit* snapshot, after a workload has run.
#[test]
fn crash_during_explicit_snapshot() {
    let _guard = Disarm;
    let dir = tmp_dir("explicit-snapshot");
    let mut e = Engine::open(&dir).unwrap();
    let mut shadow = Engine::new();
    for op in setup_ops() {
        apply(&mut e, &op).unwrap();
        apply(&mut shadow, &op).unwrap();
    }
    faults::arm("wal::snapshot", Fault::ErrorOnNth(1));
    assert!(e.snapshot_now().is_err());
    faults::disarm_all();
    drop(e);

    let (mut recovered, report) =
        Engine::open_with(&dir, DurabilityOptions::default()).unwrap();
    assert_eq!(report.snapshot_lsn, None, "failed snapshot left no file");
    assert_equivalent(&mut recovered, &mut shadow, "explicit-snapshot");
}

/// Crash *during recovery itself*, at every frame of the scan: an
/// aborted recovery mutates nothing, and the retry succeeds with the
/// full committed state.
#[test]
fn crash_matrix_recovery_site() {
    let _guard = Disarm;
    let dir = tmp_dir("recover");
    let mut e = Engine::open(&dir).unwrap();
    let mut shadow = Engine::new();
    let mut rng = StdRng::seed_from_u64(99);
    let mut ops = setup_ops();
    ops.extend(random_ops(&mut rng, 20));
    for op in &ops {
        apply(&mut e, op).unwrap();
        apply(&mut shadow, op).unwrap();
    }
    drop(e); // dirty
    let wal = dir.join("wal.log");
    let len_before = std::fs::metadata(&wal).unwrap().len();

    let mut nth = 1;
    loop {
        faults::arm("wal::recover", Fault::ErrorOnNth(nth));
        let outcome = Engine::open(&dir);
        let fired = outcome.is_err();
        faults::disarm_all();
        match outcome {
            Err(_) => {
                // Aborted mid-scan: nothing on disk may have changed.
                assert_eq!(
                    std::fs::metadata(&wal).unwrap().len(),
                    len_before,
                    "aborted recovery (frame {nth}) mutated the log"
                );
            }
            Ok(mut recovered) => {
                // nth exceeded the frame count: a clean recovery.
                assert_equivalent(&mut recovered, &mut shadow, &format!("recover@{nth}"));
            }
        }
        report(&format!("cell seed=99 site=wal::recover nth={nth} fired={fired} ok"));
        if !fired {
            break;
        }
        // Every aborted attempt must leave a retry fully functional.
        let mut recovered = Engine::open(&dir).unwrap();
        assert_equivalent(&mut recovered, &mut shadow, &format!("recover-retry@{nth}"));
        nth += 1;
    }
    assert!(nth > 10, "recovery scan too short for the matrix");
}
