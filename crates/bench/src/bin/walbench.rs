//! Durability benchmark: what write-ahead logging costs on the DML
//! path, and what recovery costs as the log grows.
//!
//! Emits `BENCH_wal.json` (see EXPERIMENTS.md for the field reference):
//!
//! ```text
//! walbench [--ops N] [--out PATH]
//! ```
//!
//! It only reports: `--check` is a usage error.
//!
//! Three engines run the same authorized-insert workload: a plain
//! in-memory engine, a durable engine at the default level (buffered
//! write per commit, no fsync), and a durable engine with
//! `sync_on_commit` (fsync per commit, measured over fewer ops — each
//! one waits on the disk). `overhead_ratio` is reported, not gated: it
//! is a ratio whose denominator is the in-memory engine, so a faster
//! in-memory DML path raises it without the log getting any slower.
//! Recovery is timed at several log lengths so regressions in replay
//! show up as a curve, not a single noisy point.

use fgac_bench::{emit_report, num, Cli};
use fgac_core::{DurabilityOptions, Engine, Session};
use fgac_types::Json;
use std::path::PathBuf;
use std::time::Instant;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fgac-walbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The fixture every mode shares: one table, one authorization to
/// insert into it. Inserts carry unique keys so none can conflict.
fn populate(e: &mut Engine) {
    e.admin_script(
        "create table registered (student_id varchar not null, course_id varchar not null, \
         primary key (student_id, course_id))",
    )
    .expect("schema applies");
    e.grant_update_sql("11", "authorize insert on registered where student_id = $user_id")
        .expect("authorize applies");
}

/// Runs `ops` authorized inserts and returns the measured q/s.
fn insert_qps(e: &mut Engine, ops: usize) -> f64 {
    let session = Session::new("11");
    let t = Instant::now();
    for i in 0..ops {
        let sql = format!("insert into registered values ('11', 'c{i}')");
        std::hint::black_box(e.execute(&session, &sql).expect("authorized insert"));
    }
    ops as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    let (cli, [ops]) = Cli::parse_report("BENCH_wal.json", [("--ops", 2_000)]);
    // Snapshots off in every durable mode: this measures the log itself,
    // and recovery timing below wants the whole history in the log.
    let no_sync = DurabilityOptions {
        sync_on_commit: false,
        snapshot_every: 0,
    };
    let fsync = DurabilityOptions {
        sync_on_commit: true,
        snapshot_every: 0,
    };

    // --- In-memory reference.
    let mut inmem = Engine::new();
    populate(&mut inmem);
    let inmem_qps = insert_qps(&mut inmem, ops);

    // --- Durable, default level (buffered write per commit).
    let durable_dir = tmp_dir("durable");
    let (mut durable, _) = Engine::open_with(&durable_dir, no_sync.clone()).expect("open durable");
    populate(&mut durable);
    let durable_qps = insert_qps(&mut durable, ops);
    drop(durable); // dirty: recovery below starts from a crash

    // --- Durable with fsync per commit. Far fewer ops: each one waits
    // on the disk, and the point is the per-commit price, not volume.
    let fsync_ops = (ops / 20).max(20);
    let fsync_dir = tmp_dir("fsync");
    let (mut synced, _) = Engine::open_with(&fsync_dir, fsync).expect("open fsync");
    populate(&mut synced);
    let fsync_qps = insert_qps(&mut synced, fsync_ops);
    drop(synced);
    let _ = std::fs::remove_dir_all(&fsync_dir);

    // --- Recovery time vs log length. The full-length point reuses the
    // durable run's directory; shorter points get their own logs.
    let mut recovery = Vec::new();
    for frac in [4usize, 2, 1] {
        let records = ops / frac;
        let (dir, cleanup) = if frac == 1 {
            (durable_dir.clone(), true)
        } else {
            let dir = tmp_dir(&format!("recover-{records}"));
            let (mut e, _) = Engine::open_with(&dir, no_sync.clone()).expect("open for recovery");
            populate(&mut e);
            insert_qps(&mut e, records);
            drop(e);
            (dir, true)
        };
        let t = Instant::now();
        let (recovered, report) = Engine::open_with(&dir, no_sync.clone()).expect("recover");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(report.records_replayed >= records, "log shorter than expected");
        drop(recovered);
        if cleanup {
            let _ = std::fs::remove_dir_all(&dir);
        }
        recovery.push((report.records_replayed, ms));
    }

    let overhead_ratio = inmem_qps / durable_qps.max(1e-9);

    let recovery_json = recovery
        .iter()
        .map(|(records, ms)| Json::obj([("records", Json::usize(*records)), ("ms", num(*ms, 2))]))
        .collect();
    emit_report(
        &cli.out,
        &Json::obj([
            ("schema", Json::str("fgac-wal-v1")),
            ("ops", Json::usize(ops)),
            ("inmem_qps", num(inmem_qps, 0)),
            ("durable_qps", num(durable_qps, 0)),
            ("fsync_ops", Json::usize(fsync_ops)),
            ("fsync_qps", num(fsync_qps, 0)),
            ("overhead_ratio", num(overhead_ratio, 3)),
            ("recovery", Json::Arr(recovery_json)),
        ]),
    );
    eprintln!(
        "inmem {inmem_qps:.0} q/s, durable {durable_qps:.0} q/s ({overhead_ratio:.2}x), \
         fsync {fsync_qps:.0} q/s; recovery {:?}",
        recovery
            .iter()
            .map(|(r, ms)| format!("{r} rec / {ms:.1}ms"))
            .collect::<Vec<_>>()
    );
}
