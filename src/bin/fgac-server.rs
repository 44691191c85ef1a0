//! `fgac-server` — serve a durable fgac store over TCP.
//!
//! ```text
//! fgac-server --data DIR [--addr HOST:PORT] [--init SCRIPT.sql]
//!             [--workers N] [--queue N] [--max-conns N]
//!             [--idle-ms N] [--frame-ms N] [--deadline-ms N]
//!             [--drain-ms N] [--admin PRINCIPAL]
//! fgac-server --data DIR --check
//! ```
//!
//! The serving mode opens (recovering if needed) the WAL-backed store
//! in `--data`, optionally applies `--init` as an admin script on a
//! fresh store, prints `LISTENING <addr>` on stdout, and serves until
//! SIGTERM/SIGINT. Each connection's thread runs its own requests: at
//! most `--workers` execute at once, at most `--queue` wait for one of
//! those slots, and any beyond that are answered `SHED`. Shutdown is
//! graceful: stop accepting, drain admitted requests up to
//! `--drain-ms`, answer the ones still waiting with `UNAVAILABLE`, let
//! the executing ones finish, fsync and close the WAL, then print
//! `DRAINED ...`.
//!
//! `--check` performs recovery only and reports what it found — the CI
//! smoke job uses it to prove a served-then-terminated store recovers
//! cleanly (no torn tail, same version counters).

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

use fgac_core::{Engine, SharedEngine};
use fgac_server::{Server, ServerConfig};
use std::sync::atomic::Ordering;
use std::time::Duration;

#[allow(
    clippy::disallowed_types,
    reason = "the shutdown flag, not a count: the signal handler stores it and the main loop \
              loads it, both SeqCst"
)]
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers through the libc already linked by
/// std — no signal crate needed for a flag-setting handler.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

struct Args {
    data: String,
    addr: String,
    init: Option<String>,
    check: bool,
    workers: usize,
    queue: usize,
    max_conns: usize,
    idle_ms: u64,
    frame_ms: u64,
    deadline_ms: Option<u64>,
    drain_ms: u64,
    admin: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        data: String::new(),
        addr: "127.0.0.1:7421".into(),
        init: None,
        check: false,
        workers: 4,
        queue: 64,
        max_conns: 64,
        idle_ms: 10_000,
        frame_ms: 2_000,
        deadline_ms: None,
        drain_ms: 5_000,
        admin: "admin".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--data" => args.data = value("--data")?,
            "--addr" => args.addr = value("--addr")?,
            "--init" => args.init = Some(value("--init")?),
            "--check" => args.check = true,
            "--workers" => args.workers = parse_num(&value("--workers")?)? as usize,
            "--queue" => args.queue = parse_num(&value("--queue")?)? as usize,
            "--max-conns" => args.max_conns = parse_num(&value("--max-conns")?)? as usize,
            "--idle-ms" => args.idle_ms = parse_num(&value("--idle-ms")?)?,
            "--frame-ms" => args.frame_ms = parse_num(&value("--frame-ms")?)?,
            "--deadline-ms" => args.deadline_ms = Some(parse_num(&value("--deadline-ms")?)?),
            "--drain-ms" => args.drain_ms = parse_num(&value("--drain-ms")?)?,
            "--admin" => args.admin = value("--admin")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.data.is_empty() {
        return Err("--data DIR is required".into());
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("not a number: {s}"))
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgac-server: {e}");
            return 2;
        }
    };
    if args.check {
        return run_check(&args);
    }
    run_serve(&args)
}

/// Recovery-only mode: open the store, report, close.
fn run_check(args: &Args) -> i32 {
    match Engine::open_with(&args.data, Default::default()) {
        Ok((mut engine, report)) => {
            println!(
                "RECOVERED snapshot_lsn={:?} records_scanned={} records_replayed={} \
                 truncated_tail_bytes={} policy_epoch={} data_version={}",
                report.snapshot_lsn,
                report.records_scanned,
                report.records_replayed,
                report.truncated_tail_bytes,
                engine.policy_epoch(),
                engine.data_version(),
            );
            match engine.close() {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("fgac-server: close after check: {e}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("fgac-server: recovery failed: {e}");
            1
        }
    }
}

fn run_serve(args: &Args) -> i32 {
    install_signal_handlers();
    let (mut engine, report) = match Engine::open_with(&args.data, Default::default()) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("fgac-server: open {}: {e}", args.data);
            return 1;
        }
    };
    // Bootstrap a fresh store (nothing recovered) from the init script.
    let fresh = report.snapshot_lsn.is_none() && report.records_replayed == 0;
    if let (true, Some(path)) = (fresh, &args.init) {
        let script = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fgac-server: read {path}: {e}");
                return 1;
            }
        };
        if let Err(e) = engine.admin_script(&script) {
            eprintln!("fgac-server: init script {path}: {e}");
            return 1;
        }
        eprintln!("fgac-server: initialized fresh store from {path}");
    }
    let config = ServerConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        queue_capacity: args.queue,
        max_connections: args.max_conns,
        idle_timeout: Duration::from_millis(args.idle_ms),
        frame_timeout: Duration::from_millis(args.frame_ms),
        default_deadline: args.deadline_ms.map(Duration::from_millis),
        drain_deadline: Duration::from_millis(args.drain_ms),
        admin_principal: args.admin.clone(),
    };
    let server = match Server::start(SharedEngine::new(engine), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fgac-server: start: {e}");
            return 1;
        }
    };
    // Scripts (and the CI smoke job) wait for this line before
    // connecting; ports may be OS-assigned via :0.
    println!("LISTENING {}", server.local_addr());
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("fgac-server: signal received, draining");
    match server.finish() {
        Ok(report) => {
            let served: u64 = report
                .metrics
                .iter()
                .filter(|(k, _)| k.starts_with("resp_"))
                .map(|(_, v)| *v)
                .sum();
            println!(
                "DRAINED clean={} refused_jobs={} responses={served}",
                report.drained_cleanly, report.refused_jobs
            );
            0
        }
        Err(e) => {
            eprintln!("fgac-server: drain/close failed: {e}");
            1
        }
    }
}
