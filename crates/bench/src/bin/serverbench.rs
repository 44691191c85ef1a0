//! Multi-client load benchmark for the network front end.
//!
//! Emits `BENCH_server.json`:
//!
//! ```text
//! serverbench [--clients N] [--requests N] [--out PATH]
//! ```
//!
//! Speed is only reported: `--check` is a usage error. fgacbench
//! measures this request path end to end; a single-shot q/s or p99 here
//! cannot tell a regression from runner noise.
//!
//! Two phases against an in-process [`fgac_server::Server`]:
//!
//! 1. **Throughput** — N concurrent clients each issue M repeated
//!    authorized queries (the hot path: plan cache + validity cache
//!    hits) over real TCP connections; aggregate q/s and p99 request
//!    latency are reported.
//! 2. **Overload** — the same workload against a server with one
//!    admission permit and a one-slot line, so admission control *must*
//!    shed. Clients retry on `SHED` with jittered exponential backoff
//!    until every request eventually succeeds. Its invariants are hard
//!    failures: every shed answer is `SHED` (never `DENIED` — denial
//!    under load would be an authorization lie), every request
//!    completes within the retry budget, and both phases drain
//!    cleanly.

use fgac_bench::{emit_report, num, percentile, Cli};
use fgac_core::{Engine, SharedEngine};
use fgac_server::{Client, Response, Server, ServerConfig};
use fgac_types::Json;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One engine with the standard grades fixture, ready to serve.
fn fixture_engine() -> SharedEngine {
    let mut e = Engine::new();
    e.admin_script(
        "create table grades (student_id varchar not null, course_id varchar not null, \
           grade int, primary key (student_id, course_id));
         create authorization view MyGrades as \
           select * from grades where student_id = $user_id;
         insert into grades values ('11', 'cs101', 90), ('11', 'cs102', 85), ('12', 'cs101', 70);
         grant view MyGrades to '11';",
    )
    .expect("fixture applies");
    SharedEngine::new(e)
}

/// Issues one query, retrying `SHED`/`UNAVAILABLE` with jittered
/// exponential backoff. Returns (latency of the successful attempt,
/// number of shed answers absorbed). Panics if the server answers with
/// `DENIED` — overload must never speak authorization vocabulary.
fn query_with_backoff(
    client: &mut Client,
    rng: &mut rand::DefaultRng,
    sql: &str,
) -> (Duration, u64) {
    let mut sheds = 0u64;
    for attempt in 0u32.. {
        let t = Instant::now();
        let resp = client.query(sql).expect("transport");
        match resp {
            Response::Rows { .. } | Response::Affected(_) => return (t.elapsed(), sheds),
            Response::Denied(m) => panic!("overload surfaced as DENIED: {m}"),
            Response::Shed(_) | Response::Unavailable(_) | Response::Timeout(_) => {
                sheds += 1;
                assert!(attempt < 40, "request never admitted after 40 attempts");
                // Jittered exponential backoff, capped at ~25ms.
                let base_us = (200u64 << attempt.min(7)).min(25_000);
                let jitter = rng.gen_range(0..=base_us);
                std::thread::sleep(Duration::from_micros(base_us / 2 + jitter));
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    unreachable!("loop returns or panics")
}

struct PhaseOutcome {
    qps: f64,
    p99_ms: f64,
    total_requests: u64,
    sheds: u64,
}

/// Runs `clients` threads of `requests` queries each against `server`.
fn run_phase(addr: std::net::SocketAddr, clients: usize, requests: usize) -> PhaseOutcome {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut rng = rand::DefaultRng::seed_from_u64(0xBEEF ^ c as u64);
                let mut client =
                    Client::connect(addr, Duration::from_secs(10)).expect("connect");
                let hello = client.hello("11").expect("hello");
                assert!(matches!(hello, Response::Ok(_)), "handshake: {hello:?}");
                let mut latencies = Vec::with_capacity(requests);
                let mut sheds = 0u64;
                for i in 0..requests {
                    // Mostly the hot repeated query; a sprinkle of variants
                    // so the plan cache sees some misses too.
                    let sql = if i % 16 == 0 {
                        format!("select grade from grades where student_id = '11' and grade > {}", i % 50)
                    } else {
                        "select course_id, grade from grades where student_id = '11'".to_string()
                    };
                    let (lat, s) = query_with_backoff(&mut client, &mut rng, &sql);
                    latencies.push(lat);
                    sheds += s;
                }
                let _ = client.bye();
                (latencies, sheds)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut sheds = 0u64;
    for h in handles {
        let (lats, s) = h.join().expect("client thread");
        latencies.extend(lats);
        sheds += s;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mut latencies_ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    PhaseOutcome {
        qps: latencies.len() as f64 / elapsed,
        p99_ms: percentile(&mut latencies_ms, 0.99),
        total_requests: latencies.len() as u64,
        sheds,
    }
}

fn main() {
    let (cli, [clients, requests]) =
        Cli::parse_report("BENCH_server.json", [("--clients", 8), ("--requests", 250)]);

    // --- Phase 1: throughput on a generously provisioned server.
    let server = Server::start(
        fixture_engine(),
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
            max_connections: clients + 8,
            ..ServerConfig::default()
        },
    )
    .expect("start throughput server");
    let throughput = run_phase(server.local_addr(), clients, requests);
    let report = server.finish().expect("drain throughput server");
    assert!(report.drained_cleanly, "throughput phase left work behind");

    // --- Phase 2: overload. One permit, one place in line: shedding is
    // guaranteed, and the retry loop must still complete every request.
    let server = Server::start(
        fixture_engine(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            max_connections: clients + 8,
            ..ServerConfig::default()
        },
    )
    .expect("start overload server");
    let overload_requests = (requests / 5).max(20);
    let overload = run_phase(server.local_addr(), clients, overload_requests);
    let report = server.finish().expect("drain overload server");
    assert!(report.drained_cleanly, "overload phase left work behind");
    let shed_counter = report
        .metrics
        .iter()
        .find(|(k, _)| *k == "resp_shed")
        .map_or(0, |(_, v)| *v);
    let denied_counter = report
        .metrics
        .iter()
        .find(|(k, _)| *k == "resp_denied")
        .map_or(0, |(_, v)| *v);
    assert_eq!(
        denied_counter, 0,
        "overload phase produced DENIED responses — shedding leaked into authorization"
    );

    emit_report(
        &cli.out,
        &Json::obj([
            ("schema", Json::str("fgac-server-v1")),
            ("clients", Json::usize(clients)),
            ("requests_per_client", Json::usize(requests)),
            ("qps", num(throughput.qps, 0)),
            ("p99_ms", num(throughput.p99_ms, 3)),
            ("requests", Json::u64(throughput.total_requests)),
            (
                "overload",
                Json::obj([
                    ("requests", Json::u64(overload.total_requests)),
                    ("sheds_observed_by_clients", Json::u64(overload.sheds)),
                    ("resp_shed", Json::u64(shed_counter)),
                    ("resp_denied", Json::u64(denied_counter)),
                    ("qps", num(overload.qps, 0)),
                ]),
            ),
        ]),
    );
    eprintln!(
        "throughput {:.0} q/s p99 {:.2}ms over {} requests; overload: {} client-visible sheds, {} SHED frames, 0 DENIED",
        throughput.qps, throughput.p99_ms, throughput.total_requests, overload.sheds, shed_counter
    );
}
