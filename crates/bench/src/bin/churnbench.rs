//! Policy-churn benchmark: request latency while grants flip underneath.
//!
//! PR-8 replaced the epoch cold start (every grant/revoke cleared every
//! cache) with a dependency-tracked sweep plus certificate-backed warm
//! revalidation. This bench measures what that buys: a reader
//! population's p99 with a writer continuously revoking/re-granting a
//! *pad* view the readers hold but never use. Every flip makes the
//! readers' cached accepts stale; the next request re-verifies the
//! stored certificate against the new grant state instead of re-proving
//! from scratch.
//!
//! ```text
//! churnbench [--iters N] [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Emits `BENCH_churn.json`. With `--check`, exits non-zero when the
//! revalidation hit rate (warm re-admissions over all stale-entry
//! resolutions) falls below `min_revalidation_rate`. `churn_factor`
//! (p99 under churn over the churn-free p99) is reported, not gated: on
//! a two-core machine the writer and four readers share the cores, and
//! the factor measures that scheduling as much as the sweep.

use fgac_bench::{emit_report, num, percentile, Cli};
use fgac_core::{Engine, Session, SharedEngine};
use fgac_types::{Counter, Json};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Reader principals; each holds the full view plus the flipping pad.
const PRINCIPALS: usize = 4;
/// Distinct query texts per principal (so the sweep has a population of
/// entries to restamp or stale, not a single one).
const QUERIES_PER_PRINCIPAL: usize = 8;

fn build() -> SharedEngine {
    let mut ddl = String::from(
        "create table t (id varchar not null, a int, b varchar, primary key (id));\n\
         create authorization view v_full as select * from t;\n\
         create authorization view v_pad as select * from t where a > 1000000;\n",
    );
    for i in 0..64 {
        ddl.push_str(&format!(
            "insert into t values ('k{i}', {i}, 'row{i}');\n"
        ));
    }
    let mut e = Engine::new();
    e.admin_script(&ddl).expect("schema + data");
    for p in 0..PRINCIPALS {
        let user = format!("u{p}");
        e.grant_view(&user, "v_full").expect("grant v_full");
        e.grant_view(&user, "v_pad").expect("grant v_pad");
    }
    SharedEngine::new(e)
}

fn query_text(p: usize, q: usize) -> String {
    format!("select a, b from t where id = 'k{}'", (p * QUERIES_PER_PRINCIPAL + q) % 64)
}

/// One measured pass over the whole principal × query matrix; pushes a
/// per-request sample for each.
fn measure_round(shared: &SharedEngine, sessions: &[Session], samples: &mut Vec<f64>) {
    for (p, s) in sessions.iter().enumerate() {
        for q in 0..QUERIES_PER_PRINCIPAL {
            let sql = query_text(p, q);
            let t = Instant::now();
            let r = shared.execute(s, &sql).expect("reader request");
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(r.rows().is_some(), "reader query must return rows");
        }
    }
}

fn main() {
    let (cli, [iters]) = Cli::parse("BENCH_churn.json", [("--iters", 3_000)]);
    let shared = build();
    let sessions: Vec<Session> = (0..PRINCIPALS).map(|p| Session::new(format!("u{p}"))).collect();
    let rounds = iters.div_ceil(PRINCIPALS * QUERIES_PER_PRINCIPAL).max(1);

    // --- Phase 1: churn-free. Warm everything, then measure.
    let mut warm = Vec::new();
    measure_round(&shared, &sessions, &mut warm);
    let mut quiet = Vec::with_capacity(rounds * PRINCIPALS * QUERIES_PER_PRINCIPAL);
    for _ in 0..rounds {
        measure_round(&shared, &sessions, &mut quiet);
    }
    let p99_quiet = percentile(&mut quiet, 0.99);

    // --- Phase 2: identical measurement under continuous policy churn.
    // The writer flips v_pad for every principal: each flip affects all
    // readers, so their cached accepts go stale and the next request
    // must resolve through certificate revalidation (v_full, which
    // justifies every query, is never touched).
    let (reval_hits0, reval_misses0) = shared.with_read(|e| e.cache().revalidation_stats());
    #[allow(
        clippy::disallowed_types,
        reason = "the writer's stop flag: stored with Release after the measured rounds, \
                  loaded with Acquire by the writer loop it ends"
    )]
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flips = Arc::new(Counter::new());
    let writer = {
        let shared = shared.clone();
        let stop = Arc::clone(&stop);
        let flips = Arc::clone(&flips);
        std::thread::spawn(move || {
            let mut held = true;
            // Acquire pairs with the Release store below: the loop exit
            // decision synchronizes with the measuring thread's state.
            while !stop.load(Ordering::Acquire) {
                for p in 0..PRINCIPALS {
                    let user = format!("u{p}");
                    shared
                        .with_write(|e| {
                            if held {
                                e.revoke_view(&user, "v_pad")
                            } else {
                                e.grant_view(&user, "v_pad")
                            }
                        })
                        .expect("pad flip");
                }
                held = !held;
                flips.add(1);
                // Let readers actually run between flips; back-to-back
                // write-lock acquisition would measure lock starvation,
                // not invalidation cost.
                std::thread::yield_now();
            }
            // Leave the pad granted for a clean final state.
            if !held {
                for p in 0..PRINCIPALS {
                    let user = format!("u{p}");
                    shared.with_write(|e| e.grant_view(&user, "v_pad")).expect("regrant");
                }
            }
        })
    };

    let mut churn = Vec::with_capacity(rounds * PRINCIPALS * QUERIES_PER_PRINCIPAL);
    for _ in 0..rounds {
        measure_round(&shared, &sessions, &mut churn);
    }
    stop.store(true, Ordering::Release);
    writer.join().expect("writer thread");
    let p99_churn = percentile(&mut churn, 0.99);
    let total_flips = flips.get();

    let (reval_hits1, reval_misses1) = shared.with_read(|e| e.cache().revalidation_stats());
    let reval_hits = reval_hits1 - reval_hits0;
    let reval_misses = reval_misses1 - reval_misses0;
    let reval_total = reval_hits + reval_misses;
    let reval_rate = if reval_total == 0 {
        0.0
    } else {
        reval_hits as f64 / reval_total as f64
    };
    let factor = p99_churn / p99_quiet.max(1e-9);

    eprintln!(
        "quiet p99 {p99_quiet:.1}µs, churn p99 {p99_churn:.1}µs ({factor:.2}x), \
         {total_flips} flips, revalidation {reval_hits}/{reval_total} ({:.1}%)",
        reval_rate * 100.0
    );

    // --- Gate.
    let min_reval = cli.gate("min_revalidation_rate", 0.0);
    let pass = reval_rate >= min_reval;

    emit_report(
        &cli.out,
        &Json::obj([
            ("schema", Json::str("fgac-churn-v1")),
            (
                "iters",
                Json::usize(rounds * PRINCIPALS * QUERIES_PER_PRINCIPAL),
            ),
            ("p99_quiet_us", num(p99_quiet, 1)),
            ("p99_churn_us", num(p99_churn, 1)),
            ("churn_factor", num(factor, 2)),
            ("flips", Json::u64(total_flips)),
            ("revalidation_hits", Json::u64(reval_hits)),
            ("revalidation_misses", Json::u64(reval_misses)),
            ("revalidation_rate", num(reval_rate, 4)),
            (
                "gates",
                Json::obj([
                    ("min_revalidation_rate", num(min_reval, 2)),
                    ("pass", Json::Bool(pass)),
                ]),
            ),
        ]),
    );

    if !pass {
        eprintln!(
            "GATE FAIL: revalidation hit rate {reval_rate:.2} under required {min_reval:.2}"
        );
        std::process::exit(1);
    }
}
