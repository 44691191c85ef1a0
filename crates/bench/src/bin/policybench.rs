//! Policy-scale benchmark: admission latency vs granted-view count.
//!
//! The compiled authorization fast path exists so that admission stays
//! flat while a principal's policy set grows from 10 to 50,000 granted
//! views. This bench builds, per size N, a 16-relation schema with
//! full-width unconditional views over every relation plus predicated
//! pad views up to N grants, then measures cold-cache admission latency
//! of a U1/U2-unconditional workload (distinct query texts, so neither
//! the plan cache nor the validity cache can absorb the check).
//!
//! A second query set, the *prover column*, misses the fast path on
//! purpose: it selects more strictly than the one predicated view over
//! `rel_p` (granted at every size, beside the N above), so only the
//! prover's U2 selection-subsumption derivation admits it. Its latency
//! is the cold prover's at N granted views. `pad_p` is the only view on
//! `rel_p`, so the prover's relevant view set is one view at every size:
//! once the principal's view side is built (by the column's first text),
//! the column should read flat in N.
//!
//! ```text
//! policybench [--queries N] [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Emits `BENCH_policy.json`. With `--check`, exits non-zero when the
//! fast-path set's p99 growth factor from the smallest to the largest
//! policy set exceeds the baseline's `max_p99_growth` (sub-linearity
//! gate: 5000x more policies must cost far less than 5000x the
//! latency), when its fast-path hit rate falls below `min_hit_rate`, or
//! when the prover column's p50 grows by more than
//! `max_prover_p50_growth` over the same range. The prover gate reads
//! p50, not p99: each size's first prover text builds the view side.

use fgac_bench::{emit_report, num, percentile, Cli};
use fgac_core::{Engine, Session};
use fgac_types::Json;
use std::time::Instant;

/// Granted-view counts swept, smallest to largest.
const SIZES: [usize; 5] = [10, 100, 1_000, 10_000, 50_000];
/// Base relations; every size covers `min(N, RELATIONS)` of them
/// full-width.
const RELATIONS: usize = 16;

/// The prover column's relation and its one view, which no compiled
/// capability covers: the view is predicated.
const PROVER_DDL: &str = "create table rel_p (id varchar not null, a int, b varchar, \
     primary key (id));
     create authorization view pad_p as select * from rel_p where a > 0;";

/// Engine with `covered` full-width views plus pad views up to `total`
/// grants for principal `u`, and the prover column's `pad_p`.
fn build(total: usize) -> (Engine, usize) {
    let covered = total.min(RELATIONS);
    let mut ddl = String::from(PROVER_DDL);
    for r in 0..RELATIONS {
        ddl.push_str(&format!(
            "create table rel_{r} (id varchar not null, a int, b varchar, \
             primary key (id));\n"
        ));
    }
    for r in 0..covered {
        ddl.push_str(&format!(
            "create authorization view v_full_{r} as select * from rel_{r};\n"
        ));
    }
    // Pad views are predicated, so they compile to residuals: they model
    // the realistic long tail of row-restricted policies the prover owns.
    for i in covered..total {
        ddl.push_str(&format!(
            "create authorization view pad_{i} as select * from rel_{} where a > {i};\n",
            i % RELATIONS
        ));
    }
    let mut e = Engine::new();
    e.admin_script(&ddl).expect("schema + views");
    for r in 0..covered {
        e.grant_view("u", &format!("v_full_{r}")).expect("grant");
    }
    for i in covered..total {
        e.grant_view("u", &format!("pad_{i}")).expect("grant");
    }
    e.grant_view("u", "pad_p").expect("grant");
    (e, covered)
}

/// Fast-path hits and probes so far, process-wide.
fn fastpath_counts() -> (u64, u64) {
    let hits = fgac_core::compiled::fastpath_hit_count();
    (hits, hits + fgac_core::compiled::fastpath_miss_count())
}

/// Times one cold `check` per text, asserting each is admitted; returns
/// the latencies (µs) and the fast-path hit rate over the set.
fn admit_all(
    e: &Engine,
    session: &Session,
    texts: impl Iterator<Item = String>,
) -> (Vec<f64>, f64) {
    let (hits0, probes0) = fastpath_counts();
    let mut samples = Vec::new();
    for sql in texts {
        let t = Instant::now();
        let report = e.check(session, &sql).expect("admission");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(report.is_valid(), "workload query denied: {sql}");
    }
    let (hits1, probes1) = fastpath_counts();
    let (hits, probes) = (hits1 - hits0, probes1 - probes0);
    let rate = if probes == 0 { 0.0 } else { hits as f64 / probes as f64 };
    (samples, rate)
}

fn main() {
    let (cli, [queries]) = Cli::parse("BENCH_policy.json", [("--queries", 125)]);
    let session = Session::new("u");
    let mut p99s: Vec<(usize, f64)> = Vec::new();
    let mut hit_rate_min = f64::INFINITY;
    let mut compile_us_max = 0f64;
    let mut provers: Vec<(usize, f64, f64)> = Vec::new();
    let mut prover_rate_max = 0f64;

    for n in SIZES {
        let (e, covered) = build(n);
        // First admission pays the one-time per-epoch compile of all N
        // granted views; report it separately, it is not a per-query cost.
        let t = Instant::now();
        e.check(&session, "select a from rel_0 where id = 'warm'")
            .expect("warmup check");
        let compile_us = t.elapsed().as_secs_f64() * 1e6;
        compile_us_max = compile_us_max.max(compile_us);

        // Distinct texts over the covered relations: plan-cache and
        // validity-cache misses every time, U1/U2-unconditional by
        // construction (full-width coverage of the scanned relation).
        let fast = (0..queries)
            .map(|q| format!("select a, b from rel_{} where id = 'k{q}'", q % covered));
        let (mut samples, rate) = admit_all(&e, &session, fast);
        hit_rate_min = hit_rate_min.min(rate);
        let p = percentile(&mut samples, 0.99);
        // Stricter than pad_p's `a > 0`: a fast-path miss, admitted by
        // the prover through selection subsumption.
        let strict = (0..queries).map(|q| format!("select a, b from rel_p where a > {}", q + 1));
        let (mut prover, prover_rate) = admit_all(&e, &session, strict);
        prover_rate_max = prover_rate_max.max(prover_rate);
        let prover_p50 = percentile(&mut prover, 0.50);
        let prover_p99 = percentile(&mut prover, 0.99);
        eprintln!(
            "n={n}: p99 {p:.1}µs, fast-path {:.1}%, compile+first-check {compile_us:.0}µs; \
             prover p50 {prover_p50:.1}µs p99 {prover_p99:.1}µs, fast-path {:.1}%",
            rate * 100.0,
            prover_rate * 100.0
        );
        provers.push((n, prover_p50, prover_p99));
        p99s.push((n, p));
    }

    let (_, p_small) = p99s[0];
    let (_, p_large) = p99s[p99s.len() - 1];
    let growth = p_large / p_small.max(1e-9);
    let (_, prover_small, _) = provers[0];
    let (_, prover_large, _) = provers[provers.len() - 1];
    let prover_growth = prover_large / prover_small.max(1e-9);

    // --- Gates.
    let max_growth = cli.gate("max_p99_growth", f64::INFINITY);
    let min_rate = cli.gate("min_hit_rate", 0.0);
    let max_prover_growth = cli.gate("max_prover_p50_growth", f64::INFINITY);
    let growth_ok = growth <= max_growth;
    let rate_ok = hit_rate_min >= min_rate;
    let prover_ok = prover_growth <= max_prover_growth;
    let pass = growth_ok && rate_ok && prover_ok;

    let mut report = vec![
        ("schema".to_string(), Json::str("fgac-policy-v1")),
        ("queries_per_size".to_string(), Json::usize(queries)),
    ];
    for (n, p) in &p99s {
        report.push((format!("p99_us_{n}"), num(*p, 1)));
    }
    for (n, p50, p99) in &provers {
        report.push((format!("prover_p50_us_{n}"), num(*p50, 1)));
        report.push((format!("prover_p99_us_{n}"), num(*p99, 1)));
    }
    report.extend([
        ("growth_p99".to_string(), num(growth, 2)),
        ("growth_prover_p50".to_string(), num(prover_growth, 2)),
        ("hit_rate".to_string(), num(hit_rate_min, 4)),
        ("prover_hit_rate".to_string(), num(prover_rate_max, 4)),
        (
            "compile_first_check_us_max".to_string(),
            num(compile_us_max, 0),
        ),
        (
            "gates".to_string(),
            Json::obj([
                ("max_p99_growth", num(max_growth, 1)),
                ("min_hit_rate", num(min_rate, 2)),
                ("max_prover_p50_growth", num(max_prover_growth, 1)),
                ("pass", Json::Bool(pass)),
            ]),
        ),
    ]);
    emit_report(&cli.out, &Json::Obj(report));

    if !growth_ok {
        eprintln!(
            "GATE FAIL: p99 grew {growth:.2}x from {} to {} policies (max {max_growth:.1}x)",
            SIZES[0],
            SIZES[SIZES.len() - 1]
        );
    }
    if !prover_ok {
        eprintln!(
            "GATE FAIL: prover p50 grew {prover_growth:.2}x from {} to {} policies \
             (max {max_prover_growth:.1}x)",
            SIZES[0],
            SIZES[SIZES.len() - 1]
        );
    }
    if !rate_ok {
        eprintln!(
            "GATE FAIL: fast-path hit rate {hit_rate_min:.2} under required {min_rate:.2}"
        );
    }
    if !pass {
        std::process::exit(1);
    }
}
