//! Hot-path benchmark: cold admission vs warm (plan-cache + validity-
//! cache) repeat execution, plus the executor's rows-cloned reduction.
//!
//! Emits `BENCH_hotpath.json` (see EXPERIMENTS.md for the field
//! reference) and optionally gates against a checked-in baseline:
//!
//! ```text
//! hotpath [--students N] [--out PATH] [--check BASELINE.json]
//! ```
//!
//! With `--check`, the process exits non-zero when the warm repeat-query
//! throughput falls below 75% of the baseline's `warm_qps`, or when the
//! warm-over-cold speedup drops under the 5x floor — the CI regression
//! gate for the admission-to-execution hot path.

use fgac_bench::{emit_report, num, percentile, pick_triple, university, Cli};
use fgac_core::Session;
use fgac_types::Json;
use std::time::Instant;

/// Minimum acceptable warm-over-cold speedup.
const MIN_WARM_OVER_COLD: f64 = 5.0;
/// Fraction of the baseline throughput that still passes.
const QPS_TOLERANCE: f64 = 0.75;

fn main() {
    let (cli, [students]) = Cli::parse("BENCH_hotpath.json", [("--students", 100)]);
    let mut uni = university(students);
    let (student, _reg, _unreg) = pick_triple(&uni);
    let session = Session::new(student.clone());

    // The canonical repeated query: the student's own grades, valid via
    // the MyGrades authorization view.
    let sql = "select course_id, grade from grades where student_id = $user_id";

    // --- Cold: every iteration pays parse + bind + validity inference.
    let cold_iters = 21;
    let mut cold = Vec::with_capacity(cold_iters);
    for _ in 0..cold_iters {
        uni.engine.plan_cache().clear();
        uni.engine.cache().clear();
        let t = Instant::now();
        std::hint::black_box(uni.engine.execute(&session, sql).expect("valid query"));
        cold.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let cold_us = percentile(&mut cold, 0.5);

    // --- Warm: plan cache + validity cache both hit.
    uni.engine.plan_cache().clear();
    uni.engine.cache().clear();
    uni.engine.execute(&session, sql).expect("warmup");
    let warm_iters = 201;
    let mut warm = Vec::with_capacity(warm_iters);
    for _ in 0..warm_iters {
        let t = Instant::now();
        std::hint::black_box(uni.engine.execute(&session, sql).expect("valid query"));
        warm.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let warm_us = percentile(&mut warm, 0.5);
    let warm_over_cold = cold_us / warm_us.max(1e-9);

    // --- Warm throughput over a fixed window.
    let tp_iters = 2_000u64;
    let t = Instant::now();
    for _ in 0..tp_iters {
        std::hint::black_box(uni.engine.execute(&session, sql).expect("valid query"));
    }
    let warm_qps = tp_iters as f64 / t.elapsed().as_secs_f64();

    let plan = uni.engine.plan_cache().snapshot();
    let validity = uni.engine.cache().snapshot();

    // --- Executor copy cost: full scan vs selective lookup. The admin
    // bypasses validity checking, so this measures the executor alone.
    let table_rows = uni
        .engine
        .database()
        .table(&"grades".into())
        .expect("grades exists")
        .rows()
        .len() as u64;
    fgac_exec::reset_rows_cloned();
    let full = fgac_exec::run_query_sql(
        uni.engine.database(),
        "select * from grades",
        session.params(),
    )
    .expect("full scan runs");
    let rows_cloned_full = fgac_exec::rows_cloned();
    fgac_exec::reset_rows_cloned();
    let selective = fgac_exec::run_query_sql(
        uni.engine.database(),
        &format!("select grade from grades where student_id = '{student}'"),
        session.params(),
    )
    .expect("selective query runs");
    let rows_cloned_selective = fgac_exec::rows_cloned();

    // --- Gates.
    let speedup_ok = warm_over_cold >= MIN_WARM_OVER_COLD;
    let baseline_qps = cli.baseline.as_ref().map(|b| b.number("warm_qps"));
    let qps_ok = baseline_qps.is_none_or(|b| warm_qps >= QPS_TOLERANCE * b);
    let pass = speedup_ok && qps_ok;

    let cache_stats = |hits: u64, misses: u64, entries: usize| {
        Json::obj([
            ("hits", Json::u64(hits)),
            ("misses", Json::u64(misses)),
            ("entries", Json::usize(entries)),
        ])
    };
    emit_report(
        &cli.out,
        &Json::obj([
            ("schema", Json::str("fgac-hotpath-v1")),
            ("students", Json::usize(students)),
            ("table_rows", Json::u64(table_rows)),
            ("cold_check_us", num(cold_us, 1)),
            ("warm_check_us", num(warm_us, 1)),
            ("warm_over_cold", num(warm_over_cold, 1)),
            ("warm_qps", num(warm_qps, 0)),
            ("plan_cache", cache_stats(plan.hits, plan.misses, plan.entries)),
            (
                "validity_cache",
                cache_stats(validity.hits, validity.misses, validity.entries),
            ),
            ("rows_cloned_full_scan", Json::u64(rows_cloned_full)),
            ("rows_cloned_selective", Json::u64(rows_cloned_selective)),
            ("selective_result_rows", Json::usize(selective.rows.len())),
            (
                "gates",
                Json::obj([
                    ("min_warm_over_cold", num(MIN_WARM_OVER_COLD, 1)),
                    ("qps_tolerance", num(QPS_TOLERANCE, 2)),
                    (
                        "baseline_warm_qps",
                        baseline_qps.map_or(Json::Null, |b| num(b, 0)),
                    ),
                    ("pass", Json::Bool(pass)),
                ]),
            ),
        ]),
    );
    assert_eq!(full.rows.len() as u64, table_rows, "full scan sees every row");
    eprintln!(
        "cold {cold_us:.1}µs -> warm {warm_us:.1}µs ({warm_over_cold:.1}x), \
         {warm_qps:.0} q/s warm; cloned {rows_cloned_selective}/{table_rows} rows selective"
    );

    if !speedup_ok {
        eprintln!(
            "GATE FAIL: warm-over-cold {warm_over_cold:.1}x < required {MIN_WARM_OVER_COLD:.1}x"
        );
    }
    if !qps_ok {
        eprintln!(
            "GATE FAIL: warm throughput {warm_qps:.0} q/s under {:.0}% of baseline {:.0} q/s",
            QPS_TOLERANCE * 100.0,
            baseline_qps.unwrap_or(0.0)
        );
    }
    if !pass {
        std::process::exit(1);
    }
}
