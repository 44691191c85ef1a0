//! Certificate-emission overhead benchmark: cold admission with
//! certificate emission on vs off.
//!
//! Emits `BENCH_certify.json` and optionally gates against a checked-in
//! baseline:
//!
//! ```text
//! certbench [--students N] [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Emission threads a [`fgac_core::CheckOptions::emit_certificates`]
//! flag through the validator; this harness measures the median cold
//! admission time for a representative query mix under both settings
//! and reports the ratio. With `--check`, the process exits non-zero
//! when the ratio exceeds the baseline's `max_overhead_ratio` — the CI
//! gate that keeps certificate emission within its ≤10% budget.

use fgac_bench::{emit_report, median_time, num, pick_triple, university, Cli};
use fgac_core::{CheckOptions, Session, Validator, Verdict};
use fgac_types::Json;
use std::time::Duration;

/// Overhead allowed when no baseline overrides it.
const DEFAULT_MAX_OVERHEAD: f64 = 1.10;

fn main() {
    let (cli, [students]) = Cli::parse("BENCH_certify.json", [("--students", 100)]);
    let uni = university(students);
    let (student, reg, _unreg) = pick_triple(&uni);
    let session = Session::new(student.clone());

    // A representative valid mix: single-view match, restriction,
    // aggregate, and a join that needs composition.
    let queries: Vec<String> = vec![
        format!("select * from grades where student_id = '{student}'"),
        format!("select course_id, grade from grades where student_id = '{student}' and grade >= 60"),
        format!("select avg(grade) from grades where student_id = '{student}'"),
        format!(
            "select g.grade from grades g join registered r on g.course_id = r.course_id \
             where g.student_id = '{student}' and r.student_id = '{student}' \
             and r.course_id = '{reg}'"
        ),
    ];

    let run_mix = |emit: bool| -> Duration {
        let options = CheckOptions {
            emit_certificates: emit,
            ..CheckOptions::default()
        };
        median_time(101, || {
            for sql in &queries {
                let report = Validator::new(uni.engine.database(), uni.engine.grants())
                    .with_options(options.clone())
                    .check_sql(&session, sql)
                    .expect("check runs");
                assert_ne!(report.verdict, Verdict::Invalid, "bench mix must be valid: {sql}");
                assert_eq!(
                    report.certificate.is_some(),
                    emit,
                    "certificate presence must track emit_certificates"
                );
            }
        })
    };

    // Interleave-resistant ordering: off, on, then off again; take the
    // better `off` so one-sided warmup drift can't manufacture overhead.
    let off_a = run_mix(false);
    let on = run_mix(true);
    let off_b = run_mix(false);
    let off = off_a.min(off_b);

    let off_us = off.as_secs_f64() * 1e6;
    let on_us = on.as_secs_f64() * 1e6;
    let ratio = on_us / off_us.max(1e-9);

    // Sanity: every accepted query's certificate verifies independently.
    let mut total_steps = 0usize;
    for sql in &queries {
        let report = uni
            .engine
            .certify(&session, sql)
            .expect("certify verifies the emitted certificate");
        total_steps += report.certificate.as_ref().map_or(0, |c| c.steps.len());
    }

    let max_overhead = cli.gate("max_overhead_ratio", DEFAULT_MAX_OVERHEAD);
    let pass = ratio <= max_overhead;

    emit_report(
        &cli.out,
        &Json::obj([
            ("schema", Json::str("fgac-certify-v1")),
            ("students", Json::usize(students)),
            ("queries", Json::usize(queries.len())),
            ("emit_off_us", num(off_us, 1)),
            ("emit_on_us", num(on_us, 1)),
            ("overhead_ratio", num(ratio, 3)),
            ("certified_steps", Json::usize(total_steps)),
            (
                "gates",
                Json::obj([
                    ("max_overhead_ratio", num(max_overhead, 2)),
                    ("pass", Json::Bool(pass)),
                ]),
            ),
        ]),
    );
    eprintln!(
        "admission mix: {off_us:.1}µs without emission -> {on_us:.1}µs with \
         ({ratio:.3}x, budget {max_overhead:.2}x)"
    );

    if !pass {
        eprintln!("GATE FAIL: certificate emission overhead {ratio:.3}x exceeds {max_overhead:.2}x");
        std::process::exit(1);
    }
}
