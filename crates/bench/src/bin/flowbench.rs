//! Flow-analysis benchmark: whole-policy `ANALYZE FLOW` vs policy size,
//! and the incremental advantage after a single grant.
//!
//! The disclosure-lattice pass exists to be the grant-time gate, so it
//! must stay cheap on policy sets the compiled fast path already
//! handles: 10 to 50,000 granted views across 16 relations and 16
//! principals. This bench measures, per size N:
//!
//! * `full` — a cold whole-set `Engine::analyze_flow(None)`: every view
//!   summarized, every principal's lattice derived;
//! * `incremental` — the same call after one additional `GRANT VIEW`:
//!   the [`PolicyDelta::affects`] sweep keeps the other principals'
//!   cached findings and the view-summary memo, so only the grantee
//!   recomputes.
//!
//! Views are full-projection (`select *`), so every lattice is clean —
//! the bench isolates pure lattice cost, not finding construction.
//!
//! ```text
//! flowbench [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Emits `BENCH_flow.json`. With `--check`, exits non-zero when the
//! incremental/full ratio at the largest size exceeds the baseline's
//! `max_incremental_ratio` (the ≤ 0.10x gate) or the largest full
//! analysis exceeds `max_full_ms`.

use fgac_bench::{emit_report, num, Cli};
use fgac_core::Engine;
use fgac_types::Json;
use std::time::Instant;

/// Granted-view counts swept, smallest to largest.
const SIZES: [usize; 5] = [10, 100, 1_000, 10_000, 50_000];
/// Base relations, covered round-robin by the granted views.
const RELATIONS: usize = 16;
/// Principals the grants are spread over.
const PRINCIPALS: usize = 16;

/// Engine with `total` full-projection views granted round-robin to
/// [`PRINCIPALS`] principals, plus one pre-created ungranted view the
/// incremental phase grants.
fn build(total: usize) -> Engine {
    let mut ddl = String::new();
    for r in 0..RELATIONS {
        ddl.push_str(&format!(
            "create table rel_{r} (id varchar not null, a int, b varchar, \
             primary key (id));\n"
        ));
    }
    for i in 0..total {
        ddl.push_str(&format!(
            "create authorization view v_{i} as select * from rel_{};\n",
            i % RELATIONS
        ));
    }
    ddl.push_str("create authorization view v_extra as select * from rel_0;\n");
    let mut e = Engine::new();
    e.admin_script(&ddl).expect("schema + views");
    for i in 0..total {
        e.grant_view(&format!("u{}", i % PRINCIPALS), &format!("v_{i}"))
            .expect("grant");
    }
    e
}

fn main() {
    let (cli, []) = Cli::parse("BENCH_flow.json", []);
    let mut rows: Vec<(usize, f64, f64, f64)> = Vec::new();

    for n in SIZES {
        let mut e = build(n);
        let t = Instant::now();
        let diags = e.analyze_flow(None);
        let full_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            diags.is_empty(),
            "flowbench policy must be flow-clean, got {diags:?}"
        );

        // One grant to one principal: the sweep must keep the other
        // principals' entries and the summary memo.
        e.grant_view("u0", "v_extra").expect("incremental grant");
        let t = Instant::now();
        let diags = e.analyze_flow(None);
        let incr_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            diags.is_empty(),
            "incremental re-analysis must stay clean, got {diags:?}"
        );
        let ratio = incr_ms / full_ms.max(1e-9);
        eprintln!("n={n}: full {full_ms:.2}ms, incremental {incr_ms:.2}ms ({ratio:.3}x)");
        rows.push((n, full_ms, incr_ms, ratio));
    }

    let (_, full_large, _, ratio_large) = rows[rows.len() - 1];

    // --- Gates.
    let max_ratio = cli.gate("max_incremental_ratio", f64::INFINITY);
    let max_full_ms = cli.gate("max_full_ms", f64::INFINITY);
    let ratio_ok = ratio_large <= max_ratio;
    let full_ok = full_large <= max_full_ms;
    let pass = ratio_ok && full_ok;

    let mut report = vec![
        ("schema".to_string(), Json::str("fgac-flow-v1")),
        ("relations".to_string(), Json::usize(RELATIONS)),
        ("principals".to_string(), Json::usize(PRINCIPALS)),
    ];
    for (n, full, incr, ratio) in &rows {
        report.push((format!("full_ms_{n}"), num(*full, 2)));
        report.push((format!("incremental_ms_{n}"), num(*incr, 2)));
        report.push((format!("ratio_{n}"), num(*ratio, 3)));
    }
    report.push((
        "gates".to_string(),
        Json::obj([
            ("max_incremental_ratio", num(max_ratio, 2)),
            ("max_full_ms", num(max_full_ms, 0)),
            ("pass", Json::Bool(pass)),
        ]),
    ));
    emit_report(&cli.out, &Json::Obj(report));

    if !ratio_ok {
        eprintln!(
            "GATE FAIL: incremental re-analysis cost {ratio_large:.3}x of full at \
             {} views (max {max_ratio:.2}x)",
            SIZES[SIZES.len() - 1]
        );
    }
    if !full_ok {
        eprintln!(
            "GATE FAIL: full flow analysis took {full_large:.0}ms at {} views \
             (max {max_full_ms:.0}ms)",
            SIZES[SIZES.len() - 1]
        );
    }
    if !pass {
        std::process::exit(1);
    }
}
