//! # fgac-bench
//!
//! Shared scenario setup and measurement helpers for the experiment
//! harness. The experiments themselves live in:
//!
//! * `src/bin/report.rs` — regenerates every experiment table (E1–E8;
//!   see DESIGN.md §4 and EXPERIMENTS.md);
//! * the four policy-scale gate bins (`certbench`, `policybench`,
//!   `churnbench`, `flowbench`), which share one scaffold defined here:
//!   [`Cli`] (the `--out` / `--check` / `--<count> N` command line),
//!   [`Baseline`] (a checked-in thresholds file read through the
//!   workspace JSON codec, keys looked up as top-level fields),
//!   [`percentile`], and [`emit_report`] / [`num`] (the `BENCH_*.json`
//!   report as a [`Json`] value).
//!
//! The request path end to end is measured by `fgacbench/`, not here.

use fgac_core::{CheckOptions, Session, Validator, Verdict};
use fgac_types::Json;
use fgac_workload::university::{build, University, UniversityConfig};
use std::time::{Duration, Instant};

/// The command line of a gate bin: `--out PATH`, `--check
/// BASELINE.json`, and the bin's own declared `--flag N` counts. An
/// undeclared flag, a missing value or a malformed count panics — that
/// is the bins' usage error.
pub struct Cli {
    /// Where the report goes.
    pub out: String,
    /// The `--check` baseline, when gating against a checked-in file.
    pub baseline: Option<Baseline>,
}

impl Cli {
    /// Parses the process arguments against the declared count flags
    /// (name and default); returns the counts in declared order.
    pub fn parse<const N: usize>(
        default_out: &str,
        counts: [(&str, usize); N],
    ) -> (Cli, [usize; N]) {
        Cli::parse_from(std::env::args().skip(1), default_out, counts)
    }

    pub fn parse_from<const N: usize>(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
        counts: [(&str, usize); N],
    ) -> (Cli, [usize; N]) {
        let mut cli = Cli {
            out: default_out.to_string(),
            baseline: None,
        };
        let mut values = counts.map(|(_, default)| default);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .unwrap_or_else(|| panic!("{flag} requires a value"));
            if let Some(i) = counts.iter().position(|(name, _)| *name == flag) {
                values[i] = value
                    .parse()
                    .unwrap_or_else(|_| panic!("{flag}: usize, got {value:?}"));
            } else {
                match flag.as_str() {
                    "--out" => cli.out = value,
                    "--check" => cli.baseline = Some(Baseline::load(&value)),
                    other => panic!("unknown argument {other}"),
                }
            }
        }
        (cli, values)
    }

    /// A gate threshold: the baseline's `key` under `--check`,
    /// `default` without.
    pub fn gate(&self, key: &str, default: f64) -> f64 {
        self.baseline.as_ref().map_or(default, |b| b.number(key))
    }
}

/// A checked-in thresholds file (`crates/bench/baselines/*.json`).
pub struct Baseline {
    path: String,
    doc: Json,
}

impl Baseline {
    /// Reads and parses `path`; an unreadable or malformed file aborts
    /// the bin with the path named.
    pub fn load(path: &str) -> Baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Baseline::from_text(path, &text)
    }

    fn from_text(path: &str, text: &str) -> Baseline {
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("baseline {path}: {e}"));
        Baseline {
            path: path.to_string(),
            doc,
        }
    }

    /// The number under the top-level field `key`. A gate must not run
    /// against a threshold that is not there, so a missing or
    /// non-numeric field aborts the bin with file and key named.
    pub fn number(&self, key: &str) -> f64 {
        let path = &self.path;
        self.doc
            .field(key)
            .unwrap_or_else(|| panic!("baseline {path} lacks {key}"))
            .as_f64(key)
            .unwrap_or_else(|e| panic!("baseline {path}: {e}"))
    }
}

/// The `q`-quantile (`0 < q <= 1`) of `samples` by nearest rank; sorts
/// in place. `percentile(s, 0.5)` is the median, `0.99` the p99.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = (samples.len() as f64 * q).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// A report number rounded to `decimals` places; `null` when not finite
/// (a gate that `--check` did not set).
pub fn num(x: f64, decimals: i32) -> Json {
    if !x.is_finite() {
        return Json::Null;
    }
    let scale = 10f64.powi(decimals);
    Json::Double((x * scale).round() / scale)
}

/// Writes the report to `out` and echoes it on stdout.
pub fn emit_report(out: &str, report: &Json) {
    let text = report.render();
    std::fs::write(out, format!("{text}\n")).expect("write report");
    println!("{text}");
}

/// Median wall time of `iters` runs of `f`.
pub fn median_time<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    median_time_with_setup(iters, || (), |()| f())
}

/// Median wall time of `iters` runs of `f`, each on a fresh `setup()`
/// whose own time is not counted.
pub fn median_time_with_setup<S, T>(
    iters: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> Duration {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let input = setup();
        let t = Instant::now();
        std::hint::black_box(f(input));
        samples.push(t.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// Builds the standard university of the given size.
pub fn university(students: usize) -> University {
    build(UniversityConfig::default().with_students(students)).expect("workload builds")
}

/// A (student, registered-course, unregistered-course) triple from the
/// generated data — the inputs the query mix needs.
pub fn pick_triple(uni: &University) -> (String, String, String) {
    let student = uni.student(0);
    let reg = uni
        .registrations
        .iter()
        .find(|(s, _)| s == &student)
        .map(|(_, c)| c.clone())
        .expect("student registers");
    let unreg = (0..uni.config.courses)
        .map(|i| uni.course(i))
        .find(|c| !uni.is_registered(&student, c))
        .expect("unregistered course exists");
    (student, reg, unreg)
}

/// Runs one validity check with the given options; returns the verdict.
pub fn check_with(uni: &University, options: CheckOptions, user: &str, sql: &str) -> Verdict {
    Validator::new(uni.engine.database(), uni.engine.grants())
        .with_options(options)
        .check_sql(&Session::new(user), sql)
        .expect("check runs")
        .verdict
}

/// Formats a duration in microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Formats a duration in milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Prints a row of a fixed-width table.
pub fn row(cells: &[&str], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work_end_to_end() {
        let uni = university(20);
        let (s, reg, unreg) = pick_triple(&uni);
        assert_ne!(reg, unreg);
        let v = check_with(
            &uni,
            CheckOptions::default(),
            &s,
            &format!("select * from grades where student_id = '{s}'"),
        );
        assert_eq!(v, Verdict::Unconditional);
        let d = median_time(3, || 1 + 1);
        assert!(d < std::time::Duration::from_secs(1));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_reads_declared_flags_and_keeps_defaults() {
        let declared = [("--students", 100), ("--iters", 7)];
        let (cli, [students, iters]) = Cli::parse_from(
            args(&["--iters", "9", "--out", "x.json"]),
            "BENCH.json",
            declared,
        );
        assert_eq!((students, iters), (100, 9));
        assert_eq!(cli.out, "x.json");
        assert!(cli.baseline.is_none());
        assert_eq!(
            cli.gate("anything", 2.5),
            2.5,
            "no --check: the default gates"
        );
        let (cli, counts) = Cli::parse_from(args(&[]), "BENCH.json", declared);
        assert_eq!((cli.out.as_str(), counts), ("BENCH.json", [100, 7]));
    }

    #[test]
    #[should_panic(expected = "unknown argument --ops")]
    fn cli_rejects_undeclared_flags() {
        Cli::parse_from(args(&["--ops", "3"]), "BENCH.json", [("--students", 100)]);
    }

    #[test]
    #[should_panic(expected = "--students requires a value")]
    fn cli_rejects_a_flag_without_value() {
        Cli::parse_from(args(&["--students"]), "BENCH.json", [("--students", 100)]);
    }

    #[test]
    #[should_panic(expected = "--students: usize")]
    fn cli_rejects_a_malformed_count() {
        Cli::parse_from(
            args(&["--students", "many"]),
            "BENCH.json",
            [("--students", 100)],
        );
    }

    /// The retired `json_number` scraper matched the first textual
    /// `"key":` anywhere in the file — here, inside the comment string —
    /// and gated against 99.
    #[test]
    fn baseline_keys_are_top_level_fields_not_substrings() {
        let b = Baseline::from_text(
            "b.json",
            r#"{"comment": "set \"warm_qps\": 99 to loosen; nested \"min_qps\": 1",
                "nested": {"max_p99_ms": 7},
                "warm_qps": 12000, "max_overhead_ratio": 1.10, "max_full_ms": 1e4}"#,
        );
        assert_eq!(b.number("warm_qps"), 12000.0);
        assert_eq!(b.number("max_overhead_ratio"), 1.10);
        assert_eq!(b.number("max_full_ms"), 10000.0);
    }

    #[test]
    #[should_panic(expected = "baseline b.json lacks min_qps")]
    fn baseline_without_the_key_aborts_naming_file_and_key() {
        // `min_qps` occurs in the comment and one level down, not as a
        // top-level field.
        Baseline::from_text(
            "b.json",
            r#"{"comment": "\"min_qps\": 1", "nested": {"min_qps": 2}}"#,
        )
        .number("min_qps");
    }

    #[test]
    #[should_panic(expected = "baseline b.json: parse error: JSON: min_qps: expected number")]
    fn baseline_with_a_non_number_aborts_naming_file_and_key() {
        Baseline::from_text("b.json", r#"{"min_qps": "2000"}"#).number("min_qps");
    }

    #[test]
    #[should_panic(expected = "baseline b.json: parse error: JSON:")]
    fn malformed_baseline_aborts_naming_the_file() {
        Baseline::from_text("b.json", "{\"min_qps\": 2000,}");
    }

    #[test]
    fn checked_in_baselines_load() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
        for (file, key) in [
            ("certify.json", "max_overhead_ratio"),
            ("churn.json", "min_revalidation_rate"),
            ("flow.json", "max_incremental_ratio"),
            ("flow.json", "max_full_ms"),
            ("policy.json", "max_p99_growth"),
            ("policy.json", "min_hit_rate"),
        ] {
            assert!(
                Baseline::load(&format!("{dir}/{file}")).number(key) > 0.0,
                "{file} {key}"
            );
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut odd: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(
            percentile(&mut odd, 0.5),
            11.0,
            "median of an odd count is the middle"
        );
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut hundred, 0.99), 99.0);
        assert_eq!(percentile(&mut hundred, 1.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn report_numbers_round_and_null_out() {
        assert_eq!(num(1234.5678, 1).render(), "1234.6");
        assert_eq!(num(1234.5678, 0).render(), "1235.0");
        assert_eq!(num(0.04567, 3).render(), "0.046");
        assert_eq!(num(f64::INFINITY, 2), Json::Null);
    }
}
