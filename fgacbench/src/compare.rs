//! Repeated runs and their comparison: the tool behind "two sets of
//! runs agree within the benchmark's own bounds".

use crate::report::{field, number};
use crate::stats::{summarize, Summary};
use crate::{spec, Cli, Workload};
use fgac_analyze::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// workload -> metric -> values over the repeats.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Adds one run report's metrics to `into`. Returns whether the run
/// checked out: every answer right, nothing failed.
fn collect(run: &Json, into: &mut Samples) -> Result<bool, String> {
    let Some(Json::Str(workload)) = field(run, "workload") else {
        return Err("run report has no workload".into());
    };
    for section in ["end_to_end", "client", "layers"] {
        let Some(Json::Obj(metrics)) = field(run, section) else {
            continue;
        };
        for (name, m) in metrics {
            let value = field(m, "value")
                .and_then(number)
                .ok_or_else(|| format!("{name} has no value"))?;
            into.entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    let correct = field(run, "correct") == Some(&Json::Bool(true));
    let failed = field(run, "failed").and_then(number);
    Ok(correct && failed == Some(0.0))
}

fn summary_json(samples: &Samples) -> Json {
    let obj = Json::Obj;
    obj(samples
        .iter()
        .map(|(w, metrics)| {
            let rows = metrics
                .iter()
                .map(|(name, values)| {
                    let s = summarize(values);
                    let row = obj(vec![
                        ("n".into(), Json::Int(s.n as i64)),
                        ("median".into(), Json::Double(s.median)),
                        ("q1".into(), Json::Double(s.q1)),
                        ("q3".into(), Json::Double(s.q3)),
                        ("spread".into(), Json::Double(s.spread)),
                        (
                            "unit".into(),
                            Json::Str(spec::unit_of(name).unwrap_or("").into()),
                        ),
                    ]);
                    (name.clone(), row)
                })
                .collect();
            (w.clone(), obj(rows))
        })
        .collect())
}

/// `--all --repeat N`: every workload N times, each run its own
/// process (peak memory and process-wide counters start from zero),
/// seeds `seed .. seed + N`. Prints per-metric median, quartiles and
/// spread. Exit code 1 when any run failed a check.
pub fn run_all(o: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut order = Workload::ALL.to_vec();
    if o.reverse {
        order.reverse();
    }
    let tmp = crate::setup::scratch_dir().join(format!("all-{}.json", std::process::id()));
    let mut runs = Vec::new();
    let mut samples = Samples::new();
    let mut incorrect = 0i64;
    for rep in 0..o.repeat {
        for w in &order {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &(o.seed + rep as u64).to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&tmp)
                .stdout(std::process::Stdio::null());
            if o.smoke {
                cmd.arg("--smoke");
            }
            eprintln!("fgacbench: run {}/{} of {}", rep + 1, o.repeat, w.name());
            let _ = std::fs::remove_file(&tmp);
            let status = cmd.status().expect("spawn a run");
            let run = std::fs::read_to_string(&tmp)
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
                .and_then(|j| collect(&j, &mut samples).map(|ok| (j, ok)));
            match run {
                Ok((j, ok)) => {
                    if !(ok && status.success()) {
                        eprintln!(
                            "fgacbench: run {}/{} of {} failed a check ({status})",
                            rep + 1,
                            o.repeat,
                            w.name()
                        );
                        incorrect += 1;
                    }
                    runs.push(j);
                }
                Err(e) => {
                    eprintln!(
                        "fgacbench: run of {} left no report ({status}): {e}",
                        w.name()
                    );
                    return ExitCode::from(1);
                }
            }
        }
    }
    let _ = std::fs::remove_file(&tmp);
    println!(
        "{:<14} {:<42} {:>14} {:>14} {:>14} {:>8}  n",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    for (w, metrics) in &samples {
        for (name, values) in metrics {
            let Summary {
                n,
                median,
                q1,
                q3,
                spread,
            } = summarize(values);
            println!("{w:<14} {name:<42} {median:>14.3} {q1:>14.3} {q3:>14.3} {spread:>8.4}  {n}");
        }
    }
    if let Some(path) = &o.out {
        let doc = Json::Obj(vec![
            ("incorrect_runs".into(), Json::Int(incorrect)),
            ("summary".into(), summary_json(&samples)),
            ("runs".into(), Json::Arr(runs)),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("fgacbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if incorrect > 0 {
        eprintln!("fgacbench: {incorrect} run(s) failed a check");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs scatter more than the bound: no claim either way.
    Unresolved,
}

/// Judges one gated metric. `worse` is how much worse B's median is
/// than A's as a share of A's (negative when B is better, infinite when
/// A's is 0 and B's is not). A bound of 0 is for a ratio that must stay
/// 0 and for exact counts, whose repeats differ by seed and not by
/// noise, so their scatter is not held against them.
pub fn judge(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let change = if b.median == a.median {
        0.0
    } else if a.median == 0.0 {
        f64::INFINITY.copysign(b.median)
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse = if higher_is_better { -change } else { change };
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if bound > 0.0 && a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// One side of a comparison: workload -> metric -> summary, and how many
/// of its runs failed a check.
struct Side {
    summary: BTreeMap<String, BTreeMap<String, Summary>>,
    incorrect_runs: f64,
}

fn read_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let (Some(Json::Obj(workloads)), Some(incorrect_runs)) = (
        field(&doc, "summary"),
        field(&doc, "incorrect_runs").and_then(number),
    ) else {
        return Err(format!("{path}: not an `--all --out` file"));
    };
    let mut summary = BTreeMap::new();
    for (w, metrics) in workloads {
        let Json::Obj(metrics) = metrics else {
            continue;
        };
        for (name, row) in metrics {
            let get = |k: &str| {
                field(row, k)
                    .and_then(number)
                    .ok_or_else(|| format!("{path}: {w}.{name}.{k}"))
            };
            let s = Summary {
                n: get("n")? as usize,
                median: get("median")?,
                q1: get("q1")?,
                q3: get("q3")?,
                spread: get("spread")?,
            };
            summary
                .entry(w.clone())
                .or_insert_with(BTreeMap::new)
                .insert(name.clone(), s);
        }
    }
    Ok(Side {
        summary,
        incorrect_runs,
    })
}

/// `compare A.json B.json`: holds B to A on two `--all --out` files.
/// Every end-to-end metric, and every other client-visible metric on the
/// workloads it exists on, may get worse by its bound; `fail_ratio` and
/// the replay's exact counts by nothing. The remaining per-layer
/// metrics have no bound and are printed side by side. Exit code 1 when
/// anything regressed or a run on either side failed a check.
pub fn compare_cli(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes exactly two files".into());
    };
    let (a, b) = (read_side(a_path)?, read_side(b_path)?);
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<42} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for (w, metrics) in &a.summary {
        for (name, sa) in metrics {
            let Some(sb) = b.summary.get(w).and_then(|m| m.get(name)) else {
                continue;
            };
            let Some(gate) = spec::gate(name, w) else {
                continue;
            };
            let spread = sa.spread.max(sb.spread);
            match gate.bound {
                Some(bound) => {
                    let (worse, verdict) = judge(sa, sb, gate.higher_is_better, bound);
                    regressed += usize::from(verdict == Verdict::Regressed);
                    unresolved += usize::from(verdict == Verdict::Unresolved);
                    let verdict = format!("{verdict:?}").to_lowercase();
                    println!(
                        "{w:<14} {name:<42} {:>14.3} {:>14.3} {:>+9.4} {spread:>8.4} {bound:>7.2}  {verdict}",
                        sa.median, sb.median, worse
                    );
                }
                None => println!(
                    "{w:<14} {name:<42} {:>14.3} {:>14.3} {:>9} {spread:>8.4} {:>7}  -",
                    sa.median, sb.median, "", ""
                ),
            }
        }
    }
    println!(
        "# regressed {regressed}, unresolved {unresolved}, runs that failed a check: A {} B {}",
        a.incorrect_runs, b.incorrect_runs
    );
    Ok(
        if regressed > 0 || a.incorrect_runs > 0.0 || b.incorrect_runs > 0.0 {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, spread: f64) -> Summary {
        Summary {
            n: 5,
            median,
            q1: median,
            q3: median,
            spread,
        }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        // Lower is better: +5 % is inside a 10 % bound, +12 % is not.
        assert_eq!(
            judge(&summary(100.0, 0.01), &summary(105.0, 0.01), false, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&summary(100.0, 0.01), &summary(112.0, 0.01), false, 0.10).1,
            Verdict::Regressed
        );
        // Higher is better: a 12 % drop regresses, a 12 % rise does not.
        assert_eq!(
            judge(&summary(100.0, 0.01), &summary(88.0, 0.01), true, 0.10).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&summary(100.0, 0.01), &summary(112.0, 0.01), true, 0.10).1,
            Verdict::Ok
        );
        // Scatter wider than the bound: neither ok nor unchanged.
        assert_eq!(
            judge(&summary(100.0, 0.15), &summary(101.0, 0.02), false, 0.10).1,
            Verdict::Unresolved
        );
        let (worse, _) = judge(&summary(200.0, 0.0), &summary(150.0, 0.0), true, 0.10);
        assert!((worse - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_bound_of_zero_lets_nothing_get_worse() {
        // fail_ratio: 0 -> anything is a regression, 0 -> 0 is not.
        let (worse, verdict) = judge(&summary(0.0, 0.0), &summary(0.001, 0.0), false, 0.0);
        assert_eq!((worse, verdict), (f64::INFINITY, Verdict::Regressed));
        assert_eq!(
            judge(&summary(0.0, 0.0), &summary(0.0, 0.0), false, 0.0).1,
            Verdict::Ok
        );
        // An exact count: one more is worse, one fewer is not, and the
        // scatter over seeds does not make it unresolved.
        assert_eq!(
            judge(&summary(18.0, 0.1), &summary(19.0, 0.1), false, 0.0).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&summary(18.0, 0.1), &summary(17.0, 0.1), false, 0.0).1,
            Verdict::Ok
        );
        // A hit ratio that must not drop.
        assert_eq!(
            judge(&summary(1.0, 0.0), &summary(0.99, 0.0), true, 0.0).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn gates_follow_the_workloads_a_metric_exists_on() {
        use crate::spec::gate;
        assert_eq!(gate("req_p50_us", "write_mix").unwrap().bound, Some(0.25));
        assert_eq!(gate("write_p50_us", "write_mix").unwrap().bound, Some(0.25));
        assert_eq!(gate("write_p50_us", "read_warm").unwrap().bound, None);
        assert_eq!(gate("fail_ratio", "policy_churn").unwrap().bound, Some(0.0));
        assert_eq!(
            gate("optimizer.dag_op_nodes", "admit_cold").unwrap().bound,
            Some(0.0)
        );
        assert_eq!(gate("sql.parse_us", "admit_cold").unwrap().bound, None);
        assert!(gate("no_such_metric", "read_warm").is_none());
    }
}
