//! `fgacbench`: the end-to-end and per-layer benchmark every later
//! performance claim in this repository is measured with. See README.md
//! in this directory for the workloads, the metrics and how they
//! interact.
//!
//! ```text
//! fgacbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <file>] [--smoke]
//! fgacbench --all [--repeat <n>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--reverse] [--out <file>]
//! fgacbench compare <A.json> <B.json>
//! ```

mod bench;
mod compare;
mod driver;
mod replay;
mod report;
mod setup;
mod spec;
mod stats;
mod stream;
mod trace;

use bench::Opts;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadWarm,
    AdmitCold,
    WriteMix,
    PolicyChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadWarm,
        Workload::AdmitCold,
        Workload::WriteMix,
        Workload::PolicyChurn,
    ];

    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize]
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Default length of the timed phase; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: f64 = 20.0;

pub struct Cli {
    workload: Option<Workload>,
    all: bool,
    pub repeat: usize,
    pub reverse: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("fgacbench: {problem}");
    eprintln!(
        "usage: fgacbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1] [--out <file>] [--smoke]\n\
         \x20      fgacbench --all [--repeat <n>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--reverse] [--out <file>]\n\
         \x20      fgacbench compare <A.json> <B.json>",
        spec::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        repeat: 1,
        reverse: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--all" => cli.all = true,
            "--reverse" => cli.reverse = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.smoke && cli.seconds == DEFAULT_SECONDS {
        cli.seconds = 1.0;
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match compare::compare_cli(&args[1..]) {
            Ok(code) => code,
            Err(e) => usage(&e),
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    if cli.all {
        return compare::run_all(&cli);
    }
    let Some(workload) = cli.workload else {
        return usage("--workload or --all is required");
    };
    let opts = Opts {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let header = report::Header::collect(&opts);
    header.warn_if_loaded();
    let run = bench::run(&opts);
    report::print_table(&opts, &header, &run);
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, report::full_json(&opts, &header, &run).render()) {
            eprintln!("fgacbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    // Last line of stdout: the result object the driver reads.
    println!("{}", report::result_line(&opts, &run).render());
    if run.violation {
        eprintln!(
            "fgacbench: stale accept, lost acknowledged write or incomplete trace; see the notes above"
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_analyze::Json;
    use std::collections::BTreeSet;

    fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
        report::field(j, key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn names(list: &Json) -> BTreeSet<String> {
        let Json::Arr(items) = list else {
            panic!("expected an array")
        };
        items
            .iter()
            .map(|i| match field(i, "name") {
                Json::Str(s) => s.clone(),
                other => panic!("name is {other:?}"),
            })
            .collect()
    }

    /// (name, unit, better, bound) of every entry of one of
    /// `BENCHMARK.json`'s metric lists, in order.
    fn declared(spec: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let text = |j: &Json| match j {
            Json::Str(s) => s.clone(),
            other => panic!("expected a string, found {other:?}"),
        };
        let Json::Arr(items) = field(spec, key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|i| {
                (
                    text(field(i, "name")),
                    text(field(i, "unit")),
                    text(field(i, "better")),
                    report::field(i, "bound").and_then(report::number),
                )
            })
            .collect()
    }

    fn better(higher: bool) -> String {
        if higher { "higher" } else { "lower" }.to_string()
    }

    /// `BENCHMARK.json` declares exactly the workloads, metrics, units,
    /// directions and bounds `spec.rs` holds, in the same order.
    #[test]
    fn benchmark_json_declares_what_the_program_reports() {
        let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let program_workloads: BTreeSet<String> =
            spec::WORKLOADS.iter().map(|s| s.to_string()).collect();
        assert_eq!(names(field(&spec, "workloads")), program_workloads);

        let end_to_end: Vec<_> = spec::END_TO_END
            .iter()
            .map(|&(n, u, higher, bound)| {
                (n.to_string(), u.to_string(), better(higher), Some(bound))
            })
            .collect();
        assert_eq!(declared(&spec, "end_to_end"), end_to_end);
        let client = spec::CLIENT.iter().map(|m| (m.0, m.1, m.2));
        let per_layer: Vec<_> = client
            .chain(spec::LAYERS.iter().copied())
            .map(|(n, u, higher)| (n.to_string(), u.to_string(), better(higher), None))
            .collect();
        assert_eq!(declared(&spec, "per_layer"), per_layer);
        for name in spec::EXACT {
            assert!(spec::LAYERS.iter().any(|m| m.0 == *name), "{name}");
        }
        for (_, metric) in bench::LADDER {
            assert!(spec::LAYERS.iter().any(|m| m.0 == metric), "{metric}");
        }
    }

    /// The smoke run of every workload, traced and untraced: the names
    /// the program emits are exactly the declared ones, and nothing
    /// fails.
    #[test]
    fn smoke_run_emits_exactly_the_declared_metrics_and_nothing_fails() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let opts = Opts {
                    workload: w,
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let run = bench::run(&opts);
                let line = report::result_line(&opts, &run);
                let Json::Obj(metrics) = field(&line, "metrics") else {
                    panic!("metrics object")
                };
                let emitted: Vec<(&str, &Json)> = metrics
                    .iter()
                    .map(|(k, m)| (k.as_str(), field(m, "unit")))
                    .collect();
                let unit = |u: &str| Json::Str(u.to_string());
                let expected: Vec<(&str, Json)> = if trace {
                    spec::per_layer().map(|(n, u)| (n, unit(u))).collect()
                } else {
                    spec::END_TO_END.iter().map(|m| (m.0, unit(m.1))).collect()
                };
                assert_eq!(emitted.len(), expected.len(), "{} trace={trace}", w.name());
                for ((name, u), (want_name, want_u)) in emitted.iter().zip(&expected) {
                    assert_eq!((name, *u), (want_name, want_u));
                }
                assert!(run.correct, "{} trace={trace}: {:?}", w.name(), run.notes);
                assert!(!run.violation);
                assert_eq!(run.failed, 0);
                assert_eq!(run.metrics["fail_ratio"], 0.0);
                for m in spec::END_TO_END {
                    assert!(run.metrics[m.0] > 0.0, "{} is 0 on {}", m.0, w.name());
                }
                // Every client-visible metric of the workload was measured.
                for m in spec::CLIENT.iter().filter(|m| m.4.contains(&w)) {
                    assert!(run.metrics.contains_key(m.0), "{} on {}", m.0, w.name());
                }
            }
        }
    }

    #[test]
    fn cli_parses_the_driver_invocation() {
        let args: Vec<String> = "--workload admit_cold --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload, Some(Workload::AdmitCold));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10.0, true));
        assert!(parse_cli(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_cli(&["--workload".into(), "nope".into()]).is_err());
    }
}
