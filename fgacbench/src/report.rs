//! What a run prints and writes: the run header, the metric table, the
//! report file, and the one-line result object.

use crate::bench::{warmup_requests, Opts, Phases, RunReport, LADDER, LADDER_PASSES};
use crate::replay::replay_len;
use crate::spec;
use fgac_analyze::Json;
use std::process::Command;

pub fn field<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Double(d) => Some(*d),
        _ => None,
    }
}

fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What a ledger row needs to be interpretable later.
pub struct Header {
    pub json: Json,
    load_1min: f64,
}

impl Header {
    pub fn collect(opts: &Opts) -> Header {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown".to_string(), |m| m.trim().to_string());
        let load_1min = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|l| l.split(' ').next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        let phases = Phases::of(opts);
        let warmup = warmup_requests(opts.workload);
        let (replay_n, dml_n) = replay_len(opts.workload, opts.smoke);
        let secs = |d: std::time::Duration| Json::Double(d.as_secs_f64());
        let fields = vec![
            ("git_commit", s(command_line("git", &["rev-parse", "HEAD"]))),
            ("rustc", s(command_line("rustc", &["-V"]))),
            ("nproc", Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64))),
            ("cpu_model", s(cpu)),
            ("load_1min_at_start", Json::Double(load_1min)),
            ("workload", s(opts.workload.name())),
            ("seed", Json::Int(opts.seed as i64)),
            ("smoke", Json::Bool(opts.smoke)),
            ("traced", Json::Bool(opts.trace)),
            ("generator_threads", Json::Int(2)),
            ("server_workers", Json::Int(2)),
            ("seconds", Json::Double(opts.seconds)),
            ("rounds", Json::Int(i64::from(phases.rounds))),
            ("warmup_requests_per_connection", Json::Arr(warmup.iter().map(|&n| Json::Int(n as i64)).collect())),
            ("timed_s_per_round", secs(phases.timed)),
            ("open_loop_rung_s", secs(phases.rung)),
            ("open_loop_passes", Json::Int(i64::from(LADDER_PASSES))),
            ("open_loop_rates_per_s", Json::Arr(LADDER.iter().map(|&(r, _)| Json::Int(i64::from(r))).collect())),
            ("replay_requests", Json::Int(replay_n as i64)),
            ("replay_durable_statements", Json::Int(dml_n as i64)),
            (
                "flush_policy",
                s("write_mix: WAL append reaches the OS before the acknowledgement, no fsync per commit, \
                   snapshot every 1024 records (DurabilityOptions::default()); other workloads in memory"),
            ),
        ];
        let json = Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        Header { json, load_1min }
    }

    pub fn warn_if_loaded(&self) {
        if self.load_1min > 0.5 {
            eprintln!(
                "fgacbench: warning: 1-minute load average is {:.2} (> 0.5); timings will be noisy",
                self.load_1min
            );
        }
    }
}

fn metric_obj(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Double(value)),
        ("unit".into(), s(unit)),
    ])
}

/// The metrics of `list`, in declaration order. A per-layer metric the
/// run did not produce is a layer the workload bypasses: 0.
fn metrics_json<'a>(run: &RunReport, list: impl Iterator<Item = (&'a str, &'a str)>) -> Json {
    Json::Obj(
        list.map(|(name, unit)| {
            (
                name.to_string(),
                metric_obj(run.metrics.get(name).copied().unwrap_or(0.0), unit),
            )
        })
        .collect(),
    )
}

fn end_to_end() -> impl Iterator<Item = (&'static str, &'static str)> {
    spec::END_TO_END.iter().map(|m| (m.0, m.1))
}

/// The client-visible metrics that exist on this run's workload.
fn client(opts: &Opts) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
    spec::CLIENT
        .iter()
        .filter(|m| m.4.contains(&opts.workload))
        .map(|m| (m.0, m.1))
}

/// The layer metrics the run measured: all of them when traced (0 for
/// a layer the workload bypasses), else the few the timed phase itself
/// yields (the ladder's rungs, server counters).
fn layers<'a>(
    opts: &Opts,
    run: &'a RunReport,
) -> impl Iterator<Item = (&'static str, &'static str)> + 'a {
    let traced = opts.trace;
    spec::LAYERS
        .iter()
        .filter(move |m| traced || run.metrics.contains_key(m.0))
        .map(|m| (m.0, m.1))
}

/// The last line of stdout: end-to-end metrics with tracing off,
/// per-layer metrics with tracing on.
pub fn result_line(opts: &Opts, run: &RunReport) -> Json {
    let metrics = if opts.trace {
        metrics_json(run, spec::per_layer())
    } else {
        metrics_json(run, end_to_end())
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(run.correct)),
        ("attempted".into(), Json::Int(run.attempted as i64)),
        ("failed".into(), Json::Int(run.failed as i64)),
        ("metrics".into(), metrics),
    ])
}

/// The report file: header, the end-to-end and the workload's other
/// client-visible metrics, the layer metrics the run measured, notes.
pub fn full_json(opts: &Opts, header: &Header, run: &RunReport) -> Json {
    let notes = run
        .notes
        .iter()
        .map(|(k, v)| Json::Arr(vec![s(k.as_str()), s(v.as_str())]))
        .collect();
    Json::Obj(vec![
        ("header".into(), header.json.clone()),
        ("workload".into(), s(opts.workload.name())),
        ("seed".into(), Json::Int(opts.seed as i64)),
        ("correct".into(), Json::Bool(run.correct)),
        ("attempted".into(), Json::Int(run.attempted as i64)),
        ("failed".into(), Json::Int(run.failed as i64)),
        ("end_to_end".into(), metrics_json(run, end_to_end())),
        ("client".into(), metrics_json(run, client(opts))),
        ("layers".into(), metrics_json(run, layers(opts, run))),
        ("notes".into(), Json::Arr(notes)),
    ])
}

/// Every metric by name with its unit, for a person.
pub fn print_table(opts: &Opts, header: &Header, run: &RunReport) {
    println!(
        "# fgacbench {} seed {} trace {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    println!("# {}", header.json.render());
    for (name, unit) in end_to_end().chain(client(opts)).chain(layers(opts, run)) {
        println!(
            "{name:<42} {:>16.3} {unit}",
            run.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    for (k, v) in &run.notes {
        println!("# {k}: {v}");
    }
    println!(
        "# attempted {} failed {} correct {}",
        run.attempted, run.failed, run.correct
    );
}
