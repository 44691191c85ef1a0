//! One benchmark run: set-up, warm-up, the timed phase over TCP from two
//! generator threads, answer checking, and the metrics.

use crate::driver::{self, ConnOutcome, Limit, Paced, PadFlag, Sample, Walk};
use crate::replay;
use crate::setup::{self, Facts, Scale, StudentFacts, PAD_VIEW, ROLE};
use crate::stats::{self, quantile, quantile_or_zero};
use crate::stream::{self, Class, Req};
use crate::Workload;
use fgac_core::{DurabilityOptions, Engine, SharedEngine};
use fgac_server::{Client, Server};
use fgac_types::{Ident, Value};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Open-loop rungs: requests per second over both connections, and the
/// metric that holds the rung's due-time p99. The closed loop completes
/// about 3 300 warm requests a second today, so the rungs stand at a
/// third and two thirds of that, at the knee and above it; the top rung
/// measures the backlog its own length builds, and is there for the gain
/// that moves the knee.
pub const LADDER: [(u32, &str); 4] = [
    (1_000, "server.open_p99_us.r1000"),
    (2_000, "server.open_p99_us.r2000"),
    (3_000, "server.open_p99_us.r3000"),
    (4_000, "server.open_p99_us.r4000"),
];
/// The ladder is climbed this many times and each rung reports the
/// median of its passes: the host stalls the whole machine for tens of
/// milliseconds a few times a minute, and in an open loop one such stall
/// delays every request queued behind it, which is more than 1 % of a
/// rung.
pub const LADDER_PASSES: u32 = 3;
/// The rung `open_p99_us` is read at: a third of today's capacity, so it
/// reports the server's latency and not a backlog.
const ANCHOR_RATE: u32 = 1_000;
/// A rung is sustained when its due-time p99 stays under this with the
/// generator no further behind than `LAG_LIMIT` at its end. Over some
/// fifty runs the 1 000 req/s rung read 1.3-2.9 ms and the 2 000 req/s
/// rung 4.5-15 ms, by the hour; the limit stands between the two so
/// that the host's mood does not move `rate_ok_per_s`.
const P99_LIMIT_US: f64 = 3_500.0;
const LAG_LIMIT: Duration = Duration::from_millis(10);
/// Fresh texts per connection and second of timed slice on `admit_cold`:
/// somewhat under today's pace (600 a second), so that a slice ends when
/// its texts run out. The validity cache keeps an entry per text, so
/// this holds `rss_mb` to the same number of entries on a fast machine
/// and a slow one, and after a change that makes admission faster.
const COLD_TEXTS_PER_S: f64 = 500.0;
/// Policy changes per second on `policy_churn`.
const CHURN_RATE: u32 = 100;
/// An untraced run cuts its closed-loop time into this many slices, one
/// per round.
const ROUNDS: u32 = 8;
/// A traced run makes this many of those rounds: its time goes to the
/// replay.
const TRACED_ROUNDS: u32 = 2;
/// Share of depth B's time that depth C's spans must account for.
const MIN_COVERAGE: f64 = 0.8;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Phase lengths of a run, derived from `--seconds`.
///
/// An untraced run is `rounds` independent rounds, each with its own
/// set-up, server, connections, warm-up and timed slice; every metric is
/// the median over the rounds. How the kernel spreads the six busy
/// threads over two cores differs from one server start to the next and
/// then persists, so one long phase measures one such placement while
/// the median of several rounds does not depend on any single one.
/// `read_warm` spends half of `--seconds` on its rounds and half on the
/// open-loop ladder, which runs once, on the last round's server.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub rounds: u32,
    /// Timed slice of one round.
    pub timed: Duration,
    /// Each open-loop rung; zero except on `read_warm`.
    pub rung: Duration,
}

impl Phases {
    pub fn of(opts: &Opts) -> Phases {
        let total = Duration::from_secs_f64(opts.seconds);
        let (closed, ladder) = if opts.workload == Workload::ReadWarm {
            (total / 2, total / 2)
        } else {
            (total, Duration::ZERO)
        };
        let (rounds, slices) = match (opts.smoke, opts.trace) {
            (true, _) => (1, 1),
            (false, true) => (TRACED_ROUNDS, ROUNDS),
            (false, false) => (ROUNDS, ROUNDS),
        };
        Phases {
            rounds,
            timed: closed / slices,
            rung: ladder / LADDER.len() as u32,
        }
    }
}

/// Requests each connection sends before the timed slice, after the
/// cache fill: enough for the threads, the allocator and the processor's
/// caches to settle. A count and not a time, so that it is work the
/// program does and `setup_s` follows its speed. On `policy_churn` the
/// second number is policy changes (even: the pad view ends granted).
pub fn warmup_requests(w: Workload) -> [usize; 2] {
    match w {
        Workload::ReadWarm => [192, 192],
        Workload::AdmitCold => [300, 300],
        Workload::WriteMix => [10 * stream::WRITE_CYCLE, 128],
        Workload::PolicyChurn => [219, 10],
    }
}

pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// A stale accept, a lost acknowledged write, or a traced run whose
    /// spans miss a layer: the run must not exit 0.
    pub violation: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form facts for the report file: sample counts, tail
    /// percentile, failure notes, stream hash.
    pub notes: Vec<(String, String)>,
}

/// Everything a workload's connections need, built by one set-up.
struct Bed {
    server: Server,
    shared: SharedEngine,
    facts: Facts,
    students: Vec<StudentFacts>,
    clients: Vec<Client>,
    /// Per-connection request streams (the admin connection has none).
    streams: Vec<Vec<Req>>,
    rng: StdRng,
    cold_serial: i64,
    wal_dir: Option<PathBuf>,
}

fn wal_dir(tag: &str) -> PathBuf {
    setup::scratch_dir().join(format!("wal-{tag}-{}", std::process::id()))
}

/// Build, load, grant, start the server, connect, generate the streams
/// and fill the caches with one pass over each working set.
fn set_up(opts: &Opts, scale: Scale) -> Bed {
    let w = opts.workload;
    let dir = (w == Workload::WriteMix).then(|| wal_dir("live"));
    // The stated flush policy: appends reach the OS before the
    // acknowledgement, no fsync per commit, a snapshot every 1024 records.
    let wal = dir.as_deref().map(|d| (d, DurabilityOptions::default()));
    let built = setup::build(scale, opts.seed, wal);
    let shared = SharedEngine::new(built.engine);
    let server = setup::start_server(shared.clone());
    let addr = server.local_addr();
    let (facts, students) = (built.facts, built.students);
    let mut rng = stream::rng_for(opts.seed, 1);
    let warm = |s: &StudentFacts, rng: &mut StdRng| stream::warm_set(&facts, s, rng);
    let streams: Vec<Vec<Req>> = match w {
        Workload::ReadWarm => vec![warm(&students[0], &mut rng), warm(&students[1], &mut rng)],
        Workload::AdmitCold => vec![Vec::new(), Vec::new()],
        // More write cycles than a phase consumes today; the walk wraps
        // if a faster write path ever outruns them.
        Workload::WriteMix => vec![
            stream::write_stream(&facts, &students[0], 4_000),
            warm(&students[1], &mut rng),
        ],
        Workload::PolicyChurn => vec![
            stream::churn_set(&facts, &students[0], &mut rng),
            Vec::new(),
        ],
    };
    let second = if w == Workload::PolicyChurn {
        "admin"
    } else {
        &students[1].id
    };
    let logins = [students[0].id.as_str(), second];
    let mut clients = driver::connect_all(addr, &logins);
    // Cache fill: every repeated text is admitted once before timing.
    for (client, reqs) in clients.iter_mut().zip(&streams) {
        if reqs.first().is_some_and(|r| r.class != Class::Write) {
            for r in reqs {
                client.query(&r.sql).expect("cache fill");
            }
        }
    }
    Bed {
        server,
        shared,
        facts,
        students,
        clients,
        streams,
        rng,
        cold_serial: 0,
        wal_dir: dir,
    }
}

fn tear_down(bed: Bed) {
    drop(bed.clients);
    bed.server.finish().expect("server drains");
    if let Some(d) = bed.wal_dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Generates `n` never-seen texts per connection for `admit_cold`.
fn refill_cold(bed: &mut Bed, n: usize) {
    for c in 0..2 {
        bed.streams[c] = stream::cold_stream(
            &bed.facts,
            &bed.students[c],
            &mut bed.rng,
            &mut bed.cold_serial,
            n,
        );
    }
}

struct PhaseOut {
    conns: Vec<ConnOutcome>,
    admin_lats_ns: Vec<u64>,
    admin_failed: u64,
}

/// One closed-loop phase: both connections start together and each runs
/// until its own limit.
fn closed_phase(bed: &mut Bed, w: Workload, limits: [Limit; 2]) -> PhaseOut {
    let barrier = Barrier::new(2);
    let flag = PadFlag::default();
    let (left, right) = bed.clients.split_at_mut(1);
    let (c0, c1) = (&mut left[0], &mut right[0]);
    let (s0, s1) = (&bed.streams[0], &bed.streams[1]);
    let (walk0, walk1) = match w {
        Workload::ReadWarm => (Walk::Cycle, Walk::Cycle),
        Workload::AdmitCold => (Walk::Once, Walk::Once),
        Workload::WriteMix => (Walk::CycleUnits(stream::WRITE_CYCLE), Walk::Cycle),
        Workload::PolicyChurn => (Walk::Cycle, Walk::Cycle),
    };
    let pad = (w == Workload::PolicyChurn).then_some(&flag);
    std::thread::scope(|scope| {
        let first = scope.spawn(|| {
            barrier.wait();
            driver::closed_loop(c0, s0, walk0, limits[0], pad)
        });
        let second = scope.spawn(|| {
            barrier.wait();
            if w == Workload::PolicyChurn {
                let interval = Duration::from_secs(1) / CHURN_RATE;
                let (lats, failed) =
                    driver::churn_loop(c1, ROLE, PAD_VIEW, interval, limits[1], &flag);
                (None, lats, failed)
            } else {
                (
                    Some(driver::closed_loop(c1, s1, walk1, limits[1], None)),
                    Vec::new(),
                    0,
                )
            }
        });
        let first = first.join().expect("generator thread");
        let (second, admin_lats_ns, admin_failed) = second.join().expect("generator thread");
        PhaseOut {
            conns: std::iter::once(first).chain(second).collect(),
            admin_lats_ns,
            admin_failed,
        }
    })
}

/// One open-loop rung at `rate` requests per second over both
/// connections, their schedules interleaved. Returns every timing and
/// the larger final lag.
fn open_rung(bed: &mut Bed, rate: u32, duration: Duration) -> (Vec<Paced>, u64, u64) {
    let barrier = Barrier::new(2);
    let interval = Duration::from_secs(2) / rate;
    let results: Vec<(Vec<Paced>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .clients
            .iter_mut()
            .zip(&bed.streams)
            .enumerate()
            .map(|(c, (client, reqs))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut failed = 0u64;
                    barrier.wait();
                    let (timings, lag) =
                        driver::open_loop(interval, interval / 2 * c as u32, duration, |i| {
                            let req = &reqs[i % reqs.len()];
                            let ok = client.query(&req.sql).is_ok_and(|r| {
                                driver::check(&r, req.expect, driver::PadState::Granted)
                                    == driver::Check::Ok
                            });
                            failed += u64::from(!ok);
                        });
                    (timings, lag, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let mut all = Vec::new();
    let (mut lag, mut failed) = (0, 0);
    for (timings, l, f) in results {
        all.extend(timings);
        lag = lag.max(l);
        failed += f;
    }
    (all, lag, failed)
}

fn lat_us(samples: &[&Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.lat_ns as f64 / 1e3).collect()
}

fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Recovers `write_mix`'s engine 5 times from a copy of its WAL
/// directory taken before shutdown, and checks the recovered tables
/// against the model of acknowledged writes. Returns (median ms, ok).
fn recover_and_verify(bed: &Bed, last_name: Option<&str>) -> (f64, bool) {
    let live = bed.wal_dir.as_deref().expect("write_mix is durable");
    let copy = wal_dir("copy");
    setup::copy_dir(live, &copy);
    let mut times = Vec::new();
    let mut ok = true;
    for _ in 0..5 {
        let t = Instant::now();
        let (e, _) = Engine::open_with(&copy, DurabilityOptions::default()).expect("recovery");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        ok &= matches_model(&e, &bed.facts, &bed.students[0], last_name);
    }
    let _ = std::fs::remove_dir_all(&copy);
    (stats::median(&mut times), ok)
}

/// Every cycle ended with its delete acknowledged, so `registered` must
/// be exactly as loaded, and the writer's name the last one acknowledged.
fn matches_model(
    e: &Engine,
    facts: &Facts,
    writer: &StudentFacts,
    last_name: Option<&str>,
) -> bool {
    let str_of = |v: &Value| match v {
        Value::Str(s) => s.clone(),
        other => format!("{other:?}"),
    };
    let db = e.database();
    let Some(registered) = db.table(&Ident::new("registered")) else {
        return false;
    };
    let mut got: Vec<(String, String)> = registered
        .rows()
        .iter()
        .map(|r| (str_of(r.get(0)), str_of(r.get(1))))
        .collect();
    let mut want = facts.registered_rows.clone();
    got.sort();
    want.sort();
    let name_ok = last_name.is_none_or(|name| {
        db.table(&Ident::new("students")).is_some_and(|t| {
            t.rows()
                .iter()
                .any(|r| str_of(r.get(0)) == writer.id && str_of(r.get(1)) == name)
        })
    });
    got == want && name_ok
}

/// The name the writer's last acknowledged UPDATE set.
fn last_acked_name(out: &ConnOutcome, reqs: &[Req]) -> Option<String> {
    // Statement `i` of the timed phase is request `i` of the stream;
    // phases stop on whole cycles, so every update before the end was
    // answered. Failed answers are already counted as failures.
    let updates = out.samples.len() / stream::WRITE_CYCLE;
    let sql = &reqs[((updates.checked_sub(1)?) * stream::WRITE_CYCLE + 1) % reqs.len()].sql;
    let start = sql.find("'")? + 1;
    let end = start + sql[start..].find("'")?;
    Some(sql[start..end].to_string())
}

/// What one round measured: its metrics, and what it attempted.
struct Round {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    stale: u64,
    lost_write: bool,
    notes: Vec<(String, String)>,
}

/// One round: set-up, warm-up, timed slice, checks. Returns the bed so
/// that `read_warm` can climb the ladder on the last one.
fn one_round(opts: &Opts, scale: Scale, phases: &Phases) -> (Round, Bed) {
    let w = opts.workload;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes: Vec<(String, String)> = Vec::new();

    let t = Instant::now();
    let mut bed = set_up(opts, scale);
    let warmup = warmup_requests(w);
    if w == Workload::AdmitCold {
        refill_cold(&mut bed, warmup[0]);
    }
    let warm = closed_phase(&mut bed, w, warmup.map(Limit::Requests));
    if w == Workload::AdmitCold {
        refill_cold(
            &mut bed,
            (COLD_TEXTS_PER_S * phases.timed.as_secs_f64()) as usize,
        );
    }
    if w == Workload::WriteMix {
        // The writer goes on where the warm-up stopped: names stay fresh.
        let done = warm.conns[0].samples.len();
        bed.streams[0].drain(..done);
    }
    // Everything before the first timed request.
    m.insert("setup_s", t.elapsed().as_secs_f64());
    let streams: Vec<&[Req]> = bed.streams.iter().map(Vec::as_slice).collect();
    notes.push((
        "stream_hash".into(),
        format!("{:016x}", stream::stream_hash(&streams)),
    ));

    let out = closed_phase(&mut bed, w, [Limit::Time(phases.timed); 2]);
    let entries_end = bed.shared.with_read(|e| e.cache().len());
    let server_counters: BTreeMap<&str, u64> =
        bed.server.metrics().snapshot().into_iter().collect();

    let reader_conns: &[usize] = match w {
        Workload::ReadWarm | Workload::AdmitCold => &[0, 1],
        Workload::WriteMix => &[1],
        Workload::PolicyChurn => &[0],
    };
    let reads: Vec<&Sample> = reader_conns
        .iter()
        .flat_map(|&c| &out.conns[c].samples)
        .collect();
    let read_secs = reader_conns
        .iter()
        .map(|&c| out.conns[c].elapsed.as_secs_f64())
        .fold(0.0, f64::max);
    let mut read_us = lat_us(&reads);
    m.insert("req_p50_us", quantile(&mut read_us, 0.5));
    m.insert("req_p99_us", quantile(&mut read_us, 0.99));
    m.insert("req_per_s", reads.len() as f64 / read_secs);
    let (tail_q, tail_us) = stats::tail(&read_us);
    m.insert("req_tail_us", tail_us);
    notes.push(("req_samples".into(), reads.len().to_string()));
    notes.push(("req_tail_quantile".into(), tail_q.to_string()));

    let attempted = out
        .conns
        .iter()
        .map(|c| c.samples.len() as u64)
        .sum::<u64>()
        + out.admin_lats_ns.len() as u64;
    let failed = out.conns.iter().map(|c| c.failed).sum::<u64>() + out.admin_failed;
    let stale = out.conns.iter().map(|c| c.stale_accepts).sum();
    for c in &out.conns {
        for n in &c.failure_notes {
            notes.push(("failure".into(), n.clone()));
        }
    }
    let mut lost_write = false;

    let class_p50 = |classes: &[Class]| -> f64 {
        let picked: Vec<&Sample> = reads
            .iter()
            .copied()
            .filter(|s| classes.contains(&s.class))
            .collect();
        quantile_or_zero(&mut lat_us(&picked), 0.5)
    };
    match w {
        Workload::ReadWarm => {}
        Workload::AdmitCold => {
            m.insert(
                "accept_p50_us",
                class_p50(&[Class::Accept, Class::Conditional]),
            );
            m.insert("deny_p50_us", class_p50(&[Class::Deny]));
            m.insert("fastpath_p50_us", class_p50(&[Class::FastPath]));
        }
        Workload::WriteMix => {
            let writer = &out.conns[0];
            let of = |class: Class| -> Vec<f64> {
                writer
                    .samples
                    .iter()
                    .filter(|s| s.class == class)
                    .map(|s| s.lat_ns as f64 / 1e3)
                    .collect()
            };
            let (mut ok, mut denied) = (of(Class::Write), of(Class::WriteDenied));
            let mut all: Vec<f64> = ok.iter().chain(&denied).copied().collect();
            m.insert("write_p50_us", quantile_or_zero(&mut all, 0.5));
            m.insert("write_p99_us", quantile_or_zero(&mut all, 0.99));
            m.insert("write_ok_p50_us", quantile_or_zero(&mut ok, 0.5));
            m.insert("write_denied_p50_us", quantile_or_zero(&mut denied, 0.5));
            notes.push(("write_samples".into(), all.len().to_string()));
            let last_name = last_acked_name(writer, &bed.streams[0]);
            let (recovery_ms, recovered_ok) = recover_and_verify(&bed, last_name.as_deref());
            m.insert("recovery_ms", recovery_ms);
            lost_write = !recovered_ok;
        }
        Workload::PolicyChurn => {
            let mut lats: Vec<f64> = out
                .admin_lats_ns
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect();
            m.insert("policy_change_p50_us", quantile_or_zero(&mut lats, 0.5));
            notes.push(("policy_changes".into(), lats.len().to_string()));
            let probes = reads.iter().filter(|s| s.class == Class::Pad).count();
            notes.push(("pad_probes".into(), probes.to_string()));
        }
    }
    m.insert("core.cache.entries_end", entries_end as f64);
    m.insert("server.resp_shed", server_counters["resp_shed"] as f64);
    m.insert(
        "server.resp_timeout",
        server_counters["resp_timeout"] as f64,
    );
    m.insert("storage.table_rows", bed.facts.grades_rows as f64);
    (
        Round {
            metrics: m,
            attempted,
            failed,
            stale,
            lost_write,
            notes,
        },
        bed,
    )
}

/// What the open-loop ladder measured.
struct Ladder {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<(String, String)>,
}

/// Climbs the open-loop ladder on a warm server, `LADDER_PASSES` times;
/// `rung` is the time a rate gets over all passes.
fn climb_ladder(bed: &mut Bed, rung: Duration) -> Ladder {
    let mut out = Ladder {
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    // Per rung, over the passes: due-time p99 (us) and final lag (ns).
    let mut p99s = vec![Vec::new(); LADDER.len()];
    let mut final_lags = vec![Vec::new(); LADDER.len()];
    let mut lag_max_ns = 0u64;
    for _ in 0..LADDER_PASSES {
        for (r, (rate, _)) in LADDER.into_iter().enumerate() {
            let (timings, final_lag, rung_failed) = open_rung(bed, rate, rung / LADDER_PASSES);
            out.attempted += timings.len() as u64;
            out.failed += rung_failed;
            let mut due: Vec<f64> = timings
                .iter()
                .map(|t| t.since_due_ns() as f64 / 1e3)
                .collect();
            p99s[r].push(quantile_or_zero(&mut due, 0.99));
            final_lags[r].push(final_lag as f64);
            lag_max_ns = lag_max_ns.max(timings.iter().map(Paced::lag_ns).max().unwrap_or(0));
        }
    }
    let mut best = 0.0;
    let mut climbing = true;
    for (r, (rate, metric)) in LADDER.into_iter().enumerate() {
        out.notes.push((
            format!("rung_{rate}"),
            format!("p99_us {:.1?} final_lag_ns {:.0?}", p99s[r], final_lags[r]),
        ));
        let p99 = stats::median(&mut p99s[r]);
        let final_lag = stats::median(&mut final_lags[r]);
        out.metrics.insert(metric, p99);
        if rate == ANCHOR_RATE {
            out.metrics.insert("open_p99_us", p99);
        }
        // The highest rate met without a gap below it: a lucky rung above
        // a failed one is not a rate the server sustains.
        climbing &= p99 <= P99_LIMIT_US && final_lag <= LAG_LIMIT.as_nanos() as f64;
        if climbing {
            best = f64::from(rate);
        }
    }
    out.metrics.insert("rate_ok_per_s", best);
    out.metrics
        .insert("server.gen_lag_max_us", lag_max_ns as f64 / 1e3);
    out
}

pub fn run(opts: &Opts) -> RunReport {
    let started = Instant::now();
    let w = opts.workload;
    let scale = if opts.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let phases = Phases::of(opts);

    let mut rounds = Vec::new();
    let mut first_round_rss = 0.0;
    let mut ladder = None;
    for i in 0..phases.rounds {
        let (round, mut bed) = one_round(opts, scale, &phases);
        if i == 0 {
            // Peak memory of one round. Later rounds only add what the
            // allocator happens not to reuse, which is not the program's.
            first_round_rss = rss_mb();
        }
        if w == Workload::ReadWarm && i + 1 == phases.rounds {
            ladder = Some(climb_ladder(&mut bed, phases.rung));
        }
        tear_down(bed);
        rounds.push(round);
    }

    // Every metric of the rounds is the median over them.
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let names: Vec<&'static str> = rounds[0].metrics.keys().copied().collect();
    for name in names {
        let mut values: Vec<f64> = rounds.iter().map(|r| r.metrics[name]).collect();
        m.insert(name, stats::median(&mut values));
    }
    m.insert("rss_mb", first_round_rss);
    let mut attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut stale: u64 = rounds.iter().map(|r| r.stale).sum();
    let lost_write = rounds.iter().any(|r| r.lost_write);
    let mut notes: Vec<(String, String)> = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        let per_round = ["req_p50_us", "req_p99_us", "req_per_s", "setup_s"]
            .map(|k| format!("{k} {:.3}", r.metrics[k]))
            .join(" ");
        notes.push((format!("round_{i}"), per_round));
        notes.extend(r.notes.iter().cloned());
    }
    if let Some(l) = ladder {
        attempted += l.attempted;
        failed += l.failed;
        m.extend(l.metrics);
        notes.extend(l.notes);
    }

    let mut untraced_layer = false;
    if opts.trace {
        let r = replay::run(w, scale, opts.seed, opts.smoke);
        attempted += r.attempted;
        failed += r.failed;
        stale += r.stale_accepts;
        for (k, v) in r.p99_us {
            notes.push((format!("p99:{k}"), format!("{v:.3}")));
        }
        m.extend(r.metrics);
        // Depth C must account for depth B's time on the two workloads
        // whose requests it spells out in full, or a layer the engine
        // runs is missing from the per-layer numbers.
        let coverage = m["trace.depth_c_coverage"];
        if matches!(w, Workload::ReadWarm | Workload::AdmitCold) && coverage < MIN_COVERAGE {
            untraced_layer = true;
            notes.push((
                "TRACE".into(),
                format!(
                    "depth C covers {coverage:.3} of depth B, under {MIN_COVERAGE}: \
                     the decomposition in replay.rs no longer matches the engine"
                ),
            ));
        }
    }
    m.insert("fail_ratio", failed as f64 / attempted.max(1) as f64);
    notes.push((
        "wall_s".into(),
        format!("{:.2}", started.elapsed().as_secs_f64()),
    ));
    if stale > 0 {
        notes.push((
            "SECURITY".into(),
            format!("{stale} stale accept(s): ROWS served after the revoke settled"),
        ));
    }
    if lost_write {
        notes.push((
            "DURABILITY".into(),
            "recovered state differs from the acknowledged writes".into(),
        ));
    }
    RunReport {
        correct: failed == 0 && stale == 0 && !lost_write && !untraced_layer,
        attempted,
        failed,
        violation: stale > 0 || lost_write || untraced_layer,
        metrics: m,
        notes,
    }
}
