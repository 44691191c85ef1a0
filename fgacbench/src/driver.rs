//! Load generation over real TCP connections, and answer checking.

use crate::stream::{Class, Expect, Req};
use fgac_server::{AdminOp, Client, Response};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Whether the pad view is granted, as the admin connection knows it.
/// Even values are settled states (granted when `value / 2` is even);
/// an odd value means a change is in flight. The admin bumps it before
/// sending a change and again after the acknowledgement, so a reader
/// that sees the same even value before its send and after its receive
/// knows its request was sequenced strictly between two changes.
#[derive(Debug, Default)]
pub struct PadFlag(AtomicU64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadState {
    Granted,
    Revoked,
    /// A change overlapped the request: either answer is legitimate.
    Raced,
}

impl PadFlag {
    pub fn read(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Classifies a request from the flag values read before its send and
/// after its receive.
pub fn classify_pad(before: u64, after: u64) -> PadState {
    if before != after || !before.is_multiple_of(2) {
        PadState::Raced
    } else if (before / 2).is_multiple_of(2) {
        PadState::Granted
    } else {
        PadState::Revoked
    }
}

/// Outcome of checking one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    Ok,
    /// Wrong status, wrong row count, or an operational status.
    Failed,
    /// ROWS served while the justifying view was settled as revoked:
    /// the security violation the run must not survive.
    StaleAccept,
}

pub fn check(resp: &Response, expect: Expect, pad: PadState) -> Check {
    let ok = |b: bool| if b { Check::Ok } else { Check::Failed };
    match (expect, resp) {
        (Expect::Rows(n), Response::Rows { rows, .. }) => ok(rows.len() == n),
        (Expect::Denied, Response::Denied(_)) => Check::Ok,
        (Expect::Affected(n), Response::Affected(m)) => ok(*m == n),
        (Expect::PadRows(n), Response::Rows { rows, .. }) => match pad {
            PadState::Revoked => Check::StaleAccept,
            _ => ok(rows.len() == n),
        },
        (Expect::PadRows(_), Response::Denied(_)) => ok(pad != PadState::Granted),
        _ => Check::Failed,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub lat_ns: u64,
}

/// What one connection did during a phase.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    pub samples: Vec<Sample>,
    pub failed: u64,
    pub stale_accepts: u64,
    /// First few failures, for the report.
    pub failure_notes: Vec<String>,
    pub elapsed: Duration,
}

impl ConnOutcome {
    fn record(&mut self, req: &Req, resp: Result<Response, fgac_types::Error>, pad: PadState) {
        let verdict = match &resp {
            Ok(r) => check(r, req.expect, pad),
            Err(_) => Check::Failed,
        };
        if verdict != Check::Ok {
            self.failed += 1;
            if verdict == Check::StaleAccept {
                self.stale_accepts += 1;
            }
            if self.failure_notes.len() < 3 {
                let got = match &resp {
                    Ok(Response::Rows { rows, .. }) => format!("ROWS({})", rows.len()),
                    Ok(other) => format!("{other:?}"),
                    Err(e) => format!("transport: {e}"),
                };
                self.failure_notes.push(format!(
                    "{verdict:?}: `{}` expected {:?} ({pad:?}), got {got}",
                    req.sql, req.expect
                ));
            }
        }
    }
}

/// Opens one session per principal. Every socket is connected before
/// the first HELLO is sent, so the server's accept loop (which polls
/// every 20 ms when idle) picks them all up in one pass.
pub fn connect_all(addr: SocketAddr, principals: &[&str]) -> Vec<Client> {
    let mut clients: Vec<Client> = principals
        .iter()
        .map(|_| Client::connect(addr, Duration::from_secs(30)).expect("connect"))
        .collect();
    for (client, principal) in clients.iter_mut().zip(principals) {
        match client.hello(principal).expect("hello") {
            Response::Ok(_) => {}
            other => panic!("handshake refused: {other:?}"),
        }
    }
    clients
}

/// How a closed loop walks its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Cycle the working set until time is up.
    Cycle,
    /// Each request once; stop early if the stream runs out.
    Once,
    /// Cycle, but only stop on a multiple of this many requests, so a
    /// multi-statement unit of work is never left half done.
    CycleUnits(usize),
}

/// When a phase ends: the timed slice runs for a time, the warm-up for
/// a number of requests, so that its length follows the program's speed
/// and counts as set-up work.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Time(Duration),
    Requests(usize),
}

impl Limit {
    fn reached(self, start: Instant, done: usize) -> bool {
        match self {
            Limit::Time(d) => start.elapsed() >= d,
            Limit::Requests(n) => done >= n,
        }
    }
}

/// Closed loop: the next request is sent when the previous answer has
/// arrived. Runs until `limit`.
pub fn closed_loop(
    client: &mut Client,
    reqs: &[Req],
    walk: Walk,
    limit: Limit,
    pad: Option<&PadFlag>,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let start = Instant::now();
    let unit = match walk {
        Walk::CycleUnits(n) => n,
        _ => 1,
    };
    let mut i = 0usize;
    loop {
        if i.is_multiple_of(unit) && limit.reached(start, i) {
            break;
        }
        if walk == Walk::Once && i == reqs.len() {
            break;
        }
        let req = &reqs[i % reqs.len()];
        let before = pad.map_or(0, PadFlag::read);
        let t = Instant::now();
        let resp = client.query(&req.sql);
        let lat = t.elapsed();
        let state = pad.map_or(PadState::Granted, |p| classify_pad(before, p.read()));
        out.samples.push(Sample {
            class: req.class,
            lat_ns: lat.as_nanos() as u64,
        });
        out.record(req, resp, state);
        i += 1;
    }
    out.elapsed = start.elapsed();
    out
}

/// One open-loop request: when it was due, sent and answered, in ns
/// from the start of the rung.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Paced {
    /// Latency as a user who arrived on schedule saw it: counts the
    /// wait a stall imposes on the requests queued behind it.
    pub fn since_due_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// Latency from the actual send: what a closed loop would report,
    /// blind to the backlog.
    #[cfg(test)]
    pub fn since_send_ns(&self) -> u64 {
        self.done_ns - self.sent_ns
    }

    /// How late the generator sent it.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Open loop on one connection: request `i` is due at
/// `offset + i * interval` whatever happened to the ones before it. The
/// connection carries one request at a time, so a late answer delays
/// the sends behind it; that delay is the lag, and it is part of the
/// latency measured from the due time. Stops at `duration`; returns the
/// timings and how far behind schedule the generator was at the end.
pub fn open_loop(
    interval: Duration,
    offset: Duration,
    duration: Duration,
    mut call: impl FnMut(usize),
) -> (Vec<Paced>, u64) {
    let start = Instant::now();
    let ns = |d: Duration| d.as_nanos() as u64;
    let mut out = Vec::new();
    let mut i = 0u64;
    loop {
        let due = ns(offset) + i * ns(interval);
        if due >= ns(duration) {
            return (out, 0);
        }
        let mut now = ns(start.elapsed());
        if now >= ns(duration) {
            return (out, now - due);
        }
        // Sleep, never spin: the generator shares two cores with the
        // server it measures. Waking late is generator lag, reported as
        // such and part of the latency taken from the due time.
        while now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            now = ns(start.elapsed());
        }
        call(i as usize);
        out.push(Paced {
            due_ns: due,
            sent_ns: now,
            done_ns: ns(start.elapsed()),
        });
        i += 1;
    }
}

/// Admin connection of `policy_churn`: alternately revokes and grants
/// the pad view on the role, one change every `interval`, keeping
/// `flag` in step. Always ends on a grant. Returns the round-trip
/// latencies (ns) and the failure count.
pub fn churn_loop(
    client: &mut Client,
    role: &str,
    view: &str,
    interval: Duration,
    limit: Limit,
    flag: &PadFlag,
) -> (Vec<u64>, u64) {
    let start = Instant::now();
    let mut lats = Vec::new();
    let mut failed = 0;
    let mut granted = true;
    let mut n = 0u32;
    while !limit.reached(start, n as usize) || !granted {
        let due = interval * n;
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let (principal, view) = (role.to_string(), view.to_string());
        let op = if granted {
            AdminOp::RevokeView { principal, view }
        } else {
            AdminOp::GrantView { principal, view }
        };
        flag.bump();
        let t = Instant::now();
        let resp = client.admin(op);
        lats.push(t.elapsed().as_nanos() as u64);
        flag.bump();
        if !matches!(resp, Ok(Response::Ok(_))) {
            failed += 1;
        }
        granted = !granted;
        n += 1;
    }
    (lats, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    #[test]
    fn pad_classifier_separates_settled_from_raced() {
        // 0: granted; 1: revoke in flight; 2: revoked; 3: grant in
        // flight; 4: granted again.
        assert_eq!(classify_pad(0, 0), PadState::Granted);
        assert_eq!(classify_pad(2, 2), PadState::Revoked);
        assert_eq!(classify_pad(4, 4), PadState::Granted);
        assert_eq!(classify_pad(1, 1), PadState::Raced);
        assert_eq!(classify_pad(0, 1), PadState::Raced);
        assert_eq!(classify_pad(1, 2), PadState::Raced);
        // A whole revoke+grant pair slipped in between: still raced.
        assert_eq!(classify_pad(0, 4), PadState::Raced);
    }

    #[test]
    fn pad_answers_are_judged_against_the_settled_state() {
        let rows = Response::Rows {
            names: vec![],
            rows: vec![],
        };
        let denied = Response::Denied("no".into());
        let e = Expect::PadRows(0);
        assert_eq!(check(&rows, e, PadState::Granted), Check::Ok);
        assert_eq!(check(&rows, e, PadState::Revoked), Check::StaleAccept);
        assert_eq!(check(&rows, e, PadState::Raced), Check::Ok);
        assert_eq!(check(&denied, e, PadState::Revoked), Check::Ok);
        assert_eq!(check(&denied, e, PadState::Granted), Check::Failed);
        assert_eq!(check(&denied, e, PadState::Raced), Check::Ok);
        // Operational statuses never pass.
        let shed = Response::Shed("full".into());
        assert_eq!(
            check(&shed, Expect::Rows(0), PadState::Granted),
            Check::Failed
        );
        assert_eq!(
            check(&rows, Expect::Rows(1), PadState::Granted),
            Check::Failed
        );
    }

    /// A server that answers at once except for one 50 ms stall. The
    /// stall delays every request queued behind it; only latency taken
    /// from the due time sees that.
    #[test]
    fn due_time_latency_sees_a_stall_that_send_time_latency_hides() {
        let interval = Duration::from_micros(500);
        let (timings, final_lag) =
            open_loop(interval, Duration::ZERO, Duration::from_millis(500), |i| {
                if i == 100 {
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
        assert!(timings.len() > 900, "sent {}", timings.len());
        let mut from_due: Vec<f64> = timings.iter().map(|t| t.since_due_ns() as f64).collect();
        let mut from_send: Vec<f64> = timings.iter().map(|t| t.since_send_ns() as f64).collect();
        let due_p99_ms = quantile(&mut from_due, 0.99) / 1e6;
        let send_p99_ms = quantile(&mut from_send, 0.99) / 1e6;
        // ~100 of ~1000 requests waited behind the stall; one request
        // was slow by its own clock.
        assert!(
            due_p99_ms > 20.0,
            "due-time p99 {due_p99_ms} ms misses the stall"
        );
        assert!(
            send_p99_ms < 10.0,
            "send-time p99 {send_p99_ms} ms should not see it"
        );
        let max_lag_ms = timings.iter().map(Paced::lag_ns).max().unwrap() as f64 / 1e6;
        assert!(max_lag_ms > 40.0, "generator lag {max_lag_ms} ms");
        assert!(
            final_lag < 20_000_000,
            "generator caught up, final lag {final_lag} ns"
        );
    }
}
