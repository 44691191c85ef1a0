//! The TCP front end: accept loop, per-connection threads that run
//! their own requests under a counting admission permit, and graceful
//! drain.
//!
//! ## Thread structure
//!
//! ```text
//! accept thread ──► connection threads (one per client, panic-isolated)
//!                        │  Admission::acquire (line full ⇒ SHED,
//!                        │  closed ⇒ UNAVAILABLE, else wait in line)
//!                        ▼
//!                 permit held: SharedEngine::execute_at(deadline)
//!                        │  permit released
//!                        ▼
//!                 the same thread writes the response frame
//! ```
//!
//! At most `workers` permits are out at once and at most
//! `queue_capacity` threads wait for one; no other thread runs.
//!
//! ## Robustness invariants
//!
//! * **Shed ≠ denied.** Overload produces `SHED` (admission line full,
//!   connection table full) or `UNAVAILABLE` (draining) — statuses the
//!   engine never uses for authorization verdicts, so a client can
//!   always tell "retry later" from "you may not".
//! * **Deadlines are admission-scoped.** A request's wall-clock
//!   deadline starts when its frame is accepted, before it waits for a
//!   permit, so time spent behind other work counts against it; expiry
//!   denies fail-closed inside the engine without touching any cache.
//! * **Panic isolation.** A panic in a connection thread kills only
//!   that connection; a panic while a request executes is caught,
//!   counted, and answered with an `ERROR` status — the permit is
//!   released on the way out, so the admission bound keeps its size.
//! * **Graceful drain.** `finish()` stops accepting, lets permit holders
//!   and waiters proceed up to the drain deadline, refuses the waiters
//!   still in line (each answers `UNAVAILABLE`), waits for every permit
//!   holder, then closes the engine (which fsyncs the WAL). Every
//!   response written before drain is durable after it.

use crate::frame::{read_frame_deadline, write_frame, FrameEvent};
use crate::metrics::Metrics;
use crate::protocol::{response_for_error, AdminOp, Request, Response};
use fgac_core::{Session, SharedEngine};
use fgac_types::{Error, Ident, Result, Row, Value};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Requests executing against the engine at once.
    pub workers: usize,
    /// Requests that may wait for one of the `workers` slots; beyond
    /// this, requests are shed.
    pub queue_capacity: usize,
    /// Concurrent connection cap; beyond this, connections are refused
    /// with a `SHED` frame before any handshake.
    pub max_connections: usize,
    /// How long a connection may sit idle between frames.
    pub idle_timeout: Duration,
    /// Wall-clock bound for one frame to arrive completely once its
    /// first byte is seen (slowloris defense).
    pub frame_timeout: Duration,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// How long `finish()` waits for in-flight work before refusing
    /// what remains.
    pub drain_deadline: Duration,
    /// The only principal whose sessions may issue `ADMIN` requests.
    pub admin_principal: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            max_connections: 64,
            idle_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(2),
            default_deadline: None,
            drain_deadline: Duration::from_secs(5),
            admin_principal: "admin".into(),
        }
    }
}

/// Lifecycle states, monotonically increasing.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// Socket poll interval; every blocking wait re-checks state at this
/// granularity.
const POLL: Duration = Duration::from_millis(20);

/// Counting admission control: a connection thread holds a [`Permit`]
/// while its request executes. At most `slots` permits are out and at
/// most `line` threads wait for one. The mutex guards three counters and
/// is never held across an engine call; poisoning is recovered with
/// `into_inner`, since no code path can leave the counters half-updated.
struct Admission {
    state: Mutex<AdmissionState>,
    freed: Condvar,
    slots: usize,
    line: usize,
}

#[derive(Default)]
struct AdmissionState {
    running: usize,
    waiting: usize,
    closed: bool,
}

/// Why [`Admission::acquire`] refused a request.
#[derive(Debug, PartialEq, Eq)]
enum Refused {
    /// Every permit is out and the line is full.
    Shed,
    /// `finish()` closed admission, before or during the wait.
    Closed,
}

impl Admission {
    fn new(slots: usize, line: usize) -> Self {
        Admission {
            state: Mutex::new(AdmissionState::default()),
            freed: Condvar::new(),
            slots: slots.max(1),
            line: line.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Takes a permit, waiting in line while every one is out. Refuses
    /// at once when the line is full or admission is closed; a waiter
    /// woken by [`Admission::close`] leaves refused.
    fn acquire(&self) -> std::result::Result<Permit<'_>, Refused> {
        let mut s = self.lock();
        if s.closed {
            return Err(Refused::Closed);
        }
        if s.running >= self.slots {
            if s.waiting >= self.line {
                return Err(Refused::Shed);
            }
            s.waiting += 1;
            while s.running >= self.slots && !s.closed {
                s = self.freed.wait(s).unwrap_or_else(|p| p.into_inner());
            }
            s.waiting -= 1;
            if s.closed {
                return Err(Refused::Closed);
            }
        }
        s.running += 1;
        Ok(Permit { admission: self })
    }

    /// Refuses every later `acquire` and wakes every waiter, each of
    /// which answers its own client. Returns how many were waiting.
    fn close(&self) -> usize {
        let mut s = self.lock();
        s.closed = true;
        let waiting = s.waiting;
        drop(s);
        self.freed.notify_all();
        waiting
    }

    /// (permit holders, waiters).
    fn counts(&self) -> (usize, usize) {
        let s = self.lock();
        (s.running, s.waiting)
    }
}

/// One taken admission slot. Dropping it — on return or on unwind —
/// frees the slot and wakes one waiter.
struct Permit<'a> {
    admission: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = self.admission.lock();
        s.running -= 1;
        let wake = s.waiting > 0;
        drop(s);
        if wake {
            self.admission.freed.notify_one();
        }
    }
}

struct Shared {
    engine: SharedEngine,
    config: ServerConfig,
    #[allow(
        clippy::disallowed_types,
        reason = "the lifecycle gate, not a count: finish() stores DRAINING and STOPPED with Release; \
                  the accept loop and every connection thread load it with Acquire"
    )]
    state: std::sync::atomic::AtomicU8,
    metrics: Metrics,
    #[allow(
        clippy::disallowed_types,
        reason = "a gauge that gates accept against max_connections and the drain wait: \
                  AcqRel fetch_add/fetch_sub, Acquire loads"
    )]
    conns: std::sync::atomic::AtomicUsize,
    admission: Admission,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }
}

/// What `finish()` observed while draining.
#[derive(Debug)]
pub struct DrainReport {
    /// True when every admitted request completed before the drain
    /// deadline (nothing was refused mid-flight).
    pub drained_cleanly: bool,
    /// Requests still waiting for a permit at the drain deadline,
    /// answered with `UNAVAILABLE`.
    pub refused_jobs: usize,
    /// Final counter snapshot, taken after the engine closed.
    pub metrics: Vec<(&'static str, u64)>,
}

/// A running server. Dropping it without calling [`Server::finish`]
/// leaves threads running; call `finish` to drain and close.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept thread, and returns.
    pub fn start(engine: SharedEngine, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::Execution(format!("bind {}: {e}", config.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::Execution(format!("set_nonblocking: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::Execution(format!("local_addr: {e}")))?;
        let shared = Arc::new(Shared {
            admission: Admission::new(config.workers, config.queue_capacity),
            engine,
            config,
            #[allow(
                clippy::disallowed_types,
                reason = "the lifecycle gate; orderings at Shared::state"
            )]
            state: std::sync::atomic::AtomicU8::new(RUNNING),
            metrics: Metrics::new(),
            #[allow(
                clippy::disallowed_types,
                reason = "the connection gauge; orderings at Shared::conns"
            )]
            conns: std::sync::atomic::AtomicUsize::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fgac-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| Error::Execution(format!("spawn accept: {e}")))?
        };
        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Requests waiting for an admission permit. Read under the
    /// admission mutex, never the engine lock (unlike the `METRICS`
    /// command, which reads engine cache stats under the engine read
    /// lock) — tests use it to sequence backpressure scenarios
    /// deterministically.
    pub fn queue_depth(&self) -> usize {
        self.shared.admission.counts().1
    }

    /// Requests holding an admission permit (executing, not yet
    /// answered).
    pub fn inflight(&self) -> usize {
        self.shared.admission.counts().0
    }

    /// Stops accepting, drains admitted work up to the drain deadline,
    /// refuses the requests still waiting, waits for the ones executing,
    /// and closes the engine (fsyncing the WAL). Idempotent at the
    /// engine level: a second close reports a clean double-close error.
    pub fn finish(mut self) -> Result<DrainReport> {
        self.shared.state.store(DRAINING, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Drain: permit holders finish and waiters move up.
        let admission = &self.shared.admission;
        let deadline = Instant::now() + self.shared.config.drain_deadline;
        while admission.counts() != (0, 0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = admission.counts() == (0, 0);
        self.shared.state.store(STOPPED, Ordering::Release);
        // Whoever still waits is answered, not dropped: closing wakes
        // each waiter, which writes `UNAVAILABLE` to its own client.
        let refused_jobs = admission.close();
        self.shared.metrics.drain_shed.add(refused_jobs as u64);
        // Requests already executing finish before the engine closes.
        while admission.counts().0 > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Give connection threads (every permit is back; they only write
        // replies and poll sockets) a moment to notice STOPPED and
        // unwind.
        let conn_deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.conns.load(Ordering::Acquire) > 0 && Instant::now() < conn_deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.engine.close()?;
        Ok(DrainReport {
            drained_cleanly: drained,
            refused_jobs,
            metrics: self.shared.metrics.snapshot(),
        })
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while shared.state() == RUNNING {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let open = shared.conns.load(Ordering::Acquire);
                if open >= shared.config.max_connections {
                    shared.metrics.conns_refused.add(1);
                    refuse_connection(stream, shared);
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::AcqRel);
                shared.metrics.conns_accepted.add(1);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("fgac-conn".into())
                    .spawn(move || {
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            serve_connection(stream, &conn_shared)
                        }));
                        if outcome.is_err() {
                            conn_shared.metrics.conns_panicked.add(1);
                        }
                        conn_shared.conns.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    // Spawn failure: undo the count; the stream drops.
                    shared.conns.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Over the connection cap: answer `SHED` (retryable, explicitly not an
/// authorization status) and close.
fn refuse_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut stream = stream;
    let resp = Response::Shed("connection table full; retry with backoff".into());
    let (kind, payload) = resp.to_frame();
    if write_frame(&mut stream, kind, &payload).is_ok() {
        shared.metrics.record_status(kind);
    }
}

/// Writes one response frame and records its status on success.
fn send_response(stream: &mut TcpStream, shared: &Arc<Shared>, resp: &Response) -> bool {
    let (kind, payload) = resp.to_frame();
    match write_frame(stream, kind, &payload) {
        Ok(()) => {
            shared.metrics.record_status(kind);
            true
        }
        Err(_) => false,
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let abort = || shared.state() != RUNNING;
    // Handshake: the first frame must be HELLO, within the idle window.
    let principal = match next_request(&mut stream, shared, &abort) {
        Some(Request::Hello { principal }) => principal,
        Some(_) => {
            let resp = Response::Protocol("the first frame must be HELLO <principal>".into());
            send_response(&mut stream, shared, &resp);
            return;
        }
        None => return,
    };
    if !send_response(
        &mut stream,
        shared,
        &Response::Ok(format!("session open for {principal}")),
    ) {
        return;
    }
    let session = Session::new(principal);
    loop {
        let request = match next_request(&mut stream, shared, &abort) {
            Some(r) => r,
            None => return,
        };
        shared.metrics.requests.add(1);
        match request {
            Request::Hello { .. } => {
                let resp = Response::Protocol("session already open (duplicate HELLO)".into());
                send_response(&mut stream, shared, &resp);
                return;
            }
            Request::Ping => {
                if !send_response(&mut stream, shared, &Response::Ok("pong".into())) {
                    return;
                }
            }
            Request::Bye => {
                send_response(&mut stream, shared, &Response::Ok("bye".into()));
                return;
            }
            Request::Metrics => {
                let resp = metrics_response(shared);
                if !send_response(&mut stream, shared, &resp) {
                    return;
                }
            }
            request @ (Request::Query { .. } | Request::Admin(_)) => {
                let resp = dispatch(shared, &session, &request);
                if !send_response(&mut stream, shared, &resp) {
                    return;
                }
            }
        }
    }
}

/// Reads and decodes one request, handling every transport-level
/// outcome. `None` means the connection is finished (closed, timed
/// out, aborted, or irrecoverably corrupt — counters already updated,
/// any final status already written).
fn next_request(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    abort: &impl Fn() -> bool,
) -> Option<Request> {
    let idle_deadline = Instant::now() + shared.config.idle_timeout;
    match read_frame_deadline(stream, idle_deadline, shared.config.frame_timeout, abort) {
        FrameEvent::Frame { kind, payload } => match Request::from_frame(kind, &payload) {
            Ok(req) => Some(req),
            Err(e) => {
                let resp = Response::Protocol(format!("malformed request: {e}"));
                send_response(stream, shared, &resp);
                None
            }
        },
        FrameEvent::Closed | FrameEvent::Io(_) => None,
        FrameEvent::Aborted => {
            // Draining: nothing is in flight on this connection, so a
            // courtesy status then close.
            let resp = Response::Unavailable("server draining; reconnect later".into());
            send_response(stream, shared, &resp);
            None
        }
        FrameEvent::IdleTimeout => {
            shared.metrics.conns_idle_timeout.add(1);
            None
        }
        FrameEvent::Stalled => {
            shared.metrics.conns_stalled.add(1);
            None
        }
        FrameEvent::Corrupt(_) => {
            shared.metrics.frames_corrupt.add(1);
            let resp = Response::Protocol("corrupt frame; closing".into());
            send_response(stream, shared, &resp);
            None
        }
    }
}

/// Runs one engine request on the calling connection thread under an
/// admission permit. Never waits when the line is full: that is `SHED`
/// at once. The deadline starts before the wait, so waiting counts
/// against it.
fn dispatch(shared: &Arc<Shared>, session: &Session, request: &Request) -> Response {
    let deadline = match request {
        Request::Query {
            deadline_ms: Some(ms),
            ..
        } => Some(Instant::now() + Duration::from_millis(*ms)),
        _ => shared.config.default_deadline.map(|d| Instant::now() + d),
    };
    let _permit = match shared.admission.acquire() {
        Ok(permit) => permit,
        Err(Refused::Shed) => {
            return Response::Shed("admission queue full; retry with backoff".into());
        }
        Err(Refused::Closed) => {
            return Response::Unavailable("server draining; reconnect later".into());
        }
    };
    process(shared, session, request, deadline)
}

/// Executes one request against the engine, isolating panics — the
/// injected `server::handle_request` fault included — so the connection
/// answers `ERROR` and its permit comes back.
fn process(
    shared: &Arc<Shared>,
    session: &Session,
    request: &Request,
    deadline: Option<Instant>,
) -> Response {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        if fgac_types::faults::hit("server::handle_request").is_err() {
            return Response::Error("injected fault: request handler failed".into());
        }
        execute(shared, session, request, deadline)
    }));
    match outcome {
        Ok(resp) => resp,
        Err(_) => {
            shared.metrics.worker_panics.add(1);
            Response::Error(
                "internal error: request handler panicked (isolated; connection intact)".into(),
            )
        }
    }
}

fn execute(
    shared: &Arc<Shared>,
    session: &Session,
    request: &Request,
    deadline: Option<Instant>,
) -> Response {
    match request {
        Request::Query { sql, .. } => {
            match shared.engine.execute_at(session, sql, deadline) {
                Ok(resp) => match resp.rows() {
                    Some(q) => Response::Rows {
                        names: q.names.clone(),
                        rows: q.rows.clone(),
                    },
                    None => Response::Affected(resp.affected().unwrap_or(0) as u64),
                },
                Err(e) => response_for_error(&e),
            }
        }
        Request::Admin(op) => {
            if session.user() != shared.config.admin_principal {
                return Response::Denied(format!(
                    "admin operations require principal '{}'",
                    shared.config.admin_principal
                ));
            }
            let result = shared.engine.with_write(|e| match op {
                AdminOp::Script(s) => e.admin_script(s).map(|_| "admin script applied"),
                AdminOp::GrantView { principal, view } => {
                    e.grant_view(principal, view).map(|_| "view granted")
                }
                AdminOp::RevokeView { principal, view } => {
                    e.revoke_view(principal, view).map(|_| "view revoked")
                }
                AdminOp::GrantUpdate { principal, sql } => {
                    e.grant_update_sql(principal, sql).map(|_| "update authorized")
                }
            });
            match result {
                Ok(m) => Response::Ok(m.into()),
                Err(e) => response_for_error(&e),
            }
        }
        // Answered in `serve_connection` without a permit; reaching the
        // engine with one of these is a bug, answered defensively.
        _ => Response::Protocol("request is not an engine operation".into()),
    }
}

/// Builds the `METRICS` result set: server counters, the engine's
/// cache statistics, version counters, and the Non-Truman C3 probe
/// count, as (metric, value) rows.
fn metrics_response(shared: &Arc<Shared>) -> Response {
    let mut pairs: Vec<(String, u64)> = shared
        .metrics
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    pairs.push(("conns_open".into(), shared.conns.load(Ordering::Acquire) as u64));
    pairs.push(("queue_depth".into(), shared.admission.counts().1 as u64));
    shared.engine.with_read(|e| {
        let (vh, vm) = e.cache().stats();
        pairs.push(("validity_cache_hits".into(), vh));
        pairs.push(("validity_cache_misses".into(), vm));
        let (ph, pm) = e.plan_cache().stats();
        pairs.push(("plan_cache_hits".into(), ph));
        pairs.push(("plan_cache_misses".into(), pm));
        pairs.push(("policy_epoch".into(), e.policy_epoch()));
        pairs.push(("data_version".into(), e.data_version()));
        for (k, v) in
            crate::metrics::compiled_policy_rows(e.compiled_policies().compiled_principals())
        {
            pairs.push((k.to_string(), v));
        }
        for (k, v) in crate::metrics::invalidation_rows(e) {
            pairs.push((k.to_string(), v));
        }
        for (k, v) in crate::metrics::flow_rows(e) {
            pairs.push((k.to_string(), v));
        }
    });
    pairs.push(("c3_probes".into(), fgac_core::nontruman::c3_probe_count()));
    let rows = pairs
        .into_iter()
        .map(|(k, v)| Row(vec![Value::Str(k), Value::Int(v as i64)]))
        .collect();
    Response::Rows {
        names: vec![Ident::new("metric"), Ident::new("value")],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Polls until `admission` shows `want` (permit holders, waiters).
    fn wait_for(admission: &Admission, want: (usize, usize)) {
        let t = Instant::now();
        while admission.counts() != want {
            assert!(
                t.elapsed() < Duration::from_secs(5),
                "counts stuck at {:?}, want {want:?}",
                admission.counts()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A thread that takes a permit, releases it at once, and reports
    /// how `acquire` came out.
    fn spawn_acquire(
        admission: &Arc<Admission>,
    ) -> std::thread::JoinHandle<std::result::Result<(), Refused>> {
        let admission = Arc::clone(admission);
        std::thread::spawn(move || admission.acquire().map(drop))
    }

    #[test]
    fn sheds_exactly_beyond_slots_plus_line() {
        let admission = Arc::new(Admission::new(1, 2));
        let held = admission.acquire().unwrap();
        let waiters = [spawn_acquire(&admission), spawn_acquire(&admission)];
        wait_for(&admission, (1, 2));
        assert!(matches!(admission.acquire(), Err(Refused::Shed)));
        drop(held);
        for w in waiters {
            assert_eq!(w.join().unwrap(), Ok(()));
        }
        wait_for(&admission, (0, 0));
        assert!(admission.acquire().is_ok(), "a freed slot admits again");
    }

    #[test]
    fn close_refuses_new_requests_and_reports_the_waiters() {
        let admission = Arc::new(Admission::new(1, 4));
        let held = admission.acquire().unwrap();
        let waiters = [spawn_acquire(&admission), spawn_acquire(&admission)];
        wait_for(&admission, (1, 2));
        assert_eq!(admission.close(), 2);
        for w in waiters {
            assert_eq!(w.join().unwrap(), Err(Refused::Closed));
        }
        assert!(matches!(admission.acquire(), Err(Refused::Closed)));
        assert_eq!(admission.counts(), (1, 0), "the holder keeps its permit");
        drop(held);
        assert_eq!(admission.counts(), (0, 0));
    }

    #[test]
    fn a_released_permit_wakes_one_waiter() {
        let admission = Arc::new(Admission::new(1, 2));
        let held = admission.acquire().unwrap();
        // Each waiter, once admitted, holds its permit until it takes
        // one token from the gate.
        let (go, gate) = mpsc::channel::<()>();
        let gate = Arc::new(Mutex::new(gate));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (admission, gate) = (Arc::clone(&admission), Arc::clone(&gate));
                std::thread::spawn(move || {
                    let _permit = admission.acquire().unwrap();
                    gate.lock().unwrap().recv().unwrap();
                })
            })
            .collect();
        wait_for(&admission, (1, 2));
        drop(held);
        wait_for(&admission, (1, 1));
        go.send(()).unwrap();
        wait_for(&admission, (1, 0));
        go.send(()).unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(admission.counts(), (0, 0));
    }

    #[test]
    fn a_permit_is_released_when_its_holder_panics() {
        let admission = Admission::new(1, 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _permit = admission.acquire().unwrap();
            panic!("request handler panicked");
        }));
        assert!(outcome.is_err());
        assert_eq!(admission.counts(), (0, 0));
        assert!(admission.acquire().is_ok());
    }
}
