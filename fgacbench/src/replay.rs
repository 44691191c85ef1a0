//! The traced run: the same seeded stream replayed single-threaded at
//! three depths against identically built engines.
//!
//! * **A** — `Client::query` over TCP to an in-process server.
//! * **B** — the shared engine: lock, then `Engine::try_execute_read` /
//!   `Engine::execute_at`, exactly as `SharedEngine::execute_at` routes.
//! * **C** — the admission pipeline called layer by layer through the
//!   public functions `Engine::execute_at` itself is made of.
//!
//! The depths advance in lockstep, a chunk of the stream at a time, each
//! on its own engine: the host's speed drifts by tens of percent over
//! seconds, and a difference or ratio of two depths is only meaningful
//! when both saw the same drift.
//!
//! Counts come from depth B, which runs nothing but the requests, so
//! they repeat exactly for a seed.

use crate::driver::{check, connect_all, Check, PadState};
use crate::setup::{self, Scale, PAD_VIEW, ROLE};
use crate::stats::{mean, quantile_or_zero};
use crate::stream::{self, Class, Req};
use crate::trace::{self, Span, Tracer};
use crate::Workload;
use fgac_algebra::{Plan, SpjBlock};
use fgac_core::{
    AuthorizationView, CacheOutcome, CachedPlan, CheckOptions, DurabilityOptions, Engine,
    EngineResponse, Session, SharedEngine, Validator, ValidityCache,
};
use fgac_server::frame::{decode_header, encode_frame, verify_payload, HEADER_LEN};
use fgac_server::{response_for_error, AdminOp, Response};
use fgac_sql::Statement;
use fgac_types::{Error, Ident};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One step of the single-threaded stream.
enum Op {
    Query {
        who: usize,
        req: Req,
    },
    /// Revoke the pad view if granted, grant it if revoked.
    Flip,
}

/// The recorded stream plus the unrecorded cache fill before it.
struct Script {
    fill: Vec<Op>,
    ops: Vec<Op>,
    /// The writer's statements alone, for the writes-only passes.
    writes: Vec<Req>,
}

fn script(w: Workload, scale: Scale, seed: u64, n: usize, dml_n: usize) -> Script {
    let b = setup::build(scale, seed, None);
    let mut rng = stream::rng_for(seed, 1);
    let q = |who: usize, req: &Req| Op::Query {
        who,
        req: req.clone(),
    };
    let (fill, ops): (Vec<Op>, Vec<Op>) = match w {
        Workload::ReadWarm => {
            let sets = [
                stream::warm_set(&b.facts, &b.students[0], &mut rng),
                stream::warm_set(&b.facts, &b.students[1], &mut rng),
            ];
            let fill = (0..2)
                .flat_map(|c| sets[c].iter().map(move |r| q(c, r)))
                .collect();
            let ops = (0..n)
                .map(|k| q(k % 2, &sets[k % 2][(k / 2) % sets[0].len()]))
                .collect();
            (fill, ops)
        }
        Workload::AdmitCold => {
            let mut serial = 0;
            let cold = [
                stream::cold_stream(&b.facts, &b.students[0], &mut rng, &mut serial, n / 2 + 1),
                stream::cold_stream(&b.facts, &b.students[1], &mut rng, &mut serial, n / 2 + 1),
            ];
            (
                Vec::new(),
                (0..n).map(|k| q(k % 2, &cold[k % 2][k / 2])).collect(),
            )
        }
        Workload::WriteMix => {
            let writes =
                stream::write_stream(&b.facts, &b.students[0], n / 2 / stream::WRITE_CYCLE + 1);
            let reads = stream::warm_set(&b.facts, &b.students[1], &mut rng);
            let fill = reads.iter().map(|r| q(1, r)).collect();
            let ops = (0..n)
                .map(|k| {
                    if k % 2 == 0 {
                        q(0, &writes[k / 2])
                    } else {
                        q(1, &reads[(k / 2) % reads.len()])
                    }
                })
                .collect();
            (fill, ops)
        }
        Workload::PolicyChurn => {
            let reads = stream::churn_set(&b.facts, &b.students[0], &mut rng);
            let fill = reads.iter().map(|r| q(0, r)).collect();
            // One policy change per 20 reads: far denser than the timed
            // phase's 100 changes/s, so the sweep and the revalidations
            // have enough samples.
            let ops = (0..n)
                .map(|k| {
                    if k % 21 == 20 {
                        Op::Flip
                    } else {
                        q(0, &reads[(k - k / 21) % reads.len()])
                    }
                })
                .collect();
            (fill, ops)
        }
    };
    let writes = stream::write_stream(&b.facts, &b.students[0], dml_n / stream::WRITE_CYCLE);
    Script { fill, ops, writes }
}

/// Pad-view state while replaying: exact, since nothing runs beside it.
fn pad_state(granted: bool) -> PadState {
    if granted {
        PadState::Granted
    } else {
        PadState::Revoked
    }
}

fn to_response(r: Result<EngineResponse, Error>) -> Response {
    match r {
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

/// Answers that failed their check, across a pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    stale: u64,
}

impl Tally {
    fn judge(&mut self, resp: &Response, req: &Req, pad_granted: bool) {
        self.attempted += 1;
        match check(resp, req.expect, pad_state(pad_granted)) {
            Check::Ok => {}
            Check::Failed => self.failed += 1,
            Check::StaleAccept => {
                self.failed += 1;
                self.stale += 1;
            }
        }
    }
}

/// One depth of the replay, advanced a chunk at a time. `first_id` is
/// the stream position of the chunk's first op; an unrecorded chunk is
/// cache fill and leaves no spans or counts.
trait Depth {
    fn run(&mut self, ops: &[Op], first_id: u32, recorded: bool, tally: &mut Tally);
}

// ---------------------------------------------------------------- depth A

struct DepthA {
    server: fgac_server::Server,
    clients: Vec<fgac_server::Client>,
    admin: fgac_server::Client,
    tr: Tracer,
    pad: bool,
}

impl DepthA {
    fn new(scale: Scale, seed: u64) -> DepthA {
        let b = setup::build(scale, seed, None);
        let server = setup::start_server(SharedEngine::new(b.engine));
        let addr = server.local_addr();
        let mut clients = connect_all(addr, &[&b.students[0].id, &b.students[1].id, "admin"]);
        let admin = clients.pop().expect("admin session");
        DepthA {
            server,
            clients,
            admin,
            tr: Tracer::new(true),
            pad: true,
        }
    }

    fn finish(self) -> Vec<Span> {
        drop(self.clients);
        drop(self.admin);
        self.server.finish().expect("replay server drains");
        self.tr.spans
    }
}

impl Depth for DepthA {
    fn run(&mut self, ops: &[Op], first_id: u32, recorded: bool, tally: &mut Tally) {
        let tr = &mut self.tr;
        for (i, op) in ops.iter().enumerate() {
            tr.begin_request(first_id + i as u32);
            match op {
                Op::Query { who, req } => {
                    let client = &mut self.clients[*who];
                    let resp = if recorded {
                        tr.span("server.roundtrip", || client.query(&req.sql))
                    } else {
                        client.query(&req.sql)
                    };
                    let resp = resp.unwrap_or_else(|e| Response::Error(e.to_string()));
                    tally.judge(&resp, req, self.pad);
                }
                Op::Flip => {
                    let (principal, view) = (ROLE.to_string(), PAD_VIEW.to_string());
                    let op = if self.pad {
                        AdminOp::RevokeView { principal, view }
                    } else {
                        AdminOp::GrantView { principal, view }
                    };
                    let admin = &mut self.admin;
                    let resp = tr.span("server.policy_change", || admin.admin(op));
                    tally.attempted += 1;
                    if !matches!(resp, Ok(Response::Ok(_))) {
                        tally.failed += 1;
                    }
                    self.pad = !self.pad;
                }
            }
        }
    }
}

// ---------------------------------------------------------------- depth B

/// Counters read before and after each recorded chunk of depth B.
#[derive(Clone, Copy, Default)]
struct Counters {
    plan_hits: u64,
    plan_misses: u64,
    plan_invalidated: u64,
    hits: u64,
    misses: u64,
    reval_hits: u64,
    reval_misses: u64,
    invalidated: u64,
    c3_probes: u64,
    fast_hits: u64,
    compiles: u64,
    policy_changes: u64,
}

impl Counters {
    fn read(shared: &SharedEngine) -> Counters {
        let (plan, validity) =
            shared.with_read(|e| (e.plan_cache().snapshot(), e.cache().snapshot()));
        Counters {
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            plan_invalidated: plan.invalidated,
            hits: validity.hits,
            misses: validity.misses,
            reval_hits: validity.revalidation_hits,
            reval_misses: validity.revalidation_misses,
            invalidated: validity.invalidated,
            c3_probes: fgac_core::nontruman::c3_probe_count(),
            fast_hits: fgac_core::compiled::fastpath_hit_count(),
            compiles: fgac_core::compiled::compile_count(),
            policy_changes: fgac_core::invalidation::policy_change_count(),
        }
    }

    fn add(&mut self, d: Counters) {
        self.plan_hits += d.plan_hits;
        self.plan_misses += d.plan_misses;
        self.plan_invalidated += d.plan_invalidated;
        self.hits += d.hits;
        self.misses += d.misses;
        self.reval_hits += d.reval_hits;
        self.reval_misses += d.reval_misses;
        self.invalidated += d.invalidated;
        self.c3_probes += d.c3_probes;
        self.fast_hits += d.fast_hits;
        self.compiles += d.compiles;
        self.policy_changes += d.policy_changes;
    }

    fn since(self, then: Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits - then.plan_hits,
            plan_misses: self.plan_misses - then.plan_misses,
            plan_invalidated: self.plan_invalidated - then.plan_invalidated,
            hits: self.hits - then.hits,
            misses: self.misses - then.misses,
            reval_hits: self.reval_hits - then.reval_hits,
            reval_misses: self.reval_misses - then.reval_misses,
            invalidated: self.invalidated - then.invalidated,
            c3_probes: self.c3_probes - then.c3_probes,
            fast_hits: self.fast_hits - then.fast_hits,
            compiles: self.compiles - then.compiles,
            policy_changes: self.policy_changes - then.policy_changes,
        }
    }
}

struct DepthB {
    shared: SharedEngine,
    sessions: Vec<Session>,
    tr: Tracer,
    pad: bool,
    /// Over the recorded chunks. Some counters are process-wide, so each
    /// chunk adds its own difference.
    counters: Counters,
}

impl DepthB {
    fn new(scale: Scale, seed: u64) -> DepthB {
        let b = setup::build(scale, seed, None);
        DepthB {
            sessions: sessions_of(&b),
            shared: SharedEngine::new(b.engine),
            tr: Tracer::new(true),
            pad: true,
            counters: Counters::default(),
        }
    }
}

fn sessions_of(b: &setup::Built) -> Vec<Session> {
    b.students
        .iter()
        .map(|st| Session::new(st.id.clone()))
        .collect()
}

impl Depth for DepthB {
    fn run(&mut self, ops: &[Op], first_id: u32, recorded: bool, tally: &mut Tally) {
        let (shared, tr) = (&self.shared, &mut self.tr);
        let before = Counters::read(shared);
        let spans_before = tr.spans.len();
        for (i, op) in ops.iter().enumerate() {
            tr.begin_request(first_id + i as u32);
            match op {
                Op::Query { who, req } => {
                    let session = &self.sessions[*who];
                    let outer = tr.enter("core.shared.execute");
                    let read = shared.with_read(|e| {
                        let id = tr.enter("core.engine.execute");
                        let r = e.try_execute_read(session, &req.sql, None);
                        tr.exit(id);
                        if r.is_none() {
                            // A write: the shared engine parsed it under
                            // the read lock only to find that out.
                            tr.rename(id, "core.engine.read_attempt");
                        }
                        r
                    });
                    let result = match read {
                        Some(r) => r,
                        None => shared.with_write(|e| {
                            tr.span("core.engine.execute", || {
                                e.execute_at(session, &req.sql, None)
                            })
                        }),
                    };
                    tr.exit(outer);
                    tally.judge(&to_response(result), req, self.pad);
                }
                Op::Flip => {
                    let outer = tr.enter("core.shared.policy_change");
                    let r = shared.with_write(|e| {
                        if self.pad {
                            e.revoke_view(ROLE, PAD_VIEW)
                        } else {
                            e.grant_view(ROLE, PAD_VIEW)
                        }
                    });
                    tr.exit(outer);
                    tally.attempted += 1;
                    if r.is_err() {
                        tally.failed += 1;
                    }
                    self.pad = !self.pad;
                }
            }
        }
        if recorded {
            self.counters.add(Counters::read(shared).since(before));
        } else {
            tr.spans.truncate(spans_before);
        }
    }
}

// ---------------------------------------------------------------- depth C

/// Facts depth C reads off the prover's reports.
#[derive(Default)]
struct ProverFacts {
    views_considered: Vec<f64>,
    dag_op_nodes: Vec<f64>,
    dag_eq_nodes: Vec<f64>,
    rows_out: u64,
    resp_bytes: u64,
    queries: u64,
}

struct DepthC {
    e: Engine,
    sessions: Vec<Session>,
    tr: Tracer,
    /// Take the stand-alone measurements after each request that ran
    /// the prover.
    standalone: bool,
    pad: bool,
    /// Whole-request wall time per op, taken outside the tracer so the
    /// traced and untraced twins are timed the same way.
    outer_us: Vec<f64>,
    facts: ProverFacts,
    rows_cloned: u64,
}

/// The instantiated plans of every authorization view `user` holds: the
/// inputs of the stand-alone DAG expansion.
fn view_plans(e: &Engine, session: &Session) -> Vec<Plan> {
    let catalog = e.database().catalog();
    e.grants()
        .views_for(session.user())
        .into_iter()
        .filter_map(|name| catalog.view(&name))
        .filter(|def| def.authorization)
        .map(|def| AuthorizationView::new(def.name.clone(), def.query.clone()))
        .filter(|v| !v.is_access_pattern())
        .filter_map(|v| v.instantiate(catalog, session.params()).ok())
        .map(|bound| fgac_algebra::normalize(&bound.plan))
        .collect()
}

/// The views the validator keeps for `query`: those sharing a table
/// with it, transitively (Section 5.6 pruning).
fn relevant<'a>(views: &'a [Plan], query: &Plan) -> Vec<&'a Plan> {
    let mut tables: Vec<Ident> = query.scanned_tables();
    loop {
        let before = tables.len();
        for v in views {
            let vt = v.scanned_tables();
            if vt.iter().any(|t| tables.contains(t)) {
                for t in vt {
                    if !tables.contains(&t) {
                        tables.push(t);
                    }
                }
            }
        }
        if tables.len() == before {
            break;
        }
    }
    views
        .iter()
        .filter(|v| v.scanned_tables().iter().any(|t| tables.contains(t)))
        .collect()
}

/// One query through the admission pipeline, layer by layer: what
/// `Engine::try_execute_read` does, spelled out in public calls.
fn admit_and_execute(
    e: &mut Engine,
    session: &Session,
    sql: &str,
    tr: &mut Tracer,
    facts: &mut ProverFacts,
) -> Result<EngineResponse, Error> {
    let params = session.params();
    let cached = tr.span("core.plancache.get", || e.plan_cache().get(sql, params));
    let cached = match cached {
        Some(c) => c,
        None => {
            let stmt = tr.span("sql.parse", || fgac_sql::parse_statement(sql))?;
            let q = match &stmt {
                Statement::Query(q) => q,
                dml => {
                    let name = match dml {
                        Statement::Insert(_) => "core.engine.dml.insert",
                        Statement::Update(_) => "core.engine.dml.update",
                        _ => "core.engine.dml.delete",
                    };
                    let s = tr.enter(name);
                    let r = e.execute_statement(session, &stmt);
                    tr.exit(s);
                    if matches!(r, Err(Error::Unauthorized(_))) {
                        tr.rename(s, "core.engine.dml.denied");
                    }
                    return r;
                }
            };
            let catalog = e.database().catalog();
            let bound = tr.span("algebra.bind", || {
                fgac_algebra::bind_query(catalog, q, params)
            })?;
            let normalized = tr.span("algebra.normalize", || fgac_algebra::normalize(&bound.plan));
            let validity_fp = tr.span("core.cache.fingerprint", || {
                ValidityCache::fingerprint_in_session(&normalized, params)
            });
            let s = tr.enter("core.plancache.insert");
            let mut deps = fgac_core::invalidation::query_dependencies(catalog, q);
            deps.extend(normalized.scanned_tables());
            let cached = Arc::new(CachedPlan {
                bound,
                normalized,
                validity_fp,
                deps,
            });
            e.plan_cache().insert(sql, params, cached.clone());
            tr.exit(s);
            cached
        }
    };

    let (user, fp) = (session.user(), cached.validity_fp);
    let (version, epoch) = (e.data_version(), e.policy_epoch());
    let outcome = tr.span("core.cache.lookup", || {
        e.cache().lookup(user, fp, version, epoch)
    });
    let mut cold = false;
    let valid = match outcome {
        CacheOutcome::Hit(verdict) => verdict != fgac_core::Verdict::Invalid,
        CacheOutcome::Stale { cert, .. } => {
            let diags = tr.span("analyze.revalidate_certificate", || {
                fgac_analyze::revalidate_certificate(
                    &cert,
                    &e.certificate_policy(),
                    &fgac_analyze::CheckerOptions::default(),
                )
            });
            if diags.is_empty() {
                e.cache().revalidated(user, fp, epoch);
                true
            } else {
                e.cache().evict_stale(user, fp);
                cold = true;
                false
            }
        }
        CacheOutcome::Miss => {
            cold = true;
            false
        }
    };
    let valid = if cold {
        let caps = tr.span("core.compiled.principal", || {
            e.compiled_policies()
                .principal(epoch, user, e.database().catalog(), e.grants())
        });
        let s = tr.enter("core.nontruman.check_plan");
        let report = Validator::new(e.database(), e.grants())
            .with_compiled(caps)
            .check_plan(session, &cached.normalized);
        tr.exit(s);
        let mut report = report?;
        if let Some(cert) = &mut report.certificate {
            cert.policy_epoch = epoch;
        }
        if report.dag_stats.op_nodes > 0 {
            facts.views_considered.push(report.views_considered as f64);
            facts.dag_op_nodes.push(report.dag_stats.op_nodes as f64);
            facts.dag_eq_nodes.push(report.dag_stats.eq_nodes as f64);
        }
        let s = tr.enter("core.cache.store");
        let cert = report.certificate.clone().map(Arc::new);
        e.cache()
            .store(user, fp, version, epoch, report.verdict, cert);
        tr.exit(s);
        report.is_valid()
    } else {
        valid
    };
    if !valid {
        return Err(Error::Unauthorized(
            "query rejected by the Non-Truman validity check".into(),
        ));
    }
    let rows = tr.span("exec.execute_bound", || {
        fgac_exec::execute_bound(e.database(), &cached.bound)
    })?;
    Ok(EngineResponse::Rows(fgac_exec::QueryResult {
        names: cached.bound.output_names.clone(),
        rows,
    }))
}

/// Stand-alone measurements on the plan a cold check just saw. They run
/// after the request, outside its span, on the twin kept for them.
fn aux_measurements(e: &Engine, session: &Session, sql: &str, tr: &mut Tracer) {
    let Some(cached) = e.plan_cache().get(sql, session.params()) else {
        return;
    };
    let plan = &cached.normalized;
    let caps = tr.span("aux.core.compiled.admit", || {
        let caps = e.compiled_policies().principal(
            e.policy_epoch(),
            session.user(),
            e.database().catalog(),
            e.grants(),
        );
        let block = SpjBlock::decompose(plan);
        std::hint::black_box(caps.admit(plan, block.as_ref()));
        caps
    });
    let check = |emit: bool| {
        Validator::new(e.database(), e.grants())
            .with_options(CheckOptions {
                emit_certificates: emit,
                ..CheckOptions::default()
            })
            .with_compiled(caps.clone())
            .check_plan(session, plan)
    };
    let _ = tr.span("aux.core.nontruman.check_plan_nocert", || check(false));
    // The certified twin of the line above, timed the same way after
    // it, so their difference is emission alone.
    let report = tr.span("aux.core.nontruman.check_plan_cert", || check(true));
    let views = view_plans(e, session);
    let views = relevant(&views, plan);
    tr.span("aux.optimizer.expand", || {
        let mut dag = fgac_optimizer::Dag::new();
        dag.insert_plan(plan);
        for v in &views {
            dag.insert_plan(v);
        }
        std::hint::black_box(fgac_optimizer::expand(
            &mut dag,
            &fgac_optimizer::ExpandOptions::default(),
        ));
    });
    if let Ok(fgac_core::ValidityReport {
        certificate: Some(mut cert),
        ..
    }) = report
    {
        cert.policy_epoch = e.policy_epoch();
        tr.span("aux.analyze.check_certificate", || {
            std::hint::black_box(fgac_analyze::check_certificate(
                &cert,
                &e.certificate_policy(),
                &fgac_analyze::CheckerOptions::default(),
            ));
        });
    }
}

impl DepthC {
    /// `traced: false` is the twin the tracing overhead is measured
    /// against: the same calls, no spans. `standalone: true` is the twin
    /// that takes the stand-alone measurements; they leave the
    /// processor's caches cold for the request after them (its executor
    /// scan reads a third slower), so only their own spans are read off
    /// that twin.
    fn new(scale: Scale, seed: u64, traced: bool, standalone: bool) -> DepthC {
        let b = setup::build(scale, seed, None);
        DepthC {
            sessions: sessions_of(&b),
            e: b.engine,
            tr: Tracer::new(traced),
            standalone,
            pad: true,
            outer_us: Vec::new(),
            facts: ProverFacts::default(),
            rows_cloned: 0,
        }
    }
}

impl Depth for DepthC {
    fn run(&mut self, ops: &[Op], first_id: u32, recorded: bool, tally: &mut Tally) {
        let (e, tr) = (&mut self.e, &mut self.tr);
        // What an unrecorded chunk records is thrown away.
        let mut scratch = ProverFacts::default();
        let facts = if recorded {
            &mut self.facts
        } else {
            &mut scratch
        };
        let chunk_spans = tr.spans.len();
        let cloned_before = fgac_exec::rows_cloned();
        for (i, op) in ops.iter().enumerate() {
            tr.begin_request(first_id + i as u32);
            let t = Instant::now();
            let outer = tr.enter("request");
            match op {
                Op::Query { who, req } => {
                    let session = &self.sessions[*who];
                    let spans_before = tr.spans.len();
                    let result = admit_and_execute(e, session, &req.sql, tr, facts);
                    if let Ok(EngineResponse::Rows(q)) = &result {
                        facts.rows_out += q.rows.len() as u64;
                    }
                    let resp = to_response(result);
                    let bytes = tr.span("server.frame.encode", || {
                        let (kind, payload) = resp.to_frame();
                        encode_frame(kind, &payload).expect("response fits a frame")
                    });
                    let decoded = tr.span("server.frame.decode", || {
                        let header: &[u8; HEADER_LEN] =
                            bytes[..HEADER_LEN].try_into().expect("header");
                        let h = decode_header(header).expect("header verifies");
                        verify_payload(&h, &bytes[HEADER_LEN..]).expect("payload verifies");
                        Response::from_frame(h.kind, &bytes[HEADER_LEN..])
                            .expect("response decodes")
                    });
                    tr.exit(outer);
                    self.outer_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    facts.resp_bytes += bytes.len() as u64;
                    facts.queries += 1;
                    tally.judge(&decoded, req, self.pad);
                    let ran_prover = tr.spans[spans_before..]
                        .iter()
                        .any(|sp| sp.name == "core.nontruman.check_plan");
                    if self.standalone && recorded && ran_prover {
                        aux_measurements(e, session, &req.sql, tr);
                    }
                }
                Op::Flip => {
                    let r = tr.span("core.engine.policy_change", || {
                        if self.pad {
                            e.revoke_view(ROLE, PAD_VIEW)
                        } else {
                            e.grant_view(ROLE, PAD_VIEW)
                        }
                    });
                    tr.exit(outer);
                    self.outer_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    tally.attempted += 1;
                    if r.is_err() {
                        tally.failed += 1;
                    }
                    self.pad = !self.pad;
                }
            }
        }
        if recorded {
            self.rows_cloned += fgac_exec::rows_cloned() - cloned_before;
        } else {
            tr.spans.truncate(chunk_spans);
            self.outer_us.clear();
        }
    }
}

// ------------------------------------------------------- durable DML passes

/// Runs the writer's statements alone through `Engine::execute`, on an
/// in-memory engine or a durable one; returns the latencies (µs) of the
/// authorized ones and the log bytes they added.
fn writes_only(
    scale: Scale,
    seed: u64,
    ops: &[Req],
    opts: Option<DurabilityOptions>,
) -> (Vec<f64>, u64) {
    let dir = setup::scratch_dir().join(format!("replay-wal-{}", std::process::id()));
    let b = setup::build(scale, seed, opts.map(|o| (dir.as_path(), o)));
    let session = Session::new(b.students[0].id.clone());
    let mut e = b.engine;
    let log = dir.join("wal.log");
    let len = || std::fs::metadata(&log).map_or(0, |m| m.len());
    let before = len();
    let mut lats = Vec::new();
    for req in ops {
        let t = Instant::now();
        let r = e.execute(&session, &req.sql);
        if req.class == Class::Write {
            lats.push(t.elapsed().as_nanos() as f64 / 1e3);
            assert!(
                r.is_ok(),
                "authorized write failed in the writes-only pass: {r:?}"
            );
        }
    }
    let grown = len().saturating_sub(before);
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
    (lats, grown)
}

// ------------------------------------------------------------------ report

/// Ops each depth runs before the next depth takes its turn.
const CHUNK: usize = 50;

pub struct ReplayReport {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub stale_accepts: u64,
    /// p99s of the spans with at least 1 000 samples, for the report file.
    pub p99_us: BTreeMap<&'static str, f64>,
}

/// How many requests each workload replays, and how many writer
/// statements the durable passes run (enough authorized ones that the
/// default `snapshot_every: 1024` fires at least once).
pub fn replay_len(w: Workload, smoke: bool) -> (usize, usize) {
    if smoke {
        return (200, 80);
    }
    match w {
        Workload::ReadWarm => (2000, 0),
        Workload::AdmitCold => (1000, 0),
        Workload::WriteMix => (800, 1400),
        Workload::PolicyChurn => (1500, 0),
    }
}

pub fn run(w: Workload, scale: Scale, seed: u64, smoke: bool) -> ReplayReport {
    let (n, dml_n) = replay_len(w, smoke);
    let s = script(w, scale, seed, n, dml_n);
    let mut tally = Tally::default();
    let mut a = DepthA::new(scale, seed);
    let mut b = DepthB::new(scale, seed);
    let mut c = DepthC::new(scale, seed, true, false);
    let mut c_plain = DepthC::new(scale, seed, false, false);
    let mut c_aux = DepthC::new(scale, seed, true, true);
    let chunks = std::iter::once((&s.fill[..], 0, false)).chain(
        s.ops
            .chunks(CHUNK)
            .enumerate()
            .map(|(k, chunk)| (chunk, (k * CHUNK) as u32, true)),
    );
    for (chunk, first_id, recorded) in chunks {
        let depths: [&mut dyn Depth; 5] = [&mut a, &mut b, &mut c, &mut c_plain, &mut c_aux];
        for d in depths {
            d.run(chunk, first_id, recorded, &mut tally);
        }
    }
    let a = a.finish();
    let (b, counters) = (b.tr.spans, b.counters);
    let c_spans = &c.tr.spans;
    let aux_spans: Vec<Span> = c_aux
        .tr
        .spans
        .into_iter()
        .filter(|sp| sp.name.starts_with("aux."))
        .collect();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut p99_us: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut p50 = |metric: &'static str, mut samples: Vec<f64>| -> f64 {
        if samples.len() >= 1000 {
            p99_us.insert(metric, quantile_or_zero(&mut samples, 0.99));
        }
        let v = quantile_or_zero(&mut samples, 0.5);
        m.insert(metric, v);
        v
    };

    let roundtrip = p50(
        "server.roundtrip_us",
        trace::durations_us(&a, "server.roundtrip"),
    );
    let shared = p50(
        "core.shared.execute_us",
        trace::durations_us(&b, "core.shared.execute"),
    );
    p50(
        "core.shared.lock_self_us",
        trace::self_us(&b, "core.shared.execute"),
    );
    p50(
        "core.engine.execute_us",
        trace::durations_us(&b, "core.engine.execute"),
    );
    for (metric, span) in [
        ("server.frame.encode_us", "server.frame.encode"),
        ("server.frame.decode_us", "server.frame.decode"),
        ("sql.parse_us", "sql.parse"),
        ("algebra.bind_us", "algebra.bind"),
        ("algebra.normalize_us", "algebra.normalize"),
        ("core.cache.fingerprint_us", "core.cache.fingerprint"),
        ("core.plancache.get_us", "core.plancache.get"),
        ("core.cache.lookup_us", "core.cache.lookup"),
        ("core.compiled.admit_us", "aux.core.compiled.admit"),
        ("core.nontruman.check_plan_us", "core.nontruman.check_plan"),
        (
            "core.nontruman.check_plan_nocert_us",
            "aux.core.nontruman.check_plan_nocert",
        ),
        ("optimizer.expand_us", "aux.optimizer.expand"),
        ("core.engine.policy_change_us", "core.engine.policy_change"),
        ("exec.execute_bound_us", "exec.execute_bound"),
        ("core.engine.dml_inmem_us.insert", "core.engine.dml.insert"),
        ("core.engine.dml_inmem_us.update", "core.engine.dml.update"),
        ("core.engine.dml_inmem_us.delete", "core.engine.dml.delete"),
        ("core.engine.dml_inmem_us.denied", "core.engine.dml.denied"),
    ] {
        let from = if span.starts_with("aux.") {
            &aux_spans
        } else {
            c_spans
        };
        p50(metric, trace::durations_us(from, span));
    }
    // Certificates are checked on the request path when a stale accept
    // is revalidated, and stand-alone on every freshly minted one.
    let mut cert_checks = trace::durations_us(c_spans, "analyze.revalidate_certificate");
    cert_checks.extend(trace::durations_us(
        &aux_spans,
        "aux.analyze.check_certificate",
    ));
    p50("analyze.check_certificate_us", cert_checks);
    let nocert = m["core.nontruman.check_plan_nocert_us"];
    let with_cert = quantile_or_zero(
        &mut trace::durations_us(&aux_spans, "aux.core.nontruman.check_plan_cert"),
        0.5,
    );
    m.insert("analyze.cert_emit_self_us", (with_cert - nocert).max(0.0));
    m.insert("server.wire_queue_self_us", (roundtrip - shared).max(0.0));

    let queries = c.facts.queries.max(1) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    m.insert(
        "server.resp_bytes_per_req",
        c.facts.resp_bytes as f64 / queries,
    );
    m.insert("exec.rows_cloned_per_req", c.rows_cloned as f64 / queries);
    m.insert("exec.rows_out_per_req", c.facts.rows_out as f64 / queries);
    m.insert(
        "core.nontruman.views_considered",
        mean(&c.facts.views_considered),
    );
    m.insert("optimizer.dag_op_nodes", mean(&c.facts.dag_op_nodes));
    m.insert("optimizer.dag_eq_nodes", mean(&c.facts.dag_eq_nodes));
    m.insert(
        "core.plancache.hit_ratio",
        ratio(
            counters.plan_hits,
            counters.plan_hits + counters.plan_misses,
        ),
    );
    m.insert(
        "core.plancache.invalidated",
        counters.plan_invalidated as f64,
    );
    m.insert(
        "core.cache.hit_ratio",
        ratio(counters.hits, counters.hits + counters.misses),
    );
    m.insert(
        "core.compiled.fastpath_hit_ratio",
        counters.fast_hits as f64 / queries,
    );
    m.insert("core.compiled.compile_count", counters.compiles as f64);
    m.insert(
        "core.nontruman.c3_probes_per_req",
        counters.c3_probes as f64 / queries,
    );
    m.insert("core.cache.revalidation_hits", counters.reval_hits as f64);
    m.insert(
        "core.cache.revalidation_misses",
        counters.reval_misses as f64,
    );
    m.insert("core.cache.invalidated", counters.invalidated as f64);
    m.insert(
        "core.invalidation.policy_changes",
        counters.policy_changes as f64,
    );

    // Depth C must account for depth B's time, or a layer is missing.
    let engine_side =
        |sp: &&Span| sp.parent != trace::NO_PARENT && !sp.name.starts_with("server.frame");
    let c_ns: u64 = c_spans.iter().filter(engine_side).map(Span::dur_ns).sum();
    let b_ns: u64 = b
        .iter()
        .filter(|sp| sp.parent == trace::NO_PARENT)
        .map(Span::dur_ns)
        .sum();
    m.insert("trace.depth_c_coverage", ratio(c_ns, b_ns));
    let traced_us = quantile_or_zero(&mut c.outer_us.clone(), 0.5);
    let plain_us = quantile_or_zero(&mut c_plain.outer_us, 0.5);
    m.insert(
        "trace.overhead_ratio",
        if shared > 0.0 {
            (traced_us - plain_us).max(0.0) / shared
        } else {
            0.0
        },
    );

    if w == Workload::WriteMix {
        let writes = &s.writes;
        // The two medians need far fewer statements than the snapshot
        // needs records.
        let short = &writes[..writes.len().min(600)];
        let no_snapshot = DurabilityOptions {
            sync_on_commit: false,
            snapshot_every: 0,
        };
        let (mut inmem, _) = writes_only(scale, seed, short, None);
        let (mut plain, grown) = writes_only(scale, seed, short, Some(no_snapshot));
        let (mut stalls, _) = writes_only(scale, seed, writes, Some(DurabilityOptions::default()));
        let authorized = plain.len().max(1) as f64;
        m.insert("wal.log_bytes_per_write", grown as f64 / authorized);
        let durable_p50 = quantile_or_zero(&mut plain, 0.5);
        m.insert("core.durability.dml_durable_us", durable_p50);
        m.insert(
            "wal.append_self_us",
            (durable_p50 - quantile_or_zero(&mut inmem, 0.5)).max(0.0),
        );
        let stall_p99 = quantile_or_zero(&mut stalls, 0.99) - quantile_or_zero(&mut plain, 0.99);
        m.insert("wal.snapshot_stall_p99_us", stall_p99.max(0.0));
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        m.insert(
            "wal.snapshot_stall_max_us",
            (max(&stalls) - max(&plain)).max(0.0),
        );
    }

    let path = setup::scratch_dir().join(format!("{}.trace.jsonl", w.name()));
    let file = std::fs::File::create(&path).expect("create trace file");
    let mut out = std::io::BufWriter::new(file);
    for (depth, spans) in [
        ("A", &a),
        ("B", &b),
        ("C", c_spans),
        ("C-standalone", &aux_spans),
    ] {
        trace::write_jsonl(&mut out, depth, spans).expect("write trace");
    }
    std::io::Write::flush(&mut out).expect("flush trace");

    ReplayReport {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        stale_accepts: tally.stale,
        p99_us,
    }
}
