//! The engine façade: the object a downstream application talks to.
//!
//! Wires together the database, grants, the Non-Truman validator (with
//! caching), per-tuple update authorization, and the Truman baseline.
//! DDL and grant management run through `admin_*` methods (the DBA
//! path); `execute` is the user path and enforces access control.
//!
//! ## The hot path
//!
//! A repeated query under warm caches costs: one plan-cache lookup
//! (skips parse + bind + normalize + fingerprint), one validity-cache
//! lookup (skips the whole inference pipeline), and one executor run
//! over borrowed scans (clones only the surviving rows). See
//! DESIGN.md "Hot path & caching layers".

use crate::admitted::Admitted;
use crate::cache::{CacheOutcome, ValidityCache};
use crate::durability::Durability;
use crate::grants::Grants;
use crate::invalidation::{PolicyDelta, PolicyState};
use crate::nontruman::{CheckOptions, Validator, Verdict, ValidityReport};
use crate::plancache::{CachedPlan, PlanCache};
use crate::session::Session;
use crate::truman::TrumanPolicy;
use crate::updates::UpdateAuthorizer;
use fgac_algebra::{BoundQuery, Plan};
use fgac_analyze::Diagnostic;
use fgac_exec::QueryResult;
use fgac_sql::{GrantKind, Statement};
use fgac_storage::{Database, ForeignKey, InclusionDependency, ViewDef};
use fgac_types::{Error, Ident, Result, Row, Schema, Value};
use fgac_wal::WalRecord;
use std::sync::Arc;
use std::time::Instant;

/// Response from [`Engine::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineResponse {
    /// A validated query's result (the query ran **unmodified**).
    Rows(QueryResult),
    /// DML outcome: number of affected tuples.
    Affected(usize),
}

impl EngineResponse {
    pub fn rows(&self) -> Option<&QueryResult> {
        match self {
            EngineResponse::Rows(r) => Some(r),
            _ => None,
        }
    }

    pub fn affected(&self) -> Option<usize> {
        match self {
            EngineResponse::Affected(n) => Some(*n),
            _ => None,
        }
    }
}

/// The fine-grained access control engine.
pub struct Engine {
    pub(crate) db: Database,
    /// Grants, the policy epoch and every cache derived from them; they
    /// change only through [`PolicyState::apply`] and its siblings.
    pub(crate) policy: PolicyState,
    options: CheckOptions,
    /// Bumped on every successful DML — versions conditional verdicts
    /// and denials.
    pub(crate) data_version: u64,
    /// `Some` when the engine writes a WAL (see [`Engine::open`]).
    pub(crate) durability: Option<Durability>,
    /// Set by [`Engine::close`]. A closed engine returns a clean
    /// [`Error::Unsupported`] from every entry point instead of serving
    /// (or re-syncing) — double-close and use-after-close are defined,
    /// non-panicking states.
    pub(crate) closed: bool,
}

impl Engine {
    pub fn new() -> Self {
        Engine {
            db: Database::new(),
            policy: PolicyState::new(),
            options: CheckOptions::default(),
            data_version: 0,
            durability: None,
            closed: false,
        }
    }

    /// Clean-error guard on every entry point of a closed engine.
    pub(crate) fn ensure_open(&self) -> Result<()> {
        if self.closed {
            return Err(Error::Unsupported(
                "engine is closed: no further statements are accepted".into(),
            ));
        }
        Ok(())
    }

    /// True once [`Engine::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Replaces the checker options (e.g. `CheckOptions::basic_only()`).
    pub fn with_check_options(mut self, options: CheckOptions) -> Self {
        self.options = options;
        self
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn grants(&self) -> &Grants {
        self.policy.grants()
    }

    pub fn cache(&self) -> &ValidityCache {
        self.policy.validity_cache()
    }

    pub fn plan_cache(&self) -> &PlanCache {
        self.policy.plan_cache()
    }

    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    pub fn policy_epoch(&self) -> u64 {
        self.policy.epoch()
    }

    /// The compiled-policy store (fast-path capability snapshots).
    pub fn compiled_policies(&self) -> &crate::compiled::CompiledPolicies {
        self.policy.compiled()
    }

    // ---------------- DBA path ----------------

    /// Runs a DDL/DML script with no access checks (the DBA loads
    /// schema, constraints, views, and seed data this way).
    pub fn admin_script(&mut self, sql: &str) -> Result<()> {
        self.ensure_open()?;
        for stmt in fgac_sql::parse_statements(sql)? {
            self.admin_statement(&stmt)?;
        }
        Ok(())
    }

    /// Executes one admin statement.
    pub fn admin_statement(&mut self, stmt: &Statement) -> Result<()> {
        self.ensure_open()?;
        match stmt {
            Statement::CreateTable(_)
            | Statement::CreateView(_)
            | Statement::CreateInclusionDependency(_) => self.apply_ddl_logged(stmt),
            Statement::Insert(i) => self.admin_dml(|db| {
                fgac_exec::execute_insert(db, i, &fgac_algebra::ParamScope::new()).map(|_| ())
            }),
            Statement::Update(u) => self.admin_dml(|db| {
                fgac_exec::execute_update(db, u, &fgac_algebra::ParamScope::new()).map(|_| ())
            }),
            Statement::Delete(d) => self.admin_dml(|db| {
                fgac_exec::execute_delete(db, d, &fgac_algebra::ParamScope::new()).map(|_| ())
            }),
            Statement::Authorize(_) => Err(Error::Unsupported(
                "AUTHORIZE statements are granted to principals: use grant_update_sql".into(),
            )),
            Statement::Grant(g) => match g.kind {
                GrantKind::View => self.grant_view(&g.principal, g.object.as_str()),
                GrantKind::Constraint => self.grant_constraint(&g.principal, g.object.as_str()),
                GrantKind::Role => self.add_role(&g.principal, g.object.as_str()),
            },
            Statement::AnalyzePolicy(_) => Err(Error::Unsupported(
                "ANALYZE POLICY returns rows: call Engine::analyze_policy for the \
                 whole-set report (sessions running it through execute see only \
                 their own grants)"
                    .into(),
            )),
            Statement::AnalyzeFlow(_) => Err(Error::Unsupported(
                "ANALYZE FLOW returns rows: call Engine::analyze_flow for the \
                 whole-set report (sessions running it through execute see only \
                 their own lattice)"
                    .into(),
            )),
            Statement::ExplainAuthorization(_) => Err(Error::Unsupported(
                "EXPLAIN AUTHORIZATION is session-scoped: run it through execute \
                 so the derivation is against the session's own grants"
                    .into(),
            )),
            Statement::Query(_) => Err(Error::Unsupported(
                "admin_script does not run queries; use execute".into(),
            )),
        }
    }

    /// Applies one DDL statement to the catalog and bumps the epoch.
    /// Shared by the live admin path and WAL replay — both must produce
    /// the same catalog state and version counters.
    pub(crate) fn apply_ddl(&mut self, stmt: &Statement) -> Result<()> {
        match stmt {
            Statement::CreateTable(t) => {
                let schema = Schema::new(
                    t.columns
                        .iter()
                        .map(|c| {
                            let mut col = fgac_types::Column::new(c.name.clone(), c.ty);
                            if c.nullable {
                                col = col.nullable();
                            }
                            col
                        })
                        .collect(),
                );
                self.db
                    .create_table(t.name.clone(), schema, t.primary_key.clone())?;
                for (i, fk) in t.foreign_keys.iter().enumerate() {
                    self.db.add_foreign_key(ForeignKey {
                        name: Ident::new(format!("fk_{}_{i}", t.name)),
                        child_table: t.name.clone(),
                        child_columns: fk.columns.clone(),
                        parent_table: fk.parent_table.clone(),
                        parent_columns: fk.parent_columns.clone(),
                    })?;
                }
                self.policy.apply(PolicyDelta::NewTable {
                    table: t.name.clone(),
                });
                Ok(())
            }
            Statement::CreateView(v) => {
                self.db.add_view(ViewDef {
                    name: v.name.clone(),
                    authorization: v.authorization,
                    query: v.query.clone(),
                })?;
                self.policy.apply(PolicyDelta::NewView {
                    view: v.name.clone(),
                });
                Ok(())
            }
            Statement::CreateInclusionDependency(d) => {
                self.db.add_inclusion_dependency(InclusionDependency {
                    name: d.name.clone(),
                    src_table: d.src_table.clone(),
                    src_columns: d.src_columns.clone(),
                    src_filter: d.src_filter.clone(),
                    dst_table: d.dst_table.clone(),
                    dst_columns: d.dst_columns.clone(),
                    dst_filter: d.dst_filter.clone(),
                })?;
                self.policy.apply(PolicyDelta::NewConstraint {
                    name: d.name.clone(),
                });
                Ok(())
            }
            _ => Err(Error::Internal("apply_ddl called on non-DDL".into())),
        }
    }

    /// DDL commit protocol: apply, then log. If the WAL append fails,
    /// the catalog change is structurally undone and the statement fails
    /// — the catalog never runs ahead of the log.
    fn apply_ddl_logged(&mut self, stmt: &Statement) -> Result<()> {
        if self.durability.is_none() {
            return self.apply_ddl(stmt);
        }
        let fks_before = self.db.catalog().foreign_keys().len();
        let deps_before = self.db.catalog().inclusion_dependencies().len();
        self.apply_ddl(stmt)?;
        if let Err(e) = self.log_commit(WalRecord::Ddl {
            sql: fgac_sql::print_statement(stmt),
        }) {
            match stmt {
                Statement::CreateTable(t) => {
                    let _ = self.db.drop_table(&t.name);
                    self.db.truncate_foreign_keys(fks_before);
                }
                Statement::CreateView(v) => {
                    let _ = self.db.drop_view(&v.name);
                }
                Statement::CreateInclusionDependency(_) => {
                    self.db.truncate_inclusion_dependencies(deps_before);
                }
                _ => {}
            }
            return Err(e);
        }
        self.maybe_snapshot();
        Ok(())
    }

    /// Admin DML commit protocol: take the statement mark, execute
    /// against the database, then commit ([`Engine::commit_dml`]). On
    /// failure everything journaled since the mark is rolled back.
    fn admin_dml(&mut self, f: impl FnOnce(&mut Database) -> Result<()>) -> Result<()> {
        let mark = self.db.mark();
        match f(&mut self.db) {
            Ok(()) => self.commit_dml(mark),
            Err(e) => {
                self.db.rollback_to(mark);
                Err(e)
            }
        }
    }

    /// Direct (key-checked) row insertion for loaders/benches.
    pub fn admin_insert(&mut self, table: &Ident, row: Row) -> Result<()> {
        self.ensure_open()?;
        self.admin_dml(|db| db.insert(table, row))
    }

    /// Bulk load without per-row constraint checks; each key index is
    /// built once, after the rows are in. Atomic: a failure mid-load
    /// rolls the table back to its pre-load rows.
    pub fn admin_load(&mut self, table: &Ident, rows: Vec<Row>) -> Result<usize> {
        self.ensure_open()?;
        let n = rows.len();
        self.admin_dml(|db| db.load(table, rows).map(drop))?;
        Ok(n)
    }

    /// Grants an authorization view to a principal. Log-then-apply: on a
    /// durable engine the record is committed first, so the grant tables
    /// never run ahead of the log.
    pub fn grant_view(&mut self, principal: &str, view: &str) -> Result<()> {
        self.commit_policy(WalRecord::GrantView {
            principal: principal.into(),
            view: view.into(),
        })
    }

    /// Revokes an authorization view from a principal. Cached verdicts
    /// derived under the old grant set are dropped or left to revalidate.
    pub fn revoke_view(&mut self, principal: &str, view: &str) -> Result<()> {
        self.commit_policy(WalRecord::RevokeView {
            principal: principal.into(),
            view: view.into(),
        })
    }

    /// Makes an integrity constraint visible to a principal (U3a
    /// condition 2).
    pub fn grant_constraint(&mut self, principal: &str, name: &str) -> Result<()> {
        self.commit_policy(WalRecord::GrantConstraint {
            principal: principal.into(),
            name: name.into(),
        })
    }

    /// Grants an `AUTHORIZE ...` update authorization (SQL text).
    pub fn grant_update_sql(&mut self, principal: &str, sql: &str) -> Result<()> {
        self.ensure_open()?;
        match fgac_sql::parse_statement(sql)? {
            Statement::Authorize(a) => {
                self.log_commit(WalRecord::GrantUpdate {
                    principal: principal.into(),
                    sql: sql.into(),
                })?;
                self.policy.grant_update(principal, a);
                self.maybe_snapshot();
                Ok(())
            }
            _ => Err(Error::Parse("expected an AUTHORIZE statement".into())),
        }
    }

    /// Adds a user to a role.
    pub fn add_role(&mut self, user: &str, role: &str) -> Result<()> {
        self.commit_policy(WalRecord::AddRole {
            user: user.into(),
            role: role.into(),
        })
    }

    /// Delegates a view grant between users (Section 6). The delegator
    /// must hold the view — validated *before* logging, so only
    /// legitimate delegations ever reach the log.
    pub fn delegate_view(&mut self, from: &str, to: &str, view: &str) -> Result<()> {
        self.ensure_open()?;
        let v = Ident::new(view);
        if !self.grants().views_for(from).contains(&v) {
            return Err(Error::Unauthorized(format!(
                "user {from} does not hold view {v} and cannot delegate it"
            )));
        }
        self.commit_policy(WalRecord::DelegateView {
            from: from.into(),
            to: to.into(),
            view: view.into(),
        })
    }

    /// The commit protocol of a grant record: log, then apply its
    /// [`PolicyDelta`].
    fn commit_policy(&mut self, record: WalRecord) -> Result<()> {
        self.ensure_open()?;
        let delta = crate::durability::policy_delta(&record)?;
        self.log_commit(record)?;
        self.policy.apply(delta);
        self.maybe_snapshot();
        Ok(())
    }

    // ---------------- user path ----------------

    /// Executes a statement under the **Non-Truman model**: queries are
    /// validity-checked and run unmodified or rejected; DML is authorized
    /// per tuple (Section 4.4).
    ///
    /// Repeated query texts take the zero-parse fast path: the admitted
    /// plan comes from the plan cache keyed on `(policy epoch, SQL,
    /// session parameters)`, so steady-state admission is two cache
    /// lookups.
    pub fn execute(&mut self, session: &Session, sql: &str) -> Result<EngineResponse> {
        self.execute_at(session, sql, None)
    }

    /// [`Engine::execute`] under a per-request wall-clock deadline.
    ///
    /// The deadline is threaded into the validity check's [`fgac_types::Budget`]
    /// meter (clamping any engine-configured allowance), so expiry
    /// surfaces exactly like fuel exhaustion: a fail-closed
    /// [`Error::ResourceExhausted`] whose verdict is **never cached** —
    /// a retry with time to spare may legitimately be accepted. A
    /// deadline already past denies before admission, touching neither
    /// the plan cache nor the validity cache.
    pub fn execute_at(
        &mut self,
        session: &Session,
        sql: &str,
        deadline: Option<Instant>,
    ) -> Result<EngineResponse> {
        self.ensure_open()?;
        check_deadline(deadline)?;
        if let Some(cached) = self.plan_cache().get(sql, session.params()) {
            return self.run_query(session, &cached, deadline);
        }
        let stmt = fgac_sql::parse_statement(sql)?;
        if let Statement::Query(q) = &stmt {
            let cached = self.plan_query(session, sql, q)?;
            return self.run_query(session, &cached, deadline);
        }
        self.execute_statement(session, &stmt)
    }

    /// The shared-read-lock execution path: runs `sql` if (and only if)
    /// it needs no `&mut` access — queries, `EXPLAIN AUTHORIZATION`, and
    /// session-scoped `ANALYZE POLICY`. Returns `None` for write
    /// statements (DML/DDL), which the caller must route through an
    /// exclusive path ([`crate::SharedEngine`] does exactly this).
    ///
    /// `deadline` is the request's wall-clock allowance, threaded into
    /// the validity check's budget meter (see [`Engine::execute_at`]).
    pub fn try_execute_read(
        &self,
        session: &Session,
        sql: &str,
        deadline: Option<Instant>,
    ) -> Option<Result<EngineResponse>> {
        if let Err(e) = self.ensure_open() {
            return Some(Err(e));
        }
        if let Err(e) = check_deadline(deadline) {
            return Some(Err(e));
        }
        if let Some(cached) = self.plan_cache().get(sql, session.params()) {
            return Some(self.run_query(session, &cached, deadline));
        }
        let stmt = match fgac_sql::parse_statement(sql) {
            Ok(stmt) => stmt,
            Err(e) => return Some(Err(e)),
        };
        match stmt {
            Statement::Query(q) => Some(
                self.plan_query(session, sql, &q)
                    .and_then(|cached| self.run_query(session, &cached, deadline)),
            ),
            Statement::AnalyzePolicy(a) => Some(self.analyze_policy_session(session, &a)),
            Statement::AnalyzeFlow(a) => Some(self.analyze_flow_session(session, &a)),
            Statement::ExplainAuthorization(ex) => Some(
                self.certify_query(session, &ex.query)
                    .map(|report| EngineResponse::Rows(explain_authorization_result(&report))),
            ),
            _ => None,
        }
    }

    /// The session-scoped `ANALYZE POLICY` arm, shared by the `&mut`
    /// statement path and the read path.
    fn analyze_policy_session(
        &self,
        session: &Session,
        a: &fgac_sql::AnalyzePolicy,
    ) -> Result<EngineResponse> {
        // The analyzer's output *is* policy metadata: grant sets, role
        // memberships, revocation tombstones, and messages that name
        // other views. On the session path that is the exact disclosure
        // channel P005 guards against, so a session may analyze only its
        // own effective grants; the whole-set report is admin surface
        // ([`Engine::analyze_policy`], `fgac-analyze`).
        if let Some(p) = a.principal.as_deref() {
            if p != session.user() {
                return Err(Error::Unauthorized(
                    "ANALYZE POLICY FOR another principal is admin-only; \
                     a session may analyze only its own grants"
                        .into(),
                ));
            }
        }
        let diags = self.analyze_policy(Some(session.user()));
        Ok(EngineResponse::Rows(diagnostics_result(&diags)))
    }

    /// The session-scoped `ANALYZE FLOW` arm, shared by the `&mut`
    /// statement path and the read path. Same disclosure discipline as
    /// `ANALYZE POLICY`: a flow report names other principals' views
    /// and lattice cells, so a session may analyze only its own.
    fn analyze_flow_session(
        &self,
        session: &Session,
        a: &fgac_sql::AnalyzeFlow,
    ) -> Result<EngineResponse> {
        if let Some(p) = a.principal.as_deref() {
            if p != session.user() {
                return Err(Error::Unauthorized(
                    "ANALYZE FLOW FOR another principal is admin-only; \
                     a session may analyze only its own disclosure lattice"
                        .into(),
                ));
            }
        }
        let diags = self.analyze_flow(Some(session.user()));
        Ok(EngineResponse::Rows(diagnostics_result(&diags)))
    }

    /// Binds, normalizes, and fingerprints a parsed query, publishing
    /// the result in the plan cache under the current policy epoch.
    /// Bind failures are returned (and not cached).
    pub(crate) fn plan_query(
        &self,
        session: &Session,
        sql: &str,
        q: &fgac_sql::Query,
    ) -> Result<Arc<CachedPlan>> {
        let bound = fgac_algebra::bind_query(self.db.catalog(), q, session.params())?;
        let normalized = fgac_algebra::normalize(&bound.plan);
        let validity_fp = ValidityCache::fingerprint_in_session(&normalized, session.params());
        // The entry's read set, for dependency invalidation: every name
        // binding resolved (views included, recursively) plus every base
        // table the normalized plan scans.
        let mut deps = crate::invalidation::query_dependencies(self.db.catalog(), q);
        deps.extend(normalized.scanned_tables());
        let cached = Arc::new(CachedPlan {
            bound,
            normalized,
            validity_fp,
            deps,
        });
        self.plan_cache().insert(sql, session.params(), cached.clone());
        Ok(cached)
    }

    /// Admits and runs a planned query (the text paths), under a request
    /// deadline. Panic-isolated like [`Engine::execute_statement`];
    /// queries never mutate tables, so there is nothing to roll back.
    pub(crate) fn run_query(
        &self,
        session: &Session,
        cached: &CachedPlan,
        deadline: Option<Instant>,
    ) -> Result<EngineResponse> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let admitted = self.admit(
                session,
                &cached.bound,
                &cached.normalized,
                cached.validity_fp,
                deadline,
            )?;
            admitted.execute()
        }));
        match outcome {
            Ok(result) => result.map(EngineResponse::Rows),
            Err(payload) => Err(Error::Internal(format!(
                "statement execution panicked: {}",
                panic_message(payload)
            ))),
        }
    }

    /// Executes an already-parsed statement (the prepared-statement
    /// path; see [`crate::Prepared`]).
    ///
    /// The user path is panic-isolated: an unwind anywhere below this
    /// frame becomes [`Error::Internal`], every write journaled since the
    /// statement mark is rolled back (and the touched tables' key
    /// indexes rebuilt), and the engine remains usable for subsequent
    /// statements.
    pub fn execute_statement(
        &mut self,
        session: &Session,
        stmt: &Statement,
    ) -> Result<EngineResponse> {
        self.ensure_open()?;
        let is_dml = matches!(
            stmt,
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)
        );
        let mark = self.db.mark();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute_statement_inner(session, stmt)
        }));
        match outcome {
            Ok(Ok(response)) => {
                if is_dml {
                    // Commit point: log the journal (durable engines) and
                    // bump the data version. A WAL failure rolls the
                    // statement back and fails it.
                    self.commit_dml(mark)?;
                }
                Ok(response)
            }
            Ok(Err(e)) => {
                self.db.rollback_to(mark);
                Err(e)
            }
            Err(payload) => {
                self.db.rollback_after_panic(mark);
                Err(Error::Internal(format!(
                    "statement execution panicked: {}",
                    panic_message(payload)
                )))
            }
        }
    }

    fn execute_statement_inner(
        &mut self,
        session: &Session,
        stmt: &Statement,
    ) -> Result<EngineResponse> {
        match stmt {
            Statement::Query(q) => {
                // No SQL text here, so the plan cache is bypassed (the
                // textful paths — execute / prepared statements — hit
                // it); admission still happens exactly once.
                let bound = fgac_algebra::bind_query(self.db.catalog(), q, session.params())?;
                let normalized = fgac_algebra::normalize(&bound.plan);
                let fp = ValidityCache::fingerprint_in_session(&normalized, session.params());
                let admitted = self.admit(session, &bound, &normalized, fp, None)?;
                Ok(EngineResponse::Rows(admitted.execute()?))
            }
            // DML arms do not bump the data version themselves: the
            // commit point (log + bump) lives in `execute_statement`,
            // after the WAL append is known to have succeeded.
            Statement::Insert(i) => {
                let auth = UpdateAuthorizer::new(self.policy.grants());
                let n = auth.insert(&mut self.db, session, i)?;
                Ok(EngineResponse::Affected(n))
            }
            Statement::Update(u) => {
                let auth = UpdateAuthorizer::new(self.policy.grants());
                let n = auth.update(&mut self.db, session, u)?;
                Ok(EngineResponse::Affected(n))
            }
            Statement::Delete(d) => {
                let auth = UpdateAuthorizer::new(self.policy.grants());
                let n = auth.delete(&mut self.db, session, d)?;
                Ok(EngineResponse::Affected(n))
            }
            Statement::AnalyzePolicy(a) => self.analyze_policy_session(session, a),
            Statement::AnalyzeFlow(a) => self.analyze_flow_session(session, a),
            Statement::ExplainAuthorization(ex) => {
                // Session-scoped by construction: the check runs against
                // the session's own grants, so — unlike ANALYZE POLICY —
                // there is no cross-principal disclosure to guard.
                let report = self.certify_query(session, &ex.query)?;
                Ok(EngineResponse::Rows(explain_authorization_result(&report)))
            }
            _ => Err(Error::Unauthorized(
                "DDL requires the admin interface".into(),
            )),
        }
    }

    /// Runs the grant-time policy static analyzer (`fgac-analyze`) over
    /// the installed policy set: authorization-view grants, constraint
    /// visibility, role memberships, revocation tombstones, and the
    /// catalog they refer to. `principal` restricts the per-principal
    /// lints to one principal's effective grant set.
    ///
    /// The analysis runs under the engine's configured [`fgac_types::Budget`]
    /// and *fails open*: on exhaustion it reports diagnostics of
    /// severity `unknown` instead of erroring — a lint must never be
    /// the thing that panics or wedges the DBA path.
    pub fn analyze_policy(&self, principal: Option<&str>) -> Vec<Diagnostic> {
        let (set, opts) = self.analysis_inputs();
        fgac_analyze::analyze_policy_set(&set, principal, &opts)
    }

    /// Runs the whole-policy information-flow analysis (disclosure
    /// lattices, F-codes — see `fgac_analyze::flow`) over the installed
    /// policy set. `principal` restricts it to one principal's lattice.
    ///
    /// Whole-set runs are incremental: per-principal results are cached
    /// under the policy epoch and swept by the same
    /// [`crate::invalidation::PolicyDelta::affects`] predicate as the
    /// admission caches, so a single grant re-analyzes only the
    /// affected principals. Fails open like the policy lints.
    pub fn analyze_flow(&self, principal: Option<&str>) -> Vec<Diagnostic> {
        let (set, opts) = self.analysis_inputs();
        match principal {
            Some(p) => self.policy.flow().analyze_one(&set, p, &opts),
            None => self.policy.flow().analyze_full(&set, self.policy_epoch(), &opts),
        }
    }

    /// The installed policy set and the budgeted options every static
    /// analysis runs over.
    fn analysis_inputs(&self) -> (fgac_analyze::PolicySet<'_>, fgac_analyze::AnalyzeOptions) {
        let set = fgac_analyze::PolicySet {
            catalog: self.db.catalog(),
            view_grants: self.grants().view_grants(),
            constraint_grants: self.grants().constraint_grants(),
            role_memberships: self.grants().role_memberships(),
            revocations: self.grants().revoked_views(),
        };
        let opts = fgac_analyze::AnalyzeOptions {
            budget: self.options.budget.clone(),
        };
        (set, opts)
    }

    /// F004: what a proposed grant would newly disclose, computed
    /// against the live policy set without applying the grant.
    pub fn flow_diff_grant(&self, grant: &fgac_analyze::ProposedGrant) -> Vec<Diagnostic> {
        let (set, opts) = self.analysis_inputs();
        fgac_analyze::flow_diff_grant(&set, grant, &opts)
    }

    /// (epoch-fresh flow entries, total flow entries) — metrics.
    pub fn flow_cache_stats(&self) -> (usize, usize) {
        self.policy.flow().stats(self.policy_epoch())
    }

    /// The live policy in the shape the independent certificate checker
    /// consumes ([`fgac_analyze::check_certificate`]).
    pub fn certificate_policy(&self) -> fgac_analyze::CertPolicy<'_> {
        fgac_analyze::CertPolicy {
            catalog: self.db.catalog(),
            view_grants: self.grants().view_grants(),
            constraint_grants: self.grants().constraint_grants(),
            role_memberships: self.grants().role_memberships(),
            policy_epoch: self.policy_epoch(),
        }
    }

    /// Re-verifies `cert` with the independent checker against the live
    /// policy; a failure is an execution error `"{prefix}: {diagnostics}"`.
    fn verify_certificate(&self, cert: &fgac_analyze::Certificate, prefix: &str) -> Result<()> {
        let diags = fgac_analyze::check_certificate(
            cert,
            &self.certificate_policy(),
            &fgac_analyze::CheckerOptions::default(),
        );
        if diags.is_empty() {
            return Ok(());
        }
        let msgs: Vec<String> = diags
            .iter()
            .map(|d| format!("{}: {}", d.code.as_str(), d.message))
            .collect();
        Err(Error::Execution(format!("{prefix}: {}", msgs.join("; "))))
    }

    /// Runs the validity check *uncached* with certificate emission
    /// forced on, stamps the live policy epoch, and re-verifies the
    /// certificate with the independent checker before returning. The
    /// certification surface behind `EXPLAIN AUTHORIZATION` and
    /// `fgac-analyze --certify`: an ACCEPT whose derivation the checker
    /// rejects is reported as an error, not returned.
    pub fn certify(&self, session: &Session, sql: &str) -> Result<ValidityReport> {
        let query = fgac_sql::parse_query(sql)?;
        self.certify_query(session, &query)
    }

    /// [`Engine::certify`] for an already-parsed query.
    pub fn certify_query(
        &self,
        session: &Session,
        query: &fgac_sql::Query,
    ) -> Result<ValidityReport> {
        let mut options = self.options.clone();
        options.emit_certificates = true;
        let caps = self.compiled_policies().principal(
            self.policy_epoch(),
            session.user(),
            self.db.catalog(),
            self.grants(),
        );
        let mut report = Validator::new(&self.db, self.grants())
            .with_options(options)
            .with_compiled(caps)
            .check_query(session, query)?;
        if let Some(cert) = &mut report.certificate {
            cert.policy_epoch = self.policy_epoch();
        }
        if report.is_valid() {
            let Some(cert) = &report.certificate else {
                return Err(Error::Execution(
                    "validator accepted without emitting a certificate".into(),
                ));
            };
            self.verify_certificate(cert, "certificate failed independent verification")?;
        }
        Ok(report)
    }

    /// The validity check alone (with caching) — what the optimizer
    /// would run at prepare time. Warms both the plan cache and the
    /// validity cache.
    pub fn check(&self, session: &Session, sql: &str) -> Result<ValidityReport> {
        let cached = match self.plan_cache().get(sql, session.params()) {
            Some(c) => c,
            None => {
                let q = fgac_sql::parse_query(sql)?;
                self.plan_query(session, sql, &q)?
            }
        };
        let decision = self.decide(session, &cached.normalized, cached.validity_fp, None)?;
        Ok(match decision {
            Decision::Cached(verdict) => ValidityReport::cache_hit(verdict),
            Decision::Checked(report) => *report,
        })
    }

    /// Admission, the one place a verdict becomes permission to run:
    /// the token for `bound` when its normalized `plan` (fingerprint
    /// `fp`) is valid for the session, its deny error otherwise.
    fn admit<'a>(
        &'a self,
        session: &Session,
        bound: &'a BoundQuery,
        plan: &Plan,
        fp: u64,
        deadline: Option<Instant>,
    ) -> Result<Admitted<'a>> {
        match self.decide(session, plan, fp, deadline)? {
            Decision::Cached(Verdict::Invalid) => {
                Err(deny_error(ValidityReport::cache_hit(Verdict::Invalid)))
            }
            Decision::Checked(report) if !report.is_valid() => Err(deny_error(*report)),
            Decision::Cached(_) | Decision::Checked(_) => Ok(Admitted::new(&self.db, bound)),
        }
    }

    /// The validity verdict for a plan, through the validity cache: a
    /// cached verdict without building a report, so a warm query
    /// allocates nothing to be admitted, or the report of a revalidation
    /// or a cold check. Under a request deadline the remaining
    /// wall-clock time is clamped onto the configured
    /// [`fgac_types::Budget`], so the validator's own meter enforces it
    /// mid-inference; an already-expired deadline denies *before* the
    /// cache lookup — nothing is read, nothing is stored.
    fn decide(
        &self,
        session: &Session,
        plan: &Plan,
        fp: u64,
        deadline: Option<Instant>,
    ) -> Result<Decision> {
        check_deadline(deadline)?;
        match self
            .cache()
            .lookup(session.user(), fp, self.data_version, self.policy_epoch())
        {
            CacheOutcome::Hit(verdict) => return Ok(Decision::Cached(verdict)),
            // Computed under an older grant state but the accept carries
            // its derivation: re-verify the certificate against the
            // *current* grants (same independent checker, epoch pin
            // lifted). Verification success means the derivation is
            // valid under today's policy — serve the verdict and restamp
            // without re-proving. ANY defect — failed step, revoked
            // view, budget exhaustion — falls closed to the cold check.
            CacheOutcome::Stale { verdict, cert } => {
                let diags = fgac_analyze::revalidate_certificate(
                    &cert,
                    &self.certificate_policy(),
                    &fgac_analyze::CheckerOptions {
                        budget: self.options.budget.clone(),
                    },
                );
                if diags.is_empty() {
                    self.cache().revalidated(session.user(), fp, self.policy_epoch());
                    return Ok(Decision::Checked(Box::new(ValidityReport::revalidated(
                        verdict,
                    ))));
                }
                self.cache().evict_stale(session.user(), fp);
                // Fall through to the cold check below.
            }
            CacheOutcome::Miss => {}
        }
        let mut options = self.options.clone();
        clamp_budget_deadline(&mut options, deadline);
        let caps = self.compiled_policies().principal(
            self.policy_epoch(),
            session.user(),
            self.db.catalog(),
            self.grants(),
        );
        let report = match Validator::new(&self.db, self.grants())
            .with_options(options)
            .with_compiled(caps)
            .check_plan(session, plan)
        {
            Ok(mut report) => {
                // The validator stamps epoch 0; rebase the certificate on
                // the live policy epoch it was actually minted under.
                if let Some(cert) = &mut report.certificate {
                    cert.policy_epoch = self.policy_epoch();
                }
                // Shadow mode: in debug builds, every ACCEPT must carry a
                // certificate the independent checker verifies. A failure
                // here is an engine bug (the derivation and the proof
                // disagree), never a user error.
                #[cfg(debug_assertions)]
                if report.is_valid() {
                    if let Some(cert) = &report.certificate {
                        self.verify_certificate(cert, "shadow certificate check failed")?;
                    }
                }
                report
            }
            Err(Error::ResourceExhausted(phase)) => {
                // Fail closed: an interrupted check denies. The verdict is
                // NOT cached — a retry under a larger budget (or a calmer
                // system) may legitimately accept the same query.
                return Ok(Decision::Checked(Box::new(ValidityReport::exhausted(phase))));
            }
            Err(e) => return Err(e),
        };
        // Accepts keep their certificate alongside the verdict so a
        // later policy change can warm-revalidate instead of dropping
        // the entry; denials (and emission-off checks) store none.
        let cert = report.certificate.clone().map(Arc::new);
        self.cache().store(
            session.user(),
            fp,
            self.data_version,
            self.policy_epoch(),
            report.verdict,
            cert,
        );
        Ok(Decision::Checked(Box::new(report)))
    }

    /// Executes under the **Truman model** baseline for comparison.
    pub fn truman_execute(
        &self,
        policy: &TrumanPolicy,
        session: &Session,
        sql: &str,
    ) -> Result<QueryResult> {
        crate::truman::truman_execute(&self.db, policy, session, sql)
    }

    pub(crate) fn bump(&mut self) {
        self.data_version += 1;
    }
}

/// What [`Engine::decide`] found for a plan: the verdict the validity
/// cache held, or the report of a revalidation or a cold check.
enum Decision {
    Cached(Verdict),
    Checked(Box<ValidityReport>),
}

/// Renders analyzer diagnostics as a result set, so `ANALYZE POLICY`
/// works from any client that can run a statement (e.g. the repl).
fn diagnostics_result(diags: &[Diagnostic]) -> QueryResult {
    QueryResult {
        names: ["code", "severity", "principal", "object", "message"]
            .into_iter()
            .map(Ident::new)
            .collect(),
        rows: diags
            .iter()
            .map(|d| {
                Row::new(vec![
                    Value::Str(d.code.as_str().to_string()),
                    Value::Str(d.severity.as_str().to_string()),
                    Value::Str(d.principal.clone()),
                    Value::Str(d.object.clone()),
                    Value::Str(d.message.clone()),
                ])
            })
            .collect(),
    }
}

/// Renders a certified validity report as rows for
/// `EXPLAIN AUTHORIZATION`: one leading verdict row, then one row per
/// derivation step of the (independently re-verified) certificate.
fn explain_authorization_result(report: &ValidityReport) -> QueryResult {
    let names = ["step", "rule", "object", "premises", "detail"]
        .into_iter()
        .map(Ident::new)
        .collect();
    let verdict = match report.verdict {
        Verdict::Unconditional => "unconditional",
        Verdict::Conditional => "conditional",
        Verdict::Invalid => "invalid",
    };
    let mut rows = vec![Row::new(vec![
        Value::Str(String::new()),
        Value::Str("VERDICT".into()),
        Value::Str(verdict.into()),
        Value::Str(String::new()),
        Value::Str(report.reason.clone().unwrap_or_default()),
    ])];
    if let Some(cert) = &report.certificate {
        for (i, step) in cert.steps.iter().enumerate() {
            let object = match (&step.view, &step.constraint) {
                (Some(v), _) => v.to_string(),
                (None, Some(c)) => c.to_string(),
                (None, None) => String::new(),
            };
            let premises = step
                .premises
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let mut detail = step.note.clone();
            for (name, val) in &step.pins {
                detail.push_str(&format!(" [${name} = {val}]"));
            }
            if let Some(n) = step.probe_rows {
                detail.push_str(&format!(" [probe: {n} row(s)]"));
            }
            rows.push(Row::new(vec![
                Value::Str(i.to_string()),
                Value::Str(step.rule.to_string()),
                Value::Str(object),
                Value::Str(premises),
                Value::Str(detail),
            ]));
        }
    }
    QueryResult { names, rows }
}

/// Fails with a deadline-flavored [`Error::ResourceExhausted`] once the
/// request deadline has passed. The message is intentionally
/// distinguishable from fuel exhaustion ("step budget exhausted") and
/// from a mid-check deadline trip ("deadline exceeded after N steps"):
/// overload handling upstream keys off the "deadline" prefix.
fn check_deadline(deadline: Option<Instant>) -> Result<()> {
    match deadline {
        Some(at) if Instant::now() >= at => Err(Error::ResourceExhausted(
            "deadline: request wall-clock deadline expired before the validity check".into(),
        )),
        _ => Ok(()),
    }
}

/// Threads a per-request absolute deadline into the check's [`fgac_types::Budget`]:
/// the meter's wall-clock allowance becomes the *smaller* of the
/// engine-configured allowance and the time remaining until `deadline`.
fn clamp_budget_deadline(options: &mut CheckOptions, deadline: Option<Instant>) {
    if let Some(at) = deadline {
        let remaining = at.saturating_duration_since(Instant::now());
        options.budget.deadline = Some(match options.budget.deadline {
            Some(configured) => configured.min(remaining),
            None => remaining,
        });
    }
}

/// Maps a non-valid report to the engine's deny error, preserving the
/// ResourceExhausted class so callers can distinguish "proved invalid"
/// from "ran out of budget before proving validity" — both deny.
fn deny_error(report: ValidityReport) -> Error {
    if let Some(phase) = report.exhausted {
        return Error::ResourceExhausted(phase);
    }
    Error::Unauthorized(report.reason.unwrap_or_else(|| {
        "query rejected by the Non-Truman validity check".into()
    }))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("data_version", &self.data_version)
            .field("policy_epoch", &self.policy_epoch())
            .field("durable", &self.durability.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.admin_script(
            "create table students (student_id varchar not null, name varchar not null, \
               type varchar not null, primary key (student_id));
             create table grades (student_id varchar not null, course_id varchar not null, \
               grade int, primary key (student_id, course_id));
             create authorization view MyGrades as \
               select * from grades where student_id = $user_id;
             insert into students values ('11', 'ann', 'FullTime'), ('12', 'bob', 'PartTime');
             insert into grades values ('11', 'cs101', 90), ('12', 'cs101', 70);",
        )
        .unwrap();
        e.grant_view("11", "mygrades").unwrap();
        e
    }

    #[test]
    fn valid_query_executes_unmodified() {
        let mut e = engine();
        let s = Session::new("11");
        let r = e
            .execute(&s, "select grade from grades where student_id = '11'")
            .unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 1);
    }

    #[test]
    fn invalid_query_rejected_with_unauthorized() {
        let mut e = engine();
        let s = Session::new("11");
        let err = e.execute(&s, "select grade from grades").unwrap_err();
        assert!(err.is_unauthorized());
        // The misleading Truman behaviour does NOT happen: no silent
        // partial answer.
    }

    #[test]
    fn starved_budget_denies_with_resource_exhausted() {
        use fgac_types::Budget;
        // This exact query is accepted under the default budget (see
        // valid_query_executes_unmodified). Starving the checker must
        // turn it into a ResourceExhausted-backed DENY, never an ALLOW.
        let mut e = engine().with_check_options(CheckOptions {
            budget: Budget::with_max_steps(2),
            ..CheckOptions::default()
        });
        let s = Session::new("11");
        let q = "select grade from grades where student_id = '11'";
        let report = e.check(&s, q).unwrap();
        assert_eq!(report.verdict, Verdict::Invalid);
        assert!(report.exhausted.is_some());
        let err = e.execute(&s, q).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "got {err:?}");
        // The exhausted verdict must NOT be cached: nothing stored means
        // a later retry with a larger budget re-runs the check.
        let (hits, _) = e.cache().stats();
        assert_eq!(hits, 0);
    }

    #[test]
    fn a_cached_verdict_admits_and_denies_as_the_cold_check_did() {
        let mut e = engine();
        let s = Session::new("11");
        let ok = "select grade from grades where student_id = '11'";
        let cold = e.execute(&s, ok).unwrap();
        let warm = e.execute(&s, ok).unwrap();
        assert_eq!(cold.rows().unwrap().rows, warm.rows().unwrap().rows);
        let denied = "select grade from grades";
        assert!(e.execute(&s, denied).unwrap_err().is_unauthorized());
        let (hits, _) = e.cache().stats();
        let err = e.execute(&s, denied).unwrap_err();
        assert_eq!(err, Error::Unauthorized("query rejected (cached verdict)".into()));
        assert_eq!(e.cache().stats().0, hits + 1);
    }

    #[test]
    fn cache_hits_on_repeat() {
        let mut e = engine();
        let s = Session::new("11");
        let q = "select grade from grades where student_id = '11'";
        e.execute(&s, q).unwrap();
        e.execute(&s, q).unwrap();
        let (hits, _misses) = e.cache().stats();
        assert!(hits >= 1);
    }

    #[test]
    fn plan_cache_hits_on_repeat() {
        let mut e = engine();
        let s = Session::new("11");
        let q = "select grade from grades where student_id = '11'";
        e.execute(&s, q).unwrap();
        e.execute(&s, q).unwrap();
        e.execute(&s, q).unwrap();
        let (hits, misses) = e.plan_cache().stats();
        assert!(hits >= 2, "plan cache hits {hits} misses {misses}");
    }

    #[test]
    fn dml_requires_authorization() {
        let mut e = engine();
        let s = Session::new("11");
        let err = e.execute(&s, "insert into grades values ('11', 'cs202', 80)");
        assert!(err.is_err());
        e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
            .unwrap();
        let n = e
            .execute(&s, "insert into grades values ('11', 'cs202', 80)")
            .unwrap();
        assert_eq!(n.affected(), Some(1));
        // Data version bumped.
        assert!(e.data_version() > 0);
    }

    #[test]
    fn ddl_via_user_path_rejected() {
        let mut e = engine();
        let s = Session::new("11");
        let err = e.execute(&s, "create table t (a int)");
        assert!(err.is_err());
    }

    #[test]
    fn revoked_view_rejects_previously_valid_query() {
        let mut e = engine();
        let s = Session::new("11");
        let q = "select grade from grades where student_id = '11'";
        e.execute(&s, q).unwrap();
        e.revoke_view("11", "mygrades").unwrap();
        let err = e.execute(&s, q).unwrap_err();
        assert!(err.is_unauthorized(), "got {err:?}");
    }

    #[test]
    fn truman_baseline_accessible() {
        let e = engine();
        let policy = TrumanPolicy::new().substitute_view("grades", "mygrades");
        let s = Session::new("11");
        let r = e
            .truman_execute(&policy, &s, "select avg(grade) from grades")
            .unwrap();
        // Truman silently restricts to user 11's grades.
        assert_eq!(r.rows[0].get(0), &fgac_types::Value::Double(90.0));
    }
}
