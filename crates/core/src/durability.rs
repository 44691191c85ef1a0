//! Durable engines: WAL commit points, snapshots, and recovery.
//!
//! A durable engine is an ordinary [`Engine`] attached to a
//! [`fgac_wal::WalStore`]. Every committed state change is logged:
//!
//! * **DDL** (tables, views, inclusion dependencies) — apply-then-log
//!   with structural undo: if the WAL append fails, the catalog change
//!   is rolled back and the statement fails as a whole.
//! * **DML** — the physical [`fgac_storage::TableDelta`]s the statement
//!   journaled, logged in place after the statement succeeds and before
//!   the journal is committed. If the append fails, the statement is
//!   rolled back to its journal mark. A record is written even when zero
//!   rows changed, so replay reproduces the data version exactly.
//! * **Policy operations** (grants, revocations, roles, delegation,
//!   constraint visibility) — log-then-apply: the in-memory application
//!   is infallible, so nothing needs undoing and the grant tables never
//!   run ahead of the log.
//!
//! ## Recovery (`Engine::open`)
//!
//! Recovery loads the snapshot (if any), replays the log tail, and
//! returns an engine equal to the committed prefix of the crashed one.
//! It is **fail-closed**: a torn tail is truncated and reported, but a
//! checksum failure on a policy record or the snapshot refuses to serve
//! ([`Error::Corrupt`]). Recovered engines bump the policy epoch past
//! the replayed value and start with cold plan/validity caches, so no
//! verdict cached before the crash can ever be served after it.
//!
//! ## Durability levels
//!
//! Appends always reach the OS before a statement is acknowledged, so a
//! *process* crash (including drop-without-[`Engine::close`], which is a
//! supported way to exit) loses nothing. Surviving power loss requires
//! fsync: set [`DurabilityOptions::sync_on_commit`], or call
//! [`Engine::sync`] / [`Engine::close`] at a boundary you choose.

use crate::cache::DataCommit;
use crate::engine::Engine;
use crate::grants::Grants;
use crate::invalidation::PolicyDelta;
use fgac_sql::Statement;
use fgac_storage::Mark;
use fgac_types::{Error, Ident, Result};
use fgac_wal::{GrantsState, SnapshotState, TableState, WalRecord, WalStore};
use std::path::Path;

/// Tuning knobs for a durable engine.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Fsync after every commit. Off by default: appends still reach the
    /// OS synchronously (process-crash safe); power-loss durability of
    /// the last few commits then depends on [`Engine::sync`]/
    /// [`Engine::close`].
    pub sync_on_commit: bool,
    /// Install a snapshot and rotate the log every N records
    /// (0 = only on explicit [`Engine::snapshot_now`]).
    pub snapshot_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            sync_on_commit: false,
            snapshot_every: 1024,
        }
    }
}

/// What [`Engine::open_with`] found and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// LSN of the loaded snapshot, if one existed.
    pub snapshot_lsn: Option<u64>,
    /// Log records scanned (including any below the snapshot LSN).
    pub records_scanned: usize,
    /// Records actually replayed into the engine.
    pub records_replayed: usize,
    /// Bytes of torn tail truncated from the log (0 = clean shutdown).
    pub truncated_tail_bytes: u64,
}

/// The engine's attachment to its log.
#[derive(Debug)]
pub(crate) struct Durability {
    pub(crate) store: WalStore,
    pub(crate) opts: DurabilityOptions,
}

impl Engine {
    /// Opens (or initializes) a durable engine in `dir`.
    ///
    /// An empty/missing directory becomes a fresh durable engine; an
    /// existing one is recovered: snapshot + log tail replayed, torn
    /// tail truncated, corrupt policy state refused with
    /// [`Error::Corrupt`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Engine> {
        Self::open_with(dir, DurabilityOptions::default()).map(|(e, _)| e)
    }

    /// [`Engine::open`] with explicit options, also returning what
    /// recovery found.
    pub fn open_with(
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
    ) -> Result<(Engine, RecoveryReport)> {
        let dir = dir.as_ref();
        if !dir.join("wal.log").exists() {
            // Other WAL artifacts without a log mean this directory
            // *held* durable state that is now partially gone (partial
            // delete, botched restore). Initializing fresh here would
            // later overwrite the survivors — fail closed instead.
            for leftover in ["snapshot.fgs", "snapshot.tmp", "wal.tmp"] {
                if dir.join(leftover).exists() {
                    return Err(Error::Corrupt(format!(
                        "{} exists but wal.log is missing in {}: refusing to initialize \
                         a fresh store over remnants of durable state",
                        leftover,
                        dir.display()
                    )));
                }
            }
            let store = WalStore::create(dir)?;
            let mut engine = Engine::new();
            engine.attach(Durability { store, opts });
            return Ok((engine, RecoveryReport::default()));
        }

        let recovered = WalStore::recover(dir)?;
        let mut engine = Engine::new();
        let min_lsn = recovered.snapshot.as_ref().map_or(0, |s| s.lsn);
        if let Some(snapshot) = recovered.snapshot {
            engine.install_snapshot_state(snapshot)?;
        }
        let mut replayed = 0usize;
        for (lsn, record) in recovered.records {
            if lsn < min_lsn {
                // Already folded into the snapshot (crash between
                // snapshot installation and log rotation).
                continue;
            }
            engine.replay_record(record).map_err(|e| {
                Error::Corrupt(format!("wal replay failed at lsn {lsn}: {e}"))
            })?;
            replayed += 1;
        }

        // No verdict cached before the crash may survive it: the epoch
        // moves strictly past every epoch the crashed engine ever had a
        // cache entry under, and every cache — plans, verdicts, compiled
        // caps — starts cold (a recovered engine has no certificates to
        // revalidate against anyway).
        engine.policy.apply(PolicyDelta::Full);
        engine.attach(Durability {
            store: recovered.store,
            opts,
        });

        Ok((
            engine,
            RecoveryReport {
                snapshot_lsn: recovered.report.snapshot_lsn,
                records_scanned: recovered.report.records_scanned,
                records_replayed: replayed,
                truncated_tail_bytes: recovered.report.truncated_tail_bytes,
            },
        ))
    }

    fn attach(&mut self, durability: Durability) {
        self.durability = Some(durability);
    }

    /// Whether this engine writes a WAL.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Flushes and fsyncs the WAL, then shuts the engine down. Dropping
    /// without calling this is a supported crash: recovery replays the
    /// log and loses nothing that was acknowledged.
    ///
    /// Idempotent in effect: the first call syncs and marks the engine
    /// closed; a second call (or any statement after close) returns a
    /// clean [`Error::Unsupported`] instead of re-syncing or panicking.
    /// Taking `&mut self` rather than `self` is what lets a shared,
    /// concurrently-referenced engine ([`crate::SharedEngine`]) be shut
    /// down at all.
    pub fn close(&mut self) -> Result<()> {
        self.ensure_open().map_err(|_| {
            Error::Unsupported("engine is already closed (double close)".into())
        })?;
        let result = self.sync();
        // Closed even if the final sync failed: the engine must not
        // accept further commits it could no longer make durable.
        self.closed = true;
        result
    }

    /// Fsyncs the WAL without closing: everything committed so far
    /// becomes power-loss durable.
    pub fn sync(&mut self) -> Result<()> {
        match self.durability.as_mut() {
            Some(d) => d.store.sync(),
            None => Ok(()),
        }
    }

    /// Installs a full snapshot now and rotates the log. Recovery after
    /// this loads the snapshot and replays only newer records.
    pub fn snapshot_now(&mut self) -> Result<()> {
        self.ensure_open()?;
        let Some(mut d) = self.durability.take() else {
            return Err(Error::Unsupported(
                "snapshot_now: engine has no durability (use Engine::open)".into(),
            ));
        };
        let state = self.snapshot_state(d.store.next_lsn());
        let outcome = d.store.install_snapshot(&state);
        self.durability = Some(d);
        outcome
    }

    /// Appends one committed change. A no-op for in-memory engines.
    pub(crate) fn log_commit(&mut self, record: WalRecord) -> Result<()> {
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        let sync = d.opts.sync_on_commit;
        d.store.append(&record, sync)?;
        Ok(())
    }

    /// Commits a successful DML statement: logs the redo journaled since
    /// `mark` (durable engines), then commits it
    /// ([`Engine::commit_data`]). On WAL failure the statement is rolled
    /// back to `mark` and fails — the database never runs ahead of the
    /// log.
    pub(crate) fn commit_dml(&mut self, mark: Mark) -> Result<()> {
        if let Some(d) = self.durability.as_mut() {
            let sync = d.opts.sync_on_commit;
            if let Err(e) = d.store.append_dml(self.db.pending(mark), sync) {
                self.db.rollback_to(mark);
                return Err(e);
            }
        }
        self.commit_data(mark);
        self.maybe_snapshot();
        Ok(())
    }

    /// The one data commit point, shared by the live statement path and
    /// replay: bumps the data version, restamps the validity cache
    /// against the rows journaled since `mark` ([`DataCommit`]), then
    /// commits the journal — which drops the undo images the restamp
    /// reads.
    fn commit_data(&mut self, mark: Mark) {
        let from = self.data_version;
        self.bump();
        let commit = DataCommit::new(&self.db, mark, from, self.data_version);
        self.policy.restamp_data(&commit);
        self.db.commit();
    }

    /// Installs a snapshot when the log has grown past the configured
    /// threshold. Best-effort: a snapshot failure does not fail the
    /// already-committed statement (the log still holds every record).
    pub(crate) fn maybe_snapshot(&mut self) {
        let due = match self.durability.as_ref() {
            Some(d) => d.opts.snapshot_every > 0
                && d.store.records_in_log() >= d.opts.snapshot_every,
            None => false,
        };
        if due {
            let _ = self.snapshot_now();
        }
    }

    // ---------------- snapshot state conversion ----------------

    /// Materializes the engine's full durable state at log position
    /// `lsn`. Deterministic: catalog iteration is BTreeMap-ordered and
    /// view/constraint bodies print to canonical SQL.
    pub(crate) fn snapshot_state(&self, lsn: u64) -> SnapshotState {
        let catalog = self.db.catalog();
        let tables = catalog
            .tables()
            .map(|meta| TableState {
                name: meta.name.clone(),
                schema: meta.schema.clone(),
                primary_key: meta.primary_key.clone(),
                rows: self
                    .db
                    .table(&meta.name)
                    .map(|t| t.rows().to_vec())
                    .unwrap_or_default(),
            })
            .collect();
        let views_sql = catalog
            .views()
            .map(|v| {
                fgac_sql::print_statement(&Statement::CreateView(fgac_sql::CreateView {
                    name: v.name.clone(),
                    authorization: v.authorization,
                    query: v.query.clone(),
                }))
            })
            .collect();
        let inclusion_deps_sql = catalog
            .inclusion_dependencies()
            .iter()
            .map(|d| {
                fgac_sql::print_statement(&Statement::CreateInclusionDependency(
                    fgac_sql::CreateInclusionDependency {
                        name: d.name.clone(),
                        src_table: d.src_table.clone(),
                        src_columns: d.src_columns.clone(),
                        src_filter: d.src_filter.clone(),
                        dst_table: d.dst_table.clone(),
                        dst_columns: d.dst_columns.clone(),
                        dst_filter: d.dst_filter.clone(),
                    },
                ))
            })
            .collect();
        let grants = GrantsState {
            views: self
                .grants()
                .view_grants()
                .iter()
                .map(|(p, vs)| (p.clone(), vs.iter().cloned().collect()))
                .collect(),
            constraints: self
                .grants()
                .constraint_grants()
                .iter()
                .map(|(p, cs)| (p.clone(), cs.iter().cloned().collect()))
                .collect(),
            update_auths: self
                .grants()
                .update_grants()
                .iter()
                .map(|(p, auths)| {
                    (
                        p.clone(),
                        auths
                            .iter()
                            .map(|a| {
                                fgac_sql::print_statement(&Statement::Authorize(a.clone()))
                            })
                            .collect(),
                    )
                })
                .collect(),
            roles: self
                .grants()
                .role_memberships()
                .iter()
                .map(|(u, rs)| (u.clone(), rs.clone()))
                .collect(),
        };
        SnapshotState {
            lsn,
            data_version: self.data_version,
            policy_epoch: self.policy_epoch(),
            tables,
            foreign_keys: self.db.catalog().foreign_keys().to_vec(),
            views_sql,
            inclusion_deps_sql,
            grants,
        }
    }

    /// A canonical byte encoding of the engine's durable state —
    /// tables, catalog, grants, and the data version — excluding the
    /// policy epoch (recovery bumps it deliberately). Two engines with
    /// equal fingerprints return identical verdicts and query results.
    pub fn state_fingerprint(&self) -> Vec<u8> {
        use fgac_types::wire::WireEncode;
        let mut state = self.snapshot_state(0);
        state.policy_epoch = 0;
        state.to_bytes()
    }

    /// Rebuilds engine state from a snapshot. Counters are restored
    /// last, overwriting the bumps the rebuild itself produced.
    fn install_snapshot_state(&mut self, snap: SnapshotState) -> Result<()> {
        for t in &snap.tables {
            self.db
                .create_table(t.name.clone(), t.schema.clone(), t.primary_key.clone())?;
        }
        for t in snap.tables {
            self.db.load(&t.name, t.rows)?;
            self.db.commit();
        }
        for fk in snap.foreign_keys {
            self.db.add_foreign_key(fk)?;
        }
        for sql in snap.views_sql.iter().chain(&snap.inclusion_deps_sql) {
            let stmt = fgac_sql::parse_statement(sql)?;
            self.apply_ddl(&stmt)?;
        }
        let mut grants = Grants::new();
        for (principal, views) in snap.grants.views {
            for v in views {
                grants.grant_view(principal.clone(), v);
            }
        }
        for (principal, constraints) in snap.grants.constraints {
            for c in constraints {
                grants.grant_constraint(principal.clone(), c);
            }
        }
        for (principal, auths) in snap.grants.update_auths {
            for sql in auths {
                match fgac_sql::parse_statement(&sql)? {
                    Statement::Authorize(a) => grants.grant_update(principal.clone(), a),
                    _ => {
                        return Err(Error::Corrupt(format!(
                            "snapshot update authorization is not an AUTHORIZE statement: {sql}"
                        )))
                    }
                }
            }
        }
        for (user, roles) in snap.grants.roles {
            for r in roles {
                grants.add_role(user.clone(), r);
            }
        }
        self.policy.restore(grants, snap.policy_epoch);
        self.data_version = snap.data_version;
        Ok(())
    }

    /// Replays one log record. Mirrors the live commit paths exactly —
    /// including epoch/data-version bumps — but without re-logging
    /// (durability is not attached yet during replay).
    fn replay_record(&mut self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::Ddl { sql } => {
                let stmt = fgac_sql::parse_statement(&sql)?;
                self.apply_ddl(&stmt)
            }
            WalRecord::Dml { deltas } => {
                let mark = self.db.mark();
                self.db.apply_deltas(deltas)?;
                self.commit_data(mark);
                Ok(())
            }
            WalRecord::GrantUpdate { principal, sql } => match fgac_sql::parse_statement(&sql)? {
                Statement::Authorize(a) => {
                    self.policy.grant_update(principal, a);
                    Ok(())
                }
                _ => Err(Error::Corrupt(format!(
                    "logged update authorization is not an AUTHORIZE statement: {sql}"
                ))),
            },
            // Validation (a delegator holds the view) passed at log
            // time; replay applies the effect.
            grant => {
                self.policy.apply(policy_delta(&grant)?);
                Ok(())
            }
        }
    }
}

/// The [`PolicyDelta`] a grant record makes. Shared by the live commit
/// path and replay, so both change the grants and sweep the caches
/// alike.
pub(crate) fn policy_delta(record: &WalRecord) -> Result<PolicyDelta> {
    Ok(match record {
        WalRecord::GrantView { principal, view } => PolicyDelta::GrantView {
            principal: principal.clone(),
            view: Ident::new(view),
        },
        WalRecord::RevokeView { principal, view } => PolicyDelta::RevokeView {
            principal: principal.clone(),
            view: Ident::new(view),
        },
        WalRecord::GrantConstraint { principal, name } => PolicyDelta::GrantConstraint {
            principal: principal.clone(),
            name: Ident::new(name),
        },
        WalRecord::AddRole { user, role } => PolicyDelta::AddRole {
            user: user.clone(),
            role: role.clone(),
        },
        WalRecord::DelegateView { to, view, .. } => PolicyDelta::GrantView {
            principal: to.clone(),
            view: Ident::new(view),
        },
        WalRecord::Ddl { .. } | WalRecord::Dml { .. } | WalRecord::GrantUpdate { .. } => {
            return Err(Error::Internal(
                "policy_delta called on a record that changes no grant".into(),
            ))
        }
    })
}
