//! Compiled authorization fast path: per-principal capability bitmasks.
//!
//! The Non-Truman validator is a theorem prover: a cold check builds the
//! AND-OR DAG of the query and the principal's views and walks inference
//! rules U1/U2/U3/C3. The view half is built once per principal (the
//! caps below memoize it), but the proof is still far dearer than a
//! lookup. Yet the *dominant* workload case needs none of it: a query
//! whose every scanned relation is covered by a granted, unconditional
//! (parameter-free, predicate-free, duplicate-preserving) authorization
//! view is U1/U2-valid by construction. This module compiles that case
//! into a decision structure the admission path can consult with a mask
//! AND and a hash lookup:
//!
//! * every catalog relation gets a bit id;
//! * per principal, the granted view set is folded into
//!   [`PrincipalCaps`]: a bitmask over relation ids marking *full-width*
//!   unconditional coverage, plus per-relation column-coverage summaries
//!   for the single-relation case;
//! * admission ANDs the query's relation mask against the capability
//!   mask; residual cases (parameterized or predicated views,
//!   conditional C3, U3 dependency joins, access patterns) miss and fall
//!   through to the full prover unchanged.
//!
//! **Fail closed on any coverage doubt.** The fast path may only accept
//! when the full prover provably would: full-width coverage admits any
//! plan shape (each scan leaf is a granted view verbatim, and every
//! operator over valid subexpressions is valid — rule U2); column-subset
//! coverage admits only single-scan SPJ blocks, mirroring the matcher's
//! own availability/implication/multiplicity conditions one-for-one.
//! Anything else — a `$$` access parameter, a column outside the
//! summary, a DISTINCT view, a relation with no compiled entry — is a
//! miss, never a deny and never an accept.
//!
//! **Epoch/invalidation contract.** Compiled snapshots are immutable
//! ([`Arc<PrincipalCaps>`]), each stamped with the policy epoch it was
//! compiled at. A lookup serves only a snapshot stamped with the epoch
//! it asks for; anything else recompiles. The store is owned by
//! [`crate::invalidation::PolicyState`], whose policy-change sweep
//! ([`CompiledPolicies::sweep`]) runs the one restamp rule inside the
//! writer's critical section, so under [`crate::SharedEngine`] no reader
//! ever observes a mask compiled against dead grants.
//!
//! Every fast-path accept still mints a checkable certificate (PR 5's
//! guarantee): one U1 step per covering view plus a U2 goal step — the
//! same shape the DAG-marking acceptance emits — which
//! [`fgac_analyze::check_certificate`] re-verifies from the catalog.

use crate::authview::AuthorizationView;
use crate::grants::Grants;
use crate::invalidation::Sweep;
use crate::nontruman::viewside::{ViewSide, ViewSideKey};
use fgac_algebra::{normalize, ParamScope, Plan, ScalarExpr, SpjBlock};
use fgac_storage::Catalog;
use fgac_types::{Counter, Ident, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Column-coverage summaries track at most this many columns per
/// relation; wider relations fall back to the full prover for
/// column-precise questions.
const MAX_COLS: usize = 128;

/// Per-relation cap on incomparable column-coverage entries. Beyond it,
/// additional partial-coverage views are left to the prover — the cap
/// keeps a fast-path probe O(1) in the size of the granted view set.
const MAX_COVERAGE_ENTRIES: usize = 32;

// Process-wide observability counters, never a correctness input. The
// server's `METRICS` command reports all three next to the cache
// counters.
static FASTPATH_HITS: Counter = Counter::new();
static FASTPATH_MISSES: Counter = Counter::new();
static COMPILE_COUNT: Counter = Counter::new();

/// Queries admitted by the compiled fast path (all engines).
pub fn fastpath_hit_count() -> u64 {
    FASTPATH_HITS.get()
}

/// Fast-path probes that fell through to the full prover (all engines).
pub fn fastpath_miss_count() -> u64 {
    FASTPATH_MISSES.get()
}

/// Per-principal compilations performed (all engines).
pub fn compile_count() -> u64 {
    COMPILE_COUNT.get()
}

pub(crate) fn note_fastpath_hit() {
    FASTPATH_HITS.add(1);
}

pub(crate) fn note_fastpath_miss() {
    FASTPATH_MISSES.add(1);
}

/// One unconditional covering view of a single relation.
#[derive(Debug, Clone)]
struct RelCoverage {
    /// The granted authorization view this coverage comes from.
    view: Ident,
    /// The view's instantiated SPJ block — recorded verbatim in the
    /// certificate's U1 step so the checker can re-derive it.
    block: SpjBlock,
    /// Bit `i` set ⇔ schema column `i` is available through the view's
    /// projection as a plain column (columns ≥ [`MAX_COLS`] are never
    /// claimed).
    cols: u128,
    /// Every schema column is available: the view *is* the relation, up
    /// to projection order.
    full_width: bool,
}

/// A fast-path acceptance: the human-readable rule line and the covering
/// views (name + instantiated block) that justify it — exactly the U1
/// premises of the minted certificate.
#[derive(Debug, Clone)]
pub struct FastAccept {
    pub note: String,
    pub views: Vec<(Ident, SpjBlock)>,
}

/// A principal's compiled capabilities at one policy epoch — an
/// immutable snapshot; see the module docs for the invalidation
/// contract.
#[derive(Debug)]
pub struct PrincipalCaps {
    /// Relation → bit id, shared by every principal compiled against
    /// the same set of tables.
    rel_ids: Arc<HashMap<Ident, u32>>,
    /// Capability bitmask: bit `r` set ⇔ relation id `r` has a
    /// full-width unconditional covering view.
    full_mask: Vec<u64>,
    /// Per-relation coverage entries (full-width first).
    coverage: HashMap<Ident, Vec<RelCoverage>>,
    /// Granted views that did not compile (parameterized, predicated,
    /// distinct, multi-relation, access-pattern, non-SPJ) — the prover
    /// handles them on fast-path misses.
    residual: usize,
    /// The view side of the principal's cold proofs, built by the first
    /// check that needs it (see `nontruman::viewside`). One session key
    /// at a time: a check under another key replaces it.
    view_side: Mutex<Option<Arc<ViewSide>>>,
}

impl PrincipalCaps {
    /// Relations with at least one compiled coverage entry.
    pub fn compiled_relations(&self) -> usize {
        self.coverage.len()
    }

    /// Granted views left to the full prover.
    pub fn residual_views(&self) -> usize {
        self.residual
    }

    /// Attempts to admit `plan` (normalized) on compiled coverage alone.
    ///
    /// `Some` means the query is U1/U2-unconditionally valid and the
    /// returned views certify it; `None` means *nothing* — the caller
    /// must fall through to the full prover (fail closed, never deny
    /// from here).
    pub fn admit(&self, plan: &Plan, qblock: Option<&SpjBlock>) -> Option<FastAccept> {
        if plan.has_access_params() {
            return None;
        }
        let tables = plan.scanned_tables();
        if tables.is_empty() {
            return None;
        }
        // Single-scan SPJ block: column-precise coverage suffices; this
        // mirrors the matcher (availability through the view projection,
        // trivial implication against a predicate-free view, and a
        // duplicate-preserving view satisfying either multiplicity
        // direction).
        if let Some(qb) = qblock {
            if qb.scans.len() == 1 {
                return self.admit_single(qb);
            }
        }
        // Any other shape (joins, aggregates, nested blocks): demand
        // full-width coverage of every scanned relation — then each scan
        // leaf is a granted view and every operator above is an
        // operation over valid subexpressions (rule U2).
        self.admit_full(&tables)
    }

    /// The view side memoized under `key`, or the one `build` makes,
    /// which then replaces any side stored under another key. `build`
    /// runs outside the lock; a build that fails stores nothing, and of
    /// two racing builds under one key the first stored is kept.
    pub(crate) fn view_side(
        &self,
        key: &ViewSideKey,
        build: impl FnOnce() -> Result<ViewSide>,
    ) -> Result<Arc<ViewSide>> {
        let stored = |slot: &Option<Arc<ViewSide>>| {
            slot.as_ref().filter(|side| side.key() == key).map(Arc::clone)
        };
        if let Some(side) = stored(&self.view_side.lock()) {
            return Ok(side);
        }
        let side = Arc::new(build()?);
        let mut slot = self.view_side.lock();
        if let Some(first) = stored(&slot) {
            return Ok(first);
        }
        *slot = Some(Arc::clone(&side));
        Ok(side)
    }

    /// The mask-AND path: every scanned relation must carry full-width
    /// coverage.
    fn admit_full(&self, tables: &[Ident]) -> Option<FastAccept> {
        let mut qmask = vec![0u64; self.full_mask.len()];
        for t in tables {
            let id = *self.rel_ids.get(t)? as usize;
            let word = id / 64;
            if word >= qmask.len() {
                return None;
            }
            qmask[word] |= 1u64 << (id % 64);
        }
        if qmask
            .iter()
            .zip(self.full_mask.iter())
            .any(|(q, m)| q & m != *q)
        {
            return None;
        }
        // Mask says yes; fetch the witnesses (hash lookups) for the
        // certificate. A mask/coverage mismatch is impossible by
        // construction, but stays a miss rather than a panic.
        let mut seen: std::collections::BTreeSet<&Ident> = Default::default();
        let mut views = Vec::new();
        for t in tables {
            if !seen.insert(t) {
                continue;
            }
            let cov = self.coverage.get(t)?.iter().find(|c| c.full_width)?;
            views.push((cov.view.clone(), cov.block.clone()));
        }
        let names: Vec<String> = views.iter().map(|(v, _)| v.to_string()).collect();
        Some(FastAccept {
            note: format!(
                "FP1: compiled capability mask covers every scanned relation \
                 full-width via {} (unconditional)",
                names.join(", ")
            ),
            views,
        })
    }

    /// The column-coverage path for a single-scan SPJ block.
    fn admit_single(&self, qb: &SpjBlock) -> Option<FastAccept> {
        let (table, _) = qb.scans.first()?;
        let mut used: u128 = 0;
        let mut wide = false;
        for e in qb.conjuncts.iter().chain(qb.projection.iter()) {
            for c in e.referenced_cols() {
                if c >= MAX_COLS {
                    wide = true;
                } else {
                    used |= 1u128 << c;
                }
            }
        }
        let cov = self
            .coverage
            .get(table)?
            .iter()
            .find(|c| c.full_width || (!wide && (c.cols & used) == used))?;
        Some(FastAccept {
            note: format!(
                "FP2: compiled column coverage of {table} via {} (unconditional)",
                cov.view
            ),
            views: vec![(cov.view.clone(), cov.block.clone())],
        })
    }
}

/// The engine's compiled-policy tables: one immutable, epoch-stamped
/// [`PrincipalCaps`] snapshot per principal, compiled lazily.
#[derive(Debug, Default)]
pub struct CompiledPolicies {
    inner: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    /// Relation → bit id for future compiles; `None` until first use
    /// and after a sweep that introduced a name.
    rel_ids: Option<Arc<HashMap<Ident, u32>>>,
    /// principal → (epoch compiled at, snapshot).
    principals: HashMap<String, (u64, Arc<PrincipalCaps>)>,
}

impl CompiledPolicies {
    pub fn new() -> Self {
        Self::default()
    }

    /// The principal's compiled snapshot for `epoch`, compiling it when
    /// no snapshot stamped `epoch` is cached. Compilation runs outside
    /// the table lock — it is O(granted views) — so concurrent readers
    /// compiling *different* principals do not serialize behind each
    /// other.
    pub fn principal(
        &self,
        epoch: u64,
        user: &str,
        catalog: &Catalog,
        grants: &Grants,
    ) -> Arc<PrincipalCaps> {
        let rel_ids = {
            let mut st = self.inner.lock();
            if let Some((stamp, caps)) = st.principals.get(user) {
                if *stamp == epoch {
                    return Arc::clone(caps);
                }
            }
            Arc::clone(
                st.rel_ids
                    .get_or_insert_with(|| Arc::new(relation_ids(catalog))),
            )
        };
        COMPILE_COUNT.add(1);
        let caps = Arc::new(compile_principal(user, catalog, grants, rel_ids));
        let mut st = self.inner.lock();
        let slot = st
            .principals
            .entry(user.to_string())
            .or_insert_with(|| (epoch, Arc::clone(&caps)));
        // First compile wins on a benign race; both snapshots are
        // identical (compilation is a pure function of epoch state).
        if slot.0 != epoch {
            *slot = (epoch, caps);
        }
        Arc::clone(&slot.1)
    }

    /// The policy-change sweep: [`Sweep::keep`] decides every
    /// principal's snapshot (none carries a certificate, so an affected
    /// one is dropped). A snapshot is a pure function of the catalog and
    /// one principal's effective grants, so an unaffected one equals
    /// what a recompile would produce. A change that introduces a name
    /// resets the relation ids for future compiles; retained snapshots
    /// keep their own and simply miss (→ full prover) on a new table.
    /// It also drops every retained view side: a granted view that
    /// named a missing table or view binds once the name exists.
    pub fn sweep(&mut self, sweep: &Sweep) {
        let st = self.inner.get_mut();
        st.principals
            .retain(|user, (stamp, _)| sweep.keep(user, stamp, false));
        if sweep.introduces_names() {
            st.rel_ids = None;
            for (_, caps) in st.principals.values() {
                *caps.view_side.lock() = None;
            }
        }
    }

    /// Number of principals with a live compiled snapshot (gauge).
    pub fn compiled_principals(&self) -> u64 {
        self.inner.lock().principals.len() as u64
    }
}

/// Stable relation → bit-id assignment (catalog iteration order is
/// deterministic).
fn relation_ids(catalog: &Catalog) -> HashMap<Ident, u32> {
    let mut ids = HashMap::new();
    for (i, t) in catalog.tables().enumerate() {
        ids.insert(t.name.clone(), i as u32);
    }
    ids
}

/// Folds the principal's granted view set into a capability snapshot.
fn compile_principal(
    user: &str,
    catalog: &Catalog,
    grants: &Grants,
    rel_ids: Arc<HashMap<Ident, u32>>,
) -> PrincipalCaps {
    let mut coverage: HashMap<Ident, Vec<RelCoverage>> = HashMap::new();
    let mut residual = 0usize;
    for name in grants.views_for(user) {
        let Some(def) = catalog.view(&name) else {
            continue;
        };
        if !def.authorization {
            continue;
        }
        let view = AuthorizationView::new(def.name.clone(), def.query.clone());
        // Parameterized and access-pattern views are session- or
        // state-dependent: residual by definition.
        if view.is_access_pattern() || !view.session_params().is_empty() {
            residual += 1;
            continue;
        }
        // Instantiation with an empty scope proves session independence;
        // a view needing any parameter errors out here and stays
        // residual.
        let Ok(bound) = view.instantiate(catalog, &ParamScope::new()) else {
            residual += 1;
            continue;
        };
        let plan = normalize(&bound.plan);
        let Some(block) = SpjBlock::decompose(&plan) else {
            residual += 1;
            continue;
        };
        match compile_view_block(&name, block) {
            Some((table, cov)) => {
                let entries = coverage.entry(table).or_default();
                if dominated(entries, &cov) || entries.len() >= MAX_COVERAGE_ENTRIES {
                    // Nothing new to claim, or the per-relation cap is
                    // reached: the prover still sees the view.
                    continue;
                }
                if cov.full_width {
                    // Full width subsumes everything: keep it in front.
                    entries.retain(|e| e.full_width);
                    if entries.is_empty() {
                        entries.push(cov);
                    }
                } else {
                    entries.push(cov);
                }
            }
            None => residual += 1,
        }
    }
    let mut full_mask = vec![0u64; rel_ids.len().div_ceil(64)];
    for (table, entries) in &coverage {
        if entries.iter().any(|e| e.full_width) {
            if let Some(&id) = rel_ids.get(table) {
                let id = id as usize;
                full_mask[id / 64] |= 1u64 << (id % 64);
            }
        }
    }
    PrincipalCaps {
        rel_ids,
        full_mask,
        coverage,
        residual,
        view_side: Mutex::new(None),
    }
}

/// Is `cov`'s claim already implied by an existing entry?
fn dominated(entries: &[RelCoverage], cov: &RelCoverage) -> bool {
    entries.iter().any(|e| {
        e.full_width || (!cov.full_width && (e.cols | cov.cols) == e.cols)
    })
}

/// Classifies one instantiated view block: `Some` iff it is an
/// unconditional single-relation coverage (no predicate, no DISTINCT —
/// i.e. duplicate-preserving `π_cols(T)`).
fn compile_view_block(name: &Ident, block: SpjBlock) -> Option<(Ident, RelCoverage)> {
    if block.distinct || !block.conjuncts.is_empty() || block.scans.len() != 1 {
        return None;
    }
    let (table, schema) = block.scans.first()?.clone();
    let mut cols: u128 = 0;
    for e in &block.projection {
        if let ScalarExpr::Col(i) = e {
            if *i < MAX_COLS {
                cols |= 1u128 << i;
            }
        }
    }
    if cols == 0 {
        return None;
    }
    let full_width =
        schema.len() <= MAX_COLS && (0..schema.len()).all(|i| cols & (1u128 << i) != 0);
    Some((
        table,
        RelCoverage {
            view: name.clone(),
            block,
            cols,
            full_width,
        },
    ))
}

#[cfg(test)]
impl CompiledPolicies {
    /// The stamp of `user`'s cached snapshot, if any.
    pub(crate) fn stamp_of(&self, user: &str) -> Option<u64> {
        self.inner.lock().principals.get(user).map(|e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invalidation::PolicyDelta;
    use fgac_types::{Column, DataType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "grades",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
                Column::new("grade", DataType::Int).nullable(),
            ]),
            Some(vec![Ident::new("student_id"), Ident::new("course_id")]),
        )
        .unwrap();
        c.add_table(
            "students",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("name", DataType::Str),
                Column::new("type", DataType::Str),
            ]),
            Some(vec![Ident::new("student_id")]),
        )
        .unwrap();
        c
    }

    fn add_view(c: &mut Catalog, sql: &str) {
        let fgac_sql::Statement::CreateView(v) = fgac_sql::parse_statement(sql).unwrap() else {
            panic!("not a view");
        };
        c.add_view(fgac_storage::ViewDef {
            name: v.name,
            authorization: v.authorization,
            query: v.query,
        })
        .unwrap();
    }

    fn caps(catalog: &Catalog, grants: &Grants) -> PrincipalCaps {
        compile_principal(
            "u",
            catalog,
            grants,
            Arc::new(relation_ids(catalog)),
        )
    }

    fn bound_plan(catalog: &Catalog, sql: &str) -> Plan {
        let q = fgac_sql::parse_query(sql).unwrap();
        let b = fgac_algebra::bind_query(catalog, &q, &ParamScope::with_user("u")).unwrap();
        normalize(&b.plan)
    }

    fn admit(caps: &PrincipalCaps, catalog: &Catalog, sql: &str) -> Option<FastAccept> {
        let plan = bound_plan(catalog, sql);
        let qb = SpjBlock::decompose(&plan);
        caps.admit(&plan, qb.as_ref())
    }

    #[test]
    fn full_width_view_covers_any_shape() {
        let mut c = catalog();
        add_view(&mut c, "create authorization view g as select * from grades");
        let mut g = Grants::new();
        g.grant_view("u", "g");
        let caps = caps(&c, &g);
        assert_eq!(caps.compiled_relations(), 1);
        assert!(admit(&caps, &c, "select grade from grades where course_id = 'cs101'").is_some());
        // Aggregates are non-SPJ but full-width coverage admits them.
        assert!(admit(&caps, &c, "select course_id, avg(grade) from grades group by course_id")
            .is_some());
        // A relation with no coverage misses.
        assert!(admit(&caps, &c, "select name from students").is_none());
        // A join touching the uncovered relation misses too.
        assert!(admit(
            &caps,
            &c,
            "select grades.grade from grades, students \
             where grades.student_id = students.student_id"
        )
        .is_none());
    }

    #[test]
    fn column_subset_covers_single_scan_only() {
        let mut c = catalog();
        add_view(
            &mut c,
            "create authorization view sg as select student_id, grade from grades",
        );
        let mut g = Grants::new();
        g.grant_view("u", "sg");
        let caps = caps(&c, &g);
        // Uses only covered columns: hit.
        assert!(admit(&caps, &c, "select grade from grades where student_id = '11'").is_some());
        // Filters on course_id, which the view drops: miss.
        assert!(admit(&caps, &c, "select grade from grades where course_id = 'cs101'").is_none());
        // Self-join needs full width: miss.
        assert!(admit(
            &caps,
            &c,
            "select a.grade from grades a, grades b where a.student_id = b.student_id"
        )
        .is_none());
    }

    #[test]
    fn residual_views_never_compile() {
        let mut c = catalog();
        add_view(
            &mut c,
            "create authorization view my as select * from grades where student_id = $user_id",
        );
        add_view(
            &mut c,
            "create authorization view hi as select * from grades where grade > 50",
        );
        add_view(
            &mut c,
            "create authorization view one as select * from grades where student_id = $$1",
        );
        add_view(
            &mut c,
            "create authorization view dn as select distinct name from students",
        );
        let mut g = Grants::new();
        for v in ["my", "hi", "one", "dn"] {
            g.grant_view("u", v);
        }
        let caps = caps(&c, &g);
        assert_eq!(caps.compiled_relations(), 0);
        assert_eq!(caps.residual_views(), 4);
        assert!(admit(&caps, &c, "select grade from grades where student_id = 'u'").is_none());
    }

    #[test]
    fn unaffected_snapshot_survives_a_sweep_verbatim() {
        let mut c = catalog();
        add_view(&mut c, "create authorization view g as select * from grades");
        add_view(&mut c, "create authorization view s as select * from students");
        let mut g = Grants::new();
        g.grant_view("u", "g");
        g.grant_view("w", "s");
        let mut tables = CompiledPolicies::new();
        let u1 = tables.principal(1, "u", &c, &g);
        let _w1 = tables.principal(1, "w", &c, &g);
        // A change affecting only "w" keeps "u"'s snapshot byte-for-byte.
        let revoke = PolicyDelta::RevokeView {
            principal: "w".into(),
            view: Ident::new("s"),
        };
        g.revoke_view("w", &Ident::new("s"));
        tables.sweep(&Sweep::new(&revoke, &g, 1, 2));
        assert_eq!(tables.compiled_principals(), 1);
        let u2 = tables.principal(2, "u", &c, &g);
        assert!(Arc::ptr_eq(&u1, &u2), "unaffected snapshot must survive");
        // "w" recompiles against the post-revoke grants.
        let w2 = tables.principal(2, "w", &c, &g);
        assert_eq!(w2.compiled_relations(), 0);
    }

    #[test]
    fn new_table_sweep_rebuilds_relation_ids_for_future_compiles() {
        let mut c = catalog();
        add_view(&mut c, "create authorization view g as select * from grades");
        let mut g = Grants::new();
        g.grant_view("u", "g");
        let mut tables = CompiledPolicies::new();
        let before = tables.principal(1, "u", &c, &g);
        // Pure catalog extension: "u" is unaffected and keeps its caps.
        c.add_table(
            "audit",
            Schema::new(vec![Column::new("id", DataType::Str)]),
            None,
        )
        .unwrap();
        let new_table = PolicyDelta::NewTable {
            table: Ident::new("audit"),
        };
        tables.sweep(&Sweep::new(&new_table, &g, 1, 2));
        let after = tables.principal(2, "u", &c, &g);
        assert!(Arc::ptr_eq(&before, &after));
        // A fresh principal compiled after the sweep sees the new
        // relation in its id space (full-width view over grades still
        // admits; the new table simply has no coverage).
        g.grant_view("v2", "g");
        let fresh = tables.principal(2, "v2", &c, &g);
        assert!(fresh.rel_ids.contains_key(&Ident::new("audit")));
        assert!(admit(&fresh, &c, "select grade from grades where course_id = 'x'").is_some());
        assert!(admit(&fresh, &c, "select id from audit").is_none());
    }

    #[test]
    fn snapshot_stamped_behind_the_lookup_epoch_recompiles() {
        let mut c = catalog();
        add_view(&mut c, "create authorization view g as select * from grades");
        let mut g = Grants::new();
        g.grant_view("u", "g");
        let tables = CompiledPolicies::new();
        let a = tables.principal(3, "u", &c, &g);
        // Same epoch: same snapshot.
        let b = tables.principal(3, "u", &c, &g);
        assert!(Arc::ptr_eq(&a, &b));
        // The grant goes away with no sweep in between: a lookup at a
        // later epoch must recompile against the live grants, never
        // serve the snapshot stamped 3.
        g.revoke_view("u", &Ident::new("g"));
        let compiles = compile_count();
        let c4 = tables.principal(4, "u", &c, &g);
        assert!(compile_count() > compiles);
        assert_eq!(c4.compiled_relations(), 0);
        assert_eq!(tables.stamp_of("u"), Some(4));
    }
}
