//! One owner for policy state, and one rule for what a policy change
//! does to cached state.
//!
//! [`PolicyState`] owns the grant tables, the policy epoch and the four
//! caches derived from them: the [`ValidityCache`], the [`PlanCache`],
//! the [`CompiledPolicies`] and the [`FlowAnalysisCache`]. They are
//! private fields, and the only mutators are [`PolicyState::apply`],
//! [`PolicyState::grant_update`], [`PolicyState::restore`] and, for a
//! data commit, [`PolicyState::restamp_data`]. A grant therefore cannot
//! change without its sweep, and because the sweeps and the data
//! restamp take `&mut` to a cache that no one outside `PolicyState` can
//! borrow mutably, the borrow checker — not a lint — keeps them inside the
//! writer's critical section (`&mut Engine` / the
//! [`crate::SharedEngine`] write lock). A reader sees the pre-change
//! grants with the pre-change caches, or the post-change grants with
//! the post-change caches, never a mix.
//!
//! A [`PolicyDelta`] describes what changed, and
//! [`PolicyDelta::affects`] answers the one question the caches ask:
//! "could this change alter the effective grant set of user `u`?" After
//! the epoch bump `from → to`, every per-principal cache calls
//! [`Sweep::keep`] on each entry, the one restamp rule:
//!
//! * an unaffected entry stamped `from` is restamped to `to` — still
//!   fresh, no recheck;
//! * an unaffected entry stamped older stays stale: it still owes a
//!   revalidation an unrelated change must not launder;
//! * an affected entry is dropped, except that a certificate-carrying
//!   accept in the validity cache stays stale, eligible for warm
//!   revalidation ([`fgac_analyze::revalidate_certificate`]) on its
//!   next lookup;
//! * [`PolicyDelta::Full`] marks every principal affected and every
//!   name introduced, and keeps nothing.
//!
//! Plan-cache entries and the flow view-summary memo depend on name
//! binding, not on grants: only a change that introduces a name drops
//! them ([`Sweep::rebinds`]). Anything doubtful — a missing
//! certificate, a failed or budget-exhausted revalidation, a stamp
//! behind the epoch it is looked up at — falls closed to a full cold
//! check.

use crate::cache::{DataCommit, ValidityCache};
use crate::compiled::CompiledPolicies;
use crate::flowcache::FlowAnalysisCache;
use crate::grants::Grants;
use crate::plancache::PlanCache;
use fgac_sql::{Authorize, Query};
use fgac_storage::Catalog;
use fgac_types::{Counter, Ident};
use std::collections::BTreeSet;

// Process-wide churn observability, never a correctness input.
static POLICY_CHANGES: Counter = Counter::new();
static FULL_INVALIDATIONS: Counter = Counter::new();

/// Policy/schema changes applied through dependency-tracked
/// invalidation (all engines).
pub fn policy_change_count() -> u64 {
    POLICY_CHANGES.get()
}

/// Changes that fell back to a full cold-start sweep (recovery, or an
/// explicit [`PolicyDelta::Full`]) — all engines.
pub fn full_invalidation_count() -> u64 {
    FULL_INVALIDATIONS.get()
}

/// One policy or schema change, in just enough detail to perform its
/// grant change and to decide which cached state it can touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyDelta {
    /// An authorization view was granted to a principal (directly or by
    /// delegation).
    GrantView { principal: String, view: Ident },
    /// An authorization view was revoked from a principal.
    RevokeView { principal: String, view: Ident },
    /// An integrity constraint was made visible to a principal.
    GrantConstraint { principal: String, name: Ident },
    /// A user was added to a role: only that user's effective set moves.
    AddRole { user: String, role: String },
    /// `CREATE [AUTHORIZATION] VIEW`: a new name exists, but until it is
    /// granted it is in nobody's effective set.
    NewView { view: Ident },
    /// `CREATE TABLE`: a pure catalog extension. Existing verdicts
    /// quantify over the relations they mention and stay sound.
    NewTable { table: Ident },
    /// A new inclusion dependency: invisible until granted.
    NewConstraint { name: Ident },
    /// Shape unknown — invalidate everything (recovery uses this).
    Full,
}

impl PolicyDelta {
    /// Could this change alter `user`'s *effective* grant set (direct
    /// grants plus role-inherited ones)? `true` means the user's cached
    /// verdicts may no longer match a cold check and must be dropped or
    /// revalidated; `false` means they provably still would.
    pub fn affects(&self, grants: &Grants, user: &str) -> bool {
        match self {
            PolicyDelta::GrantView { principal, .. }
            | PolicyDelta::RevokeView { principal, .. }
            | PolicyDelta::GrantConstraint { principal, .. } => {
                user == principal
                    || grants
                        .role_memberships()
                        .get(user)
                        .is_some_and(|roles| roles.contains(principal))
            }
            PolicyDelta::AddRole { user: u, .. } => user == u,
            // A freshly created view/table/constraint is granted to no
            // one: no effective set moves until a later grant (which
            // arrives as its own delta).
            PolicyDelta::NewView { .. }
            | PolicyDelta::NewTable { .. }
            | PolicyDelta::NewConstraint { .. } => false,
            PolicyDelta::Full => true,
        }
    }

    /// The catalog name this change introduces, if any — the only kind
    /// of change that can alter how an existing SQL text *binds* (name
    /// resolution / view expansion).
    pub fn introduced_name(&self) -> Option<&Ident> {
        match self {
            PolicyDelta::NewView { view } => Some(view),
            PolicyDelta::NewTable { table } => Some(table),
            _ => None,
        }
    }
}

/// One policy change as a cache sweep sees it: the delta, the
/// post-change grants it is judged against, and the epoch bump
/// `from → to`.
#[derive(Debug)]
pub struct Sweep<'a> {
    delta: &'a PolicyDelta,
    grants: &'a Grants,
    from: u64,
    to: u64,
}

impl<'a> Sweep<'a> {
    pub fn new(delta: &'a PolicyDelta, grants: &'a Grants, from: u64, to: u64) -> Self {
        Sweep {
            delta,
            grants,
            from,
            to,
        }
    }

    /// The restamp rule (see the module docs), applied to one cached
    /// entry of `principal` stamped `stamp`: `false` drops the entry;
    /// `true` keeps it, restamped to the new epoch only when it is
    /// unaffected and was fresh. `revalidatable` marks an accept that
    /// carries a certificate — affected, it stays behind stale.
    pub fn keep(&self, principal: &str, stamp: &mut u64, revalidatable: bool) -> bool {
        if *self.delta == PolicyDelta::Full {
            return false;
        }
        if self.delta.affects(self.grants, principal) {
            return revalidatable;
        }
        if *stamp == self.from {
            *stamp = self.to;
        }
        true
    }

    /// Does the change introduce a name at all? `Full` introduces every
    /// name.
    pub fn introduces_names(&self) -> bool {
        *self.delta == PolicyDelta::Full || self.delta.introduced_name().is_some()
    }

    /// Could the change re-bind something that read the names `deps`?
    pub fn rebinds(&self, deps: &BTreeSet<Ident>) -> bool {
        *self.delta == PolicyDelta::Full
            || self.delta.introduced_name().is_some_and(|n| deps.contains(n))
    }
}

/// The grant tables, the policy epoch and every cache derived from them,
/// behind one owner (see the module docs).
///
/// # The fence
///
/// Readers get `&` accessors only, so a sweep or a grant change through
/// them does not compile. A restamp sweep through the engine's
/// validity cache is refused:
///
/// ```compile_fail,E0596
/// use fgac_core::invalidation::Sweep;
/// use fgac_core::{Engine, Grants, PolicyDelta, ValidityCache};
/// let engine = Engine::new();
/// let (delta, grants) = (PolicyDelta::Full, Grants::new());
/// engine.cache().sweep(&Sweep::new(&delta, &grants, 0, 1));
/// ```
///
/// while the same sweep of a cache the caller owns compiles:
///
/// ```
/// use fgac_core::invalidation::Sweep;
/// use fgac_core::{Engine, Grants, PolicyDelta, ValidityCache};
/// let engine = Engine::new();
/// let (delta, grants) = (PolicyDelta::Full, Grants::new());
/// ValidityCache::new().sweep(&Sweep::new(&delta, &grants, 0, 1));
/// ```
///
/// Likewise a grant through the engine's grant tables is refused:
///
/// ```compile_fail,E0596
/// let engine = fgac_core::Engine::new();
/// engine.grants().grant_view("alice", "v");
/// ```
///
/// while a grant to a copy the caller owns compiles:
///
/// ```
/// let engine = fgac_core::Engine::new();
/// engine.grants().clone().grant_view("alice", "v");
/// ```
///
/// The data-commit restamp is fenced the same way. A reader holding
/// `&PolicyState` cannot run it:
///
/// ```compile_fail,E0596
/// use fgac_core::invalidation::PolicyState;
/// use fgac_core::DataCommit;
/// fn reader(state: &PolicyState, commit: &DataCommit<'_>) {
///     state.restamp_data(commit);
/// }
/// ```
///
/// nor through the engine's validity cache:
///
/// ```compile_fail,E0596
/// use fgac_core::{DataCommit, Engine};
/// let engine = Engine::new();
/// let mut db = fgac_storage::Database::new();
/// let mark = db.mark();
/// engine.cache().restamp(&DataCommit::new(&db, mark, 0, 1));
/// ```
///
/// while the owner, and a cache the caller owns, can:
///
/// ```
/// use fgac_core::invalidation::PolicyState;
/// use fgac_core::{DataCommit, ValidityCache};
/// let mut db = fgac_storage::Database::new();
/// let mark = db.mark();
/// let commit = DataCommit::new(&db, mark, 0, 1);
/// PolicyState::new().restamp_data(&commit);
/// ValidityCache::new().restamp(&commit);
/// ```
#[derive(Debug, Default)]
pub struct PolicyState {
    grants: Grants,
    /// Bumped on every catalog or authorization change; certificates
    /// are minted under it and every cached entry is stamped with it.
    epoch: u64,
    validity: ValidityCache,
    plans: PlanCache,
    compiled: CompiledPolicies,
    flow: FlowAnalysisCache,
}

impl PolicyState {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn grants(&self) -> &Grants {
        &self.grants
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn validity_cache(&self) -> &ValidityCache {
        &self.validity
    }

    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    pub fn compiled(&self) -> &CompiledPolicies {
        &self.compiled
    }

    pub fn flow(&self) -> &FlowAnalysisCache {
        &self.flow
    }

    /// Performs the delta's grant change, bumps the epoch, and sweeps
    /// every cache with the restamp rule.
    pub fn apply(&mut self, delta: PolicyDelta) {
        match &delta {
            PolicyDelta::GrantView { principal, view } => {
                self.grants.grant_view(principal.as_str(), view.clone())
            }
            PolicyDelta::RevokeView { principal, view } => self.grants.revoke_view(principal, view),
            PolicyDelta::GrantConstraint { principal, name } => {
                self.grants.grant_constraint(principal.as_str(), name.clone())
            }
            PolicyDelta::AddRole { user, role } => {
                self.grants.add_role(user.as_str(), role.as_str())
            }
            PolicyDelta::NewView { .. }
            | PolicyDelta::NewTable { .. }
            | PolicyDelta::NewConstraint { .. } => {}
            PolicyDelta::Full => {
                FULL_INVALIDATIONS.add(1);
            }
        }
        POLICY_CHANGES.add(1);
        let from = self.epoch;
        self.epoch += 1;
        self.sweep(&delta, from);
    }

    /// Grants an `AUTHORIZE ...` update authorization. No cached state
    /// depends on it — update authorizations are read per statement
    /// ([`crate::UpdateAuthorizer`]) and never cached — so nothing is
    /// swept and the epoch stays.
    pub fn grant_update(&mut self, principal: impl Into<String>, auth: Authorize) {
        self.grants.grant_update(principal, auth);
    }

    /// Recovery: installs a snapshot's grant tables and epoch and drops
    /// every cache.
    pub fn restore(&mut self, grants: Grants, epoch: u64) {
        self.grants = grants;
        self.epoch = epoch;
        self.sweep(&PolicyDelta::Full, epoch);
    }

    /// A data commit: restamps the validity cache's conditional accepts
    /// whose remainder probe the commit cannot have emptied
    /// ([`ValidityCache::restamp`]). Grants and the epoch do not move.
    pub fn restamp_data(&mut self, commit: &DataCommit<'_>) {
        self.validity.restamp(commit);
    }

    fn sweep(&mut self, delta: &PolicyDelta, from: u64) {
        let sweep = Sweep::new(delta, &self.grants, from, self.epoch);
        self.validity.sweep(&sweep);
        self.plans.sweep(&sweep);
        self.flow.sweep(&sweep);
        self.compiled.sweep(&sweep);
    }
}

/// The catalog names a query's binding depends on: every name in a FROM
/// clause (tables *and* views, joins included), recursing through view
/// definitions — a cached plan embeds expanded view bodies, so it reads
/// every view on the expansion path and every base table underneath.
pub fn query_dependencies(catalog: &Catalog, query: &Query) -> BTreeSet<Ident> {
    let mut deps = BTreeSet::new();
    collect_query(catalog, query, &mut deps, 0);
    deps
}

/// View definitions can nest; the binder enforces its own expansion
/// limits, so a runaway here would indicate a cycle the binder already
/// rejected. Depth-capped defensively all the same.
const MAX_VIEW_DEPTH: usize = 32;

fn collect_query(catalog: &Catalog, query: &Query, deps: &mut BTreeSet<Ident>, depth: usize) {
    for tref in &query.from {
        collect_name(catalog, &tref.name, deps, depth);
        for join in &tref.joins {
            collect_name(catalog, &join.table, deps, depth);
        }
    }
}

fn collect_name(catalog: &Catalog, name: &Ident, deps: &mut BTreeSet<Ident>, depth: usize) {
    if !deps.insert(name.clone()) || depth >= MAX_VIEW_DEPTH {
        return;
    }
    if let Some(def) = catalog.view(name) {
        collect_query(catalog, &def.query, deps, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nontruman::Verdict;
    use fgac_analyze::{CertVerdict, Certificate};
    use std::sync::Arc;

    fn grants() -> Grants {
        let mut g = Grants::new();
        g.grant_view("alice", "v1");
        g.grant_view("student", "v2");
        g.add_role("bob", "student");
        g
    }

    #[test]
    fn grant_and_revoke_affect_principal_and_role_members() {
        let g = grants();
        let d = PolicyDelta::RevokeView {
            principal: "alice".into(),
            view: Ident::new("v1"),
        };
        assert!(d.affects(&g, "alice"));
        assert!(!d.affects(&g, "bob"));
        let role = PolicyDelta::GrantView {
            principal: "student".into(),
            view: Ident::new("v3"),
        };
        // Bob inherits through the role; Alice does not hold it.
        assert!(role.affects(&g, "bob"));
        assert!(!role.affects(&g, "alice"));
        // The role principal itself is affected too.
        assert!(role.affects(&g, "student"));
    }

    #[test]
    fn add_role_affects_only_that_user() {
        let g = grants();
        let d = PolicyDelta::AddRole {
            user: "carol".into(),
            role: "student".into(),
        };
        assert!(d.affects(&g, "carol"));
        assert!(!d.affects(&g, "alice"));
        assert!(!d.affects(&g, "bob"));
    }

    #[test]
    fn pure_schema_changes_affect_nobody() {
        let g = grants();
        for d in [
            PolicyDelta::NewTable { table: Ident::new("t") },
            PolicyDelta::NewView { view: Ident::new("v") },
            PolicyDelta::NewConstraint { name: Ident::new("c") },
        ] {
            assert!(!d.affects(&g, "alice"));
            assert!(!d.affects(&g, "bob"));
        }
        assert!(PolicyDelta::Full.affects(&g, "anyone"));
    }

    #[test]
    fn introduced_names_cover_binding_changes_only() {
        let g = Grants::new();
        let deps: BTreeSet<Ident> = [Ident::new("t")].into_iter().collect();
        let rebinds = |d: &PolicyDelta| Sweep::new(d, &g, 0, 1).rebinds(&deps);
        let introduces = |d: &PolicyDelta| Sweep::new(d, &g, 0, 1).introduces_names();
        let table = PolicyDelta::NewTable { table: Ident::new("t") };
        let view = PolicyDelta::NewView { view: Ident::new("v") };
        let grant = PolicyDelta::GrantView {
            principal: "u".into(),
            view: Ident::new("t"),
        };
        assert!(rebinds(&table) && introduces(&table));
        assert!(!rebinds(&view) && introduces(&view));
        assert!(!rebinds(&grant) && !introduces(&grant));
        // Full introduces every name.
        assert!(rebinds(&PolicyDelta::Full) && introduces(&PolicyDelta::Full));
    }

    /// What one cached entry holds, as far as the restamp rule cares.
    #[derive(Debug, Clone, Copy)]
    enum Held {
        CertifiedAccept,
        CertifiedDenial,
        BareAccept,
    }

    /// The restamp rule, one case per row, run against all three
    /// per-principal caches. Each row names the stamp the entry keeps
    /// after the sweep `FROM → TO`, or `None` when it is dropped. The
    /// compiled caps and flow findings carry no certificate, so an
    /// affected entry always drops there.
    #[test]
    fn restamp_rule_is_the_same_in_every_per_principal_cache() {
        const OLDER: u64 = 2;
        const FROM: u64 = 4;
        const TO: u64 = 5;
        let revoke_bob = PolicyDelta::RevokeView {
            principal: "bob".into(),
            view: Ident::new("v"),
        };
        let cases = [
            ("unaffected@from", "alice", FROM, Held::CertifiedAccept, &revoke_bob, Some(TO), Some(TO)),
            ("unaffected@older", "alice", OLDER, Held::CertifiedAccept, &revoke_bob, Some(OLDER), Some(OLDER)),
            ("affected accept with a certificate", "bob", FROM, Held::CertifiedAccept, &revoke_bob, Some(FROM), None),
            ("affected denial", "bob", FROM, Held::CertifiedDenial, &revoke_bob, None, None),
            ("affected without a certificate", "bob", FROM, Held::BareAccept, &revoke_bob, None, None),
            ("Full", "alice", FROM, Held::CertifiedAccept, &PolicyDelta::Full, None, None),
        ];
        let grants = Grants::new();
        for (case, who, stamp, held, delta, validity_left, others_left) in cases {
            let sweep = Sweep::new(delta, &grants, FROM, TO);

            let mut validity = ValidityCache::new();
            let cert = || {
                Some(Arc::new(Certificate {
                    principal: who.into(),
                    policy_epoch: stamp,
                    verdict: CertVerdict::Unconditional,
                    params: vec![],
                    query_tables: vec![],
                    query: None,
                    steps: vec![],
                }))
            };
            let (verdict, cert) = match held {
                Held::CertifiedAccept => (Verdict::Unconditional, cert()),
                Held::CertifiedDenial => (Verdict::Invalid, cert()),
                Held::BareAccept => (Verdict::Unconditional, None),
            };
            validity.store(who, 0, 0, stamp, verdict, cert);
            validity.sweep(&sweep);
            assert_eq!(validity.stamp_of(who, 0), validity_left, "validity cache, {case}");
            let dropped = u64::from(validity_left.is_none());
            assert_eq!(validity.invalidated_entries(), dropped, "validity drops, {case}");

            let mut compiled = CompiledPolicies::new();
            compiled.principal(stamp, who, &Catalog::new(), &grants);
            compiled.sweep(&sweep);
            assert_eq!(compiled.stamp_of(who), others_left, "compiled caps, {case}");

            let mut flow = FlowAnalysisCache::new();
            flow.seed(who, stamp);
            flow.sweep(&sweep);
            assert_eq!(flow.stamp_of(who), others_left, "flow cache, {case}");
        }
    }

    #[test]
    fn only_apply_moves_the_epoch_and_restore_drops_every_cache() {
        let mut state = PolicyState::new();
        state.apply(PolicyDelta::AddRole {
            user: "bob".into(),
            role: "student".into(),
        });
        state.apply(PolicyDelta::GrantView {
            principal: "student".into(),
            view: Ident::new("v"),
        });
        assert_eq!(state.epoch(), 2);
        assert_eq!(state.grants().views_for("bob"), vec![Ident::new("v")]);
        let fgac_sql::Statement::Authorize(auth) =
            fgac_sql::parse_statement("authorize insert on grades where student_id = $user_id")
                .unwrap()
        else {
            panic!("not an AUTHORIZE statement");
        };
        state.grant_update("bob", auth);
        assert_eq!(state.epoch(), 2, "update authorizations are never cached");
        assert_eq!(state.grants().update_auths_for("bob").len(), 1);

        state.validity_cache().store("bob", 0, 0, 2, Verdict::Unconditional, None);
        state.restore(Grants::new(), 7);
        assert_eq!(state.epoch(), 7);
        assert!(state.grants().views_for("bob").is_empty());
        assert!(state.validity_cache().is_empty());
    }

    #[test]
    fn query_dependencies_recurse_through_views() {
        let mut c = Catalog::new();
        c.add_table(
            "base",
            fgac_types::Schema::new(vec![fgac_types::Column::new(
                "a",
                fgac_types::DataType::Int,
            )]),
            None,
        )
        .unwrap();
        let fgac_sql::Statement::CreateView(v) =
            fgac_sql::parse_statement("create view outer_v as select a from base").unwrap()
        else {
            panic!("not a view");
        };
        c.add_view(fgac_storage::ViewDef {
            name: v.name,
            authorization: v.authorization,
            query: v.query,
        })
        .unwrap();
        let q = fgac_sql::parse_query("select a from outer_v").unwrap();
        let deps = query_dependencies(&c, &q);
        assert!(deps.contains(&Ident::new("outer_v")));
        assert!(deps.contains(&Ident::new("base")));
    }
}
