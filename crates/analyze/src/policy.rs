//! The policy-set analysis passes.
//!
//! Inputs are deliberately plain data — the catalog plus the raw grant
//! tables — so the analyzer stays below `fgac-core` in the crate DAG
//! (core *calls* the analyzer; the analyzer must not need core).

use crate::diag::{Code, Diagnostic};
use fgac_algebra::{implication, normalize, ParamScope, ScalarExpr, SpjBlock};
use fgac_sql::{Expr, Query};
use fgac_storage::Catalog;
use fgac_types::{Budget, BudgetMeter, Ident};
use std::collections::{BTreeMap, BTreeSet};

/// The installed policy set, as plain references into engine state.
pub struct PolicySet<'a> {
    pub catalog: &'a Catalog,
    /// principal -> granted authorization view names.
    pub view_grants: &'a BTreeMap<String, BTreeSet<Ident>>,
    /// principal -> visible integrity constraint names.
    pub constraint_grants: &'a BTreeMap<String, BTreeSet<Ident>>,
    /// user -> roles.
    pub role_memberships: &'a BTreeMap<String, Vec<String>>,
    /// principal -> views revoked from that principal (tombstones kept
    /// for the `P003` shadowed-revocation lint).
    pub revocations: &'a BTreeMap<String, BTreeSet<Ident>>,
}

/// Analyzer knobs. The budget bounds every prover call made by one
/// `analyze_policy_set` run; exhaustion degrades findings to
/// [`Severity::Unknown`] instead of failing the analysis.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    pub budget: Budget,
}

/// What one view definition looks like to the analyzer.
pub(crate) struct ViewInfo {
    pub(crate) exists: bool,
    pub(crate) authorization: bool,
    /// Bind failure (unknown table/column) — the `P004` evidence.
    pub(crate) bind_error: Option<String>,
    /// SPJ decomposition of the bound, normalized body, when it has
    /// that shape (aggregates/unions don't; predicate lints skip them).
    pub(crate) block: Option<SpjBlock>,
    /// The source AST, for the syntactic parameter lint.
    pub(crate) query: Option<Query>,
}

/// Budget-metered prover façade: after the first exhaustion every
/// subsequent proof request reports [`Severity::Unknown`] (fail-open)
/// instead of running.
pub(crate) struct Prover {
    pub(crate) meter: BudgetMeter,
    pub(crate) exhausted: bool,
}

impl Prover {
    /// `Some(answer)`, or `None` when the budget ran out (now or on an
    /// earlier call).
    pub(crate) fn implies(&mut self, p: &[ScalarExpr], q: &[ScalarExpr], arity: usize) -> Option<bool> {
        if self.exhausted {
            return None;
        }
        match implication::implies_metered(p, q, arity, &self.meter) {
            Ok(b) => Some(b),
            Err(_) => {
                self.exhausted = true;
                None
            }
        }
    }
}

struct Pass<'a> {
    set: &'a PolicySet<'a>,
    prover: Prover,
    diags: Vec<Diagnostic>,
    /// Dedup for fail-open diagnostics: one per (code, principal, view).
    unknown_reported: BTreeSet<(Code, String, String)>,
}

impl<'a> Pass<'a> {
    fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Records that a prover-backed check could not complete.
    fn push_unknown(&mut self, code: Code, principal: &str, object: &str) {
        let key = (code, principal.to_string(), object.to_string());
        if self.unknown_reported.insert(key) {
            self.push(Diagnostic::unknown(
                code,
                principal,
                object,
                "analysis budget exhausted; result unknown",
            ));
        }
    }

    /// A metered implication query; on exhaustion the check degrades to
    /// an `Unknown` diagnostic attributed to `(code, principal, object)`.
    fn implies(
        &mut self,
        code: Code,
        principal: &str,
        object: &str,
        p: &[ScalarExpr],
        q: &[ScalarExpr],
        arity: usize,
    ) -> Option<bool> {
        match self.prover.implies(p, q, arity) {
            Some(b) => Some(b),
            None => {
                self.push_unknown(code, principal, object);
                None
            }
        }
    }
}

/// Rewrites every `$param` to a *symbolic* `$$`-style parameter so the
/// view body binds without a session and the prover treats equal
/// parameters as equal symbols (`$user_id` in two views unifies). The
/// `?` prefix cannot collide with source-level `$$` names, which lex as
/// identifier characters only.
pub(crate) fn symbolize_params(q: &Query) -> Query {
    fn subst(e: &mut Expr) {
        match e {
            Expr::Param(p) => *e = Expr::AccessParam(format!("?{p}")),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => subst(expr),
            Expr::Binary { left, right, .. } => {
                subst(left);
                subst(right);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    subst(a);
                }
            }
            _ => {}
        }
    }
    let mut q = q.clone();
    for item in &mut q.projection {
        if let fgac_sql::SelectItem::Expr { expr, .. } = item {
            subst(expr);
        }
    }
    for t in &mut q.from {
        for j in &mut t.joins {
            subst(&mut j.on);
        }
    }
    if let Some(w) = &mut q.selection {
        subst(w);
    }
    for g in &mut q.group_by {
        subst(g);
    }
    if let Some(h) = &mut q.having {
        subst(h);
    }
    for o in &mut q.order_by {
        subst(&mut o.expr);
    }
    q
}

/// Binds and decomposes one view definition against the catalog.
pub(crate) fn inspect_view(catalog: &Catalog, name: &Ident) -> ViewInfo {
    let Some(def) = catalog.view(name) else {
        return ViewInfo {
            exists: false,
            authorization: false,
            bind_error: None,
            block: None,
            query: None,
        };
    };
    let symbolized = symbolize_params(&def.query);
    match fgac_algebra::bind_query(catalog, &symbolized, &ParamScope::new()) {
        Ok(bound) => {
            let plan = normalize(&bound.plan);
            ViewInfo {
                exists: true,
                authorization: def.authorization,
                bind_error: None,
                block: SpjBlock::decompose(&plan),
                query: Some(def.query.clone()),
            }
        }
        Err(e) => ViewInfo {
            exists: true,
            authorization: def.authorization,
            bind_error: Some(e.to_string()),
            block: None,
            query: Some(def.query.clone()),
        },
    }
}

/// The effective view set of a principal: direct grants plus grants of
/// every role it belongs to. Maps each view to the grant entry that
/// supplies it (the principal itself, or a role name), preferring the
/// direct grant.
pub(crate) fn effective_views(set: &PolicySet, user: &str) -> BTreeMap<Ident, String> {
    effective_grants(set.view_grants, set.role_memberships, user)
}

/// The effective constraint-visibility set of a principal, with the
/// same direct-grant-preferring source attribution as
/// [`effective_views`].
pub(crate) fn effective_constraints(set: &PolicySet, user: &str) -> BTreeMap<Ident, String> {
    effective_grants(set.constraint_grants, set.role_memberships, user)
}

fn effective_grants(
    grants: &BTreeMap<String, BTreeSet<Ident>>,
    roles: &BTreeMap<String, Vec<String>>,
    user: &str,
) -> BTreeMap<Ident, String> {
    let mut out: BTreeMap<Ident, String> = BTreeMap::new();
    if let Some(memberships) = roles.get(user) {
        for role in memberships {
            if let Some(vs) = grants.get(role) {
                for v in vs {
                    out.entry(v.clone()).or_insert_with(|| role.clone());
                }
            }
        }
    }
    if let Some(vs) = grants.get(user) {
        for v in vs {
            out.insert(v.clone(), user.to_string());
        }
    }
    out
}

/// All parameters of a query, with the subset that is *constrained*:
/// session (`$`) parameters must appear somewhere under a comparison in
/// a predicate position (join `ON`, `WHERE`, `HAVING`); access-pattern
/// (`$$`) parameters must be equality-compared with a column, or
/// constant instantiation (Section 6) can never pin them.
pub(crate) fn unconstrained_params(q: &Query) -> Vec<(String, bool)> {
    let mut all: BTreeSet<(String, bool)> = BTreeSet::new();
    let mut visit_all = |e: &Expr| {
        e.walk(&mut |x| match x {
            Expr::Param(p) => {
                all.insert((p.clone(), false));
            }
            Expr::AccessParam(p) => {
                all.insert((p.clone(), true));
            }
            _ => {}
        });
    };
    for item in &q.projection {
        if let fgac_sql::SelectItem::Expr { expr, .. } = item {
            visit_all(expr);
        }
    }
    let mut predicates: Vec<&Expr> = Vec::new();
    for t in &q.from {
        for j in &t.joins {
            visit_all(&j.on);
            predicates.push(&j.on);
        }
    }
    if let Some(w) = &q.selection {
        visit_all(w);
        predicates.push(w);
    }
    for g in &q.group_by {
        visit_all(g);
    }
    if let Some(h) = &q.having {
        visit_all(h);
        predicates.push(h);
    }
    for o in &q.order_by {
        visit_all(&o.expr);
    }

    let mut session_ok: BTreeSet<String> = BTreeSet::new();
    let mut access_ok: BTreeSet<String> = BTreeSet::new();
    for p in predicates {
        p.walk(&mut |x| {
            if let Expr::Binary { left, op, right } = x {
                if !op.is_comparison() {
                    return;
                }
                for side in [left.as_ref(), right.as_ref()] {
                    side.walk(&mut |y| {
                        if let Expr::Param(name) = y {
                            session_ok.insert(name.clone());
                        }
                    });
                }
                if *op == fgac_sql::BinaryOp::Eq {
                    for (a, b) in [(left.as_ref(), right.as_ref()), (right.as_ref(), left.as_ref())]
                    {
                        if let (Expr::AccessParam(name), Expr::Column { .. }) = (a, b) {
                            access_ok.insert(name.clone());
                        }
                    }
                }
            }
        });
    }

    all.into_iter()
        .filter(|(name, is_access)| {
            if *is_access {
                !access_ok.contains(name)
            } else {
                !session_ok.contains(name)
            }
        })
        .collect()
}

/// Runs every policy lint over the grant tables. `principal` restricts
/// the per-principal passes to one principal's effective set; `None`
/// analyzes everyone mentioned in the grant/role/revocation tables.
pub fn analyze_policy_set(
    set: &PolicySet,
    principal: Option<&str>,
    opts: &AnalyzeOptions,
) -> Vec<Diagnostic> {
    let mut pass = Pass {
        set,
        prover: Prover {
            meter: opts.budget.start(),
            exhausted: false,
        },
        diags: Vec::new(),
        unknown_reported: BTreeSet::new(),
    };

    let mut principals: BTreeSet<String> = BTreeSet::new();
    match principal {
        Some(p) => {
            principals.insert(p.to_string());
        }
        None => {
            principals.extend(set.view_grants.keys().cloned());
            principals.extend(set.constraint_grants.keys().cloned());
            principals.extend(set.role_memberships.keys().cloned());
            principals.extend(set.revocations.keys().cloned());
        }
    }

    // Bind every referenced view once.
    let mut infos: BTreeMap<Ident, ViewInfo> = BTreeMap::new();
    for p in &principals {
        for v in effective_views(set, p).keys() {
            infos
                .entry(v.clone())
                .or_insert_with(|| inspect_view(set.catalog, v));
        }
    }

    for p in &principals {
        analyze_principal(&mut pass, p, &infos, &principals);
    }

    let mut diags = pass.diags;
    diags.sort_by(|a, b| {
        (a.severity, a.code, &a.principal, &a.object).cmp(&(
            b.severity,
            b.code,
            &b.principal,
            &b.object,
        ))
    });
    diags
}

fn analyze_principal(
    pass: &mut Pass,
    p: &str,
    infos: &BTreeMap<Ident, ViewInfo>,
    analyzed: &BTreeSet<String>,
) {
    let effective = effective_views(pass.set, p);
    let mut unsat: BTreeSet<Ident> = BTreeSet::new();

    // P004 / P001 / P006 — per-view lints. These findings are properties
    // of the grant *entry*, not of who inherits it: when a view reaches
    // `p` through a role that is itself in the analyzed set, the role's
    // own pass reports the defect and repeating it for every member
    // would only duplicate diagnostics (and inflate CI gates).
    for (v, source) in &effective {
        let report_here = source == p || !analyzed.contains(source);
        // Attribute fail-open "unknown" findings to the grant entry too,
        // so exhaustion is reported once per entry, not once per member.
        let attributed = if report_here { p } else { source.as_str() };
        let info = &infos[v];
        if !info.exists {
            if report_here {
                pass.push(Diagnostic::new(
                    Code::UnusableView,
                    p,
                    v.as_str(),
                    "granted view does not exist in the catalog",
                ));
            }
            continue;
        }
        if !info.authorization {
            if report_here {
                pass.push(Diagnostic::new(
                    Code::UnusableView,
                    p,
                    v.as_str(),
                    "granted view is not an AUTHORIZATION view; the validator ignores it",
                ));
            }
            continue;
        }
        if let Some(err) = &info.bind_error {
            if report_here {
                pass.push(Diagnostic::new(
                    Code::UnusableView,
                    p,
                    v.as_str(),
                    format!("view body no longer binds against the catalog: {err}"),
                ));
            }
            continue;
        }

        if report_here {
            if let Some(q) = &info.query {
                for (name, is_access) in unconstrained_params(q) {
                    let msg = if is_access {
                        format!(
                            "access-pattern parameter $${name} is never equality-constrained \
                             against a column; constant instantiation (Section 6) can never pin \
                             it, so the view contributes nothing"
                        )
                    } else {
                        format!(
                            "session parameter ${name} never appears under a comparison in a \
                             predicate; the grant does not actually depend on it"
                        )
                    };
                    pass.push(Diagnostic::new(Code::UnboundParameter, p, v.as_str(), msg));
                }
            }
        }

        if let Some(block) = &info.block {
            // The satisfiability proof still runs even when the finding
            // is reported elsewhere: the pairwise lints below need
            // `unsat` to exclude dead views.
            let arity = block.flat_arity();
            if let Some(true) = pass.implies(
                Code::UnsatisfiableViewPredicate,
                attributed,
                v.as_str(),
                &block.conjuncts,
                &[ScalarExpr::lit(false)],
                arity,
            ) {
                if report_here {
                    pass.push(Diagnostic::new(
                        Code::UnsatisfiableViewPredicate,
                        p,
                        v.as_str(),
                        "view predicate is unsatisfiable: the grant can never produce a row",
                    ));
                }
                unsat.insert(v.clone());
            }
        }
    }

    // P004 — constraint-visibility grants of constraints the catalog
    // does not define (no foreign key or inclusion dependency of that
    // name). Constraint visibility feeds U3a condition 2; a dangling
    // grant silently contributes nothing to any validity check.
    for (c, source) in effective_constraints(pass.set, p) {
        if source != p && analyzed.contains(&source) {
            continue;
        }
        let exists = pass
            .set
            .catalog
            .foreign_keys()
            .iter()
            .any(|fk| fk.name == c)
            || pass
                .set
                .catalog
                .inclusion_dependencies()
                .iter()
                .any(|d| d.name == c);
        if !exists {
            pass.push(Diagnostic::new(
                Code::UnusableView,
                p,
                c.as_str(),
                "granted constraint does not exist in the catalog; the visibility \
                 grant can never satisfy U3a condition 2",
            ));
        }
    }

    // P005 — leaky conditional checks: a multi-relation view whose C3
    // remainder probe would read a relation the principal holds no
    // other view over.
    for v in effective.keys() {
        let info = &infos[v];
        let Some(block) = &info.block else { continue };
        if block.scans.len() < 2 {
            continue;
        }
        let tables: BTreeSet<&Ident> = block.scans.iter().map(|(t, _)| t).collect();
        for t in tables {
            let covered = effective.keys().any(|other| {
                if other == v {
                    return false;
                }
                let oi = &infos[other];
                if !oi.exists || !oi.authorization || oi.bind_error.is_some() {
                    return false;
                }
                match &oi.block {
                    Some(ob) => ob.scans.iter().any(|(ot, _)| ot == t),
                    // Non-SPJ but bindable: fall back to the FROM list.
                    None => oi
                        .query
                        .as_ref()
                        .is_some_and(|q| q.from.iter().any(|tr| &tr.name == t)),
                }
            });
            if !covered {
                pass.push(Diagnostic::new(
                    Code::LeakyConditionalCheck,
                    p,
                    v.as_str(),
                    format!(
                        "conditional-validity (C3) probes for this view read `{t}`, but the \
                         principal holds no other view over `{t}`: the probe's outcome would \
                         reveal data the user cannot see (Section 5.4), so the engine fails \
                         closed and the view's conditional grants are unreachable"
                    ),
                ));
            }
        }
    }

    // P002 / W001 — pairwise lints over same-shape views. A view whose
    // predicate is already proven unsatisfiable (P001) is excluded:
    // false implies everything, so flagging it as "redundant" too would
    // be double-reporting the same defect.
    let usable: Vec<&Ident> = effective
        .keys()
        .filter(|v| infos[*v].block.is_some() && !unsat.contains(*v))
        .collect();
    let mut subsumed: BTreeSet<&Ident> = BTreeSet::new();
    for &v in &usable {
        for &u in &usable {
            if u == v || subsumed.contains(v) {
                continue;
            }
            // Both views supplied by the same role that is itself being
            // analyzed: the pair finding is the role's, not the member's.
            let (sv, su) = (&effective[v], &effective[u]);
            if sv == su && sv != p && analyzed.contains(sv) {
                continue;
            }
            let (bu, bv) = (
                infos[u].block.as_ref().expect("filtered"),
                infos[v].block.as_ref().expect("filtered"),
            );
            if !same_scan_shape(bu, bv) {
                continue;
            }
            // Subsumption u ⊇ v: v's rows satisfy u's predicate, u
            // exposes at least v's columns, and u does not force a
            // duplicate elimination v lacks.
            let arity = bu.flat_arity();
            if projection_covers(bu, bv) && (!bu.distinct || bv.distinct) {
                if let Some(true) = pass.implies(
                    Code::RedundantGrant,
                    p,
                    v.as_str(),
                    &bv.conjuncts,
                    &bu.conjuncts,
                    arity,
                ) {
                    // When the two are equivalent, keep the
                    // lexicographically smaller grant and flag the other,
                    // so exactly one of the pair is reported.
                    let mutual = projection_covers(bv, bu)
                        && (!bv.distinct || bu.distinct)
                        && pass
                            .implies(
                                Code::RedundantGrant,
                                p,
                                v.as_str(),
                                &bu.conjuncts,
                                &bv.conjuncts,
                                arity,
                            )
                            .unwrap_or(false);
                    if !mutual || u < v {
                        subsumed.insert(v);
                        pass.push(Diagnostic::new(
                            Code::RedundantGrant,
                            p,
                            v.as_str(),
                            format!(
                                "every row and column this view authorizes is already \
                                 authorized by `{u}`, granted to the same principal; the \
                                 grant only bloats validity checks"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // W001 — cross-view contradiction (unordered pairs, both
    // individually satisfiable).
    for (i, &v) in usable.iter().enumerate() {
        for &u in &usable[i + 1..] {
            let (sv, su) = (&effective[v], &effective[u]);
            if sv == su && sv != p && analyzed.contains(sv) {
                continue;
            }
            let (bu, bv) = (
                infos[u].block.as_ref().expect("filtered"),
                infos[v].block.as_ref().expect("filtered"),
            );
            if !same_scan_shape(bu, bv) {
                continue;
            }
            let arity = bu.flat_arity();
            let v_sat = pass
                .implies(
                    Code::CrossViewContradiction,
                    p,
                    v.as_str(),
                    &bv.conjuncts,
                    &[ScalarExpr::lit(false)],
                    arity,
                )
                .map(|unsat| !unsat);
            let u_sat = pass
                .implies(
                    Code::CrossViewContradiction,
                    p,
                    u.as_str(),
                    &bu.conjuncts,
                    &[ScalarExpr::lit(false)],
                    arity,
                )
                .map(|unsat| !unsat);
            if v_sat != Some(true) || u_sat != Some(true) {
                continue;
            }
            let mut combined = bv.conjuncts.clone();
            combined.extend(bu.conjuncts.iter().cloned());
            if let Some(true) = pass.implies(
                Code::CrossViewContradiction,
                p,
                v.as_str(),
                &combined,
                &[ScalarExpr::lit(false)],
                arity,
            ) {
                pass.push(Diagnostic::new(
                    Code::CrossViewContradiction,
                    p,
                    v.as_str(),
                    format!(
                        "this view and `{u}` (same principal, same relations) have mutually \
                         exclusive predicates; if they are meant to overlap, one of them is \
                         mis-written"
                    ),
                ));
            }
        }
    }

    // P003 — revocations shadowed by a role grant.
    if let Some(revoked) = pass.set.revocations.get(p) {
        let effective_now = effective_views(pass.set, p);
        for rv in revoked.clone() {
            if let Some(source) = effective_now.get(&rv) {
                pass.push(Diagnostic::new(
                    Code::ShadowedByRevocation,
                    p,
                    rv.as_str(),
                    format!(
                        "the view was revoked from '{p}' but is still effective through the \
                         grant to `{source}`; the principal's access is unchanged"
                    ),
                ));
            }
        }
    }
}

/// Same ordered list of scan relations (and therefore the same flat
/// row layout, since schemas come from the shared catalog).
fn same_scan_shape(a: &SpjBlock, b: &SpjBlock) -> bool {
    a.scans.len() == b.scans.len()
        && a.scans
            .iter()
            .zip(b.scans.iter())
            .all(|((ta, _), (tb, _))| ta == tb)
}

/// Does `u`'s projection expose everything `v` projects?
fn projection_covers(u: &SpjBlock, v: &SpjBlock) -> bool {
    let arity = u.flat_arity();
    if fgac_algebra::is_identity_projection(&u.projection, arity) {
        return true;
    }
    v.projection.iter().all(|e| u.projection.contains(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_sql::parse_query;

    #[test]
    fn unconstrained_param_detection() {
        // Constrained: $user_id under a comparison in WHERE.
        let q = parse_query("select * from t where a = $user_id").unwrap();
        assert!(unconstrained_params(&q).is_empty());

        // Projection-only $tag: unconstrained.
        let q = parse_query("select a, $tag from t").unwrap();
        assert_eq!(unconstrained_params(&q), vec![("tag".to_string(), false)]);

        // $$k equality-with-column: constrained.
        let q = parse_query("select * from t where a = $$k").unwrap();
        assert!(unconstrained_params(&q).is_empty());

        // $$k under an inequality: not instantiable.
        let q = parse_query("select * from t where a > $$k").unwrap();
        assert_eq!(unconstrained_params(&q), vec![("k".to_string(), true)]);
    }

    #[test]
    fn symbolize_rewrites_session_params_only() {
        let q = parse_query("select $p from t where a = $user_id and b = $$k").unwrap();
        let s = symbolize_params(&q);
        let mut names = Vec::new();
        if let Some(w) = &s.selection {
            w.walk(&mut |e| {
                if let Expr::AccessParam(n) = e {
                    names.push(n.clone());
                }
            });
        }
        names.sort();
        assert_eq!(names, vec!["?user_id".to_string(), "k".to_string()]);
    }
}
