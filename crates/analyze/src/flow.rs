//! Whole-policy information-flow analysis: disclosure lattices.
//!
//! The paper's validity checks are per-query and the policy lints
//! (`policy.rs`) are per-grant. Neither sees what a principal can learn
//! by *composing* the whole granted view set: joining two views back
//! together on an exposed key recombines column sets no single grant
//! exposes, a visible inclusion dependency (the U3a machinery of
//! Section 5.3) lets values of a protected relation be inferred from a
//! disclosed one, and the Section 5.4 conditional-probe channel leaks
//! one bit per remainder probe. This module computes, per principal, a
//! **disclosure lattice** — for every relation, the set of columns
//! reachable through any composition of that principal's effective
//! grants — and reports flow findings over it:
//!
//! | code | name | severity |
//! |------|------|----------|
//! | `F001` | TransitiveDisclosureWidening | error |
//! | `F002` | ConstraintInferenceChannel | error |
//! | `F003` | ProbeChannelExposure | warning |
//! | `F004` | GrantFlowDiff | warning (or the introduced finding's) |
//!
//! **Representation.** Column sets are `u128` bitmasks in the
//! relation's schema order — the same column-coverage encoding the
//! compiled authorization fast path uses (`fgac-core::compiled`,
//! `MAX_COLS = 128`), which is what keeps whole-set analysis cheap at
//! tens of thousands of granted views: each view is summarized once
//! (bind + SPJ decomposition) and every lattice operation after that is
//! mask arithmetic. Relations wider than 128 columns saturate to
//! all-columns-disclosed.
//!
//! **Soundness.** The lattice is an *over*-approximation of what a
//! principal can learn: non-SPJ view bodies fall back to their full
//! FROM-list width, cross-relation conjuncts are dropped before the
//! F001 row-scope satisfiability check (dropping a restriction only
//! widens the modeled scope), and prover exhaustion degrades a finding
//! to [`Severity::Unknown`] rather than suppressing it. The analysis
//! can therefore report a widening whose row scopes never intersect in
//! practice, but it can never *miss* a disclosure expressible in the
//! modeled composition rules (projection union, key-join
//! recombination, dependency chaining).
//!
//! [`Severity::Unknown`]: crate::diag::Severity::Unknown

use crate::diag::{Code, Diagnostic};
use crate::policy::{
    effective_constraints, effective_views, inspect_view, AnalyzeOptions, PolicySet, Prover,
};
use fgac_algebra::{ScalarExpr, SpjBlock};
use fgac_storage::{Catalog, InclusionDependency};
use fgac_types::Ident;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Column-mask width; mirrors `fgac-core::compiled::MAX_COLS`.
pub const MAX_FLOW_COLS: usize = 128;

/// All columns of a relation of `width` columns.
fn full_mask(width: usize) -> u128 {
    if width >= MAX_FLOW_COLS {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// What one granted view disclosed about one scanned relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelDisclosure {
    pub relation: Ident,
    /// Columns readable through the view's projection.
    pub projected: u128,
    /// Columns the view's predicate evaluates (visible only through
    /// the probe/selection behavior, not as values).
    pub predicate: u128,
    /// Every primary-key column of the relation is projected, so rows
    /// of this view can be re-joined to rows of another view over the
    /// same relation.
    pub pk_exposed: bool,
    /// Schema width of the relation.
    pub width: usize,
    /// The view's conjuncts that mention only this relation's columns,
    /// remapped to relation-local offsets — the row scope used by the
    /// F001 satisfiability refinement. Empty when the relation is
    /// scanned more than once (over-approximation: unrestricted).
    pub local_conjuncts: Vec<ScalarExpr>,
}

/// The flow-relevant summary of one view definition, computed once per
/// view and shared across principals.
#[derive(Debug, Clone)]
pub struct ViewFlowSummary {
    /// Exists, is an authorization view, and binds. Unusable views are
    /// the policy analyzer's `P004` and contribute nothing to flow.
    pub usable: bool,
    /// Scans at least two distinct relations — a conditional-validity
    /// (C3) candidate whose acceptance needs a remainder probe.
    pub multi_relation: bool,
    /// Per distinct scanned relation, in relation order.
    pub rels: Vec<RelDisclosure>,
}

impl ViewFlowSummary {
    fn unusable() -> Self {
        ViewFlowSummary {
            usable: false,
            multi_relation: false,
            rels: Vec::new(),
        }
    }
}

/// Collects every column offset an expression references.
fn collect_cols(e: &ScalarExpr, out: &mut dyn FnMut(usize)) {
    match e {
        ScalarExpr::Col(i) => out(*i),
        ScalarExpr::Lit(_) | ScalarExpr::AccessParam(_) => {}
        ScalarExpr::Cmp { left, right, .. } | ScalarExpr::Arith { left, right, .. } => {
            collect_cols(left, out);
            collect_cols(right, out);
        }
        ScalarExpr::And(v) | ScalarExpr::Or(v) => {
            for x in v {
                collect_cols(x, out);
            }
        }
        ScalarExpr::Not(b) | ScalarExpr::Neg(b) => collect_cols(b, out),
        ScalarExpr::IsNull { expr, .. } => collect_cols(expr, out),
    }
}

/// Rewrites an expression's column offsets from the flat row to
/// relation-local offsets; `None` when it references anything outside
/// `[start, end)`.
fn remap_to_local(e: &ScalarExpr, start: usize, end: usize) -> Option<ScalarExpr> {
    Some(match e {
        ScalarExpr::Col(i) => {
            if *i < start || *i >= end {
                return None;
            }
            ScalarExpr::Col(*i - start)
        }
        ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
        ScalarExpr::AccessParam(p) => ScalarExpr::AccessParam(p.clone()),
        ScalarExpr::Cmp { op, left, right } => ScalarExpr::Cmp {
            op: *op,
            left: Box::new(remap_to_local(left, start, end)?),
            right: Box::new(remap_to_local(right, start, end)?),
        },
        ScalarExpr::Arith { op, left, right } => ScalarExpr::Arith {
            op: *op,
            left: Box::new(remap_to_local(left, start, end)?),
            right: Box::new(remap_to_local(right, start, end)?),
        },
        ScalarExpr::And(v) => ScalarExpr::And(
            v.iter()
                .map(|x| remap_to_local(x, start, end))
                .collect::<Option<Vec<_>>>()?,
        ),
        ScalarExpr::Or(v) => ScalarExpr::Or(
            v.iter()
                .map(|x| remap_to_local(x, start, end))
                .collect::<Option<Vec<_>>>()?,
        ),
        ScalarExpr::Not(b) => ScalarExpr::Not(Box::new(remap_to_local(b, start, end)?)),
        ScalarExpr::Neg(b) => ScalarExpr::Neg(Box::new(remap_to_local(b, start, end)?)),
        ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
            expr: Box::new(remap_to_local(expr, start, end)?),
            negated: *negated,
        },
    })
}

/// Mask of a relation's primary-key columns; `None` when the table has
/// no declared key (rows cannot be re-identified for a join).
fn pk_mask(catalog: &Catalog, rel: &Ident) -> Option<u128> {
    let table = catalog.table(rel)?;
    let pk = table.primary_key.as_ref()?;
    let mut mask = 0u128;
    for c in pk {
        let idx = table.schema.index_of(c)?;
        if idx >= MAX_FLOW_COLS {
            return Some(u128::MAX);
        }
        mask |= 1u128 << idx;
    }
    Some(mask)
}

/// Summarizes one SPJ block into per-relation disclosures.
fn summarize_block(catalog: &Catalog, block: &SpjBlock) -> Vec<RelDisclosure> {
    // How many times each relation is scanned (self-joins lose their
    // local row scope; see `RelDisclosure::local_conjuncts`).
    let mut scan_count: BTreeMap<&Ident, usize> = BTreeMap::new();
    for (t, _) in &block.scans {
        *scan_count.entry(t).or_insert(0) += 1;
    }
    let mut rels: BTreeMap<Ident, RelDisclosure> = BTreeMap::new();
    for (idx, (t, schema)) in block.scans.iter().enumerate() {
        let (start, end) = block.scan_range(idx);
        let width = schema.len();
        let saturated = width > MAX_FLOW_COLS;
        let mut projected = 0u128;
        let mut predicate = 0u128;
        let touch = |mask: &mut u128, col: usize| {
            if col >= start && col < end {
                if saturated {
                    *mask = u128::MAX;
                } else {
                    *mask |= 1u128 << (col - start);
                }
            }
        };
        for e in &block.projection {
            collect_cols(e, &mut |c| touch(&mut projected, c));
        }
        for e in &block.conjuncts {
            collect_cols(e, &mut |c| touch(&mut predicate, c));
        }
        let local_conjuncts = if scan_count[t] > 1 {
            Vec::new()
        } else {
            block
                .conjuncts
                .iter()
                .filter_map(|c| remap_to_local(c, start, end))
                .collect()
        };
        let pk_exposed = match pk_mask(catalog, t) {
            Some(pk) => pk != 0 && projected & pk == pk,
            None => false,
        };
        let entry = rels.entry(t.clone()).or_insert_with(|| RelDisclosure {
            relation: t.clone(),
            projected: 0,
            predicate: 0,
            pk_exposed: false,
            width,
            local_conjuncts,
        });
        entry.projected |= projected;
        entry.predicate |= predicate;
        entry.pk_exposed |= pk_exposed;
    }
    rels.into_values().collect()
}

/// Binds and summarizes one view. Non-SPJ but bindable bodies
/// (aggregates, unions) over-approximate to the full width of every
/// FROM-list relation, with primary keys treated as exposed — the
/// sound direction for a disclosure bound.
pub fn summarize_view(catalog: &Catalog, name: &Ident) -> ViewFlowSummary {
    let info = inspect_view(catalog, name);
    if !info.exists || !info.authorization || info.bind_error.is_some() {
        return ViewFlowSummary::unusable();
    }
    if let Some(block) = &info.block {
        let rels = summarize_block(catalog, block);
        return ViewFlowSummary {
            usable: true,
            multi_relation: rels.len() >= 2,
            rels,
        };
    }
    // Bindable but non-SPJ: fall back to the FROM list at full width.
    let mut rels: BTreeMap<Ident, RelDisclosure> = BTreeMap::new();
    if let Some(q) = &info.query {
        for tr in &q.from {
            let Some(table) = catalog.table(&tr.name) else {
                continue;
            };
            let width = table.schema.len();
            rels.entry(tr.name.clone()).or_insert_with(|| RelDisclosure {
                relation: tr.name.clone(),
                projected: full_mask(width),
                predicate: full_mask(width),
                pk_exposed: table.primary_key.is_some(),
                width,
                local_conjuncts: Vec::new(),
            });
            for j in &tr.joins {
                if let Some(jt) = catalog.table(&j.table) {
                    let w = jt.schema.len();
                    rels.entry(j.table.clone()).or_insert_with(|| RelDisclosure {
                        relation: j.table.clone(),
                        projected: full_mask(w),
                        predicate: full_mask(w),
                        pk_exposed: jt.primary_key.is_some(),
                        width: w,
                        local_conjuncts: Vec::new(),
                    });
                }
            }
        }
    }
    let rels: Vec<RelDisclosure> = rels.into_values().collect();
    ViewFlowSummary {
        usable: true,
        multi_relation: rels.len() >= 2,
        rels,
    }
}

/// One principal's disclosure lattice plus the findings derived on it.
#[derive(Debug, Clone)]
pub struct PrincipalFlow {
    pub principal: String,
    /// relation → columns readable through some single granted view.
    pub direct: BTreeMap<Ident, u128>,
    /// relation → columns reachable after closing over visible
    /// dependency chains; always a superset of `direct`.
    pub closed: BTreeMap<Ident, u128>,
    pub findings: Vec<Diagnostic>,
}

/// Memoized per-view summaries. Summaries are a pure function of the
/// catalog, so a context stays valid across grant/revoke churn and must
/// be discarded only when the catalog itself changes (DDL).
#[derive(Debug, Default)]
pub struct FlowContext {
    summaries: BTreeMap<Ident, Arc<ViewFlowSummary>>,
}

impl FlowContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every memoized summary (the catalog changed).
    pub fn clear(&mut self) {
        self.summaries.clear();
    }

    /// Number of memoized view summaries.
    pub fn summary_count(&self) -> usize {
        self.summaries.len()
    }

    fn summary(&mut self, catalog: &Catalog, name: &Ident) -> Arc<ViewFlowSummary> {
        if let Some(s) = self.summaries.get(name) {
            return s.clone();
        }
        let s = Arc::new(summarize_view(catalog, name));
        self.summaries.insert(name.clone(), s.clone());
        s
    }

    /// Computes one principal's disclosure lattice and flow findings.
    ///
    /// `analyzed` is the set of principals the surrounding run covers:
    /// a finding derivable purely from one analyzed role's own grants
    /// is reported on the role's pass and skipped for its members, so
    /// whole-set reports are not duplicated per member (the same
    /// discipline as the policy lints).
    ///
    /// Each call runs under a fresh budget from `opts` so a cached
    /// per-principal result never depends on which other principals
    /// were analyzed before it.
    pub fn principal_flow(
        &mut self,
        set: &PolicySet,
        principal: &str,
        analyzed: &BTreeSet<String>,
        opts: &AnalyzeOptions,
    ) -> PrincipalFlow {
        let effective = effective_views(set, principal);
        let mut prover = Prover {
            meter: opts.budget.start(),
            exhausted: false,
        };

        // Usable views with their grant source, in name order.
        let mut views: Vec<(Ident, String, Arc<ViewFlowSummary>)> = Vec::new();
        for (v, source) in &effective {
            let s = self.summary(set.catalog, v);
            if s.usable {
                views.push((v.clone(), source.clone(), s));
            }
        }

        // Direct lattice: per-relation union of projected masks.
        let mut direct: BTreeMap<Ident, u128> = BTreeMap::new();
        for (_, _, s) in &views {
            for r in &s.rels {
                *direct.entry(r.relation.clone()).or_insert(0) |= r.projected;
            }
        }

        let mut findings = Vec::new();
        let mut closed = direct.clone();
        self.close_over_dependencies(
            set,
            principal,
            analyzed,
            &views,
            &mut closed,
            &mut findings,
        );
        self.widening_findings(set, principal, analyzed, &views, &mut prover, &mut findings);
        self.probe_findings(principal, analyzed, &views, &closed, &mut findings);

        findings.sort_by(|a, b| {
            (a.severity, a.code, &a.principal, &a.object).cmp(&(
                b.severity,
                b.code,
                &b.principal,
                &b.object,
            ))
        });
        PrincipalFlow {
            principal: principal.to_string(),
            direct,
            closed,
            findings,
        }
    }

    /// F002 + the dependency closure: a visible inclusion dependency
    /// whose source projection is fully disclosed lets the destination
    /// cells be inferred (every disclosed source tuple's key values
    /// provably appear there). Chained dependencies compose — the loop
    /// runs to a fixpoint, so the lattice is transitively closed.
    fn close_over_dependencies(
        &mut self,
        set: &PolicySet,
        principal: &str,
        analyzed: &BTreeSet<String>,
        views: &[(Ident, String, Arc<ViewFlowSummary>)],
        closed: &mut BTreeMap<Ident, u128>,
        findings: &mut Vec<Diagnostic>,
    ) {
        let visible = effective_constraints(set, principal);
        if visible.is_empty() {
            return;
        }
        let mut deps: Vec<(Ident, String, InclusionDependency)> = Vec::new();
        for (c, source) in &visible {
            for fk in set.catalog.foreign_keys() {
                if &fk.name == c {
                    deps.push((c.clone(), source.clone(), fk.as_inclusion()));
                }
            }
            for d in set.catalog.inclusion_dependencies() {
                if &d.name == c {
                    deps.push((c.clone(), source.clone(), d.clone()));
                }
            }
        }
        let col_set_mask = |rel: &Ident, cols: &[Ident]| -> Option<u128> {
            let table = set.catalog.table(rel)?;
            let mut mask = 0u128;
            for c in cols {
                let idx = table.schema.index_of(c)?;
                if idx >= MAX_FLOW_COLS {
                    return Some(u128::MAX);
                }
                mask |= 1u128 << idx;
            }
            Some(mask)
        };
        let mut reported: BTreeSet<Ident> = BTreeSet::new();
        loop {
            let mut changed = false;
            for (cname, csource, dep) in &deps {
                let (Some(src_mask), Some(dst_mask)) = (
                    col_set_mask(&dep.src_table, &dep.src_columns),
                    col_set_mask(&dep.dst_table, &dep.dst_columns),
                ) else {
                    continue;
                };
                if src_mask == 0
                    || closed.get(&dep.src_table).copied().unwrap_or(0) & src_mask != src_mask
                {
                    continue;
                }
                let have = closed.get(&dep.dst_table).copied().unwrap_or(0);
                let new_bits = dst_mask & !have;
                if new_bits == 0 {
                    continue;
                }
                *closed.entry(dep.dst_table.clone()).or_insert(0) |= dst_mask;
                changed = true;
                if !reported.insert(cname.clone()) {
                    continue;
                }
                // Report on the grant entry's own pass when the whole
                // channel (constraint + source disclosure) is the
                // role's; a member-only source disclosure is the
                // member's finding.
                if csource != principal && analyzed.contains(csource) {
                    let role_src: u128 = views
                        .iter()
                        .filter(|(_, s, _)| s == csource)
                        .flat_map(|(_, _, summary)| summary.rels.iter())
                        .filter(|r| r.relation == dep.src_table)
                        .map(|r| r.projected)
                        .fold(0, |a, m| a | m);
                    if role_src & src_mask == src_mask {
                        continue;
                    }
                }
                findings.push(Diagnostic::new(
                    Code::ConstraintInferenceChannel,
                    principal,
                    cname.as_str(),
                    format!(
                        "constraint visibility over `{cname}` lets values of `{}` ({}) be \
                         inferred from the disclosed `{}` ({}): every disclosed source tuple \
                         provably appears there, although no granted view reads `{}`'s \
                         column(s) {}",
                        dep.dst_table,
                        ident_list(&dep.dst_columns),
                        dep.src_table,
                        ident_list(&dep.src_columns),
                        dep.dst_table,
                        mask_names(set.catalog, &dep.dst_table, new_bits),
                    ),
                ));
            }
            if !changed {
                break;
            }
        }
    }

    /// F001: per relation, the union of key-exposing view projections
    /// against the best single grant. Two views that both project the
    /// relation's primary key can be joined back together row by row,
    /// so their column sets combine; if the combined set is not covered
    /// by any single grant, composition widened the disclosure.
    fn widening_findings(
        &mut self,
        set: &PolicySet,
        principal: &str,
        analyzed: &BTreeSet<String>,
        views: &[(Ident, String, Arc<ViewFlowSummary>)],
        prover: &mut Prover,
        findings: &mut Vec<Diagnostic>,
    ) {
        // Per relation: (view, source, disclosure).
        let mut by_rel: BTreeMap<&Ident, Vec<(&Ident, &String, &RelDisclosure)>> = BTreeMap::new();
        for (v, source, s) in views {
            for r in &s.rels {
                by_rel.entry(&r.relation).or_default().push((v, source, r));
            }
        }
        for (rel, entries) in by_rel {
            let keyed: Vec<_> = entries.iter().filter(|(_, _, r)| r.pk_exposed).collect();
            if keyed.len() < 2 {
                continue;
            }
            let union: u128 = keyed.iter().map(|(_, _, r)| r.projected).fold(0, |a, m| a | m);
            // Covered by a single grant (any grant, keyed or not)?
            if entries.iter().any(|(_, _, r)| union & !r.projected == 0) {
                continue;
            }
            // Role dedup: when every key-exposing entry comes from one
            // analyzed role, the widening is the role's finding.
            let sources: BTreeSet<&String> = keyed.iter().map(|(_, s, _)| *s).collect();
            if sources.len() == 1 {
                let s = *sources.iter().next().expect("non-empty");
                if s != principal && analyzed.contains(s.as_str()) {
                    continue;
                }
            }
            // Name a concrete widening pair: the widest entry plus the
            // first (in name order) contributing columns beyond it.
            let a = keyed
                .iter()
                .max_by_key(|(v, _, r)| (r.projected.count_ones(), std::cmp::Reverse(*v)))
                .expect("len >= 2");
            let Some(b) = keyed.iter().find(|(_, _, r)| r.projected & !a.2.projected != 0) else {
                continue;
            };
            let widened = (a.2.projected | b.2.projected) & !single_best(&entries, a.2, b.2);
            // Row-scope refinement: the pair only recombines rows both
            // views return. Provably disjoint scopes are skipped;
            // exhaustion degrades to Unknown (fail-open, never silent).
            let width = a.2.width.min(MAX_FLOW_COLS);
            let mut combined = a.2.local_conjuncts.clone();
            combined.extend(b.2.local_conjuncts.iter().cloned());
            let verdict = if combined.is_empty() {
                Some(false)
            } else {
                prover.implies(&combined, &[ScalarExpr::lit(false)], width)
            };
            let message = format!(
                "joining `{}` and `{}` back on the exposed key of `{rel}` reveals the column \
                 combination {} of `{rel}`, which no single grant to this principal exposes",
                a.0,
                b.0,
                mask_names(set.catalog, rel, a.2.projected | b.2.projected),
            );
            match verdict {
                Some(true) => {} // provably disjoint row scopes
                Some(false) => {
                    let _ = widened;
                    findings.push(Diagnostic::new(
                        Code::TransitiveDisclosureWidening,
                        principal,
                        rel.as_str(),
                        message,
                    ));
                }
                None => findings.push(Diagnostic::unknown(
                    Code::TransitiveDisclosureWidening,
                    principal,
                    rel.as_str(),
                    format!("{message} (row-scope check exhausted its budget; result unknown)"),
                )),
            }
        }
    }

    /// F003: the static bits-per-probe bound on the Section 5.4
    /// channel. A conditionally-valid view's remainder probe evaluates
    /// its predicate server-side; when that predicate reads columns the
    /// principal cannot otherwise see, each probe's one-bit outcome
    /// (remainder empty / non-empty) leaks up to one bit about those
    /// cells. Relations with no other covering view are skipped: the
    /// engine fails closed on those probes (`P005`), so the channel
    /// never opens.
    fn probe_findings(
        &mut self,
        principal: &str,
        analyzed: &BTreeSet<String>,
        views: &[(Ident, String, Arc<ViewFlowSummary>)],
        closed: &BTreeMap<Ident, u128>,
        findings: &mut Vec<Diagnostic>,
    ) {
        for (v, source, s) in views {
            if !s.multi_relation {
                continue;
            }
            if source != principal && analyzed.contains(source.as_str()) {
                continue;
            }
            for r in &s.rels {
                let undisclosed = r.predicate & !closed.get(&r.relation).copied().unwrap_or(0);
                if undisclosed == 0 {
                    continue;
                }
                let covered_elsewhere = views.iter().any(|(other, _, os)| {
                    other != v && os.rels.iter().any(|or| or.relation == r.relation)
                });
                if !covered_elsewhere {
                    continue; // P005 territory: the probe fails closed.
                }
                findings.push(Diagnostic::new(
                    Code::ProbeChannelExposure,
                    principal,
                    v.as_str(),
                    format!(
                        "conditionally-valid view: each C3 remainder probe evaluates a \
                         predicate over column(s) {} of `{}`, which no grant to this \
                         principal discloses; every probe outcome (Section 5.4) leaks up to \
                         1 bit about those cells — k probing queries leak up to k bits",
                        column_names(r, undisclosed),
                        r.relation,
                    ),
                ));
            }
        }
    }
}

/// The widest single-grant coverage among `entries` for the pair's
/// combined mask (used only to keep the reported delta tight).
fn single_best(
    entries: &[(&Ident, &String, &RelDisclosure)],
    a: &RelDisclosure,
    b: &RelDisclosure,
) -> u128 {
    let target = a.projected | b.projected;
    entries
        .iter()
        .map(|(_, _, r)| r.projected & target)
        .max_by_key(|m| m.count_ones())
        .unwrap_or(0)
}

fn ident_list(cols: &[Ident]) -> String {
    let names: Vec<&str> = cols.iter().map(|c| c.as_str()).collect();
    names.join(", ")
}

/// Renders a column mask as schema column names.
fn mask_names(catalog: &Catalog, rel: &Ident, mask: u128) -> String {
    let Some(table) = catalog.table(rel) else {
        return format!("{mask:#x}");
    };
    let mut names = Vec::new();
    for (i, col) in table.schema.columns().iter().enumerate() {
        if i < MAX_FLOW_COLS && mask & (1u128 << i) != 0 {
            names.push(col.name.as_str().to_string());
        }
    }
    if table.schema.len() > MAX_FLOW_COLS && mask == u128::MAX {
        return "(all columns)".to_string();
    }
    names.join(", ")
}

fn column_names(r: &RelDisclosure, mask: u128) -> String {
    // Without the catalog at hand, fall back to offsets; callers that
    // have the catalog use `mask_names`.
    let mut names = Vec::new();
    for i in 0..r.width.min(MAX_FLOW_COLS) {
        if mask & (1u128 << i) != 0 {
            names.push(format!("#{i}"));
        }
    }
    names.join(", ")
}

/// Runs the flow analysis over the policy set. `principal` restricts
/// the pass to one principal's effective grants; `None` analyzes every
/// principal mentioned in the grant/role/revocation tables.
pub fn analyze_flow_set(
    set: &PolicySet,
    principal: Option<&str>,
    opts: &AnalyzeOptions,
) -> Vec<Diagnostic> {
    let mut ctx = FlowContext::new();
    let principals = flow_principals(set, principal);
    let mut diags = Vec::new();
    for p in &principals {
        diags.extend(ctx.principal_flow(set, p, &principals, opts).findings);
    }
    sort_diags(&mut diags);
    diags
}

/// The principal set a flow run covers.
pub fn flow_principals(set: &PolicySet, principal: Option<&str>) -> BTreeSet<String> {
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
    principals
}

/// The analyzer's canonical report order: severity, code, principal,
/// object (exposed so callers merging cached per-principal results can
/// reproduce it).
pub fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.severity, a.code, &a.principal, &a.object).cmp(&(
            b.severity,
            b.code,
            &b.principal,
            &b.object,
        ))
    });
}

/// A grant under consideration: "what would this disclose?"
#[derive(Debug, Clone, PartialEq)]
pub struct ProposedGrant {
    pub kind: fgac_sql::GrantKind,
    pub object: Ident,
    pub principal: String,
}

/// F004: the flow delta of a proposed grant against the current
/// lattice. For every principal whose effective set the grant would
/// change, reports (a) the newly reachable (relation, column) cells and
/// (b) every flow finding the grant would introduce — the latter at the
/// introduced finding's own severity, so a leak-introducing grant fails
/// a gated run before it is committed.
pub fn flow_diff_grant(
    set: &PolicySet,
    grant: &ProposedGrant,
    opts: &AnalyzeOptions,
) -> Vec<Diagnostic> {
    use fgac_sql::GrantKind;
    let mut view_grants = set.view_grants.clone();
    let mut constraint_grants = set.constraint_grants.clone();
    let mut role_memberships = set.role_memberships.clone();
    match grant.kind {
        GrantKind::View => {
            view_grants
                .entry(grant.principal.clone())
                .or_default()
                .insert(grant.object.clone());
        }
        GrantKind::Constraint => {
            constraint_grants
                .entry(grant.principal.clone())
                .or_default()
                .insert(grant.object.clone());
        }
        GrantKind::Role => {
            let roles = role_memberships.entry(grant.principal.clone()).or_default();
            let role = grant.object.as_str().to_string();
            if let Err(at) = roles.binary_search(&role) {
                roles.insert(at, role);
            }
        }
    }
    let after = PolicySet {
        catalog: set.catalog,
        view_grants: &view_grants,
        constraint_grants: &constraint_grants,
        role_memberships: &role_memberships,
        revocations: set.revocations,
    };

    // Affected principals: the grantee, plus — when the grantee is a
    // role — every member inheriting from it.
    let mut affected: BTreeSet<String> = BTreeSet::new();
    affected.insert(grant.principal.clone());
    for (user, roles) in set.role_memberships {
        if roles.contains(&grant.principal) {
            affected.insert(user.clone());
        }
    }

    let kind_word = match grant.kind {
        GrantKind::View => "view",
        GrantKind::Constraint => "constraint",
        GrantKind::Role => "role",
    };
    let mut ctx = FlowContext::new();
    let mut out = Vec::new();
    for p in &affected {
        // Diff per principal in isolation: every finding is attributed
        // to the principal it concerns, role dedup does not apply.
        let alone: BTreeSet<String> = std::iter::once(p.clone()).collect();
        let before = ctx.principal_flow(set, p, &alone, opts);
        let after_flow = ctx.principal_flow(&after, p, &alone, opts);

        for (rel, mask_after) in &after_flow.closed {
            let mask_before = before.closed.get(rel).copied().unwrap_or(0);
            let new_bits = mask_after & !mask_before;
            if new_bits != 0 {
                out.push(Diagnostic::new(
                    Code::GrantFlowDiff,
                    p.as_str(),
                    grant.object.as_str(),
                    format!(
                        "granting {kind_word} `{}` to '{p}' newly discloses column(s) {} of \
                         `{rel}`",
                        grant.object,
                        mask_names(set.catalog, rel, new_bits),
                    ),
                ));
            }
        }
        let known: BTreeSet<(Code, String, String)> = before
            .findings
            .iter()
            .map(|d| (d.code, d.object.clone(), d.message.clone()))
            .collect();
        for f in after_flow.findings {
            if known.contains(&(f.code, f.object.clone(), f.message.clone())) {
                continue;
            }
            out.push(Diagnostic {
                code: Code::GrantFlowDiff,
                severity: f.severity,
                principal: p.clone(),
                object: f.object,
                message: format!(
                    "granting {kind_word} `{}` to '{p}' introduces {} ({}): {}",
                    grant.object,
                    f.code,
                    f.code.name(),
                    f.message
                ),
            });
        }
    }
    sort_diags(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_sql::{parse_query, GrantKind};
    use fgac_storage::ViewDef;
    use fgac_types::{Column, DataType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "patients",
            Schema::new(vec![
                Column::new("id", DataType::Str),
                Column::new("name", DataType::Str),
                Column::new("diagnosis", DataType::Str),
                Column::new("ward", DataType::Int),
            ]),
            Some(vec!["id".into()]),
        )
        .unwrap();
        c.add_table(
            "billing",
            Schema::new(vec![
                Column::new("patient_id", DataType::Str),
                Column::new("amount", DataType::Int),
            ]),
            Some(vec!["patient_id".into()]),
        )
        .unwrap();
        c
    }

    fn add_view(c: &mut Catalog, name: &str, sql: &str) {
        c.add_view(ViewDef {
            name: name.into(),
            authorization: true,
            query: parse_query(sql).unwrap(),
        })
        .unwrap();
    }

    fn grants(pairs: &[(&str, &str)]) -> BTreeMap<String, BTreeSet<Ident>> {
        let mut m: BTreeMap<String, BTreeSet<Ident>> = BTreeMap::new();
        for (p, v) in pairs {
            m.entry(p.to_string()).or_default().insert((*v).into());
        }
        m
    }

    fn run(
        catalog: &Catalog,
        views: &BTreeMap<String, BTreeSet<Ident>>,
        constraints: &BTreeMap<String, BTreeSet<Ident>>,
    ) -> Vec<Diagnostic> {
        let empty_roles = BTreeMap::new();
        let empty_rev = BTreeMap::new();
        let set = PolicySet {
            catalog,
            view_grants: views,
            constraint_grants: constraints,
            role_memberships: &empty_roles,
            revocations: &empty_rev,
        };
        analyze_flow_set(&set, None, &AnalyzeOptions::default())
    }

    #[test]
    fn key_joinable_projections_widen_disclosure() {
        let mut c = catalog();
        add_view(&mut c, "v_names", "select id, name from patients");
        add_view(&mut c, "v_diag", "select id, diagnosis from patients");
        let views = grants(&[("u", "v_names"), ("u", "v_diag")]);
        let diags = run(&c, &views, &BTreeMap::new());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::TransitiveDisclosureWidening);
        assert_eq!(diags[0].principal, "u");
        assert_eq!(diags[0].object, "patients");
    }

    #[test]
    fn disjoint_row_scopes_do_not_widen() {
        let mut c = catalog();
        add_view(&mut c, "v_low", "select id, name from patients where ward < 3");
        add_view(
            &mut c,
            "v_high",
            "select id, diagnosis from patients where ward > 7",
        );
        let views = grants(&[("u", "v_low"), ("u", "v_high")]);
        let diags = run(&c, &views, &BTreeMap::new());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn single_grant_covering_the_union_is_clean() {
        let mut c = catalog();
        add_view(&mut c, "v_names", "select id, name from patients");
        add_view(&mut c, "v_diag", "select id, diagnosis from patients");
        add_view(&mut c, "v_all", "select * from patients");
        let views = grants(&[("u", "v_names"), ("u", "v_diag"), ("u", "v_all")]);
        let diags = run(&c, &views, &BTreeMap::new());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn keyless_projections_do_not_widen() {
        let mut c = catalog();
        add_view(&mut c, "v_names", "select name from patients");
        add_view(&mut c, "v_diag", "select diagnosis from patients");
        let views = grants(&[("u", "v_names"), ("u", "v_diag")]);
        let diags = run(&c, &views, &BTreeMap::new());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn visible_dependency_opens_inference_channel() {
        let mut c = catalog();
        c.add_inclusion_dependency(InclusionDependency {
            name: "billed_patients".into(),
            src_table: "billing".into(),
            src_columns: vec!["patient_id".into()],
            src_filter: None,
            dst_table: "patients".into(),
            dst_columns: vec!["id".into()],
            dst_filter: None,
        })
        .unwrap();
        add_view(&mut c, "v_billing", "select patient_id, amount from billing");
        let views = grants(&[("u", "v_billing")]);
        let mut constraints: BTreeMap<String, BTreeSet<Ident>> = BTreeMap::new();
        constraints
            .entry("u".to_string())
            .or_default()
            .insert("billed_patients".into());
        let diags = run(&c, &views, &constraints);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::ConstraintInferenceChannel);
        assert_eq!(diags[0].object, "billed_patients");

        // Without the constraint grant the channel is closed.
        let diags = run(&c, &views, &BTreeMap::new());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn probe_predicate_over_undisclosed_columns_is_flagged() {
        let mut c = catalog();
        add_view(
            &mut c,
            "v_joined",
            "select b.patient_id, b.amount from billing b, patients p \
             where b.patient_id = p.id and p.ward = 9",
        );
        add_view(&mut c, "v_names", "select id, name from patients");
        let views = grants(&[("u", "v_joined"), ("u", "v_names")]);
        let diags = run(&c, &views, &BTreeMap::new());
        let probe: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::ProbeChannelExposure)
            .collect();
        assert_eq!(probe.len(), 1, "{diags:?}");
        assert_eq!(probe[0].object, "v_joined");

        // Without another view over patients the probe fails closed
        // (P005 territory) and the flow pass stays quiet.
        let views = grants(&[("u", "v_joined")]);
        let diags = run(&c, &views, &BTreeMap::new());
        assert!(
            diags.iter().all(|d| d.code != Code::ProbeChannelExposure),
            "{diags:?}"
        );
    }

    #[test]
    fn diff_grant_reports_new_cells_and_introduced_findings() {
        let mut c = catalog();
        add_view(&mut c, "v_names", "select id, name from patients");
        add_view(&mut c, "v_diag", "select id, diagnosis from patients");
        let views = grants(&[("u", "v_names")]);
        let constraints = BTreeMap::new();
        let empty_roles = BTreeMap::new();
        let empty_rev = BTreeMap::new();
        let set = PolicySet {
            catalog: &c,
            view_grants: &views,
            constraint_grants: &constraints,
            role_memberships: &empty_roles,
            revocations: &empty_rev,
        };
        let diags = flow_diff_grant(
            &set,
            &ProposedGrant {
                kind: GrantKind::View,
                object: "v_diag".into(),
                principal: "u".to_string(),
            },
            &AnalyzeOptions::default(),
        );
        assert!(diags.iter().all(|d| d.code == Code::GrantFlowDiff));
        // The new cell (diagnosis) plus the F001 the grant introduces.
        assert!(
            diags.iter().any(|d| d.message.contains("newly discloses")),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("introduces F001")),
            "{diags:?}"
        );
        // The introduced-widening row keeps F001's error severity so a
        // gated run fails before the grant is committed.
        assert!(
            diags
                .iter()
                .any(|d| d.severity == crate::diag::Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn role_sourced_findings_report_once_on_the_role() {
        let mut c = catalog();
        add_view(&mut c, "v_names", "select id, name from patients");
        add_view(&mut c, "v_diag", "select id, diagnosis from patients");
        let views = grants(&[("staff", "v_names"), ("staff", "v_diag")]);
        let constraints = BTreeMap::new();
        let mut roles: BTreeMap<String, Vec<String>> = BTreeMap::new();
        roles.insert("alice".to_string(), vec!["staff".to_string()]);
        let empty_rev = BTreeMap::new();
        let set = PolicySet {
            catalog: &c,
            view_grants: &views,
            constraint_grants: &constraints,
            role_memberships: &roles,
            revocations: &empty_rev,
        };
        let diags = analyze_flow_set(&set, None, &AnalyzeOptions::default());
        let f001: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::TransitiveDisclosureWidening)
            .collect();
        assert_eq!(f001.len(), 1, "{diags:?}");
        assert_eq!(f001[0].principal, "staff");

        // A single-principal run for the member still sees it.
        let diags = analyze_flow_set(&set, Some("alice"), &AnalyzeOptions::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].principal, "alice");
    }

    #[test]
    fn summaries_memoize_and_clear() {
        let mut c = catalog();
        add_view(&mut c, "v_names", "select id, name from patients");
        let mut ctx = FlowContext::new();
        let views = grants(&[("u", "v_names")]);
        let constraints = BTreeMap::new();
        let empty_roles = BTreeMap::new();
        let empty_rev = BTreeMap::new();
        let set = PolicySet {
            catalog: &c,
            view_grants: &views,
            constraint_grants: &constraints,
            role_memberships: &empty_roles,
            revocations: &empty_rev,
        };
        let analyzed: BTreeSet<String> = std::iter::once("u".to_string()).collect();
        ctx.principal_flow(&set, "u", &analyzed, &AnalyzeOptions::default());
        assert_eq!(ctx.summary_count(), 1);
        ctx.clear();
        assert_eq!(ctx.summary_count(), 0);
    }
}
