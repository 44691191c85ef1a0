//! Incremental whole-policy flow analysis.
//!
//! A full [`fgac_analyze::analyze_flow_set`] run over a 50k-view policy
//! set re-summarizes every view and re-derives every principal's
//! disclosure lattice. Policy churn makes that a recurring cost: one
//! grant to one principal invalidates nothing about anybody else's
//! lattice. This cache makes `ANALYZE FLOW` incremental the same way
//! the admission caches survive churn (see [`crate::invalidation`]):
//!
//! * **View summaries** are a pure function of the catalog, so the
//!   shared [`FlowContext`] memo survives every grant/revoke/role
//!   change and is dropped only when DDL introduces a catalog name.
//! * **Per-principal findings** are stamped with the policy epoch they
//!   were computed under and swept by the same restamp rule as the
//!   admission caches ([`Sweep::keep`]), so a grant to one principal
//!   re-analyzes only that principal (and role members inheriting from
//!   it) on the next run.
//!
//! Cached entries hold the *whole-set* analysis (role-sourced findings
//! deduplicated onto the role's pass). Single-principal runs
//! (`ANALYZE FLOW FOR p`, the session statement) are computed fresh
//! against the shared summary memo: their dedup context differs, and
//! they are not the hot path the bench gates.

use crate::invalidation::Sweep;
use fgac_analyze::{AnalyzeOptions, Diagnostic, FlowContext, PolicySet};
use fgac_types::Counter;
use parking_lot::Mutex;
use std::collections::BTreeMap;

// Process-wide observability, never a correctness input.
static FLOW_ANALYSES: Counter = Counter::new();
static FLOW_PRINCIPALS_COMPUTED: Counter = Counter::new();
static FLOW_CACHE_HITS: Counter = Counter::new();

/// `ANALYZE FLOW` runs served (all engines, cached or not).
pub fn flow_analysis_count() -> u64 {
    FLOW_ANALYSES.get()
}

/// Per-principal lattices actually (re)computed.
pub fn flow_principals_computed() -> u64 {
    FLOW_PRINCIPALS_COMPUTED.get()
}

/// Per-principal results served from the epoch-stamped cache.
pub fn flow_cache_hits() -> u64 {
    FLOW_CACHE_HITS.get()
}

#[derive(Debug, Default)]
struct Inner {
    /// Shared view-summary memo (pure function of the catalog).
    ctx: FlowContext,
    /// principal → (policy epoch the findings were computed under,
    /// whole-set findings attributed to that principal).
    findings: BTreeMap<String, (u64, Vec<Diagnostic>)>,
}

/// Epoch-stamped per-principal flow findings plus the shared view
/// summary memo, owned by [`crate::invalidation::PolicyState`].
#[derive(Debug, Default)]
pub struct FlowAnalysisCache {
    inner: Mutex<Inner>,
}

impl FlowAnalysisCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The policy-change sweep: [`Sweep::keep`] decides every
    /// principal's findings, and the view-summary memo is dropped only
    /// when the change introduced a catalog name (the only way an
    /// existing view body can re-bind differently).
    pub fn sweep(&mut self, sweep: &Sweep) {
        let inner = self.inner.get_mut();
        if sweep.introduces_names() {
            inner.ctx.clear();
        }
        inner
            .findings
            .retain(|p, (stamp, _)| sweep.keep(p, stamp, false));
    }

    /// (epoch-fresh entries, total entries) — metrics surface.
    pub fn stats(&self, epoch: u64) -> (usize, usize) {
        let inner = self.inner.lock();
        let fresh = inner.findings.values().filter(|e| e.0 == epoch).count();
        (fresh, inner.findings.len())
    }

    /// The whole-set flow analysis at `epoch`, reusing every cached
    /// per-principal result still stamped with `epoch` and recomputing
    /// only the swept-out rest.
    pub fn analyze_full(
        &self,
        set: &PolicySet,
        epoch: u64,
        opts: &AnalyzeOptions,
    ) -> Vec<Diagnostic> {
        FLOW_ANALYSES.add(1);
        let principals = fgac_analyze::flow_principals(set, None);
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut out = Vec::new();
        for p in &principals {
            if let Some((stamp, diags)) = inner.findings.get(p) {
                if *stamp == epoch {
                    FLOW_CACHE_HITS.add(1);
                    out.extend(diags.iter().cloned());
                    continue;
                }
            }
            FLOW_PRINCIPALS_COMPUTED.add(1);
            let flow = inner.ctx.principal_flow(set, p, &principals, opts);
            out.extend(flow.findings.iter().cloned());
            inner.findings.insert(p.clone(), (epoch, flow.findings));
        }
        // Entries for principals no longer in the grant tables would
        // never be swept by `affects` (revocation keeps a tombstone, so
        // in practice principals rarely vanish); drop them here so the
        // map tracks the live principal set.
        inner.findings.retain(|p, _| principals.contains(p));
        fgac_analyze::flow::sort_diags(&mut out);
        out
    }

    /// A single-principal analysis (`ANALYZE FLOW FOR p`): computed
    /// fresh — the dedup context (`analyzed = {p}`) differs from the
    /// whole-set entries — but against the shared summary memo.
    pub fn analyze_one(
        &self,
        set: &PolicySet,
        principal: &str,
        opts: &AnalyzeOptions,
    ) -> Vec<Diagnostic> {
        FLOW_ANALYSES.add(1);
        FLOW_PRINCIPALS_COMPUTED.add(1);
        let analyzed = std::iter::once(principal.to_string()).collect();
        let mut inner = self.inner.lock();
        inner
            .ctx
            .principal_flow(set, principal, &analyzed, opts)
            .findings
    }
}

#[cfg(test)]
impl FlowAnalysisCache {
    /// Caches empty findings for `principal` stamped `stamp`.
    pub(crate) fn seed(&mut self, principal: &str, stamp: u64) {
        self.inner
            .get_mut()
            .findings
            .insert(principal.to_string(), (stamp, Vec::new()));
    }

    /// The stamp of `principal`'s cached findings, if any.
    pub(crate) fn stamp_of(&self, principal: &str) -> Option<u64> {
        self.inner.lock().findings.get(principal).map(|e| e.0)
    }
}
