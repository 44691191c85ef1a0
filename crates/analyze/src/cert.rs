//! Validity certificates: machine-checkable derivations for the
//! Non-Truman admission decision, and an independent proof checker.
//!
//! The validator (in `fgac-core`) accepts a query only when the paper's
//! inference rules (Sections 5.3–5.6) derive its validity from the
//! granted authorization views. A [`Certificate`] records that
//! derivation as a typed tree of [`Step`]s — U1 roots, U2
//! subsumption/composition, U3a/U3c inclusion-dependency expansion,
//! C3a/C3b conditional remainders, and Section 6 dependent joins — each
//! carrying the concrete SPJ blocks, substitutions, and implication
//! obligations it rests on.
//!
//! [`check_certificate`] is the *independent* checker: translation
//! validation for access control. It shares nothing with the validator
//! beyond the `fgac-algebra` plan representation and the implication
//! prover (this crate does not depend on `fgac-core` at all); every
//! semantic fact is re-derived here from the certificate, the catalog,
//! and the raw grant tables:
//!
//! * **U1** — the named view really is granted to the principal at the
//!   certificate's policy epoch, really is an `AUTHORIZATION` view, and
//!   re-instantiating its body with the certificate's parameters (and
//!   access-pattern pins) reproduces the recorded block exactly.
//! * **U2-match** — the recorded flat-column substitution is
//!   contiguity- and type-checked against both blocks' schemas, the
//!   subsumption implication re-proves, every used column survives the
//!   matched block's projection, and multiplicity is re-justified
//!   (primary-key reasoning re-implemented here, not imported).
//! * **U3a/U3c** — the named inclusion dependency exists in the catalog
//!   and is visible to the principal; the core's scan multiset is the
//!   premise's minus one remainder instance; every recorded prover
//!   obligation re-proves.
//! * **C3a/C3b** — the remainder probe's relations must themselves be
//!   certified valid (the per-query form of the `P005` leak condition:
//!   an uncertified probe premise is `Q002`), and the probe must have
//!   returned rows.
//! * **U2-dag / U2-restrict / U2-compose / dependent joins** — exact
//!   structural re-checks: restriction conjuncts must be computable
//!   over the premise's projection, compositions must concatenate
//!   frames precisely, dependent joins re-derive every access-pattern
//!   capability from the view definitions and re-run the reachability
//!   fixpoint.
//!
//! The checker is budget-metered and **fail-closed**: if the meter
//! trips mid-proof the certificate is rejected (`Q004`), never waved
//! through. An empty diagnostic list is the only "verified" answer.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

use crate::diag::{Code, Diagnostic};
use fgac_algebra::implication::implies_metered;
use fgac_algebra::{bind_query, CmpOp, ParamScope, ScalarExpr, SpjBlock};
use fgac_storage::{Catalog, InclusionDependency};
use fgac_types::{Budget, BudgetMeter, Error, Ident, Result, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The inference rule a [`Step`] applies. The `U*` rules double as
/// their `C*` counterparts when the derivation's goal is conditional
/// (the paper's C1/C2 are U1/U2 applied to conditionally valid
/// expressions); C3a/C3b are the genuinely conditional steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// A granted authorization view, instantiated for the session.
    U1,
    /// Bottom-up DAG propagation: the goal expression is an operation
    /// over premise classes (rule U2's general form).
    U2Dag,
    /// SPJ subsumption: the block is σ/π/δ over one matched premise
    /// block, with a flat-column substitution and an implication proof.
    U2Match,
    /// Restriction: premise block plus extra conjuncts over its
    /// projected columns.
    U2Restrict,
    /// Composition: cross-join of two premise blocks (U2 with n = 2).
    U2Compose,
    /// Inclusion-dependency expansion: the DISTINCT core projection.
    U3a,
    /// U3a plus multiplicity reconstruction (DISTINCT dropped).
    U3c,
    /// Conditional validity via a non-empty remainder probe.
    C3a,
    /// C3a plus multiplicity reconstruction.
    C3b,
    /// Section 6 dependent join through access-pattern views.
    DependentJoin,
}

impl RuleId {
    /// Stable wire identifier.
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleId::U1 => "U1",
            RuleId::U2Dag => "U2-dag",
            RuleId::U2Match => "U2-match",
            RuleId::U2Restrict => "U2-restrict",
            RuleId::U2Compose => "U2-compose",
            RuleId::U3a => "U3a",
            RuleId::U3c => "U3c",
            RuleId::C3a => "C3a",
            RuleId::C3b => "C3b",
            RuleId::DependentJoin => "S6-depjoin",
        }
    }

    /// Parses the wire identifier.
    pub fn from_str_id(s: &str) -> Option<RuleId> {
        Some(match s {
            "U1" => RuleId::U1,
            "U2-dag" => RuleId::U2Dag,
            "U2-match" => RuleId::U2Match,
            "U2-restrict" => RuleId::U2Restrict,
            "U2-compose" => RuleId::U2Compose,
            "U3a" => RuleId::U3a,
            "U3c" => RuleId::U3c,
            "C3a" => RuleId::C3a,
            "C3b" => RuleId::C3b,
            "S6-depjoin" => RuleId::DependentJoin,
            _ => return None,
        })
    }

    /// True for the rules that only ever justify *conditional* validity.
    pub fn is_conditional(&self) -> bool {
        matches!(self, RuleId::C3a | RuleId::C3b)
    }

    /// All rule identifiers, for coverage enumeration.
    pub fn all() -> [RuleId; 10] {
        [
            RuleId::U1,
            RuleId::U2Dag,
            RuleId::U2Match,
            RuleId::U2Restrict,
            RuleId::U2Compose,
            RuleId::U3a,
            RuleId::U3c,
            RuleId::C3a,
            RuleId::C3b,
            RuleId::DependentJoin,
        ]
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One implication the prover discharged during the derivation:
/// `∧premise ⟹ ∧conclusion` over a flat row of `arity` columns. The
/// checker re-proves every obligation with its own meter.
#[derive(Debug, Clone, PartialEq)]
pub struct Obligation {
    pub premise: Vec<ScalarExpr>,
    pub conclusion: Vec<ScalarExpr>,
    pub arity: usize,
}

/// One rule application in the derivation tree. Steps are stored in
/// topological order; `premises` are indices of earlier steps. The last
/// step derives the goal (the admitted query).
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub rule: RuleId,
    /// The SPJ block this step proves valid. `None` for marker steps
    /// (non-SPJ U1 roots, access-pattern views used by a dependent
    /// join) and for non-SPJ `U2-dag` goals.
    pub block: Option<SpjBlock>,
    /// Indices of earlier steps this one builds on.
    pub premises: Vec<usize>,
    /// The granted view a U1 step instantiates.
    pub view: Option<Ident>,
    /// The inclusion dependency a U3 step expands through.
    pub constraint: Option<Ident>,
    /// Rule-specific index list: for `U2-match`, the flat-column map
    /// from this block's frame into the premise's frame (`q_to_v`);
    /// for `S6-depjoin`, the directly-anchored scan-instance indices.
    pub substitution: Vec<usize>,
    /// Access-pattern parameter pins (`$$param` → constant) applied to
    /// a U1 view instantiation.
    pub pins: Vec<(String, Value)>,
    /// Implication obligations discharged by this step.
    pub obligations: Vec<Obligation>,
    /// For C3 steps: how many rows the remainder probe returned.
    pub probe_rows: Option<u64>,
    /// Free-text annotation (never consulted by the checker).
    pub note: String,
}

impl Step {
    /// An empty step of the given rule; emitters fill in the fields the
    /// rule needs.
    pub fn new(rule: RuleId) -> Step {
        Step {
            rule,
            block: None,
            premises: Vec::new(),
            view: None,
            constraint: None,
            substitution: Vec::new(),
            pins: Vec::new(),
            obligations: Vec::new(),
            probe_rows: None,
            note: String::new(),
        }
    }
}

/// Whether the derivation establishes unconditional (U-rules only) or
/// conditional (C3 goal) validity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertVerdict {
    Unconditional,
    Conditional,
}

impl CertVerdict {
    pub fn as_str(&self) -> &'static str {
        match self {
            CertVerdict::Unconditional => "unconditional",
            CertVerdict::Conditional => "conditional",
        }
    }

    pub fn from_str_verdict(s: &str) -> Option<CertVerdict> {
        Some(match s {
            "unconditional" => CertVerdict::Unconditional,
            "conditional" => CertVerdict::Conditional,
            _ => return None,
        })
    }
}

/// A validity certificate: everything needed to re-verify one ACCEPT
/// without trusting the validator.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// The user the query was admitted for.
    pub principal: String,
    /// Policy epoch the derivation was minted under. The checker
    /// refuses certificates from any other epoch (`Q003`).
    pub policy_epoch: u64,
    pub verdict: CertVerdict,
    /// Session parameters used to instantiate the views, sorted by name.
    pub params: Vec<(String, Value)>,
    /// Base tables the admitted query scans.
    pub query_tables: Vec<Ident>,
    /// The admitted query as an SPJ block (`None` when the query is not
    /// SPJ-decomposable, e.g. aggregates justified through the DAG).
    pub query: Option<SpjBlock>,
    /// The derivation, topologically ordered; the last step is the goal.
    pub steps: Vec<Step>,
}

impl Certificate {
    /// The remainder probe `v_r` a conditional accept rests on: the
    /// block of premise 1 of its C3a/C3b goal, the position the checker
    /// reads it at. `None` for every other derivation.
    pub fn remainder_probe(&self) -> Option<&SpjBlock> {
        let goal = self.steps.last()?;
        if !goal.rule.is_conditional() {
            return None;
        }
        self.steps.get(*goal.premises.get(1)?)?.block.as_ref()
    }
}

/// The policy state the checker verifies a certificate against: the
/// catalog plus the *raw* grant tables (principal → grants) and the
/// current epoch. Built from engine state by the caller; the checker
/// re-derives effective (role-expanded) grant sets itself.
#[derive(Debug, Clone, Copy)]
pub struct CertPolicy<'a> {
    pub catalog: &'a Catalog,
    /// principal → granted authorization views.
    pub view_grants: &'a BTreeMap<String, BTreeSet<Ident>>,
    /// principal → visible integrity constraints.
    pub constraint_grants: &'a BTreeMap<String, BTreeSet<Ident>>,
    /// user → roles.
    pub role_memberships: &'a BTreeMap<String, Vec<String>>,
    pub policy_epoch: u64,
}

/// Checker configuration.
#[derive(Debug, Clone, Default)]
pub struct CheckerOptions {
    /// Budget for the re-proofs. Exhaustion rejects the certificate
    /// (fail closed), it never accepts.
    pub budget: Budget,
}

/// Re-verifies every step of `cert` against `policy`. Returns the empty
/// list iff the certificate is fully verified; otherwise one diagnostic
/// per defect, with stable codes: `Q003` for epoch/grant staleness,
/// `Q002` for probes over uncertified relations, `Q001` for coverage
/// gaps, `Q004` for any derivation step that fails re-verification.
pub fn check_certificate(
    cert: &Certificate,
    policy: &CertPolicy<'_>,
    opts: &CheckerOptions,
) -> Vec<Diagnostic> {
    check_impl(cert, policy, opts, true)
}

/// Re-verifies a certificate minted under an *older* policy epoch
/// against the current grant state. This is the warm-revalidation path:
/// identical to [`check_certificate`] except the top-level epoch pin is
/// skipped — every step is still fully re-verified (grant membership,
/// view re-instantiation, obligation re-proofs, goal coverage) against
/// `policy` as it stands now, so an empty result means the derivation
/// is valid under the *current* grants, not the ones it was minted
/// under. Any defect — including budget exhaustion — rejects (fail
/// closed); callers must then fall back to a cold check.
pub fn revalidate_certificate(
    cert: &Certificate,
    policy: &CertPolicy<'_>,
    opts: &CheckerOptions,
) -> Vec<Diagnostic> {
    check_impl(cert, policy, opts, false)
}

fn check_impl(
    cert: &Certificate,
    policy: &CertPolicy<'_>,
    opts: &CheckerOptions,
    pin_epoch: bool,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if pin_epoch && cert.policy_epoch != policy.policy_epoch {
        diags.push(Diagnostic::new(
            Code::StaleGrantEpoch,
            &cert.principal,
            "certificate",
            format!(
                "certificate was minted at policy epoch {} but the policy is at epoch {}",
                cert.policy_epoch, policy.policy_epoch
            ),
        ));
        return diags;
    }
    let mut params = ParamScope::new();
    for (k, v) in &cert.params {
        params.set(k, v.clone());
    }
    let mut ck = Checker {
        cert,
        policy,
        meter: opts.budget.start(),
        granted_views: effective(policy.view_grants, policy.role_memberships, &cert.principal),
        visible_constraints: effective(
            policy.constraint_grants,
            policy.role_memberships,
            &cert.principal,
        ),
        params,
        verified: vec![false; cert.steps.len()],
        step_tables: vec![BTreeSet::new(); cert.steps.len()],
    };
    for idx in 0..cert.steps.len() {
        let object = format!("step {idx} ({})", cert.steps[idx].rule);
        match ck.check_step(idx) {
            Ok(Ok(tables)) => {
                ck.verified[idx] = true;
                ck.step_tables[idx] = tables;
            }
            Ok(Err((code, msg))) => {
                diags.push(Diagnostic::new(code, &cert.principal, object, msg));
            }
            Err(Error::ResourceExhausted(phase)) => {
                diags.push(Diagnostic::new(
                    Code::CertificateStepUnverified,
                    &cert.principal,
                    object,
                    format!("checker budget exhausted in {phase}; failing closed"),
                ));
                return diags;
            }
            Err(e) => {
                diags.push(Diagnostic::new(
                    Code::CertificateStepUnverified,
                    &cert.principal,
                    object,
                    format!("checker error: {e}"),
                ));
            }
        }
    }
    ck.check_goal(&mut diags);
    diags
}

/// A step's verification outcome: the base tables it certifies, or the
/// defect found. The outer `Result` carries prover/meter errors.
type StepOutcome = Result<std::result::Result<BTreeSet<Ident>, (Code, String)>>;

/// Shorthand for a `Q004` step failure.
fn fail(msg: impl Into<String>) -> std::result::Result<BTreeSet<Ident>, (Code, String)> {
    Err((Code::CertificateStepUnverified, msg.into()))
}

struct Checker<'a> {
    cert: &'a Certificate,
    policy: &'a CertPolicy<'a>,
    meter: BudgetMeter,
    granted_views: BTreeSet<Ident>,
    visible_constraints: BTreeSet<Ident>,
    params: ParamScope,
    verified: Vec<bool>,
    step_tables: Vec<BTreeSet<Ident>>,
}

impl<'a> Checker<'a> {
    fn check_step(&mut self, idx: usize) -> StepOutcome {
        let step = &self.cert.steps[idx];
        // Every recorded block must be internally consistent before any
        // structural reasoning touches it.
        if let Some(b) = &step.block {
            if !well_formed(b) {
                return Ok(fail("recorded block is malformed (empty scans or out-of-range columns)"));
            }
        }
        // Obligations are re-proved for every rule that recorded them.
        for (i, ob) in step.obligations.iter().enumerate() {
            let in_range = |es: &[ScalarExpr]| {
                es.iter()
                    .all(|e| e.referenced_cols().into_iter().all(|c| c < ob.arity))
            };
            if !in_range(&ob.premise) || !in_range(&ob.conclusion) {
                return Ok(fail(format!("obligation {i} references columns beyond its arity")));
            }
            if !implies_metered(&ob.premise, &ob.conclusion, ob.arity, &self.meter)? {
                return Ok(fail(format!("implication obligation {i} does not re-prove")));
            }
        }
        match step.rule {
            RuleId::U1 => self.check_u1(idx),
            RuleId::U2Dag => self.check_u2_dag(idx),
            RuleId::U2Match => self.check_u2_match(idx),
            RuleId::U2Restrict => self.check_u2_restrict(idx),
            RuleId::U2Compose => self.check_u2_compose(idx),
            RuleId::U3a | RuleId::U3c => self.check_u3(idx),
            RuleId::C3a | RuleId::C3b => self.check_c3(idx),
            RuleId::DependentJoin => self.check_dependent_join(idx),
        }
    }

    /// A premise must be an earlier, already-verified step.
    fn premise(
        &self,
        idx: usize,
        pi: usize,
    ) -> std::result::Result<&'a Step, (Code, String)> {
        if pi >= idx {
            return Err((
                Code::CertificateStepUnverified,
                format!("premise {pi} is not an earlier step"),
            ));
        }
        if !self.verified[pi] {
            return Err((
                Code::CertificateStepUnverified,
                format!("premise {pi} failed verification"),
            ));
        }
        Ok(&self.cert.steps[pi])
    }

    /// A premise that must carry an SPJ block.
    fn premise_block(
        &self,
        idx: usize,
        pi: usize,
    ) -> std::result::Result<&'a SpjBlock, (Code, String)> {
        match &self.premise(idx, pi)?.block {
            Some(b) => Ok(b),
            None => Err((
                Code::CertificateStepUnverified,
                format!("premise {pi} carries no block"),
            )),
        }
    }

    /// Re-instantiates a granted view from its catalog definition with
    /// the certificate's parameters and the step's access-pattern pins.
    /// Returns the scanned base tables and the SPJ block (if the body
    /// decomposes).
    fn instantiate_view(
        &self,
        name: &Ident,
        pins: &[(String, Value)],
    ) -> std::result::Result<(BTreeSet<Ident>, Option<SpjBlock>), (Code, String)> {
        if !self.granted_views.contains(name) {
            return Err((
                Code::StaleGrantEpoch,
                format!(
                    "view {name} is not granted to {} at policy epoch {}",
                    self.cert.principal, self.cert.policy_epoch
                ),
            ));
        }
        let Some(def) = self.policy.catalog.view(name) else {
            return Err((
                Code::CertificateStepUnverified,
                format!("view {name} does not exist in the catalog"),
            ));
        };
        if !def.authorization {
            return Err((
                Code::CertificateStepUnverified,
                format!("view {name} is not an AUTHORIZATION view"),
            ));
        }
        let bound = match bind_query(self.policy.catalog, &def.query, &self.params) {
            Ok(b) => b,
            Err(e) => {
                return Err((
                    Code::CertificateStepUnverified,
                    format!("view {name} does not bind: {e}"),
                ))
            }
        };
        let plan = fgac_algebra::normalize(&bound.plan);
        let tables: BTreeSet<Ident> = plan.scanned_tables().into_iter().collect();
        let block = SpjBlock::decompose(&plan).map(|b| apply_pins(&b, pins));
        Ok((tables, block))
    }

    fn check_u1(&mut self, idx: usize) -> StepOutcome {
        let step = &self.cert.steps[idx];
        let Some(view) = &step.view else {
            return Ok(fail("U1 step names no view"));
        };
        let (tables, reblock) = match self.instantiate_view(view, &step.pins) {
            Ok(v) => v,
            Err(e) => return Ok(Err(e)),
        };
        match (&step.block, reblock) {
            // A marker root (non-SPJ view body, or an access-pattern
            // view used by a dependent join): coverage only.
            (None, _) => Ok(Ok(tables)),
            (Some(recorded), Some(rederived)) => {
                if !blocks_equal(recorded, &rederived) {
                    return Ok(fail(format!(
                        "recorded body of view {view} does not match its re-instantiated definition"
                    )));
                }
                Ok(Ok(tables))
            }
            (Some(_), None) => Ok(fail(format!(
                "view {view} is not SPJ-decomposable but the step records a block"
            ))),
        }
    }

    fn check_u2_dag(&mut self, idx: usize) -> StepOutcome {
        let step = &self.cert.steps[idx];
        if step.premises.is_empty() {
            return Ok(fail("U2-dag step has no premises"));
        }
        let mut union = BTreeSet::new();
        for &pi in &step.premises {
            if let Err(e) = self.premise(idx, pi) {
                return Ok(Err(e));
            }
            union.extend(self.step_tables[pi].iter().cloned());
        }
        match &step.block {
            Some(b) => {
                let tables: BTreeSet<Ident> =
                    b.scans.iter().map(|(t, _)| t.clone()).collect();
                if !tables.is_subset(&union) {
                    return Ok(fail(
                        "goal expression scans a relation outside its premises",
                    ));
                }
                Ok(Ok(tables))
            }
            None => Ok(Ok(union)),
        }
    }

    fn check_u2_match(&mut self, idx: usize) -> StepOutcome {
        let step = &self.cert.steps[idx];
        let [pi] = step.premises[..] else {
            return Ok(fail("U2-match needs exactly one premise"));
        };
        let v = match self.premise_block(idx, pi) {
            Ok(b) => b,
            Err(e) => return Ok(Err(e)),
        };
        let Some(q) = &step.block else {
            return Ok(fail("U2-match step records no block"));
        };
        let sub = &step.substitution;
        if sub.len() != q.flat_arity() {
            return Ok(fail("substitution length does not match the block arity"));
        }
        // Instance-wise: each Q scan maps contiguously onto a distinct V
        // scan of the same table with an identical schema.
        let mut v_used = vec![false; v.scans.len()];
        for (qi, (qt, qschema)) in q.scans.iter().enumerate() {
            let (qs, qe) = q.scan_range(qi);
            let Some(&base) = sub.get(qs) else {
                return Ok(fail("substitution is missing entries"));
            };
            for (off, col) in (qs..qe).enumerate() {
                if sub.get(col) != Some(&(base + off)) {
                    return Ok(fail(format!(
                        "substitution is not instance-contiguous at column {col}"
                    )));
                }
            }
            let Some(vi) = (0..v.scans.len()).find(|&vi| v.scan_range(vi).0 == base) else {
                return Ok(fail(format!(
                    "substitution base {base} is not the start of a premise scan instance"
                )));
            };
            let (vt, vschema) = &v.scans[vi];
            if vt != qt || vschema != qschema {
                return Ok(fail(format!(
                    "ill-typed substitution: instance {qi} ({qt}) maps onto {vt} with a different schema"
                )));
            }
            if std::mem::replace(&mut v_used[vi], true) {
                return Ok(fail(format!(
                    "substitution maps two instances onto premise instance {vi}"
                )));
            }
        }
        // Subsumption: Q's predicate, re-expressed in V's frame, must
        // imply V's predicate.
        let qc_in_v: Vec<ScalarExpr> = q
            .conjuncts
            .iter()
            .map(|c| c.map_cols(&|i| sub.get(i).copied().unwrap_or(i)))
            .collect();
        if !implies_metered(&qc_in_v, &v.conjuncts, v.flat_arity(), &self.meter)? {
            return Ok(fail("subsumption implication does not re-prove"));
        }
        // Availability: every column Q uses must survive V's projection.
        let mut needed = BTreeSet::new();
        for e in q.conjuncts.iter().chain(q.projection.iter()) {
            needed.extend(e.referenced_cols());
        }
        for c in needed {
            let mapped = sub.get(c).copied().unwrap_or(c);
            if !v.projection.contains(&ScalarExpr::Col(mapped)) {
                return Ok(fail(format!(
                    "column {c} is used but not available through the premise's projection"
                )));
            }
        }
        // Multiplicity: computing a duplicate-preserving Q from a
        // duplicate-eliminating V needs Q provably duplicate-free.
        if !q.distinct && v.distinct && !duplicate_free(self.policy.catalog, q) {
            return Ok(fail(
                "multiplicity not justified: premise is DISTINCT and block is not provably duplicate-free",
            ));
        }
        Ok(Ok(q.scans.iter().map(|(t, _)| t.clone()).collect()))
    }

    fn check_u2_restrict(&mut self, idx: usize) -> StepOutcome {
        let step = &self.cert.steps[idx];
        let [pi] = step.premises[..] else {
            return Ok(fail("U2-restrict needs exactly one premise"));
        };
        let v = match self.premise_block(idx, pi) {
            Ok(b) => b,
            Err(e) => return Ok(Err(e)),
        };
        let Some(b) = &step.block else {
            return Ok(fail("U2-restrict step records no block"));
        };
        if b.scans != v.scans || b.projection != v.projection || b.distinct != v.distinct {
            return Ok(fail(
                "restriction must keep the premise's scans, projection, and distinct flag",
            ));
        }
        // Every added conjunct must be computable over the premise's
        // output (σ on top of V is then a legal U2 operation), and the
        // restricted rows must be a subset of the premise's.
        for c in &b.conjuncts {
            if v.conjuncts.contains(c) {
                continue;
            }
            for col in c.referenced_cols() {
                if !v.projection.contains(&ScalarExpr::Col(col)) {
                    return Ok(fail(format!(
                        "restriction conjunct references column {col} which the premise does not project"
                    )));
                }
            }
        }
        if !implies_metered(&b.conjuncts, &v.conjuncts, v.flat_arity(), &self.meter)? {
            return Ok(fail("restriction implication does not re-prove"));
        }
        Ok(Ok(b.scans.iter().map(|(t, _)| t.clone()).collect()))
    }

    fn check_u2_compose(&mut self, idx: usize) -> StepOutcome {
        let step = &self.cert.steps[idx];
        let [pa, pb] = step.premises[..] else {
            return Ok(fail("U2-compose needs exactly two premises"));
        };
        let (a, b) = match (self.premise_block(idx, pa), self.premise_block(idx, pb)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return Ok(Err(e)),
        };
        if a.distinct || b.distinct {
            return Ok(fail("composition premises must be duplicate-preserving"));
        }
        let Some(c) = &step.block else {
            return Ok(fail("U2-compose step records no block"));
        };
        let shift = a.flat_arity();
        let mut scans = a.scans.clone();
        scans.extend(b.scans.iter().cloned());
        let mut projection = a.projection.clone();
        projection.extend(b.projection.iter().map(|e| e.map_cols(&|i| i + shift)));
        if c.scans != scans || c.projection != projection || c.distinct {
            return Ok(fail(
                "composition must concatenate the premises' frames exactly",
            ));
        }
        let mut want = a.conjuncts.clone();
        want.extend(b.conjuncts.iter().map(|e| e.map_cols(&|i| i + shift)));
        let arity = c.flat_arity();
        if !implies_metered(&c.conjuncts, &want, arity, &self.meter)?
            || !implies_metered(&want, &c.conjuncts, arity, &self.meter)?
        {
            return Ok(fail(
                "composed predicate is not equivalent to the premises' conjunction",
            ));
        }
        Ok(Ok(c.scans.iter().map(|(t, _)| t.clone()).collect()))
    }

    /// The named inclusion dependency, if it exists and is visible.
    fn visible_inclusion(
        &self,
        name: &Ident,
    ) -> std::result::Result<InclusionDependency, (Code, String)> {
        let Some(dep) = self
            .policy
            .catalog
            .all_inclusions()
            .into_iter()
            .find(|d| &d.name == name)
        else {
            return Err((
                Code::CertificateStepUnverified,
                format!("inclusion dependency {name} does not exist"),
            ));
        };
        if !self.visible_constraints.contains(name) {
            return Err((
                Code::StaleGrantEpoch,
                format!(
                    "inclusion dependency {name} is not visible to {} at policy epoch {}",
                    self.cert.principal, self.cert.policy_epoch
                ),
            ));
        }
        Ok(dep)
    }

    fn check_u3(&mut self, idx: usize) -> StepOutcome {
        let step = &self.cert.steps[idx];
        let Some(name) = &step.constraint else {
            return Ok(fail("U3 step names no inclusion dependency"));
        };
        let dep = match self.visible_inclusion(name) {
            Ok(d) => d,
            Err(e) => return Ok(Err(e)),
        };
        let (vb_pi, witness_pi) = match (step.rule, &step.premises[..]) {
            (RuleId::U3a, &[p]) => (p, None),
            (RuleId::U3c, &[p, w]) => (p, Some(w)),
            _ => return Ok(fail("U3 step has the wrong premise count")),
        };
        let vb = match self.premise_block(idx, vb_pi) {
            Ok(b) => b,
            Err(e) => return Ok(Err(e)),
        };
        let Some(core) = &step.block else {
            return Ok(fail("U3 step records no core block"));
        };
        match step.rule {
            RuleId::U3a if !core.distinct => {
                return Ok(fail("U3a core must be DISTINCT"));
            }
            RuleId::U3c if core.distinct => {
                return Ok(fail("U3c core must be duplicate-preserving"));
            }
            _ => {}
        }
        if let Some(wi) = witness_pi {
            let w = match self.premise_block(idx, wi) {
                Ok(b) => b,
                Err(e) => return Ok(Err(e)),
            };
            let single_rem = w.scans.len() == 1
                && w.scans.first().map(|(t, _)| t == &dep.dst_table).unwrap_or(false);
            if !single_rem {
                return Ok(fail(format!(
                    "U3c multiplicity witness must scan exactly the remainder table {}",
                    dep.dst_table
                )));
            }
        }
        // The core's scan multiset is the premise's minus one instance
        // of the dependency's destination (remainder) table.
        let mut want: Vec<&Ident> = vb.scans.iter().map(|(t, _)| t).collect();
        match want.iter().position(|t| **t == dep.dst_table) {
            Some(pos) => {
                want.remove(pos);
            }
            None => {
                return Ok(fail(format!(
                    "premise scans no instance of the remainder table {}",
                    dep.dst_table
                )))
            }
        }
        let mut got: Vec<&Ident> = core.scans.iter().map(|(t, _)| t).collect();
        want.sort();
        got.sort();
        if want != got {
            return Ok(fail(
                "core scan multiset is not the premise's minus the remainder instance",
            ));
        }
        if step.obligations.is_empty() && (dep.src_filter.is_some() || dep.dst_filter.is_some()) {
            return Ok(fail(
                "conditional inclusion dependency used without recorded filter obligations",
            ));
        }
        Ok(Ok(core.scans.iter().map(|(t, _)| t.clone()).collect()))
    }

    fn check_c3(&mut self, idx: usize) -> StepOutcome {
        let step = &self.cert.steps[idx];
        let (v_pi, probe_pis) = match (step.rule, &step.premises[..]) {
            (RuleId::C3a, &[v, r]) => (v, vec![r]),
            (RuleId::C3b, &[v, r, c]) => (v, vec![r, c]),
            _ => return Ok(fail("C3 step has the wrong premise count")),
        };
        if let Err(e) = self.premise(idx, v_pi) {
            return Ok(Err(e));
        }
        // The P005 leak condition, per query: the remainder probe may
        // only read relations whose validity is itself certified. An
        // unverified (or missing) probe premise is exactly that leak.
        for pi in probe_pis {
            if pi >= idx || !self.verified[pi] {
                return Ok(Err((
                    Code::UnauthorizedProbe,
                    format!(
                        "conditional acceptance rests on remainder probe premise {pi}, which is not certified valid"
                    ),
                )));
            }
        }
        match step.probe_rows {
            Some(0) | None => {
                return Ok(fail(
                    "C3 requires a non-empty remainder probe result to be recorded",
                ))
            }
            Some(_) => {}
        }
        let Some(goal) = &step.block else {
            return Ok(fail("C3 step records no goal block"));
        };
        if step.obligations.is_empty() {
            return Ok(fail("C3 step records no equivalence obligations"));
        }
        Ok(Ok(goal.scans.iter().map(|(t, _)| t.clone()).collect()))
    }

    /// Re-derives an access-pattern capability from a granted view's
    /// catalog definition: `[π](σ_{col = $$k [∧ local]}(scan t))` with
    /// the key column projected.
    fn derive_capability(&self, name: &Ident) -> Option<ApCap> {
        let def = self.policy.catalog.view(name)?;
        if !def.authorization || !self.granted_views.contains(name) {
            return None;
        }
        let bound = bind_query(self.policy.catalog, &def.query, &self.params).ok()?;
        let block = SpjBlock::decompose(&fgac_algebra::normalize(&bound.plan))?;
        if block.scans.len() != 1 || block.distinct {
            return None;
        }
        let mut key_col = None;
        for c in &block.conjuncts {
            match c {
                ScalarExpr::Cmp {
                    op: CmpOp::Eq,
                    left,
                    right,
                } if matches!(&**right, ScalarExpr::AccessParam(_)) => {
                    let ScalarExpr::Col(i) = &**left else {
                        return None;
                    };
                    if key_col.replace(*i).is_some() {
                        return None;
                    }
                }
                _ if c.has_access_params() => return None,
                _ => {}
            }
        }
        let key_col = key_col?;
        let available: Vec<usize> = block
            .projection
            .iter()
            .filter_map(|e| match e {
                ScalarExpr::Col(i) => Some(*i),
                _ => None,
            })
            .collect();
        if !available.contains(&key_col) {
            return None;
        }
        let (table, _) = block.scans.first()?;
        Some(ApCap {
            table: table.clone(),
            key_col,
            available,
        })
    }

    fn check_dependent_join(&mut self, idx: usize) -> StepOutcome {
        let step = &self.cert.steps[idx];
        let Some(q) = &step.block else {
            return Ok(fail("dependent-join step records no block"));
        };
        let n = q.scans.len();
        let mut reachable = vec![false; n];
        for &inst in &step.substitution {
            if inst >= n {
                return Ok(fail(format!("anchor instance {inst} is out of range")));
            }
            reachable[inst] = true;
        }
        if !reachable.iter().any(|&r| r) {
            return Ok(fail("dependent join has no directly-valid anchor"));
        }
        // Premises: anchors carry blocks (their validity chains were
        // verified as earlier steps); access-pattern views are block-less
        // U1 markers whose capability we re-derive from the catalog.
        let mut caps = Vec::new();
        let mut anchor_blocks = Vec::new();
        for &pi in &step.premises {
            let p = match self.premise(idx, pi) {
                Ok(p) => p,
                Err(e) => return Ok(Err(e)),
            };
            match (&p.block, &p.view) {
                (Some(b), _) => anchor_blocks.push(b),
                (None, Some(view)) => match self.derive_capability(view) {
                    Some(c) => caps.push(c),
                    None => {
                        return Ok(fail(format!(
                            "view {view} yields no access-pattern capability"
                        )))
                    }
                },
                (None, None) => {
                    return Ok(fail(format!("premise {pi} is neither anchor nor capability")))
                }
            }
        }
        // Each anchored instance must be justified by an anchor premise
        // restricted to that instance's table.
        for &inst in &step.substitution {
            let Some((table, _)) = q.scans.get(inst) else {
                return Ok(fail(format!("anchor instance {inst} is out of range")));
            };
            let justified = anchor_blocks.iter().any(|b| {
                b.scans.len() == 1
                    && b.scans.first().map(|(t, _)| t == table).unwrap_or(false)
            });
            if !justified {
                return Ok(fail(format!(
                    "anchor instance {inst} ({table}) has no verified single-table premise"
                )));
            }
        }
        // Equi-join edges between distinct instances.
        let mut edges = Vec::new();
        for c in &q.conjuncts {
            if let ScalarExpr::Cmp {
                op: CmpOp::Eq,
                left,
                right,
            } = c
            {
                if let (ScalarExpr::Col(a), ScalarExpr::Col(b)) = (&**left, &**right) {
                    let (oa, ob) = (owner_of(q, *a), owner_of(q, *b));
                    if let (Some(oa), Some(ob)) = (oa, ob) {
                        if oa != ob {
                            edges.push((oa, *a, ob, *b));
                        }
                    }
                }
            }
        }
        // Reachability fixpoint, re-run from scratch.
        let mut changed = true;
        while changed {
            changed = false;
            for (inst, (table, _)) in q.scans.iter().enumerate() {
                if reachable[inst] {
                    continue;
                }
                let (start, _) = q.scan_range(inst);
                for cap in &caps {
                    if &cap.table != table {
                        continue;
                    }
                    let key_flat = start + cap.key_col;
                    let used_ok = used_columns(q, inst)
                        .iter()
                        .all(|&c| cap.available.contains(&(c - start)));
                    if !used_ok {
                        continue;
                    }
                    let fed = edges.iter().any(|&(oa, a, ob, b)| {
                        (a == key_flat && oa == inst && reachable[ob])
                            || (b == key_flat && ob == inst && reachable[oa])
                    });
                    if fed {
                        reachable[inst] = true;
                        changed = true;
                        break;
                    }
                }
            }
        }
        if let Some(inst) = reachable.iter().position(|&r| !r) {
            return Ok(fail(format!(
                "scan instance {inst} is not reachable through any access-pattern capability"
            )));
        }
        Ok(Ok(q.scans.iter().map(|(t, _)| t.clone()).collect()))
    }

    /// Goal-level checks after all steps are processed.
    fn check_goal(&self, diags: &mut Vec<Diagnostic>) {
        let principal = &self.cert.principal;
        let Some(goal_idx) = self.cert.steps.len().checked_sub(1) else {
            diags.push(Diagnostic::new(
                Code::CertificateStepUnverified,
                principal,
                "certificate",
                "certificate has no derivation steps",
            ));
            return;
        };
        if !self.verified[goal_idx] {
            // Its own diagnostic is already recorded.
            return;
        }
        let goal = &self.cert.steps[goal_idx];
        if let (Some(gb), Some(q)) = (&goal.block, &self.cert.query) {
            if !blocks_equal(gb, q) {
                diags.push(Diagnostic::new(
                    Code::CertificateStepUnverified,
                    principal,
                    "goal",
                    "goal step does not derive the certified query",
                ));
            }
        } else if goal.block.is_none() && self.cert.query.is_some() && goal.rule != RuleId::U2Dag
        {
            diags.push(Diagnostic::new(
                Code::CertificateStepUnverified,
                principal,
                "goal",
                "goal step records no block for an SPJ query",
            ));
        }
        let goal_conditional = goal.rule.is_conditional();
        let cert_conditional = self.cert.verdict == CertVerdict::Conditional;
        if goal_conditional != cert_conditional {
            diags.push(Diagnostic::new(
                Code::CertificateStepUnverified,
                principal,
                "goal",
                format!(
                    "verdict {} is inconsistent with goal rule {}",
                    self.cert.verdict.as_str(),
                    goal.rule
                ),
            ));
        }
        // Q001: every query relation must be covered by some verified
        // step — otherwise no inference rule could ever have fired.
        let mut covered = BTreeSet::new();
        for (i, ok) in self.verified.iter().enumerate() {
            if *ok {
                covered.extend(self.step_tables[i].iter().cloned());
            }
        }
        for t in &self.cert.query_tables {
            if !covered.contains(t) {
                diags.push(Diagnostic::new(
                    Code::UncoveredRelation,
                    principal,
                    t.as_str(),
                    format!("query relation {t} is not covered by any verified derivation step"),
                ));
            }
        }
    }
}

/// An access-pattern capability the checker re-derived.
struct ApCap {
    table: Ident,
    key_col: usize,
    available: Vec<usize>,
}

/// The user's effective grants: direct plus role-carried.
fn effective(
    map: &BTreeMap<String, BTreeSet<Ident>>,
    roles: &BTreeMap<String, Vec<String>>,
    user: &str,
) -> BTreeSet<Ident> {
    let mut out = map.get(user).cloned().unwrap_or_default();
    if let Some(rs) = roles.get(user) {
        for r in rs {
            if let Some(s) = map.get(r) {
                out.extend(s.iter().cloned());
            }
        }
    }
    out
}

/// Internal consistency of an untrusted block: scans non-empty, every
/// referenced column inside the flat row. Everything the checker does
/// with a block is guarded by this (so `to_plan`/`scan_range` cannot
/// panic on adversarial input).
fn well_formed(b: &SpjBlock) -> bool {
    if b.scans.is_empty() {
        return false;
    }
    let flat = b.flat_arity();
    b.conjuncts
        .iter()
        .chain(b.projection.iter())
        .all(|e| e.referenced_cols().into_iter().all(|c| c < flat))
}

/// Canonical form for comparison: rebuild the plan (which re-normalizes
/// conjunct order and shape) and decompose again.
fn canon(b: &SpjBlock) -> Option<SpjBlock> {
    if !well_formed(b) {
        return None;
    }
    SpjBlock::decompose(&b.to_plan())
}

/// Two blocks are equal up to normalization. Conjuncts compare as a
/// multiset: the emitter and the checker substitute access-pattern pins
/// at different pipeline stages, so predicate order can differ without
/// changing meaning.
fn blocks_equal(a: &SpjBlock, b: &SpjBlock) -> bool {
    let (Some(mut ca), Some(mut cb)) = (canon(a), canon(b)) else {
        return false;
    };
    ca.conjuncts.sort_by_key(|c| format!("{c:?}"));
    cb.conjuncts.sort_by_key(|c| format!("{c:?}"));
    ca == cb
}

/// Substitutes pinned access-pattern parameters with their constants.
fn apply_pins(b: &SpjBlock, pins: &[(String, Value)]) -> SpjBlock {
    if pins.is_empty() {
        return b.clone();
    }
    let subst = |e: &ScalarExpr| -> Option<ScalarExpr> {
        if let ScalarExpr::AccessParam(p) = e {
            for (name, v) in pins {
                if name == p {
                    return Some(ScalarExpr::Lit(v.clone()));
                }
            }
        }
        None
    };
    SpjBlock {
        scans: b.scans.clone(),
        conjuncts: b.conjuncts.iter().map(|c| c.transform(&subst)).collect(),
        projection: b.projection.iter().map(|c| c.transform(&subst)).collect(),
        distinct: b.distinct,
    }
}

/// Which scan instance owns flat column `col` (total version of
/// `SpjBlock::owner`, which panics out of range).
fn owner_of(b: &SpjBlock, col: usize) -> Option<usize> {
    let mut acc = 0;
    for (i, (_, s)) in b.scans.iter().enumerate() {
        acc += s.len();
        if col < acc {
            return Some(i);
        }
    }
    None
}

/// Flat columns of instance `idx` the block's projection or predicates
/// actually use.
fn used_columns(b: &SpjBlock, idx: usize) -> Vec<usize> {
    let (start, end) = b.scan_range(idx);
    let mut used = BTreeSet::new();
    for e in b.projection.iter().chain(b.conjuncts.iter()) {
        for c in e.referenced_cols() {
            if c >= start && c < end {
                used.insert(c);
            }
        }
    }
    used.into_iter().collect()
}

/// Independent re-implementation of the duplicate-freedom argument
/// (Example 5.5): the projection retains — directly or pinned by an
/// equality — a primary key of every scan instance.
fn duplicate_free(catalog: &Catalog, b: &SpjBlock) -> bool {
    if b.distinct {
        return true;
    }
    b.scans.iter().enumerate().all(|(idx, (table, schema))| {
        let Some(meta) = catalog.table(table) else {
            return false;
        };
        let Some(pk) = &meta.primary_key else {
            return false;
        };
        let (start, _) = b.scan_range(idx);
        pk.iter().all(|col| {
            let Some(i) = schema.index_of(col) else {
                return false;
            };
            let flat = start + i;
            b.projection.contains(&ScalarExpr::Col(flat)) || pinned(&b.conjuncts, flat)
        })
    })
}

/// Is `col` forced to a single value by a syntactic equality?
fn pinned(conjuncts: &[ScalarExpr], col: usize) -> bool {
    conjuncts.iter().any(|c| {
        matches!(c, ScalarExpr::Cmp { op: CmpOp::Eq, left, right }
            if matches!(&**left, ScalarExpr::Col(i) if *i == col)
                && matches!(&**right, ScalarExpr::Lit(_) | ScalarExpr::AccessParam(_)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_storage::ViewDef;
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
        c.add_view(ViewDef {
            name: Ident::new("mygrades"),
            authorization: true,
            query: fgac_sql::parse_query("select * from grades where student_id = $user_id")
                .unwrap(),
        })
        .unwrap();
        c
    }

    fn grants_for(user: &str, views: &[&str]) -> BTreeMap<String, BTreeSet<Ident>> {
        let mut m = BTreeMap::new();
        m.insert(user.to_string(), views.iter().map(Ident::new).collect());
        m
    }

    fn my_grades_block(cat: &Catalog) -> SpjBlock {
        let q = fgac_sql::parse_query("select * from grades where student_id = '11'").unwrap();
        let b = bind_query(cat, &q, &ParamScope::new()).unwrap();
        SpjBlock::decompose(&fgac_algebra::normalize(&b.plan)).unwrap()
    }

    fn simple_cert(cat: &Catalog) -> Certificate {
        let block = my_grades_block(cat);
        let mut u1 = Step::new(RuleId::U1);
        u1.view = Some(Ident::new("mygrades"));
        u1.block = Some(block.clone());
        let mut goal = Step::new(RuleId::U2Dag);
        goal.premises = vec![0];
        goal.block = Some(block.clone());
        Certificate {
            principal: "11".into(),
            policy_epoch: 7,
            verdict: CertVerdict::Unconditional,
            params: vec![("user_id".into(), Value::Str("11".into()))],
            query_tables: vec![Ident::new("grades")],
            query: Some(block),
            steps: vec![u1, goal],
        }
    }

    fn policy<'a>(
        cat: &'a Catalog,
        views: &'a BTreeMap<String, BTreeSet<Ident>>,
        constraints: &'a BTreeMap<String, BTreeSet<Ident>>,
        roles: &'a BTreeMap<String, Vec<String>>,
        epoch: u64,
    ) -> CertPolicy<'a> {
        CertPolicy {
            catalog: cat,
            view_grants: views,
            constraint_grants: constraints,
            role_memberships: roles,
            policy_epoch: epoch,
        }
    }

    #[test]
    fn honest_certificate_verifies() {
        let cat = catalog();
        let views = grants_for("11", &["mygrades"]);
        let (cons, roles) = (BTreeMap::new(), BTreeMap::new());
        let pol = policy(&cat, &views, &cons, &roles, 7);
        let cert = simple_cert(&cat);
        let diags = check_certificate(&cert, &pol, &CheckerOptions::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn forged_epoch_rejected_with_q003() {
        let cat = catalog();
        let views = grants_for("11", &["mygrades"]);
        let (cons, roles) = (BTreeMap::new(), BTreeMap::new());
        let pol = policy(&cat, &views, &cons, &roles, 8);
        let cert = simple_cert(&cat); // minted at epoch 7
        let diags = check_certificate(&cert, &pol, &CheckerOptions::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::StaleGrantEpoch);
    }

    #[test]
    fn ungranted_view_rejected_with_q003() {
        let cat = catalog();
        let views = grants_for("12", &["mygrades"]); // granted to someone else
        let (cons, roles) = (BTreeMap::new(), BTreeMap::new());
        let pol = policy(&cat, &views, &cons, &roles, 7);
        let cert = simple_cert(&cat);
        let diags = check_certificate(&cert, &pol, &CheckerOptions::default());
        assert!(diags.iter().any(|d| d.code == Code::StaleGrantEpoch), "{diags:?}");
    }

    #[test]
    fn tampered_view_body_rejected_with_q004() {
        let cat = catalog();
        let views = grants_for("11", &["mygrades"]);
        let (cons, roles) = (BTreeMap::new(), BTreeMap::new());
        let pol = policy(&cat, &views, &cons, &roles, 7);
        let mut cert = simple_cert(&cat);
        // Claim the view grants someone else's rows.
        let q = fgac_sql::parse_query("select * from grades where student_id = '99'").unwrap();
        let b = bind_query(&cat, &q, &ParamScope::new()).unwrap();
        cert.steps[0].block =
            Some(SpjBlock::decompose(&fgac_algebra::normalize(&b.plan)).unwrap());
        let diags = check_certificate(&cert, &pol, &CheckerOptions::default());
        assert!(
            diags.iter().any(|d| d.code == Code::CertificateStepUnverified),
            "{diags:?}"
        );
    }

    #[test]
    fn uncovered_relation_flagged_with_q001() {
        let cat = catalog();
        let views = grants_for("11", &["mygrades"]);
        let (cons, roles) = (BTreeMap::new(), BTreeMap::new());
        let pol = policy(&cat, &views, &cons, &roles, 7);
        let mut cert = simple_cert(&cat);
        cert.query_tables.push(Ident::new("registered"));
        let diags = check_certificate(&cert, &pol, &CheckerOptions::default());
        assert!(diags.iter().any(|d| d.code == Code::UncoveredRelation), "{diags:?}");
    }

    #[test]
    fn role_carried_grant_is_effective() {
        let cat = catalog();
        let views = grants_for("student", &["mygrades"]);
        let cons = BTreeMap::new();
        let mut roles = BTreeMap::new();
        roles.insert("11".to_string(), ["student".to_string()].into_iter().collect());
        let pol = policy(&cat, &views, &cons, &roles, 7);
        let cert = simple_cert(&cat);
        let diags = check_certificate(&cert, &pol, &CheckerOptions::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn empty_certificate_rejected() {
        let cat = catalog();
        let views = grants_for("11", &["mygrades"]);
        let (cons, roles) = (BTreeMap::new(), BTreeMap::new());
        let pol = policy(&cat, &views, &cons, &roles, 7);
        let mut cert = simple_cert(&cat);
        cert.steps.clear();
        let diags = check_certificate(&cert, &pol, &CheckerOptions::default());
        assert!(!diags.is_empty());
    }

    #[test]
    fn verdict_must_match_goal_rule() {
        let cat = catalog();
        let views = grants_for("11", &["mygrades"]);
        let (cons, roles) = (BTreeMap::new(), BTreeMap::new());
        let pol = policy(&cat, &views, &cons, &roles, 7);
        let mut cert = simple_cert(&cat);
        cert.verdict = CertVerdict::Conditional; // but goal is U2-dag
        let diags = check_certificate(&cert, &pol, &CheckerOptions::default());
        assert!(
            diags.iter().any(|d| d.code == Code::CertificateStepUnverified),
            "{diags:?}"
        );
    }

    #[test]
    fn rule_ids_round_trip() {
        for r in RuleId::all() {
            assert_eq!(RuleId::from_str_id(r.as_str()), Some(r));
        }
        assert_eq!(RuleId::from_str_id("U9"), None);
    }

    #[test]
    fn exhausted_budget_fails_closed() {
        let cat = catalog();
        let views = grants_for("11", &["mygrades"]);
        let (cons, roles) = (BTreeMap::new(), BTreeMap::new());
        let pol = policy(&cat, &views, &cons, &roles, 7);
        let mut cert = simple_cert(&cat);
        // Give the goal an obligation so a proof is attempted.
        cert.steps[1].obligations.push(Obligation {
            premise: vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit("11"))],
            conclusion: vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit("11"))],
            arity: 3,
        });
        let opts = CheckerOptions {
            budget: Budget::with_max_steps(1),
        };
        let diags = check_certificate(&cert, &pol, &opts);
        assert!(
            diags.iter().any(|d| d.code == Code::CertificateStepUnverified
                && d.message.contains("exhausted")),
            "{diags:?}"
        );
    }
}
