//! The Non-Truman model validity checker (Sections 4–5).
//!
//! A query is **valid** if it can be answered using only the information
//! in the user's instantiated authorization views; valid queries run
//! *unmodified*, invalid queries are rejected outright (no Truman-style
//! silent rewriting). The checker is sound but — necessarily, Section
//! 5.5 — incomplete; "false" answers reject queries that a cleverer
//! prover might accept.
//!
//! Pipeline (one [`Validator::check_query`] call):
//!
//! 1. bind the query and every granted view with the session parameters
//!    (*instantiated authorization views*, Section 2), keeping the views
//!    that can be of use — the views and their expanded DAG are built
//!    once per principal and session (`viewside`);
//! 2. insert the query into the views' [`Dag`], expand with
//!    equivalence rules + subsumption derivations, and run the bottom-up
//!    marking of Section 5.6.2 — rules **U1/U2**;
//! 3. run the SPJ-block matcher against valid blocks (view-level
//!    rewriting with multiset-precise reasoning);
//! 4. apply **U3a/U3b/U3c** derivations from user-visible inclusion
//!    dependencies, feeding derived cores back into the DAG and matcher;
//! 5. try the Section 6 access-pattern mechanisms (constant
//!    instantiation and dependent joins);
//! 6. if still not unconditionally valid, try **C3a/C3b**: find a
//!    remainder instantiation whose `v_r` is valid *and* non-empty on
//!    the current state — yielding *conditional* validity.

pub mod access_pattern;
pub mod c3;
mod certbuilder;
pub mod matcher;
pub mod strengthen;
pub mod u3;
pub(crate) mod viewside;

use crate::compiled::{self, PrincipalCaps};
use crate::grants::Grants;
use crate::session::Session;
use certbuilder::CertBuilder;
use viewside::{RegView, ViewSide, ViewSideKey};
use fgac_algebra::{normalize, Plan, SpjBlock};
use fgac_analyze::{CertVerdict, Certificate, RuleId, Step};
use fgac_optimizer::{expand, mark_valid, Dag, DagStats, EqId, ExpandOptions, Marking, Operator};
use fgac_storage::Database;
use fgac_types::{Budget, BudgetMeter, Counter, Ident, Result};
use std::collections::{BTreeMap, BTreeSet};

/// Phase label the validator's own pipeline steps charge under.
const PHASE: &str = "inference rounds";

/// Process-wide count of C3 remainder probes actually executed against
/// the database state. An observability counter (the server's `METRICS`
/// command reports it), never a correctness input.
static C3_PROBES: Counter = Counter::new();

/// Total C3 state probes executed by this process (all engines).
pub fn c3_probe_count() -> u64 {
    C3_PROBES.get()
}

/// The outcome of a validity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equivalent to a query over the views on *all* states (Def. 4.1).
    Unconditional,
    /// Equivalent on all states PA-equivalent to the current one
    /// (Def. 4.3) — contingent on the current database state.
    Conditional,
    /// Not inferable as valid: rejected. Rejection is safe (Example
    /// 4.3): it reveals only non-coverage by the authorization views.
    Invalid,
}

/// A full validity report: verdict plus the rule trace.
#[derive(Debug, Clone)]
pub struct ValidityReport {
    pub verdict: Verdict,
    /// Which inference steps fired, in order.
    pub rules: Vec<String>,
    /// Reason for rejection.
    pub reason: Option<String>,
    /// DAG size after expansion — experiment E1/E2 instrumentation.
    pub dag_stats: DagStats,
    /// Number of instantiated authorization views considered (after
    /// pruning).
    pub views_considered: usize,
    /// Set when the check's resource budget ran out before the pipeline
    /// finished, naming the phase that exhausted it. The verdict is then
    /// necessarily [`Verdict::Invalid`] — fail closed: an interrupted
    /// check can reject a provable query but never accept an unprovable
    /// one.
    pub exhausted: Option<String>,
    /// Machine-checkable derivation behind an ACCEPT: every rule
    /// application as a typed [`Step`], re-verifiable by the independent
    /// checker in `fgac-analyze` ([`fgac_analyze::check_certificate`]).
    /// `None` for rejections, exhaustion, and when
    /// [`CheckOptions::emit_certificates`] is off. The validator stamps
    /// `policy_epoch` 0; the engine overwrites it with the live epoch.
    pub certificate: Option<Certificate>,
}

impl ValidityReport {
    pub fn is_valid(&self) -> bool {
        self.verdict != Verdict::Invalid
    }

    /// `verdict` with its rule trace; every other field at its default
    /// (no reason, empty DAG stats, no views, not exhausted, no
    /// certificate).
    fn new(verdict: Verdict, rules: Vec<String>) -> ValidityReport {
        ValidityReport {
            verdict,
            rules,
            reason: None,
            dag_stats: DagStats::default(),
            views_considered: 0,
            exhausted: None,
            certificate: None,
        }
    }

    /// A verdict served from the validity cache.
    pub fn cache_hit(verdict: Verdict) -> ValidityReport {
        ValidityReport {
            reason: (verdict == Verdict::Invalid)
                .then(|| "query rejected (cached verdict)".to_string()),
            ..ValidityReport::new(verdict, vec!["validity cache hit".into()])
        }
    }

    /// A stale cached accept whose certificate re-verified against the
    /// current grants.
    pub fn revalidated(verdict: Verdict) -> ValidityReport {
        ValidityReport::new(
            verdict,
            vec!["validity cache hit (certificate revalidated against current grants)".into()],
        )
    }

    /// The fail-closed denial of a check whose budget ran out in `phase`.
    pub fn exhausted(phase: String) -> ValidityReport {
        let rules = vec![format!("check aborted: budget exhausted in {phase}")];
        let reason = format!(
            "validity check exhausted its resource budget ({phase}); \
             denied fail-closed"
        );
        ValidityReport {
            reason: Some(reason),
            exhausted: Some(phase),
            ..ValidityReport::new(Verdict::Invalid, rules)
        }
    }
}

/// Tunables for the checker; the defaults implement the full rule set.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    pub expand: ExpandOptions,
    /// Enable the U3 family (needs integrity-constraint grants).
    pub enable_u3: bool,
    /// Enable conditional validity (C3; probes the database state).
    pub enable_c3: bool,
    /// Enable Section 6 access-pattern mechanisms.
    pub enable_access_patterns: bool,
    /// Prune granted views that share no base table with the query —
    /// the Section 5.6 "eliminate authorization views that cannot
    /// possibly be of use" optimization (experiment E3).
    pub prune_irrelevant_views: bool,
    /// Fixpoint bound on U3/matcher rounds.
    pub max_rounds: usize,
    /// Resource allowance for one check: inference steps plus an
    /// optional wall-clock deadline. The default is generous enough that
    /// every verdict on ordinary workloads is unchanged; exhaustion
    /// surfaces as `Error::ResourceExhausted` and the engine maps it to
    /// a fail-closed DENY.
    pub budget: Budget,
    /// Record a validity certificate alongside every ACCEPT. Emission
    /// never changes a verdict — it only records the derivation — so
    /// turning it off is purely a time/space optimization.
    pub emit_certificates: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            expand: ExpandOptions::default(),
            enable_u3: true,
            enable_c3: true,
            enable_access_patterns: true,
            prune_irrelevant_views: true,
            max_rounds: 4,
            budget: Budget::default(),
            emit_certificates: true,
        }
    }
}

impl CheckOptions {
    /// Only the basic inference rules U1/U2 (+C1/C2 trivially) — the
    /// configuration the paper says costs little over plain optimization
    /// (Section 5.6, experiment E2).
    pub fn basic_only() -> Self {
        CheckOptions {
            enable_u3: false,
            enable_c3: false,
            enable_access_patterns: false,
            ..Default::default()
        }
    }
}

/// The Non-Truman validity checker.
pub struct Validator<'a> {
    db: &'a Database,
    grants: &'a Grants,
    options: CheckOptions,
    /// Compiled capability snapshot for the session's principal, when
    /// the engine has one (see [`crate::compiled`]). Consulted before
    /// the prover; a miss falls through with the verdict unchanged.
    compiled: Option<std::sync::Arc<PrincipalCaps>>,
}

/// A block known computable by the user, with its validity flavor.
#[derive(Debug, Clone)]
struct ValidBlock {
    block: SpjBlock,
    origin: String,
    /// Certificate step that established this block's validity (0 when
    /// emission is disabled).
    step: usize,
}

/// The growing set of known-valid blocks, kept in insertion order plus a
/// [`matcher::CandidateIndex`] over base-relation multisets. The matcher
/// passes consult only the candidate bucket for a query block's
/// signature instead of scanning the whole set — the SPJ matcher can
/// only succeed on an exact scan-multiset match, so everything outside
/// the bucket is a guaranteed miss.
#[derive(Debug, Clone, Default)]
struct ValidSet {
    blocks: Vec<ValidBlock>,
    index: matcher::CandidateIndex,
}

impl ValidSet {
    /// Whether an identical block is already present.
    fn contains(&self, block: &SpjBlock) -> bool {
        self.step_of(block).is_some()
    }

    /// Certificate step of the identical block already present, if any.
    fn step_of(&self, block: &SpjBlock) -> Option<usize> {
        let signature = matcher::CandidateIndex::signature(block);
        self.index
            .bucket(&signature)
            .iter()
            .find(|&&i| &self.blocks[i].block == block)
            .map(|&i| self.blocks[i].step)
    }

    /// Adds `block` unless an identical one is present (the duplicate
    /// scan is confined to the same-signature bucket).
    fn push(&mut self, block: SpjBlock, origin: String, step: usize) {
        if !self.contains(&block) {
            self.insert(block, origin, step);
        }
    }

    fn insert(&mut self, block: SpjBlock, origin: String, step: usize) {
        let signature = matcher::CandidateIndex::signature(&block);
        self.index.insert(signature, self.blocks.len());
        self.blocks.push(ValidBlock { block, origin, step });
    }

    /// Records `block` as newly derived, unless an identical block is
    /// present: `derive`, given the blocks so far, yields the step proving
    /// it and its origin, the step (noted with the origin) goes to the
    /// certificate and the block joins the set. Returns the new step,
    /// `None` if the block was known.
    fn record(
        &mut self,
        builder: &mut CertBuilder,
        block: &SpjBlock,
        derive: impl FnOnce(&[ValidBlock]) -> (Step, String),
    ) -> Option<usize> {
        if self.contains(block) {
            return None;
        }
        let (mut step, origin) = derive(&self.blocks);
        step.block = Some(block.clone());
        step.note = origin.clone();
        let step = builder.push(step);
        self.insert(block.clone(), origin, step);
        Some(step)
    }

    /// The first block from position `from` on that `block` matches
    /// ([`matcher::match_block_metered`]), with the witness. Only the
    /// blocks sharing its scan-table multiset can match, so only they are
    /// tried.
    fn match_any(
        &self,
        catalog: &fgac_storage::Catalog,
        block: &SpjBlock,
        from: usize,
        meter: &BudgetMeter,
    ) -> Result<Option<(&ValidBlock, matcher::MatchWitness)>> {
        let bucket = self.index.candidates(block);
        // A bucket lists its blocks in insertion order.
        let newer = &bucket[bucket.partition_point(|&i| i < from)..];
        for vb in newer.iter().map(|&i| &self.blocks[i]) {
            if let Some(w) = matcher::match_block_metered(catalog, block, &vb.block, meter)? {
                return Ok(Some((vb, w)));
            }
        }
        Ok(None)
    }

    /// Only the blocks whose scan-table multiset equals `block`'s plus
    /// exactly one extra table — the ones
    /// [`c3::candidates_metered`] could possibly split (everything else
    /// is rejected by its leading length/alignment checks), in insertion
    /// order within the bucket.
    fn c3_candidates(&self, block: &SpjBlock) -> impl Iterator<Item = &ValidBlock> {
        self.index
            .c3_candidates(block)
            .iter()
            .map(move |&i| &self.blocks[i])
    }

    fn len(&self) -> usize {
        self.blocks.len()
    }
}

impl<'a> Validator<'a> {
    pub fn new(db: &'a Database, grants: &'a Grants) -> Self {
        Validator {
            db,
            grants,
            options: CheckOptions::default(),
            compiled: None,
        }
    }

    pub fn with_options(mut self, options: CheckOptions) -> Self {
        self.options = options;
        self
    }

    /// Installs a compiled capability snapshot (see [`crate::compiled`])
    /// for the session's principal. Fully-covered queries then admit via
    /// a bitmask AND + hash lookup instead of the prover; anything the
    /// snapshot cannot prove falls through unchanged.
    pub fn with_compiled(mut self, caps: std::sync::Arc<PrincipalCaps>) -> Self {
        self.compiled = Some(caps);
        self
    }

    /// Checks a SQL `SELECT` text.
    pub fn check_sql(&self, session: &Session, sql: &str) -> Result<ValidityReport> {
        let query = fgac_sql::parse_query(sql)?;
        self.check_query(session, &query)
    }

    /// Checks a parsed query.
    pub fn check_query(&self, session: &Session, query: &fgac_sql::Query) -> Result<ValidityReport> {
        let bound = fgac_algebra::bind_query(self.db.catalog(), query, session.params())?;
        self.check_plan(session, &bound.plan)
    }

    /// Checks a bound plan (ORDER BY / LIMIT are presentation and play
    /// no role in validity).
    pub fn check_plan(&self, session: &Session, plan: &Plan) -> Result<ValidityReport> {
        let qplan = normalize(plan);
        let mut rules: Vec<String> = Vec::new();
        let meter = self.options.budget.start();
        let query_tables: BTreeSet<Ident> = qplan.scanned_tables().into_iter().collect();
        let qblock = SpjBlock::decompose(&qplan);
        // An accept's report, with the certificate of `builder`'s steps.
        // Taking a `CertVerdict` keeps a denial from minting one.
        let accept = |verdict: CertVerdict, rules, dag_stats, views_considered, builder| {
            let cert = self.certificate(session, verdict, &query_tables, &qblock, builder);
            let verdict = match verdict {
                CertVerdict::Unconditional => Verdict::Unconditional,
                CertVerdict::Conditional => Verdict::Conditional,
            };
            Ok(self.report(verdict, rules, dag_stats, views_considered, cert))
        };

        // --- Compiled fast path (FP1/FP2). ----------------------------
        // Admit via the principal's compiled capability snapshot when it
        // proves unconditional coverage outright; every accept still
        // mints a checkable U1 + U2Dag certificate. A miss records
        // nothing and falls through to the prover with the verdict
        // unchanged (the snapshot is fail-closed, never fail-open).
        if let Some(caps) = &self.compiled {
            meter.charge(PHASE, 1)?;
            if let Some(fp) = caps.admit(&qplan, qblock.as_ref()) {
                compiled::note_fastpath_hit();
                let mut builder = CertBuilder::new(self.options.emit_certificates);
                let mut premises = Vec::with_capacity(fp.views.len());
                for (view, block) in &fp.views {
                    let mut s = Step::new(RuleId::U1);
                    s.view = Some(view.clone());
                    s.block = Some(block.clone());
                    s.note =
                        format!("compiled unconditional coverage via authorization view {view}");
                    premises.push(builder.push_root(s));
                }
                let mut goal = Step::new(RuleId::U2Dag);
                goal.block = qblock.clone();
                goal.premises = premises;
                goal.note = fp.note.clone();
                builder.push(goal);
                rules.push(fp.note.clone());
                return accept(
                    CertVerdict::Unconditional,
                    rules,
                    DagStats::default(),
                    fp.views.len(),
                    builder,
                );
            }
            compiled::note_fastpath_miss();
        }

        // --- The view side: granted views, pruned (Section 5.6). -------
        // Built once per principal, session and options when the
        // principal's caps keep it (see `viewside`), else for this check.
        let key = ViewSideKey::new(session.user(), session.params(), &self.options);
        let build = |memoize| ViewSide::build(self.db, self.grants, key.clone(), &meter, memoize);
        let side = match &self.compiled {
            Some(caps) => caps.view_side(&key, || build(true))?,
            None => std::sync::Arc::new(build(false)?),
        };
        rules.extend(side.skipped.iter().cloned());
        // "Eliminate authorization views that cannot possibly be of use":
        // relevance is the *transitive* table closure — a view over
        // {grades, registered} makes registered relevant to a grades
        // query (its C3 remainder probe runs over registered) — which is
        // the union of the view–table components the query's tables lie
        // in.
        let components = side.components_of(&query_tables);

        // Access-pattern views instantiated at the query's constants
        // (Section 6: validity against the set of all instantiations).
        let mut instances: Vec<RegView> = Vec::new();
        if self.options.enable_access_patterns {
            let literals = access_pattern::query_literals(&qplan);
            for view in &side.ap_views {
                let params = view.access_params();
                for (val, inst) in access_pattern::instantiate_at_constants(view, &literals) {
                    if let Ok(bound) = inst.instantiate(self.db.catalog(), session.params()) {
                        let vplan = normalize(&bound.plan);
                        if vplan
                            .scanned_tables()
                            .iter()
                            .any(|t| query_tables.contains(t))
                        {
                            let pin = params.first().map(|p| (p.clone(), val.clone()));
                            instances.push(RegView::new(
                                Ident::new(format!("{}[$$={val}]", view.name)),
                                view.name.clone(),
                                pin,
                                vplan,
                            ));
                        }
                    }
                }
            }
        }
        let views_considered = side.count(&components) + instances.len();

        // Q001: a query relation no granted view even mentions can never
        // become valid — every inference rule derives expressions over
        // the tables of the instantiated views. Reject before building
        // the DAG.
        let uncovered = query_tables.iter().find(|t| {
            !side.covers(t) && !instances.iter().any(|rv| rv.plan.scanned_tables().contains(t))
        });
        if let Some(t) = uncovered {
            rules.push(format!(
                "Q001: relation {t} is not covered by any granted authorization view"
            ));
            let mut report = self.report(
                Verdict::Invalid,
                rules,
                DagStats::default(),
                views_considered,
                None,
            );
            report.reason = Some(format!(
                "relation {t} is not covered by any of your authorization views"
            ));
            return Ok(report);
        }

        // --- DAG: overlay, expand, mark (rules U1/U2). ----------------
        // The relevant views' DAG comes expanded; the query and the
        // access-pattern instances go on top, and expansion rewrites only
        // what they touch.
        let viewside::ViewDag {
            views,
            mut dag,
            roots: mut view_roots,
        } = side.dag(&components, self.db);
        let qroot = dag.insert_plan(&qplan);
        view_roots.extend(instances.iter().map(|rv| dag.insert_plan(&rv.plan)));
        let regular: Vec<&RegView> =
            views.iter().map(|&i| side.view(i)).chain(&instances).collect();
        let mut builder = CertBuilder::new(self.options.emit_certificates);
        let root_steps: Vec<usize> =
            regular.iter().map(|rv| builder.push_root(rv.u1.clone())).collect();
        distinct_elimination(&mut dag, self.db);
        let dag_stats = expand(&mut dag, &self.options.expand);
        distinct_elimination(&mut dag, self.db);
        // Expansion is internally bounded by `expand.max_ops`; charge
        // the whole DAG's size so a large DAG eats into what the rounds
        // may still spend.
        meter.charge("DAG expansion", dag_stats.op_nodes as u64)?;
        let mut marking = mark_valid(&dag, &view_roots);

        // On acceptance via the DAG marking, record the goal step: the
        // query class is valid, supported by whichever view roots and
        // directly-marked classes the marking's provenance reaches.
        let accept_dag = |dag: &Dag,
                         marking: &Marking,
                         rules: &mut Vec<String>,
                         builder: &mut CertBuilder,
                         why: &str|
         -> bool {
            if !marking.is_valid(dag, qroot) {
                return false;
            }
            rules.push(why.to_string());
            let mut s = Step::new(RuleId::U2Dag);
            s.block = qblock.clone();
            s.premises = builder.supports(dag, marking, qroot);
            s.note = why.to_string();
            builder.push(s);
            true
        };

        if accept_dag(
            &dag,
            &marking,
            &mut rules,
            &mut builder,
            "U1/U2: DAG unification + subsumption",
        ) {
            return accept(CertVerdict::Unconditional, rules, dag_stats, views_considered, builder);
        }

        // --- Valid blocks for the matcher + U3 derivations. -----------
        let mut valid_blocks = ValidSet::default();
        for (rv, &step) in regular.iter().zip(&root_steps) {
            if let Some(block) = &rv.u1.block {
                valid_blocks.push(block.clone(), format!("view {}", rv.display), step);
            }
        }

        let visible: BTreeSet<Ident> =
            self.grants.constraints_for(session.user()).into_iter().collect();
        // Pairwise composition is bounded to small blocks, and useful only
        // when its scan multiset fits inside the query's tables plus at
        // most one instance of each potential U3/C3 remainder table (a
        // destination of a visible inclusion dependency). This keeps e.g.
        // hundreds of single-table views from composing with each other
        // quadratically. The allowance depends only on the query and the
        // policy, so it is counted once per check.
        let remainder_tables: BTreeSet<Ident> = self
            .db
            .catalog()
            .all_inclusions()
            .into_iter()
            .filter(|d| visible.contains(&d.name))
            .map(|d| d.dst_table)
            .collect();
        let mut allowance: BTreeMap<&Ident, usize> = BTreeMap::new();
        if let Some(qb) = &qblock {
            for t in qb.scans.iter().map(|(t, _)| t).chain(&remainder_tables) {
                *allowance.entry(t).or_insert(0) += 1;
            }
        }
        // A composition scans `a.scans ++ b.scans` in either order, so
        // both tests read the pair before composing.
        let useful = |qb: &SpjBlock, a: &SpjBlock, b: &SpjBlock| -> bool {
            let scans = || a.scans.iter().chain(&b.scans).map(|(t, _)| t);
            qb.scans.iter().all(|(t, _)| scans().any(|ct| ct == t))
                && scans().all(|t| {
                    scans().filter(|&u| u == t).count() <= allowance.get(t).copied().unwrap_or(0)
                })
        };

        // The rounds are semi-naive. The valid set only grows at its end,
        // so each rule keeps a high-water mark of the blocks it has seen
        // and a round feeds it only the blocks past its mark: a rule re-run
        // on what it saw derives nothing new.
        let mut restrict_mark = 0;
        let mut compose_mark = 0;
        let mut u3_mark = 0;
        // Derivations whose U3c multiplicity witness is not yet valid, by
        // the block they split: these are retried every round.
        let mut u3c_pending: Vec<(usize, Vec<u3::U3Derivation>)> = Vec::new();
        // Each class's decomposed block. A class with an entry was tried
        // against the first `match_mark` blocks and matched none of them.
        let mut class_blocks: Vec<Option<SpjBlock>> = Vec::new();
        let mut match_mark = 0;
        for _round in 0..self.options.max_rounds {
            meter.charge(PHASE, 1)?;
            let mut changed = false;

            // Goal-directed strengthening (U2 moves toward the query):
            // restrict valid blocks by the query's own predicates, and
            // compose pairs of valid blocks when the query spans more
            // tables than any single one (Examples 5.3 and 5.4).
            if self.options.enable_u3 || self.options.enable_c3 {
                if let Some(qb) = &qblock {
                    let end = valid_blocks.len();
                    for i in restrict_mark..end {
                        meter.charge(PHASE, 1)?;
                        let block = &valid_blocks.blocks[i].block;
                        let Some(restricted) = strengthen::restrict_by_query(qb, block) else {
                            continue;
                        };
                        changed |= valid_blocks
                            .record(&mut builder, &restricted, |blocks| {
                                let vb = &blocks[i];
                                let origin = format!("σ-restriction of {}", vb.origin);
                                (step(RuleId::U2Restrict, vec![vb.step]), origin)
                            })
                            .is_some();
                    }
                    restrict_mark = end;

                    // The pairs (i, j), i < j, whose later block is past
                    // the mark, in the order a pass over every pair takes.
                    let end = valid_blocks.len();
                    for i in 0..end {
                        for j in (i + 1).max(compose_mark)..end {
                            let a = &valid_blocks.blocks[i].block;
                            let b = &valid_blocks.blocks[j].block;
                            if a.scans.len() + b.scans.len() > 4 || valid_blocks.len() > 512 {
                                continue;
                            }
                            // Must cover the query's tables and stay
                            // within the multiset allowance.
                            let useful = useful(qb, a, b);
                            for (x, y) in [(i, j), (j, i)] {
                                meter.charge(PHASE, 1)?;
                                if !useful {
                                    continue;
                                }
                                let (x, y) = (&valid_blocks.blocks[x], &valid_blocks.blocks[y]);
                                let Some(composed) = strengthen::compose(&x.block, &y.block)
                                else {
                                    continue;
                                };
                                let origin = format!("U2 join of {} and {}", x.origin, y.origin);
                                let premises = vec![x.step, y.step];
                                let x_step = x.step;
                                changed |= valid_blocks
                                    .record(&mut builder, &composed, |_| {
                                        (step(RuleId::U2Compose, premises), origin.clone())
                                    })
                                    .is_some();
                                if let Some(restricted) =
                                    strengthen::restrict_by_query(qb, &composed)
                                {
                                    // Premise: the composition just recorded, or
                                    // the identical block already in the set.
                                    let premise = valid_blocks.step_of(&composed).unwrap_or(x_step);
                                    changed |= valid_blocks
                                        .record(&mut builder, &restricted, |_| {
                                            let origin = format!("σ-restriction of {origin}");
                                            (step(RuleId::U2Restrict, vec![premise]), origin)
                                        })
                                        .is_some();
                                }
                            }
                        }
                    }
                    compose_mark = end;
                }
            }

            // U3 derivations: every block past the mark is split; an older
            // block retries only the derivations whose witness was not yet
            // valid. Block order is the order of a pass over every block.
            if self.options.enable_u3 {
                let retry = std::mem::take(&mut u3c_pending)
                    .into_iter()
                    .map(|(i, ds)| (i, Some(ds)));
                let fresh = (u3_mark..valid_blocks.len()).map(|i| (i, None));
                u3_mark = valid_blocks.len();
                for (i, pending) in retry.chain(fresh) {
                    let is_fresh = pending.is_none();
                    let derivations = match pending {
                        Some(ds) => ds,
                        None => u3::derive_metered(
                            self.db.catalog(),
                            &visible,
                            &valid_blocks.blocks[i].block,
                            &meter,
                        )?,
                    };
                    let mut unproved = Vec::new();
                    for d in derivations {
                        let derived = |rule, premises| {
                            let mut s = step(rule, premises);
                            s.constraint = Some(d.constraint.clone());
                            s.obligations = d.obligations.clone();
                            s
                        };
                        if is_fresh {
                            let core = valid_blocks.record(&mut builder, &d.core, |blocks| {
                                let vb = &blocks[i];
                                let origin = format!(
                                    "U3a/U3b on {} with constraint {} (remainder {})",
                                    vb.origin, d.constraint, d.remainder_table
                                );
                                (derived(RuleId::U3a, vec![vb.step]), origin)
                            });
                            if let Some(step) = core {
                                mark_block(&mut dag, &mut marking, &mut builder, &d.core, step);
                                rules.push(format!(
                                    "U3a: SELECT DISTINCT core of {} valid via constraint {}",
                                    valid_blocks.blocks[i].origin, d.constraint
                                ));
                                changed = true;
                            }
                        }
                        // U3c: multiplicity witness must itself be valid.
                        let Some(w) = &d.multiplicity_witness else {
                            continue;
                        };
                        let non_distinct = SpjBlock {
                            distinct: false,
                            ..d.core.clone()
                        };
                        if valid_blocks.contains(&non_distinct) {
                            continue;
                        }
                        let Some(wstep) = self.block_validity(
                            &dag,
                            &marking,
                            &valid_blocks,
                            w,
                            &meter,
                            &mut builder,
                        )?
                        else {
                            unproved.push(d);
                            continue;
                        };
                        let u3c = valid_blocks.record(&mut builder, &non_distinct, |blocks| {
                            let vb = &blocks[i];
                            let origin = format!("U3c on {}", vb.origin);
                            (derived(RuleId::U3c, vec![vb.step, wstep]), origin)
                        });
                        if let Some(step) = u3c {
                            mark_block(&mut dag, &mut marking, &mut builder, &non_distinct, step);
                            rules.push(format!(
                                "U3c: multiplicity of core of {} reconstructible \
                                 (q_rj valid); DISTINCT dropped",
                                valid_blocks.blocks[i].origin
                            ));
                            changed = true;
                        }
                    }
                    if !unproved.is_empty() {
                        u3c_pending.push((i, unproved));
                    }
                }
            }

            // Matcher pass over every class in the DAG. After expansion the
            // DAG only gains classes, so a class's block never changes: a
            // class already tried is tried only against the blocks past
            // the mark, and the first match among them is the first match
            // overall. A class new since the last round is tried against
            // every block.
            marking.propagate(&dag);
            let classes = dag.classes();
            let tried = class_blocks.len();
            if let Some(last) = classes.last() {
                class_blocks.resize(tried.max(last.0 as usize + 1), None);
            }
            for class in classes {
                if marking.is_valid(&dag, class) {
                    continue;
                }
                let c = class.0 as usize;
                let from = if c < tried {
                    match_mark
                } else {
                    class_blocks[c] = fgac_optimizer::extract_any(&dag, class)
                        .and_then(|plan| SpjBlock::decompose(&plan));
                    0
                };
                let Some(block) = &class_blocks[c] else {
                    continue;
                };
                if let Some((vb, w)) =
                    valid_blocks.match_any(self.db.catalog(), block, from, &meter)?
                {
                    let origin = &vb.origin;
                    let mut s = step(RuleId::U2Match, vec![vb.step]);
                    s.substitution = w.q_to_v;
                    s.note = format!("subexpression matched against {origin}");
                    let rule = format!("U2 (view matching): subexpression computed from {origin}");
                    // A matched class stays valid: its block is not needed again.
                    s.block = class_blocks[c].take();
                    let step = builder.push(s);
                    marking.mark(&dag, class);
                    builder.note_class(&dag, class, step);
                    rules.push(rule);
                    changed = true;
                }
            }
            match_mark = valid_blocks.len();
            marking.propagate(&dag);

            if accept_dag(
                &dag,
                &marking,
                &mut rules,
                &mut builder,
                "U2: composition over valid subexpressions",
            ) {
                return accept(
                    CertVerdict::Unconditional,
                    rules,
                    dag_stats,
                    views_considered,
                    builder,
                );
            }
            if !changed {
                break;
            }
        }

        // --- Dependent joins over access-pattern views (Section 6). ---
        if self.options.enable_access_patterns && !side.capabilities.is_empty() {
            if let Some(qb) = &qblock {
                let mut directly_valid: Vec<bool> = Vec::with_capacity(qb.scans.len());
                let mut anchors: Vec<usize> = Vec::new();
                let mut anchor_steps: Vec<usize> = Vec::new();
                for i in 0..qb.scans.len() {
                    let restriction = instance_restriction(qb, i);
                    let step = self.block_validity(
                        &dag,
                        &marking,
                        &valid_blocks,
                        &restriction,
                        &meter,
                        &mut builder,
                    )?;
                    if let Some(s) = step {
                        anchors.push(i);
                        anchor_steps.push(s);
                    }
                    directly_valid.push(step.is_some());
                }
                if let Some((trace, used_views)) = access_pattern::dependent_join_covers(
                    qb,
                    &directly_valid,
                    &side.capabilities,
                ) {
                    rules.extend(trace);
                    rules.push("Section 6: dependent-join evaluation over access-pattern views".into());
                    // Block-less U1 markers for the capability views; the
                    // checker re-derives each capability from the catalog.
                    let mut premises = anchor_steps;
                    for name in used_views {
                        let mut s = Step::new(RuleId::U1);
                        s.view = Some(name);
                        s.note = "access-pattern capability".into();
                        premises.push(builder.push(s));
                    }
                    let mut goal = Step::new(RuleId::DependentJoin);
                    goal.block = Some(qb.clone());
                    goal.substitution = anchors;
                    goal.premises = premises;
                    goal.note = "Section 6 dependent join".into();
                    builder.push(goal);
                    return accept(
                        CertVerdict::Unconditional,
                        rules,
                        dag_stats,
                        views_considered,
                        builder,
                    );
                }
            }
        }

        // --- Conditional validity: C3a/C3b. ---------------------------
        if self.options.enable_c3 {
            if let Some(qb) = &qblock {
                // Policy-index routing: only the blocks with exactly one
                // extra scan table can yield a C3 remainder split, so
                // candidate lookup is O(candidates), not O(all blocks).
                for vb in valid_blocks.c3_candidates(qb) {
                    for cand in
                        c3::candidates_metered(self.db.catalog(), qb, &vb.block, &meter)?
                    {
                        // Condition 3: v_r must be (conditionally) valid…
                        let Some(vr_step) = self.block_validity(
                            &dag,
                            &marking,
                            &valid_blocks,
                            &cand.v_r,
                            &meter,
                            &mut builder,
                        )?
                        else {
                            continue;
                        };
                        let count_step = if cand.requires_c3b {
                            match self.block_validity(
                                &dag,
                                &marking,
                                &valid_blocks,
                                &cand.v_r_count,
                                &meter,
                                &mut builder,
                            )? {
                                Some(s) => Some(s),
                                None => continue,
                            }
                        } else {
                            None
                        };
                        // …and non-empty on the current database state.
                        let vr_plan = cand.v_r.to_plan();
                        meter.charge("C3 state probe", 1)?;
                        C3_PROBES.add(1);
                        // Borrowed execution: the probe only needs the
                        // cardinality, so nothing is materialized.
                        let vr_rows = fgac_exec::execute_plan_cow(self.db, &vr_plan)?;
                        if vr_rows.is_empty() {
                            rules.push(format!(
                                "{} rejected: remainder probe is empty on this state",
                                cand.description
                            ));
                            continue;
                        }
                        rules.push(format!(
                            "{} via {}: v_r valid and non-empty ({} row(s))",
                            cand.description,
                            vb.origin,
                            vr_rows.len()
                        ));
                        let mut goal = Step::new(if cand.requires_c3b {
                            RuleId::C3b
                        } else {
                            RuleId::C3a
                        });
                        goal.block = Some(qb.clone());
                        goal.premises = {
                            let mut p = vec![vb.step, vr_step];
                            p.extend(count_step);
                            p
                        };
                        goal.obligations = cand.obligations.clone();
                        goal.probe_rows = Some(vr_rows.len() as u64);
                        goal.note = cand.description.clone();
                        builder.push(goal);
                        return accept(
                            CertVerdict::Conditional,
                            rules,
                            dag_stats,
                            views_considered,
                            builder,
                        );
                    }
                }
            }
        }

        rules.push("no inference rule established validity".into());
        let mut report = self.report(Verdict::Invalid, rules, dag_stats, views_considered, None);
        report.reason = Some(
            "the query cannot be answered using only your authorization views".to_string(),
        );
        Ok(report)
    }

    /// Is `block` computable? Checks the SPJ matcher against known-valid
    /// blocks, then the DAG marking of the block's plan. On success
    /// returns the certificate step that justifies the block (0 when
    /// emission is disabled); `None` means not provably valid.
    fn block_validity(
        &self,
        dag: &Dag,
        marking: &Marking,
        valid_blocks: &ValidSet,
        block: &SpjBlock,
        meter: &BudgetMeter,
        builder: &mut CertBuilder,
    ) -> Result<Option<usize>> {
        // Matcher first: it is semantic and cheap.
        if let Some((vb, w)) = valid_blocks.match_any(self.db.catalog(), block, 0, meter)? {
            let mut s = step(RuleId::U2Match, vec![vb.step]);
            s.block = Some(block.clone());
            s.substitution = w.q_to_v;
            s.note = format!("matched against {}", vb.origin);
            return Ok(Some(builder.push(s)));
        }
        // DAG: the block's plan may already have a valid class. Inserting
        // requires mutation, so only probe via a cloned DAG when small.
        // The clone + re-propagation walks the whole DAG; charge its size.
        meter.charge(PHASE, dag.stats().op_nodes as u64)?;
        let mut probe = dag.clone();
        let class = probe.insert_plan(&block.to_plan());
        let mut m = marking.clone();
        m.propagate(&probe);
        if m.is_valid(&probe, class) {
            let mut s = Step::new(RuleId::U2Dag);
            s.block = Some(block.clone());
            s.premises = builder.supports(&probe, &m, class);
            s.note = "valid via DAG propagation".into();
            Ok(Some(builder.push(s)))
        } else {
            Ok(None)
        }
    }

    /// Assembles the validity certificate from the accumulated steps.
    /// The policy epoch is stamped 0 here; the engine overwrites it with
    /// the live epoch before handing the report out.
    fn certificate(
        &self,
        session: &Session,
        verdict: CertVerdict,
        query_tables: &BTreeSet<Ident>,
        qblock: &Option<SpjBlock>,
        builder: CertBuilder,
    ) -> Option<Certificate> {
        if !builder.enabled() {
            return None;
        }
        Some(Certificate {
            principal: session.user().to_string(),
            policy_epoch: 0,
            verdict,
            params: session
                .params()
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            query_tables: query_tables.iter().cloned().collect(),
            query: qblock.clone(),
            steps: builder.take(),
        })
    }

    fn report(
        &self,
        verdict: Verdict,
        rules: Vec<String>,
        dag_stats: DagStats,
        views_considered: usize,
        certificate: Option<Certificate>,
    ) -> ValidityReport {
        ValidityReport {
            dag_stats,
            views_considered,
            certificate,
            ..ValidityReport::new(verdict, rules)
        }
    }
}

/// A certificate step of `rule` resting on `premises`.
fn step(rule: RuleId, premises: Vec<usize>) -> Step {
    let mut s = Step::new(rule);
    s.premises = premises;
    s
}

/// Marks `block`, just derived valid by certificate step `step`, in the
/// DAG.
fn mark_block(
    dag: &mut Dag,
    marking: &mut Marking,
    builder: &mut CertBuilder,
    block: &SpjBlock,
    step: usize,
) {
    let class = dag.insert_plan(&block.to_plan());
    marking.mark(dag, class);
    builder.note_class(dag, class, step);
}

/// The single-instance restriction of a query block: the scan of
/// instance `i` under the conjuncts that touch only it (duplicate
/// preserving, full width) — used to seed dependent-join anchoring.
fn instance_restriction(block: &SpjBlock, i: usize) -> SpjBlock {
    let (start, end) = block.scan_range(i);
    let conjuncts = block
        .conjuncts
        .iter()
        .filter(|c| {
            let cols = c.referenced_cols();
            !cols.is_empty() && cols.iter().all(|&x| x >= start && x < end)
        })
        .map(|c| c.map_cols(&|x| x - start))
        .collect();
    SpjBlock {
        scans: vec![block.scans[i].clone()],
        conjuncts,
        projection: (0..(end - start)).map(fgac_algebra::ScalarExpr::Col).collect(),
        distinct: false,
    }
}

/// Merges `Distinct(X)` classes with `X` when `X` is provably
/// duplicate-free (primary-key reasoning — the paper's Example 5.5).
pub fn distinct_elimination(dag: &mut Dag, db: &Database) {
    loop {
        let mut merges: Vec<(EqId, EqId)> = Vec::new();
        for op_id in dag.all_ops() {
            let node = dag.op(op_id);
            if !matches!(node.op, Operator::Distinct) {
                continue;
            }
            let class = dag.class_of(op_id);
            let child = dag.find(node.children[0]);
            if class == child {
                continue;
            }
            let Some(plan) = fgac_optimizer::extract_any(dag, child) else {
                continue;
            };
            let Some(block) = SpjBlock::decompose(&plan) else {
                continue;
            };
            if matcher::is_duplicate_free(db.catalog(), &block) {
                merges.push((class, child));
            }
        }
        if merges.is_empty() {
            return;
        }
        for (a, b) in merges {
            if dag.find(a) != dag.find(b) && dag.arity(a) == dag.arity(b) {
                dag.merge(a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_storage::{ForeignKey, InclusionDependency, ViewDef};
    use fgac_types::{Column, DataType, Row, Schema, Value};

    /// The paper's running university database with small data.
    fn university() -> Database {
        let mut db = Database::new();
        db.create_table(
            "students",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("name", DataType::Str),
                Column::new("type", DataType::Str),
            ]),
            Some(vec![Ident::new("student_id")]),
        )
        .unwrap();
        db.create_table(
            "courses",
            Schema::new(vec![
                Column::new("course_id", DataType::Str),
                Column::new("name", DataType::Str),
            ]),
            Some(vec![Ident::new("course_id")]),
        )
        .unwrap();
        db.create_table(
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
            None,
        )
        .unwrap();
        db.create_table(
            "grades",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
                Column::new("grade", DataType::Int).nullable(),
            ]),
            Some(vec![Ident::new("student_id"), Ident::new("course_id")]),
        )
        .unwrap();
        db.add_foreign_key(ForeignKey {
            name: Ident::new("fk_grades_students"),
            child_table: Ident::new("grades"),
            child_columns: vec![Ident::new("student_id")],
            parent_table: Ident::new("students"),
            parent_columns: vec![Ident::new("student_id")],
        })
        .unwrap();

        for (id, name, ty) in [
            ("11", "ann", "FullTime"),
            ("12", "bob", "PartTime"),
            ("13", "carol", "FullTime"),
        ] {
            db.insert(
                &Ident::new("students"),
                Row(vec![id.into(), name.into(), ty.into()]),
            )
            .unwrap();
        }
        for (id, name) in [("cs101", "intro"), ("cs202", "systems")] {
            db.insert(&Ident::new("courses"), Row(vec![id.into(), name.into()]))
                .unwrap();
        }
        for (s, c) in [("11", "cs101"), ("12", "cs101"), ("13", "cs202")] {
            db.insert(&Ident::new("registered"), Row(vec![s.into(), c.into()]))
                .unwrap();
        }
        for (s, c, g) in [("11", "cs101", 90), ("12", "cs101", 70), ("13", "cs202", 80)] {
            db.insert(
                &Ident::new("grades"),
                Row(vec![s.into(), c.into(), Value::Int(g)]),
            )
            .unwrap();
        }
        db
    }

    fn add_view(db: &mut Database, name: &str, body: &str) {
        db.add_view(ViewDef {
            name: Ident::new(name),
            authorization: true,
            query: fgac_sql::parse_query(body).unwrap(),
        })
        .unwrap();
    }

    fn check(db: &Database, grants: &Grants, user: &str, sql: &str) -> ValidityReport {
        Validator::new(db, grants)
            .check_sql(&Session::new(user), sql)
            .unwrap()
    }

    /// Section 5.2: projections/selections of MyGrades are valid.
    #[test]
    fn basic_rules_u1_u2() {
        let mut db = university();
        add_view(&mut db, "mygrades", "select * from grades where student_id = $user_id");
        let mut grants = Grants::new();
        grants.grant_view("11", "mygrades");

        // The view itself (U1).
        let r = check(&db, &grants, "11", "select * from grades where student_id = '11'");
        assert_eq!(r.verdict, Verdict::Unconditional);
        // Projection (U2).
        let r = check(&db, &grants, "11", "select grade from grades where student_id = '11'");
        assert_eq!(r.verdict, Verdict::Unconditional);
        // Selection + projection (U2).
        let r = check(
            &db,
            &grants,
            "11",
            "select course_id from grades where student_id = '11' and grade > 80",
        );
        assert_eq!(r.verdict, Verdict::Unconditional);
        // Someone else's grades: invalid.
        let r = check(&db, &grants, "11", "select * from grades where student_id = '12'");
        assert_eq!(r.verdict, Verdict::Invalid);
        // The same query from user 12 (whose instantiated view covers it)
        // is fine: parameterized views are per-access (Section 2).
        let mut g2 = Grants::new();
        g2.grant_view("12", "mygrades");
        let r = check(&db, &g2, "12", "select * from grades where student_id = '12'");
        assert_eq!(r.verdict, Verdict::Unconditional);
    }

    /// Example 4.1: aggregates over MyGrades and AvgGrades.
    #[test]
    fn example_4_1_aggregates() {
        let mut db = university();
        add_view(&mut db, "mygrades", "select * from grades where student_id = $user_id");
        add_view(
            &mut db,
            "avggrades",
            "select course_id, avg(grade) from grades group by course_id",
        );
        let mut grants = Grants::new();
        grants.grant_view("11", "mygrades");
        grants.grant_view("11", "avggrades");

        let r = check(
            &db,
            &grants,
            "11",
            "select avg(grade) from grades where student_id = '11'",
        );
        assert_eq!(r.verdict, Verdict::Unconditional, "rules: {:?}", r.rules);

        let r = check(
            &db,
            &grants,
            "11",
            "select avg(grade) from grades where course_id = 'cs101'",
        );
        assert_eq!(r.verdict, Verdict::Unconditional, "rules: {:?}", r.rules);

        // Raw grades of another student remain invalid.
        let r = check(&db, &grants, "11", "select grade from grades where student_id = '12'");
        assert_eq!(r.verdict, Verdict::Invalid);
    }

    /// Examples 5.1–5.3: U3a with inclusion dependencies.
    #[test]
    fn u3_reg_students() {
        let mut db = university();
        add_view(
            &mut db,
            "regstudents",
            "select registered.course_id, students.name, students.type \
             from registered, students \
             where students.student_id = registered.student_id",
        );
        db.add_inclusion_dependency(InclusionDependency {
            name: Ident::new("all_registered"),
            src_table: Ident::new("students"),
            src_columns: vec![Ident::new("student_id")],
            src_filter: None,
            dst_table: Ident::new("registered"),
            dst_columns: vec![Ident::new("student_id")],
            dst_filter: None,
        })
        .unwrap();
        let mut grants = Grants::new();
        grants.grant_view("11", "regstudents");
        grants.grant_constraint("11", "all_registered");

        // Example 5.1: select distinct name, type from students.
        let r = check(&db, &grants, "11", "select distinct name, type from students");
        assert_eq!(r.verdict, Verdict::Unconditional, "rules: {:?}", r.rules);

        // Without distinct, multiplicity is not reconstructible
        // (Example 5.1's n*m discussion): invalid.
        let r = check(&db, &grants, "11", "select name, type from students");
        assert_eq!(r.verdict, Verdict::Invalid, "rules: {:?}", r.rules);

        // Example 5.3: restriction to full-time students still valid.
        let r = check(
            &db,
            &grants,
            "11",
            "select distinct name from students where type = 'FullTime'",
        );
        assert_eq!(r.verdict, Verdict::Unconditional, "rules: {:?}", r.rules);

        // Constraint visibility is required (U3a condition 2): same
        // check without the constraint grant must fail.
        let mut g2 = Grants::new();
        g2.grant_view("11", "regstudents");
        let r = check(&db, &g2, "11", "select distinct name, type from students");
        assert_eq!(r.verdict, Verdict::Invalid);
    }

    /// Example 4.4 / C3: conditional validity of the CS101 query.
    #[test]
    fn c3_co_student_grades() {
        let mut db = university();
        add_view(
            &mut db,
            "costudentgrades",
            "select grades.* from grades, registered \
             where registered.student_id = $user_id \
               and grades.course_id = registered.course_id",
        );
        // The user can see her own registrations (makes v_r valid).
        add_view(
            &mut db,
            "myregistrations",
            "select * from registered where student_id = $user_id",
        );
        let mut grants = Grants::new();
        grants.grant_view("11", "costudentgrades");
        grants.grant_view("11", "myregistrations");

        // User 11 IS registered for cs101: conditionally valid.
        let r = check(&db, &grants, "11", "select * from grades where course_id = 'cs101'");
        assert_eq!(r.verdict, Verdict::Conditional, "rules: {:?}", r.rules);

        // User 11 is NOT registered for cs202: rejected even though the
        // data exists (the remainder probe is empty).
        let r = check(&db, &grants, "11", "select * from grades where course_id = 'cs202'");
        assert_eq!(r.verdict, Verdict::Invalid, "rules: {:?}", r.rules);

        // Example 4.3's leak guard: WITHOUT myregistrations, v_r is not
        // valid, so the query must be rejected even though user 11 is
        // registered for cs101 — accepting would reveal her registration.
        let mut g2 = Grants::new();
        g2.grant_view("11", "costudentgrades");
        let r = check(&db, &g2, "11", "select * from grades where course_id = 'cs101'");
        assert_eq!(r.verdict, Verdict::Invalid, "rules: {:?}", r.rules);
    }

    /// Section 6: access-pattern views.
    #[test]
    fn access_pattern_constant_instantiation() {
        let mut db = university();
        add_view(
            &mut db,
            "singlegrade",
            "select * from grades where student_id = $$1",
        );
        let mut grants = Grants::new();
        grants.grant_view("sec", "singlegrade");

        // Lookup by a specific student id: valid (instantiation at '12').
        let r = check(&db, &grants, "sec", "select * from grades where student_id = '12'");
        assert_eq!(r.verdict, Verdict::Unconditional, "rules: {:?}", r.rules);

        // Listing all grades: invalid — the whole point of $$.
        let r = check(&db, &grants, "sec", "select * from grades");
        assert_eq!(r.verdict, Verdict::Invalid);
    }

    #[test]
    fn access_pattern_dependent_join() {
        let mut db = university();
        add_view(
            &mut db,
            "allregistered",
            "select * from registered",
        );
        add_view(
            &mut db,
            "gradebystudent",
            "select * from grades where student_id = $$sid",
        );
        let mut grants = Grants::new();
        grants.grant_view("t", "allregistered");
        grants.grant_view("t", "gradebystudent");

        // r ⋈_{r.student_id = g.student_id} g: dependent join (Section 6).
        let r = check(
            &db,
            &grants,
            "t",
            "select g.grade from registered r, grades g where r.student_id = g.student_id",
        );
        assert_eq!(r.verdict, Verdict::Unconditional, "rules: {:?}", r.rules);

        // Joining on a non-key column cannot be fetched: invalid.
        let r = check(
            &db,
            &grants,
            "t",
            "select g.grade from registered r, grades g where r.course_id = g.course_id",
        );
        assert_eq!(r.verdict, Verdict::Invalid);
    }

    /// Queries through plain (non-authorization) views bind but are
    /// checked against base relations.
    #[test]
    fn ungranted_view_gives_nothing() {
        let mut db = university();
        add_view(&mut db, "mygrades", "select * from grades where student_id = $user_id");
        let grants = Grants::new(); // nothing granted
        let r = check(&db, &grants, "11", "select * from grades where student_id = '11'");
        assert_eq!(r.verdict, Verdict::Invalid);
        assert_eq!(r.views_considered, 0);
    }

    #[test]
    fn basic_only_options_disable_complex_rules() {
        let mut db = university();
        add_view(
            &mut db,
            "costudentgrades",
            "select grades.* from grades, registered \
             where registered.student_id = $user_id \
               and grades.course_id = registered.course_id",
        );
        add_view(
            &mut db,
            "myregistrations",
            "select * from registered where student_id = $user_id",
        );
        let mut grants = Grants::new();
        grants.grant_view("11", "costudentgrades");
        grants.grant_view("11", "myregistrations");
        let session = Session::new("11");
        let q = "select * from grades where course_id = 'cs101'";

        let full = Validator::new(&db, &grants).check_sql(&session, q).unwrap();
        assert_eq!(full.verdict, Verdict::Conditional);

        let basic = Validator::new(&db, &grants)
            .with_options(CheckOptions::basic_only())
            .check_sql(&session, q)
            .unwrap();
        assert_eq!(basic.verdict, Verdict::Invalid);
    }
}
