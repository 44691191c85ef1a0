//! Validity-check caching (the Section 5.6 optimizations).
//!
//! "Most uses of a database are from application programs, which execute
//! the same queries repeatedly ... If the same query is reissued multiple
//! times in a session, we can cache the results of the validity check
//! (assuming no underlying data on which it depends changes during the
//! session)."
//!
//! Keyed on `(user, fingerprint of the normalized bound plan)`, so the
//! cache naturally covers prepared statements re-executed with the same
//! parameter values, and re-binding with different `$user_id` produces a
//! different fingerprint (a different instantiated query).
//!
//! Unconditional verdicts quantify over all states and survive data
//! changes. Conditional accepts and denials carry the data version
//! they were computed at, and a lookup at any other version misses.
//! A conditional accept (rule C3a/C3b) depends on the state only
//! through one fact: its remainder probe `v_r`, a single-relation
//! selection, is non-empty. So at each data commit its owner runs
//! [`ValidityCache::restamp`]: an accept stamped at the pre-commit
//! version moves to the new one unless the statement removed a row that
//! may have been a witness of its probe ([`DataCommit`]). The probe is
//! read from the accept's certificate; an accept with none, and every
//! denial, stays pinned and expires on any commit.
//!
//! ## Policy churn
//!
//! Every entry also carries the policy epoch it was computed at and,
//! for accepts, the validity certificate that proves the derivation.
//! A policy change does not clear the cache: its owner,
//! [`crate::invalidation::PolicyState`], runs [`ValidityCache::sweep`],
//! which applies the one restamp rule to every entry. Affected
//! certificate-carrying accepts are left behind at their mint epoch and
//! surface from [`ValidityCache::lookup`] as [`CacheOutcome::Stale`]:
//! the engine re-verifies the certificate against the *current* grant
//! state and either restamps ([`ValidityCache::revalidated`]) or evicts
//! and re-proves cold ([`ValidityCache::evict_stale`]).
//!
//! ## Concurrency
//!
//! The map is split into [`SHARDS`] independently-locked shards selected
//! by the key's hash, so concurrent lookups for different keys rarely
//! contend, and each hit/miss count is its own [`Counter`] (`HitMiss`)
//! — one relaxed `fetch_add` per lookup instead of the three mutex
//! acquisitions (entries + hits + misses) the first implementation paid.
//! All counters are **cumulative for the life of the engine**: neither
//! the policy-change sweep nor [`ValidityCache::clear`] resets them, so
//! a churn bench reads true hit rates across invalidations.

use crate::invalidation::Sweep;
use crate::nontruman::Verdict;
use fgac_algebra::{Plan, ScalarExpr, SpjBlock};
use fgac_analyze::Certificate;
use fgac_exec::eval_predicate;
use fgac_storage::{Database, Mark};
use fgac_types::{Counter, Ident, Row};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Number of independently locked shards. A power of two so shard
/// selection is a mask.
const SHARDS: usize = 16;

/// A hit count and a miss count, one [`Counter`] each: a lookup is one
/// relaxed `fetch_add`, and neither count can wrap or carry into the
/// other.
#[derive(Debug, Default)]
pub(crate) struct HitMiss {
    hits: Counter,
    misses: Counter,
}

impl HitMiss {
    /// Counts one lookup.
    pub(crate) fn count(&self, hit: bool) {
        let n = if hit { &self.hits } else { &self.misses };
        n.add(1);
    }

    /// (hits, misses). Each lookup bumps exactly one count, so a pair is
    /// never a lookup half-applied; one that lands between the two loads
    /// shows in the second only.
    pub(crate) fn get(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

/// Cache lookup result.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheOutcome {
    /// Fresh at the current policy epoch: serve it.
    Hit(Verdict),
    /// Computed under an older grant state, but the accept carries its
    /// derivation: the caller may revalidate the certificate against
    /// the current grants and restamp on success. Serving the verdict
    /// without that check is never sound.
    Stale {
        verdict: Verdict,
        cert: Arc<Certificate>,
    },
    Miss,
}

/// A coherent point-in-time view of the cache counters.
///
/// Each lookup bumps exactly one of a pair (`HitMiss::get`), so a
/// snapshot never shows a lookup half-applied; likewise the
/// revalidation pair. Counters are cumulative across policy-change
/// sweeps and [`ValidityCache::clear`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Live entries across all shards at (approximately) snapshot time.
    pub entries: usize,
    /// Stale accepts readmitted after their certificate re-verified
    /// against the current grant state.
    pub revalidation_hits: u64,
    /// Stale accepts whose certificate failed re-verification and fell
    /// back to a cold check.
    pub revalidation_misses: u64,
    /// Entries dropped by policy-change sweeps and full clears.
    pub invalidated: u64,
}

impl CacheStats {
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Fraction of stale entries that revalidated, in [0, 1]; 0 when no
    /// revalidation was attempted.
    pub fn revalidation_rate(&self) -> f64 {
        let attempts = self.revalidation_hits + self.revalidation_misses;
        if attempts == 0 {
            0.0
        } else {
            self.revalidation_hits as f64 / attempts as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    verdict: Verdict,
    data_version: u64,
    /// The policy epoch this verdict was computed (or last revalidated)
    /// at. `< current` means stale.
    policy_epoch: u64,
    /// The accept's derivation, for warm revalidation. `None` for
    /// denials and for accepts checked with certificate emission off.
    cert: Option<Arc<Certificate>>,
}

/// One data commit as the validity cache sees it: the rows the
/// statement took out of their tables, read from its journal while the
/// undo images are still there, and the data-version bump `from → to`.
///
/// The rule (`DataCommit::keeps`): a non-empty single-relation probe
/// `σ_P(R)` stays non-empty unless the statement removed a row of `R`
/// that satisfies `P`. Rows inserted and new update images only add
/// to the witness set, so they are not read. Each removed row is judged
/// with the evaluator the probe itself ran, and an evaluation error
/// fails closed. Judging every removed row, not the statement's net
/// change, only ever pins more.
#[derive(Debug)]
pub struct DataCommit<'a> {
    /// Old update images and deleted rows, with their tables.
    removed: Vec<(&'a Ident, &'a Row)>,
    from: u64,
    to: u64,
}

impl<'a> DataCommit<'a> {
    /// The commit of everything `db` journaled since `since`, bumping
    /// the data version `from → to`. Build it before the journal is
    /// committed: [`Database::commit`] drops the undo images.
    pub fn new(db: &'a Database, since: Mark, from: u64, to: u64) -> Self {
        DataCommit {
            removed: db.removed(since).collect(),
            from,
            to,
        }
    }

    /// Does `probe` provably stay non-empty across this commit? `true`
    /// only for a single-relation probe when every row the statement
    /// removed from that relation is ruled out as a witness.
    fn keeps(&self, probe: &SpjBlock) -> bool {
        let [(table, _)] = &probe.scans[..] else {
            return false;
        };
        self.removed
            .iter()
            .all(|&(t, row)| t != table || rules_out(&probe.conjuncts, row))
    }
}

/// Is `row` provably not a witness of the conjunction: does every
/// conjunct evaluate, and one of them not to TRUE? An evaluation error
/// answers no.
fn rules_out(conjuncts: &[ScalarExpr], row: &Row) -> bool {
    let mut ruled_out = false;
    for c in conjuncts {
        match eval_predicate(c, row) {
            Ok(holds) => ruled_out |= !holds,
            Err(_) => return false,
        }
    }
    ruled_out
}

/// One shard: user → fingerprint → entry. Keyed by user first so a
/// lookup borrows the user's `&str` instead of allocating a key.
type Shard = HashMap<String, HashMap<u64, Entry>>;

/// A concurrent, sharded validity cache.
#[derive(Debug)]
pub struct ValidityCache {
    shards: [Mutex<Shard>; SHARDS],
    /// Lookup hits and misses.
    counters: HitMiss,
    /// Stale accepts that revalidated (hits) or fell back cold (misses).
    revalidations: HitMiss,
    /// Entries dropped by sweeps/clears (satellite of the churn work:
    /// cumulative, never reset).
    invalidated: Counter,
}

impl Default for ValidityCache {
    fn default() -> Self {
        ValidityCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            counters: HitMiss::default(),
            revalidations: HitMiss::default(),
            invalidated: Counter::new(),
        }
    }
}

impl ValidityCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fingerprint of a normalized bound plan.
    pub fn fingerprint(plan: &Plan) -> u64 {
        let mut h = DefaultHasher::new();
        plan.hash(&mut h);
        h.finish()
    }

    /// Fingerprint of a bound plan *in a session context*. Verdicts
    /// depend on every session parameter (views like
    /// `... where $hour >= 9` instantiate differently per session), so
    /// the parameters are part of the key — not just the user.
    pub fn fingerprint_in_session(plan: &Plan, params: &fgac_algebra::ParamScope) -> u64 {
        let mut h = DefaultHasher::new();
        plan.hash(&mut h);
        params.hash(&mut h);
        h.finish()
    }

    fn shard(&self, user: &str, fingerprint: u64) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        user.hash(&mut h);
        fingerprint.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    fn count_hit(&self) {
        self.counters.count(true);
    }

    fn count_miss(&self) {
        self.counters.count(false);
    }

    /// Looks up a verdict for (user, plan) at the given data version and
    /// policy epoch.
    pub fn lookup(
        &self,
        user: &str,
        fingerprint: u64,
        data_version: u64,
        policy_epoch: u64,
    ) -> CacheOutcome {
        let shard = self.shard(user, fingerprint).lock();
        match shard.get(user).and_then(|m| m.get(&fingerprint)) {
            Some(e) => {
                // Conditional verdicts are state-dependent; Invalid
                // verdicts may become Conditional after inserts (the C3
                // probe can flip from empty to non-empty). Both are
                // state-pinned — a conditional accept is carried forward
                // only by `restamp` — and only Unconditional survives
                // data changes.
                if e.verdict != Verdict::Unconditional && e.data_version != data_version {
                    drop(shard);
                    self.count_miss();
                    return CacheOutcome::Miss;
                }
                if e.policy_epoch == policy_epoch {
                    let verdict = e.verdict;
                    drop(shard);
                    self.count_hit();
                    return CacheOutcome::Hit(verdict);
                }
                // Behind the current epoch: only a certificate-carrying
                // accept is worth offering for revalidation. A stale
                // entry with nothing to re-verify is as good as absent.
                match (&e.cert, e.verdict) {
                    (Some(cert), verdict) if verdict != Verdict::Invalid => {
                        let out = CacheOutcome::Stale {
                            verdict,
                            cert: Arc::clone(cert),
                        };
                        drop(shard);
                        // Counted later as a revalidation hit or miss by
                        // the engine; not a plain hit/miss yet.
                        out
                    }
                    _ => {
                        drop(shard);
                        self.count_miss();
                        CacheOutcome::Miss
                    }
                }
            }
            None => {
                drop(shard);
                self.count_miss();
                CacheOutcome::Miss
            }
        }
    }

    /// Records a verdict (with the accept's certificate when available).
    pub fn store(
        &self,
        user: &str,
        fingerprint: u64,
        data_version: u64,
        policy_epoch: u64,
        verdict: Verdict,
        cert: Option<Arc<Certificate>>,
    ) {
        let entry = Entry {
            verdict,
            data_version,
            policy_epoch,
            cert,
        };
        let mut shard = self.shard(user, fingerprint).lock();
        match shard.get_mut(user) {
            Some(m) => {
                m.insert(fingerprint, entry);
            }
            None => {
                shard.insert(user.to_string(), HashMap::from([(fingerprint, entry)]));
            }
        }
    }

    /// Restamps a stale entry whose certificate just re-verified against
    /// the current grant state: it is fresh again at `policy_epoch`.
    /// Counts as both a cache hit and a revalidation hit (the lookup
    /// that surfaced it counted nothing yet).
    pub fn revalidated(&self, user: &str, fingerprint: u64, policy_epoch: u64) {
        if let Some(e) = self
            .shard(user, fingerprint)
            .lock()
            .get_mut(user)
            .and_then(|m| m.get_mut(&fingerprint))
        {
            // Only move the stamp forward; a concurrent writer sweep may
            // already have re-staled the entry under a newer epoch, in
            // which case this revalidation (made under a read lock held
            // across the whole check) still proved the older state.
            if e.policy_epoch < policy_epoch {
                e.policy_epoch = policy_epoch;
            }
        }
        self.count_hit();
        self.revalidations.count(true);
    }

    /// Drops a stale entry whose certificate failed re-verification.
    /// Counts as both a cache miss and a revalidation miss; the caller
    /// falls through to a cold check (fail closed).
    pub fn evict_stale(&self, user: &str, fingerprint: u64) {
        let mut shard = self.shard(user, fingerprint).lock();
        if let Some(m) = shard.get_mut(user) {
            m.remove(&fingerprint);
            if m.is_empty() {
                shard.remove(user);
            }
        }
        drop(shard);
        self.count_miss();
        self.revalidations.count(false);
    }

    /// The policy-change sweep: [`Sweep::keep`] decides every entry.
    /// `&mut self` keeps it inside the owner's critical section.
    pub fn sweep(&mut self, sweep: &Sweep) {
        let mut dropped = 0u64;
        for shard in &mut self.shards {
            shard.get_mut().retain(|user, m| {
                m.retain(|_, e| {
                    let revalidatable = e.verdict != Verdict::Invalid && e.cert.is_some();
                    let keep = sweep.keep(user, &mut e.policy_epoch, revalidatable);
                    dropped += u64::from(!keep);
                    keep
                });
                !m.is_empty()
            });
        }
        self.invalidated.add(dropped);
    }

    /// The data-commit restamp: the [`DataCommit`] rule decides every
    /// conditional accept stamped at the pre-commit version, by the
    /// remainder probe its certificate records. Everything else keeps
    /// its stamp. `&mut self` keeps it inside the writer's critical
    /// section, like [`ValidityCache::sweep`].
    pub fn restamp(&mut self, commit: &DataCommit<'_>) {
        let entries = self
            .shards
            .iter_mut()
            .flat_map(|s| s.get_mut().values_mut());
        for e in entries.flat_map(HashMap::values_mut) {
            if e.verdict != Verdict::Conditional || e.data_version != commit.from {
                continue;
            }
            if let Some(probe) = e.cert.as_deref().and_then(Certificate::remainder_probe) {
                if commit.keeps(probe) {
                    e.data_version = commit.to;
                }
            }
        }
    }

    /// Clears every entry (recovery cold-start). Counters survive — they
    /// are cumulative engine-lifetime statistics.
    pub fn clear(&self) {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock();
            dropped += s.values().map(|m| m.len() as u64).sum::<u64>();
            s.clear();
        }
        if dropped > 0 {
            self.invalidated.add(dropped);
        }
    }

    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().values().map(HashMap::len).sum::<usize>())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// (hits, misses) counters — experiment E5 instrumentation.
    pub fn stats(&self) -> (u64, u64) {
        self.counters.get()
    }

    /// (revalidation hits, revalidation misses).
    pub fn revalidation_stats(&self) -> (u64, u64) {
        self.revalidations.get()
    }

    /// Entries dropped by sweeps and clears, cumulative.
    pub fn invalidated_entries(&self) -> u64 {
        self.invalidated.get()
    }

    /// A coherent snapshot of counters and occupancy.
    pub fn snapshot(&self) -> CacheStats {
        let (hits, misses) = self.stats();
        let (revalidation_hits, revalidation_misses) = self.revalidation_stats();
        CacheStats {
            hits,
            misses,
            entries: self.len(),
            revalidation_hits,
            revalidation_misses,
            invalidated: self.invalidated_entries(),
        }
    }
}

#[cfg(test)]
impl ValidityCache {
    /// The stamp of `(user, fingerprint)`'s entry, if cached.
    pub(crate) fn stamp_of(&self, user: &str, fingerprint: u64) -> Option<u64> {
        self.shard(user, fingerprint)
            .lock()
            .get(user)
            .and_then(|m| m.get(&fingerprint))
            .map(|e| e.policy_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::{ArithOp, CmpOp};
    use fgac_analyze::{CertVerdict, Certificate, RuleId, Step};
    use fgac_types::{Column, DataType, Ident, Schema, Value};

    fn plan(table: &str) -> Plan {
        Plan::scan(table, Schema::new(vec![]))
    }

    fn cert(epoch: u64) -> Arc<Certificate> {
        Arc::new(Certificate {
            principal: "11".into(),
            policy_epoch: epoch,
            verdict: CertVerdict::Unconditional,
            params: vec![],
            query_tables: vec![],
            query: None,
            steps: vec![],
        })
    }

    #[test]
    fn unconditional_survives_data_changes() {
        let c = ValidityCache::new();
        let fp = ValidityCache::fingerprint(&plan("t"));
        c.store("11", fp, 1, 0, Verdict::Unconditional, None);
        assert_eq!(c.lookup("11", fp, 99, 0), CacheOutcome::Hit(Verdict::Unconditional));
    }

    #[test]
    fn conditional_expires_on_data_change() {
        let c = ValidityCache::new();
        let fp = ValidityCache::fingerprint(&plan("t"));
        c.store("11", fp, 1, 0, Verdict::Conditional, None);
        assert_eq!(c.lookup("11", fp, 1, 0), CacheOutcome::Hit(Verdict::Conditional));
        assert_eq!(c.lookup("11", fp, 2, 0), CacheOutcome::Miss);
    }

    #[test]
    fn invalid_expires_on_data_change() {
        let c = ValidityCache::new();
        let fp = ValidityCache::fingerprint(&plan("t"));
        c.store("11", fp, 1, 0, Verdict::Invalid, None);
        assert_eq!(c.lookup("11", fp, 2, 0), CacheOutcome::Miss);
    }

    #[test]
    fn per_user_keys() {
        let c = ValidityCache::new();
        let fp = ValidityCache::fingerprint(&plan("t"));
        c.store("11", fp, 1, 0, Verdict::Unconditional, None);
        assert_eq!(c.lookup("12", fp, 1, 0), CacheOutcome::Miss);
    }

    #[test]
    fn distinct_plans_have_distinct_fingerprints() {
        assert_ne!(
            ValidityCache::fingerprint(&plan("a")),
            ValidityCache::fingerprint(&plan("b"))
        );
    }

    #[test]
    fn clear_and_stats() {
        let c = ValidityCache::new();
        let fp = ValidityCache::fingerprint(&plan("t"));
        c.store("11", fp, 1, 0, Verdict::Unconditional, None);
        assert_eq!(c.len(), 1);
        let _ = c.lookup("11", fp, 1, 0);
        let _ = c.lookup("11", fp + 1, 1, 0);
        assert_eq!(c.stats(), (1, 1));
        c.clear();
        assert!(c.is_empty());
        // Satellite 1: counters are cumulative — a clear (or sweep) must
        // not wipe hit/miss history, and the drop itself is counted.
        assert_eq!(c.stats(), (1, 1));
        assert_eq!(c.invalidated_entries(), 1);
    }

    /// The retired packed word (`hits << 32 | misses`) wrapped the hit
    /// count to 0 here and carried the 2^32nd miss into the hits. The
    /// plan cache counts through the same [`HitMiss`].
    #[test]
    fn counts_pass_u32_max_without_wrapping_or_carrying() {
        let max = u64::from(u32::MAX);
        let at_max = || {
            let c = HitMiss::default();
            c.hits.add(max);
            c.misses.add(max);
            c
        };
        let c = ValidityCache {
            counters: at_max(),
            revalidations: at_max(),
            ..ValidityCache::default()
        };
        let fp = ValidityCache::fingerprint(&plan("t"));
        c.store("11", fp, 1, 0, Verdict::Unconditional, None);
        assert!(matches!(c.lookup("11", fp, 1, 0), CacheOutcome::Hit(_)));
        assert_eq!(c.lookup("11", fp + 1, 1, 0), CacheOutcome::Miss);
        assert_eq!(c.stats(), (max + 1, max + 1));
        c.revalidated("11", fp, 0);
        c.evict_stale("11", fp);
        assert_eq!(c.revalidation_stats(), (max + 1, max + 1));
        assert_eq!(c.stats(), (max + 2, max + 2));
    }

    #[test]
    fn stale_epoch_without_certificate_misses() {
        let c = ValidityCache::new();
        let fp = ValidityCache::fingerprint(&plan("t"));
        c.store("11", fp, 1, 0, Verdict::Unconditional, None);
        assert_eq!(c.lookup("11", fp, 1, 5), CacheOutcome::Miss);
    }

    #[test]
    fn stale_epoch_with_certificate_offers_revalidation() {
        let c = ValidityCache::new();
        let fp = ValidityCache::fingerprint(&plan("t"));
        c.store("11", fp, 1, 0, Verdict::Unconditional, Some(cert(0)));
        match c.lookup("11", fp, 1, 3) {
            CacheOutcome::Stale { verdict, cert } => {
                assert_eq!(verdict, Verdict::Unconditional);
                assert_eq!(cert.policy_epoch, 0);
            }
            other => panic!("expected Stale, got {other:?}"),
        }
        // Revalidation restamps: the next lookup at epoch 3 is a hit.
        c.revalidated("11", fp, 3);
        assert_eq!(c.lookup("11", fp, 1, 3), CacheOutcome::Hit(Verdict::Unconditional));
        let snap = c.snapshot();
        assert_eq!(snap.revalidation_hits, 1);
        assert_eq!(snap.revalidation_misses, 0);
        assert!(snap.revalidation_rate() > 0.99);
    }

    #[test]
    fn evict_stale_counts_a_revalidation_miss() {
        let c = ValidityCache::new();
        let fp = ValidityCache::fingerprint(&plan("t"));
        c.store("11", fp, 1, 0, Verdict::Unconditional, Some(cert(0)));
        assert!(matches!(c.lookup("11", fp, 1, 2), CacheOutcome::Stale { .. }));
        c.evict_stale("11", fp);
        assert_eq!(c.lookup("11", fp, 1, 2), CacheOutcome::Miss);
        let snap = c.snapshot();
        assert_eq!(snap.revalidation_misses, 1);
        assert_eq!(snap.entries, 0);
    }

    /// `t(a int, b int)` holding a witness `(1, 5)`, a non-witness
    /// `(2, -5)` and `(3, 0)`, on which the probe's conjunct errors.
    fn probed_table() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]);
        db.create_table("t", schema, None).unwrap();
        for (a, b) in [(1, 5), (2, -5), (3, 0)] {
            db.insert(&Ident::new("t"), Row(vec![Value::Int(a), Value::Int(b)]))
                .unwrap();
        }
        db.commit();
        db
    }

    /// A conditional accept whose C3a goal rests on the remainder probe
    /// `σ_{100 / b > 0}(t)` (premise 1, as the validator emits it).
    fn conditional_cert(db: &Database) -> Arc<Certificate> {
        let schema = db.table_meta(&Ident::new("t")).unwrap().schema.clone();
        let quotient = ScalarExpr::Arith {
            op: ArithOp::Div,
            left: Box::new(ScalarExpr::lit(100)),
            right: Box::new(ScalarExpr::col(1)),
        };
        let mut probe = Step::new(RuleId::U2Match);
        probe.block = Some(SpjBlock {
            scans: vec![(Ident::new("t"), schema)],
            conjuncts: vec![ScalarExpr::cmp(CmpOp::Gt, quotient, ScalarExpr::lit(0))],
            projection: vec![ScalarExpr::col(0)],
            distinct: true,
        });
        let mut goal = Step::new(RuleId::C3a);
        goal.premises = vec![0, 1];
        goal.probe_rows = Some(1);
        Arc::new(Certificate {
            verdict: CertVerdict::Conditional,
            steps: vec![Step::new(RuleId::U1), probe, goal],
            ..(*cert(0)).clone()
        })
    }

    /// Runs `statement` against [`probed_table`] as one commit `1 → 2`
    /// and reports whether a conditional accept stamped 1 is served at
    /// version 2.
    fn served_after(statement: impl FnOnce(&mut Database)) -> bool {
        let mut db = probed_table();
        let cert = conditional_cert(&db);
        let mark = db.mark();
        statement(&mut db);
        let mut c = ValidityCache::new();
        c.store("11", 7, 1, 0, Verdict::Conditional, Some(cert));
        c.restamp(&DataCommit::new(&db, mark, 1, 2));
        c.lookup("11", 7, 2, 0) == CacheOutcome::Hit(Verdict::Conditional)
    }

    #[test]
    fn restamp_keeps_an_accept_unless_a_removed_row_may_be_a_witness() {
        let t = Ident::new("t");
        let row = |a, b| Row(vec![Value::Int(a), Value::Int(b)]);
        assert!(served_after(|db| {
            db.delete_at(&t, &[1]).unwrap();
        }));
        assert!(served_after(|db| db.insert(&t, row(4, 7)).unwrap()));
        assert!(served_after(|db| {
            db.apply_row_updates(&t, vec![(1, row(2, -9))]).unwrap();
        }));
        // The witness leaves, by delete or by update.
        assert!(!served_after(|db| {
            db.delete_at(&t, &[0]).unwrap();
        }));
        assert!(!served_after(|db| {
            db.apply_row_updates(&t, vec![(0, row(1, -5))]).unwrap();
        }));
        // The conjunct errors on the removed row: fail closed.
        assert!(!served_after(|db| {
            db.delete_at(&t, &[2]).unwrap();
        }));
    }

    #[test]
    fn restamp_moves_only_conditional_accepts_stamped_at_the_pre_commit_version() {
        let mut db = probed_table();
        let cert = conditional_cert(&db);
        let mark = db.mark();
        db.delete_at(&Ident::new("t"), &[1]).unwrap();
        let mut c = ValidityCache::new();
        c.store("11", 1, 0, 0, Verdict::Conditional, Some(Arc::clone(&cert)));
        c.store("11", 2, 1, 0, Verdict::Invalid, None);
        c.store("11", 3, 1, 0, Verdict::Conditional, None);
        c.store("11", 4, 1, 0, Verdict::Conditional, Some(cert));
        c.restamp(&DataCommit::new(&db, mark, 1, 2));
        let at_2 = |fp| c.lookup("11", fp, 2, 0);
        assert_eq!(at_2(1), CacheOutcome::Miss, "already behind: stays behind");
        assert_eq!(at_2(2), CacheOutcome::Miss, "denials stay pinned");
        assert_eq!(at_2(3), CacheOutcome::Miss, "no certificate, no probe");
        assert_eq!(at_2(4), CacheOutcome::Hit(Verdict::Conditional));
    }

    #[test]
    fn keys_spread_across_shards() {
        // Not a correctness requirement, but the sharding is pointless if
        // everything lands in one shard; check a spread of keys occupies
        // several.
        let c = ValidityCache::new();
        for i in 0..64u64 {
            c.store(
                &format!("user{i}"),
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                0,
                0,
                Verdict::Unconditional,
                None,
            );
        }
        let occupied = c.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(occupied >= SHARDS / 2, "only {occupied} shards occupied");
    }
}
