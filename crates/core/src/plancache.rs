//! Plan caching: memoized parse + bind for repeated statements.
//!
//! The paper's Section 5.6 observes that "the same queries are executed
//! repeatedly, albeit with different constant values, for different
//! users" and proposes amortizing the *validity check* across
//! re-executions. The [`crate::ValidityCache`] does that; this module
//! removes the rest of the admission cost. On a warm hit,
//! [`crate::Engine::execute`] skips SQL parsing, name resolution /
//! view expansion (binding), plan normalization, and fingerprint
//! hashing — the statement goes straight to a validity-cache lookup and
//! then to the executor.
//!
//! ## Keying and invalidation
//!
//! Binding substitutes `$` session parameters into the plan, so a cached
//! bound plan is only reusable when the parameter environment is
//! identical: the key is `(SQL text, parameter fingerprint)`. The same
//! SQL text issued by a different `$user_id` therefore occupies a
//! different slot — plans never alias across sessions with different
//! parameters.
//!
//! Invalidation is **dependency-tracked**, not epoch-keyed: each cached
//! plan records the catalog names its binding read (every FROM-clause
//! table and view, recursing through view expansion — see
//! [`crate::invalidation::query_dependencies`]). Grants and revocations
//! never touch this cache: binding does not consult the grant tables,
//! so an authorization change cannot change what a SQL text binds to.
//! DDL invalidates only the entries whose dependency set intersects the
//! introduced name ([`PlanCache::sweep`]) — in a live engine that set
//! is empty (a CREATE of an existing name fails), so plans survive
//! unrelated schema growth too. DML touches nothing here: plans
//! are data-independent (the data-version handling of conditional
//! verdicts stays entirely inside the validity cache).

use fgac_algebra::{BoundQuery, ParamScope, Plan};
use fgac_types::{Counter, Ident};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::cache::{CacheStats, HitMiss};
use crate::invalidation::Sweep;

/// Default number of cached plans (per engine).
const DEFAULT_CAPACITY: usize = 256;

/// Everything admission computed for a query, ready for reuse.
#[derive(Debug)]
pub struct CachedPlan {
    /// The bound query (base-table plan + presentation), executor input.
    pub bound: BoundQuery,
    /// The normalized plan the validity checker reasons over.
    pub normalized: Plan,
    /// Session-contextual fingerprint of `normalized` — the
    /// [`crate::ValidityCache`] lookup key, precomputed so warm
    /// executions do not re-hash the plan.
    pub validity_fp: u64,
    /// Catalog names binding read: FROM-clause tables and views
    /// (recursively through view expansion) plus every base table the
    /// normalized plan scans. DDL introducing any of these names
    /// invalidates the entry.
    pub deps: BTreeSet<Ident>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    params_fp: u64,
    sql: String,
}

#[derive(Debug)]
struct Slot {
    value: Arc<CachedPlan>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Slot>,
    /// Monotonic use counter backing the LRU ordering.
    tick: u64,
}

/// A bounded LRU cache of admitted plans. Interior-mutable: lookups work
/// through `&self` so the read path shares the engine immutably.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    /// Lookup hits and misses, one relaxed fetch_add per lookup.
    counters: HitMiss,
    /// Entries dropped by dependency invalidation and clears —
    /// cumulative, like every cache counter.
    invalidated: Counter,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            counters: HitMiss::default(),
            invalidated: Counter::new(),
        }
    }

    fn params_fp(params: &ParamScope) -> u64 {
        let mut h = DefaultHasher::new();
        params.hash(&mut h);
        h.finish()
    }

    /// Looks up the admitted plan for `sql` under the given parameter
    /// environment.
    pub fn get(&self, sql: &str, params: &ParamScope) -> Option<Arc<CachedPlan>> {
        let key = Key {
            params_fp: Self::params_fp(params),
            sql: sql.to_string(),
        };
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(&key).map(|slot| {
            slot.last_used = tick;
            slot.value.clone()
        });
        drop(inner);
        self.counters.count(found.is_some());
        found
    }

    /// Inserts an admitted plan, evicting the least-recently-used entry
    /// when full.
    pub fn insert(&self, sql: &str, params: &ParamScope, plan: Arc<CachedPlan>) {
        let key = Key {
            params_fp: Self::params_fp(params),
            sql: sql.to_string(),
        };
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            if let Some(v) = victim {
                inner.map.remove(&v);
            }
        }
        inner.map.insert(
            key,
            Slot {
                value: plan,
                last_used: tick,
            },
        );
    }

    /// Drops every entry whose dependency set intersects `names`.
    /// Returns the number of entries dropped.
    pub fn invalidate_deps(&self, names: &[Ident]) -> usize {
        drop_where(&mut self.inner.lock(), &self.invalidated, |plan| {
            names.iter().any(|n| plan.deps.contains(n))
        })
    }

    pub fn clear(&self) {
        drop_where(&mut self.inner.lock(), &self.invalidated, |_| true);
    }

    /// The policy-change sweep: grants never change what a SQL text
    /// binds to, so only a change that introduces a name drops the
    /// entries that read it ([`Sweep::rebinds`]).
    pub fn sweep(&mut self, sweep: &Sweep) {
        if sweep.introduces_names() {
            drop_where(self.inner.get_mut(), &self.invalidated, |plan| {
                sweep.rebinds(&plan.deps)
            });
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses), cumulative.
    pub fn stats(&self) -> (u64, u64) {
        self.counters.get()
    }

    /// Entries dropped by dependency sweeps and clears, cumulative.
    pub fn invalidated_entries(&self) -> u64 {
        self.invalidated.get()
    }

    /// Coherent counter + occupancy snapshot.
    pub fn snapshot(&self) -> CacheStats {
        let (hits, misses) = self.stats();
        CacheStats {
            hits,
            misses,
            entries: self.len(),
            invalidated: self.invalidated_entries(),
            ..CacheStats::default()
        }
    }
}

/// Drops the entries `doomed` selects and counts them as invalidated.
fn drop_where(
    inner: &mut Inner,
    invalidated: &Counter,
    doomed: impl Fn(&CachedPlan) -> bool,
) -> usize {
    let before = inner.map.len();
    inner.map.retain(|_, slot| !doomed(&slot.value));
    let dropped = before - inner.map.len();
    if dropped > 0 {
        invalidated.add(dropped as u64);
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::Schema;

    fn cached_plan_deps(deps: &[&str]) -> Arc<CachedPlan> {
        let plan = Plan::scan("t", Schema::new(vec![]));
        Arc::new(CachedPlan {
            bound: BoundQuery {
                plan: plan.clone(),
                output_names: vec![],
                order_by: vec![],
                limit: None,
            },
            normalized: plan,
            validity_fp: 7,
            deps: deps.iter().map(Ident::new).collect(),
        })
    }

    fn cached_plan() -> Arc<CachedPlan> {
        cached_plan_deps(&["t"])
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = PlanCache::new();
        let params = ParamScope::with_user("11");
        assert!(c.get("select 1", &params).is_none());
        c.insert("select 1", &params, cached_plan());
        assert!(c.get("select 1", &params).is_some());
        let snap = c.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        assert_eq!(snap.entries, 1);
    }

    #[test]
    fn dependency_invalidation_is_selective() {
        let c = PlanCache::new();
        let params = ParamScope::with_user("11");
        c.insert("qa", &params, cached_plan_deps(&["a", "shared"]));
        c.insert("qb", &params, cached_plan_deps(&["b"]));
        // An unrelated name drops nothing.
        assert_eq!(c.invalidate_deps(&[Ident::new("zzz")]), 0);
        assert_eq!(c.len(), 2);
        // A name in qa's dependency set drops qa only.
        assert_eq!(c.invalidate_deps(&[Ident::new("shared")]), 1);
        assert!(c.get("qa", &params).is_none());
        assert!(c.get("qb", &params).is_some());
        assert_eq!(c.invalidated_entries(), 1);
    }

    #[test]
    fn params_key_plans_separately() {
        let c = PlanCache::new();
        c.insert("q", &ParamScope::with_user("11"), cached_plan());
        assert!(c.get("q", &ParamScope::with_user("12")).is_none());
        assert!(c.get("q", &ParamScope::with_user("11")).is_some());
    }

    #[test]
    fn lru_eviction_bounds_size() {
        let c = PlanCache::with_capacity(2);
        let params = ParamScope::new();
        c.insert("a", &params, cached_plan());
        c.insert("b", &params, cached_plan());
        // Touch "a" so "b" is the LRU victim.
        assert!(c.get("a", &params).is_some());
        c.insert("c", &params, cached_plan());
        assert_eq!(c.len(), 2);
        assert!(c.get("a", &params).is_some());
        assert!(c.get("b", &params).is_none());
        assert!(c.get("c", &params).is_some());
    }

    #[test]
    fn clear_keeps_cumulative_counters() {
        let c = PlanCache::new();
        let params = ParamScope::new();
        c.insert("q", &params, cached_plan());
        assert!(c.get("q", &params).is_some());
        c.clear();
        assert!(c.is_empty());
        let (hits, _) = c.stats();
        assert_eq!(hits, 1);
        assert_eq!(c.invalidated_entries(), 1);
    }
}
