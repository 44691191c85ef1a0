//! Hot-path behavior: plan-cache reuse and invalidation, per-parameter
//! keying, prepared-statement integration, and validity-cache coherence
//! under concurrent readers and a DML writer.

#![allow(
    clippy::disallowed_types,
    reason = "test harness: the published data version is the Release/Acquire pair under test; the stop flag and allow/deny tallies are read after join"
)]

use fgac::prelude::*;
use fgac_core::{CacheOutcome, ValidityCache};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn base_engine() -> Engine {
    let mut e = Engine::new();
    e.admin_script(
        "
        create table grades (
            student_id varchar not null, course_id varchar not null,
            grade int, primary key (student_id, course_id));
        create authorization view MyGrades as
            select * from grades where student_id = $user_id;
        insert into grades values
            ('11', 'cs101', 90), ('11', 'cs202', 80), ('12', 'cs101', 70);
        ",
    )
    .unwrap();
    e
}

fn engine() -> Engine {
    let mut e = base_engine();
    e.grant_view("11", "mygrades").unwrap();
    e.grant_view("12", "mygrades").unwrap();
    e
}

const Q: &str = "select grade from grades where student_id = $user_id";

#[test]
fn repeat_query_skips_admission_via_plan_cache() {
    let mut e = engine();
    let s = Session::new("11");
    for _ in 0..5 {
        let r = e.execute(&s, Q).unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 2);
    }
    let snap = e.plan_cache().snapshot();
    assert_eq!(snap.misses, 1, "only the first execution admits");
    assert_eq!(snap.hits, 4, "every repeat rides the cached plan");
    // The validity cache is also warm: one inference, four hits.
    let (hits, _) = e.cache().stats();
    assert!(hits >= 4);
}

#[test]
fn unrelated_schema_change_keeps_cached_plans() {
    let mut e = engine();
    let s = Session::new("11");
    e.execute(&s, Q).unwrap();
    let epoch_before = e.policy_epoch();
    // DDL on a name the cached plan never touches: the epoch still moves
    // (certificates are stamped with it), but dependency tracking keeps
    // the plan — `audit_log` is not in the plan's read set.
    e.admin_script("create table audit_log (entry varchar)").unwrap();
    assert!(e.policy_epoch() > epoch_before);
    e.execute(&s, Q).unwrap();
    let snap = e.plan_cache().snapshot();
    assert_eq!(snap.misses, 1, "unrelated DDL must not evict the plan");
    assert!(snap.hits >= 1, "post-DDL execution rides the cached plan");
}

#[test]
fn conflicting_schema_change_evicts_dependent_plans() {
    let mut e = engine();
    let s = Session::new("11");
    let q = "select * from mygrades";
    e.execute(&s, q).unwrap();
    // A view named `mygrades` exists; creating a *table* with a name in
    // the plan's read set would change binding, so the plan must go.
    // We exercise the dependency path directly: the plan's deps contain
    // both the view name and the base table it expands to.
    let dropped = e
        .plan_cache()
        .invalidate_deps(std::slice::from_ref(&Ident::new("grades")));
    assert_eq!(dropped, 1, "plan depends on the underlying base table");
    e.execute(&s, q).unwrap();
    assert_eq!(e.plan_cache().snapshot().misses, 2, "re-admits after eviction");
}

#[test]
fn revocation_rejects_previously_cached_query() {
    let mut e = engine();
    let s = Session::new("11");
    // Warm both caches…
    assert!(e.execute(&s, Q).is_ok());
    assert!(e.execute(&s, Q).is_ok());
    // …then revoke. The next execution must not reuse the cached
    // admission: it re-checks and is denied.
    e.revoke_view("11", "mygrades").unwrap();
    let err = e.execute(&s, Q).unwrap_err();
    assert!(matches!(err, Error::Unauthorized(_)), "got {err:?}");
}

#[test]
fn grant_restores_access_after_revocation() {
    let mut e = engine();
    let s = Session::new("11");
    e.execute(&s, Q).unwrap();
    e.revoke_view("11", "mygrades").unwrap();
    assert!(e.execute(&s, Q).is_err());
    e.grant_view("11", "mygrades").unwrap();
    let r = e.execute(&s, Q).unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 2);
}

#[test]
fn same_sql_different_user_does_not_alias() {
    let mut e = engine();
    // Both users run the same text; binding embeds $user_id, so each
    // must get their own plan and their own rows.
    for _ in 0..2 {
        let r11 = e.execute(&Session::new("11"), Q).unwrap();
        assert_eq!(r11.rows().unwrap().rows.len(), 2);
        let r12 = e.execute(&Session::new("12"), Q).unwrap();
        assert_eq!(r12.rows().unwrap().rows.len(), 1);
    }
    let snap = e.plan_cache().snapshot();
    assert_eq!(snap.misses, 2, "one admission per user");
    assert_eq!(snap.hits, 2, "each user's repeat hits their own entry");
    assert_eq!(snap.entries, 2);
}

#[test]
fn prepared_statement_reuses_cached_plan() {
    let mut e = engine();
    let p = e.prepare(Q).unwrap();
    let s = Session::new("11");
    for _ in 0..3 {
        e.execute_prepared(&s, &p).unwrap();
    }
    // Ad-hoc execution of the same text rides the same entry.
    e.execute(&s, Q).unwrap();
    let snap = e.plan_cache().snapshot();
    assert_eq!(snap.misses, 1);
    assert_eq!(snap.hits, 3);
}

#[test]
fn dml_does_not_evict_cached_plans() {
    let mut e = engine();
    e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        .unwrap();
    let s = Session::new("11");
    e.execute(&s, Q).unwrap();
    let epoch = e.policy_epoch();
    e.execute(&s, "insert into grades values ($user_id, 'cs303', 60)")
        .unwrap();
    // Plans are data-independent: the epoch is unchanged and the repeat
    // query hits the plan cache (the *validity* cache handles the data
    // version of conditional verdicts).
    assert_eq!(e.policy_epoch(), epoch);
    let r = e.execute(&s, Q).unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 3);
    assert!(e.plan_cache().snapshot().hits >= 1);
}

/// Concurrent readers racing a writer that bumps the data version must
/// never observe a stale state-pinned verdict.
///
/// The writer publishes version `v` only *after* storing the verdict
/// whose flavor encodes `v`'s parity (Conditional at even versions,
/// Invalid at odd). A reader that looks up at a published version and
/// hits must therefore see exactly the parity-matching verdict; seeing
/// the other flavor would mean the cache served an entry pinned to a
/// different data version.
#[test]
fn validity_cache_never_serves_stale_pinned_verdicts() {
    let cache = Arc::new(ValidityCache::new());
    let published = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    const FP: u64 = 0xFEED_FACE;

    cache.store("u", FP, 0, 0, Verdict::Conditional, None);

    let writer = {
        let cache = Arc::clone(&cache);
        let published = Arc::clone(&published);
        std::thread::spawn(move || {
            for v in 1..=2000u64 {
                let verdict = if v.is_multiple_of(2) {
                    Verdict::Conditional
                } else {
                    Verdict::Invalid
                };
                cache.store("u", FP, v, 0, verdict, None);
                published.store(v, Ordering::Release);
                // Give readers a chance to observe this version before
                // it is overwritten.
                std::thread::yield_now();
            }
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut hits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = published.load(Ordering::Acquire);
                    if let CacheOutcome::Hit(verdict) = cache.lookup("u", FP, v, 0) {
                        let expected = if v.is_multiple_of(2) {
                            Verdict::Conditional
                        } else {
                            Verdict::Invalid
                        };
                        assert_eq!(
                            verdict, expected,
                            "stale pinned verdict served at data version {v}"
                        );
                        hits += 1;
                    }
                    // Keep the interleaving fine-grained even on a
                    // single hardware thread.
                    std::thread::yield_now();
                }
                hits
            })
        })
        .collect();

    writer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let total_hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    // Reader hits during the race are opportunistic (the writer may
    // overwrite the entry between a reader's version load and lookup,
    // which is a legitimate miss). The quiescent state is deterministic:
    // the final published version must hit with its parity verdict…
    let last = published.load(Ordering::Acquire);
    assert_eq!(last, 2000);
    assert!(matches!(
        cache.lookup("u", FP, last, 0),
        CacheOutcome::Hit(Verdict::Conditional)
    ));
    // …and pinning still holds: any other version misses.
    assert!(matches!(
        cache.lookup("u", FP, last + 1, 0),
        CacheOutcome::Miss
    ));
    // total_hits is reported for debugging; zero is unlikely with the
    // writer yielding each round but not an error.
    let _ = total_hits;
}

/// Unconditional verdicts survive data-version changes even while
/// state-pinned entries churn on other shards.
#[test]
fn unconditional_verdicts_survive_concurrent_churn() {
    let cache = Arc::new(ValidityCache::new());
    cache.store("u", 1, 0, 0, Verdict::Unconditional, None);

    let churner = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            for v in 0..1000u64 {
                // Spread across users => across shards.
                cache.store(&format!("w{}", v % 7), v, v, 0, Verdict::Conditional, None);
            }
        })
    };
    for v in 0..1000u64 {
        assert!(matches!(
            cache.lookup("u", 1, v, 0),
            CacheOutcome::Hit(Verdict::Unconditional)
        ));
    }
    churner.join().unwrap();
}

// ---------------------------------------------------------------------------
// SharedEngine: concurrent readers racing a grant/revoke writer.
// ---------------------------------------------------------------------------

#[test]
fn racing_readers_never_see_a_stale_verdict_across_epoch_bumps() {
    use fgac_core::SharedEngine;

    // N reader threads hammer the same query while the writer flips the
    // principal's grant on and off. The checked invariant is the
    // fail-closed one from DESIGN.md: the moment a revocation (or
    // grant) completes — epoch bumped, caches cleared, write lock
    // released — every *subsequently started* check observes it. The
    // writer itself probes that after each flip; the readers assert the
    // weaker-but-necessary property that a racing check only ever
    // resolves to ALLOW-with-rows or a clean Unauthorized, never a
    // cache-corrupt half state.
    let shared = SharedEngine::new(engine());
    let stop = Arc::new(AtomicBool::new(false));
    let allows = Arc::new(AtomicU64::new(0));
    let denies = Arc::new(AtomicU64::new(0));
    let q = "select grade from grades where student_id = '11'";

    let readers: Vec<_> = (0..6)
        .map(|_| {
            let shared = shared.clone();
            let stop = Arc::clone(&stop);
            let allows = Arc::clone(&allows);
            let denies = Arc::clone(&denies);
            std::thread::spawn(move || {
                let s = Session::new("11");
                while !stop.load(Ordering::Relaxed) {
                    match shared.execute(&s, q) {
                        Ok(r) => {
                            // An ALLOW must come with the right rows: a
                            // verdict served from a cache that survived
                            // an epoch bump would still deliver these,
                            // so also count it for the writer's probe.
                            assert_eq!(r.rows().unwrap().rows.len(), 2);
                            allows.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(Error::Unauthorized(_)) => {
                            denies.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("reader saw non-auth error: {other:?}"),
                    }
                }
            })
        })
        .collect();

    // Flip until the readers have witnessed both sides of the race (a
    // loaded machine can starve them out of the brief deny windows), up
    // to a generous cap; 60 flips minimum keeps the race itself real.
    let writer_session = Session::new("11");
    let mut i = 0;
    while i < 60
        || ((allows.load(Ordering::Relaxed) == 0 || denies.load(Ordering::Relaxed) == 0)
            && i < 4000)
    {
        if i % 2 == 0 {
            let before = shared.policy_epoch();
            shared.with_write(|e| e.revoke_view("11", "mygrades")).unwrap();
            assert!(shared.policy_epoch() > before, "revoke must bump the epoch");
            // Sequenced-after probe: the revocation is complete, so this
            // check (which starts now, under a fresh read lock) must
            // deny. If the epoch bump failed to clear a cached ALLOW,
            // this is the read that would expose it.
            match shared.execute(&writer_session, q) {
                Err(Error::Unauthorized(_)) => {}
                other => panic!("flip {i}: stale ALLOW after revoke: {other:?}"),
            }
        } else {
            shared.with_write(|e| e.grant_view("11", "mygrades")).unwrap();
            let r = shared.execute(&writer_session, q).unwrap();
            assert_eq!(
                r.rows().unwrap().rows.len(),
                2,
                "flip {i}: stale DENY after grant"
            );
        }
        i += 1;
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    // The race was real: readers observed both sides of the flips.
    assert!(allows.load(Ordering::Relaxed) > 0, "readers never saw an ALLOW");
    assert!(denies.load(Ordering::Relaxed) > 0, "readers never saw a DENY");
}

#[test]
fn concurrent_readers_share_the_caches() {
    use fgac_core::SharedEngine;

    // Pure read concurrency: many threads, one repeated query each.
    // Everything after the first admission should be cache traffic, and
    // the shared caches must end up coherent (hits + misses = lookups,
    // far more hits than misses).
    let shared = SharedEngine::new(engine());
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let user = if t % 2 == 0 { "11" } else { "12" };
                let s = Session::new(user);
                let q = format!("select grade from grades where student_id = '{user}'");
                for _ in 0..50 {
                    let r = shared.execute(&s, &q).unwrap();
                    assert!(!r.rows().unwrap().rows.is_empty() || user == "12");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let (plan_hits, plan_misses) = shared.with_read(|e| e.plan_cache().stats());
    assert!(
        plan_hits > plan_misses,
        "8x50 repeats should be dominated by plan-cache hits: {plan_hits} hits / {plan_misses} misses"
    );
}

// ---------------------------------------------------------------------------
// Churn property: random grant/revoke/query interleavings.
// ---------------------------------------------------------------------------

mod churn_property {
    use super::*;
    use fgac_core::SharedEngine;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Grant(&'static str),
        Revoke(&'static str),
        Query(&'static str),
        /// Grant+revoke an *unrelated* principal: pure sweep traffic
        /// that must restamp (not drop) the other principals' entries.
        PadChurn,
    }

    fn op() -> impl Strategy<Value = Op> {
        let user = prop_oneof![Just("11"), Just("12")];
        // Queries twice: interleavings should be query-heavy so warm
        // verdicts actually get exercised between policy changes.
        prop_oneof![
            user.clone().prop_map(Op::Grant),
            user.clone().prop_map(Op::Revoke),
            user.clone().prop_map(Op::Query),
            user.prop_map(Op::Query),
            Just(Op::PadChurn),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Over any interleaving of grants, revokes, and queries:
        /// * a principal whose grant was just revoked is denied on the
        ///   very next request — no stale verdict, ever;
        /// * a warm verdict (cache hit or certificate revalidation)
        ///   always byte-matches what a cold engine with the same grant
        ///   state computes from scratch.
        #[test]
        fn churned_verdicts_match_cold_engine(ops in proptest::collection::vec(op(), 1..32)) {
            let shared = SharedEngine::new(engine());
            let mut granted: BTreeSet<&str> = ["11", "12"].into_iter().collect();
            for o in ops {
                match o {
                    Op::Grant(u) => {
                        if granted.insert(u) {
                            shared.with_write(|e| e.grant_view(u, "mygrades")).unwrap();
                        }
                    }
                    Op::Revoke(u) => {
                        if granted.remove(u) {
                            shared.with_write(|e| e.revoke_view(u, "mygrades")).unwrap();
                        }
                        // Sequenced-after probe: the revocation (if any)
                        // completed before this request started.
                        let s = Session::new(u);
                        match shared.execute(&s, Q) {
                            Err(Error::Unauthorized(_)) => {}
                            other => prop_assert!(false, "stale verdict after revoke of {u}: {other:?}"),
                        }
                    }
                    Op::PadChurn => {
                        shared.with_write(|e| e.grant_view("99", "mygrades")).unwrap();
                        shared.with_write(|e| e.revoke_view("99", "mygrades")).unwrap();
                    }
                    Op::Query(u) => {
                        let s = Session::new(u);
                        let warm = shared.with_read(|e| e.check(&s, Q)).unwrap();
                        let mut cold = base_engine();
                        for g in &granted {
                            cold.grant_view(g, "mygrades").unwrap();
                        }
                        let cold_report = cold.check(&s, Q).unwrap();
                        prop_assert_eq!(
                            format!("{:?}", warm.verdict),
                            format!("{:?}", cold_report.verdict),
                            "warm verdict diverged from cold engine for {}", u
                        );
                        if granted.contains(u) {
                            let rows = shared.execute(&s, Q).unwrap();
                            let expect = if u == "11" { 2 } else { 1 };
                            prop_assert_eq!(rows.rows().unwrap().rows.len(), expect);
                        }
                    }
                }
            }
        }
    }
}
