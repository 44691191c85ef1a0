//! Server-side observability counters.
//!
//! One [`Counter`] per named event: every count is monotone and
//! independently meaningful, so no cross-counter consistency is needed.
//! The `METRICS` command renders a snapshot as a two-column result set,
//! folding in the engine's own cache statistics and the Non-Truman C3
//! probe count so a load test can see cache behavior without
//! instrumenting the engine.

use fgac_types::Counter;

use crate::protocol::st;

macro_rules! counters {
    ($($name:ident),+ $(,)?) => {
        /// All server counters; one [`Counter`] per named event.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $(pub $name: Counter,)+
        }

        impl Metrics {
            pub fn new() -> Self {
                Self::default()
            }

            /// (label, value) pairs in declaration order; each label is
            /// its field's name.
            pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name.get()),)+]
            }
        }
    };
}

counters! {
    conns_accepted,
    conns_refused,
    conns_panicked,
    conns_idle_timeout,
    conns_stalled,
    frames_corrupt,
    requests,
    resp_rows,
    resp_affected,
    resp_ok,
    resp_denied,
    resp_error,
    resp_shed,
    resp_timeout,
    resp_unavailable,
    resp_protocol,
    worker_panics,
    drain_shed,
}

/// The compiled-authorization fast-path rows for the `METRICS` result
/// set: process-wide hit/miss/compile counters plus the per-engine
/// `compiled_principals` gauge the caller reads under the engine lock.
pub fn compiled_policy_rows(compiled_principals: u64) -> Vec<(&'static str, u64)> {
    vec![
        ("fastpath_hit", fgac_core::compiled::fastpath_hit_count()),
        ("fastpath_miss", fgac_core::compiled::fastpath_miss_count()),
        ("compile_count", fgac_core::compiled::compile_count()),
        ("compiled_principals", compiled_principals),
    ]
}

/// Churn-survival rows for the `METRICS` result set: how policy and
/// schema changes were absorbed. Process-wide change counters plus the
/// per-engine invalidation/revalidation gauges the caller reads under
/// the engine lock.
pub fn invalidation_rows(e: &fgac_core::Engine) -> Vec<(&'static str, u64)> {
    let (reval_hits, reval_misses) = e.cache().revalidation_stats();
    vec![
        ("policy_changes", fgac_core::invalidation::policy_change_count()),
        ("full_invalidations", fgac_core::invalidation::full_invalidation_count()),
        ("validity_cache_invalidated", e.cache().invalidated_entries()),
        ("validity_cache_revalidation_hits", reval_hits),
        ("validity_cache_revalidation_misses", reval_misses),
        ("plan_cache_invalidated", e.plan_cache().invalidated_entries()),
    ]
}

/// Flow-analysis rows for the `METRICS` result set: process-wide
/// `ANALYZE FLOW` counters plus the per-engine cache gauges the caller
/// reads under the engine lock.
pub fn flow_rows(e: &fgac_core::Engine) -> Vec<(&'static str, u64)> {
    let (fresh, total) = e.flow_cache_stats();
    vec![
        ("flow_analyses", fgac_core::flowcache::flow_analysis_count()),
        (
            "flow_principals_computed",
            fgac_core::flowcache::flow_principals_computed(),
        ),
        ("flow_cache_hits", fgac_core::flowcache::flow_cache_hits()),
        ("flow_cache_fresh", fresh as u64),
        ("flow_cache_entries", total as u64),
    ]
}

impl Metrics {
    /// Counts one outgoing response by its wire status. Called exactly
    /// once per response frame written, so the `resp_*` counters sum to
    /// the number of answers clients actually received.
    pub fn record_status(&self, status: u8) {
        let counter = match status {
            st::ROWS => &self.resp_rows,
            st::AFFECTED => &self.resp_affected,
            st::OK => &self.resp_ok,
            st::DENIED => &self.resp_denied,
            st::ERROR => &self.resp_error,
            st::SHED => &self.resp_shed,
            st::TIMEOUT => &self.resp_timeout,
            st::UNAVAILABLE => &self.resp_unavailable,
            st::PROTOCOL => &self.resp_protocol,
            _ => &self.resp_error,
        };
        counter.add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_route_to_their_counters() {
        let m = Metrics::new();
        m.record_status(st::ROWS);
        m.record_status(st::SHED);
        m.record_status(st::SHED);
        m.record_status(st::DENIED);
        assert_eq!(m.resp_rows.get(), 1);
        assert_eq!(m.resp_shed.get(), 2);
        assert_eq!(m.resp_denied.get(), 1);
        assert_eq!(m.resp_timeout.get(), 0);
    }

    #[test]
    fn snapshot_carries_every_counter() {
        let m = Metrics::new();
        m.requests.add(1);
        let snap = m.snapshot();
        assert!(snap.iter().any(|(k, v)| *k == "requests" && *v == 1));
        assert!(snap.iter().any(|(k, _)| *k == "drain_shed"));
    }
}
