//! The one monotone count.
//!
//! Every statistic the engine and the server keep — cache hits and
//! misses, dropped entries, fast-path outcomes, request and connection
//! totals — is a [`Counter`]. It only goes up and is only read for
//! reporting, so a relaxed `fetch_add` is enough: the count publishes
//! no other data. The type offers no `store`, no compare-exchange and no
//! ordering parameter, so a counter cannot become a flag, an id source
//! or a lock gate, where a relaxed load would let a decision see stale
//! state. Those stay raw atomics, each allowed by name against the
//! workspace's `clippy::disallowed_types` ban with its orderings stated.

#![allow(
    clippy::disallowed_types,
    reason = "the one wrapper: a relaxed fetch_add and load on a count that publishes nothing"
)]

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone `u64` count: one relaxed `fetch_add` per [`Counter::add`].
/// A 64-bit count at 10^6 increments a second lasts half a million
/// years, so it never wraps in practice.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the count.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The count. Two reads of different counters are not a snapshot:
    /// an increment that lands between them shows in the second only.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}
