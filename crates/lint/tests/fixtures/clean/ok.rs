//! Clean fixture: every pass runs over this file and none may fire.
//! Acquire-ordered decisions, consistent lock order, fail-closed error
//! paths.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

pub static STOP: AtomicBool = AtomicBool::new(false);

pub struct Shards {
    pub alpha: Mutex<u64>,
    pub beta: Mutex<u64>,
}

pub fn drain(shards: &Shards) -> u64 {
    let mut total = 0;
    while !STOP.load(Ordering::Acquire) {
        let a = shards.alpha.lock();
        let b = shards.beta.lock();
        total += a.map(|g| *g).unwrap_or_default() + b.map(|g| *g).unwrap_or_default();
    }
    total
}

pub fn admit(q: &str) -> bool {
    match q.parse::<u64>() {
        Ok(n) => n > 0,
        Err(_) => false,
    }
}
