//! Test-only fault injection (compiled under `feature = "fault-injection"`).
//!
//! Instrumented sites in the storage and execution layers call
//! [`hit`] with a stable site name; tests arm a site with [`arm`] to
//! make its Nth hit return an error or panic. The registry is
//! thread-local so concurrently running tests cannot trip each other's
//! faults. With nothing armed, `hit` is a counter increment and the
//! instrumented code behaves exactly as in a normal build.
//!
//! Multi-threaded subsystems (the `fgac-server` connection and worker
//! threads) never share the arming thread's registry, so sites in the
//! wire layer are armed **globally** with [`arm_global`]: every thread's
//! [`hit`] consults the global registry after its thread-local one.
//! Tests that arm globally must serialize against each other (they
//! share one process-wide registry); the server test suite does this
//! with a file-local mutex.

use crate::{Error, Result};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;

/// What an armed site does when its trigger count is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Return `Error::Internal` on the Nth hit (1-based).
    ErrorOnNth(u64),
    /// Panic on the Nth hit (1-based) — exercises unwind isolation.
    PanicOnNth(u64),
}

thread_local! {
    static ARMED: RefCell<HashMap<&'static str, (Fault, u64)>> =
        RefCell::new(HashMap::new());
}

/// Sites armed for *every* thread (see [`arm_global`]). A std mutex —
/// this is cold test-only machinery and must not depend on the rest of
/// the workspace.
static GLOBAL_ARMED: Mutex<Option<HashMap<&'static str, (Fault, u64)>>> = Mutex::new(None);

fn with_global<T>(f: impl FnOnce(&mut HashMap<&'static str, (Fault, u64)>) -> T) -> T {
    let mut guard = GLOBAL_ARMED.lock().unwrap_or_else(|p| p.into_inner());
    f(guard.get_or_insert_with(HashMap::new))
}

/// Arms `site` with `fault`, resetting its hit counter.
pub fn arm(site: &'static str, fault: Fault) {
    ARMED.with(|m| {
        m.borrow_mut().insert(site, (fault, 0));
    });
}

/// Arms `site` for **all threads** — required for sites that fire on
/// server worker/connection threads, which never see the test thread's
/// thread-local registry. A site armed both locally and globally fires
/// (and counts) on the thread-local arming only.
pub fn arm_global(site: &'static str, fault: Fault) {
    with_global(|m| {
        m.insert(site, (fault, 0));
    });
}

/// Disarms every site and clears all hit counters — both this thread's
/// registry and the process-global one.
pub fn disarm_all() {
    ARMED.with(|m| m.borrow_mut().clear());
    with_global(|m| m.clear());
}

/// Number of times `site` has been hit since it was armed (thread-local
/// count if armed here, otherwise the global count).
pub fn hits(site: &str) -> u64 {
    let local = ARMED.with(|m| m.borrow().get(site).map(|(_, n)| *n));
    match local {
        Some(n) => n,
        None => with_global(|m| m.get(site).map_or(0, |(_, n)| *n)),
    }
}

fn fire_decision(fault: Fault, n: u64) -> Option<(bool, u64)> {
    match fault {
        Fault::ErrorOnNth(target) if n == target => Some((false, n)),
        Fault::PanicOnNth(target) if n == target => Some((true, n)),
        _ => None,
    }
}

/// Called by instrumented code. Counts the hit and fires the armed
/// fault when the trigger count is reached. Checks the thread-local
/// registry first; a site not armed there falls through to the global
/// registry.
pub fn hit(site: &str) -> Result<()> {
    let fire = ARMED.with(|m| {
        let mut m = m.borrow_mut();
        match m.get_mut(site) {
            Some((fault, count)) => {
                *count += 1;
                Some(fire_decision(*fault, *count))
            }
            None => None,
        }
    });
    let fire = match fire {
        Some(decision) => decision,
        None => with_global(|m| {
            let (fault, count) = match m.get_mut(site) {
                Some(entry) => entry,
                None => return None,
            };
            *count += 1;
            fire_decision(*fault, *count)
        }),
    };
    match fire {
        None => Ok(()),
        Some((false, n)) => Err(Error::Internal(format!(
            "injected fault at {site} (hit {n})"
        ))),
        #[allow(
            clippy::panic,
            reason = "an armed panic fault must panic; only fault-injection builds have it"
        )]
        Some((true, n)) => panic!("injected panic at {site} (hit {n})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test here calls [`disarm_all`], which clears the
    /// process-global registry; run in parallel, one test's cleanup
    /// disarms the site another just armed globally. They take turns.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn unarmed_site_is_a_no_op() {
        let _turn = serial();
        disarm_all();
        assert!(hit("nowhere").is_ok());
        assert_eq!(hits("nowhere"), 0);
    }

    #[test]
    fn error_fires_on_nth_hit_only() {
        let _turn = serial();
        disarm_all();
        arm("site", Fault::ErrorOnNth(2));
        assert!(hit("site").is_ok());
        let err = hit("site").unwrap_err();
        assert!(matches!(err, Error::Internal(_)));
        // After firing, later hits pass again (one-shot trigger).
        assert!(hit("site").is_ok());
        assert_eq!(hits("site"), 3);
        disarm_all();
    }

    #[test]
    fn panic_fires_on_nth_hit() {
        let _turn = serial();
        disarm_all();
        arm("psite", Fault::PanicOnNth(1));
        let r = std::panic::catch_unwind(|| hit("psite"));
        assert!(r.is_err());
        disarm_all();
    }

    #[test]
    fn global_arming_fires_on_other_threads() {
        let _turn = serial();
        disarm_all();
        arm_global("gsite-xthread", Fault::ErrorOnNth(2));
        let handle = std::thread::spawn(|| {
            let first = hit("gsite-xthread");
            let second = hit("gsite-xthread");
            (first.is_ok(), second.is_err())
        });
        let (first_ok, second_err) = handle.join().unwrap();
        assert!(first_ok && second_err, "global fault did not fire across threads");
        assert_eq!(hits("gsite-xthread"), 2);
        disarm_all();
        assert!(hit("gsite-xthread").is_ok());
    }

    #[test]
    fn thread_local_arming_shadows_global() {
        let _turn = serial();
        disarm_all();
        arm_global("shadowed", Fault::ErrorOnNth(1));
        arm("shadowed", Fault::ErrorOnNth(2));
        // Thread-local wins: first hit passes (local target is 2).
        assert!(hit("shadowed").is_ok());
        assert!(hit("shadowed").is_err());
        // The global counter never moved.
        ARMED.with(|m| m.borrow_mut().clear());
        assert_eq!(hits("shadowed"), 0);
        disarm_all();
    }
}
