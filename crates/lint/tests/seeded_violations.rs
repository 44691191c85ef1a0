//! The seeded-violation corpus: every pass must fire on a fixture that
//! contains its bug, and go quiet when that one pass is disabled — so
//! each pass is individually load-bearing, not shadowed by another.
//! The clean fixture and the real tree prove the other direction: the
//! passes do not cry wolf.
//!
//! Each test stages its fixture into a scratch workspace (an unlisted
//! crate under `crates/`), which doubles as the opt-out discovery
//! check: nothing registers the scratch crate anywhere, yet it is
//! scanned.

use fgac_lint::config::Config;
use fgac_lint::report::{PassCode, ALL_CODES};
use fgac_lint::{run, run_with_passes};
use std::path::{Path, PathBuf};

/// Stages one fixture as `crates/seeded/src/lib.rs` of a scratch tree.
fn scratch(tag: &str, source: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!(
        "fgac-lint-seeded-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let src_dir = base.join("crates/seeded/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir scratch tree");
    std::fs::write(src_dir.join("lib.rs"), source).expect("write fixture");
    base
}

/// The fixture must trip `code`, and must stop tripping it when that
/// pass alone is removed from the run — with every *other* pass still
/// enabled, so a sibling pass cannot be masking a dead one.
fn assert_pass_is_load_bearing(code: PassCode, tag: &str, source: &str, min_findings: usize) {
    let root = scratch(tag, source);
    let cfg = Config::default();

    let full = run(&root, &cfg).expect("lint scratch tree");
    let hits = full.findings.iter().filter(|f| f.code == code).count();
    assert!(
        hits >= min_findings,
        "{code:?} found {hits} of the >= {min_findings} seeded violations: {:?}",
        full.findings
    );

    let without: Vec<PassCode> = ALL_CODES.iter().copied().filter(|c| *c != code).collect();
    let disabled = run_with_passes(&root, &cfg, &without).expect("lint with pass disabled");
    assert!(
        disabled.findings.iter().all(|f| f.code != code),
        "{code:?} findings survived disabling the pass: {:?}",
        disabled.findings
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn l002_relaxed_sync_decision_is_load_bearing() {
    let root = scratch("l002", include_str!("fixtures/seeded/l002.rs"));
    let cfg = Config::default();
    let full = run(&root, &cfg).expect("lint scratch tree");
    // The loop-gate load is a decision finding; the two Relaxed sites
    // also lack a [[relaxed]] ledger entry in the default config.
    assert!(
        full.findings
            .iter()
            .any(|f| f.code == PassCode::RelaxedSyncDecision
                && f.message.contains("decision position")),
        "seeded Relaxed loop gate not flagged: {:?}",
        full.findings
    );
    assert!(
        full.findings
            .iter()
            .any(|f| f.code == PassCode::RelaxedSyncDecision
                && f.message.contains("no [[relaxed]] audit entry")),
        "unaudited Relaxed sites not flagged: {:?}",
        full.findings
    );
    let _ = std::fs::remove_dir_all(&root);
    assert_pass_is_load_bearing(
        PassCode::RelaxedSyncDecision,
        "l002b",
        include_str!("fixtures/seeded/l002.rs"),
        1,
    );
}

#[test]
fn l003_lock_order_inversion_is_load_bearing() {
    let root = scratch("l003", include_str!("fixtures/seeded/l003.rs"));
    let cfg = Config::default();
    let full = run(&root, &cfg).expect("lint scratch tree");
    let l003: Vec<_> = full
        .findings
        .iter()
        .filter(|f| f.code == PassCode::LockOrderInversion)
        .collect();
    // One cycle (alpha/beta) and one read→write upgrade.
    assert!(
        l003.iter().any(|f| f.message.contains("alpha")),
        "seeded alpha/beta cycle not flagged: {:?}",
        full.findings
    );
    assert!(
        l003.iter().any(|f| f.message.contains("read")),
        "seeded read→write upgrade not flagged: {:?}",
        full.findings
    );
    let _ = std::fs::remove_dir_all(&root);
    assert_pass_is_load_bearing(
        PassCode::LockOrderInversion,
        "l003b",
        include_str!("fixtures/seeded/l003.rs"),
        2,
    );
}

#[test]
fn l004_error_path_must_deny_is_load_bearing() {
    assert_pass_is_load_bearing(
        PassCode::ErrorPathMustDeny,
        "l004",
        include_str!("fixtures/seeded/l004.rs"),
        2, // accepting Err arm + unwrap_or(true)
    );
}

#[test]
fn clean_fixture_stays_clean_under_every_pass() {
    let root = scratch("clean", include_str!("fixtures/clean/ok.rs"));
    let report = run(&root, &Config::default()).expect("lint clean tree");
    assert!(
        report.is_clean(),
        "clean fixture produced findings: {:?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 1, "the unlisted scratch crate is scanned");
    let _ = std::fs::remove_dir_all(&root);
}

/// The checked-in configuration must hold against the checked-in tree:
/// zero findings, zero unused allowlist entries. This is the same
/// invariant CI enforces via the `fgac-lint` binary; keeping it in
/// `cargo test` means a violating change cannot land green locally.
#[test]
fn real_tree_is_clean_under_checked_in_config() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("read lint.toml");
    let cfg = Config::parse(&toml).expect("parse lint.toml");
    let report = run(&root, &cfg).expect("lint the workspace");
    assert!(
        report.is_clean(),
        "the workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale allowlist entries: {:?}",
        report.unused_allows
    );
}
