//! The seeded-violation corpus: every pass must fire on a fixture that
//! contains its bug, and go quiet when that one pass is disabled — so
//! each pass is individually load-bearing, not shadowed by another.
//! The clean fixture and the real tree prove the other direction: the
//! passes do not cry wolf.
//!
//! Each test stages its fixture into a scratch workspace at
//! `crates/core/src/lib.rs`, inside the lint's constant scope; the
//! out-of-scope test stages one under a crate the scope does not name.

use fgac_lint::report::{PassCode, ALL_CODES};
use fgac_lint::{run, run_with_passes};
use std::path::{Path, PathBuf};

/// Stages one fixture as `<dir>/lib.rs` of a scratch tree.
fn scratch_at(tag: &str, dir: &str, source: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!(
        "fgac-lint-seeded-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let src_dir = base.join(dir);
    std::fs::create_dir_all(&src_dir).expect("mkdir scratch tree");
    std::fs::write(src_dir.join("lib.rs"), source).expect("write fixture");
    base
}

/// Stages one fixture as `crates/core/src/lib.rs`, in scope.
fn scratch(tag: &str, source: &str) -> PathBuf {
    scratch_at(tag, "crates/core/src", source)
}

/// The fixture must trip `code`, and must stop tripping it when that
/// pass alone is removed from the run — with every *other* pass still
/// enabled, so a sibling pass cannot be masking a dead one.
fn assert_pass_is_load_bearing(code: PassCode, tag: &str, source: &str, min_findings: usize) {
    let root = scratch(tag, source);

    let full = run(&root).expect("lint scratch tree");
    let hits = full.findings.iter().filter(|f| f.code == code).count();
    assert!(
        hits >= min_findings,
        "{code:?} found {hits} of the >= {min_findings} seeded violations: {:?}",
        full.findings
    );

    let without: Vec<PassCode> = ALL_CODES.iter().copied().filter(|c| *c != code).collect();
    let disabled = run_with_passes(&root, &without).expect("lint with pass disabled");
    assert!(
        disabled.findings.iter().all(|f| f.code != code),
        "{code:?} findings survived disabling the pass: {:?}",
        disabled.findings
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn l003_lock_order_inversion_is_load_bearing() {
    let root = scratch("l003", include_str!("fixtures/seeded/l003.rs"));
    let full = run(&root).expect("lint scratch tree");
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
fn clean_fixture_stays_clean_under_every_pass() {
    let root = scratch("clean", include_str!("fixtures/clean/ok.rs"));
    let report = run(&root).expect("lint clean tree");
    assert!(
        report.is_clean(),
        "clean fixture produced findings: {:?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 1, "the staged file is in scope");
    let _ = std::fs::remove_dir_all(&root);
}

/// The scope is the engine and the server, nothing else: the L003
/// fixture staged in another crate is not scanned at all.
#[test]
fn files_outside_the_scope_are_not_scanned() {
    let root = scratch_at(
        "outside",
        "crates/seeded/src",
        include_str!("fixtures/seeded/l003.rs"),
    );
    let report = run(&root).expect("lint scratch tree");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        report.files_scanned, 0,
        "crates/seeded is outside the scope"
    );
    assert!(
        report.is_clean(),
        "out-of-scope findings: {:?}",
        report.findings
    );
}

/// The checked-in tree must lint clean: zero findings. This is the same
/// invariant CI enforces via the `fgac-lint` binary; keeping it in
/// `cargo test` means a violating change cannot land green locally.
#[test]
fn real_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = run(&root).expect("lint the workspace");
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
}
