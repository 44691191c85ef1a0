//! fgac-lint: concurrency-correctness analysis over the engine's and
//! the server's own Rust sources.
//!
//! The paper's guarantees are operational: fail-closed denial and
//! no-stale-verdict under churn. Writer-only mutation of swept policy
//! state is the type system's job (`fgac_core::invalidation`); a
//! monotone count is an `fgac_types::Counter` and every other atomic
//! states its orderings against clippy's `disallowed_types` ban;
//! panic-freedom and checked wire arithmetic are clippy lints denied at
//! crate roots (DESIGN.md §4l); an error arm cannot accept, because
//! only an `fgac_core::Admitted` token runs a query. The rest neither
//! checks, and one inverted lock pair breaks it silently. This crate
//! checks it statically — one pass (L003, see `report.rs`) over a
//! token/function-stack source model (`source.rs`), emitting JSON
//! diagnostics in the same forward-compatible wire shape as
//! `crates/analyze/src/diag.rs` (`report.rs`). The dynamic counterpart
//! — ThreadSanitizer over the churn/server tests and Miri over the
//! wal/frame tests — runs in CI and covers the pass's blind spots.
//!
//! The pass reads a constant [`SCOPE`]: the engine and the server,
//! where guards from both layers nest.

pub mod passes;
pub mod report;
pub mod source;

use passes::{registry, SourceFile};
use report::{Finding, PassCode, PassSummary, Report};
use std::io;
use std::path::Path;
use std::time::Instant;

/// The workspace-relative directories the pass scans, recursively.
pub const SCOPE: &[&str] = &["crates/core/src", "crates/server/src"];

/// Workspace-relative paths (sorted, `/`-separated) of every `.rs`
/// file under [`SCOPE`]. A directory that does not exist contributes
/// nothing.
pub fn discover(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for dir in SCOPE {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let parts: Vec<_> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect();
            out.push(parts.join("/"));
        }
    }
    Ok(())
}

/// Reads and lexes every discovered file.
pub fn load_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for rel in discover(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile::from_source(rel, &src));
    }
    Ok(files)
}

/// Runs every registered pass.
pub fn run(root: &Path) -> io::Result<Report> {
    run_with_passes(root, report::ALL_CODES)
}

/// Runs only the listed passes — the seeded-violation tests use this to
/// prove each pass is individually load-bearing.
pub fn run_with_passes(root: &Path, enabled: &[PassCode]) -> io::Result<Report> {
    let started = Instant::now();
    let files = load_files(root)?;
    let refs: Vec<&SourceFile> = files.iter().collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut summaries: Vec<PassSummary> = Vec::new();

    for pass in registry() {
        let code = pass.code();
        if !enabled.contains(&code) {
            continue;
        }
        let pass_started = Instant::now();
        let found = pass.run(&refs);
        summaries.push(PassSummary {
            code: code.as_str().to_string(),
            name: code.name().to_string(),
            findings: found.len(),
            ms: pass_started.elapsed().as_millis(),
        });
        findings.extend(found);
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.code, &a.message).cmp(&(&b.file, b.line, b.code, &b.message))
    });

    Ok(Report {
        elapsed_ms: started.elapsed().as_millis(),
        files_scanned: files.len(),
        passes: summaries,
        findings,
    })
}
