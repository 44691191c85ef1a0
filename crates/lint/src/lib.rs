//! fgac-lint: multi-pass concurrency-correctness analysis over the
//! workspace's own Rust sources.
//!
//! The paper's guarantees are operational: fail-closed denial and
//! no-stale-verdict under churn. Writer-only mutation of swept policy
//! state is the type system's job (`fgac_core::invalidation`);
//! panic-freedom and checked wire arithmetic are clippy's, denied at
//! crate roots (DESIGN.md §4l). The rest neither checks, and a single
//! mis-ordered atomic breaks it silently. This crate checks it
//! statically — three passes (L002–L004, see `report.rs`) over a
//! shared token/function-stack source model (`source.rs`), scoped and
//! allowlisted by the checked-in `lint.toml` (`config.rs`), emitting
//! JSON diagnostics in the same forward-compatible wire shape as
//! `crates/analyze/src/diag.rs` (`report.rs`). The dynamic counterpart
//! — ThreadSanitizer over the churn/server tests and Miri over the
//! wal/frame tests — runs in CI and covers the passes' blind spots.
//!
//! Discovery is opt-out: every `.rs` file under the configured roots is
//! scanned unless excluded, so a new crate is linted the day it lands.

pub mod config;
pub mod passes;
pub mod report;
pub mod source;

use config::Config;
use passes::{registry, SourceFile};
use report::{Finding, PassCode, PassSummary, Report};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Workspace-relative paths (sorted, `/`-separated) of every `.rs`
/// file in scope.
pub fn discover(root: &Path, cfg: &Config) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in &cfg.scope.roots {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, cfg, &mut out)?;
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, cfg: &Config, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !cfg.scope.exclude_dirs.contains(&name) {
                walk(&path, root, cfg, out)?;
            }
            continue;
        }
        if !name.ends_with(".rs") {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if cfg
            .scope
            .exclude_files
            .iter()
            .any(|x| rel.starts_with(x.as_str()))
        {
            continue;
        }
        out.push(rel);
    }
    Ok(())
}

/// Reads and lexes every discovered file.
pub fn load_files(root: &Path, cfg: &Config) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for rel in discover(root, cfg)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile::from_source(rel, &src));
    }
    Ok(files)
}

/// Runs every registered pass.
pub fn run(root: &Path, cfg: &Config) -> io::Result<Report> {
    run_with_passes(root, cfg, report::ALL_CODES)
}

/// Runs only the listed passes — the seeded-violation tests use this to
/// prove each pass is individually load-bearing.
pub fn run_with_passes(root: &Path, cfg: &Config, enabled: &[PassCode]) -> io::Result<Report> {
    let started = Instant::now();
    let files = load_files(root, cfg)?;
    let mut findings: Vec<Finding> = Vec::new();
    let mut summaries: Vec<PassSummary> = Vec::new();
    let mut used_allows = vec![false; cfg.allows.len()];

    for pass in registry() {
        let code = pass.code();
        if !enabled.contains(&code) || cfg.pass(code.as_str()).disabled {
            continue;
        }
        let scoped: Vec<&SourceFile> = files
            .iter()
            .filter(|f| cfg.pass_in_scope(code.as_str(), &f.path))
            .collect();
        let pass_started = Instant::now();
        let raw = pass.run(&scoped, cfg);
        let mut kept = 0usize;
        for finding in raw {
            match cfg.allow_index(code.as_str(), &finding.file, &finding.message) {
                Some(idx) => used_allows[idx] = true,
                None => {
                    kept += 1;
                    findings.push(finding);
                }
            }
        }
        summaries.push(PassSummary {
            code: code.as_str().to_string(),
            name: code.name().to_string(),
            findings: kept,
            ms: pass_started.elapsed().as_millis(),
        });
    }

    let unused_allows = cfg
        .allows
        .iter()
        .zip(&used_allows)
        .filter(|(_, used)| !**used)
        .map(|(a, _)| format!("{} {} ({})", a.pass, a.file, a.reason))
        .collect();

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.code, &a.message).cmp(&(&b.file, b.line, b.code, &b.message))
    });

    Ok(Report {
        elapsed_ms: started.elapsed().as_millis(),
        files_scanned: files.len(),
        passes: summaries,
        unused_allows,
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Discovery walks a scratch tree opt-out: unlisted files are in,
    /// excluded dirs/files are out.
    #[test]
    fn discovery_is_opt_out() {
        let base = std::env::temp_dir().join(format!("fgac-lint-disc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        for d in ["crates/newcrate/src", "crates/newcrate/tests", "crates/old/src", "src/bin"] {
            std::fs::create_dir_all(base.join(d)).expect("mkdir");
        }
        for f in [
            "crates/newcrate/src/fresh.rs",
            "crates/newcrate/tests/it.rs",
            "crates/old/src/lib.rs",
            "crates/old/src/skipme.rs",
            "src/bin/tool.rs",
            "src/bin/notes.md",
        ] {
            std::fs::write(base.join(f), "fn x() {}\n").expect("write");
        }
        let mut cfg = Config::default();
        cfg.scope.exclude_files.push("crates/old/src/skipme.rs".into());
        let got = discover(&base, &cfg).expect("discover");
        let _ = std::fs::remove_dir_all(&base);
        assert_eq!(
            got,
            vec![
                "crates/newcrate/src/fresh.rs".to_string(),
                "crates/old/src/lib.rs".to_string(),
                "src/bin/tool.rs".to_string(),
            ],
            "unlisted .rs files are scanned by default; tests/, excluded files, \
             and non-Rust files are not"
        );
    }
}
