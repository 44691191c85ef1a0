//! fgac-lint CLI: runs the `crates/lint` pass (L003) over the engine's
//! and the server's sources (`fgac_lint::SCOPE`) and reports findings.
//!
//! ```text
//! fgac-lint [--json] [--out FILE] [--root DIR] [--max-ms N]
//! ```
//!
//! - `--json` — emit the machine report (`lint-report.json` shape)
//!   to stdout instead of human-readable lines
//! - `--out FILE` — also write the JSON report to FILE
//! - `--root DIR` — workspace root (default: this package's manifest dir)
//! - `--max-ms N` — fail if the whole run took longer than N ms — CI's
//!   guarantee that the analyzer never becomes the slow step
//!
//! Exit codes: 0 clean, 1 findings / runtime gate exceeded, 2 usage or
//! I/O error. There is no configuration file: the scope is a constant
//! and there is no allowlist.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    json: bool,
    out: Option<PathBuf>,
    root: PathBuf,
    max_ms: Option<u128>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        out: None,
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        max_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                args.out = Some(PathBuf::from(v));
            }
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                args.root = PathBuf::from(v);
            }
            "--max-ms" => {
                let v = it.next().ok_or("--max-ms needs a number")?;
                let n: u128 = v
                    .parse()
                    .map_err(|_| format!("--max-ms: `{v}` is not a number"))?;
                args.max_ms = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgac-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match fgac_lint::run(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fgac-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, report.to_json()) {
            eprintln!("fgac-lint: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if args.json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        println!(
            "fgac-lint: {} file(s), {} pass(es), {} finding(s), {} ms",
            report.files_scanned,
            report.passes.len(),
            report.findings.len(),
            report.elapsed_ms
        );
    }

    let mut failed = false;
    if !report.findings.is_empty() {
        eprintln!(
            "fgac-lint: {} finding(s) — fix them in the code",
            report.findings.len()
        );
        failed = true;
    }
    if let Some(max) = args.max_ms {
        if report.elapsed_ms > max {
            eprintln!(
                "fgac-lint: run took {} ms, over the {max} ms budget — the analyzer must \
                 not become the slow step",
                report.elapsed_ms
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
