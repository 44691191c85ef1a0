//! Grant-time policy linter — the CI face of `crates/analyze`.
//!
//! ```text
//! fgac-analyze [--json] [--for <principal>] [--query <sql>] <script.sql>...
//! fgac-analyze --flow [--json] [--for <principal>] <script.sql>...
//! fgac-analyze --diff-grant "GRANT VIEW v TO 'p'" [--json] <script.sql>...
//! fgac-analyze --certify --for <principal> [--json] [--query <sql>]
//!              [--workload <queries.sql>]... <script.sql>...
//! ```
//!
//! Each script is an admin DDL/grant script (`CREATE TABLE`,
//! `CREATE AUTHORIZATION VIEW`, `CREATE INCLUSION DEPENDENCY`,
//! `GRANT VIEW|CONSTRAINT|ROLE ... TO ...`, seed `INSERT`s) loaded into
//! a fresh engine with no access checks, exactly as a DBA would install
//! it. The installed policy set is then analyzed and every diagnostic
//! printed — human-readable by default, a JSON array with `--json`.
//!
//! With `--flow`, the whole-policy information-flow analysis
//! (`fgac_analyze::flow`, codes `F001`–`F003`) runs instead of the
//! policy lints: per-principal disclosure lattices, join-recombination
//! widening, constraint-mediated inference channels, and the Section
//! 5.4 probe-channel bound. With `--diff-grant <grant-sql>`, the given
//! `GRANT` statement is *not* applied; the tool reports what it would
//! newly disclose (`F004`) and any flow finding it would introduce —
//! the grant-time gate.
//!
//! With `--certify`, the tool instead runs a certification workload:
//! every `SELECT` in the `--workload` files (plus `--query`, if given)
//! is admitted as `--for <principal>` and, when accepted, its validity
//! certificate is re-verified by the independent checker. An accepted
//! query whose certificate fails verification — or a validator accept
//! with no certificate at all — fails the run. `--json` prints one JSON
//! array with each query's certificate (`null` for denied queries).
//!
//! Exit status: `0` when no diagnostic has error severity (or, under
//! `--certify`, every accepted query carried a verified certificate),
//! `1` on error-severity diagnostics / unverifiable accepts, `2` when a
//! script cannot be read or does not load.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

use fgac::analyze::{certificate_to_json, diagnostics_to_json, Severity};
use fgac::prelude::*;

struct Args {
    json: bool,
    certify: bool,
    flow: bool,
    diff_grant: Option<String>,
    principal: Option<String>,
    query: Option<String>,
    workloads: Vec<String>,
    scripts: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fgac-analyze [--json] [--certify] [--flow] [--diff-grant <grant-sql>] \
         [--for <principal>] [--query <sql>] [--workload <queries.sql>]... <script.sql>..."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        json: false,
        certify: false,
        flow: false,
        diff_grant: None,
        principal: None,
        query: None,
        workloads: Vec::new(),
        scripts: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--certify" => args.certify = true,
            "--flow" => args.flow = true,
            "--diff-grant" => match it.next() {
                Some(g) => args.diff_grant = Some(g),
                None => usage(),
            },
            "--for" => match it.next() {
                Some(p) => args.principal = Some(p),
                None => usage(),
            },
            "--query" => match it.next() {
                Some(q) => args.query = Some(q),
                None => usage(),
            },
            "--workload" => match it.next() {
                Some(w) => args.workloads.push(w),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => usage(),
            _ => args.scripts.push(a),
        }
    }
    if args.scripts.is_empty() {
        usage();
    }
    if args.certify && args.principal.is_none() {
        eprintln!("fgac-analyze: --certify requires --for <principal>");
        usage();
    }
    if args.certify && (args.flow || args.diff_grant.is_some()) {
        eprintln!("fgac-analyze: --certify cannot combine with --flow/--diff-grant");
        usage();
    }
    args
}

/// Reads the certification workload: every `SELECT` statement in the
/// `--workload` files plus the `--query` flag, in order.
fn workload_queries(args: &Args) -> Vec<String> {
    let mut queries = Vec::new();
    for path in &args.workloads {
        let sql = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fgac-analyze: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let stmts = match fgac::sql::parse_statements(&sql) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fgac-analyze: {path} does not parse: {e}");
                std::process::exit(2);
            }
        };
        for stmt in stmts {
            if let fgac::sql::Statement::Query(q) = stmt {
                queries.push(fgac::sql::print_query(&q));
            }
        }
    }
    if let Some(q) = &args.query {
        queries.push(q.clone());
    }
    if queries.is_empty() {
        eprintln!("fgac-analyze: --certify needs at least one --workload or --query");
        std::process::exit(2);
    }
    queries
}

/// The `--certify` mode: admit each workload query as the principal and
/// demand a checker-verified certificate for every accept.
fn run_certify(args: &Args) -> ! {
    let principal = args.principal.as_deref().unwrap_or_default();
    let queries = workload_queries(args);
    let mut failures = 0usize;
    let mut json_rows: Vec<String> = Vec::new();

    for path in &args.scripts {
        let sql = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fgac-analyze: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let mut engine = Engine::new();
        if let Err(e) = engine.admin_script(&sql) {
            eprintln!("fgac-analyze: {path} does not load: {e}");
            std::process::exit(2);
        }
        let session = Session::new(principal);
        for q in &queries {
            match engine.certify(&session, q) {
                Ok(report) if report.is_valid() => {
                    // certify() only returns a valid report after the
                    // independent checker verified the certificate.
                    if let Some(cert) = &report.certificate {
                        if !args.json {
                            println!(
                                "CERTIFIED ({} step(s), {:?}): {q}",
                                cert.steps.len(),
                                cert.verdict
                            );
                        }
                        json_rows.push(certificate_to_json(cert));
                    }
                }
                Ok(report) => {
                    if !args.json {
                        let why = report.reason.as_deref().unwrap_or("not authorized");
                        println!("DENIED ({why}): {q}");
                    }
                    json_rows.push("null".to_string());
                }
                Err(e) => {
                    eprintln!("fgac-analyze: {path}: UNVERIFIED accept of `{q}`: {e}");
                    json_rows.push("null".to_string());
                    failures += 1;
                }
            }
        }
    }

    if args.json {
        println!("[{}]", json_rows.join(","));
    }
    if failures > 0 {
        eprintln!("fgac-analyze: {failures} query(ies) without a verifiable certificate");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Parses the `--diff-grant` operand: exactly one `GRANT` statement.
fn parse_proposed_grant(sql: &str) -> fgac::analyze::ProposedGrant {
    match fgac::sql::parse_statement(sql) {
        Ok(fgac::sql::Statement::Grant(g)) => fgac::analyze::ProposedGrant {
            kind: g.kind,
            object: g.object,
            principal: g.principal,
        },
        Ok(_) => {
            eprintln!("fgac-analyze: --diff-grant takes a GRANT statement, got `{sql}`");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("fgac-analyze: --diff-grant does not parse: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = parse_args();
    if args.certify {
        run_certify(&args);
    }
    let mut diags: Vec<Diagnostic> = Vec::new();

    for path in &args.scripts {
        let sql = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fgac-analyze: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let mut engine = Engine::new();
        if let Err(e) = engine.admin_script(&sql) {
            eprintln!("fgac-analyze: {path} does not load: {e}");
            std::process::exit(2);
        }
        if let Some(grant_sql) = &args.diff_grant {
            diags.extend(engine.flow_diff_grant(&parse_proposed_grant(grant_sql)));
        } else if args.flow {
            diags.extend(engine.analyze_flow(args.principal.as_deref()));
        } else {
            diags.extend(engine.analyze_policy(args.principal.as_deref()));
        }
        if let Some(q) = &args.query {
            diags.extend(fgac::analyze::analyze_query(
                engine.database().catalog(),
                q,
                &fgac::analyze::AnalyzeOptions::default(),
            ));
        }
    }

    if args.json {
        println!("{}", diagnostics_to_json(&diags));
    } else if diags.is_empty() {
        println!("policy set is clean: no diagnostics");
    } else {
        for d in &diags {
            println!("{d}");
        }
    }

    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    if errors > 0 {
        eprintln!("fgac-analyze: {errors} error-severity diagnostic(s)");
        std::process::exit(1);
    }
}
