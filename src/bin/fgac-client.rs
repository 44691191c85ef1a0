//! `fgac-client` — drive a running `fgac-server` from the shell.
//!
//! ```text
//! fgac-client --addr HOST:PORT --user PRINCIPAL \
//!             [-e SQL]... [--file SCRIPT.sql] [--admin-script SQL] \
//!             [--deadline-ms N] [--timeout-ms N] [--metrics] [--lax]
//! ```
//!
//! Statements run in the order their flags appear. Each statement
//! prints one status line whose first token is machine-greppable
//! (`ROWS n`, `AFFECTED n`, `OK`, `DENIED`, `ERROR`, `SHED`,
//! `TIMEOUT`, `UNAVAILABLE`, `PROTOCOL`), with result rows indented
//! beneath. The CI smoke job drives a served store with this tool and
//! asserts on those tokens.
//!
//! Exit status: 2 on usage errors, 1 on transport errors, 3 if any
//! statement's response was not `ROWS`/`AFFECTED`/`OK` (suppress with
//! `--lax` when a rejection is the expected outcome), else 0.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

use fgac_server::{AdminOp, Client, Request, Response};
use std::time::Duration;

enum Op {
    Sql(String),
    Admin(String),
}

struct Args {
    addr: String,
    user: String,
    ops: Vec<Op>,
    deadline_ms: Option<u64>,
    timeout_ms: u64,
    metrics: bool,
    lax: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        user: "anonymous".into(),
        ops: Vec::new(),
        deadline_ms: None,
        timeout_ms: 5_000,
        metrics: false,
        lax: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--user" => args.user = value("--user")?,
            "-e" => args.ops.push(Op::Sql(value("-e")?)),
            "--admin-script" => args.ops.push(Op::Admin(value("--admin-script")?)),
            "--file" => {
                let path = value("--file")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {path}: {e}"))?;
                for stmt in split_statements(&text) {
                    args.ops.push(Op::Sql(stmt));
                }
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(parse_num(&value("--deadline-ms")?)?);
            }
            "--timeout-ms" => args.timeout_ms = parse_num(&value("--timeout-ms")?)?,
            "--metrics" => args.metrics = true,
            "--lax" => args.lax = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr HOST:PORT is required".into());
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("not a number: {s}"))
}

/// Strips `--` line comments and splits on `;`, dropping empties — the
/// same shape the repo's example workload files use.
fn split_statements(text: &str) -> Vec<String> {
    let stripped: Vec<&str> = text
        .lines()
        .map(|line| match line.find("--") {
            Some(i) => &line[..i],
            None => line,
        })
        .collect();
    stripped
        .join("\n")
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Prints the status line (and rows) for one response; returns whether
/// it counts as a success for the exit status.
fn report(response: &Response) -> bool {
    match response {
        Response::Rows { names, rows } => {
            println!("ROWS {}", rows.len());
            let header: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            println!("  {}", header.join("\t"));
            for row in rows {
                let cells: Vec<String> = row.0.iter().map(|v| v.to_string()).collect();
                println!("  {}", cells.join("\t"));
            }
            true
        }
        Response::Affected(n) => {
            println!("AFFECTED {n}");
            true
        }
        Response::Ok(m) => {
            println!("OK {m}");
            true
        }
        Response::Denied(m) => {
            println!("DENIED {m}");
            false
        }
        Response::Error(m) => {
            println!("ERROR {m}");
            false
        }
        Response::Shed(m) => {
            println!("SHED {m}");
            false
        }
        Response::Timeout(m) => {
            println!("TIMEOUT {m}");
            false
        }
        Response::Unavailable(m) => {
            println!("UNAVAILABLE {m}");
            false
        }
        Response::Protocol(m) => {
            println!("PROTOCOL {m}");
            false
        }
    }
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgac-client: {e}");
            return 2;
        }
    };
    let timeout = Duration::from_millis(args.timeout_ms);
    let mut client = match Client::connect(args.addr.as_str(), timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fgac-client: {e}");
            return 1;
        }
    };
    match client.hello(&args.user) {
        Ok(Response::Ok(_)) => {}
        Ok(other) => {
            eprintln!("fgac-client: handshake rejected: {other:?}");
            return 1;
        }
        Err(e) => {
            eprintln!("fgac-client: handshake: {e}");
            return 1;
        }
    }

    let mut rejected = 0usize;
    for op in &args.ops {
        let outcome = match op {
            Op::Sql(sql) => client.call(&Request::Query {
                sql: sql.clone(),
                deadline_ms: args.deadline_ms,
            }),
            Op::Admin(script) => client.admin(AdminOp::Script(script.clone())),
        };
        match outcome {
            Ok(response) => {
                if !report(&response) {
                    rejected += 1;
                }
            }
            Err(e) => {
                eprintln!("fgac-client: {e}");
                return 1;
            }
        }
    }

    if args.metrics {
        match client.metrics() {
            Ok(counters) => {
                for (name, value) in counters {
                    println!("METRIC {name}={value}");
                }
            }
            Err(e) => {
                eprintln!("fgac-client: metrics: {e}");
                return 1;
            }
        }
    }
    if let Err(e) = client.bye() {
        eprintln!("fgac-client: bye: {e}");
        return 1;
    }
    if rejected > 0 && !args.lax {
        eprintln!("fgac-client: {rejected} statement(s) rejected");
        return 3;
    }
    0
}
