//! An interactive shell for the fgac engine — the "software layer that
//! can add fine-grained authorization to an existing database or
//! application" the paper's conclusion envisions.
//!
//! ```text
//! cargo run --bin fgac-repl              # start with an empty engine
//! cargo run --bin fgac-repl -- --demo    # preload the university demo
//! ```
//!
//! Meta-commands (see `\help` inside the shell):
//!
//! ```text
//! \admin <sql>;        run DDL/DML as the DBA (no checks)
//! \user <id>           switch the session user
//! \param <name> <val>  set a session parameter (e.g. \param hour 13)
//! \grant <user> <view> grant an authorization view
//! \constraint <user> <name>   make a constraint visible
//! \authorize <user> <authorize-stmt>;  grant an update authorization
//! \check <sql>;        explain validity without executing
//! \truman <table> <view>    set a Truman substitution policy
//! \truman-run <sql>;   run a query under the Truman policy
//! \plan <sql>;         show the optimizer's chosen plan
//! \views               list catalog views
//! \tables              list tables with row counts
//! ```
//!
//! Anything else is executed as the current user under the Non-Truman
//! model.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

use fgac::prelude::*;
use fgac::workload::university::{build, UniversityConfig};
use std::io::{BufRead, Write};

fn main() {
    let demo = std::env::args().any(|a| a == "--demo");
    let mut engine = if demo {
        match build(UniversityConfig::tiny()) {
            Ok(uni) => {
                println!("loaded the university demo (tiny). try: \\user s000000");
                uni.engine
            }
            Err(e) => {
                eprintln!("fgac-repl: demo fixture failed to build: {e}");
                std::process::exit(1);
            }
        }
    } else {
        Engine::new()
    };
    let mut session = Session::new("admin");
    let mut params: Vec<(String, String)> = Vec::new();
    let mut truman = TrumanPolicy::new();

    println!("fgac repl — Non-Truman fine-grained access control");
    println!("type \\help for commands; SQL runs as user `{}`", session.user());

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("{}> ", session.user());
        } else {
            print!("   ...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }

        // Meta-commands act immediately; SQL accumulates to `;`.
        if buffer.is_empty() && line.starts_with('\\') {
            let mut parts = line.splitn(3, ' ');
            let cmd = parts.next().unwrap_or("");
            let a = parts.next().unwrap_or("").to_string();
            let b = parts.next().unwrap_or("").to_string();
            match cmd {
                "\\quit" | "\\q" => break,
                "\\help" => print_help(),
                "\\user" => {
                    session = Session::new(a.clone());
                    for (k, v) in &params {
                        session = session.with_param(k, v.as_str());
                    }
                    println!("now user `{a}`");
                }
                "\\param" => {
                    params.push((a.clone(), b.clone()));
                    session = Session::new(session.user().to_string());
                    for (k, v) in &params {
                        session = session.with_param(k, v.as_str());
                    }
                    println!("set ${a} = {b}");
                }
                "\\grant" => match engine.grant_view(&a, &b) {
                    Ok(()) => println!("granted view {b} to {a}"),
                    Err(e) => println!("error: {e}"),
                },
                "\\constraint" => match engine.grant_constraint(&a, &b) {
                    Ok(()) => println!("made constraint {b} visible to {a}"),
                    Err(e) => println!("error: {e}"),
                },
                "\\authorize" => match engine.grant_update_sql(&a, b.trim_end_matches(';')) {
                    Ok(()) => println!("granted update authorization to {a}"),
                    Err(e) => println!("error: {e}"),
                },
                "\\admin" => {
                    let sql = format!("{a} {b}");
                    match engine.admin_script(sql.trim_end_matches(';')) {
                        Ok(()) => println!("ok"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                "\\check" => {
                    let sql = format!("{a} {b}");
                    match engine.check(&session, sql.trim_end_matches(';')) {
                        Ok(report) => {
                            println!("verdict: {:?}", report.verdict);
                            for rule in &report.rules {
                                println!("  rule: {rule}");
                            }
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                "\\truman" => {
                    truman = truman.clone().substitute_view(a.as_str(), b.as_str());
                    println!("truman policy: {a} -> {b}");
                }
                "\\truman-run" => {
                    let sql = format!("{a} {b}");
                    match engine.truman_execute(&truman, &session, sql.trim_end_matches(';')) {
                        Ok(r) => print!("{}", r.to_table()),
                        Err(e) => println!("error: {e}"),
                    }
                }
                "\\views" => {
                    for v in engine.database().catalog().views() {
                        println!(
                            "  {}{}",
                            v.name,
                            if v.authorization { "  [authorization]" } else { "" }
                        );
                    }
                }
                "\\tables" => {
                    for t in engine.database().catalog().tables() {
                        let rows = engine
                            .database()
                            .table(&t.name)
                            .map(|tb| tb.len())
                            .unwrap_or(0);
                        println!("  {} {}  ({rows} rows)", t.name, t.schema);
                    }
                }
                "\\plan" => {
                    // Show the optimizer's chosen plan for a query.
                    let sql = format!("{a} {b}");
                    let out = (|| -> Result<String> {
                        let q = fgac::sql::parse_query(sql.trim_end_matches(';'))?;
                        let bound = fgac::algebra::bind_query(
                            engine.database().catalog(),
                            &q,
                            session.params(),
                        )?;
                        let mut dag = fgac::optimizer::Dag::new();
                        let root = dag.insert_plan(&bound.plan);
                        fgac::optimizer::expand(
                            &mut dag,
                            &fgac::optimizer::ExpandOptions::default(),
                        );
                        let model = fgac::optimizer::CostModel::new(
                            fgac::optimizer::TableStats::from_database(engine.database()),
                        );
                        let (best, cost) =
                            fgac::optimizer::extract_best(&dag, root, &model)
                                .ok_or_else(|| Error::Internal("no plan".into()))?;
                        Ok(format!("{best}(estimated cost {cost:.0})"))
                    })();
                    match out {
                        Ok(plan) => println!("{plan}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                other => println!("unknown command {other}; try \\help"),
            }
            continue;
        }

        buffer.push_str(line);
        buffer.push(' ');
        if !line.ends_with(';') {
            continue;
        }
        let sql = buffer.trim_end().trim_end_matches(';').to_string();
        buffer.clear();

        match engine.execute(&session, &sql) {
            Ok(EngineResponse::Rows(r)) => {
                print!("{}", r.to_table());
                println!("({} row(s))", r.rows.len());
            }
            Ok(EngineResponse::Affected(n)) => println!("ok, {n} row(s) affected"),
            Err(e) => println!("error: {e}"),
        }
    }
    println!("bye");
}

fn print_help() {
    for line in [
        "\\admin <sql>;               DDL/DML as the DBA",
        "\\user <id>                  switch session user",
        "\\param <name> <value>       set a session parameter",
        "\\grant <user> <view>        grant an authorization view",
        "\\constraint <user> <name>   make an integrity constraint visible",
        "\\authorize <user> <stmt>;   grant an update authorization",
        "\\check <sql>;               explain validity without executing",
        "\\truman <table> <view>      add a Truman substitution",
        "\\truman-run <sql>;          execute under the Truman policy",
        "\\views                      list catalog views",
        "\\tables                     list tables with row counts",
        "\\plan <sql>;                show the optimizer's chosen plan",
        "\\quit                       exit",
        "",
        "anything else: SQL executed as the current user (Non-Truman).",
    ] {
        println!("{line}");
    }
}
