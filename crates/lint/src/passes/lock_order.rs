//! L003 LockOrderInversion.
//!
//! Builds the static lock-acquisition graph: an acquisition is a
//! zero-argument `.lock()` / `.read()` / `.write()` call, its identity
//! is `file_stem::receiver` (so `cache.rs`'s shard mutexes and
//! `server.rs`'s connection table stay distinct even when the fields
//! share a name), and within one function every earlier acquisition is
//! assumed still held when a later one happens — unless an explicit
//! `drop(..)` intervenes, or the brace depth falls below the
//! acquisition's (the guard's block closed: the `{ let g = x.read();
//! ... }` scoping idiom releases it). Calls propagate one level: a
//! bare call to a function with known direct acquisitions splices that
//! function's acquisitions in at the call site, released again at the
//! call's end (the callee's guards die with its frame).
//!
//! Findings: a cycle in the graph (two code paths acquire the same two
//! locks in opposite orders — the classic ABBA deadlock), and a
//! read-then-write on the same `RwLock` identity in one function with
//! no intervening `drop` (a self-deadlock on any non-reentrant RwLock,
//! and a lost-update hazard on one that allows it).
//!
//! Over-approximations (a false positive is fixed in the code, with an
//! explicit `drop` or a narrower block): guard lifetimes are not
//! tracked beyond `drop`, and receiver identity is textual. Under-approximation: acquisitions reached through more
//! than one call level are invisible — the dynamic TSan job covers
//! that blind spot.

use super::{Pass, SourceFile};
use crate::report::{Finding, PassCode};
use crate::source::receiver_before;
use std::collections::{BTreeMap, BTreeSet};

pub struct LockOrderInversion;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lock,
    Read,
    Write,
}

#[derive(Debug, Clone)]
enum Event {
    /// `depth` is the brace depth at the acquisition site: when the
    /// depth later falls below it, the guard's block has closed and the
    /// lock is released.
    Acquire {
        id: String,
        kind: Kind,
        line: usize,
        depth: usize,
    },
    /// Explicit `drop(..)` — coarse: releases everything held.
    Drop,
    /// A close brace brought the depth down to the carried value.
    Scope(usize),
    Call {
        name: String,
        line: usize,
        depth: usize,
    },
}

/// Where an edge was observed: `file:line` inside `fn`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Evidence {
    file: String,
    line: usize,
    func: String,
}

fn harvest(files: &[&SourceFile]) -> Vec<(String, String, Vec<Event>)> {
    use crate::source::FnWalker;
    let mut fns: Vec<(String, String, Vec<Event>)> = Vec::new();
    for file in files {
        let toks = &file.toks;
        let stem = file.stem().to_string();
        let mut walker = FnWalker::new();
        let mut current: Option<(String, Vec<Event>)> = None;
        let mut depth = 0usize;
        for i in 0..toks.len() {
            let before = walker.outermost().map(String::from);
            walker.step(toks, i);
            let after = walker.outermost().map(String::from);
            match toks[i].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if let Some((_, events)) = current.as_mut() {
                        events.push(Event::Scope(depth));
                    }
                }
                _ => {}
            }
            if before != after {
                if let Some((name, events)) = current.take() {
                    fns.push((file.path.clone(), name, events));
                }
                if let Some(name) = after.clone() {
                    current = Some((name, Vec::new()));
                }
            }
            let Some((_, events)) = current.as_mut() else {
                continue;
            };
            let t = &toks[i];
            // `.lock()` / `.read()` / `.write()` with no arguments.
            if t.is(".")
                && toks.get(i + 2).is_some_and(|p| p.is("("))
                && toks.get(i + 3).is_some_and(|p| p.is(")"))
            {
                let kind = match toks[i + 1].text.as_str() {
                    "lock" => Some(Kind::Lock),
                    "read" => Some(Kind::Read),
                    "write" => Some(Kind::Write),
                    _ => None,
                };
                if let (Some(kind), Some(recv)) = (kind, receiver_before(toks, i)) {
                    events.push(Event::Acquire {
                        id: format!("{stem}::{recv}"),
                        kind,
                        line: toks[i + 1].line,
                        depth,
                    });
                    continue;
                }
            }
            // Explicit early release.
            if t.is("drop") && toks.get(i + 1).is_some_and(|p| p.is("(")) {
                events.push(Event::Drop);
                continue;
            }
            // Bare call (not a method, not a definition, not a macro).
            if t.is_ident
                && toks.get(i + 1).is_some_and(|p| p.is("("))
                && i > 0
                && !toks[i - 1].is(".")
                && !toks[i - 1].is("fn")
                && !toks[i - 1].is("::")
            {
                events.push(Event::Call {
                    name: t.text.clone(),
                    line: t.line,
                    depth,
                });
            }
        }
        if let Some((name, events)) = current.take() {
            fns.push((file.path.clone(), name, events));
        }
    }
    fns
}

impl Pass for LockOrderInversion {
    fn code(&self) -> PassCode {
        PassCode::LockOrderInversion
    }

    fn run(&self, files: &[&SourceFile]) -> Vec<Finding> {
        let fns = harvest(files);

        // Direct acquisition/drop sequences, for one-level propagation.
        let mut direct: BTreeMap<&str, Vec<&Event>> = BTreeMap::new();
        for (_, name, events) in &fns {
            let seq: Vec<&Event> = events
                .iter()
                .filter(|e| matches!(e, Event::Acquire { .. } | Event::Drop))
                .collect();
            if seq.iter().any(|e| matches!(e, Event::Acquire { .. })) {
                direct.entry(name).or_default().extend(seq);
            }
        }

        let mut out = Vec::new();
        // edge (a -> b) -> first evidence
        let mut edges: BTreeMap<(String, String), Evidence> = BTreeMap::new();

        // Spliced callee acquisitions are released when the callee
        // returns; give them a depth deeper than any real block so the
        // Scope marker emitted after the splice releases exactly them.
        const CALLEE_DEPTH: usize = usize::MAX / 2;

        for (file, name, events) in &fns {
            // Expand calls one level.
            let mut timeline: Vec<Event> = Vec::new();
            for e in events {
                match e {
                    Event::Call {
                        name: callee,
                        line,
                        depth,
                    } => {
                        if callee != name {
                            if let Some(callee_seq) = direct.get(callee.as_str()) {
                                for ce in callee_seq {
                                    if let Event::Acquire { id, kind, .. } = ce {
                                        timeline.push(Event::Acquire {
                                            id: id.clone(),
                                            kind: *kind,
                                            line: *line,
                                            depth: CALLEE_DEPTH,
                                        });
                                    }
                                }
                                timeline.push(Event::Scope(*depth));
                            }
                        }
                    }
                    other => timeline.push(other.clone()),
                }
            }
            let drops: Vec<usize> = timeline
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, Event::Drop))
                .map(|(p, _)| p)
                .collect();
            let scopes: Vec<(usize, usize)> = timeline
                .iter()
                .enumerate()
                .filter_map(|(p, e)| match e {
                    Event::Scope(d) => Some((p, *d)),
                    _ => None,
                })
                .collect();
            // Ordered pairs where the first guard is still held at the
            // second acquisition: no explicit drop between, and the
            // depth never fell below the first acquisition's depth
            // (which would mean its block closed).
            let acquire_positions: Vec<usize> = timeline
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, Event::Acquire { .. }))
                .map(|(p, _)| p)
                .collect();
            for (ai, &apos) in acquire_positions.iter().enumerate() {
                for &bpos in &acquire_positions[ai + 1..] {
                    if drops.iter().any(|&d| apos < d && d < bpos) {
                        continue;
                    }
                    let (
                        Event::Acquire {
                            id: a,
                            kind: ak,
                            depth: adepth,
                            ..
                        },
                        Event::Acquire { id: b, kind: bk, line: bline, .. },
                    ) = (&timeline[apos], &timeline[bpos])
                    else {
                        continue;
                    };
                    if scopes
                        .iter()
                        .any(|&(p, d)| apos < p && p < bpos && d < *adepth)
                    {
                        continue;
                    }
                    if a == b {
                        // Same identity re-acquired: a read-then-write
                        // upgrade is a finding; same-kind repeats are
                        // the shard-iteration idiom and stay quiet.
                        if *ak == Kind::Read && *bk == Kind::Write {
                            out.push(Finding::new(
                                PassCode::LockOrderInversion,
                                file.clone(),
                                *bline,
                                format!(
                                    "`{name}` upgrades `{a}` from read() to write() with no \
                                     intervening drop — self-deadlock on a non-reentrant \
                                     RwLock; drop the read guard first"
                                ),
                            ));
                        }
                        continue;
                    }
                    edges.entry((a.clone(), b.clone())).or_insert(Evidence {
                        file: file.clone(),
                        line: *bline,
                        func: name.clone(),
                    });
                }
            }
        }

        out.extend(find_cycles(&edges));
        out
    }
}

/// DFS cycle detection; each cycle reported once, keyed by its lock
/// set, with the evidence site of every edge in the cycle.
fn find_cycles(edges: &BTreeMap<(String, String), Evidence>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut out = Vec::new();
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    // Depth-first walk carrying the explicit path; a revisit of a node
    // on the current path closes a cycle. Bounded by node count, and
    // the real graph is a handful of locks — exhaustive is fine.
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        path: &mut Vec<&'a str>,
        edges: &BTreeMap<(String, String), Evidence>,
        reported: &mut BTreeSet<BTreeSet<String>>,
        out: &mut Vec<Finding>,
    ) {
        if let Some(pos) = path.iter().position(|&n| n == node) {
            let cycle: Vec<&str> = path[pos..].to_vec();
            let key: BTreeSet<String> = cycle.iter().map(|s| s.to_string()).collect();
            if reported.insert(key) {
                let mut hops = Vec::new();
                let mut first: Option<&Evidence> = None;
                for w in 0..cycle.len() {
                    let a = cycle[w];
                    let b = cycle[(w + 1) % cycle.len()];
                    if let Some(ev) = edges.get(&(a.to_string(), b.to_string())) {
                        hops.push(format!("{a} -> {b} ({}:{} in `{}`)", ev.file, ev.line, ev.func));
                        first.get_or_insert(ev);
                    }
                }
                if let Some(ev) = first {
                    out.push(Finding::new(
                        PassCode::LockOrderInversion,
                        ev.file.clone(),
                        ev.line,
                        format!("lock-order cycle: {}", hops.join("; ")),
                    ));
                }
            }
            return;
        }
        if path.len() > adj.len() {
            return;
        }
        path.push(node);
        if let Some(next) = adj.get(node) {
            for &n in next {
                dfs(n, adj, path, edges, reported, out);
            }
        }
        path.pop();
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path: Vec<&str> = Vec::new();
        dfs(start, &adj, &mut path, edges, &mut reported, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(sources: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::from_source(*p, s))
            .collect();
        let refs: Vec<&SourceFile> = files.iter().collect();
        LockOrderInversion.run(&refs)
    }

    #[test]
    fn abba_cycle_across_functions_is_found() {
        let src = r#"
fn forward(&self) {
    let a = self.table.lock();
    let b = self.journal.lock();
}
fn backward(&self) {
    let b = self.journal.lock();
    let a = self.table.lock();
}
"#;
        let found = run_on(&[("crates/x/src/m.rs", src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("lock-order cycle"), "{found:?}");
        assert!(found[0].message.contains("m::table"));
        assert!(found[0].message.contains("m::journal"));
    }

    #[test]
    fn consistent_order_and_drop_separated_orders_are_quiet() {
        let consistent = r#"
fn one(&self) { let a = self.table.lock(); let b = self.journal.lock(); }
fn two(&self) { let a = self.table.lock(); let b = self.journal.lock(); }
"#;
        assert!(run_on(&[("crates/x/src/m.rs", consistent)]).is_empty());
        let dropped = r#"
fn one(&self) { let a = self.table.lock(); let b = self.journal.lock(); }
fn two(&self) { let b = self.journal.lock(); drop(b); let a = self.table.lock(); }
"#;
        assert!(run_on(&[("crates/x/src/m.rs", dropped)]).is_empty());
    }

    #[test]
    fn read_then_write_upgrade_fires_unless_dropped() {
        let upgrade = "fn f(&self) { let g = self.inner.read(); let w = self.inner.write(); }";
        let found = run_on(&[("crates/x/src/m.rs", upgrade)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("read() to write()"));
        let ok = "fn f(&self) { let g = self.inner.read(); drop(g); let w = self.inner.write(); }";
        assert!(run_on(&[("crates/x/src/m.rs", ok)]).is_empty());
    }

    #[test]
    fn block_scoped_guard_is_released_at_close_brace() {
        // The SharedEngine::execute_at idiom: read in an inner block,
        // write after it closes.
        let src = r#"
fn execute(&self) {
    {
        let engine = self.inner.read();
        if engine.fast_path() { return; }
    }
    let mut engine = self.inner.write();
    engine.slow_path();
}
"#;
        assert!(run_on(&[("crates/x/src/m.rs", src)]).is_empty());
    }

    #[test]
    fn callee_guards_do_not_order_against_later_caller_locks() {
        // helper()'s guard dies when helper returns, so journal-then-
        // table here is NOT an ordering edge (no cycle with `other`).
        let src = r#"
fn outer(&self) {
    helper(self);
    let g = self.table.lock();
}
fn helper(&self) { let j = self.journal.lock(); }
fn other(&self) { let g = self.table.lock(); let j = self.journal.lock(); }
"#;
        assert!(run_on(&[("crates/x/src/m.rs", src)]).is_empty());
    }

    #[test]
    fn shard_loop_self_edges_are_quiet() {
        let src = "fn sweep(&self) { for s in &self.shards { let g = s.lock(); g.clear(); } }";
        assert!(run_on(&[("crates/x/src/m.rs", src)]).is_empty());
    }

    #[test]
    fn one_level_call_propagation_links_the_graph() {
        let a = r#"
fn outer(&self) {
    let g = self.table.lock();
    helper(self);
}
fn helper(&self) { let j = self.journal.lock(); }
fn other(&self) { let j = self.journal.lock(); let g = self.table.lock(); }
"#;
        let found = run_on(&[("crates/x/src/m.rs", a)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("cycle"));
    }

    #[test]
    fn identities_are_file_qualified() {
        // Same field names in different files are different locks.
        let a = "fn f(&self) { let x = self.inner.lock(); let y = self.outer.lock(); }";
        let b = "fn g(&self) { let y = self.outer.lock(); let x = self.inner.lock(); }";
        let found = run_on(&[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)]);
        assert!(found.is_empty(), "{found:?}");
    }
}
