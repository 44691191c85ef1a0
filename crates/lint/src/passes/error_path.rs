//! L004 ErrorPathMustDeny.
//!
//! PR 1's fail-closed discipline, promoted from convention to checked
//! invariant: in the admission/validator/server decision paths, an
//! error is a denial. The pass scans `Err(..) =>` match arms in scoped
//! files for *accept evidence* — an `Accept` verdict, `Ok(true)`, a
//! bare `true` result, a verdict-cache insert, or an empty body that
//! swallows the error — and flags `unwrap_or(true)`-style accept
//! defaults anywhere in scope.
//!
//! The evidence is deliberately *positive* (what acceptance looks
//! like), not negative (absence of a deny token): an `Err` arm that
//! logs and re-raises should not be flagged, while an arm
//! that accepts should never escape because it also happened to
//! mention a deny identifier somewhere.

use super::{Pass, SourceFile};
use crate::report::{Finding, PassCode};
use crate::source::{matching_close, receiver_before, FnWalker, Tok};

pub struct ErrorPathMustDeny;

/// Structures whose `.insert(..)` in an error arm means "cache a
/// verdict on the error path".
const VERDICT_CACHES: &[&str] = &["cache", "plan_cache"];

/// `[start, end)` token range of the arm body following `=>` at `arrow`.
fn arm_body(toks: &[Tok], arrow: usize) -> (usize, usize) {
    let start = arrow + 1;
    if toks.get(start).is_some_and(|t| t.is("{")) {
        let end = matching_close(toks, start).unwrap_or(toks.len());
        return (start + 1, end);
    }
    let mut depth = 0i64;
    let mut j = start;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" if depth == 0 => break,
            "}" => depth -= 1,
            "," if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    (start, j)
}

/// Why an arm body reads as acceptance, if it does.
fn accept_evidence(toks: &[Tok], start: usize, end: usize) -> Option<(String, usize)> {
    let body = &toks[start..end];
    if body.is_empty() || body.iter().all(|t| t.is("(") || t.is(")")) {
        let line = toks.get(start.saturating_sub(1)).map_or(0, |t| t.line);
        return Some(("the error is silently swallowed".into(), line));
    }
    if body.len() == 1 && body[0].is("true") {
        return Some(("the arm evaluates to `true`".into(), body[0].line));
    }
    if body.len() >= 2 && body[0].is("return") && body[1].is("true") {
        return Some(("the arm returns `true`".into(), body[0].line));
    }
    for (off, t) in body.iter().enumerate() {
        let i = start + off;
        if t.is("Accept") {
            return Some(("the arm produces an `Accept` verdict".into(), t.line));
        }
        if t.is("Ok")
            && toks.get(i + 1).is_some_and(|p| p.is("("))
            && toks.get(i + 2).is_some_and(|p| p.is("true"))
        {
            return Some(("the arm produces `Ok(true)`".into(), t.line));
        }
        if t.is(".")
            && toks.get(i + 1).is_some_and(|p| p.is("insert"))
            && toks.get(i + 2).is_some_and(|p| p.is("("))
        {
            if let Some(recv) = receiver_before(toks, i) {
                if VERDICT_CACHES.contains(&recv) {
                    return Some((
                        format!("the arm caches a verdict (`{recv}.insert(..)`)"),
                        toks[i + 1].line,
                    ));
                }
            }
        }
    }
    None
}

impl Pass for ErrorPathMustDeny {
    fn code(&self) -> PassCode {
        PassCode::ErrorPathMustDeny
    }

    fn run(&self, files: &[&SourceFile]) -> Vec<Finding> {
        let mut out = Vec::new();
        for file in files {
            let toks = &file.toks;
            let mut walker = FnWalker::new();
            for i in 0..toks.len() {
                walker.step(toks, i);
                let here = || walker.current().unwrap_or("<top level>").to_string();

                // `Err(..) => <body>` match arms.
                if toks[i].is("Err") && toks.get(i + 1).is_some_and(|t| t.is("(")) {
                    if let Some(close) = matching_close(toks, i + 1) {
                        if toks.get(close + 1).is_some_and(|t| t.is("=>")) {
                            let (start, end) = arm_body(toks, close + 1);
                            if let Some((why, line)) = accept_evidence(toks, start, end) {
                                out.push(Finding::new(
                                    PassCode::ErrorPathMustDeny,
                                    file.path.clone(),
                                    line,
                                    format!(
                                        "Err arm in `{}` does not deny: {why} — error paths \
                                         in decision code must produce a deny/uncached outcome",
                                        here()
                                    ),
                                ));
                            }
                        }
                    }
                }

                // Accept-by-default on a fallible decision.
                if toks[i].is("unwrap_or")
                    && toks.get(i + 1).is_some_and(|t| t.is("("))
                    && toks.get(i + 2).is_some_and(|t| t.is("true"))
                {
                    out.push(Finding::new(
                        PassCode::ErrorPathMustDeny,
                        file.path.clone(),
                        toks[i].line,
                        format!(
                            "`unwrap_or(true)` in `{}` accepts when the fallible decision \
                             fails — the default must deny",
                            here()
                        ),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Finding> {
        let f = SourceFile::from_source("crates/x/src/a.rs", src);
        ErrorPathMustDeny.run(&[&f])
    }

    #[test]
    fn accepting_err_arms_fire() {
        let src = r#"
fn decide(&self, r: Result<V, E>) -> Verdict {
    match r {
        Ok(v) => v.verdict(),
        Err(_) => Verdict::Accept,
    }
}
fn decide2(&self, r: Result<bool, E>) -> bool {
    match r {
        Ok(v) => v,
        Err(_) => true,
    }
}
fn swallow(&self, r: Result<V, E>) {
    match r {
        Ok(v) => self.apply(v),
        Err(_) => {}
    }
}
"#;
        let found = run_on(src);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found[0].message.contains("Accept"));
        assert!(found[1].message.contains("`true`"));
        assert!(found[2].message.contains("swallowed"));
    }

    #[test]
    fn denying_and_propagating_arms_are_quiet() {
        let src = r#"
fn decide(&self, r: Result<V, E>) -> Verdict {
    match r {
        Ok(v) => v.verdict(),
        Err(e) => {
            self.metrics.record_error(&e);
            Verdict::Deny
        }
    }
}
fn propagate(&self, r: Result<V, E>) -> Result<V, E> {
    match r {
        Ok(v) => Ok(v),
        Err(e) => Err(Error::wrap(e)),
    }
}
"#;
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn verdict_cache_insert_on_error_path_fires() {
        let src = r#"
fn decide(&self, r: Result<V, E>) -> Verdict {
    match r {
        Ok(v) => v.verdict(),
        Err(_) => {
            self.cache.insert(key, Verdict::Deny);
            Verdict::Deny
        }
    }
}
"#;
        let found = run_on(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("caches a verdict"));
    }

    #[test]
    fn unwrap_or_true_fires_unwrap_or_false_does_not() {
        let src = r#"
fn a(&self) -> bool { self.check().unwrap_or(true) }
fn b(&self) -> bool { self.check().unwrap_or(false) }
"#;
        let found = run_on(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("unwrap_or(true)"));
    }

    #[test]
    fn if_let_err_bindings_are_not_arms() {
        // `if let Err(e) = r { log(e); }` has no `=>`; out of scope.
        let src = "fn f(r: Result<(), E>) { if let Err(e) = r { log(e); } }";
        assert!(run_on(src).is_empty());
    }
}
