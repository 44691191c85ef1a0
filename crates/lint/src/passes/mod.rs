//! The pass registry.
//!
//! A pass is a pure function from the file set under
//! [`crate::SCOPE`] to findings. There is no allowlist: a finding is
//! fixed in the code.
//!
//! Adding a pass (see DESIGN.md §4l): pick the next unused `L###` code
//! in `report.rs` (a retired code is never reused), implement [`Pass`]
//! in a new module here, append it to [`registry`], plant its violation
//! class in `tests/fixtures/seeded/`, and add the injection test proving
//! the pass fires there and stays quiet on the clean fixture tree.

pub mod lock_order;

use crate::report::{Finding, PassCode};
use crate::source::{lex, Tok};

/// One workspace source file: relative path + non-test token stream.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub toks: Vec<Tok>,
}

impl SourceFile {
    pub fn from_source(path: impl Into<String>, src: &str) -> SourceFile {
        SourceFile {
            path: path.into(),
            toks: lex(src),
        }
    }

    /// The file stem (`engine` for `crates/core/src/engine.rs`) — used
    /// by L003 to qualify lock identities.
    pub fn stem(&self) -> &str {
        let base = self.path.rsplit('/').next().unwrap_or(&self.path);
        base.strip_suffix(".rs").unwrap_or(base)
    }
}

pub trait Pass {
    fn code(&self) -> PassCode;
    /// Analyzes `files`.
    fn run(&self, files: &[&SourceFile]) -> Vec<Finding>;
}

/// Every shipped pass, in code order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![Box::new(lock_order::LockOrderInversion)]
}
