//! # fgac-core
//!
//! The paper's contribution: authorization-transparent fine-grained
//! access control over the substrate crates.
//!
//! * [`AuthorizationView`] — parameterized and access-pattern views
//!   (Section 2), instantiated per session.
//! * [`Session`] / [`Grants`] — who is asking, which views, integrity
//!   constraints, and update authorizations they hold (Sections 4.1,
//!   4.4, and U3a's "the relevant integrity constraints are visible to
//!   the user").
//! * [`truman`] — the **Truman model** (Section 3): VPD-style
//!   transparent query modification, kept as the baseline whose
//!   misleading-answer and redundant-join pathologies the benches
//!   reproduce.
//! * [`nontruman`] — the **Non-Truman model** (Sections 4–5): the
//!   validity checker implementing inference rules U1, U2, U3a–U3c, C1,
//!   C2, C3a/C3b, plus the Section 6 access-pattern extensions, on top
//!   of the Volcano AND-OR DAG.
//! * [`UpdateAuthorizer`] (`updates`) — per-tuple authorization of INSERT/UPDATE/DELETE
//!   (Section 4.4).
//! * [`ValidityCache`] (`cache`) — sharded validity-check caching for
//!   repeated/prepared queries (the Section 5.6 optimizations).
//! * [`CompiledPolicies`] (`compiled`) — the compiled authorization
//!   fast path: per-principal capability bitmasks + column-coverage
//!   summaries so fully-covered U1/U2-unconditional queries admit
//!   without running the prover, flat in the number of granted views.
//! * [`PlanCache`] (`plancache`) — memoized parse+bind so repeated
//!   statements skip admission entirely (DESIGN.md "Hot path & caching
//!   layers").
//! * [`invalidation::PolicyState`] — the one owner of the grants, the
//!   policy epoch and the four caches derived from them; a policy change
//!   is one `apply(PolicyDelta)` with one restamp rule (DESIGN.md §4j).
//! * [`Admitted`] — the token an accepted query runs through; a denial
//!   is an `Err` and mints none.
//! * [`Engine`] — the façade a downstream application uses: DDL, grants,
//!   policy setup, and `execute` which enforces the chosen model.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

mod admitted;
mod authview;
mod cache;
pub mod compiled;
mod durability;
mod engine;
pub mod flowcache;
mod grants;
pub mod invalidation;
pub mod nontruman;
mod plancache;
mod prepared;
mod session;
mod shared;
pub mod truman;
mod updates;

pub use admitted::Admitted;
pub use authview::AuthorizationView;
pub use cache::{CacheOutcome, CacheStats, DataCommit, ValidityCache};
pub use compiled::{CompiledPolicies, PrincipalCaps};
pub use fgac_analyze::{
    check_certificate, certificate_from_json, certificate_to_json, CertPolicy, CertVerdict,
    Certificate, CheckerOptions, Code as DiagnosticCode, Diagnostic, RuleId,
    Severity as DiagnosticSeverity, Step as CertStep,
};
pub use durability::{DurabilityOptions, RecoveryReport};
pub use engine::{Engine, EngineResponse};
pub use invalidation::PolicyDelta;
pub use plancache::{CachedPlan, PlanCache};
pub use grants::Grants;
pub use prepared::Prepared;
pub use nontruman::{CheckOptions, Validator, Verdict, ValidityReport};
pub use session::Session;
pub use shared::SharedEngine;
pub use updates::UpdateAuthorizer;
