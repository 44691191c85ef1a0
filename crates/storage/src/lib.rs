//! # fgac-storage
//!
//! In-memory relational storage engine: multiset tables with ordered key
//! indexes, a catalog of schemas/views/constraints, and the [`Database`]
//! facade with its per-statement journal (undo, WAL redo and replay are
//! one [`TableDelta`] stream — see `database.rs`).
//!
//! The catalog records the two families of integrity constraints the
//! paper's inference rules consume:
//!
//! * **Primary keys** — used by Example 5.5 ("since the Grades table has
//!   a primary key, the distinct keyword can be dropped") and by U3c/C3b
//!   multiplicity reasoning.
//! * **Inclusion dependencies** (optionally predicated on both sides) —
//!   the "every tuple of the view-core has a matching tuple in the
//!   view-remainder" conditions of rules U3a–U3c (Section 5.3). Foreign
//!   keys are stored as unconditional inclusion dependencies plus key
//!   metadata.
//!
//! Constraint *visibility* ("the relevant integrity constraints are
//! visible to the user", rule U3a condition 2) is tracked by
//! `fgac-core`'s grant tables, not here.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

mod catalog;
mod constraint;
mod database;
mod delta;
mod index;
#[cfg(test)]
mod oracle;
mod table;

pub use catalog::{Catalog, TableMeta, ViewDef};
pub use constraint::{ForeignKey, InclusionDependency};
pub use database::Database;
pub use delta::{DeltaRef, Mark, TableDelta};
pub use table::Table;
