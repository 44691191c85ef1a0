//! # fgac-types
//!
//! Foundation types shared by every crate in the `fgac` workspace:
//! SQL values with multiset-friendly total ordering, data types, schemas,
//! rows, case-insensitive identifiers, and the common error type.
//!
//! The paper's model (Rizvi et al., SIGMOD 2004) is defined over SQL's
//! multiset semantics, so [`Value`] implements `Eq`/`Ord`/`Hash` with a
//! *total* order (NULLs first, doubles via `total_cmp`) making rows usable
//! as keys for grouping, duplicate elimination, and multiset comparison.
//!
//! It also owns the workspace's one JSON codec ([`json`]): certificates,
//! analyzer diagnostics, the lint report and the bench baselines/reports
//! are all mappings over [`Json`], so there is a single parser, a single
//! string escaper and a single place where nesting depth is bounded.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

mod budget;
mod counter;
mod error;
#[cfg(feature = "fault-injection")]
pub mod faults;
mod ident;
pub mod json;
mod row;
mod schema;
mod value;
pub mod wire;

pub use budget::{Budget, BudgetMeter};
pub use counter::Counter;
pub use error::{Error, Result};
pub use ident::Ident;
pub use json::Json;
pub use row::{multiset_eq, Row};
pub use schema::{Column, Schema};
pub use value::{DataType, Value};
