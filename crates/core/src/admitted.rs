//! The admission token: the one way the engine runs a query.
//!
//! The paper's contract is accept-then-run-unmodified, or reject (§4).
//! An [`Admitted`] is the accept: it is minted only by the engine's
//! admission function (a cached, revalidated or freshly proved valid
//! verdict) and by the Truman rewriter, whose rewrite is its admission.
//! A denial is an `Err` and carries no token, so an error arm that
//! "accepts" has nothing to execute.
//!
//! Outside this crate there is no constructor, so an error arm that
//! accepts does not compile:
//!
//! ```compile_fail,E0624
//! use fgac_algebra::BoundQuery;
//! use fgac_core::Admitted;
//! use fgac_exec::QueryResult;
//! use fgac_storage::Database;
//! use fgac_types::Result;
//! fn run<'a>(
//!     db: &'a Database,
//!     bound: &'a BoundQuery,
//!     admission: Result<Admitted<'a>>,
//! ) -> Result<QueryResult> {
//!     let admitted = match admission {
//!         Ok(admitted) => admitted,
//!         Err(_) => Admitted::new(db, bound),
//!     };
//!     admitted.execute()
//! }
//! ```
//!
//! while the arm that passes the denial on does:
//!
//! ```
//! use fgac_algebra::BoundQuery;
//! use fgac_core::Admitted;
//! use fgac_exec::QueryResult;
//! use fgac_storage::Database;
//! use fgac_types::Result;
//! fn run<'a>(
//!     db: &'a Database,
//!     bound: &'a BoundQuery,
//!     admission: Result<Admitted<'a>>,
//! ) -> Result<QueryResult> {
//!     let admitted = match admission {
//!         Ok(admitted) => admitted,
//!         Err(e) => return Err(e),
//!     };
//!     admitted.execute()
//! }
//! ```
//!
//! Nor does defaulting the admission to "allow" compile:
//!
//! ```compile_fail,E0308
//! use fgac_core::Admitted;
//! use fgac_exec::QueryResult;
//! use fgac_types::Result;
//! fn run(admission: Result<Admitted<'_>>) -> Result<QueryResult> {
//!     admission.unwrap_or(true).execute()
//! }
//! ```
//!
//! while propagating the denial does:
//!
//! ```
//! use fgac_core::Admitted;
//! use fgac_exec::QueryResult;
//! use fgac_types::Result;
//! fn run(admission: Result<Admitted<'_>>) -> Result<QueryResult> {
//!     admission?.execute()
//! }
//! ```
//!
//! The token guards the engine's own call graph. It does not stop a
//! Rust caller that runs the executor (`fgac_exec`) directly.

use fgac_algebra::BoundQuery;
use fgac_exec::QueryResult;
use fgac_storage::Database;
use fgac_types::Result;

/// An accepted query: the database and the bound query admission proved
/// valid against it. Two references, so a cached accept allocates
/// nothing.
#[must_use = "an admitted query does nothing until it is executed"]
pub struct Admitted<'a> {
    db: &'a Database,
    bound: &'a BoundQuery,
}

impl<'a> Admitted<'a> {
    /// Mints the token. Callers: the engine's admission function on an
    /// accept, and the Truman rewriter.
    pub(crate) fn new(db: &'a Database, bound: &'a BoundQuery) -> Self {
        Admitted { db, bound }
    }

    /// Runs the admitted query, unmodified.
    pub fn execute(self) -> Result<QueryResult> {
        let rows = fgac_exec::execute_bound(self.db, self.bound)?;
        Ok(QueryResult {
            names: self.bound.output_names.clone(),
            rows,
        })
    }
}
