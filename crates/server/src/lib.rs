//! # fgac-server
//!
//! A fault-tolerant network front end for the fgac engine: the paper
//! places fine-grained access control *inside* the DBMS precisely so
//! that many concurrently connected principals share one enforcement
//! point, and this crate supplies that multi-principal surface.
//!
//! Deliberately `std`-only — `std::net` sockets, one thread per
//! connection, and the workspace's vendored `parking_lot` wrappers; no
//! async runtime. The robustness features mirror what the engine already
//! guarantees internally:
//!
//! * **Strict framing** ([`frame`]) — the WAL's CRC-everything
//!   discipline applied to the wire; a corrupt frame closes the
//!   connection instead of being guessed at.
//! * **A partitioned status space** ([`protocol`]) — `SHED` (overload)
//!   and `TIMEOUT` (deadline) are distinct from `DENIED`
//!   (authorization), so operational failure can never be mistaken for
//!   a policy decision, and vice versa.
//! * **Admission control** ([`server`]) — a counting permit: a bounded
//!   number of requests execute at once, a bounded number wait, and the
//!   rest are refused rather than buffered without bound.
//! * **Deadlines** — per-request wall-clock budgets threaded into the
//!   engine's validity-check meter; expiry denies fail-closed and
//!   leaves no cache residue.
//! * **Isolation and drain** ([`server`]) — per-connection and
//!   per-request panic isolation, idle/stall timeouts, and a graceful
//!   drain that answers every admitted request before the engine's
//!   WAL is closed.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

pub mod client;
pub mod frame;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{response_for_error, AdminOp, Request, Response};
pub use server::{DrainReport, Server, ServerConfig};
