//! # fgac-wal
//!
//! Crash-consistent durability for the fgac engine: an append-only,
//! length-prefixed, CRC-checksummed write-ahead log plus full-state
//! snapshots.
//!
//! The Non-Truman model (Rizvi et al., SIGMOD 2004) is only trustworthy
//! if the authorization state the validator consults — views, grants,
//! constraint visibility — survives failures *exactly*: a lost REVOKE or
//! a half-applied UPDATE silently breaks the unconditional-validity
//! guarantee. Hence the asymmetric failure policy implemented here:
//!
//! * a **torn tail** (partial final record, the normal crash signature)
//!   is truncated and reported;
//! * a **checksum failure on any policy record** refuses to serve
//!   ([`fgac_types::Error::Corrupt`]) rather than guessing;
//! * a checksum failure on the *final* record is given torn-write
//!   leniency only when the frame header — whose class byte is
//!   protected by its own checksum — marks it as a data record.
//!
//! This crate owns the byte format and file management; `fgac-core`
//! owns what gets logged and how records replay into an engine
//! (`Engine::open`). See DESIGN.md §Durability for the full scheme.

// A panic, a wrapped length or an out-of-range slice of a malformed log
// here is a failure that does not deny: outside tests, every failure
// surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::arithmetic_side_effects, clippy::cast_possible_truncation,
    clippy::indexing_slicing,
))]

mod crc;
mod log;
mod record;
mod snapshot;

pub use crc::crc32;
pub use log::{Recovered, RecoveryReport, WalStore};
pub use record::{WalRecord, CLASS_DATA, CLASS_POLICY, FRAME_HEADER_LEN};
pub use snapshot::{GrantsState, SnapshotState, TableState};
