//! WAL record types and their encoding.
//!
//! One record per committed state change. Two families:
//!
//! * **Policy records** (DDL, grants/revocations, role membership,
//!   constraint visibility) — logged as canonical SQL or structural
//!   fields. Recovery *fails closed* on a corrupt policy record: a lost
//!   REVOKE silently breaks the Non-Truman validity guarantee, so the
//!   engine refuses to serve rather than guess.
//! * **Data records** (`Dml`) — the physical [`TableDelta`]s of one
//!   committed statement. A corrupt data record at the very tail of the
//!   log is treated as a torn write and truncated.
//!
//! The frame header carries the record's class (policy vs data) under
//! its own checksum — see [`frame`] — so recovery can classify a frame
//! whose *payload* checksum failed without trusting any unprotected
//! byte of that payload.

use crate::crc::crc32;
use fgac_storage::{DeltaRef, TableDelta};
use fgac_types::wire::{put_u64, Reader, WireDecode, WireEncode};
use fgac_types::{Error, Result};

const TAG_DDL: u8 = 0x01;
const TAG_GRANT_VIEW: u8 = 0x02;
const TAG_REVOKE_VIEW: u8 = 0x03;
const TAG_GRANT_CONSTRAINT: u8 = 0x04;
const TAG_GRANT_UPDATE: u8 = 0x05;
const TAG_ADD_ROLE: u8 = 0x06;
const TAG_DELEGATE_VIEW: u8 = 0x07;
/// Tags below this are policy records; `Dml` is the sole data record.
const TAG_DML: u8 = 0x40;

/// One committed state change.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// DDL as canonical printed SQL (`CREATE TABLE` / `CREATE
    /// [AUTHORIZATION] VIEW` / `CREATE INCLUSION DEPENDENCY`); replayed
    /// through the admin path.
    Ddl { sql: String },
    GrantView { principal: String, view: String },
    RevokeView { principal: String, view: String },
    GrantConstraint { principal: String, name: String },
    /// An `AUTHORIZE ...` update authorization, as SQL text.
    GrantUpdate { principal: String, sql: String },
    AddRole { user: String, role: String },
    DelegateView {
        from: String,
        to: String,
        view: String,
    },
    /// One committed DML statement's physical deltas. May be empty (a
    /// statement that matched zero rows still commits and bumps the data
    /// version).
    Dml { deltas: Vec<TableDelta> },
}

/// Frame-header class byte for policy records (fail closed on
/// corruption).
pub const CLASS_POLICY: u8 = 0x01;
/// Frame-header class byte for data records (tail leniency allowed).
pub const CLASS_DATA: u8 = 0x02;

/// Bytes of framing before the payload: `len ‖ class ‖ payload crc ‖
/// header crc`.
pub const FRAME_HEADER_LEN: usize = 13;

/// A frame header whose own checksum holds, so its `len` and `class`
/// can be trusted; its payload is not checked yet.
pub(crate) struct FrameHeader {
    pub(crate) len: usize,
    pub(crate) class: u8,
    pub(crate) payload_crc: u32,
}

impl FrameHeader {
    /// Parses a header written by [`frame`]; `None` when its checksum
    /// fails.
    pub(crate) fn parse(bytes: &[u8; FRAME_HEADER_LEN]) -> Option<FrameHeader> {
        let [l0, l1, l2, l3, class, p0, p1, p2, p3, h0, h1, h2, h3] = *bytes;
        let checked = [l0, l1, l2, l3, class, p0, p1, p2, p3];
        (crc32(&checked) == u32::from_le_bytes([h0, h1, h2, h3])).then(|| FrameHeader {
            len: u32::from_le_bytes([l0, l1, l2, l3]) as usize,
            class,
            payload_crc: u32::from_le_bytes([p0, p1, p2, p3]),
        })
    }
}

impl WalRecord {
    /// Policy records fail closed on corruption; data records at the log
    /// tail are treated as torn writes.
    pub fn is_policy(&self) -> bool {
        !matches!(self, WalRecord::Dml { .. })
    }

    /// The class byte written into this record's frame header.
    pub fn class(&self) -> u8 {
        if self.is_policy() {
            CLASS_POLICY
        } else {
            CLASS_DATA
        }
    }
}

impl WireEncode for WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Ddl { sql } => {
                out.push(TAG_DDL);
                sql.encode(out);
            }
            WalRecord::GrantView { principal, view } => {
                out.push(TAG_GRANT_VIEW);
                principal.encode(out);
                view.encode(out);
            }
            WalRecord::RevokeView { principal, view } => {
                out.push(TAG_REVOKE_VIEW);
                principal.encode(out);
                view.encode(out);
            }
            WalRecord::GrantConstraint { principal, name } => {
                out.push(TAG_GRANT_CONSTRAINT);
                principal.encode(out);
                name.encode(out);
            }
            WalRecord::GrantUpdate { principal, sql } => {
                out.push(TAG_GRANT_UPDATE);
                principal.encode(out);
                sql.encode(out);
            }
            WalRecord::AddRole { user, role } => {
                out.push(TAG_ADD_ROLE);
                user.encode(out);
                role.encode(out);
            }
            WalRecord::DelegateView { from, to, view } => {
                out.push(TAG_DELEGATE_VIEW);
                from.encode(out);
                to.encode(out);
                view.encode(out);
            }
            WalRecord::Dml { deltas } => encode_dml(deltas.iter().map(TableDelta::view), out),
        }
    }
}

/// Encodes a `Dml` record from borrowed deltas — the bytes of
/// `WalRecord::Dml { deltas }`, without owning them (a durable engine
/// logs its statement journal in place). The delta count is written
/// once the deltas have been.
pub(crate) fn encode_dml<'a>(deltas: impl Iterator<Item = DeltaRef<'a>>, out: &mut Vec<u8>) {
    out.push(TAG_DML);
    let at = out.len();
    put_u64(out, 0);
    let mut n: u64 = 0;
    for d in deltas {
        d.encode(out);
        n = n.saturating_add(1);
    }
    // `put_u64` wrote the count's eight bytes at `at`.
    if let Some(count) = out.get_mut(at..).and_then(<[u8]>::first_chunk_mut) {
        *count = n.to_le_bytes();
    }
}

impl WireDecode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            TAG_DDL => Ok(WalRecord::Ddl {
                sql: String::decode(r)?,
            }),
            TAG_GRANT_VIEW => Ok(WalRecord::GrantView {
                principal: String::decode(r)?,
                view: String::decode(r)?,
            }),
            TAG_REVOKE_VIEW => Ok(WalRecord::RevokeView {
                principal: String::decode(r)?,
                view: String::decode(r)?,
            }),
            TAG_GRANT_CONSTRAINT => Ok(WalRecord::GrantConstraint {
                principal: String::decode(r)?,
                name: String::decode(r)?,
            }),
            TAG_GRANT_UPDATE => Ok(WalRecord::GrantUpdate {
                principal: String::decode(r)?,
                sql: String::decode(r)?,
            }),
            TAG_ADD_ROLE => Ok(WalRecord::AddRole {
                user: String::decode(r)?,
                role: String::decode(r)?,
            }),
            TAG_DELEGATE_VIEW => Ok(WalRecord::DelegateView {
                from: String::decode(r)?,
                to: String::decode(r)?,
                view: String::decode(r)?,
            }),
            TAG_DML => Ok(WalRecord::Dml {
                deltas: Vec::<TableDelta>::decode(r)?,
            }),
            b => Err(Error::Corrupt(format!("wal record: unknown tag {b:#x}"))),
        }
    }
}

/// Frames a payload for the log:
///
/// ```text
/// len(u32 LE) ‖ class(u8) ‖ pcrc(u32 LE) ‖ hcrc(u32 LE) ‖ payload
/// ```
///
/// `pcrc` is the CRC of the payload; `hcrc` is the CRC of the first 9
/// header bytes (`len ‖ class ‖ pcrc`). The class byte decides whether
/// a payload-checksum failure at the tail may be treated as a torn
/// write, so it must be trustworthy even when the payload is not —
/// `hcrc` gives it (and `len`) integrity independent of the payload.
///
/// Fails if the payload exceeds the u32 length field — a silently
/// truncated `len` would make the frame unrecoverable (the payload CRC
/// would cover bytes the header does not admit to).
pub fn frame(payload: &[u8], class: u8) -> Result<Vec<u8>> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        Error::Execution(format!(
            "wal frame: payload of {} bytes exceeds the u32 length field",
            payload.len()
        ))
    })?;
    let [l0, l1, l2, l3] = len.to_le_bytes();
    let [p0, p1, p2, p3] = crc32(payload).to_le_bytes();
    let checked = [l0, l1, l2, l3, class, p0, p1, p2, p3];
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN.saturating_add(payload.len()));
    out.extend_from_slice(&checked);
    out.extend_from_slice(&crc32(&checked).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::{Ident, Row};

    fn roundtrip(rec: WalRecord) {
        let bytes = rec.to_bytes();
        let mut r = Reader::new(&bytes);
        let back = WalRecord::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(rec, back);
        assert_eq!(
            rec.class(),
            if rec.is_policy() { CLASS_POLICY } else { CLASS_DATA }
        );
    }

    #[test]
    fn all_records_roundtrip() {
        roundtrip(WalRecord::Ddl {
            sql: "create table t (a int)".into(),
        });
        roundtrip(WalRecord::GrantView {
            principal: "11".into(),
            view: "mygrades".into(),
        });
        roundtrip(WalRecord::RevokeView {
            principal: "11".into(),
            view: "mygrades".into(),
        });
        roundtrip(WalRecord::GrantConstraint {
            principal: "student".into(),
            name: "ft_registered".into(),
        });
        roundtrip(WalRecord::GrantUpdate {
            principal: "11".into(),
            sql: "authorize insert on grades where student_id = $user_id".into(),
        });
        roundtrip(WalRecord::AddRole {
            user: "11".into(),
            role: "student".into(),
        });
        roundtrip(WalRecord::DelegateView {
            from: "a".into(),
            to: "b".into(),
            view: "v".into(),
        });
        roundtrip(WalRecord::Dml { deltas: vec![] });
        roundtrip(WalRecord::Dml {
            deltas: vec![TableDelta::Insert {
                table: Ident::new("grades"),
                row: Row(vec!["11".into()]),
            }],
        });
    }

    #[test]
    fn dml_bytes_are_the_tag_then_the_delta_vector() {
        let deltas = vec![
            TableDelta::Insert {
                table: Ident::new("grades"),
                row: Row(vec!["11".into()]),
            },
            TableDelta::Delete {
                table: Ident::new("grades"),
                indexes: vec![3, 1],
            },
        ];
        let mut expected = vec![TAG_DML];
        deltas.encode(&mut expected);
        let mut borrowed = Vec::new();
        encode_dml(deltas.iter().map(TableDelta::view), &mut borrowed);
        assert_eq!(borrowed, expected);
        assert_eq!(WalRecord::Dml { deltas }.to_bytes(), expected);
    }

    #[test]
    fn frame_carries_checksummed_header_and_payload() {
        let payload = WalRecord::Dml { deltas: vec![] }.to_bytes();
        let f = frame(&payload, CLASS_DATA).unwrap();
        assert_eq!(
            u32::from_le_bytes([f[0], f[1], f[2], f[3]]) as usize,
            payload.len()
        );
        assert_eq!(f[4], CLASS_DATA);
        assert_eq!(
            u32::from_le_bytes([f[5], f[6], f[7], f[8]]),
            crc32(&payload)
        );
        assert_eq!(u32::from_le_bytes([f[9], f[10], f[11], f[12]]), crc32(&f[..9]));
        assert_eq!(&f[FRAME_HEADER_LEN..], &payload[..]);
    }

    #[test]
    fn header_crc_pins_the_class_byte() {
        // Flipping the class byte (the torn-tail leniency decision)
        // must be detectable without the payload checksum.
        let payload = WalRecord::AddRole {
            user: "11".into(),
            role: "student".into(),
        }
        .to_bytes();
        let mut f = frame(&payload, CLASS_POLICY).unwrap();
        f[4] = CLASS_DATA;
        let hcrc = u32::from_le_bytes([f[9], f[10], f[11], f[12]]);
        assert_ne!(crc32(&f[..9]), hcrc);
    }
}
