//! Length-prefixed, CRC-framed wire transport.
//!
//! The framing discipline mirrors the WAL's (`fgac-wal`): a fixed
//! header carrying the payload length, a kind byte, the payload CRC,
//! and a CRC over the header itself — so a header is either trusted in
//! full or rejected without interpreting any of its fields. Unlike the
//! WAL there is no torn-tail leniency: a stream cannot be resynced
//! after garbage, so any checksum or length violation closes the
//! connection (strict fail-closed framing).
//!
//! ```text
//! offset  size  field
//! 0       4     payload length (LE u32, ≤ MAX_PAYLOAD)
//! 4       1     kind (request opcode or response status)
//! 5       4     CRC-32 of the payload
//! 9       4     CRC-32 of bytes [0, 9)
//! 13      len   payload
//! ```

// Lengths and offsets here come off the wire or the disk: overflow,
// truncation and out-of-bounds reads are checked and surface as errors
// (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::arithmetic_side_effects, clippy::cast_possible_truncation, clippy::indexing_slicing,
))]

use fgac_types::{Error, Result};
use fgac_wal::crc32;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Bytes of framing before the payload.
pub const HEADER_LEN: usize = 13;

/// Upper bound on a frame payload. Large enough for any realistic
/// result set in this workload, small enough that a hostile length
/// field cannot balloon server memory.
pub const MAX_PAYLOAD: usize = 4 << 20;

/// A decoded frame header, trusted only after its own CRC checks out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub len: usize,
    pub kind: u8,
    pub payload_crc: u32,
}

/// Encodes a complete frame (header + payload).
pub fn encode_frame(kind: u8, payload: &[u8]) -> Result<Vec<u8>> {
    if payload.len() > MAX_PAYLOAD {
        return Err(Error::Execution(format!(
            "frame payload of {} bytes exceeds the {MAX_PAYLOAD}-byte limit",
            payload.len()
        )));
    }
    // The MAX_PAYLOAD guard above keeps the length within u32 range;
    // try_from makes that dependency explicit rather than truncating.
    let len = u32::try_from(payload.len())
        .map_err(|_| Error::Execution("frame payload length exceeds u32".into()))?;
    let mut out = Vec::with_capacity(HEADER_LEN.saturating_add(payload.len()));
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    // `out` holds exactly the header's first nine bytes here.
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Decodes and verifies a frame header. Nothing in the header is
/// interpreted unless the header CRC matches.
pub fn decode_header(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader> {
    let stored = u32::from_le_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]);
    if crc32(&bytes[..9]) != stored {
        return Err(Error::Corrupt("frame header checksum mismatch".into()));
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(Error::Corrupt(format!(
            "frame length {len} exceeds the {MAX_PAYLOAD}-byte limit"
        )));
    }
    Ok(FrameHeader {
        len,
        kind: bytes[4],
        payload_crc: u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]),
    })
}

/// Verifies a payload against its header CRC.
pub fn verify_payload(header: &FrameHeader, payload: &[u8]) -> Result<()> {
    if crc32(payload) != header.payload_crc {
        return Err(Error::Corrupt("frame payload checksum mismatch".into()));
    }
    Ok(())
}

/// Writes one frame. Fault sites (`fault-injection` builds only):
/// `server::write_frame` fails before any byte reaches the wire (a
/// response lost whole), `server::write_frame_torn` cuts the frame in
/// half mid-write (a torn response the peer must reject).
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<()> {
    let bytes = encode_frame(kind, payload)?;
    #[cfg(feature = "fault-injection")]
    fgac_types::faults::hit("server::write_frame").map_err(|_| {
        Error::Execution("injected fault: response dropped before write".into())
    })?;
    #[cfg(feature = "fault-injection")]
    if fgac_types::faults::hit("server::write_frame_torn").is_err() {
        let half = bytes.get(..bytes.len() / 2).unwrap_or_default();
        let _ = w.write_all(half);
        let _ = w.flush();
        return Err(Error::Execution(
            "injected fault: response torn mid-write".into(),
        ));
    }
    w.write_all(&bytes)
        .and_then(|()| w.flush())
        .map_err(|e| Error::Execution(format!("frame write failed: {e}")))
}

/// What [`read_frame_deadline`] observed on the stream.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete, checksum-verified frame.
    Frame { kind: u8, payload: Vec<u8> },
    /// The peer closed the stream at a frame boundary (clean EOF).
    Closed,
    /// No byte arrived before `idle_deadline` (idle / slowloris guard).
    IdleTimeout,
    /// A frame started but did not complete before the per-frame
    /// deadline (stalled or dripping sender).
    Stalled,
    /// Framing violation: header/payload checksum mismatch, oversize
    /// length, or EOF mid-frame. The stream cannot be resynced.
    Corrupt(String),
    /// I/O error on the stream.
    Io(String),
    /// The caller's `should_abort` predicate fired while idle (e.g. the
    /// server started draining).
    Aborted,
}

/// Reads exactly `buf.len()` bytes before `deadline`, tolerating the
/// short poll-timeout reads the caller configured on the socket.
/// Returns `Ok(n)` with the bytes filled, `Err(true)` on EOF, or
/// `Err(false)` on deadline expiry; I/O errors map to EOF-like closure.
fn read_exact_deadline(
    r: &mut impl Read,
    buf: &mut [u8],
    deadline: Instant,
) -> std::result::Result<(), ReadFail> {
    let mut filled = 0usize;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => return Err(ReadFail::Eof),
            Ok(n) => filled = filled.saturating_add(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(ReadFail::Deadline);
                }
            }
            Err(e) => return Err(ReadFail::Io(e.to_string())),
        }
    }
    Ok(())
}

enum ReadFail {
    Eof,
    Deadline,
    Io(String),
}

/// Reads one frame from a stream whose socket read timeout is set to a
/// short poll interval.
///
/// Waits up to `idle_deadline` for the first byte (checking
/// `should_abort` at every poll tick); once a frame has begun, the
/// *whole* frame must complete within `frame_timeout` — a hard
/// wall-clock bound per frame, so a dripping sender cannot hold the
/// connection open indefinitely (slowloris defense).
pub fn read_frame_deadline(
    r: &mut impl Read,
    idle_deadline: Instant,
    frame_timeout: Duration,
    should_abort: impl Fn() -> bool,
) -> FrameEvent {
    #[cfg(feature = "fault-injection")]
    if fgac_types::faults::hit("server::read_frame").is_err() {
        return FrameEvent::Io("injected fault: read aborted".into());
    }
    // Phase 1: wait for the first byte (idle phase).
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return FrameEvent::Closed,
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if should_abort() {
                    return FrameEvent::Aborted;
                }
                if Instant::now() >= idle_deadline {
                    return FrameEvent::IdleTimeout;
                }
            }
            Err(e) => return FrameEvent::Io(e.to_string()),
        }
    }
    // Phase 2: the frame has begun; it must complete before the frame
    // deadline.
    let Some(deadline) = Instant::now().checked_add(frame_timeout) else {
        return FrameEvent::Io(format!("frame timeout {frame_timeout:?} is out of range"));
    };
    let mut header = [0u8; HEADER_LEN];
    header[0] = first[0];
    match read_exact_deadline(r, &mut header[1..], deadline) {
        Ok(()) => {}
        Err(ReadFail::Eof) => return FrameEvent::Corrupt("EOF mid-header".into()),
        Err(ReadFail::Deadline) => return FrameEvent::Stalled,
        Err(ReadFail::Io(e)) => return FrameEvent::Io(e),
    }
    let parsed = match decode_header(&header) {
        Ok(h) => h,
        Err(e) => return FrameEvent::Corrupt(e.to_string()),
    };
    let mut payload = vec![0u8; parsed.len];
    match read_exact_deadline(r, &mut payload, deadline) {
        Ok(()) => {}
        Err(ReadFail::Eof) => return FrameEvent::Corrupt("EOF mid-payload".into()),
        Err(ReadFail::Deadline) => return FrameEvent::Stalled,
        Err(ReadFail::Io(e)) => return FrameEvent::Io(e),
    }
    if let Err(e) = verify_payload(&parsed, &payload) {
        return FrameEvent::Corrupt(e.to_string());
    }
    FrameEvent::Frame {
        kind: parsed.kind,
        payload,
    }
}

/// Blocking read of one frame for clients (the socket's own read
/// timeout bounds each syscall). `Ok(None)` is clean EOF.
pub fn read_frame_blocking(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while let Some(rest) = header.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(Error::Corrupt("EOF mid-header".into())),
            Ok(n) => filled = filled.saturating_add(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Execution(format!("frame read failed: {e}"))),
        }
    }
    let parsed = decode_header(&header)?;
    let mut payload = vec![0u8; parsed.len];
    let mut filled = 0usize;
    while let Some(rest) = payload.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => return Err(Error::Corrupt("EOF mid-payload".into())),
            Ok(n) => filled = filled.saturating_add(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Execution(format!("frame read failed: {e}"))),
        }
    }
    verify_payload(&parsed, &payload)?;
    Ok(Some((parsed.kind, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let bytes = encode_frame(0x42, b"hello").unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + 5);
        let mut cursor = std::io::Cursor::new(bytes);
        let (kind, payload) = read_frame_blocking(&mut cursor).unwrap().unwrap();
        assert_eq!(kind, 0x42);
        assert_eq!(payload, b"hello");
        // Clean EOF after the frame.
        assert!(read_frame_blocking(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = encode_frame(0x01, b"payload-bytes").unwrap();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            let mut cursor = std::io::Cursor::new(corrupt);
            let outcome = read_frame_blocking(&mut cursor);
            match outcome {
                Err(_) => {}
                Ok(Some((kind, payload))) => {
                    // Flipping a bit must never yield the original frame
                    // verbatim; any accepted decode here is a CRC hole.
                    panic!("corruption at byte {i} accepted: kind={kind} len={}", payload.len());
                }
                Ok(None) => panic!("corruption at byte {i} read as clean EOF"),
            }
        }
    }

    #[test]
    fn oversize_length_is_rejected_without_allocating() {
        let mut bytes = encode_frame(0x01, b"x").unwrap();
        // Forge an enormous length and fix up the header CRC so only the
        // length check can reject it.
        bytes[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let crc = crc32(&bytes[..9]);
        bytes[9..13].copy_from_slice(&crc.to_le_bytes());
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes[..HEADER_LEN]);
        let err = decode_header(&header).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)));
    }

    #[test]
    fn truncated_frame_is_corrupt_not_eof() {
        let bytes = encode_frame(0x07, b"some payload").unwrap();
        let torn = &bytes[..bytes.len() - 3];
        let mut cursor = std::io::Cursor::new(torn.to_vec());
        let err = read_frame_blocking(&mut cursor).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    }
}
