//! Seeded violations for the clippy lints that guard panic-free and
//! overflow-checked code, and for the workspace's ban on raw std
//! atomics. `check.sh` requires clippy to reject this crate with each
//! named lint, and to accept it under `--tests`.

// The lints the workspace's no-panic crate roots and wire decoders
// deny, plus `disallowed_types`, which the workspace denies in
// Cargo.toml. Its ban list is the repository's root clippy.toml: this
// crate is a workspace of its own, and clippy finds that file by
// walking up from the manifest directory.
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::arithmetic_side_effects, clippy::cast_possible_truncation,
    clippy::indexing_slicing, clippy::disallowed_types,
))]

/// SEEDED `clippy::cast_possible_truncation`: a length narrowed with
/// `as`.
pub fn encode_len(payload_len: usize) -> [u8; 4] {
    (payload_len as u32).to_le_bytes()
}

/// SEEDED `clippy::arithmetic_side_effects`: an unchecked offset sum.
pub fn payload_end(pos: usize, header_len: usize) -> usize {
    pos + header_len
}

/// SEEDED `clippy::unwrap_used` and `clippy::panic` in decode code.
pub fn first_byte(bytes: &[u8]) -> u8 {
    let first = *bytes.first().unwrap();
    if first == 0 {
        panic!("zero class byte");
    }
    first
}

/// SEEDED `clippy::indexing_slicing`: a header field indexed out of
/// wire bytes.
pub fn kind_byte(frame: &[u8]) -> u8 {
    frame[4]
}

/// SEEDED `clippy::disallowed_types`: a raw `AtomicBool` whose
/// `Relaxed` load gates the loop exit, so the loop can keep serving
/// after another thread stored the flag, beside a raw `AtomicU64` bump
/// that should be a `Counter`. Outside the test build, where the deny
/// above does not apply and the lint would only warn.
#[cfg(not(test))]
pub mod relaxed_gate {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);
    pub static SERVED: AtomicU64 = AtomicU64::new(0);

    pub fn drain() {
        while !STOP.load(Ordering::Relaxed) {
            SERVED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_may_unwrap() {
        assert_eq!(first_byte(&[7]), 7);
        assert_eq!(payload_end(1, 2), 3);
        assert_eq!(encode_len(1), [1, 0, 0, 0]);
        let parsed: Option<u8> = "7".parse().ok();
        assert_eq!(parsed.unwrap(), 7);
    }
}
