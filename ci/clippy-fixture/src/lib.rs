//! Seeded violations for the clippy lints that guard panic-free and
//! overflow-checked code. `check.sh` requires clippy to reject this
//! crate with each named lint, and to accept it under `--tests`.

// The same attribute the workspace's no-panic crate roots carry.
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::arithmetic_side_effects, clippy::cast_possible_truncation,
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
