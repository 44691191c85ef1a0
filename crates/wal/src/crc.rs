//! CRC-32 (IEEE 802.3 polynomial), table-driven.
//!
//! Every WAL frame and the snapshot payload carry a CRC so recovery can
//! distinguish a torn tail (partial final record — expected after a
//! crash) from corruption (checksum mismatch — fail closed for policy
//! records). The table is built at compile time; no external crate.

#[allow(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "compile-time loop counters bounded by 256 and 8; `i` indexes the 256-entry table"
)]
const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// CRC-32 of `data` (IEEE, reflected, init/xorout `0xFFFFFFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        let [low, ..] = (crc ^ u32::from(b)).to_le_bytes();
        // A byte indexes the 256-entry table, so the entry is present.
        crc = (crc >> 8) ^ TABLE.get(usize::from(low)).copied().unwrap_or_default();
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_detected() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
