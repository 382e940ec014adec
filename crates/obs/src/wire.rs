//! The wire primitives every layer of the stack shares: the CRC-32 that
//! guards reliable frames, CKPT1 blobs and `Content-Crc32` uploads, the
//! FNV-64 that digests canonical artifacts into one comparable word, the
//! SplitMix64 mix behind every seeded fault coin, and the seeded-jitter
//! exponential backoff both retry loops (virtual-time retransmits in
//! `mpisim`, wall-time pushes in `chamserve`) scale their base delay by.
//!
//! They live here because `obs` is the one crate under all of `mpisim`,
//! `chamserve`, `workloads` and the bench harness: one definition means a
//! `crc32` value or a coin means the same thing at every layer.

/// CRC-32 (IEEE 802.3), reflected polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight input bytes fold into the state with eight independent
/// lookups instead of eight dependent ones.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Feed `bytes` into a raw CRC-32 state. Start from `0xFFFF_FFFF` and
/// XOR the result with `0xFFFF_FFFF` to finish — [`crc32`] does both for a
/// single buffer; a checksum over several pieces chains this.
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 of `bytes` (full init/finalize — matches every common
/// `crc32(...)` implementation, e.g. `python3 -c 'import zlib, ...'`).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// 64-bit FNV-1a over a byte string. Digests deterministic artifacts
/// (canonical journals, trace text) into a single comparable word for
/// regression tables and the daemon's run listing — not a cryptographic
/// hash. Two journals share a digest of their `to_jsonl` bytes iff
/// `obs::query::diff` finds no divergence between them (up to collisions).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 mixing step: the stateless 64-bit hash every seeded fault
/// coin and jitter draw is cut from.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The factor a retry loop scales its base delay by before retry number
/// `attempt` (1-based): `2^min(attempt-1, 10)` times a jitter in
/// `[0.5, 1.5)`. The jitter is a pure function of `seed`, the transfer's
/// `coords` and the attempt, so seeded runs back off reproducibly while
/// concurrent transfers under one seed do not retry in lock step.
pub fn backoff_factor(seed: u64, coords: &[u64], attempt: u32) -> f64 {
    const EXP_CAP: u32 = 10;
    let exp = attempt.saturating_sub(1).min(EXP_CAP);
    let mut h = seed;
    for &v in coords.iter().chain(&[u64::from(attempt)]) {
        h = splitmix64(h ^ v);
    }
    // Top 53 bits → uniform in [0, 1); shifted to [0.5, 1.5).
    let jitter = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64;
    f64::from(1u32 << exp) * jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32: the definition the tables are a shortcut for.
    fn crc32_update_bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    CRC_POLY ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    fn seeded_bytes(n: usize) -> Vec<u8> {
        (0..n as u64).map(|i| splitmix64(42 ^ i) as u8).collect()
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_equals_bitwise_at_every_length_and_offset() {
        // Lengths 0..=67 cover the empty input, a lone tail, exactly one
        // 8-byte block and eight blocks plus every tail; offsets 0..8 put
        // the block loop at every alignment.
        let buf = seeded_bytes(67 + 8);
        for start in 0..8 {
            for len in 0..=67 {
                let piece = &buf[start..start + len];
                for state in [0xFFFF_FFFF, 0, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, piece),
                        crc32_update_bitwise(state, piece),
                        "start {start} len {len} state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc_chains_across_every_split() {
        let buf = seeded_bytes(64);
        let whole = crc32_update(0xFFFF_FFFF, &buf);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            let chained = crc32_update(crc32_update(0xFFFF_FFFF, a), b);
            assert_eq!(chained, whole, "split at {split}");
        }
    }
}
