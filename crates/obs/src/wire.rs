//! The wire primitives every layer of the stack shares: the CRC-32 that
//! guards reliable frames, CKPT1 blobs and `Content-Crc32` uploads, the
//! SplitMix64 mix behind every seeded fault coin, and the seeded-jitter
//! exponential backoff both retry loops (virtual-time retransmits in
//! `mpisim`, wall-time pushes in `chamserve`) scale their base delay by.
//!
//! They live here because `obs` is the one crate under all of `mpisim`,
//! `chamserve`, `workloads` and the bench harness: one definition means a
//! `crc32` value or a coin means the same thing at every layer.

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Feed `bytes` into a raw CRC-32 state. Start from `0xFFFF_FFFF` and
/// XOR the result with `0xFFFF_FFFF` to finish — [`crc32`] does both for a
/// single buffer; a checksum over several pieces chains this.
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 of `bytes` (full init/finalize — matches every common
/// `crc32(...)` implementation, e.g. `python3 -c 'import zlib, ...'`).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
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
