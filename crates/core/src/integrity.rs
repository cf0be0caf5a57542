//! Image integrity: per-segment CRC32 digests and per-line reference
//! CRCs over the decompressed text.
//!
//! The threat model is the paper's own premise turned around: compressed
//! `.text` lives in main memory and is expanded at every I-cache miss, so
//! a flipped bit in `.dictionary` or `.indices` silently becomes wrong
//! instructions at run time. Two layers of measurement defend against
//! that (DESIGN.md §11):
//!
//! * **segment digests** — a CRC32 and declared length per loadable
//!   segment, computed when an image is built ([`MemoryImage::seal`])
//!   and verified every time one is loaded. This catches corruption of
//!   the stored image (bad flash, truncated transfer) before a single
//!   instruction runs.
//! * **line CRCs** — a CRC32 of each 32-byte line of the *decompressed*
//!   compressed region, also computed at build time. They are reference
//!   measurements in the attestation sense: the `--verify-lines` runner
//!   re-CRCs every line the handler fills and compares, catching
//!   corruption that happened *after* load (bit rot in RAM) at the first
//!   miss that decodes through it.
//!
//! [`MemoryImage::seal`]: crate::image::MemoryImage::seal

/// Bytes per verified line: one 32-byte I-cache line of the baseline
/// configuration, the unit the paper's handlers fill.
pub const LINE_BYTES: usize = 32;

/// IEEE 802.3 CRC32 slicing-by-8 tables (reflected, polynomial
/// `0xEDB88320`). `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes,
/// so eight lookups advance the CRC over eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC32 of `bytes` (the ubiquitous zlib/PNG/802.3 variant):
/// eight bytes per step, then the tail one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// The build-time measurement of one loadable segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentDigest {
    /// The measured segment's name.
    pub name: String,
    /// Length the segment had when measured, in bytes.
    pub declared_len: u32,
    /// CRC32 of the segment's bytes when measured.
    pub crc: u32,
}

/// Per-line reference CRCs for a decompressed region: `crcs[i]` covers
/// the [`LINE_BYTES`]-byte line starting `i * LINE_BYTES` bytes into the
/// region.
pub fn line_crcs(words: &[u32]) -> Vec<u32> {
    words
        .chunks(LINE_BYTES / 4)
        .map(|line| {
            let mut bytes = [0u8; LINE_BYTES];
            for (dst, w) in bytes.chunks_exact_mut(4).zip(line) {
                dst.copy_from_slice(&w.to_le_bytes());
            }
            crc32(&bytes[..line.len() * 4])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop `crc32` replaced: the oracle the sliced
    /// version must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// `n` bytes of a fixed xorshift stream.
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_bytewise_oracle_at_every_length_and_offset() {
        let buf = seeded_bytes(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        let big = seeded_bytes(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn line_crcs_handle_a_partial_last_line() {
        let words: Vec<u32> = (0..11).map(|i| i * 0x0101_0101).collect(); // 1 line + 12 bytes
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(
            line_crcs(&words),
            vec![crc32(&bytes[..32]), crc32(&bytes[32..])]
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn line_crcs_cover_every_line() {
        let words: Vec<u32> = (0..24).collect(); // 96 bytes = 3 lines
        let crcs = line_crcs(&words);
        assert_eq!(crcs.len(), 3);
        // Each line's CRC matches an independent computation.
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(crcs[1], crc32(&bytes[32..64]));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0xAAu8; 64];
        let clean = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), clean);
    }
}
