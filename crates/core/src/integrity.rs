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
//! # The kernel
//!
//! Every build seals its segments and CRCs its lines, and every verified
//! load or cache hit re-CRCs every segment, so [`crc32`] sits on the
//! build and serve paths. A table-driven CRC is one serial dependency
//! chain: each eight-byte step needs the previous step's register, so a
//! single slicing-by-8 stream runs at ≈0.6 B/cycle on bytes that are
//! already in cache, bound by the chain's latency and not by reading
//! the bytes. [`crc32`] therefore splits each [`BLOCK_BYTES`] block into
//! four quarters of [`STREAM_BYTES`] and runs four independent
//! slicing-by-8 streams, one per quarter, in one loop. The CRC register
//! is linear: running it over `L` more bytes multiplies it by
//! `x^(8L) mod P` and XORs in the CRC of those bytes from a zero
//! register. So the four registers fold into one by Horner's rule, three
//! GF(2) multiplies by the one constant `x^(8·STREAM_BYTES) mod P`, each
//! four lookups in a compile-time table. Inputs shorter than a block,
//! and the tail after the last whole block, take the single-stream loop.
//! [`line_crcs`] breaks the same chain across lines instead: it CRCs
//! four 32-byte lines at once, reading each line's words directly.
//!
//! Fusing the CRCs into the codecs (taking each line's CRC as a codec
//! walks its words) would save nothing: the cost is the chain, not a
//! second read of bytes that are still in cache, and the fused form
//! would tie every codec to the measurement.
//!
//! [`MemoryImage::seal`]: crate::image::MemoryImage::seal

#![deny(clippy::cast_possible_truncation)]

/// Bytes per verified line: one 32-byte I-cache line of the baseline
/// configuration, the unit the paper's handlers fill.
pub const LINE_BYTES: usize = 32;

/// Bytes each of [`crc32`]'s four streams takes from one block. A
/// 1 KiB block keeps the single-stream tail under 1 KiB, so the 10–25 KB
/// segments a verified cache hit re-CRCs run almost wholly on four
/// streams, while the fold (three table multiplies) stays a small share
/// of each block.
pub const STREAM_BYTES: usize = 256;

/// Bytes [`crc32`] hashes as four independent streams: inputs shorter
/// than this take the single-stream loop.
pub const BLOCK_BYTES: usize = 4 * STREAM_BYTES;

/// The reflected IEEE polynomial: bit 31 is `x^0`, bit 0 is `x^31`.
const POLY: u32 = 0xEDB8_8320;

/// `p·x mod P`, reflected: one bit step of the CRC register.
const fn mul_x(p: u32) -> u32 {
    if p & 1 != 0 {
        (p >> 1) ^ POLY
    } else {
        p >> 1
    }
}

/// IEEE 802.3 CRC32 slicing-by-8 tables (reflected, polynomial
/// `0xEDB88320`). `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes,
/// so eight lookups advance the CRC over eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0u32;
    while i < 256 {
        let mut crc = i;
        let mut bit = 0;
        while bit < 8 {
            crc = mul_x(crc);
            bit += 1;
        }
        tables[0][i as usize] = crc;
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

/// `a·b mod P` over GF(2), both operands reflected.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 31;
    loop {
        if a & (1 << bit) != 0 {
            product ^= b;
        }
        if bit == 0 {
            return product;
        }
        bit -= 1;
        b = mul_x(b);
    }
}

/// `SHIFT_TABLES[k][i]` is `(i << 8k)·x^(8·STREAM_BYTES) mod P`, so four
/// lookups advance a register past [`STREAM_BYTES`] zero bytes.
const SHIFT_TABLES: [[u32; 256]; 4] = {
    // x^(8·STREAM_BYTES) mod P, from x^0 (bit 31) one factor x at a time.
    let mut shift = 1u32 << 31;
    let mut n = 0;
    while n < 8 * STREAM_BYTES {
        shift = mul_x(shift);
        n += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut i = 0u32;
        while i < 256 {
            tables[k][i as usize] = multmodp(i << (8 * k), shift);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Multiplies a register by `x^(8·STREAM_BYTES) mod P`.
#[inline(always)]
fn shift_stream(crc: u32) -> u32 {
    let [b0, b1, b2, b3] = crc.to_le_bytes();
    let t = &SHIFT_TABLES;
    t[0][usize::from(b0)] ^ t[1][usize::from(b1)] ^ t[2][usize::from(b2)] ^ t[3][usize::from(b3)]
}

/// Advances a register over eight little-endian bytes `data`.
#[inline(always)]
fn step8(crc: u32, data: u64) -> u32 {
    let t = &CRC_TABLES;
    let [b0, b1, b2, b3, b4, b5, b6, b7] = (data ^ u64::from(crc)).to_le_bytes();
    t[7][usize::from(b0)]
        ^ t[6][usize::from(b1)]
        ^ t[5][usize::from(b2)]
        ^ t[4][usize::from(b3)]
        ^ t[3][usize::from(b4)]
        ^ t[2][usize::from(b5)]
        ^ t[1][usize::from(b6)]
        ^ t[0][usize::from(b7)]
}

/// Eight bytes as one little-endian `u64`.
#[inline(always)]
fn le64(bytes: &[u8; 8]) -> u64 {
    u64::from_le_bytes(*bytes)
}

/// The single-stream loop: advances `crc` over `bytes` eight bytes per
/// step, then the tail one byte at a time.
fn crc32_serial(mut crc: u32, bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<8>();
    for c in chunks {
        crc = step8(crc, le64(c));
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC_TABLES[0][usize::from(crc.to_le_bytes()[0] ^ b)];
    }
    crc
}

/// IEEE CRC32 of `bytes` (the ubiquitous zlib/PNG/802.3 variant): each
/// whole [`BLOCK_BYTES`] block as four independent streams folded into
/// one register, then the tail eight bytes per step (module docs).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    let (blocks, tail) = bytes.as_chunks::<BLOCK_BYTES>();
    for block in blocks {
        let (q0, rest) = block.split_at(STREAM_BYTES);
        let (q1, rest) = rest.split_at(STREAM_BYTES);
        let (q2, q3) = rest.split_at(STREAM_BYTES);
        let (mut c0, mut c1, mut c2, mut c3) = (crc, 0, 0, 0);
        let quarters = q0.as_chunks::<8>().0.iter().zip(q1.as_chunks::<8>().0);
        for ((a, b), (c, d)) in
            quarters.zip(q2.as_chunks::<8>().0.iter().zip(q3.as_chunks::<8>().0))
        {
            c0 = step8(c0, le64(a));
            c1 = step8(c1, le64(b));
            c2 = step8(c2, le64(c));
            c3 = step8(c3, le64(d));
        }
        crc = shift_stream(shift_stream(shift_stream(c0) ^ c1) ^ c2) ^ c3;
    }
    !crc32_serial(crc, tail)
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
/// region. Whole lines are taken four at a time, as four independent
/// registers fed straight from the words; a partial last line is CRCed
/// on its own.
pub fn line_crcs(words: &[u32]) -> Vec<u32> {
    /// Two words as the eight little-endian bytes they occupy.
    #[inline(always)]
    fn pair(w: &[u32; 2]) -> u64 {
        u64::from(w[0]) | u64::from(w[1]) << 32
    }
    const LINE_WORDS: usize = LINE_BYTES / 4;
    let mut crcs = Vec::with_capacity(words.len().div_ceil(LINE_WORDS));
    let (quads, rest) = words.as_chunks::<{ 4 * LINE_WORDS }>();
    for quad in quads {
        let (l0, rest) = quad.split_at(LINE_WORDS);
        let (l1, rest) = rest.split_at(LINE_WORDS);
        let (l2, l3) = rest.split_at(LINE_WORDS);
        let mut c = [0xffff_ffffu32; 4];
        let lines = l0.as_chunks::<2>().0.iter().zip(l1.as_chunks::<2>().0);
        for ((a, b), (x, y)) in lines.zip(l2.as_chunks::<2>().0.iter().zip(l3.as_chunks::<2>().0)) {
            c[0] = step8(c[0], pair(a));
            c[1] = step8(c[1], pair(b));
            c[2] = step8(c[2], pair(x));
            c[3] = step8(c[3], pair(y));
        }
        crcs.extend(c.map(|crc| !crc));
    }
    for line in rest.chunks(LINE_WORDS) {
        let (pairs, odd) = line.as_chunks::<2>();
        let crc = pairs.iter().fold(0xffff_ffff, |crc, p| step8(crc, pair(p)));
        let crc = odd
            .iter()
            .fold(crc, |crc, w| crc32_serial(crc, &w.to_le_bytes()));
        crcs.push(!crc);
    }
    crcs
}

#[cfg(test)]
mod tests {
    use rtdc_rng::{fuzz, Rng64};

    use super::*;

    /// The bytewise table loop the sliced version replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// The single-stream slicing-by-8 `crc32` the four-stream kernel
    /// replaced, as it was: the oracle [`crc32`] must equal.
    fn crc32_sliced(bytes: &[u8]) -> u32 {
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

    /// `n` bytes of a fixed xorshift stream.
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[7]
            })
            .collect()
    }

    fn check(bytes: &[u8], what: &str) {
        let want = crc32_sliced(bytes);
        assert_eq!(crc32(bytes), want, "{what}");
        assert_eq!(crc32_bytewise(bytes), want, "{what}");
    }

    #[test]
    fn crc32_equals_bytewise_oracle_at_every_length_and_offset() {
        let buf = seeded_bytes(3 * BLOCK_BYTES + 16 + 8);
        let near_blocks = (1..=3).flat_map(|k| k * BLOCK_BYTES - 16..=k * BLOCK_BYTES + 16);
        for len in (0..=64).chain(near_blocks) {
            for start in 0..8 {
                check(
                    &buf[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
        check(&seeded_bytes(1 << 20), "1 MiB");
    }

    #[test]
    fn crc32_equals_oracles_at_random_lengths() {
        let mut rng = Rng64::seed_from_u64(0xc4c3_2000);
        let buf: Vec<u8> = (0..(1 << 20) + 8)
            .map(|_| rng.gen_range(0u8..=255))
            .collect();
        for _ in 0..fuzz::iters(4) {
            let start = rng.gen_range(0..8usize);
            let len = rng.gen_range(0..=1usize << 20);
            check(
                &buf[start..start + len],
                &format!("start {start} len {len}"),
            );
        }
    }

    #[test]
    fn shift_table_advances_past_a_stream_of_zeros() {
        // Multiplying by x^(8·STREAM_BYTES) is running the register over
        // STREAM_BYTES zero bytes.
        for crc in [1, 0x8000_0000, 0xffff_ffff, 0x1234_5678, 0xCBF4_3926] {
            assert_eq!(shift_stream(crc), crc32_serial(crc, &[0; STREAM_BYTES]));
        }
    }

    #[test]
    fn line_crcs_equal_a_crc_per_line_at_every_length() {
        let bytes = seeded_bytes(70 * 4);
        let words: Vec<u32> = bytes
            .as_chunks::<4>()
            .0
            .iter()
            .map(|w| u32::from_le_bytes(*w))
            .collect();
        for n in 0..=70 {
            let want: Vec<u32> = bytes[..n * 4]
                .chunks(LINE_BYTES)
                .map(crc32_sliced)
                .collect();
            assert_eq!(line_crcs(&words[..n]), want, "{n} words");
        }
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
