//! CodePack-style compression (paper §3.2).
//!
//! Follows the structure of IBM's CodePack for embedded PowerPC:
//!
//! * each 32-bit instruction is split into its **high** and **low** 16-bit
//!   halves, compressed independently against two frequency-sorted
//!   dictionaries;
//! * each half becomes a variable-length **tagged codeword**: a short tag
//!   selects an index class (or a raw 16-bit escape), and the low half has
//!   a dedicated 2-bit code for the very common value zero;
//! * **16 instructions (two 32-byte cache lines) form a group**, compressed
//!   as one unaligned bit string, padded to a byte boundary;
//! * a **mapping table** gives the byte offset of every group so a cache
//!   miss can locate its compressed bits — the extra memory access the
//!   paper charges CodePack for (§3.2). As in IBM's compact LAT, the table
//!   is two-level: a 32-bit byte offset per [`GROUPS_PER_BLOCK`]-group
//!   block plus a 16-bit delta per group.
//!
//! The exact tag/width assignments below are ours (IBM's tables are tied to
//! PowerPC statistics); DESIGN.md §3 explains why this preserves the
//! paper-relevant behaviour: similar compression, strictly serial
//! variable-length decode, and the mapping-table indirection.
//!
//! ### Codeword format (MSB-first)
//!
//! High half:            Low half:
//! `0`   + 4-bit index   `00`            → literal zero
//! `10`  + 7-bit index   `01` + 4-bit index
//! `110` + 11-bit index  `10` + 8-bit index
//! `111` + 16-bit raw    `110` + 12-bit index
//!                       `111` + 16-bit raw
//!
//! The 16 hottest high halfwords cost only 5 bits — like real CodePack,
//! the scheme leans on the extreme skew of instruction fields.

use crate::bits::{BitReader, BitWriter};
use crate::codec::{
    req_segment, req_u16s, req_u32s, Codec, CodecSegment, CompressError, CompressedLayout,
    DecodeError,
};

/// Instructions per compressed group: two 8-instruction cache lines.
pub const GROUP_WORDS: usize = 16;

/// Maximum high-half dictionary size (16 + 128 + 2048).
pub const MAX_HI_DICT: usize = 2192;

/// Maximum low-half dictionary size (16 + 256 + 4096).
pub const MAX_LO_DICT: usize = 4368;

/// Groups per mapping-table block (one 32-bit base per block; each group
/// keeps a 16-bit delta from its block base).
pub const GROUPS_PER_BLOCK: usize = 256;

/// A CodePack-style compressed instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodePackCompressed {
    hi_dict: Vec<u16>,
    lo_dict: Vec<u16>,
    groups: Vec<u8>,
    bases: Vec<u32>,
    deltas: Vec<u16>,
    n_words: usize,
}

/// Distinct halfword values.
const HALVES: usize = 1 << 16;

/// A codeword packed as `bits | width << 24` (no codeword exceeds 19 bits).
const fn codeword(bits: u32, width: u32) -> u32 {
    bits | width << 24
}

/// The high-half codeword for dictionary rank `i` (raw if out of range).
fn hi_codeword(i: usize, value: u16) -> u32 {
    match i {
        0..16 => codeword(i as u32, 5),
        16..144 => codeword(0b10 << 7 | (i - 16) as u32, 9),
        144..MAX_HI_DICT => codeword(0b110 << 11 | (i - 144) as u32, 14),
        _ => codeword(0b111 << 16 | value as u32, 19),
    }
}

/// The low-half codeword for dictionary rank `i` (raw if out of range).
fn lo_codeword(i: usize, value: u16) -> u32 {
    match i {
        0..16 => codeword(0b01 << 4 | i as u32, 6),
        16..272 => codeword(0b10 << 8 | (i - 16) as u32, 10),
        272..MAX_LO_DICT => codeword(0b110 << 12 | (i - 272) as u32, 15),
        _ => codeword(0b111 << 16 | value as u32, 19),
    }
}

/// Turns per-value counts into per-value codewords and returns the
/// frequency-sorted dictionary (most frequent first, ties by value).
///
/// Every value with a non-zero count gets its codeword in place of its
/// count; values that never occur keep a zero entry, never looked up.
fn codes_from_counts(table: &mut [u32], max: usize, codeword: fn(usize, u16) -> u32) -> Vec<u16> {
    // Ascending `!count << 16 | value` is descending count, then value.
    let mut keys: Vec<u64> = table
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(value, &count)| u64::from(!count) << 16 | value as u64)
        .collect();
    keys.sort_unstable();
    for (rank, &key) in keys.iter().enumerate() {
        let value = key as u16;
        table[value as usize] = codeword(rank, value);
    }
    keys.truncate(max);
    keys.into_iter().map(|key| key as u16).collect()
}

const TRUNCATED: DecodeError = DecodeError::Truncated { segment: ".groups" };

fn decode_hi(r: &mut BitReader<'_>, dict: &[u16]) -> Result<u16, DecodeError> {
    const OOB: DecodeError = DecodeError::IndexOutOfRange { segment: ".hidict" };
    let bit = |r: &mut BitReader<'_>, w: u32| r.read(w).ok_or(TRUNCATED);
    if bit(r, 1)? == 0 {
        return dict.get(bit(r, 4)? as usize).copied().ok_or(OOB);
    }
    if bit(r, 1)? == 0 {
        return dict.get(16 + bit(r, 7)? as usize).copied().ok_or(OOB);
    }
    if bit(r, 1)? == 0 {
        return dict.get(144 + bit(r, 11)? as usize).copied().ok_or(OOB);
    }
    Ok(bit(r, 16)? as u16)
}

fn decode_lo(r: &mut BitReader<'_>, dict: &[u16]) -> Result<u16, DecodeError> {
    const OOB: DecodeError = DecodeError::IndexOutOfRange { segment: ".lodict" };
    let bit = |r: &mut BitReader<'_>, w: u32| r.read(w).ok_or(TRUNCATED);
    match bit(r, 2)? {
        0b00 => Ok(0),
        0b01 => dict.get(bit(r, 4)? as usize).copied().ok_or(OOB),
        0b10 => dict.get(16 + bit(r, 8)? as usize).copied().ok_or(OOB),
        _ => {
            // 3-bit tags: 110 = 12-bit index, 111 = raw.
            if bit(r, 1)? == 0 {
                dict.get(272 + bit(r, 12)? as usize).copied().ok_or(OOB)
            } else {
                Ok(bit(r, 16)? as u16)
            }
        }
    }
}

impl CodePackCompressed {
    /// Compresses an instruction-word stream.
    ///
    /// The input is implicitly padded with zero words (`nop`) to a multiple
    /// of [`GROUP_WORDS`]; [`CodePackCompressed::decompress`] trims the
    /// padding back off.
    pub fn compress(words: &[u32]) -> CodePackCompressed {
        let n_words = words.len();
        let padded = words.len().div_ceil(GROUP_WORDS) * GROUP_WORDS;
        let padded_words = || {
            words
                .iter()
                .copied()
                .chain(std::iter::repeat_n(0, padded - n_words))
        };

        let mut hi_codes = vec![0u32; HALVES];
        let mut lo_codes = vec![0u32; HALVES];
        for w in padded_words() {
            hi_codes[(w >> 16) as usize] += 1;
            lo_codes[(w & 0xffff) as usize] += 1;
        }
        // Zero low halves have their own codeword and no dictionary entry.
        lo_codes[0] = 0;
        let hi_dict = codes_from_counts(&mut hi_codes, MAX_HI_DICT, hi_codeword);
        let lo_dict = codes_from_counts(&mut lo_codes, MAX_LO_DICT, lo_codeword);
        lo_codes[0] = codeword(0b00, 2);

        let n_groups = padded / GROUP_WORDS;
        let mut bases = Vec::with_capacity(n_groups.div_ceil(GROUPS_PER_BLOCK));
        let mut deltas = Vec::with_capacity(n_groups);
        let mut w = BitWriter::new();
        let mut stream = padded_words();
        for g in 0..n_groups {
            // Groups start byte-aligned, so the offset is exact.
            let offset = (w.bit_len() / 8) as u32;
            if g % GROUPS_PER_BLOCK == 0 {
                bases.push(offset);
            }
            let base = *bases.last().expect("pushed above");
            deltas.push(u16::try_from(offset - base).expect("block span fits u16 by construction"));
            for word in stream.by_ref().take(GROUP_WORDS) {
                let hi = hi_codes[(word >> 16) as usize];
                let lo = lo_codes[(word & 0xffff) as usize];
                w.write(hi & 0xff_ffff, hi >> 24);
                w.write(lo & 0xff_ffff, lo >> 24);
            }
            w.align_byte();
        }

        CodePackCompressed {
            hi_dict,
            lo_dict,
            groups: w.into_bytes(),
            bases,
            deltas,
            n_words,
        }
    }

    /// Decompresses one 16-instruction group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range or the stream is corrupt (both are
    /// internal invariants of a value built by [`CodePackCompressed::compress`]).
    /// Untrusted bytes go through [`CodePackCompressed::try_decompress_group`].
    pub fn decompress_group(&self, group: usize) -> [u32; GROUP_WORDS] {
        self.try_decompress_group(group)
            .expect("corrupt group stream")
    }

    /// Fallible [`CodePackCompressed::decompress_group`]: safe on
    /// arbitrary (corrupt, truncated) serialized parts.
    ///
    /// # Errors
    ///
    /// A typed [`DecodeError`] naming the segment at fault — mapping-table
    /// entry out of range, truncated bit stream, or a codeword indexing a
    /// nonexistent dictionary entry.
    pub fn try_decompress_group(&self, group: usize) -> Result<[u32; GROUP_WORDS], DecodeError> {
        let off = self.try_group_offset(group)?;
        // An offset past the stream is fine to hand to the reader: every
        // subsequent read reports exhaustion.
        let mut r = BitReader::at_byte(&self.groups, off);
        let mut out = [0u32; GROUP_WORDS];
        for slot in &mut out {
            let hi = decode_hi(&mut r, &self.hi_dict)?;
            let lo = decode_lo(&mut r, &self.lo_dict)?;
            *slot = ((hi as u32) << 16) | lo as u32;
        }
        Ok(out)
    }

    /// Byte offset of `group` within [`CodePackCompressed::group_bytes`]
    /// (block base + per-group delta, exactly what the handler computes).
    ///
    /// # Panics
    ///
    /// Panics if `group` has no mapping-table entry; see
    /// [`CodePackCompressed::try_group_offset`].
    pub fn group_offset(&self, group: usize) -> usize {
        self.try_group_offset(group).expect("group out of range")
    }

    /// Fallible [`CodePackCompressed::group_offset`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::IndexOutOfRange`] if the two-level mapping table has
    /// no base or delta for `group`.
    pub fn try_group_offset(&self, group: usize) -> Result<usize, DecodeError> {
        let base =
            self.bases
                .get(group / GROUPS_PER_BLOCK)
                .ok_or(DecodeError::IndexOutOfRange {
                    segment: ".grouptab",
                })?;
        let delta = self.deltas.get(group).ok_or(DecodeError::IndexOutOfRange {
            segment: ".groupdeltas",
        })?;
        Ok(*base as usize + *delta as usize)
    }

    /// Rebuilds a stream from its serialized parts (the inverse of the
    /// `*_bytes` serializers), so decoders can go through the exact bytes
    /// the run-time handler reads.
    pub fn from_parts(
        hi_dict: Vec<u16>,
        lo_dict: Vec<u16>,
        groups: Vec<u8>,
        bases: Vec<u32>,
        deltas: Vec<u16>,
        n_words: usize,
    ) -> CodePackCompressed {
        CodePackCompressed {
            hi_dict,
            lo_dict,
            groups,
            bases,
            deltas,
            n_words,
        }
    }

    /// Reconstructs the original instruction words (padding trimmed).
    ///
    /// # Panics
    ///
    /// Panics on a corrupt stream (an internal invariant of a value built
    /// by [`CodePackCompressed::compress`]); untrusted bytes go through
    /// [`CodePackCompressed::try_decompress`].
    pub fn decompress(&self) -> Vec<u32> {
        self.try_decompress().expect("corrupt group stream")
    }

    /// Fallible [`CodePackCompressed::decompress`]: safe on arbitrary
    /// serialized parts.
    ///
    /// # Errors
    ///
    /// The first [`DecodeError`] any group produces.
    pub fn try_decompress(&self) -> Result<Vec<u32>, DecodeError> {
        let mut out = Vec::with_capacity(self.n_words);
        for g in 0..self.deltas.len() {
            out.extend_from_slice(&self.try_decompress_group(g)?);
        }
        out.truncate(self.n_words);
        Ok(out)
    }

    /// Number of compressed groups.
    pub fn group_count(&self) -> usize {
        self.deltas.len()
    }

    /// Original (unpadded) instruction count.
    pub fn word_count(&self) -> usize {
        self.n_words
    }

    /// The high-half dictionary.
    pub fn hi_dict(&self) -> &[u16] {
        &self.hi_dict
    }

    /// The low-half dictionary.
    pub fn lo_dict(&self) -> &[u16] {
        &self.lo_dict
    }

    /// The concatenated compressed group bytes.
    pub fn group_bytes(&self) -> &[u8] {
        &self.groups
    }

    /// The mapping table's block bases (one `u32` per 256 groups).
    pub fn bases(&self) -> &[u32] {
        &self.bases
    }

    /// The mapping table's per-group deltas (one `u16` per group).
    pub fn deltas(&self) -> &[u16] {
        &self.deltas
    }

    /// Compressed size in bytes: groups + mapping table + both dictionaries
    /// (the paper's "CodePack compressed size" includes indices, dictionary,
    /// and mapping table).
    pub fn compressed_bytes(&self) -> usize {
        self.groups.len()
            + 4 * self.bases.len()
            + 2 * self.deltas.len()
            + 2 * (self.hi_dict.len() + self.lo_dict.len())
    }

    /// Compression ratio against the native representation (Eq. 1).
    pub fn compression_ratio(&self) -> f64 {
        if self.n_words == 0 {
            return 1.0;
        }
        self.compressed_bytes() as f64 / (4 * self.n_words) as f64
    }

    /// Serializes the mapping-table block bases to little-endian bytes.
    pub fn bases_bytes(&self) -> Vec<u8> {
        self.bases.iter().flat_map(|o| o.to_le_bytes()).collect()
    }

    /// Serializes the mapping-table group deltas to little-endian bytes.
    pub fn deltas_bytes(&self) -> Vec<u8> {
        self.deltas.iter().flat_map(|o| o.to_le_bytes()).collect()
    }

    /// Serializes the high-half dictionary to little-endian bytes.
    pub fn hi_dict_bytes(&self) -> Vec<u8> {
        self.hi_dict.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Serializes the low-half dictionary to little-endian bytes.
    pub fn lo_dict_bytes(&self) -> Vec<u8> {
        self.lo_dict.iter().flat_map(|v| v.to_le_bytes()).collect()
    }
}

/// The [`Codec`] view of the CodePack scheme: five segments —
/// `.grouptab` (block bases), `.groupdeltas` (per-group offsets),
/// `.groups` (bit-packed codewords), `.hidict`, `.lodict`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodePackCodec;

impl Codec for CodePackCodec {
    fn name(&self) -> &'static str {
        "cp"
    }

    fn short_label(&self) -> &'static str {
        "CP"
    }

    fn long_name(&self) -> &'static str {
        "CodePack"
    }

    fn describe(&self) -> &'static str {
        "bit-packed per-half dictionaries with a group mapping table (paper §3.2); best ratio"
    }

    fn unit_words(&self) -> usize {
        GROUP_WORDS
    }

    fn region_align(&self) -> u32 {
        // One group = two I-cache lines; no group may straddle the
        // native-region boundary.
        64
    }

    fn compress(&self, words: &[u32]) -> Result<CompressedLayout, CompressError> {
        let c = CodePackCompressed::compress(words);
        Ok(CompressedLayout {
            segments: vec![
                CodecSegment {
                    name: ".grouptab",
                    bytes: c.bases_bytes(),
                },
                CodecSegment {
                    name: ".groupdeltas",
                    bytes: c.deltas_bytes(),
                },
                CodecSegment {
                    name: ".groups",
                    bytes: c.group_bytes().to_vec(),
                },
                CodecSegment {
                    name: ".hidict",
                    bytes: c.hi_dict_bytes(),
                },
                CodecSegment {
                    name: ".lodict",
                    bytes: c.lo_dict_bytes(),
                },
            ],
        })
    }

    fn decode(&self, layout: &CompressedLayout, n_words: usize) -> Result<Vec<u32>, DecodeError> {
        let bases = req_u32s(layout, ".grouptab")?;
        let deltas = req_u16s(layout, ".groupdeltas")?;
        let groups = req_segment(layout, ".groups")?.to_vec();
        let hi_dict = req_u16s(layout, ".hidict")?;
        let lo_dict = req_u16s(layout, ".lodict")?;
        if deltas.len() * GROUP_WORDS < n_words {
            return Err(DecodeError::TooFewUnits {
                have_words: deltas.len() * GROUP_WORDS,
                need_words: n_words,
            });
        }
        CodePackCompressed::from_parts(hi_dict, lo_dict, groups, bases, deltas, n_words)
            .try_decompress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_small() {
        let words = vec![0x1234_5678, 0x1234_0000, 0, 0xffff_ffff, 0x1234_5678];
        let c = CodePackCompressed::compress(&words);
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn round_trip_multi_group() {
        let words: Vec<u32> = (0..100).map(|i| (i % 7) * 0x0101_0101).collect();
        let c = CodePackCompressed::compress(&words);
        assert_eq!(c.decompress(), words);
        assert_eq!(c.group_count(), 7); // ceil(100/16)
    }

    #[test]
    fn group_decode_is_random_access() {
        let words: Vec<u32> = (0..64).map(|i| i * 0x11).collect();
        let c = CodePackCompressed::compress(&words);
        let g2 = c.decompress_group(2);
        assert_eq!(&g2[..], &words[32..48]);
    }

    #[test]
    fn zeros_compress_extremely_well() {
        let words = vec![0u32; 160];
        let c = CodePackCompressed::compress(&words);
        // Each word: hi "00"+4 idx + lo "00" = 8 bits => 1 byte/insn + table.
        assert!(
            c.compression_ratio() < 0.4,
            "ratio = {}",
            c.compression_ratio()
        );
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn repetitive_beats_dictionary_style_sizes() {
        // A plausible mix: few distinct "opcodes" (high halves), many zero
        // or small immediates (low halves).
        let words: Vec<u32> = (0..2000)
            .map(|i| {
                let hi = [0x8c42u32, 0xaf42, 0x2442, 0x1443][i % 4] << 16;
                let lo = if i % 3 == 0 { 0 } else { (i % 50) as u32 };
                hi | lo
            })
            .collect();
        let c = CodePackCompressed::compress(&words);
        assert_eq!(c.decompress(), words);
        assert!(
            c.compression_ratio() < 0.6,
            "ratio = {}",
            c.compression_ratio()
        );
    }

    #[test]
    fn raw_escapes_preserve_unseen_values() {
        // More than MAX_LO_DICT distinct low halves forces raw escapes.
        let words: Vec<u32> = (0..6000).map(|i| 0xabcd_0000 | i).collect();
        let c = CodePackCompressed::compress(&words);
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn empty_input() {
        let c = CodePackCompressed::compress(&[]);
        assert!(c.decompress().is_empty());
        assert_eq!(c.group_count(), 0);
        assert_eq!(c.compression_ratio(), 1.0);
    }

    #[test]
    fn padding_trimmed() {
        let words = vec![7u32; 17]; // 1 word into the second group
        let c = CodePackCompressed::compress(&words);
        assert_eq!(c.group_count(), 2);
        assert_eq!(c.decompress().len(), 17);
    }

    #[test]
    fn offsets_are_byte_aligned_and_monotonic() {
        let words: Vec<u32> = (0u32..160).map(|i| i.wrapping_mul(2654435761)).collect();
        let c = CodePackCompressed::compress(&words);
        let offs: Vec<usize> = (0..c.group_count()).map(|g| c.group_offset(g)).collect();
        for w in offs.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(*offs.first().unwrap(), 0);
    }

    #[test]
    fn mapping_table_is_two_level() {
        // 300 groups spans two 256-group blocks.
        let words = vec![7u32; 300 * GROUP_WORDS];
        let c = CodePackCompressed::compress(&words);
        assert_eq!(c.bases().len(), 2);
        assert_eq!(c.deltas().len(), 300);
        assert_eq!(c.group_offset(0), 0);
        // Delta resets at the block boundary.
        assert_eq!(c.deltas()[256], 0);
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn compressed_size_accounts_all_parts() {
        let words = vec![3u32; 16];
        let c = CodePackCompressed::compress(&words);
        let expected = c.group_bytes().len()
            + 4 * c.bases().len()
            + 2 * c.deltas().len()
            + 2 * (c.hi_dict().len() + c.lo_dict().len());
        assert_eq!(c.compressed_bytes(), expected);
    }
}
