//! Byte-aligned two-level dictionary compression ("D2") — an exploration
//! of the paper's closing future-work question (§5.3/§6: schemes between
//! the fast dictionary and the dense CodePack).
//!
//! Like the paper's own earlier scheme (Lefurgy et al., MICRO-30 1997,
//! cited in §2), codewords are *byte-aligned* variable-length dictionary
//! indices, so decode needs no bit-buffer — just byte loads and compares:
//!
//! * `1xxxxxxx` — one byte: dictionary entry `0..128` (the hottest words);
//! * `01xxxxxx yyyyyyyy` — two bytes: entry `128 + (x<<8|y)`,
//!   covering 16,384 more entries;
//! * `00000000` + 4 raw little-endian bytes — escape for words outside
//!   the dictionary.
//!
//! Codewords are variable length, so (as with CodePack, §3.2) a mapping
//! table locates each compressed **cache line** (8 instructions); it uses
//! the same two-level base+delta layout. Decoding is strictly per-line —
//! no two-line groups — so the handler cost sits between the paper's two
//! schemes: ~15–25 instructions per instruction decoded vs the
//! dictionary's ~9 and CodePack's ~60.

use crate::codec::{
    req_segment, req_u16s, req_u32s, Codec, CodecSegment, CompressError, CompressedLayout,
    DecodeError,
};
use crate::wordtable::WordTable;

/// Instructions per compressed line (one 32B I-cache line).
pub const LINE_WORDS: usize = 8;

/// Lines per mapping-table block (u32 base per block, u16 delta per line).
pub const LINES_PER_BLOCK: usize = 256;

/// One-byte-codeword dictionary entries.
pub const ONE_BYTE_ENTRIES: usize = 128;

/// Maximum dictionary size (one-byte + two-byte classes).
pub const MAX_DICT: usize = ONE_BYTE_ENTRIES + (1 << 14);

/// A byte-dictionary compressed instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteDictCompressed {
    dict: Vec<u32>,
    bytes: Vec<u8>,
    bases: Vec<u32>,
    deltas: Vec<u16>,
    n_words: usize,
}

impl ByteDictCompressed {
    /// Compresses an instruction-word stream (padded with zero words to a
    /// line boundary; [`ByteDictCompressed::decompress`] trims it back).
    pub fn compress(words: &[u32]) -> ByteDictCompressed {
        let n_words = words.len();
        let padded_len = words.len().div_ceil(LINE_WORDS) * LINE_WORDS;

        // Number the distinct words and count them in one pass.
        let mut table = WordTable::with_capacity(padded_len / 4);
        let mut counts: Vec<u32> = Vec::new();
        let ids: Vec<u32> = words
            .iter()
            .copied()
            .chain(std::iter::repeat_n(0, padded_len - n_words))
            .map(|w| {
                let id = table.intern(w);
                match counts.get_mut(id as usize) {
                    Some(count) => *count += 1,
                    None => counts.push(1),
                }
                id
            })
            .collect();

        // Frequency-sorted dictionary, ties broken by value: ascending
        // `!count << 32 | word` is descending count, then word.
        let distinct = table.words();
        let keyed = |repeated: bool| {
            counts
                .iter()
                .zip(distinct)
                .enumerate()
                .filter(move |&(_, (&c, _))| (c > 1) == repeated)
                .map(|(id, (&c, &w))| (u64::from(!c) << 32 | u64::from(w), id as u32))
        };
        // Words appearing once compress worse as 2-byte codes than raw
        // (2-byte code + 4-byte entry = 6B vs 5B escape), so only words
        // seen twice or more are sorted; singletons are taken, lowest
        // value first, only to fill the one-byte class.
        let mut entries: Vec<(u64, u32)> = keyed(true).collect();
        entries.sort_unstable();
        entries.truncate(MAX_DICT);
        let room = ONE_BYTE_ENTRIES.saturating_sub(entries.len());
        if room > 0 {
            let mut singles: Vec<(u64, u32)> = keyed(false).collect();
            if room < singles.len() {
                singles.select_nth_unstable(room);
                singles.truncate(room);
            }
            singles.sort_unstable();
            entries.extend(singles);
        }
        // Dictionary index by word id; `NONE` marks a raw escape.
        const NONE: u32 = u32::MAX;
        let mut index = vec![NONE; distinct.len()];
        for (i, &(_, id)) in entries.iter().enumerate() {
            index[id as usize] = i as u32;
        }
        let dict: Vec<u32> = entries.iter().map(|&(key, _)| key as u32).collect();

        let mut bytes = Vec::with_capacity(2 * padded_len);
        let n_lines = padded_len / LINE_WORDS;
        let mut bases = Vec::with_capacity(n_lines.div_ceil(LINES_PER_BLOCK));
        let mut deltas = Vec::with_capacity(n_lines);
        for (line, chunk) in ids.chunks(LINE_WORDS).enumerate() {
            if line % LINES_PER_BLOCK == 0 {
                bases.push(bytes.len() as u32);
            }
            let base = *bases.last().expect("pushed above");
            deltas.push(u16::try_from(bytes.len() as u32 - base).expect("block span fits u16"));
            for &id in chunk {
                match index[id as usize] {
                    i if (i as usize) < ONE_BYTE_ENTRIES => bytes.push(0x80 | i as u8),
                    NONE => {
                        bytes.push(0x00);
                        bytes.extend_from_slice(&distinct[id as usize].to_le_bytes());
                    }
                    i => {
                        let x = i as usize - ONE_BYTE_ENTRIES;
                        bytes.push(0x40 | (x >> 8) as u8);
                        bytes.push((x & 0xff) as u8);
                    }
                }
            }
        }

        ByteDictCompressed {
            dict,
            bytes,
            bases,
            deltas,
            n_words,
        }
    }

    /// Rebuilds a stream from its serialized parts (the inverse of the
    /// `*_bytes` serializers), so decoders can go through the exact bytes
    /// the run-time handler reads.
    pub fn from_parts(
        dict: Vec<u32>,
        bytes: Vec<u8>,
        bases: Vec<u32>,
        deltas: Vec<u16>,
        n_words: usize,
    ) -> ByteDictCompressed {
        ByteDictCompressed {
            dict,
            bytes,
            bases,
            deltas,
            n_words,
        }
    }

    /// Byte offset of `line` within [`ByteDictCompressed::code_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `line` has no mapping-table entry; see
    /// [`ByteDictCompressed::try_line_offset`].
    pub fn line_offset(&self, line: usize) -> usize {
        self.try_line_offset(line).expect("line out of range")
    }

    /// Fallible [`ByteDictCompressed::line_offset`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::IndexOutOfRange`] if the two-level mapping table has
    /// no base or delta for `line`.
    pub fn try_line_offset(&self, line: usize) -> Result<usize, DecodeError> {
        let base = self
            .bases
            .get(line / LINES_PER_BLOCK)
            .ok_or(DecodeError::IndexOutOfRange {
                segment: ".linetab",
            })?;
        let delta = self.deltas.get(line).ok_or(DecodeError::IndexOutOfRange {
            segment: ".linedeltas",
        })?;
        Ok(*base as usize + *delta as usize)
    }

    /// Decompresses one 8-instruction cache line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or the stream is corrupt (internal
    /// invariants of a compressed value); untrusted bytes go through
    /// [`ByteDictCompressed::try_decompress_line`].
    pub fn decompress_line(&self, line: usize) -> [u32; LINE_WORDS] {
        self.try_decompress_line(line).expect("corrupt code stream")
    }

    /// Fallible [`ByteDictCompressed::decompress_line`]: safe on
    /// arbitrary (corrupt, truncated) serialized parts.
    ///
    /// # Errors
    ///
    /// A typed [`DecodeError`] naming the segment at fault — mapping-table
    /// entry out of range, truncated codeword stream, or a codeword
    /// indexing a nonexistent dictionary entry.
    pub fn try_decompress_line(&self, line: usize) -> Result<[u32; LINE_WORDS], DecodeError> {
        const TRUNCATED: DecodeError = DecodeError::Truncated {
            segment: ".bytecodes",
        };
        const OOB: DecodeError = DecodeError::IndexOutOfRange {
            segment: ".bytedict",
        };
        let mut pos = self.try_line_offset(line)?;
        let mut out = [0u32; LINE_WORDS];
        for slot in &mut out {
            let tag = *self.bytes.get(pos).ok_or(TRUNCATED)?;
            pos += 1;
            *slot = if tag & 0x80 != 0 {
                *self.dict.get((tag & 0x7f) as usize).ok_or(OOB)?
            } else if tag & 0x40 != 0 {
                let lo = *self.bytes.get(pos).ok_or(TRUNCATED)? as usize;
                pos += 1;
                *self
                    .dict
                    .get(ONE_BYTE_ENTRIES + (((tag & 0x3f) as usize) << 8 | lo))
                    .ok_or(OOB)?
            } else {
                let raw = self.bytes.get(pos..pos + 4).ok_or(TRUNCATED)?;
                let w = u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]);
                pos += 4;
                w
            };
        }
        Ok(out)
    }

    /// Reconstructs the original words (padding trimmed).
    ///
    /// # Panics
    ///
    /// Panics on a corrupt stream; untrusted bytes go through
    /// [`ByteDictCompressed::try_decompress`].
    pub fn decompress(&self) -> Vec<u32> {
        self.try_decompress().expect("corrupt code stream")
    }

    /// Fallible [`ByteDictCompressed::decompress`]: safe on arbitrary
    /// serialized parts.
    ///
    /// # Errors
    ///
    /// The first [`DecodeError`] any line produces.
    pub fn try_decompress(&self) -> Result<Vec<u32>, DecodeError> {
        let mut out = Vec::with_capacity(self.n_words);
        for line in 0..self.deltas.len() {
            out.extend_from_slice(&self.try_decompress_line(line)?);
        }
        out.truncate(self.n_words);
        Ok(out)
    }

    /// Number of compressed lines.
    pub fn line_count(&self) -> usize {
        self.deltas.len()
    }

    /// The dictionary (32-bit words, frequency order).
    pub fn dict(&self) -> &[u32] {
        &self.dict
    }

    /// The compressed codeword bytes.
    pub fn code_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mapping-table block bases.
    pub fn bases(&self) -> &[u32] {
        &self.bases
    }

    /// Mapping-table per-line deltas.
    pub fn deltas(&self) -> &[u16] {
        &self.deltas
    }

    /// Compressed size: codewords + mapping table + dictionary.
    pub fn compressed_bytes(&self) -> usize {
        self.bytes.len() + 4 * self.bases.len() + 2 * self.deltas.len() + 4 * self.dict.len()
    }

    /// Eq. 1 compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        if self.n_words == 0 {
            return 1.0;
        }
        self.compressed_bytes() as f64 / (4 * self.n_words) as f64
    }

    /// Serializes the dictionary to little-endian bytes.
    pub fn dict_bytes(&self) -> Vec<u8> {
        self.dict.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Serializes the mapping-table bases to little-endian bytes.
    pub fn bases_bytes(&self) -> Vec<u8> {
        self.bases.iter().flat_map(|o| o.to_le_bytes()).collect()
    }

    /// Serializes the mapping-table deltas to little-endian bytes.
    pub fn deltas_bytes(&self) -> Vec<u8> {
        self.deltas.iter().flat_map(|o| o.to_le_bytes()).collect()
    }
}

/// The [`Codec`] view of the byte-dictionary scheme: four segments —
/// `.linetab` (block bases), `.linedeltas` (per-line offsets),
/// `.bytecodes` (tagged codewords), `.bytedict` (word dictionary).
#[derive(Debug, Clone, Copy, Default)]
pub struct ByteDictCodec;

impl Codec for ByteDictCodec {
    fn name(&self) -> &'static str {
        "d2"
    }

    fn short_label(&self) -> &'static str {
        "D2"
    }

    fn long_name(&self) -> &'static str {
        "ByteDict"
    }

    fn describe(&self) -> &'static str {
        "byte-granular tagged dictionary (1/2/4-byte codewords); better ratio than D"
    }

    fn unit_words(&self) -> usize {
        LINE_WORDS
    }

    fn region_align(&self) -> u32 {
        64
    }

    fn compress(&self, words: &[u32]) -> Result<CompressedLayout, CompressError> {
        let c = ByteDictCompressed::compress(words);
        Ok(CompressedLayout {
            segments: vec![
                CodecSegment {
                    name: ".linetab",
                    bytes: c.bases_bytes(),
                },
                CodecSegment {
                    name: ".linedeltas",
                    bytes: c.deltas_bytes(),
                },
                CodecSegment {
                    name: ".bytecodes",
                    bytes: c.code_bytes().to_vec(),
                },
                CodecSegment {
                    name: ".bytedict",
                    bytes: c.dict_bytes(),
                },
            ],
        })
    }

    fn decode(&self, layout: &CompressedLayout, n_words: usize) -> Result<Vec<u32>, DecodeError> {
        let bases = req_u32s(layout, ".linetab")?;
        let deltas = req_u16s(layout, ".linedeltas")?;
        let bytes = req_segment(layout, ".bytecodes")?.to_vec();
        let dict = req_u32s(layout, ".bytedict")?;
        if deltas.len() * LINE_WORDS < n_words {
            return Err(DecodeError::TooFewUnits {
                have_words: deltas.len() * LINE_WORDS,
                need_words: n_words,
            });
        }
        ByteDictCompressed::from_parts(dict, bytes, bases, deltas, n_words).try_decompress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_small() {
        let words = vec![7u32, 7, 9, 0xdead_beef, 7, 0, 1, 2, 3];
        let c = ByteDictCompressed::compress(&words);
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn hot_words_get_one_byte() {
        let mut words = vec![0x1111_1111u32; 100];
        words.extend([0x2222_2222; 4]);
        let c = ByteDictCompressed::compress(&words);
        // 104 insns -> ~104 bytes of codewords (plus padding line).
        assert!(c.code_bytes().len() <= 112, "{}", c.code_bytes().len());
        assert!(c.compression_ratio() < 0.45);
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn raw_escapes_round_trip() {
        // All-distinct words: most fall out of the dictionary.
        let words: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let c = ByteDictCompressed::compress(&words);
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn line_access_matches_bulk() {
        let words: Vec<u32> = (0..64).map(|i| (i % 9) * 0x1010_0101).collect();
        let c = ByteDictCompressed::compress(&words);
        let bulk = c.decompress();
        for l in 0..c.line_count() {
            assert_eq!(&c.decompress_line(l)[..], &bulk[l * 8..(l + 1) * 8]);
        }
    }

    #[test]
    fn mapping_table_is_two_level() {
        let words = vec![3u32; 300 * LINE_WORDS];
        let c = ByteDictCompressed::compress(&words);
        assert_eq!(c.bases().len(), 2);
        assert_eq!(c.deltas().len(), 300);
        assert_eq!(c.deltas()[256], 0);
    }

    #[test]
    fn empty_input() {
        let c = ByteDictCompressed::compress(&[]);
        assert!(c.decompress().is_empty());
        assert_eq!(c.compression_ratio(), 1.0);
    }

    #[test]
    fn compressed_size_accounts_all_parts() {
        let words = vec![5u32; 16];
        let c = ByteDictCompressed::compress(&words);
        let expected =
            c.code_bytes().len() + 4 * c.bases().len() + 2 * c.deltas().len() + 4 * c.dict().len();
        assert_eq!(c.compressed_bytes(), expected);
    }
}
