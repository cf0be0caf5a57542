//! Dictionary compression (paper §3.1).
//!
//! Every unique 32-bit instruction word goes into a dictionary; the program
//! body becomes a stream of 16-bit indices. Because both codewords and
//! instructions have fixed sizes, the compressed address of a native
//! instruction is computable (`indices_base + (addr - text_base) / 2`) and
//! no mapping table is needed — the property that makes the paper's
//! dictionary decompressor so fast.

use std::error::Error;
use std::fmt;

use crate::codec::{
    req_u16s, req_u32s, Codec, CodecSegment, CompressError, CompressedLayout, DecodeError,
};
use crate::wordtable::WordTable;

/// Maximum dictionary entries addressable by a 16-bit index (§3.1).
pub const MAX_ENTRIES: usize = 1 << 16;

/// A dictionary-compressed instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictionaryCompressed {
    dictionary: Vec<u32>,
    indices: Vec<u16>,
}

/// Error: the program has more than 64K unique instruction words.
///
/// The paper handles this by leaving the remainder of the program in a
/// native code region (selective compression, §3.1); the image builder does
/// the same with this error as its signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DictionaryOverflow {
    /// Number of unique words encountered (`> MAX_ENTRIES`).
    pub unique: usize,
}

impl fmt::Display for DictionaryOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program has {} unique instruction words (dictionary limit {})",
            self.unique, MAX_ENTRIES
        )
    }
}

impl Error for DictionaryOverflow {}

impl DictionaryCompressed {
    /// Compresses an instruction-word stream.
    ///
    /// Dictionary entries are assigned in first-occurrence order, which is
    /// deterministic and matches the paper's description (any fixed
    /// assignment works — indices are not entropy-coded).
    ///
    /// # Errors
    ///
    /// Returns [`DictionaryOverflow`] if more than 64K unique words occur.
    pub fn compress(words: &[u32]) -> Result<DictionaryCompressed, DictionaryOverflow> {
        // Programs repeat most of their words; the table grows if not.
        let mut table = WordTable::with_capacity(words.len().min(MAX_ENTRIES) / 4);
        let mut indices = Vec::with_capacity(words.len());
        for &w in words {
            let id = table.intern(w) as usize;
            if id >= MAX_ENTRIES {
                return Err(DictionaryOverflow { unique: id + 1 });
            }
            indices.push(id as u16);
        }
        Ok(DictionaryCompressed {
            dictionary: table.into_words(),
            indices,
        })
    }

    /// Rebuilds a stream from its serialized parts (the inverse of
    /// [`DictionaryCompressed::dictionary_bytes`] /
    /// [`DictionaryCompressed::indices_bytes`]), so decoders can go
    /// through the exact bytes the run-time handler reads.
    pub fn from_parts(dictionary: Vec<u32>, indices: Vec<u16>) -> DictionaryCompressed {
        DictionaryCompressed {
            dictionary,
            indices,
        }
    }

    /// Reconstructs the original instruction words.
    pub fn decompress(&self) -> Vec<u32> {
        self.indices
            .iter()
            .map(|&i| self.dictionary[i as usize])
            .collect()
    }

    /// The dictionary (`.dictionary` segment), one 32-bit word per entry.
    pub fn dictionary(&self) -> &[u32] {
        &self.dictionary
    }

    /// The index stream (`.indices` segment), one 16-bit index per
    /// original instruction.
    pub fn indices(&self) -> &[u16] {
        &self.indices
    }

    /// Compressed size in bytes: `2·N indices + 4·U dictionary entries`
    /// (the paper's "dictionary compressed size").
    pub fn compressed_bytes(&self) -> usize {
        2 * self.indices.len() + 4 * self.dictionary.len()
    }

    /// Compression ratio against the native representation (Eq. 1:
    /// compressed / original; smaller is better).
    pub fn compression_ratio(&self) -> f64 {
        if self.indices.is_empty() {
            return 1.0;
        }
        self.compressed_bytes() as f64 / (4 * self.indices.len()) as f64
    }

    /// Serializes the `.indices` segment to little-endian bytes.
    pub fn indices_bytes(&self) -> Vec<u8> {
        self.indices.iter().flat_map(|i| i.to_le_bytes()).collect()
    }

    /// Serializes the `.dictionary` segment to little-endian bytes.
    pub fn dictionary_bytes(&self) -> Vec<u8> {
        self.dictionary
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }
}

/// The [`Codec`] view of dictionary compression: two segments,
/// `.indices` (16-bit stream) and `.dictionary` (32-bit entries).
#[derive(Debug, Clone, Copy, Default)]
pub struct DictionaryCodec;

impl Codec for DictionaryCodec {
    fn name(&self) -> &'static str {
        "d"
    }

    fn short_label(&self) -> &'static str {
        "D"
    }

    fn long_name(&self) -> &'static str {
        "Dictionary"
    }

    fn describe(&self) -> &'static str {
        "16-bit indices into a 32-bit word dictionary (paper §3.1); fastest handler"
    }

    fn unit_words(&self) -> usize {
        // The handler decompresses one 8-word I-cache line per miss.
        8
    }

    fn region_align(&self) -> u32 {
        64
    }

    fn compress(&self, words: &[u32]) -> Result<CompressedLayout, CompressError> {
        let c = DictionaryCompressed::compress(words)?;
        Ok(CompressedLayout {
            segments: vec![
                CodecSegment {
                    name: ".indices",
                    bytes: c.indices_bytes(),
                },
                CodecSegment {
                    name: ".dictionary",
                    bytes: c.dictionary_bytes(),
                },
            ],
        })
    }

    fn decode(&self, layout: &CompressedLayout, n_words: usize) -> Result<Vec<u32>, DecodeError> {
        let indices = req_u16s(layout, ".indices")?;
        let dictionary = req_u32s(layout, ".dictionary")?;
        if indices.len() < n_words {
            return Err(DecodeError::TooFewUnits {
                have_words: indices.len(),
                need_words: n_words,
            });
        }
        if indices.iter().any(|&i| i as usize >= dictionary.len()) {
            return Err(DecodeError::IndexOutOfRange {
                segment: ".dictionary",
            });
        }
        let mut words = DictionaryCompressed::from_parts(dictionary, indices).decompress();
        words.truncate(n_words);
        Ok(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_with_repetition() {
        let words = vec![10, 20, 10, 10, 30, 20];
        let c = DictionaryCompressed::compress(&words).unwrap();
        assert_eq!(c.decompress(), words);
        assert_eq!(c.dictionary(), &[10, 20, 30]);
        assert_eq!(c.indices(), &[0, 1, 0, 0, 2, 1]);
    }

    #[test]
    fn size_formula_matches_paper() {
        // 6 instructions, 3 unique: 2*6 + 4*3 = 24 bytes vs 24 original.
        let words = vec![10, 20, 10, 10, 30, 20];
        let c = DictionaryCompressed::compress(&words).unwrap();
        assert_eq!(c.compressed_bytes(), 24);
        assert!((c.compression_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_unique_words_expand() {
        // Paper §3.1: singletons cost index + dictionary entry = 6 bytes vs 4.
        let words: Vec<u32> = (0..100).collect();
        let c = DictionaryCompressed::compress(&words).unwrap();
        assert!(c.compression_ratio() > 1.0);
        assert!((c.compression_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn highly_repetitive_compresses_to_half() {
        let words = vec![0x1234_5678u32; 1000];
        let c = DictionaryCompressed::compress(&words).unwrap();
        // 2*1000 + 4 = 2004 vs 4000 => ~0.501
        assert!(c.compression_ratio() < 0.51);
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn empty_input() {
        let c = DictionaryCompressed::compress(&[]).unwrap();
        assert!(c.decompress().is_empty());
        assert_eq!(c.compressed_bytes(), 0);
        assert_eq!(c.compression_ratio(), 1.0);
    }

    #[test]
    fn overflow_detected() {
        let words: Vec<u32> = (0..=MAX_ENTRIES as u32).collect();
        let err = DictionaryCompressed::compress(&words).unwrap_err();
        assert!(err.unique > MAX_ENTRIES);
        assert!(err.to_string().contains("65536"));
    }

    #[test]
    fn exactly_64k_unique_is_fine() {
        let words: Vec<u32> = (0..MAX_ENTRIES as u32).collect();
        let c = DictionaryCompressed::compress(&words).unwrap();
        assert_eq!(c.dictionary().len(), MAX_ENTRIES);
        assert_eq!(c.decompress(), words);
    }

    #[test]
    fn byte_serialization_is_little_endian() {
        let c = DictionaryCompressed::compress(&[0xaabbccdd, 0xaabbccdd]).unwrap();
        assert_eq!(c.indices_bytes(), vec![0, 0, 0, 0]);
        assert_eq!(c.dictionary_bytes(), vec![0xdd, 0xcc, 0xbb, 0xaa]);
    }
}
