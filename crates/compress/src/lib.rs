//! Code-compression algorithms for *"Reducing Code Size with Run-time
//! Decompression"* (HPCA 2000):
//!
//! * [`dictionary`] — the paper's fast scheme (§3.1): every unique 32-bit
//!   instruction goes into a dictionary, the program becomes 16-bit
//!   indices; fixed-length codewords mean no mapping table.
//! * [`codepack`] — an IBM CodePack-style scheme (§3.2): per-half
//!   dictionaries with variable-length tagged codewords, 16-instruction
//!   groups, and a group mapping table; compresses better, decodes slower.
//! * [`lzrw1`] — Williams' LZRW1 (DCC '91), used for Table 2's
//!   procedure-compression lower bound.
//! * [`bytedict`] — a byte-aligned two-level dictionary ("D2"), exploring
//!   the paper's §6 future-work space between the two.
//! * [`lzchunk`] — LZRW1 over 512-byte chunks ("LZ"), the §5.2 bound made
//!   runnable.
//!
//! Every scheme also implements the [`codec::Codec`] trait, which is how
//! the image builder, CLI, and benchmark harnesses stay scheme-generic;
//! see `rtdc-core`'s registry for the full catalogue.
//!
//! All of these are pure algorithms over instruction words / bytes;
//! execution cost modeling lives in the simulator and the handler assembly
//! in `rtdc`.
//!
//! # Example
//!
//! ```
//! use rtdc_compress::dictionary::DictionaryCompressed;
//!
//! let text = vec![0x2442_0001u32; 64]; // 64 copies of one instruction
//! let c = DictionaryCompressed::compress(&text)?;
//! assert_eq!(c.decompress(), text);
//! assert!(c.compression_ratio() < 0.6);
//! # Ok::<(), rtdc_compress::dictionary::DictionaryOverflow>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod bytedict;
pub mod codec;
pub mod codepack;
pub mod dictionary;
pub mod lzchunk;
pub mod lzrw1;
#[cfg(test)]
mod oracle;
mod wordtable;
