//! LZRW1-backed large-granularity compression ("LZ") — the paper's §5
//! upper bound on achievable ratio, made runnable.
//!
//! §5.2 measures LZRW1 over whole procedures (after Kirovski et al.) as
//! the "what if we decompressed bigger units" comparison point, but the
//! paper never executes it. This codec does: the compressed region is cut
//! into fixed [`CHUNK_BYTES`] **chunks** (16 cache lines — the
//! procedure-sized unit quantized to a power of two so a miss address
//! maps to its unit with two shifts, exactly like the line/group schemes),
//! and each chunk is LZRW1-compressed independently. A miss decompresses
//! the whole surrounding chunk into scratch RAM and fills all 16 lines,
//! trading a much more expensive miss for LZ-class ratios and a
//! 16-line prefetch effect.
//!
//! Segments:
//!
//! * `.lzchunks` — `u32` byte offset of each chunk's compressed stream,
//!   plus one sentinel entry holding the total stream length (so chunk
//!   `i`'s bytes are `offsets[i]..offsets[i+1]`);
//! * `.lzbytes`  — the concatenated per-chunk LZRW1 streams.
//!
//! This module is also the worked example for adding a codec: everything
//! lives here plus one handler source (`lz_body.s`) and one registry
//! entry in `rtdc-core` — no builder, CLI, or harness edits.

use crate::codec::{
    req_segment, req_u32s, Codec, CodecSegment, CompressError, CompressedLayout, DecodeError,
};
use crate::lzrw1;

/// Bytes per decode unit: 16 I-cache lines.
pub const CHUNK_BYTES: usize = 512;

/// Instruction words per decode unit.
pub const CHUNK_WORDS: usize = CHUNK_BYTES / 4;

/// The [`Codec`] implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct LzChunkCodec;

impl Codec for LzChunkCodec {
    fn name(&self) -> &'static str {
        "lz"
    }

    fn short_label(&self) -> &'static str {
        "LZ"
    }

    fn long_name(&self) -> &'static str {
        "LzChunk"
    }

    fn describe(&self) -> &'static str {
        "LZRW1 over 512-byte chunks (paper §5.2 bound, runnable); slowest handler"
    }

    fn unit_words(&self) -> usize {
        CHUNK_WORDS
    }

    fn region_align(&self) -> u32 {
        CHUNK_BYTES as u32
    }

    fn compress(&self, words: &[u32]) -> Result<CompressedLayout, CompressError> {
        let n_chunks = words.len().div_ceil(CHUNK_WORDS);
        let mut raw: Vec<u8> = Vec::with_capacity(n_chunks * CHUNK_BYTES);
        for w in words {
            raw.extend_from_slice(&w.to_le_bytes());
        }
        raw.resize(n_chunks * CHUNK_BYTES, 0);
        let mut offsets: Vec<u32> = Vec::with_capacity(n_chunks + 1);
        let mut stream: Vec<u8> = Vec::with_capacity(raw.len() / 2);
        let mut lz = lzrw1::Lzrw1::new(&raw);
        for start in (0..raw.len()).step_by(CHUNK_BYTES) {
            offsets.push(stream.len() as u32);
            lz.compress_range(start..start + CHUNK_BYTES, &mut stream);
        }
        offsets.push(stream.len() as u32);
        Ok(CompressedLayout {
            segments: vec![
                CodecSegment {
                    name: ".lzchunks",
                    bytes: offsets.iter().flat_map(|o| o.to_le_bytes()).collect(),
                },
                CodecSegment {
                    name: ".lzbytes",
                    bytes: stream,
                },
            ],
        })
    }

    fn decode(&self, layout: &CompressedLayout, n_words: usize) -> Result<Vec<u32>, DecodeError> {
        let offsets = req_u32s(layout, ".lzchunks")?;
        let stream = req_segment(layout, ".lzbytes")?;
        let n_chunks = offsets.len().checked_sub(1).ok_or(DecodeError::Truncated {
            segment: ".lzchunks",
        })?;
        if n_chunks * CHUNK_WORDS < n_words {
            return Err(DecodeError::TooFewUnits {
                have_words: n_chunks * CHUNK_WORDS,
                need_words: n_words,
            });
        }
        let mut words = Vec::with_capacity(n_chunks * CHUNK_WORDS);
        for i in 0..n_chunks {
            let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
            // A non-monotone or out-of-range chunk table is a corrupt
            // `.lzchunks`; a stream that fails to expand is corrupt
            // `.lzbytes` (truncation or a back-reference before the
            // chunk's start — lzrw1 reports both as `None`).
            let chunk = stream.get(start..end).ok_or(DecodeError::IndexOutOfRange {
                segment: ".lzchunks",
            })?;
            let raw = lzrw1::decompress(chunk).ok_or(DecodeError::BadBackReference)?;
            if raw.len() != CHUNK_BYTES {
                return Err(DecodeError::WrongUnitSize {
                    unit: i,
                    got: raw.len(),
                    want: CHUNK_BYTES,
                });
            }
            words.extend(
                raw.chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
        }
        words.truncate(n_words);
        Ok(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize) -> Vec<u32> {
        // Repetitive enough to compress, varied enough to exercise both
        // literal and copy items.
        (0..n as u32)
            .map(|i| (i % 23) * 0x0404_0001 + i / 97)
            .collect()
    }

    #[test]
    fn round_trip_exact_chunks() {
        let w = words(2 * CHUNK_WORDS);
        let layout = LzChunkCodec.compress(&w).unwrap();
        assert_eq!(LzChunkCodec.decode(&layout, w.len()).unwrap(), w);
    }

    #[test]
    fn round_trip_partial_chunk() {
        let w = words(CHUNK_WORDS + 7);
        let layout = LzChunkCodec.compress(&w).unwrap();
        assert_eq!(LzChunkCodec.decode(&layout, w.len()).unwrap(), w);
    }

    #[test]
    fn empty_input_is_sentinel_only() {
        let layout = LzChunkCodec.compress(&[]).unwrap();
        assert_eq!(layout.segment(".lzchunks").unwrap().len(), 4);
        assert_eq!(layout.segment(".lzbytes").unwrap().len(), 0);
        assert_eq!(LzChunkCodec.decode(&layout, 0).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn chunk_table_offsets_are_monotone() {
        let w = words(5 * CHUNK_WORDS);
        let layout = LzChunkCodec.compress(&w).unwrap();
        let offsets = crate::codec::le_u32s(layout.segment(".lzchunks").unwrap()).unwrap();
        assert_eq!(offsets.len(), 6);
        assert!(offsets.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(
            *offsets.last().unwrap() as usize,
            layout.segment(".lzbytes").unwrap().len()
        );
    }

    #[test]
    fn repetitive_chunks_compress() {
        let w = vec![0x2402_0001u32; 4 * CHUNK_WORDS];
        let layout = LzChunkCodec.compress(&w).unwrap();
        assert!(layout.payload_bytes() < 4 * w.len() / 4);
        assert_eq!(LzChunkCodec.decode(&layout, w.len()).unwrap(), w);
    }
}
