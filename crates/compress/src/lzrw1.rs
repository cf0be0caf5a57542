//! LZRW1 — Ross Williams' "extremely fast" Ziv-Lempel compressor (DCC '91).
//!
//! The paper uses LZRW1 in two roles: it is the algorithm of the
//! procedure-granularity scheme of Kirovski et al. that the paper compares
//! against, and Table 2's last column reports the whole-`.text` LZRW1
//! compression ratio as a *lower bound* for procedure-based compression.
//!
//! Format (as in the original): the stream is a sequence of 16-item groups,
//! each preceded by a 16-bit little-endian control word whose bit *i*
//! (LSB-first) says whether item *i* is a **copy** (1) or a **literal
//! byte** (0). A copy is two bytes encoding a match of length 3–18 at
//! offset 1–4095 behind the current position:
//! `byte0 = (offset >> 8) << 4 | (length - 3)`, `byte1 = offset & 0xff`.

const HASH_SIZE: usize = 4096;
const MAX_OFFSET: usize = 4095;
const MAX_LEN: usize = 18;
const MIN_LEN: usize = 3;

fn hash(b0: u8, b1: u8, b2: u8) -> usize {
    // Williams' multiplicative hash.
    let key = ((b0 as u32) << 8 ^ (b1 as u32) << 4 ^ b2 as u32).wrapping_mul(40543);
    ((key >> 4) & (HASH_SIZE as u32 - 1)) as usize
}

/// Compresses `input` with LZRW1.
///
/// The output always uses the compressed format (no "copy-through" header
/// flag); pathological inputs may expand slightly, exactly as the paper's
/// Table 2 allows (compression ratios above 100% are possible in principle).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    Lzrw1::new(input).compress_range(0..input.len(), &mut out);
    out
}

/// An LZRW1 compressor over one buffer that compresses consecutive
/// ranges of it as independent streams, with one hash table for all of
/// them.
///
/// The table holds absolute positions in the buffer. A candidate from
/// before the current range counts as empty, so each range's stream is
/// byte-identical to [`compress`] of that range alone, with nothing
/// cleared or allocated between ranges.
pub struct Lzrw1<'a> {
    input: &'a [u8],
    table: [usize; HASH_SIZE],
    /// End of the last compressed range: the next may not start before it.
    done: usize,
}

impl<'a> Lzrw1<'a> {
    /// A compressor over `input` with an empty table.
    pub fn new(input: &'a [u8]) -> Lzrw1<'a> {
        Lzrw1 {
            input,
            table: [usize::MAX; HASH_SIZE],
            done: 0,
        }
    }

    /// Appends the LZRW1 stream of `input[range]` to `out`: the same
    /// bytes as `compress(&input[range])`.
    ///
    /// # Panics
    ///
    /// Panics if `range` starts before the end of the previous range or
    /// ends past the buffer: positions from an overlapping earlier range
    /// would read as valid candidates.
    pub fn compress_range(&mut self, range: std::ops::Range<usize>, out: &mut Vec<u8>) {
        let (start, end) = (range.start, range.end);
        assert!(
            self.done <= start && start <= end && end <= self.input.len(),
            "range {start}..{end} overlaps an earlier range or leaves the buffer"
        );
        self.done = end;
        let input = &self.input[..end];
        let mut pos = start;
        while pos < end {
            // One group: control word placeholder, then up to 16 items.
            let control_at = out.len();
            out.extend_from_slice(&[0, 0]);
            let mut control: u16 = 0;
            let mut items = 0;
            while items < 16 && pos < end {
                let mut emitted_copy = false;
                if pos + MIN_LEN <= end {
                    let h = hash(input[pos], input[pos + 1], input[pos + 2]);
                    let candidate = self.table[h];
                    self.table[h] = pos;
                    // Empty (`usize::MAX`) and earlier-range candidates fail
                    // the first test.
                    if (start..pos).contains(&candidate) && pos - candidate <= MAX_OFFSET {
                        let offset = pos - candidate;
                        let limit = MAX_LEN.min(end - pos);
                        let len = input[candidate..candidate + limit]
                            .iter()
                            .zip(&input[pos..pos + limit])
                            .take_while(|(a, b)| a == b)
                            .count();
                        if len >= MIN_LEN {
                            control |= 1 << items;
                            out.push((((offset >> 8) as u8) << 4) | ((len - MIN_LEN) as u8));
                            out.push((offset & 0xff) as u8);
                            pos += len;
                            emitted_copy = true;
                        }
                    }
                }
                if !emitted_copy {
                    out.push(input[pos]);
                    pos += 1;
                }
                items += 1;
            }
            out[control_at..control_at + 2].copy_from_slice(&control.to_le_bytes());
        }
    }
}

/// Decompresses an LZRW1 stream produced by [`compress`].
///
/// Returns `None` if the stream is malformed (truncated item, copy before
/// enough output exists, or an out-of-range offset).
pub fn decompress(input: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut pos = 0usize;
    while pos < input.len() {
        if pos + 2 > input.len() {
            return None;
        }
        let control = u16::from_le_bytes([input[pos], input[pos + 1]]);
        pos += 2;
        for item in 0..16 {
            if pos >= input.len() {
                break;
            }
            if control & (1 << item) != 0 {
                if pos + 2 > input.len() {
                    return None;
                }
                let b0 = input[pos] as usize;
                let b1 = input[pos + 1] as usize;
                pos += 2;
                let offset = ((b0 >> 4) << 8) | b1;
                let len = (b0 & 0x0f) + MIN_LEN;
                if offset == 0 || offset > out.len() {
                    return None;
                }
                let start = out.len() - offset;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            } else {
                out.push(input[pos]);
                pos += 1;
            }
        }
    }
    Some(out)
}

/// Compression ratio of `input` under LZRW1 (Eq. 1: compressed/original).
pub fn compression_ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    compress(input).len() as f64 / input.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_text() {
        let data = b"the quick brown fox jumps over the lazy dog and the quick brown fox again and again and again";
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len());
    }

    #[test]
    fn round_trip_empty() {
        let c = compress(&[]);
        assert!(c.is_empty());
        assert_eq!(decompress(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn round_trip_incompressible() {
        // A linear-congruential byte stream with no 3-byte repeats nearby.
        let data: Vec<u8> = (0u32..2000)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn highly_repetitive_compresses_hard() {
        let data = vec![0xaau8; 10_000];
        let r = compression_ratio(&data);
        assert!(r < 0.15, "ratio = {r}");
    }

    #[test]
    fn overlapping_copies_decode_correctly() {
        // "abcabcabc..." exercises copies that overlap their own output.
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(300).collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_range_matches_capped_at_window() {
        let mut data = vec![0u8; 5000];
        data.extend_from_slice(b"unique-tail-unique-tail");
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let data = b"hello hello hello hello hello";
        let mut c = compress(data);
        c.truncate(c.len() - 1);
        // Either detected as malformed or decodes to a shorter prefix —
        // never panics. (A trailing literal's loss is undetectable by
        // construction of the format.)
        if let Some(d) = decompress(&c) {
            assert!(d.len() < data.len());
        }
    }

    #[test]
    fn corrupt_offset_rejected() {
        // control says "copy" immediately, but there is no prior output.
        let bad = [0x01, 0x00, 0x10, 0x05];
        assert_eq!(decompress(&bad), None);
    }
}
