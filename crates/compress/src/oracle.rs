//! The straightforward compressors the table-driven ones replaced, kept
//! as test oracles: every codec's `compress` must equal its oracle byte
//! for byte.
//!
//! Each oracle is the previous implementation with only its entry point
//! renamed: `HashMap` frequency counts and index lookups, a bit-at-a-time
//! writer with a new writer per CodePack group, and an LZRW1 with a fresh
//! hash table per call. The differential test below runs them against the
//! replacements on the edge cases and on seeded random streams;
//! `RTDC_FUZZ_ITERS` scales the random part.

use std::collections::HashMap;

use rtdc_rng::{fuzz, Rng64};

use crate::bytedict::{
    ByteDictCompressed, LINES_PER_BLOCK, LINE_WORDS, MAX_DICT, ONE_BYTE_ENTRIES,
};
use crate::codec::Codec;
use crate::codepack::{
    CodePackCompressed, GROUPS_PER_BLOCK, GROUP_WORDS, MAX_HI_DICT, MAX_LO_DICT,
};
use crate::dictionary::{DictionaryCompressed, DictionaryOverflow, MAX_ENTRIES};
use crate::lzchunk::{LzChunkCodec, CHUNK_WORDS};
use crate::{bits, lzrw1};

/// Accumulates bits MSB-first, one bit per step.
#[derive(Default)]
struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    fn write(&mut self, value: u32, width: u32) {
        assert!(width <= 32, "width too large");
        assert!(
            width == 32 || value < (1u32 << width),
            "value {value:#x} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            let bit = (value >> i) & 1;
            let pos = self.bit_len % 8;
            if pos == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.len() - 1;
            self.bytes[last] |= (bit as u8) << (7 - pos);
            self.bit_len += 1;
        }
    }

    fn align_byte(&mut self) {
        while !self.bit_len.is_multiple_of(8) {
            self.bit_len += 1;
        }
    }
}

fn dictionary(words: &[u32]) -> Result<DictionaryCompressed, DictionaryOverflow> {
    let mut map: HashMap<u32, u16> = HashMap::new();
    let mut dictionary = Vec::new();
    let mut indices = Vec::with_capacity(words.len());
    for &w in words {
        let next = dictionary.len();
        let idx = *map.entry(w).or_insert_with(|| {
            dictionary.push(w);
            next as u16
        });
        if dictionary.len() > MAX_ENTRIES {
            return Err(DictionaryOverflow {
                unique: dictionary.len(),
            });
        }
        indices.push(idx);
    }
    Ok(DictionaryCompressed::from_parts(dictionary, indices))
}

fn build_dict(halves: impl Iterator<Item = u16>, skip_zero: bool, max: usize) -> Vec<u16> {
    let mut freq: HashMap<u16, u64> = HashMap::new();
    for h in halves {
        if skip_zero && h == 0 {
            continue;
        }
        *freq.entry(h).or_insert(0) += 1;
    }
    let mut entries: Vec<(u16, u64)> = freq.into_iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(max);
    entries.into_iter().map(|(v, _)| v).collect()
}

fn encode_hi(w: &mut BitWriter, index: Option<usize>, value: u16) {
    match index {
        Some(i) if i < 16 => {
            w.write(0b0, 1);
            w.write(i as u32, 4);
        }
        Some(i) if i < 144 => {
            w.write(0b10, 2);
            w.write((i - 16) as u32, 7);
        }
        Some(i) if i < MAX_HI_DICT => {
            w.write(0b110, 3);
            w.write((i - 144) as u32, 11);
        }
        _ => {
            w.write(0b111, 3);
            w.write(value as u32, 16);
        }
    }
}

fn encode_lo(w: &mut BitWriter, index: Option<usize>, value: u16) {
    if value == 0 {
        w.write(0b00, 2);
        return;
    }
    match index {
        Some(i) if i < 16 => {
            w.write(0b01, 2);
            w.write(i as u32, 4);
        }
        Some(i) if i < 272 => {
            w.write(0b10, 2);
            w.write((i - 16) as u32, 8);
        }
        Some(i) if i < MAX_LO_DICT => {
            w.write(0b110, 3);
            w.write((i - 272) as u32, 12);
        }
        _ => {
            w.write(0b111, 3);
            w.write(value as u32, 16);
        }
    }
}

fn codepack(words: &[u32]) -> CodePackCompressed {
    let n_words = words.len();
    let padded = words.len().div_ceil(GROUP_WORDS) * GROUP_WORDS;
    let padded_words: Vec<u32> = words
        .iter()
        .copied()
        .chain(std::iter::repeat(0))
        .take(padded)
        .collect();

    let hi_dict = build_dict(
        padded_words.iter().map(|w| (w >> 16) as u16),
        false,
        MAX_HI_DICT,
    );
    let lo_dict = build_dict(padded_words.iter().map(|w| *w as u16), true, MAX_LO_DICT);
    let hi_index: HashMap<u16, usize> = hi_dict.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let lo_index: HashMap<u16, usize> = lo_dict.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    let mut groups = Vec::new();
    let n_groups = padded / GROUP_WORDS;
    let mut bases = Vec::with_capacity(n_groups.div_ceil(GROUPS_PER_BLOCK));
    let mut deltas = Vec::with_capacity(n_groups);
    for (g, group) in padded_words.chunks(GROUP_WORDS).enumerate() {
        if g % GROUPS_PER_BLOCK == 0 {
            bases.push(groups.len() as u32);
        }
        let base = *bases.last().expect("pushed above");
        let delta = groups.len() as u32 - base;
        deltas.push(u16::try_from(delta).expect("block span fits u16 by construction"));
        let mut w = BitWriter::default();
        for &word in group {
            let hi = (word >> 16) as u16;
            let lo = word as u16;
            encode_hi(&mut w, hi_index.get(&hi).copied(), hi);
            encode_lo(&mut w, lo_index.get(&lo).copied(), lo);
        }
        w.align_byte();
        groups.extend_from_slice(&w.bytes);
    }
    CodePackCompressed::from_parts(hi_dict, lo_dict, groups, bases, deltas, n_words)
}

fn bytedict(words: &[u32]) -> ByteDictCompressed {
    let n_words = words.len();
    let padded_len = words.len().div_ceil(LINE_WORDS) * LINE_WORDS;
    let padded: Vec<u32> = words
        .iter()
        .copied()
        .chain(std::iter::repeat(0))
        .take(padded_len)
        .collect();

    let mut freq: HashMap<u32, u64> = HashMap::new();
    for &w in &padded {
        *freq.entry(w).or_insert(0) += 1;
    }
    let mut entries: Vec<(u32, u64)> = freq.into_iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(MAX_DICT);
    while entries.len() > ONE_BYTE_ENTRIES && entries.last().is_some_and(|&(_, c)| c == 1) {
        entries.pop();
    }
    let dict: Vec<u32> = entries.into_iter().map(|(w, _)| w).collect();
    let index: HashMap<u32, usize> = dict.iter().enumerate().map(|(i, &w)| (w, i)).collect();

    let mut bytes = Vec::new();
    let n_lines = padded_len / LINE_WORDS;
    let mut bases = Vec::with_capacity(n_lines.div_ceil(LINES_PER_BLOCK));
    let mut deltas = Vec::with_capacity(n_lines);
    for (line, chunk) in padded.chunks(LINE_WORDS).enumerate() {
        if line % LINES_PER_BLOCK == 0 {
            bases.push(bytes.len() as u32);
        }
        let base = *bases.last().expect("pushed above");
        deltas.push(u16::try_from(bytes.len() as u32 - base).expect("block span fits u16"));
        for &w in chunk {
            match index.get(&w).copied() {
                Some(i) if i < ONE_BYTE_ENTRIES => bytes.push(0x80 | i as u8),
                Some(i) => {
                    let x = i - ONE_BYTE_ENTRIES;
                    bytes.push(0x40 | (x >> 8) as u8);
                    bytes.push((x & 0xff) as u8);
                }
                None => {
                    bytes.push(0x00);
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
    }
    ByteDictCompressed::from_parts(dict, bytes, bases, deltas, n_words)
}

const HASH_SIZE: usize = 4096;
const MAX_OFFSET: usize = 4095;
const MAX_LEN: usize = 18;
const MIN_LEN: usize = 3;

fn hash(b0: u8, b1: u8, b2: u8) -> usize {
    let key = ((b0 as u32) << 8 ^ (b1 as u32) << 4 ^ b2 as u32).wrapping_mul(40543);
    ((key >> 4) & (HASH_SIZE as u32 - 1)) as usize
}

fn lzrw1(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = [usize::MAX; HASH_SIZE];
    let mut pos = 0usize;
    while pos < input.len() {
        let control_at = out.len();
        out.push(0);
        out.push(0);
        let mut control: u16 = 0;
        let mut items = 0;
        while items < 16 && pos < input.len() {
            let mut emitted_copy = false;
            if pos + MIN_LEN <= input.len() {
                let h = hash(input[pos], input[pos + 1], input[pos + 2]);
                let candidate = table[h];
                table[h] = pos;
                if candidate != usize::MAX && candidate < pos && pos - candidate <= MAX_OFFSET {
                    let offset = pos - candidate;
                    let limit = MAX_LEN.min(input.len() - pos);
                    let mut len = 0;
                    while len < limit && input[candidate + len] == input[pos + len] {
                        len += 1;
                    }
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
        out[control_at] = (control & 0xff) as u8;
        out[control_at + 1] = (control >> 8) as u8;
    }
    out
}

/// The LZ codec's two segments as the per-chunk oracle builds them: a
/// fresh `Vec` and a fresh table for every 512-byte chunk.
fn lzchunk(words: &[u32]) -> (Vec<u8>, Vec<u8>) {
    let n_chunks = words.len().div_ceil(CHUNK_WORDS);
    let padded: Vec<u32> = words
        .iter()
        .copied()
        .chain(std::iter::repeat(0))
        .take(n_chunks * CHUNK_WORDS)
        .collect();
    let mut offsets: Vec<u32> = Vec::with_capacity(n_chunks + 1);
    let mut stream: Vec<u8> = Vec::new();
    for chunk in padded.chunks_exact(CHUNK_WORDS) {
        offsets.push(stream.len() as u32);
        let raw: Vec<u8> = chunk.iter().flat_map(|w| w.to_le_bytes()).collect();
        stream.extend_from_slice(&lzrw1(&raw));
    }
    offsets.push(stream.len() as u32);
    (
        offsets.iter().flat_map(|o| o.to_le_bytes()).collect(),
        stream,
    )
}

/// Asserts every word compressor equals its oracle on `words`.
fn check_words(words: &[u32]) {
    let n = words.len();
    assert_eq!(
        DictionaryCompressed::compress(words),
        dictionary(words),
        "dictionary, {n} words"
    );
    assert_eq!(
        CodePackCompressed::compress(words),
        codepack(words),
        "codepack, {n} words"
    );
    assert_eq!(
        ByteDictCompressed::compress(words),
        bytedict(words),
        "bytedict, {n} words"
    );
    let layout = LzChunkCodec.compress(words).expect("lz never overflows");
    let (chunks, stream) = lzchunk(words);
    assert_eq!(
        layout.segment(".lzchunks"),
        Some(&chunks[..]),
        "lz table, {n} words"
    );
    assert_eq!(
        layout.segment(".lzbytes"),
        Some(&stream[..]),
        "lz stream, {n} words"
    );
}

/// Instruction-like words: a skewed pool of `pool` opcodes and operands
/// with a share of raw escapes, so every codeword class and ties occur.
fn skewed_words(rng: &mut Rng64, n: usize, pool: u32) -> Vec<u32> {
    (0..n)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => rng.gen_u32(),
            1 => 0,
            2 => rng.gen_range(0..pool) << 16,
            _ => {
                let a = rng.gen_range(0..pool);
                let b = rng.gen_range(0..=a);
                (b.wrapping_mul(0x9e37_79b9) & 0xffff_0000) | (a & 0xffff)
            }
        })
        .collect()
}

#[test]
fn compressors_equal_oracles_on_edge_cases() {
    check_words(&[]);
    check_words(&[0x2442_0001]);
    check_words(&[0]);
    for n in [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 511, 4095] {
        check_words(&vec![0u32; n]);
        check_words(&(0..n as u32).collect::<Vec<_>>());
    }
    // Frequency ties: every value appears exactly twice, in both orders.
    let ties: Vec<u32> = (0..300u32)
        .chain((0..300u32).rev())
        .map(|i| i.wrapping_mul(0x0101_0101))
        .collect();
    check_words(&ties);
    let half_ties: Vec<u32> = (0..5000u32).map(|i| (i % 97) << 16 | (i % 89)).collect();
    check_words(&half_ties);
}

#[test]
fn codepack_raw_escapes_equal_oracle() {
    // More distinct halves than either dictionary holds.
    let words: Vec<u32> = (0..(MAX_LO_DICT as u32 + 3000))
        .map(|i| (i % (MAX_HI_DICT as u32 + 500)) << 16 | (i + 1))
        .collect();
    let c = CodePackCompressed::compress(&words);
    assert_eq!(c.hi_dict().len(), MAX_HI_DICT);
    assert_eq!(c.lo_dict().len(), MAX_LO_DICT);
    check_words(&words);
}

#[test]
fn dictionary_overflow_equals_oracle() {
    let mut rng = Rng64::seed_from_u64(0x0ac1_e001);
    for extra in [1usize, 2, 1000] {
        let words: Vec<u32> = (0..(MAX_ENTRIES + extra) as u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        let err = DictionaryCompressed::compress(&words).unwrap_err();
        assert_eq!(err, dictionary(&words).unwrap_err());
        assert_eq!(err.unique, MAX_ENTRIES + 1);
    }
    // Repeats before and after the overflowing word.
    let mut words: Vec<u32> = (0..MAX_ENTRIES as u32 + 10).collect();
    rng.shuffle(&mut words);
    let mut with_repeats = words[..40_000].to_vec();
    with_repeats.extend_from_slice(&words);
    assert_eq!(
        DictionaryCompressed::compress(&with_repeats),
        dictionary(&with_repeats)
    );
    check_words(&with_repeats[..MAX_ENTRIES]);
}

#[test]
fn bytedict_large_dictionary_equals_oracle() {
    // More than MAX_DICT distinct words that repeat, so the dictionary
    // truncates at its size limit rather than at the singletons.
    let mut rng = Rng64::seed_from_u64(0xb7d1_c700);
    let distinct = MAX_DICT + 2000;
    let mut words: Vec<u32> = (0..distinct as u32)
        .flat_map(|i| {
            let w = i.wrapping_mul(0x2545_f491);
            [w, w]
        })
        .collect();
    words.extend((0..3000).map(|_| rng.gen_u32()));
    rng.shuffle(&mut words);
    let c = ByteDictCompressed::compress(&words);
    assert_eq!(c.dict().len(), MAX_DICT);
    check_words(&words);
}

#[test]
fn lzrw1_whole_buffer_equals_oracle() {
    let mut rng = Rng64::seed_from_u64(0x1a77_0001);
    // Repeats farther back than the 4095-byte window, and near it.
    let block: Vec<u8> = (0..5000).map(|_| rng.gen_range(0u8..=255)).collect();
    let mut data = block.clone();
    data.extend_from_slice(&block[..3000]);
    data.extend_from_slice(&block);
    data.extend(std::iter::repeat_n(0u8, 10_000));
    data.extend_from_slice(b"abcabcabcabcabcabcabcabcabc");
    assert_eq!(lzrw1::compress(&data), lzrw1(&data));
    for n in [0usize, 1, 2, 3, 4, 17, 18, 19] {
        assert_eq!(lzrw1::compress(&data[..n]), lzrw1(&data[..n]), "len {n}");
    }
    for _ in 0..fuzz::iters(20) {
        let len = rng.gen_range(0..20_000usize);
        let alphabet = rng.gen_range(1u8..=255);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
        assert_eq!(lzrw1::compress(&bytes), lzrw1(&bytes), "len {len}");
    }
}

#[test]
fn lzrw1_ranges_equal_fresh_compressions() {
    let mut rng = Rng64::seed_from_u64(0x1a77_0002);
    for _ in 0..fuzz::iters(20) {
        let len = rng.gen_range(0..12_000usize);
        let alphabet = rng.gen_range(1u8..=255);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..8usize))
            .map(|_| rng.gen_range(0..=len))
            .collect();
        cuts.push(0);
        cuts.push(len);
        cuts.sort_unstable();
        let mut lz = lzrw1::Lzrw1::new(&bytes);
        let mut out = Vec::new();
        let mut want = Vec::new();
        for pair in cuts.windows(2) {
            lz.compress_range(pair[0]..pair[1], &mut out);
            want.extend(lzrw1(&bytes[pair[0]..pair[1]]));
        }
        assert_eq!(out, want, "len {len}, cuts {cuts:?}");
    }
}

#[test]
fn bit_writer_equals_bit_at_a_time_writer() {
    let mut rng = Rng64::seed_from_u64(0xb175_0001);
    for width in 0..=32u32 {
        let mut fast = bits::BitWriter::new();
        let mut slow = BitWriter::default();
        for _ in 0..100 {
            let value = if width == 0 {
                0
            } else {
                rng.gen_u32() >> (32 - width)
            };
            fast.write(value, width);
            slow.write(value, width);
            assert_eq!(fast.bit_len(), slow.bit_len, "width {width}");
        }
        assert_eq!(fast.into_bytes(), slow.bytes, "width {width}");
    }
    for _ in 0..fuzz::iters(200) {
        let mut fast = bits::BitWriter::new();
        let mut slow = BitWriter::default();
        for _ in 0..rng.gen_range(0..300usize) {
            if rng.gen_range(0..10u32) == 0 {
                fast.align_byte();
                slow.align_byte();
            } else {
                let width = rng.gen_range(0..=32u32);
                let value = if width == 0 {
                    0
                } else {
                    rng.gen_u32() >> (32 - width)
                };
                fast.write(value, width);
                slow.write(value, width);
            }
            assert_eq!(fast.bit_len(), slow.bit_len);
            assert_eq!(fast.byte_len(), slow.bytes.len());
        }
        assert_eq!(fast.into_bytes(), slow.bytes);
    }
}

#[test]
fn compressors_equal_oracles_on_seeded_streams() {
    let mut rng = Rng64::seed_from_u64(0x0ac1_e002);
    for _ in 0..fuzz::iters(40) {
        let n = rng.gen_range(0..3000usize);
        let pool = rng.gen_range(1..6000u32);
        check_words(&skewed_words(&mut rng, n, pool));
    }
}
