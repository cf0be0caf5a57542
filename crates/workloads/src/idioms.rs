//! Idiom-based code sampling: the realism layer over the raw vocabulary.
//!
//! Real compiled code is not a uniform draw of instruction words — it is
//! (a) **Zipf-distributed** (a handful of instructions dominate) and
//! (b) built from **recurring multi-instruction idioms** (prologue
//! sequences, address computations, copy loops). Both properties matter
//! here: Zipf frequency concentration is what makes CodePack's short
//! codewords pay off, and repeated idioms are the byte-level redundancy
//! LZRW1 exploits (Table 2's last column).
//!
//! [`CodeSampler`] therefore emits filler code by sampling *idioms*
//! (short sequences of vocabulary instructions, chosen Zipf-style) rather
//! than independent instructions. A benchmark's vocabulary is a prefix of
//! the master vocabulary for its [`FillerTarget`], cut at the size pinned
//! in its spec. [`calibrate_vocab_size`] is the bisection that found those
//! sizes; it runs offline (the `calibrate` bin and a test that recomputes
//! every pinned size), never during generation.
//!
//! The idiom table ([`Idioms`]) is drawn from the seed and the
//! vocabulary's size alone, so generation draws it on a second thread
//! while the master vocabulary is built. It is stored flat, every idiom's
//! members in one vector, and the sampler walks an idiom in place.
//! `idioms/oracle.rs` keeps the nested-vector sampler it replaced as a
//! test oracle.

use rtdc_isa::Instruction;
use rtdc_rng::Rng64;

use crate::vocab::{BitSet, Vocabulary};
use crate::zipf::Zipf;

/// Zipf exponent for instruction popularity inside idioms.
const MEMBER_S: f64 = 1.0;
/// Zipf exponent for idiom popularity.
const IDIOM_S: f64 = 1.0;
/// Idiom lengths, drawn uniformly from this list.
const IDIOM_LENS: [usize; 10] = [2, 3, 3, 4, 4, 5, 6, 6, 8, 10];

/// The idiom table of a vocabulary size: a third as many idioms as
/// words (at least 64), each a short run of Zipf-popular vocabulary
/// positions, and the Zipf popularity a sampler picks idioms by.
///
/// The table depends only on the seed and the vocabulary's size, never
/// on its words, so it can be drawn while the vocabulary is built.
#[derive(Debug, Clone)]
pub struct Idioms {
    /// Vocabulary size the members index into.
    vocab_size: usize,
    /// Every idiom's members, back to back.
    members: Vec<u32>,
    /// Idiom `i` is `members[starts[i]..starts[i + 1]]`; the last entry
    /// is `members.len()`.
    starts: Vec<u32>,
    popularity: Zipf,
}

impl Idioms {
    /// Draws the idiom table for a vocabulary of `vocab_size` words,
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size` is 0.
    pub fn new(seed: u64, vocab_size: usize) -> Idioms {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x0001_d103);
        let member = Zipf::new(vocab_size, MEMBER_S);
        let n_idioms = (vocab_size / 3).max(64);
        let mut members = Vec::with_capacity(n_idioms * 6);
        let mut starts = Vec::with_capacity(n_idioms + 1);
        for _ in 0..n_idioms {
            starts.push(members.len() as u32);
            let len = IDIOM_LENS[rng.gen_range(0..IDIOM_LENS.len())];
            members.extend((0..len).map(|_| member.sample(&mut rng) as u32));
        }
        starts.push(members.len() as u32);
        Idioms {
            vocab_size,
            members,
            starts,
            popularity: Zipf::new(n_idioms, IDIOM_S),
        }
    }

    /// The bounds of idiom `i` in `members`.
    fn span(&self, i: usize) -> (usize, usize) {
        (self.starts[i] as usize, self.starts[i + 1] as usize)
    }
}

/// A deterministic stream of filler instructions with realistic frequency
/// and locality structure.
#[derive(Debug, Clone)]
pub struct CodeSampler {
    vocab: Vocabulary,
    idioms: Idioms,
    rng: Rng64,
    /// `idioms.members[cursor..end]` is the remainder of the idiom being
    /// emitted; empty at an idiom boundary.
    cursor: usize,
    end: usize,
}

impl CodeSampler {
    /// Builds a sampler over a vocabulary of `vocab_size` instructions.
    pub fn new(seed: u64, vocab_size: usize) -> CodeSampler {
        Self::with_vocab(seed, Vocabulary::generate(seed, vocab_size))
    }

    /// Builds a sampler over an existing vocabulary (must have been
    /// generated with the same `seed` for determinism guarantees).
    pub fn with_vocab(seed: u64, vocab: Vocabulary) -> CodeSampler {
        let idioms = Idioms::new(seed, vocab.len());
        Self::from_parts(seed, vocab, idioms)
    }

    /// Builds a sampler from a vocabulary and the idiom table drawn for
    /// its size with the same `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `idioms` was drawn for another vocabulary size.
    pub(crate) fn from_parts(seed: u64, vocab: Vocabulary, idioms: Idioms) -> CodeSampler {
        assert_eq!(
            idioms.vocab_size,
            vocab.len(),
            "idioms drawn for another vocabulary size"
        );
        CodeSampler {
            vocab,
            idioms,
            rng: Rng64::seed_from_u64(seed ^ 0x005a_3b17),
            cursor: 0,
            end: 0,
        }
    }

    /// Emits the next filler instruction.
    pub fn next_insn(&mut self) -> Instruction {
        let idx = self.next_index();
        self.vocab.get(idx)
    }

    /// The vocabulary position of the next emission.
    fn next_index(&mut self) -> usize {
        if self.at_boundary() {
            // Mostly idioms; occasionally a "solo" cold instruction drawn
            // uniformly from the whole vocabulary. Solo draws supply the
            // long tail of unique words (one-off address computations,
            // odd constants) that idiom reuse alone cannot produce.
            if self.rng.gen_f64() < 0.20 {
                return self.rng.gen_range(0..self.vocab.len());
            }
            let i = self.idioms.popularity.sample(&mut self.rng);
            (self.cursor, self.end) = self.idioms.span(i);
        }
        let idx = self.idioms.members[self.cursor];
        self.cursor += 1;
        idx as usize
    }

    /// Whether the sampler sits at an idiom boundary (the next emission
    /// starts a fresh idiom). Generators use this to keep idioms intact —
    /// the byte-level locality LZRW1-style compressors rely on.
    pub fn at_boundary(&self) -> bool {
        self.cursor == self.end
    }

    /// Counts distinct instruction words among the first `n` emissions
    /// of a fresh sampler over `vocab`. A vocabulary's words are
    /// distinct, so these are its distinct positions.
    pub fn count_uniques(seed: u64, vocab: Vocabulary, n: usize) -> usize {
        let mut seen = BitSet::new(vocab.len());
        let mut s = CodeSampler::with_vocab(seed, vocab);
        (0..n).filter(|_| seen.insert(s.next_index())).count()
    }
}

/// The filler a generator emits: `emissions` idiom words that should
/// hold `uniques` distinct ones (the benchmark's Table 2 unique-word
/// count, less what the non-filler code contributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillerTarget {
    /// Filler words emitted.
    pub emissions: usize,
    /// Distinct words wanted among them.
    pub uniques: usize,
}

impl FillerTarget {
    /// Size of the master vocabulary whose prefixes calibration probes and
    /// generation cuts. Idiom reuse means uniques saturate well below the
    /// vocabulary size, so the bound is generous, but it stays below the
    /// safe family's [`FAMILY_SIZE`](crate::vocab::FAMILY_SIZE) words.
    pub fn master_size(self) -> usize {
        (32 * self.uniques.max(64)).min(900_000)
    }
}

/// The vocabulary size whose master prefix makes `target.emissions`
/// filler emissions contain about `target.uniques` distinct words.
/// Deterministic for a given seed.
///
/// Builds the master once and bisects over its prefixes: uniques are
/// statistically monotone in the size, with a shallow slope (idiom
/// reuse), so the bisection runs to within 1% of the bound. A target the
/// sampler cannot reach ends within 1% of the master's size.
pub fn calibrate_vocab_size(seed: u64, target: FillerTarget) -> usize {
    let uniques = target.uniques.max(16);
    let (mut lo, mut hi) = (64usize, target.master_size());
    let master = Vocabulary::generate(seed, hi);
    for _ in 0..20 {
        if hi - lo <= 1 + hi / 100 {
            break;
        }
        let mid = (lo + hi) / 2;
        if CodeSampler::count_uniques(seed, master.prefix(mid), target.emissions) < uniques {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rtdc_isa::encode;
    use std::collections::HashMap;

    #[test]
    fn sampler_is_deterministic() {
        let mut a = CodeSampler::new(5, 1000);
        let mut b = CodeSampler::new(5, 1000);
        for _ in 0..200 {
            assert_eq!(a.next_insn(), b.next_insn());
        }
    }

    #[test]
    fn frequencies_are_skewed() {
        let mut s = CodeSampler::new(7, 5000);
        let mut freq: HashMap<u32, u64> = HashMap::new();
        for _ in 0..50_000 {
            *freq.entry(encode(s.next_insn())).or_insert(0) += 1;
        }
        let mut counts: Vec<u64> = freq.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top16: u64 = counts.iter().take(16).sum();
        // Zipf concentration: the top 16 words carry a large share.
        assert!(
            top16 as f64 / 50_000.0 > 0.10,
            "top-16 share = {}",
            top16 as f64 / 50_000.0
        );
    }

    #[test]
    fn calibration_hits_unique_target() {
        let n = 60_000;
        let target = 12_000; // 20%
        let size = calibrate_vocab_size(
            11,
            FillerTarget {
                emissions: n,
                uniques: target,
            },
        );
        let u = CodeSampler::count_uniques(11, Vocabulary::generate(11, size), n);
        let err = (u as f64 - target as f64).abs() / target as f64;
        assert!(err < 0.10, "target {target}, got {u}");
    }

    #[test]
    fn idioms_repeat_as_sequences() {
        // Consecutive-pair repetition must be far above the independent
        // baseline — that's the locality LZRW1 needs.
        let mut s = CodeSampler::new(13, 3000);
        let words: Vec<u32> = (0..30_000).map(|_| encode(s.next_insn())).collect();
        let mut pairs = std::collections::HashMap::new();
        for w in words.windows(2) {
            *pairs.entry((w[0], w[1])).or_insert(0u64) += 1;
        }
        let repeated: u64 = pairs.values().filter(|&&c| c > 1).copied().sum();
        assert!(
            repeated as f64 / 30_000.0 > 0.5,
            "repeated-pair fraction = {}",
            repeated as f64 / 30_000.0
        );
    }
}
