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

use rtdc_isa::{encode, Instruction};
use rtdc_rng::Rng64;

use crate::vocab::Vocabulary;
use crate::zipf::Zipf;

/// Zipf exponent for instruction popularity inside idioms.
const MEMBER_S: f64 = 1.0;
/// Zipf exponent for idiom popularity.
const IDIOM_S: f64 = 1.0;

/// A deterministic stream of filler instructions with realistic frequency
/// and locality structure.
#[derive(Debug, Clone)]
pub struct CodeSampler {
    vocab: Vocabulary,
    /// Idioms as index sequences into the vocabulary.
    idioms: Vec<Vec<u32>>,
    idiom_zipf: Zipf,
    rng: Rng64,
    /// Remainder of the idiom currently being emitted.
    pending: Vec<u32>,
}

impl CodeSampler {
    /// Builds a sampler over a vocabulary of `vocab_size` instructions.
    pub fn new(seed: u64, vocab_size: usize) -> CodeSampler {
        Self::with_vocab(seed, Vocabulary::generate(seed, vocab_size))
    }

    /// Builds a sampler over an existing vocabulary (must have been
    /// generated with the same `seed` for determinism guarantees).
    pub fn with_vocab(seed: u64, vocab: Vocabulary) -> CodeSampler {
        let vocab_size = vocab.len();
        let mut rng = Rng64::seed_from_u64(seed ^ 0x0001_d103);
        let member = Zipf::new(vocab_size, MEMBER_S);
        let n_idioms = (vocab_size / 3).max(64);
        let idioms: Vec<Vec<u32>> = (0..n_idioms)
            .map(|_| {
                let len = *[2usize, 3, 3, 4, 4, 5, 6, 6, 8, 10]
                    .get(rng.gen_range(0..10usize))
                    .unwrap();
                (0..len).map(|_| member.sample(&mut rng) as u32).collect()
            })
            .collect();
        let idiom_zipf = Zipf::new(n_idioms, IDIOM_S);
        CodeSampler {
            vocab,
            idioms,
            idiom_zipf,
            rng: Rng64::seed_from_u64(seed ^ 0x005a_3b17),
            pending: Vec::new(),
        }
    }

    /// Emits the next filler instruction.
    pub fn next_insn(&mut self) -> Instruction {
        if self.pending.is_empty() {
            // Mostly idioms; occasionally a "solo" cold instruction drawn
            // uniformly from the whole vocabulary. Solo draws supply the
            // long tail of unique words (one-off address computations,
            // odd constants) that idiom reuse alone cannot produce.
            if self.rng.gen_f64() < 0.20 {
                let idx = self.rng.gen_range(0..self.vocab.len()) as u32;
                return self.vocab.get(idx as usize);
            }
            let idiom = &self.idioms[self.idiom_zipf.sample(&mut self.rng)];
            self.pending = idiom.iter().rev().copied().collect();
        }
        let idx = self.pending.pop().expect("pending refilled above");
        self.vocab.get(idx as usize)
    }

    /// Whether the sampler sits at an idiom boundary (the next emission
    /// starts a fresh idiom). Generators use this to keep idioms intact —
    /// the byte-level locality LZRW1-style compressors rely on.
    pub fn at_boundary(&self) -> bool {
        self.pending.is_empty()
    }

    /// Counts distinct instruction words among the first `n` emissions
    /// of a fresh sampler over `vocab`.
    pub fn count_uniques(seed: u64, vocab: Vocabulary, n: usize) -> usize {
        let mut s = CodeSampler::with_vocab(seed, vocab);
        let mut seen = crate::fasthash::fast_set_with_capacity::<u32>(n / 2);
        for _ in 0..n {
            seen.insert(encode(s.next_insn()));
        }
        seen.len()
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
    /// safe family's ~2.7M distinct encodings.
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
mod tests {
    use super::*;
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
