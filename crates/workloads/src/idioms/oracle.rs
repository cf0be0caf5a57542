//! The nested-vector idiom sampler the flat table replaced, kept as a
//! test oracle: a [`CodeSampler`] over the flat [`Idioms`] must draw the
//! same idioms, emit the same vocabulary positions and report the same
//! idiom boundaries.
//!
//! The oracle is the previous implementation with its vocabulary reduced
//! to a size (the draws never read a word): one `Vec` per idiom, and a
//! reversed copy of every idiom it starts. The differential test runs it
//! against the flat sampler on sizes below the 64-idiom floor, on every
//! tiny spec and on one analog; `RTDC_FUZZ_ITERS` scales the emissions
//! per case.

use rtdc_rng::{fuzz, Rng64};

use super::{CodeSampler, Idioms, IDIOM_S, MEMBER_S};
use crate::spec::{self, tiny};
use crate::vocab::Vocabulary;
use crate::zipf::Zipf;

struct NestedSampler {
    vocab_size: usize,
    /// Idioms as index sequences into the vocabulary.
    idioms: Vec<Vec<u32>>,
    idiom_zipf: Zipf,
    rng: Rng64,
    /// Remainder of the idiom currently being emitted.
    pending: Vec<u32>,
}

impl NestedSampler {
    fn new(seed: u64, vocab_size: usize) -> NestedSampler {
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
        NestedSampler {
            vocab_size,
            idioms,
            idiom_zipf,
            rng: Rng64::seed_from_u64(seed ^ 0x005a_3b17),
            pending: Vec::new(),
        }
    }

    fn next_index(&mut self) -> usize {
        if self.pending.is_empty() {
            if self.rng.gen_f64() < 0.20 {
                return self.rng.gen_range(0..self.vocab_size);
            }
            let idiom = &self.idioms[self.idiom_zipf.sample(&mut self.rng)];
            self.pending = idiom.iter().rev().copied().collect();
        }
        self.pending.pop().expect("pending refilled above") as usize
    }

    fn at_boundary(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Asserts the flat table and sampler equal the oracle's for one seed
/// and vocabulary size over `emissions` emissions.
fn check(seed: u64, vocab_size: usize, emissions: u64) {
    let case = format!("seed {seed:#x}, size {vocab_size}");
    let mut oracle = NestedSampler::new(seed, vocab_size);
    let idioms = Idioms::new(seed, vocab_size);
    let flat: Vec<&[u32]> = idioms
        .starts
        .windows(2)
        .map(|w| &idioms.members[w[0] as usize..w[1] as usize])
        .collect();
    let nested: Vec<&[u32]> = oracle.idioms.iter().map(Vec::as_slice).collect();
    assert_eq!(flat, nested, "idiom table, {case}");

    let vocab = Vocabulary::generate(seed, vocab_size);
    let mut sampler = CodeSampler::from_parts(seed, vocab, idioms);
    assert!(sampler.at_boundary(), "fresh sampler, {case}");
    for i in 0..emissions {
        assert_eq!(
            (sampler.next_index(), sampler.at_boundary()),
            (oracle.next_index(), oracle.at_boundary()),
            "emission {i}, {case}"
        );
    }
}

#[test]
fn flat_sampler_matches_nested_oracle() {
    let emissions = 100 * fuzz::iters(200);
    // Below 192 words the table holds its floor of 64 idioms.
    for seed in [1, 0x5eed, 0xdead_beef] {
        for size in [1, 2, 3, 63, 100, 191, 192] {
            check(seed, size, emissions);
        }
    }
    let specs = [
        tiny::walker(),
        tiny::loop_kernel(),
        tiny::interpreter(),
        spec::pegwit(),
    ];
    for s in specs {
        check(s.seed, s.vocab_size, emissions);
    }
}

#[test]
#[should_panic(expected = "idioms drawn for another vocabulary size")]
fn from_parts_rejects_mismatched_idioms() {
    CodeSampler::from_parts(1, Vocabulary::generate(1, 100), Idioms::new(1, 99));
}
