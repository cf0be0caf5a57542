//! Filler-instruction vocabularies: the uniqueness dial.
//!
//! Dictionary compression quality is a direct function of how repetitive a
//! program's 32-bit instruction words are. The paper's benchmarks have
//! unique-word fractions from ~15% (cc1, vortex) to ~32% (mpeg2enc) —
//! recoverable from Table 2 (`dict_size = 2·N + 4·U`). Each synthetic
//! benchmark draws its straight-line "compute" instructions from a fixed
//! [`Vocabulary`] of *safe* instructions whose size is the primary
//! uniqueness dial; the idiom sampler (`crate::idioms`) layers frequency
//! and locality structure on top, and each spec pins the size that was
//! calibrated for it.
//!
//! Safe means: ALU-only, destinations restricted to scratch registers, no
//! control flow, no memory — so any sampled sequence executes without
//! faulting and leaves calling-convention registers intact. Field
//! *distributions* are skewed like real compiled code (register and
//! immediate popularity), which is what gives instruction halfwords the
//! low entropy CodePack-style dictionaries exploit.

use rtdc_isa::{encode, Instruction, Reg};
use rtdc_rng::Rng64;

use crate::fasthash::fast_set_with_capacity;

/// Registers filler instructions may write: temporaries and non-`$a0`
/// argument registers. `$s0`/`$s1` (driver state), `$sp`, `$ra`, `$t8`
/// (loop counter), `$t9` (data base) and `$a0` (checksum input) stay
/// untouched.
pub const DST_POOL: [Reg; 11] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::T7,
    Reg::A1,
    Reg::A2,
    Reg::A3,
];

/// Registers filler instructions may read (adds `$zero`, `$a0`, `$v0`,
/// `$t9` to the writable pool).
pub const SRC_POOL: [Reg; 15] = [
    Reg::ZERO,
    Reg::A0,
    Reg::V0,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::T7,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::T9,
];

/// Skewed pool draw: index `i` has weight `1/(i+1)^1.6`, matching the
/// register-allocation skew of real compiled code (a few registers carry
/// most of the traffic). This is what gives the instruction *halfwords*
/// the low entropy CodePack-style per-half dictionaries exploit, without
/// reducing word-level diversity.
fn pick_skewed<T: Copy>(rng: &mut Rng64, pool: &[T]) -> T {
    use std::sync::OnceLock;
    static CUM: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    // Precomputed cumulative inverse-power weights for every pool size up
    // to 32 (pools here are 11 and 15 entries).
    let tables = CUM.get_or_init(|| {
        (0..=32usize)
            .map(|n| {
                let mut acc = 0.0;
                (0..n)
                    .map(|i| {
                        acc += 1.0 / ((i + 1) as f64).powf(1.6);
                        acc
                    })
                    .collect()
            })
            .collect()
    });
    let cum = &tables[pool.len()];
    let u: f64 = rng.gen_f64() * cum.last().copied().unwrap_or(1.0);
    let i = cum.partition_point(|&c| c < u).min(pool.len() - 1);
    pool[i]
}

/// Skewed immediate: zeros and tiny constants dominate, as in real code
/// (this is also what makes the CodePack zero-codeword for low halves
/// worthwhile, §3.2).
fn skewed_imm(rng: &mut Rng64) -> i16 {
    match rng.gen_range(0..100) {
        0..=14 => 0,
        15..=39 => *[1i16, 2, 4, 8, 16, 32, -1, -4]
            .get(rng.gen_range(0..8usize))
            .unwrap(),
        40..=69 => rng.gen_range(-64i16..64),
        _ => rng.gen_range(-2048i16..2048),
    }
}

/// Uniform-field variant used to fill the vocabulary tail quickly.
fn uniform_safe_insn(rng: &mut Rng64) -> Instruction {
    use Instruction::*;
    let rd = DST_POOL[rng.gen_range(0..DST_POOL.len())];
    let rs = SRC_POOL[rng.gen_range(0..SRC_POOL.len())];
    let rt = SRC_POOL[rng.gen_range(0..SRC_POOL.len())];
    let imm = rng.gen_range(-2048i16..2048);
    let uimm = rng.gen_range(0u16..4096);
    match rng.gen_range(0..8) {
        0 => Addiu { rt: rd, rs, imm },
        1 => Addu { rd, rs, rt },
        2 => Ori {
            rt: rd,
            rs,
            imm: uimm,
        },
        3 => Xori {
            rt: rd,
            rs,
            imm: uimm,
        },
        4 => Andi {
            rt: rd,
            rs,
            imm: uimm,
        },
        5 => Xor { rd, rs, rt },
        6 => Slt { rd, rs, rt },
        _ => Subu { rd, rs, rt },
    }
}

fn random_safe_insn(rng: &mut Rng64) -> Instruction {
    use Instruction::*;
    let rd = pick_skewed(rng, &DST_POOL);
    let rs = pick_skewed(rng, &SRC_POOL);
    let rt = pick_skewed(rng, &SRC_POOL);
    let imm = skewed_imm(rng);
    let uimm = skewed_imm(rng).unsigned_abs();
    // Opcode mix roughly matching integer RISC code: addiu/addu dominate.
    match rng.gen_range(0..100) {
        0..=19 => Addiu { rt: rd, rs, imm },
        20..=33 => Addu { rd, rs, rt },
        34..=41 => Add { rd, rs, rt },
        42..=47 => Ori {
            rt: rd,
            rs,
            imm: uimm,
        },
        48..=51 => Andi {
            rt: rd,
            rs,
            imm: uimm,
        },
        52..=54 => Xori {
            rt: rd,
            rs,
            imm: uimm,
        },
        55..=61 => Sll {
            rd,
            rt: rs,
            shamt: *[1u8, 2, 2, 3, 4, 8, 16, rng.gen_range(0u8..32)]
                .get(rng.gen_range(0..8usize))
                .unwrap(),
        },
        62..=66 => Srl {
            rd,
            rt: rs,
            shamt: *[1u8, 2, 3, 8, 16, rng.gen_range(0u8..32)]
                .get(rng.gen_range(0..6usize))
                .unwrap(),
        },
        67..=68 => Sra {
            rd,
            rt: rs,
            shamt: rng.gen_range(0u8..32),
        },
        69..=74 => Or { rd, rs, rt },
        75..=79 => And { rd, rs, rt },
        80..=83 => Xor { rd, rs, rt },
        84 => Nor { rd, rs, rt },
        85..=89 => Subu { rd, rs, rt },
        90..=92 => Sub { rd, rs, rt },
        93..=96 => Slt { rd, rs, rt },
        97..=98 => Sltu { rd, rs, rt },
        _ => Lui { rt: rd, imm: uimm },
    }
}

/// A fixed set of distinct safe filler instructions to sample from.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    insns: Vec<Instruction>,
}

impl Vocabulary {
    /// Generates a vocabulary of exactly `size` distinct instructions,
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the family's total distinct encodings
    /// (≈ 1.4M; real vocabularies are ≤ 100K).
    pub fn generate(seed: u64, size: usize) -> Vocabulary {
        assert!(
            size <= 1_000_000,
            "vocabulary too large for the safe family"
        );
        let mut rng = Rng64::seed_from_u64(seed ^ 0x0c4b_0001);
        let mut seen = fast_set_with_capacity::<u32>(size * 2);
        let mut insns = Vec::with_capacity(size);
        // Head of the vocabulary: skewed field draws (popular idiomatic
        // words land at low ranks, where the idiom sampler's Zipf puts the
        // mass). Tail: uniform draws for diversity — also bounds the
        // coupon-collector cost of deduplicating a heavily skewed stream.
        let mut attempts = 0usize;
        while insns.len() < size {
            attempts += 1;
            let insn = if attempts <= 8 * size {
                random_safe_insn(&mut rng)
            } else {
                uniform_safe_insn(&mut rng)
            };
            if seen.insert(encode(insn)) {
                insns.push(insn);
            }
        }
        Vocabulary { insns }
    }

    /// The instruction at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> Instruction {
        self.insns[index]
    }

    /// The first `size` entries as a vocabulary of their own.
    ///
    /// Calibration builds one master vocabulary and probes its prefixes,
    /// and generation cuts the calibrated prefix of the same master. A
    /// prefix is not in general [`Vocabulary::generate`] at the smaller
    /// size: where the draws switch from skewed to uniform depends on the
    /// requested size.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds this vocabulary's length.
    pub fn prefix(&self, size: usize) -> Vocabulary {
        assert!(size <= self.insns.len(), "prefix larger than vocabulary");
        Vocabulary {
            insns: self.insns[..size].to_vec(),
        }
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn vocabulary_is_deterministic_and_distinct() {
        let a = Vocabulary::generate(42, 500);
        let b = Vocabulary::generate(42, 500);
        assert_eq!(a.insns, b.insns);
        let set: HashSet<u32> = a.insns.iter().map(|&i| encode(i)).collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Vocabulary::generate(1, 100);
        let b = Vocabulary::generate(2, 100);
        assert_ne!(a.insns, b.insns);
    }

    #[test]
    fn filler_never_writes_reserved_registers() {
        let v = Vocabulary::generate(7, 2000);
        for insn in &v.insns {
            if let Some(dst) = insn.dest_reg() {
                assert!(DST_POOL.contains(&dst), "{insn} writes {dst}");
            }
            assert!(!insn.is_control() && !insn.is_load() && !insn.is_store());
        }
    }
}
