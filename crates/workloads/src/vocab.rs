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
//!
//! The safe family is small enough to index densely: an opcode, a
//! [`DST_POOL`] position, a [`SRC_POOL`] position and one third field (a
//! 12-bit immediate, a second source position or a shift amount) name each
//! of its [`FAMILY_SIZE`] words exactly once. A vocabulary is built by
//! drawing those fields and deduplicating through one bit per index, so an
//! [`Instruction`] is only ever built for a word not seen before.

use rtdc_isa::{Instruction, Reg};
use rtdc_rng::Rng64;

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

/// The safe family's opcodes, in the order of [`OPS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Addiu,
    Addu,
    Add,
    Ori,
    Andi,
    Xori,
    Sll,
    Srl,
    Sra,
    Or,
    And,
    Xor,
    Nor,
    Subu,
    Sub,
    Slt,
    Sltu,
    Lui,
}

/// What an opcode's third field holds. A draw fills it with
/// `[signed imm, unsigned imm, unsigned imm, second source][field]`;
/// shift amounts are drawn on their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    /// A 12-bit signed immediate, offset by 2048.
    Simm,
    /// A 12-bit unsigned immediate.
    Uimm,
    /// `lui`'s immediate, `0..=2048`; `lui` reads no source.
    Upper,
    /// A second source position.
    Rt,
    /// A shift amount.
    Shamt,
}

impl Field {
    /// Source positions that give distinct words, and the field's values.
    const fn shape(self) -> (u32, u32) {
        const SRC: u32 = SRC_POOL.len() as u32;
        match self {
            Field::Simm | Field::Uimm => (SRC, 4096),
            Field::Upper => (1, 2049),
            Field::Rt => (SRC, SRC),
            Field::Shamt => (SRC, 32),
        }
    }
}

/// Every opcode with its share of the skewed draw's rolls `0..100`, in
/// roll order (addiu/addu dominate, roughly matching integer RISC code),
/// and its third field.
const OPS: [(Op, usize, Field); 18] = {
    use Field::*;
    [
        (Op::Addiu, 20, Simm),
        (Op::Addu, 14, Rt),
        (Op::Add, 8, Rt),
        (Op::Ori, 6, Uimm),
        (Op::Andi, 4, Uimm),
        (Op::Xori, 3, Uimm),
        (Op::Sll, 7, Shamt),
        (Op::Srl, 5, Shamt),
        (Op::Sra, 2, Shamt),
        (Op::Or, 6, Rt),
        (Op::And, 5, Rt),
        (Op::Xor, 4, Rt),
        (Op::Nor, 1, Rt),
        (Op::Subu, 5, Rt),
        (Op::Sub, 3, Rt),
        (Op::Slt, 4, Rt),
        (Op::Sltu, 2, Rt),
        (Op::Lui, 1, Upper),
    ]
};

/// The uniform draw's opcode for each roll of `0..8`.
const UNIFORM_OPS: [Op; 8] = {
    use Op::*;
    [Addiu, Addu, Ori, Xori, Andi, Xor, Slt, Subu]
};

/// The skewed draw's opcode for each roll of `0..100`.
const OP_BY_ROLL: [Op; 100] = {
    let (mut out, mut roll, mut row) = ([Op::Addiu; 100], 0, 0);
    while row < OPS.len() {
        assert!(OPS[row].0 as usize == row, "OPS lists opcodes in order");
        let end = roll + OPS[row].1;
        while roll < end {
            out[roll] = OPS[row].0;
            roll += 1;
        }
        row += 1;
    }
    assert!(roll == 100, "opcode weights cover every roll");
    out
};

/// Each opcode's first index and its destination and source strides:
/// opcodes take consecutive blocks of `DST_POOL × sources × values`.
const LAYOUT: [(u32, u32, u32); 18] = {
    let (mut out, mut base, mut op) = ([(0, 0, 0); 18], 0, 0);
    while op < OPS.len() {
        let (sources, values) = OPS[op].2.shape();
        let s_stride = if sources > 1 { values } else { 0 };
        out[op] = (base, sources * values, s_stride);
        base += DST_POOL.len() as u32 * sources * values;
        op += 1;
    }
    out
};

/// Distinct words in the safe family: every index below this names one
/// word, and every word has one index.
pub const FAMILY_SIZE: usize = {
    let (base, d_stride, _) = LAYOUT[OPS.len() - 1];
    (base + DST_POOL.len() as u32 * d_stride) as usize
};

/// One draw from the safe family: opcode, pool positions and third field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fields {
    op: Op,
    d: u32,
    s: u32,
    f: u32,
}

impl Fields {
    /// The word's position in `0..FAMILY_SIZE`.
    #[inline]
    fn index(self) -> usize {
        let (base, d_stride, s_stride) = LAYOUT[self.op as usize];
        (base + self.d * d_stride + self.s * s_stride + self.f) as usize
    }

    fn insn(self) -> Instruction {
        use Instruction::*;
        let (rd, rs) = (DST_POOL[self.d as usize], SRC_POOL[self.s as usize]);
        let (imm, shamt, rt) = (self.f as u16, self.f as u8, || SRC_POOL[self.f as usize]);
        match self.op {
            Op::Addiu => Addiu {
                rt: rd,
                rs,
                imm: imm as i16 - 2048,
            },
            Op::Ori => Ori { rt: rd, rs, imm },
            Op::Andi => Andi { rt: rd, rs, imm },
            Op::Xori => Xori { rt: rd, rs, imm },
            Op::Lui => Lui { rt: rd, imm },
            Op::Sll => Sll { rd, rt: rs, shamt },
            Op::Srl => Srl { rd, rt: rs, shamt },
            Op::Sra => Sra { rd, rt: rs, shamt },
            Op::Addu => Addu { rd, rs, rt: rt() },
            Op::Add => Add { rd, rs, rt: rt() },
            Op::Or => Or { rd, rs, rt: rt() },
            Op::And => And { rd, rs, rt: rt() },
            Op::Xor => Xor { rd, rs, rt: rt() },
            Op::Nor => Nor { rd, rs, rt: rt() },
            Op::Subu => Subu { rd, rs, rt: rt() },
            Op::Sub => Sub { rd, rs, rt: rt() },
            Op::Slt => Slt { rd, rs, rt: rt() },
            Op::Sltu => Sltu { rd, rs, rt: rt() },
        }
    }
}

/// A uniform draw from `0..n`: one `next_u64` reduced by a constant
/// modulus, exactly as `Rng64::gen_range(0..n)` draws it.
#[inline]
fn roll(rng: &mut Rng64, n: u64) -> u32 {
    (rng.next_u64() % n) as u32
}

/// Integer thresholds for a skewed pool draw over `N` positions. Position
/// `i` has weight `1/(i+1)^1.6`, matching the register-allocation skew of
/// real compiled code (a few registers carry most of the traffic). This is
/// what gives the instruction *halfwords* the low entropy CodePack-style
/// per-half dictionaries exploit, without reducing word-level diversity.
///
/// The draw scales a uniform `f64` in `[0, 1)`, `m·2⁻⁵³` for the top 53
/// bits `m` of one `next_u64`, by the total weight; its position is the
/// count of cumulative weights below that. The scaled value never falls as
/// `m` grows, so threshold `i` is the least `m` whose scaled value exceeds
/// cumulative weight `i`, and the position is the count of thresholds at
/// or below `m`.
///
/// The thresholds come sorted and padded to 16 with `u64::MAX`, which no
/// `m` reaches, so one array shape serves both pools.
fn skew_thresholds<const N: usize>() -> [u64; 16] {
    let (mut cum, mut acc) = ([0.0f64; N], 0.0);
    for (i, c) in cum.iter_mut().enumerate() {
        acc += 1.0 / ((i + 1) as f64).powf(1.6);
        *c = acc;
    }
    let scaled = |m: u64| m as f64 * (1.0 / (1u64 << 53) as f64) * cum[N - 1];
    let mut out = [u64::MAX; 16];
    for (t, c) in out.iter_mut().zip(cum) {
        // Least m in 0..=2^53 with scaled(m) > c (2^53: none).
        let (mut lo, mut hi) = (0u64, 1u64 << 53);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if scaled(mid) > c {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        *t = lo;
    }
    out
}

/// The skewed position for the top 53 bits `m` of a `next_u64`: the
/// count of thresholds at or below `m`, by a branch-free binary search.
#[inline]
fn skew_position(thresholds: &[u64; 16], m: u64) -> u32 {
    let mut i = 0;
    for step in [8, 4, 2, 1] {
        if m >= thresholds[i + step - 1] {
            i += step;
        }
    }
    i as u32
}

/// Skewed immediate: zeros and tiny constants dominate, as in real code
/// (this is also what makes the CodePack zero-codeword for low halves
/// worthwhile, §3.2).
///
/// A roll of `0..100` picks the class: 15% zero, 25% a popular constant,
/// 30% a value in `-64..64`, 30% one in `-2048..2048`. Every class but
/// zero takes its value from the low bits of one more `next_u64` (the
/// moduli 8, 128 and 4096 are powers of two), so all three candidates
/// come from one draw and the only branch is whether to make it.
#[inline]
fn skewed_imm(rng: &mut Rng64) -> i16 {
    let r = roll(rng, 100);
    let class = usize::from(r >= 15) + usize::from(r >= 40) + usize::from(r >= 70);
    let x = if class == 0 {
        0
    } else {
        rng.next_u64() as i16 & 4095
    };
    let popular = [1, 2, 4, 8, 16, 32, -1, -4][(x & 7) as usize];
    [0, popular, (x & 127) - 64, x - 2048][class]
}

/// The skewed draw's register thresholds ([`skew_thresholds`]).
struct Draws {
    dst: [u64; 16],
    src: [u64; 16],
}

impl Draws {
    fn new() -> Draws {
        Draws {
            dst: skew_thresholds::<{ DST_POOL.len() }>(),
            src: skew_thresholds::<{ SRC_POOL.len() }>(),
        }
    }

    #[inline]
    fn pick(thresholds: &[u64; 16], rng: &mut Rng64) -> u32 {
        skew_position(thresholds, rng.next_u64() >> 11)
    }

    /// Skewed fields: popular registers, small immediates and the common
    /// opcodes come first. Every field is drawn whether or not the opcode
    /// uses it; only the shifts draw more.
    #[inline]
    fn skewed(&self, rng: &mut Rng64) -> Fields {
        let d = Self::pick(&self.dst, rng);
        let s = Self::pick(&self.src, rng);
        let t = Self::pick(&self.src, rng);
        let imm = (skewed_imm(rng) + 2048) as u32;
        let uimm = u32::from(skewed_imm(rng).unsigned_abs());
        let op = OP_BY_ROLL[roll(rng, 100) as usize];
        let f = match op {
            Op::Sll => {
                let any = roll(rng, 32);
                [1, 2, 2, 3, 4, 8, 16, any][roll(rng, 8) as usize]
            }
            Op::Srl => {
                let any = roll(rng, 32);
                [1, 2, 3, 8, 16, any][roll(rng, 6) as usize]
            }
            Op::Sra => roll(rng, 32),
            _ => [imm, uimm, uimm, t][OPS[op as usize].2 as usize],
        };
        Fields { op, d, s, f }
    }

    /// Uniform fields, used to fill the vocabulary tail quickly.
    #[inline]
    fn uniform(rng: &mut Rng64) -> Fields {
        let d = roll(rng, DST_POOL.len() as u64);
        let s = roll(rng, SRC_POOL.len() as u64);
        let t = roll(rng, SRC_POOL.len() as u64);
        let imm = roll(rng, 4096);
        let uimm = roll(rng, 4096);
        let op = UNIFORM_OPS[roll(rng, 8) as usize];
        let f = [imm, uimm, uimm, t][OPS[op as usize].2 as usize];
        Fields { op, d, s, f }
    }
}

/// A fixed-size set of small integers, one bit each.
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over `0..len`. The words come zeroed from the
    /// allocator, so a small set touches only the pages it uses.
    pub(crate) fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Adds `i`; whether it was absent.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
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
    /// Panics if `size` exceeds the family's [`FAMILY_SIZE`] distinct
    /// words (the largest master vocabulary is 900,000).
    pub fn generate(seed: u64, size: usize) -> Vocabulary {
        assert!(
            size <= FAMILY_SIZE,
            "vocabulary too large for the safe family"
        );
        let mut rng = Rng64::seed_from_u64(seed ^ 0x0c4b_0001);
        let draws = Draws::new();
        let mut seen = BitSet::new(FAMILY_SIZE);
        let mut insns = Vec::with_capacity(size);
        // Head of the vocabulary: skewed field draws (popular idiomatic
        // words land at low ranks, where the idiom sampler's Zipf puts the
        // mass). Tail: uniform draws for diversity — also bounds the
        // coupon-collector cost of deduplicating a heavily skewed stream.
        let mut attempts = 0usize;
        while insns.len() < size {
            attempts += 1;
            let fields = if attempts <= 8 * size {
                draws.skewed(&mut rng)
            } else {
                Draws::uniform(&mut rng)
            };
            if seen.insert(fields.index()) {
                insns.push(fields.insn());
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

    use rtdc_isa::encode;

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

    /// Every field combination either draw can produce, per opcode.
    fn whole_family() -> impl Iterator<Item = Fields> {
        OPS.into_iter().flat_map(|(op, _, field)| {
            let (sources, values) = field.shape();
            (0..DST_POOL.len() as u32).flat_map(move |d| {
                (0..sources).flat_map(move |s| (0..values).map(move |f| Fields { op, d, s, f }))
            })
        })
    }

    #[test]
    fn family_index_is_a_bijection_onto_encodings() {
        let mut seen = BitSet::new(FAMILY_SIZE);
        let mut words = Vec::with_capacity(FAMILY_SIZE);
        for fields in whole_family() {
            let i = fields.index();
            assert!(i < FAMILY_SIZE, "{fields:?} indexes {i}");
            assert!(seen.insert(i), "{fields:?} shares index {i}");
            words.push(encode(fields.insn()));
        }
        // Every index used once, and one distinct word per index.
        assert_eq!(words.len(), FAMILY_SIZE);
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), FAMILY_SIZE);
        assert_eq!(FAMILY_SIZE, 2_766_489);
    }

    #[test]
    fn draws_stay_in_the_family() {
        // The ranges `whole_family` enumerates cover what the draws make;
        // a source position is ignored where the opcode reads none.
        let draws = Draws::new();
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..200_000 {
            for fields in [draws.skewed(&mut rng), Draws::uniform(&mut rng)] {
                assert!((fields.d as usize) < DST_POOL.len());
                assert!((fields.s as usize) < SRC_POOL.len());
                assert!(fields.f < OPS[fields.op as usize].2.shape().1, "{fields:?}");
                assert!(fields.index() < FAMILY_SIZE);
            }
        }
    }

    /// The pool draw as a float search: the first cumulative weight not
    /// below `u01` (a `gen_f64` value) scaled by the total weight.
    fn search_pick(u01: f64, n: usize) -> u32 {
        let cum: Vec<f64> = (0..n)
            .scan(0.0, |acc, i| {
                *acc += 1.0 / ((i + 1) as f64).powf(1.6);
                Some(*acc)
            })
            .collect();
        let u = u01 * cum[n - 1];
        cum.partition_point(|&c| c < u).min(n - 1) as u32
    }

    fn threshold_pick_matches_search<const N: usize>() {
        let thresholds = skew_thresholds::<N>();
        assert!(thresholds.is_sorted(), "the search needs sorted thresholds");
        let mut a = Rng64::seed_from_u64(N as u64);
        let mut b = a.clone();
        for _ in 0..1_000_000 {
            assert_eq!(
                Draws::pick(&thresholds, &mut a),
                search_pick(b.gen_f64(), N)
            );
        }
        assert_eq!(a, b, "both draws consume one next_u64");
        // Either side of every threshold, where the float search flips.
        for &t in thresholds.iter().take_while(|&&t| t < 1 << 53) {
            for m in [t - 1, t] {
                let u01 = m as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(
                    skew_position(&thresholds, m),
                    search_pick(u01, N),
                    "m = {m}"
                );
            }
        }
    }

    #[test]
    fn threshold_picks_equal_the_float_search() {
        threshold_pick_matches_search::<{ DST_POOL.len() }>();
        threshold_pick_matches_search::<{ SRC_POOL.len() }>();
    }

    #[test]
    fn bitset_inserts_once() {
        let mut set = BitSet::new(130);
        assert!(set.insert(0) && set.insert(64) && set.insert(129));
        assert!(!set.insert(64));
        assert!(set.insert(63));
    }
}
