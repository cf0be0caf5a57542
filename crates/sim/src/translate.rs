//! Basic-block translation: straight-line superblocks of pre-decoded
//! instructions, executed with one dispatch instead of N.
//!
//! The interpreter pays fetch-path resolution, an I-cache set scan, a
//! decode-store probe, and full dispatch for every simulated
//! instruction. The translation layer amortizes all of that across a
//! *superblock*: a run of consecutive instructions with no control
//! transfer, pre-decoded once, with the per-instruction facts the hot
//! loop needs (load-use interlock slots, store membership) computed at
//! build time. Executing a block costs one block-cache probe, one
//! generation check, and one LRU touch, then runs the ops back to back.
//!
//! # Block discovery
//!
//! Blocks start wherever control arrives (any dispatch PC gets its own
//! slot) and end at the first *terminator* — every conditional branch,
//! `j`/`jal`/`jr`/`jalr`, `syscall`, `break`, `iret`, `swic` — or at a
//! 32-byte granule boundary, whichever comes first. Confining a block
//! to one granule (which never spans an I-cache line at the paper's
//! 32-byte geometry) gives it a single backing line and a single
//! generation word to validate against.
//!
//! Two flavors mirror the two fetch paths of [`crate::Machine`]:
//!
//! * **program blocks** (`handler == false`) are built from words
//!   *resident in the I-cache* — native or decompressed alike — and on
//!   execution pay one LRU touch and per-op `ifetches`;
//! * **handler blocks** (`handler == true`) are built from handler-RAM
//!   words in main memory and, like the interpreter's handler fetches,
//!   touch no I-cache state and count no `ifetches`.
//!
//! # Invalidation contract
//!
//! A block is valid only while the *bytes it was built from* cannot
//! have changed; whether its backing line is still resident is a
//! separate question answered by the dispatch-time LRU touch (a miss
//! falls back to one interpreter step, which performs the fill — or
//! raises the decompression exception — exactly as the interpreter
//! would). Splitting the two matters: a 16KB I-cache thrashing over a
//! 1MB text evicts lines constantly, but an eviction followed by a
//! refill of an *unmodified* native line restores identical bytes, so
//! tying validity to residency would rebuild every block once per
//! eviction for no semantic reason.
//!
//! Every block records the generation of its backing 32-byte granule at
//! build time; a block is valid only while its build epoch matches the
//! current run's and the generation still matches.
//! [`Machine`](crate::Machine) bumps generations at every point where
//! the bytes behind a fetch address change *observably*:
//!
//! * a **`swic`** write (the written granule — the whole line when the
//!   write allocates and zero-fills it) — `swic` rewrites I-cache
//!   content in place, which the very next fetch observes;
//! * a **store into handler RAM** (the written granule) — handler
//!   fetches read main memory directly, so the next handler fetch
//!   observes the store;
//! * a native **fill of a granule that was stored to** since its last
//!   fill. An ordinary store changes main memory, *not* the resident
//!   I-cache line the interpreter keeps fetching from, so the store
//!   only becomes observable at the next refill: stores (and `swic`
//!   writes, whose cache-only bytes likewise diverge from memory) set
//!   the granule's bit in an exact "stored-to" bitmap, and the native
//!   fill path bumps the generation of any covered granule whose bit
//!   is set.
//!
//! The generation table is a hash (the granule index modulo the table
//! size): aliasing can only over-invalidate, never miss an
//! invalidation. The stored-to bitmap is exact (one bit per 32-byte
//! granule of the 4GB space), so data stores never invalidate code
//! they did not touch. It is two-level, like [`MainMemory`]'s page
//! table: a 64K-entry top level indexed by `addr >> 16` whose 2048-bit
//! pages are allocated at the first store into their 64KB, so a
//! machine pays for the pages its program writes, not for a flat 16MB
//! bitmap. (A flat `vec![0; ..]` would be lazily paged zero memory only
//! while glibc serves it by `mmap`; once one is freed, glibc's dynamic
//! mmap threshold rises above it, and every later machine's bitmap
//! would come from the heap and be `memset`, about a millisecond each.)
//!
//! Each run of the translated loop starts by making harness-side
//! memory edits since the last run (fault injection, reloaded images),
//! which the simulator never observed, safe in two ways. It wipes both
//! block tables and the build filter, so no block built before the
//! edit survives. And it marks every granule of every line still
//! resident in the I-cache as stored-to, so the refill that first
//! fetches edited memory behind such a line invalidates blocks built
//! from the line's old bytes. The wipe is 2.6MB of strided stores, so
//! it is skipped when nothing was installed since the last one:
//! [`BlockCache::reset`] is a no-op until a dispatch miss sets
//! `touched`, and a fresh machine's tables (and I-cache) are empty.
//!
//! [`MainMemory`]: crate::MainMemory
//!
//! # Table sizing
//!
//! The block tables are deliberately *small*: translation only pays
//! off for blocks that are re-executed, and the hot working set of a
//! benchmark is far smaller than its text. A table big enough to hold
//! every cold block would be tens of megabytes — every dispatch would
//! then probe DRAM-cold memory and the probe would cost more than the
//! dispatch saves (measured: a 63MB table made translation *slower*
//! than the interpreter). Conflict evictions of cold blocks are the
//! cheap side of that trade.
//!
//! The run loop falls back to single-stepping whenever exactness needs
//! the interpreter's per-instruction machinery: traced sinks and
//! profiled runs never use blocks at all, and a dispatch falls back for
//! one step when no block can be built (a miss, an undecodable word, an
//! unaligned or mode-mismatched PC), when a program block's backing
//! line is no longer resident, or when executing a whole block could
//! overshoot the instruction budget.

use rtdc_isa::{Instruction, Reg};

/// Maximum instructions per block: one 32-byte granule.
pub(crate) const BLOCK_OPS: usize = 8;

/// log2 of the granule size tracked by the generation table.
const GRAN_SHIFT: u32 = 5;

/// Bytes per generation granule (32: one baseline I-cache line).
pub(crate) const GRAN_BYTES: u32 = 1 << GRAN_SHIFT;

/// Slots in the direct-mapped program block cache (keyed on `pc >> 2`:
/// 128KB of contiguous text before slots alias). At 80 bytes per
/// block the table is 2.5MB — small enough to stay warm in the host
/// LLC, which matters more than coverage (see "Table sizing" above).
const BLOCK_SLOTS: usize = 1 << 15;

/// Slots in the separate handler block cache. Handler RAM is tiny
/// (4KB), but its PCs share low bits with program text, so giving the
/// handler its own exact-mapped table keeps each decompression
/// exception from evicting — and being evicted by — the very program
/// blocks it decompresses for.
const HBLOCK_SLOTS: usize = 1 << 10;

/// Entries in the granule generation table.
const GEN_SLOTS: usize = 1 << 16;

/// log2 of the stored-to bitmap's page size (64KB, like
/// [`MainMemory`](crate::MainMemory)'s pages).
const SMC_PAGE_SHIFT: u32 = 16;

/// Pages in the 4GB address space: the bitmap's top level, indexed by
/// `addr >> SMC_PAGE_SHIFT`.
const SMC_PAGES: usize = 1 << (32 - SMC_PAGE_SHIFT);

/// Bitmap words per page: 2048 granules / 64 bits per word.
const SMC_PAGE_WORDS: usize = 1 << (SMC_PAGE_SHIFT - GRAN_SHIFT - 6);

/// One allocated page of the stored-to bitmap.
type SmcPage = Box<[u64; SMC_PAGE_WORDS]>;

/// Sentinel filler for unused instruction slots (never executed: `len`
/// bounds the loop).
pub(crate) const FILLER: Instruction = Instruction::Syscall;

/// One translated superblock, deliberately compact — the dispatch
/// probe must stay cache-warm (per-op facts are bitmasks and flag
/// bits, not per-op structs, and the generation-table index is
/// recomputed from `pc` rather than stored).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    /// Starting PC (`u32::MAX` marks an empty slot; real PCs are
    /// 4-aligned).
    pub pc: u32,
    /// Generation of the backing granule at build time.
    pub gen: u64,
    /// Number of valid instructions.
    pub len: u8,
    /// Some op reads `Stats::cycles` mid-execution (`mult`/`div`
    /// latency arming, `mfhi`/`mflo` readiness waits): the block must
    /// charge its base per-instruction counters op by op, exactly like
    /// the interpreter, instead of batching them up front (every other
    /// stats update only *adds*, so batching commutes).
    pub hilo: bool,
    /// The final op is a load. The block loop maintains the
    /// interpreter's `last_load_dest` invariant ("clear unless the
    /// previous step was a load") only at block boundaries: mid-block
    /// consumers use the precomputed interlock mask, so a stale value
    /// is unobservable until the next block's entry check — which this
    /// flag lets the exit path fix up with one conditional clear
    /// instead of a clear per op.
    pub ends_load: bool,
    /// Bit `i` set: op `i` reads the destination of a load at op `i-1`
    /// and charges the one-bubble interlock without consulting
    /// `last_load_dest` (ops after the first can only interlock against
    /// their in-block predecessor; bit 0 is always clear — the entry op
    /// checks the *previous block's* trailing load dynamically).
    pub interlocks: u8,
    /// Bit `i` set: op `i` is a plain store (`sb`/`sh`/`sw`). After
    /// such an op a *handler* block must re-check its own generation
    /// (handler fetches read main memory, so a store into handler RAM —
    /// or one aliasing our granule's table slot — invalidates the bytes
    /// the remaining ops were built from immediately; program blocks
    /// fetch from the resident I-cache line, which no ordinary store
    /// can change).
    pub stores: u8,
    /// The pre-decoded instructions, `insns[..len]` valid.
    pub insns: [Instruction; BLOCK_OPS],
}

const EMPTY: Block = Block {
    pc: u32::MAX,
    gen: 0,
    len: 0,
    hilo: false,
    ends_load: false,
    interlocks: 0,
    stores: 0,
    insns: [FILLER; BLOCK_OPS],
};

/// Direct-mapped block caches (one for program blocks, one for handler
/// blocks) plus the granule generation table.
#[derive(Debug)]
pub(crate) struct BlockCache {
    /// Program blocks, direct-mapped on `pc >> 2`.
    pub blocks: Box<[Block]>,
    /// Handler blocks, direct-mapped on `pc >> 2` in their own table
    /// (exception-mode dispatch only ever probes here).
    pub hblocks: Box<[Block]>,
    /// Per-granule generation counters; any observable mutation of the
    /// bytes behind a granule bumps its counter, invalidating every
    /// block built from it.
    pub gens: Box<[u64]>,
    /// Exact stored-to bitmap (one bit per 32-byte granule): set by
    /// stores and `swic` writes, consumed by the native fill path to
    /// invalidate only granules whose memory actually changed since
    /// they were last filled. Two-level: a page's bits exist only once
    /// something in its 64KB was written.
    smc: Box<[Option<SmcPage>]>,
    /// Build-on-second-touch filter for program blocks, parallel to
    /// `blocks`: the last PC dispatched to each slot without a valid
    /// block. A PC only gets built when it was already the noted
    /// visitor, so once-executed cold code never pays a build — while
    /// the note being *beside* the slot keeps a cold aliasing PC from
    /// evicting a hot built block.
    pub seen: Box<[u32]>,
    /// Some dispatch miss may have written `blocks`, `hblocks` or
    /// `seen` since they were last wiped; [`BlockCache::reset`] is a
    /// no-op while clear.
    pub touched: bool,
}

impl BlockCache {
    pub fn new() -> BlockCache {
        BlockCache {
            blocks: vec![EMPTY; BLOCK_SLOTS].into_boxed_slice(),
            hblocks: vec![EMPTY; HBLOCK_SLOTS].into_boxed_slice(),
            gens: vec![0; GEN_SLOTS].into_boxed_slice(),
            smc: vec![None; SMC_PAGES].into_boxed_slice(),
            seen: vec![u32::MAX; BLOCK_SLOTS].into_boxed_slice(),
            touched: false,
        }
    }

    /// Forgets every block (both tables). Called at each `run()` entry:
    /// the harness may have edited memory since the last run (fault
    /// injection, reloaded images) without the simulator observing it,
    /// so no earlier block can be trusted. Tables nothing was written
    /// to since the last wipe (a fresh machine's) are left as they are.
    pub fn reset(&mut self) {
        if !std::mem::take(&mut self.touched) {
            return;
        }
        for b in self.blocks.iter_mut() {
            b.pc = u32::MAX;
        }
        for b in self.hblocks.iter_mut() {
            b.pc = u32::MAX;
        }
        self.seen.fill(u32::MAX);
    }

    /// Program block-cache slot for a (4-aligned) PC.
    #[inline]
    pub fn slot_index(pc: u32) -> usize {
        ((pc >> 2) as usize) & (BLOCK_SLOTS - 1)
    }

    /// Handler block-cache slot for a (4-aligned) PC.
    #[inline]
    pub fn hslot_index(pc: u32) -> usize {
        ((pc >> 2) as usize) & (HBLOCK_SLOTS - 1)
    }

    /// Generation-table index of the granule containing `addr`.
    #[inline]
    pub fn gen_index(addr: u32) -> usize {
        ((addr >> GRAN_SHIFT) as usize) & (GEN_SLOTS - 1)
    }

    /// Invalidates blocks built from the granule containing `addr`.
    #[inline]
    pub fn bump(&mut self, addr: u32) {
        self.gens[Self::gen_index(addr)] += 1;
    }

    /// Invalidates blocks built from any granule overlapping
    /// `[base, base + bytes)` (a cache line may span several granules,
    /// or several lines one granule — bump them all).
    pub fn bump_range(&mut self, base: u32, bytes: u32) {
        let mut addr = base & !(GRAN_BYTES - 1);
        let end = base.saturating_add(bytes.max(1));
        while addr < end {
            self.bump(addr);
            match addr.checked_add(GRAN_BYTES) {
                Some(next) => addr = next,
                None => break,
            }
        }
    }

    /// Records that memory behind `addr`'s granule diverged from
    /// whatever a resident I-cache line holds (an ordinary store, or a
    /// `swic` whose cache-only bytes a future refill would not
    /// restore). The next native fill of the granule bumps its
    /// generation.
    #[inline]
    pub fn note_written(&mut self, addr: u32) {
        let g = Self::smc_bit(addr);
        let page = self.smc[(addr >> SMC_PAGE_SHIFT) as usize]
            .get_or_insert_with(|| Box::new([0; SMC_PAGE_WORDS]));
        page[g >> 6] |= 1 << (g & 63);
    }

    /// Clears `addr`'s stored-to bit, returning whether it was set (a
    /// page never written to has no bits to clear).
    #[inline]
    fn take_written(&mut self, addr: u32) -> bool {
        let Some(page) = self.smc[(addr >> SMC_PAGE_SHIFT) as usize].as_deref_mut() else {
            return false;
        };
        let g = Self::smc_bit(addr);
        let mask = 1u64 << (g & 63);
        let set = page[g >> 6] & mask != 0;
        page[g >> 6] &= !mask;
        set
    }

    /// Bit index of `addr`'s granule within its 64KB bitmap page.
    #[inline]
    fn smc_bit(addr: u32) -> usize {
        ((addr & ((1 << SMC_PAGE_SHIFT) - 1)) >> GRAN_SHIFT) as usize
    }

    /// Marks every granule overlapping `[base, base + bytes)` as
    /// written (the zero-fill of a `swic` line allocation).
    pub fn note_written_range(&mut self, base: u32, bytes: u32) {
        let mut addr = base & !(GRAN_BYTES - 1);
        let end = base.saturating_add(bytes.max(1));
        while addr < end {
            self.note_written(addr);
            match addr.checked_add(GRAN_BYTES) {
                Some(next) => addr = next,
                None => break,
            }
        }
    }

    /// A native fill covered `[base, base + bytes)`: bump the
    /// generation of any covered granule that was written since its
    /// last fill (the refill makes the divergent memory observable to
    /// fetch), clearing its stored-to bit.
    pub fn note_fill(&mut self, base: u32, bytes: u32) {
        let mut addr = base & !(GRAN_BYTES - 1);
        let end = base.saturating_add(bytes.max(1));
        while addr < end {
            if self.take_written(addr) {
                self.bump(addr);
            }
            match addr.checked_add(GRAN_BYTES) {
                Some(next) => addr = next,
                None => break,
            }
        }
    }
}

/// Does `insn` end a block? Control transfers, mode changes, the exit
/// path, and `swic` (which mutates the I-cache and so may invalidate
/// any block, including the executing one) all terminate.
pub(crate) fn is_terminator(insn: &Instruction) -> bool {
    use Instruction::*;
    matches!(
        insn,
        Beq { .. }
            | Bne { .. }
            | Blez { .. }
            | Bgtz { .. }
            | Bltz { .. }
            | Bgez { .. }
            | J { .. }
            | Jal { .. }
            | Jr { .. }
            | Jalr { .. }
            | Syscall
            | Break { .. }
            | Iret
            | Swic { .. }
    )
}

/// The destination register `insn` loads into, if it is a load (the
/// build-time mirror of the `last_load_dest` the interpreter tracks).
pub(crate) fn load_dest(insn: &Instruction) -> Option<Reg> {
    use Instruction::*;
    match *insn {
        Lb { rt, .. } | Lbu { rt, .. } | Lh { rt, .. } | Lhu { rt, .. } | Lw { rt, .. } => Some(rt),
        Lwx { rd, .. } | Lhux { rd, .. } | Lbux { rd, .. } => Some(rd),
        _ => None,
    }
}

/// Is `insn` a plain store (`sb`/`sh`/`sw`)? `swic` is handled as a
/// terminator instead.
pub(crate) fn is_store(insn: &Instruction) -> bool {
    use Instruction::*;
    matches!(insn, Sb { .. } | Sh { .. } | Sw { .. })
}

/// Does `insn` read `Stats::cycles` mid-execution (multiplier latency
/// arming or `hi`/`lo` readiness waits)? See [`Block::hilo`].
pub(crate) fn is_hilo(insn: &Instruction) -> bool {
    use Instruction::*;
    matches!(
        insn,
        Mult { .. } | Multu { .. } | Div { .. } | Divu { .. } | Mfhi { .. } | Mflo { .. }
    )
}

/// Build-time facts for a block: op count plus the per-op bitmasks and
/// flags [`Block`] carries.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BuiltOps {
    /// Number of ops built (0: no block).
    pub len: usize,
    /// See [`Block::interlocks`].
    pub interlocks: u8,
    /// See [`Block::stores`].
    pub stores: u8,
    /// See [`Block::hilo`].
    pub hilo: bool,
    /// See [`Block::ends_load`].
    pub ends_load: bool,
}

/// Builds the instruction array for a block starting at `pc`, pulling
/// words through `read` (I-cache residency for program blocks, handler
/// RAM for handler blocks) until a terminator, an unreadable or
/// undecodable word, or `end`.
pub(crate) fn build_ops(
    pc: u32,
    end: u32,
    mut read: impl FnMut(u32) -> Option<u32>,
    insns: &mut [Instruction; BLOCK_OPS],
) -> BuiltOps {
    let mut built = BuiltOps::default();
    let mut prev_load: Option<Reg> = None;
    let mut addr = pc;
    while addr < end && built.len < BLOCK_OPS {
        let Some(word) = read(addr) else { break };
        let Ok(insn) = rtdc_isa::decode(word) else {
            break;
        };
        let (a, b) = insn.src_regs();
        if prev_load.is_some() && (a == prev_load || b == prev_load) {
            built.interlocks |= 1 << built.len;
        }
        if is_store(&insn) {
            built.stores |= 1 << built.len;
        }
        built.hilo |= is_hilo(&insn);
        insns[built.len] = insn;
        built.len += 1;
        prev_load = load_dest(&insn);
        if is_terminator(&insn) {
            break;
        }
        match addr.checked_add(4) {
            Some(next) => addr = next,
            None => break,
        }
    }
    built.ends_load = prev_load.is_some();
    built
}

/// End of the granule containing `pc` (exclusive, saturating at the top
/// of the address space): the hard upper bound for any block starting
/// at `pc`.
#[inline]
pub(crate) fn granule_end(pc: u32) -> u32 {
    (pc & !(GRAN_BYTES - 1)).saturating_add(GRAN_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdc_isa::encode;

    fn word(insn: Instruction) -> u32 {
        encode(insn)
    }

    #[test]
    fn bump_invalidates_only_the_granule() {
        let mut bc = BlockCache::new();
        let g0 = bc.gens[BlockCache::gen_index(0x1000)];
        bc.bump(0x1004); // same granule as 0x1000
        assert_eq!(bc.gens[BlockCache::gen_index(0x1000)], g0 + 1);
        assert_eq!(bc.gens[BlockCache::gen_index(0x1020)], 0);
    }

    #[test]
    fn bump_range_covers_every_overlapping_granule() {
        let mut bc = BlockCache::new();
        bc.bump_range(0x1010, 0x40); // straddles granules 0x1000/0x1020/0x1040
        for base in [0x1000u32, 0x1020, 0x1040] {
            assert_eq!(bc.gens[BlockCache::gen_index(base)], 1, "{base:#x}");
        }
        assert_eq!(bc.gens[BlockCache::gen_index(0x1060)], 0);
    }

    fn gen(bc: &BlockCache, addr: u32) -> u64 {
        bc.gens[BlockCache::gen_index(addr)]
    }

    fn smc_pages(bc: &BlockCache) -> usize {
        bc.smc.iter().filter(|p| p.is_some()).count()
    }

    #[test]
    fn stored_to_bits_bump_once_at_every_edge() {
        // Granule 0, both sides of a 64KB page edge, and the top granule
        // of the address space (where the stack lives).
        for addr in [0u32, 0xFFE0, 0x1_0000, 0xFFFF_FFE0] {
            let mut bc = BlockCache::new();
            bc.note_written(addr + 4);
            assert_eq!(smc_pages(&bc), 1, "{addr:#x}");
            // Fill the granule and its neighbours on both sides.
            let lo = addr.saturating_sub(GRAN_BYTES);
            bc.note_fill(lo, 3 * GRAN_BYTES);
            assert_eq!(gen(&bc, addr), 1, "{addr:#x} bumps on its fill");
            for n in [addr.checked_sub(GRAN_BYTES), addr.checked_add(GRAN_BYTES)]
                .into_iter()
                .flatten()
            {
                assert_eq!(gen(&bc, n), 0, "{addr:#x}: neighbour {n:#x} untouched");
            }
            // The bit was consumed: the next fill bumps nothing.
            bc.note_fill(lo, 3 * GRAN_BYTES);
            assert_eq!(gen(&bc, addr), 1, "{addr:#x} bumps exactly once");
        }
    }

    #[test]
    fn a_fill_across_a_page_edge_consumes_both_pages_bits() {
        let mut bc = BlockCache::new();
        bc.note_written_range(0xFFF0, 0x20); // granules 0xFFE0 and 0x10000
        assert_eq!(smc_pages(&bc), 2);
        bc.note_fill(0xFFE0, 2 * GRAN_BYTES);
        assert_eq!((gen(&bc, 0xFFE0), gen(&bc, 0x1_0000)), (1, 1));
        bc.note_fill(0xFFE0, 2 * GRAN_BYTES);
        assert_eq!((gen(&bc, 0xFFE0), gen(&bc, 0x1_0000)), (1, 1));
    }

    #[test]
    fn fills_of_never_written_pages_allocate_nothing() {
        let mut bc = BlockCache::new();
        bc.note_fill(0, 0x4_0000);
        bc.note_fill(0xFFFF_0000, 0x1_0000);
        assert_eq!(smc_pages(&bc), 0);
        assert!(bc.gens.iter().all(|&g| g == 0));
    }

    #[test]
    fn reset_skips_untouched_tables_and_wipes_touched_ones() {
        let mut bc = BlockCache::new();
        bc.reset();
        assert!(!bc.touched);
        bc.touched = true;
        bc.blocks[3].pc = 12;
        bc.hblocks[1].pc = 4;
        bc.seen[5] = 20;
        bc.reset();
        assert!(!bc.touched);
        assert_eq!(
            (bc.blocks[3].pc, bc.hblocks[1].pc, bc.seen[5]),
            (u32::MAX, u32::MAX, u32::MAX)
        );
    }

    #[test]
    fn blocks_end_at_terminators_and_granule_boundaries() {
        use Instruction::*;
        let add = word(Add {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        });
        let jr = word(Jr { rs: Reg::RA });
        // add; add; jr; add — block must stop after the jr.
        let words = [add, add, jr, add];
        let mut insns = [FILLER; BLOCK_OPS];
        let built = build_ops(
            0x1000,
            granule_end(0x1000),
            |a| words.get(((a - 0x1000) / 4) as usize).copied(),
            &mut insns,
        );
        assert_eq!(built.len, 3);
        assert!(is_terminator(&insns[2]));
        // A full granule of adds stops at the boundary: 8 ops from the
        // granule base, fewer when entering mid-granule.
        let built = build_ops(0x1000, granule_end(0x1000), |_| Some(add), &mut insns);
        assert_eq!(built.len, BLOCK_OPS);
        let built = build_ops(0x1008, granule_end(0x1008), |_| Some(add), &mut insns);
        assert_eq!(built.len, 6);
    }

    #[test]
    fn interlock_marks_consumers_of_the_previous_load() {
        use Instruction::*;
        let lw = word(Lw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        });
        let use_t0 = word(Add {
            rd: Reg::T1,
            rs: Reg::T0,
            rt: Reg::ZERO,
        });
        let no_use = word(Add {
            rd: Reg::T2,
            rs: Reg::T3,
            rt: Reg::T4,
        });
        let words = [lw, use_t0, lw, no_use];
        let mut insns = [FILLER; BLOCK_OPS];
        let built = build_ops(
            0x2000,
            granule_end(0x2000),
            |a| words.get(((a - 0x2000) / 4) as usize).copied(),
            &mut insns,
        );
        assert_eq!(built.len, 4);
        assert_eq!(built.interlocks & 1, 0);
        assert_ne!(built.interlocks & 2, 0, "add reads the lw destination");
        assert_eq!(built.interlocks & 4, 0, "preceded by an add, not a load");
        assert_eq!(built.interlocks & 8, 0, "independent add");
    }

    #[test]
    fn stores_are_flagged_and_swic_terminates() {
        use Instruction::*;
        let sw = word(Sw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        });
        let swic = word(Swic {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        });
        let words = [sw, swic, sw];
        let mut insns = [FILLER; BLOCK_OPS];
        let built = build_ops(
            0x3000,
            granule_end(0x3000),
            |a| words.get(((a - 0x3000) / 4) as usize).copied(),
            &mut insns,
        );
        assert_eq!(built.len, 2, "swic ends the block");
        assert_ne!(built.stores & 1, 0);
        assert_eq!(built.stores & 2, 0, "swic invalidates via its own hook");
    }
}
