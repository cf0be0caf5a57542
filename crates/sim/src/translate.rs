//! Translated execution: program *blocks* and handler *traces* of
//! pre-decoded instructions, executed with one dispatch instead of N.
//!
//! The interpreter pays fetch-path resolution, an I-cache set scan, a
//! decode-store probe, and full dispatch for every simulated
//! instruction. The translation layer amortizes all of that across a
//! unit of pre-decoded ops, with the per-instruction facts the hot loop
//! needs (load-use interlock slots, trace exit checks) computed at build
//! time. Executing a unit costs one table probe and one validity check,
//! then runs the ops back to back.
//!
//! Two kinds of unit mirror the two fetch paths of [`crate::Machine`]:
//!
//! * **program blocks** are built from words *resident in the I-cache*
//!   (native or decompressed alike) and on execution pay one LRU touch
//!   and per-op `ifetches`;
//! * **handler traces** are built from handler-RAM words in main memory
//!   and, like the interpreter's handler fetches, touch no I-cache state
//!   and count no `ifetches`.
//!
//! # Program blocks
//!
//! Blocks start wherever control arrives (any dispatch PC gets its own
//! slot) and end at the first *terminator* — every conditional branch,
//! `j`/`jal`/`jr`/`jalr`, `syscall`, `break`, `iret`, `swic` — or at a
//! 32-byte granule boundary, whichever comes first. Confining a block
//! to one granule (which never spans an I-cache line at the paper's
//! 32-byte geometry) gives it a single backing line and a single
//! generation word to validate against.
//!
//! # Handler traces
//!
//! The decompression handler is most of what a compressed run executes,
//! and it is branchy: every `jal read_bits`, loop branch and `swic`
//! would end a block after two or three ops. A trace instead follows the
//! handler's *static path* through its RAM: the target of `j`/`jal`
//! (when it stays in handler RAM), the fall-through of forward
//! conditional branches, the target of backward ones (loops run again),
//! and straight on through `swic` (which writes the I-cache, never the
//! handler RAM the trace was read from). A trace ends after
//! `jr`/`jalr`/`iret`/`syscall`/`break`, at [`TRACE_OPS`] ops, at the end
//! of handler RAM, or before an undecodable word. Every op records its
//! own PC, and the interlock, check and hi/lo facts are computed in trace
//! order, which is execution order for as long as the trace is followed.
//!
//! Only a conditional branch can leave the path, so a build-time *check
//! mask* ([`Trace::checks`]) marks the conditional branches and the
//! plain stores. After a marked op, and only then, the op's next PC
//! (what `execute` returned) is compared with the trace's next PC, and
//! the handler generation is re-checked. Every other op's next PC is
//! the trace's by construction: `j`/`jal` targets are followed, and
//! register jumps, `iret`, `syscall` and `break` are always a trace's
//! last op, whose next PC is committed as is. A branch that goes the
//! other way is a *side exit*: the machine commits the PC it really
//! went to, uncharges the ops it did not execute, and returns to the
//! dispatch loop, which looks up (or builds) the trace starting there.
//!
//! Every unit, trace or block, returns to the dispatch loop when it
//! ends. Looping from one handler trace straight into the next was
//! measured and did not pay (the loop re-checks what the dispatch loop
//! checks, and the op loop is an out-of-line call either way), and a
//! prototype that ran program blocks back to back was 5.4% slower.
//!
//! # Invalidation contract
//!
//! A unit is valid only while the *bytes it was built from* cannot have
//! changed; whether a program block's backing line is still resident is
//! a separate question answered by the dispatch-time LRU touch (a miss
//! falls back to one interpreter step, which performs the fill — or
//! raises the decompression exception — exactly as the interpreter
//! would). Splitting the two matters: a 16KB I-cache thrashing over a
//! 1MB text evicts lines constantly, but an eviction followed by a
//! refill of an *unmodified* native line restores identical bytes, so
//! tying validity to residency would rebuild every block once per
//! eviction for no semantic reason.
//!
//! Handler traces have one validity word: the **handler generation**, a
//! single counter bumped by every store into handler RAM (handler
//! fetches read main memory, so the next handler fetch observes the
//! store). A trace is valid while the generation it was built at is
//! current; after each of its own stores (marked in the check mask) the
//! running trace re-checks it and leaves before any op it may have
//! rewritten. Nothing else can
//! change handler RAM during a run: `swic` writes only the I-cache.
//!
//! Every program block records the generation of its backing 32-byte
//! granule at build time; a block is valid only while the generation
//! still matches. [`Machine`](crate::Machine) bumps granule generations
//! at every point where the bytes behind a program fetch address change
//! *observably*:
//!
//! * a **`swic`** write (the written granule — the whole line when the
//!   write allocates and zero-fills it) — `swic` rewrites I-cache
//!   content in place, which the very next fetch observes;
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
//! which the simulator never observed, safe in two ways. It wipes the
//! block table, the trace table and the build filter, so no unit built
//! before the edit survives. And it marks every granule of every line
//! still resident in the I-cache as stored-to, so the refill that first
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
//! The block table is deliberately *small*: translation only pays off
//! for blocks that are re-executed, and the hot working set of a
//! benchmark is far smaller than its text. A table big enough to hold
//! every cold block would be tens of megabytes — every dispatch would
//! then probe DRAM-cold memory and the probe would cost more than the
//! dispatch saves (measured: a 63MB table made translation *slower*
//! than the interpreter). Conflict evictions of cold blocks are the
//! cheap side of that trade.
//!
//! Traces are ≈400 bytes each, so a full 1024-slot table would cost a
//! fresh machine ≈400KB of initialisation. Instead a 2KB index, exact
//! for any 4KB of handler RAM, points into a trace list that grows only
//! as entry points are first dispatched (a few dozen per handler).
//!
//! The run loop falls back to single-stepping whenever exactness needs
//! the interpreter's per-instruction machinery: traced sinks and
//! profiled runs never use translation at all, and a dispatch falls back
//! for one step when no unit can be built (a miss, an undecodable word,
//! an unaligned or mode-mismatched PC), the first time a program PC is
//! seen, when a program block's backing line is no longer resident, or
//! when executing a whole unit could overshoot the instruction budget.
//! [`EngineCounters`] counts each of these next to the ops the units ran.

use rtdc_isa::{Instruction, Reg};

/// Maximum instructions per program block: one 32-byte granule.
pub(crate) const BLOCK_OPS: usize = 8;

/// Maximum ops per handler trace.
pub(crate) const TRACE_OPS: usize = 32;

/// log2 of the granule size tracked by the generation table.
const GRAN_SHIFT: u32 = 5;

/// Bytes per generation granule (32: one baseline I-cache line).
pub(crate) const GRAN_BYTES: u32 = 1 << GRAN_SHIFT;

/// Slots in the direct-mapped program block cache (keyed on `pc >> 2`:
/// 128KB of contiguous text before slots alias). At 80 bytes per
/// block the table is 2.5MB — small enough to stay warm in the host
/// LLC, which matters more than coverage (see "Table sizing" above).
const BLOCK_SLOTS: usize = 1 << 15;

/// Entries in the trace index (keyed on `pc >> 2`: exact for any 4KB
/// of handler RAM). Handler PCs share low bits with program text, so
/// giving traces their own table keeps each decompression exception
/// from evicting — and being evicted by — the very program blocks it
/// decompresses for.
const TRACE_SLOTS: usize = 1 << 10;

/// Trace-index entry with no trace behind it.
const NO_TRACE: u16 = u16::MAX;

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

/// One translated program block, deliberately compact — the dispatch
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
    /// The final op is a load. The op loop maintains the interpreter's
    /// `last_load_dest` invariant ("clear unless the previous step was
    /// a load") only at unit boundaries: mid-unit consumers use the
    /// precomputed interlock mask, so a stale value is unobservable
    /// until the next unit's entry check — which this flag lets the
    /// exit path fix up with one conditional clear instead of a clear
    /// per op.
    pub ends_load: bool,
    /// Bit `i` set: op `i` reads the destination of a load at op `i-1`
    /// and charges the one-bubble interlock without consulting
    /// `last_load_dest` (ops after the first can only interlock against
    /// their in-unit predecessor; bit 0 is always clear — the entry op
    /// checks the *previous unit's* trailing load dynamically).
    pub interlocks: u8,
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
    insns: [FILLER; BLOCK_OPS],
};

/// One handler trace: the ops along the handler's static path from
/// `pc`, each with its own PC (see "Handler traces" above).
#[derive(Debug, Clone)]
pub(crate) struct Trace {
    /// Entry PC.
    pub pc: u32,
    /// Handler generation at build time.
    pub gen: u64,
    /// Number of valid ops.
    pub len: u8,
    /// See [`Block::hilo`].
    pub hilo: bool,
    /// See [`Block::ends_load`].
    pub ends_load: bool,
    /// See [`Block::interlocks`], in trace order.
    pub interlocks: u32,
    /// The check mask. Bit `i` set: op `i` is one where the trace can
    /// leave early — a conditional branch (it may go the other way) or
    /// a plain store (`sb`/`sh`/`sw`: it may rewrite handler RAM) — so
    /// the op loop compares its next PC and the handler generation
    /// after it. See "Handler traces" above for why no other op needs
    /// either check.
    pub checks: u32,
    /// `pcs[i]` is op `i`'s PC; `pcs[i + 1]` is the next PC op `i`
    /// must produce for the trace to continue.
    pub pcs: [u32; TRACE_OPS],
    /// The pre-decoded instructions, `insns[..len]` valid.
    pub insns: [Instruction; TRACE_OPS],
}

/// A translated unit as the op loop sees it: a program block or a
/// handler trace.
pub(crate) trait Unit {
    /// Handler code: charged to the handler counters, fetch-free, and
    /// able to leave early after its checked ops.
    const HANDLER: bool;
    /// Number of valid ops.
    fn len(&self) -> usize;
    /// Op `i`.
    fn insn(&self, i: usize) -> Instruction;
    /// Op `i`'s PC.
    fn op_pc(&self, i: usize) -> u32;
    /// Op `i` charges the in-unit load-use interlock.
    fn interlocked(&self, i: usize) -> bool;
    /// After op `i`, check whether the unit must leave (see
    /// [`Trace::checks`]).
    fn checked(&self, i: usize) -> bool;
    /// The generation this unit is valid at.
    fn gen(&self) -> u64;
    /// See [`Block::hilo`].
    fn hilo(&self) -> bool;
    /// See [`Block::ends_load`].
    fn ends_load(&self) -> bool;
}

impl Unit for Block {
    const HANDLER: bool = false;
    #[inline(always)]
    fn len(&self) -> usize {
        self.len as usize
    }
    #[inline(always)]
    fn insn(&self, i: usize) -> Instruction {
        self.insns[i]
    }
    #[inline(always)]
    fn op_pc(&self, i: usize) -> u32 {
        self.pc + 4 * i as u32
    }
    #[inline(always)]
    fn interlocked(&self, i: usize) -> bool {
        self.interlocks & (1 << i) != 0
    }
    #[inline(always)]
    fn checked(&self, _: usize) -> bool {
        // Straight-line by construction (a branch ends the block), and
        // a program store never changes the resident I-cache bytes the
        // remaining ops came from.
        false
    }
    #[inline(always)]
    fn gen(&self) -> u64 {
        self.gen
    }
    #[inline(always)]
    fn hilo(&self) -> bool {
        self.hilo
    }
    #[inline(always)]
    fn ends_load(&self) -> bool {
        self.ends_load
    }
}

impl Unit for Trace {
    const HANDLER: bool = true;
    #[inline(always)]
    fn len(&self) -> usize {
        self.len as usize
    }
    #[inline(always)]
    fn insn(&self, i: usize) -> Instruction {
        self.insns[i]
    }
    #[inline(always)]
    fn op_pc(&self, i: usize) -> u32 {
        self.pcs[i]
    }
    #[inline(always)]
    fn interlocked(&self, i: usize) -> bool {
        self.interlocks & (1 << i) != 0
    }
    #[inline(always)]
    fn checked(&self, i: usize) -> bool {
        self.checks & (1 << i) != 0
    }
    #[inline(always)]
    fn gen(&self) -> u64 {
        self.gen
    }
    #[inline(always)]
    fn hilo(&self) -> bool {
        self.hilo
    }
    #[inline(always)]
    fn ends_load(&self) -> bool {
        self.ends_load
    }
}

/// Host-side counters of the translated run loop: how execution split
/// between program blocks, handler traces and single-step fallbacks.
///
/// These describe the *simulator*, not the simulated machine, so they
/// live beside [`Stats`](crate::Stats), never inside it: differential
/// tests compare `Stats` between engines, and these differ by design.
/// All zero when the machine single-steps (translation off or a trace
/// sink attached). Cumulative across runs, like `Stats`.
///
/// Every committed instruction is counted exactly once:
/// `block_ops + trace_ops + fallback_insns == Stats::insns` for a
/// translated machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Program-block dispatches.
    pub block_dispatches: u64,
    /// Ops executed by program blocks.
    pub block_ops: u64,
    /// Handler-trace dispatches.
    pub trace_dispatches: u64,
    /// Ops executed by handler traces.
    pub trace_ops: u64,
    /// Trace dispatches that left before their last op: a branch went
    /// the other way, or a store rewrote handler RAM.
    pub side_exits: u64,
    /// Program blocks built.
    pub block_builds: u64,
    /// Handler traces built.
    pub trace_builds: u64,
    /// Fallback steps at a program PC dispatched for the first time
    /// (blocks are built on the second sighting).
    pub fallback_first_sighting: u64,
    /// Fallback steps where no unit could be built (a non-resident or
    /// undecodable word, a PC outside the unit kind's region).
    pub fallback_no_block: u64,
    /// Fallback steps at a valid program block whose backing line was
    /// evicted (the step refills it or takes the decompression
    /// exception).
    pub fallback_not_resident: u64,
    /// Fallback steps near the instruction budget, where a whole unit
    /// could overshoot it.
    pub fallback_budget: u64,
    /// Instructions committed by fallback steps (a step that takes the
    /// decompression exception commits none).
    pub fallback_insns: u64,
}

impl EngineCounters {
    /// The field names, in declaration order: what exporters name each
    /// counter after (see [`EngineCounters::to_array`]).
    pub const FIELDS: [&'static str; 12] = [
        "block_dispatches",
        "block_ops",
        "trace_dispatches",
        "trace_ops",
        "side_exits",
        "block_builds",
        "trace_builds",
        "fallback_first_sighting",
        "fallback_no_block",
        "fallback_not_resident",
        "fallback_budget",
        "fallback_insns",
    ];

    /// The counters in [`EngineCounters::FIELDS`] order.
    pub fn to_array(&self) -> [u64; 12] {
        [
            self.block_dispatches,
            self.block_ops,
            self.trace_dispatches,
            self.trace_ops,
            self.side_exits,
            self.block_builds,
            self.trace_builds,
            self.fallback_first_sighting,
            self.fallback_no_block,
            self.fallback_not_resident,
            self.fallback_budget,
            self.fallback_insns,
        ]
    }

    /// The inverse of [`EngineCounters::to_array`].
    pub fn from_array(v: [u64; 12]) -> EngineCounters {
        let [block_dispatches, block_ops, trace_dispatches, trace_ops, side_exits, block_builds, trace_builds, fallback_first_sighting, fallback_no_block, fallback_not_resident, fallback_budget, fallback_insns] =
            v;
        EngineCounters {
            block_dispatches,
            block_ops,
            trace_dispatches,
            trace_ops,
            side_exits,
            block_builds,
            trace_builds,
            fallback_first_sighting,
            fallback_no_block,
            fallback_not_resident,
            fallback_budget,
            fallback_insns,
        }
    }

    /// Mean instructions committed per dispatch of any kind (0.0 when
    /// there were none).
    pub fn ops_per_dispatch(&self) -> f64 {
        let insns = self.block_ops + self.trace_ops + self.fallback_insns;
        ratio(insns, self.dispatches())
    }

    /// All fallback steps, whatever the reason.
    pub fn fallbacks(&self) -> u64 {
        self.fallback_first_sighting
            + self.fallback_no_block
            + self.fallback_not_resident
            + self.fallback_budget
    }

    /// All dispatches: block and trace dispatches plus fallback steps.
    pub fn dispatches(&self) -> u64 {
        self.block_dispatches + self.trace_dispatches + self.fallbacks()
    }

    /// Mean ops per program-block dispatch (0.0 when there were none).
    pub fn ops_per_block(&self) -> f64 {
        ratio(self.block_ops, self.block_dispatches)
    }

    /// Mean ops per handler-trace dispatch (0.0 when there were none).
    pub fn ops_per_trace(&self) -> f64 {
        ratio(self.trace_ops, self.trace_dispatches)
    }

    /// `count` as a share of all dispatches (0.0 when there were none).
    pub fn share(&self, count: u64) -> f64 {
        ratio(count, self.dispatches())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Why a dispatch single-stepped (see [`EngineCounters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fallback {
    FirstSighting,
    NoBlock,
    NotResident,
    Budget,
}

impl EngineCounters {
    /// Counts one fallback step for `why`.
    #[inline]
    pub(crate) fn count_fallback(&mut self, why: Fallback) {
        *match why {
            Fallback::FirstSighting => &mut self.fallback_first_sighting,
            Fallback::NoBlock => &mut self.fallback_no_block,
            Fallback::NotResident => &mut self.fallback_not_resident,
            Fallback::Budget => &mut self.fallback_budget,
        } += 1;
    }
}

/// The program block table, the handler trace table, and the
/// generations that validate them.
#[derive(Debug)]
pub(crate) struct BlockCache {
    /// Program blocks, direct-mapped on `pc >> 2`.
    pub blocks: Box<[Block]>,
    /// Handler traces, in build order; `trace_slots` indexes them.
    pub traces: Vec<Trace>,
    /// Trace index, direct-mapped on `pc >> 2`: the position in
    /// `traces` of the last trace built for a PC with this slot, or
    /// [`NO_TRACE`].
    trace_slots: Box<[u16]>,
    /// The handler generation: bumped by every store into handler RAM,
    /// invalidating every trace.
    pub hgen: u64,
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
    /// Some dispatch miss may have written `blocks`, `traces` or `seen`
    /// since they were last wiped; [`BlockCache::reset`] is a no-op
    /// while clear.
    pub touched: bool,
}

impl BlockCache {
    pub fn new() -> BlockCache {
        BlockCache {
            blocks: vec![EMPTY; BLOCK_SLOTS].into_boxed_slice(),
            traces: Vec::new(),
            trace_slots: vec![NO_TRACE; TRACE_SLOTS].into_boxed_slice(),
            hgen: 0,
            gens: vec![0; GEN_SLOTS].into_boxed_slice(),
            smc: vec![None; SMC_PAGES].into_boxed_slice(),
            seen: vec![u32::MAX; BLOCK_SLOTS].into_boxed_slice(),
            touched: false,
        }
    }

    /// Forgets every block and trace. Called at each `run()` entry: the
    /// harness may have edited memory since the last run (fault
    /// injection, reloaded images) without the simulator observing it,
    /// so no earlier unit can be trusted. Tables nothing was written to
    /// since the last wipe (a fresh machine's) are left as they are.
    pub fn reset(&mut self) {
        if !std::mem::take(&mut self.touched) {
            return;
        }
        for b in self.blocks.iter_mut() {
            b.pc = u32::MAX;
        }
        self.traces.clear();
        self.trace_slots.fill(NO_TRACE);
        self.seen.fill(u32::MAX);
    }

    /// Program block-cache slot for a (4-aligned) PC.
    #[inline]
    pub fn slot_index(pc: u32) -> usize {
        ((pc >> 2) as usize) & (BLOCK_SLOTS - 1)
    }

    /// Position in `traces` of the valid trace entered at `pc`, if any.
    #[inline]
    pub fn trace_at(&self, pc: u32) -> Option<usize> {
        let i = self.trace_slots[Self::trace_slot(pc)];
        let t = self.traces.get(i as usize)?;
        (t.pc == pc && t.gen == self.hgen).then_some(i as usize)
    }

    /// The trace entry to build into for `pc`: its slot's current trace
    /// (replaced), or a new one.
    pub fn trace_entry(&mut self, pc: u32) -> &mut Trace {
        let slot = Self::trace_slot(pc);
        let i = match self.trace_slots[slot] {
            NO_TRACE => {
                self.traces.push(Trace {
                    pc: u32::MAX,
                    gen: 0,
                    len: 0,
                    hilo: false,
                    ends_load: false,
                    interlocks: 0,
                    checks: 0,
                    pcs: [0; TRACE_OPS],
                    insns: [FILLER; TRACE_OPS],
                });
                let i = self.traces.len() - 1;
                self.trace_slots[slot] = i as u16;
                i
            }
            i => i as usize,
        };
        &mut self.traces[i]
    }

    #[inline]
    fn trace_slot(pc: u32) -> usize {
        ((pc >> 2) as usize) & (TRACE_SLOTS - 1)
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

/// Does `insn` end a program block? Control transfers, mode changes,
/// the exit path, and `swic` (which mutates the I-cache and so may
/// invalidate any block, including the executing one) all terminate.
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

/// Where a handler trace goes after `insn` at `pc`: the jump target of
/// `j`/`jal`, the fall-through of a forward conditional branch, the
/// target of a backward one, the next word otherwise. `None` ends the
/// trace after `insn` (register jumps, `iret`, `syscall`, `break`, or
/// the top of the address space). The caller ends the trace before a
/// next PC outside handler RAM.
pub(crate) fn trace_next(pc: u32, insn: &Instruction) -> Option<u32> {
    use Instruction::*;
    match *insn {
        J { target } | Jal { target } => Some((pc.wrapping_add(4) & 0xf000_0000) | (target << 2)),
        Beq { offset, .. }
        | Bne { offset, .. }
        | Blez { offset, .. }
        | Bgtz { offset, .. }
        | Bltz { offset, .. }
        | Bgez { offset, .. }
            if offset < 0 =>
        {
            Some(pc.wrapping_add(4).wrapping_add((offset as i32 as u32) << 2))
        }
        Jr { .. } | Jalr { .. } | Iret | Syscall | Break { .. } => None,
        _ => pc.checked_add(4),
    }
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

/// Can a handler trace leave right after `insn`? A conditional branch
/// may go the other way than the trace followed, and a plain store
/// (`sb`/`sh`/`sw`) may rewrite the handler RAM the trace was built
/// from. `swic` writes the I-cache, never memory, and every other op's
/// next PC is the trace's by construction. See [`Trace::checks`].
pub(crate) fn is_checked(insn: &Instruction) -> bool {
    use Instruction::*;
    matches!(
        insn,
        Beq { .. }
            | Bne { .. }
            | Blez { .. }
            | Bgtz { .. }
            | Bltz { .. }
            | Bgez { .. }
            | Sb { .. }
            | Sh { .. }
            | Sw { .. }
    )
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

/// Build-time facts for a unit: op count plus the per-op bitmasks and
/// flags [`Block`] and [`Trace`] carry, in execution order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BuiltOps {
    /// Number of ops built (0: no unit).
    pub len: usize,
    /// See [`Block::interlocks`].
    pub interlocks: u32,
    /// See [`Trace::checks`].
    pub checks: u32,
    /// See [`Block::hilo`].
    pub hilo: bool,
    /// See [`Block::ends_load`].
    pub ends_load: bool,
}

/// Decodes ops from `pc` on, pulling words through `read` (`None`: not
/// fetchable by this kind of unit) and choosing each next address with
/// `next` (`None`: the unit ends after this op), until `insns` is full
/// or a word is unreadable or undecodable. Op `i`'s PC goes to
/// `pcs[i]`.
fn build<const N: usize>(
    pc: u32,
    mut read: impl FnMut(u32) -> Option<u32>,
    next: impl Fn(u32, &Instruction) -> Option<u32>,
    insns: &mut [Instruction; N],
    pcs: &mut [u32; N],
) -> BuiltOps {
    let mut built = BuiltOps::default();
    let mut prev_load: Option<Reg> = None;
    let mut addr = pc;
    while built.len < N {
        let Some(word) = read(addr) else { break };
        let Ok(insn) = rtdc_isa::decode(word) else {
            break;
        };
        let (a, b) = insn.src_regs();
        if prev_load.is_some() && (a == prev_load || b == prev_load) {
            built.interlocks |= 1 << built.len;
        }
        if is_checked(&insn) {
            built.checks |= 1 << built.len;
        }
        built.hilo |= is_hilo(&insn);
        insns[built.len] = insn;
        pcs[built.len] = addr;
        built.len += 1;
        prev_load = load_dest(&insn);
        match next(addr, &insn) {
            Some(n) => addr = n,
            None => break,
        }
    }
    built.ends_load = prev_load.is_some();
    built
}

/// Builds the instruction array for a program block starting at `pc`,
/// pulling resident words through `read` until a terminator, an
/// unreadable or undecodable word, or `end`.
pub(crate) fn build_block_ops(
    pc: u32,
    end: u32,
    mut read: impl FnMut(u32) -> Option<u32>,
    insns: &mut [Instruction; BLOCK_OPS],
) -> BuiltOps {
    let mut pcs = [0; BLOCK_OPS];
    build(
        pc,
        |a| if a < end { read(a) } else { None },
        |a, insn| {
            if is_terminator(insn) {
                None
            } else {
                a.checked_add(4)
            }
        },
        insns,
        &mut pcs,
    )
}

/// Builds a handler trace entered at `pc` into `t` from the handler-RAM
/// words in `[start, end)` (read through `read`), stamped with the
/// handler generation `gen`. Returns the number of ops (0: no trace —
/// `pc` is outside handler RAM or its word does not decode).
pub(crate) fn build_trace(
    pc: u32,
    (start, end): (u32, u32),
    read: impl Fn(u32) -> u32,
    gen: u64,
    t: &mut Trace,
) -> usize {
    let built = build(
        pc,
        |a| (start..end).contains(&a).then(|| read(a)),
        trace_next,
        &mut t.insns,
        &mut t.pcs,
    );
    // A failed build leaves the entry empty, never a 0-op trace.
    t.pc = if built.len == 0 { u32::MAX } else { pc };
    t.gen = gen;
    t.len = built.len as u8;
    t.hilo = built.hilo;
    t.ends_load = built.ends_load;
    t.interlocks = built.interlocks;
    t.checks = built.checks;
    built.len
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
    fn engine_counter_fields_round_trip_in_declaration_order() {
        let v: [u64; 12] = std::array::from_fn(|i| i as u64 + 1);
        let e = EngineCounters::from_array(v);
        assert_eq!(e.to_array(), v);
        // Each name is its field's, in declaration order: the derived
        // Debug rendering lists exactly these names with these values.
        let fields: Vec<String> = EngineCounters::FIELDS
            .iter()
            .zip(v)
            .map(|(name, x)| format!("{name}: {x}"))
            .collect();
        assert_eq!(
            format!("{e:?}"),
            format!("EngineCounters {{ {} }}", fields.join(", "))
        );
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
        build_trace(4, (0, 8), |_| word(add()), 0, bc.trace_entry(4));
        assert_eq!(bc.trace_at(4), Some(0));
        bc.seen[5] = 20;
        bc.reset();
        assert!(!bc.touched);
        assert_eq!((bc.blocks[3].pc, bc.seen[5]), (u32::MAX, u32::MAX));
        assert_eq!(bc.trace_at(4), None);
        assert!(bc.traces.is_empty());
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
        let built = build_block_ops(
            0x1000,
            granule_end(0x1000),
            |a| words.get(((a - 0x1000) / 4) as usize).copied(),
            &mut insns,
        );
        assert_eq!(built.len, 3);
        assert!(is_terminator(&insns[2]));
        // A full granule of adds stops at the boundary: 8 ops from the
        // granule base, fewer when entering mid-granule.
        let built = build_block_ops(0x1000, granule_end(0x1000), |_| Some(add), &mut insns);
        assert_eq!(built.len, BLOCK_OPS);
        let built = build_block_ops(0x1008, granule_end(0x1008), |_| Some(add), &mut insns);
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
        let built = build_block_ops(
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
        let built = build_block_ops(
            0x3000,
            granule_end(0x3000),
            |a| words.get(((a - 0x3000) / 4) as usize).copied(),
            &mut insns,
        );
        assert_eq!(built.len, 2, "swic ends the block");
        assert_ne!(built.checks & 1, 0);
        assert_eq!(built.checks & 2, 0, "swic writes the I-cache, not memory");
    }

    /// Handler RAM for the trace-builder tests.
    const H: u32 = 0x0ff0_0000;

    /// Builds the trace entered at `pc` over `words` placed at `H`
    /// (handler RAM is exactly `words`), returning it.
    fn trace(words: &[Instruction], pc: u32) -> Trace {
        let mut bc = BlockCache::new();
        let end = H + 4 * words.len() as u32;
        build_trace(
            pc,
            (H, end),
            |a| word(words[((a - H) / 4) as usize]),
            7,
            bc.trace_entry(pc),
        );
        bc.traces.pop().expect("an entry")
    }

    fn pcs(t: &Trace) -> Vec<u32> {
        t.pcs[..t.len as usize]
            .iter()
            .map(|p| (p - H) / 4)
            .collect()
    }

    fn add() -> Instruction {
        Instruction::Addu {
            rd: Reg::T0,
            rs: Reg::T0,
            rt: Reg::T1,
        }
    }

    /// `j`/`jal` to word `w` of handler RAM.
    fn to(w: u32) -> u32 {
        (H + 4 * w) >> 2
    }

    #[test]
    fn trace_follows_jal_into_the_callee_and_stops_at_its_return() {
        use Instruction::*;
        // 0: add; 1: jal 4; 2: add; 3: iret; 4: add; 5: jr $ra
        let words = [
            add(),
            Jal { target: to(4) },
            add(),
            Iret,
            add(),
            Jr { rs: Reg::RA },
        ];
        let t = trace(&words, H);
        assert_eq!(pcs(&t), [0, 1, 4, 5], "jal target followed, jr ends");
        assert_eq!((t.pc, t.gen), (H, 7));
        // Entered at the return point, the trace runs to `iret`.
        assert_eq!(pcs(&trace(&words, H + 8)), [2, 3]);
    }

    #[test]
    fn trace_falls_through_forward_branches_and_takes_backward_ones() {
        use Instruction::*;
        // 0: beq +1 (forward, to 2); 1: add; 2: add; 3: bne -2 (back to 2)
        let words = [
            Beq {
                rs: Reg::T0,
                rt: Reg::T1,
                offset: 1,
            },
            add(),
            add(),
            Bne {
                rs: Reg::T0,
                rt: Reg::T1,
                offset: -2,
            },
        ];
        let t = trace(&words, H);
        // Fall through 0 → 1, then loop 2 → 3 → 2 → 3 … to the cap.
        let mut expect = vec![0, 1];
        while expect.len() < TRACE_OPS {
            expect.push(2 + (expect.len() as u32 % 2));
        }
        assert_eq!(pcs(&t), expect);
        assert_eq!(t.len as usize, TRACE_OPS, "the loop runs to the op cap");
    }

    #[test]
    fn trace_continues_through_swic_and_flags_stores() {
        use Instruction::*;
        let swic = Swic {
            rt: Reg::T0,
            base: Reg::T2,
            offset: 0,
        };
        let sw = Sw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        };
        let words = [sw, swic, sw, Iret];
        let t = trace(&words, H);
        assert_eq!(pcs(&t), [0, 1, 2, 3], "swic does not end a trace");
        assert_eq!(t.checks, 0b101, "plain stores, not swic");
    }

    #[test]
    fn check_mask_marks_exactly_conditional_branches_and_plain_stores() {
        use Instruction::*;
        let (rs, rt, base) = (Reg::T0, Reg::T1, Reg::SP);
        let marked = [
            Beq { rs, rt, offset: 1 },
            Bne { rs, rt, offset: -1 },
            Blez { rs, offset: 1 },
            Bgtz { rs, offset: 1 },
            Bltz { rs, offset: 1 },
            Bgez { rs, offset: 1 },
            Sb {
                rt,
                base,
                offset: 0,
            },
            Sh {
                rt,
                base,
                offset: 2,
            },
            Sw {
                rt,
                base,
                offset: 4,
            },
        ];
        let unmarked = [
            J { target: 4 },
            Jal { target: 4 },
            Swic {
                rt,
                base,
                offset: 0,
            },
            Jr { rs: Reg::RA },
            Jalr { rd: Reg::RA, rs },
            Iret,
            Syscall,
            Break { code: 1 },
            add(),
            Addiu { rt, rs, imm: 1 },
            Lui { rt, imm: 1 },
            Sll {
                rd: rt,
                rt: rs,
                shamt: 2,
            },
            Lw {
                rt,
                base,
                offset: 0,
            },
            Lbux {
                rd: rt,
                base,
                index: rs,
            },
            Mult { rs, rt },
            Mflo { rd: rt },
            Mfc0 {
                rt,
                c0: rtdc_isa::C0Reg::BADVA,
            },
        ];
        for insn in marked {
            assert!(is_checked(&insn), "{insn:?} must be checked");
        }
        for insn in unmarked {
            assert!(!is_checked(&insn), "{insn:?} must not be checked");
        }
    }

    #[test]
    fn trace_check_mask_follows_trace_order() {
        use Instruction::*;
        let (rs, rt, base) = (Reg::T0, Reg::T1, Reg::SP);
        // 0: add; 1: sw; 2: j 5; 3: sb (skipped); 4: add (skipped);
        // 5: swic; 6: beq +1 (falls through); 7: jal 9; 8: iret;
        // 9: sh; 10: lw; 11: bne -3 (taken, back to 9) …
        let words = [
            add(),
            Sw {
                rt,
                base,
                offset: 0,
            },
            J { target: to(5) },
            Sb {
                rt,
                base,
                offset: 0,
            },
            add(),
            Swic {
                rt,
                base,
                offset: 0,
            },
            Beq { rs, rt, offset: 1 },
            Jal { target: to(9) },
            Iret,
            Sh {
                rt,
                base,
                offset: 0,
            },
            Lw {
                rt,
                base,
                offset: 0,
            },
            Bne { rs, rt, offset: -3 },
        ];
        let t = trace(&words, H);
        let path = pcs(&t);
        assert_eq!(path[..9], [0, 1, 2, 5, 6, 7, 9, 10, 11]);
        for (i, &w) in path.iter().enumerate() {
            let want = matches!(w, 1 | 6 | 9 | 11);
            assert_eq!(t.checks & (1 << i) != 0, want, "op {i} (word {w})");
        }
    }

    #[test]
    fn trace_stops_at_the_end_of_handler_ram_and_before_bad_words() {
        use Instruction::*;
        // Straight-line code running off the end of handler RAM.
        assert_eq!(pcs(&trace(&[add(), add(), add()], H)), [0, 1, 2]);
        // A forward branch falling through past the end, and a jump out.
        let fwd = Beq {
            rs: Reg::T0,
            rt: Reg::T1,
            offset: 4,
        };
        assert_eq!(pcs(&trace(&[add(), fwd], H)), [0, 1]);
        let out = J {
            target: 0x2000 >> 2,
        };
        assert_eq!(pcs(&trace(&[add(), out, add()], H)), [0, 1]);
        // An entry point outside handler RAM builds nothing.
        let t = trace(&[add()], H + 4);
        assert_eq!((t.len, t.pc), (0, u32::MAX));
        // An undecodable word ends the trace before it.
        let mut bc = BlockCache::new();
        let words = [word(add()), 0xFFFF_FFFF, word(add())];
        let n = build_trace(
            H,
            (H, H + 12),
            |a| words[((a - H) / 4) as usize],
            0,
            bc.trace_entry(H),
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn trace_interlocks_follow_trace_order() {
        use Instruction::*;
        // 0: lw $t0; 1: j 3; 2: (skipped); 3: add reads $t0.
        let lw = Lw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        };
        let words = [lw, J { target: to(3) }, lw, add(), Iret];
        let t = trace(&words, H);
        assert_eq!(pcs(&t), [0, 1, 3, 4]);
        assert_eq!(t.interlocks, 0, "the j sits between the load and its use");
        let words = [add(), J { target: to(3) }, add(), lw, add(), Iret];
        let t = trace(&words, H);
        assert_eq!(pcs(&t), [0, 1, 3, 4, 5]);
        assert_eq!(t.interlocks, 0b1000, "op 3 uses op 2's load");
        assert!(!t.ends_load);
    }

    #[test]
    fn traces_are_valid_at_their_generation_only() {
        let mut bc = BlockCache::new();
        let nop = |_| word(add());
        build_trace(H, (H, H + 16), nop, bc.hgen, bc.trace_entry(H));
        assert_eq!(bc.trace_at(H), Some(0));
        assert_eq!(
            bc.trace_at(H + 4),
            None,
            "other entry points need their own"
        );
        bc.hgen += 1;
        assert_eq!(bc.trace_at(H), None, "a handler-RAM store invalidates it");
        // Rebuilding reuses the slot's entry.
        build_trace(H, (H, H + 16), nop, bc.hgen, bc.trace_entry(H));
        assert_eq!((bc.trace_at(H), bc.traces.len()), (Some(0), 1));
    }
}
