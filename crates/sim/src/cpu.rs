//! The machine model: architectural state, functional execution, and the
//! in-order 5-stage timing model, including the paper's software-managed
//! I-cache decompression path.
//!
//! # Timing model
//!
//! A 1-wide in-order 5-stage pipeline (the paper's Table 1 machine) is
//! modeled as one base cycle per committed instruction plus explicit stalls
//! for every hazard such a pipeline exposes:
//!
//! * I-cache miss in the **native** region: a hardware line fill
//!   (`10 + 3×2 = 16` cycles for a 32B line over the 64-bit bus);
//! * I-cache miss in the **compressed** region: a pipeline flush, then the
//!   software decompression handler executes instruction-by-instruction
//!   from its dedicated on-chip RAM (§4.1), with its own D-side stalls,
//!   then `iret` refills the pipe;
//! * D-cache miss: line fill (+ writeback if the victim was dirty);
//! * load-use interlock: 1 bubble;
//! * conditional branch mispredict (bimode) and register-jump redirect
//!   (RAS miss): front-end refill bubbles;
//! * multiply/divide: `mfhi`/`mflo` stall until the product is ready;
//! * `swic`: drains preceding instructions (§4: the processor must be
//!   non-speculative before writing the I-cache).
//!
//! Wrong-path fetch is not simulated; the paper excludes speculative misses
//! everywhere, and this makes every counted miss non-speculative by
//! construction (see DESIGN.md).

use rtdc_isa::{decode, C0Reg, Instruction, Reg};

use crate::bpred::{Bimode, ReturnStack};
use crate::cache::Cache;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::mem::MainMemory;
use crate::stats::Stats;
use crate::trace::{MissKind, NoTrace, StallCause, TraceEvent, TraceSink};
use crate::translate::{
    build_block_ops, build_trace, granule_end, Block, BlockCache, EngineCounters, Fallback, Unit,
    BLOCK_OPS, FILLER,
};

/// Processor privilege/context mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Normal program execution.
    Normal,
    /// Inside the I-miss exception handler (between the exception and
    /// `iret`). With [`SimConfig::second_regfile`] set, register accesses
    /// use the shadow file in this mode.
    Exception,
}

/// Result of one [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An instruction committed (or an exception was taken).
    Continue,
    /// The program exited via `syscall` with this code.
    Exited(u32),
}

/// Outcome of [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// The program's exit code.
    pub exit_code: u32,
}

enum Fetch {
    Word(u32),
    TookException,
}

/// Slots in the pre-decoded instruction store (direct-mapped on `pc >> 2`).
const DECODE_SLOTS: usize = 1 << 15;

/// One slot of the pre-decoded store: the packed `(pc, word)` pair this
/// decode was made from, plus the decoded form.
#[derive(Debug, Clone, Copy)]
struct DecodeEntry {
    key: u64,
    insn: Instruction,
}

/// The simulated machine, generic over the attached [`TraceSink`].
///
/// The default sink is [`NoTrace`], whose `ENABLED = false` constant
/// compiles every event emission out of the step loop — plain
/// `Machine::new` is exactly the untraced machine. Attach a real sink
/// with [`Machine::with_sink`] to observe structured events
/// (see [`crate::trace`]).
#[derive(Debug)]
pub struct Machine<S: TraceSink = NoTrace> {
    cfg: SimConfig,
    /// The active register bank: what every register read and write
    /// touches, whichever bank that is.
    regs: [u32; 32],
    /// The inactive bank. Only a machine with
    /// [`SimConfig::second_regfile`] ever swaps it in: on exception
    /// entry (the handler's bank becomes active) and at `iret` (the
    /// program's bank comes back), see [`Machine::set_mode`].
    shadow: [u32; 32],
    hi: u32,
    lo: u32,
    hilo_ready: u64,
    c0: [u32; 16],
    pc: u32,
    mode: Mode,
    mem: MainMemory,
    icache: Cache,
    dcache: Cache,
    bpred: Bimode,
    ras: ReturnStack,
    handler_range: Option<(u32, u32)>,
    compressed_range: Option<(u32, u32)>,
    stats: Stats,
    output: Vec<u8>,
    last_load_dest: Option<Reg>,
    exited: Option<u32>,
    /// Host-side pre-decoded instruction store ([`SimConfig::decode_cache`]).
    /// Entries are validated against the fetched word, so they can never go
    /// stale; `None` when the feature is disabled.
    decode: Option<Box<[DecodeEntry]>>,
    /// Basic-block translation cache ([`SimConfig::translate`]); `None`
    /// when the feature is disabled or a trace sink is attached (traced
    /// runs must see every per-instruction event, so they single-step).
    blocks: Option<Box<BlockCache>>,
    /// How the translated loop split its work (host-side; see
    /// [`Machine::engine`]).
    engine: EngineCounters,
    sink: S,
    /// `(handler_insns, handler_cycles)` at the last exception entry, so
    /// `iret` can emit per-exception deltas. Only written when tracing.
    exc_snapshot: (u64, u64),
}

impl Machine {
    /// Creates an untraced machine with empty memory and cold caches.
    pub fn new(cfg: SimConfig) -> Machine {
        Machine::with_sink(cfg, NoTrace)
    }
}

impl<S: TraceSink> Machine<S> {
    /// Creates a machine with empty memory, cold caches, and `sink`
    /// attached for event tracing.
    pub fn with_sink(cfg: SimConfig, sink: S) -> Machine<S> {
        Machine {
            cfg,
            regs: [0; 32],
            shadow: [0; 32],
            hi: 0,
            lo: 0,
            hilo_ready: 0,
            c0: [0; 16],
            pc: 0,
            mode: Mode::Normal,
            mem: MainMemory::new(),
            icache: Cache::new(cfg.icache),
            dcache: Cache::tags_only(cfg.dcache),
            bpred: Bimode::new(cfg.bpred_entries),
            ras: ReturnStack::new(cfg.ras_depth),
            handler_range: None,
            compressed_range: None,
            stats: Stats::default(),
            output: Vec::new(),
            last_load_dest: None,
            exited: None,
            decode: cfg.decode_cache.then(|| {
                vec![
                    DecodeEntry {
                        key: u64::MAX,
                        insn: Instruction::Syscall
                    };
                    DECODE_SLOTS
                ]
                .into_boxed_slice()
            }),
            blocks: (cfg.translate && !S::ENABLED).then(|| Box::new(BlockCache::new())),
            engine: EngineCounters::default(),
            sink,
            exc_snapshot: (0, 0),
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Read access to the trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Write access to the trace sink (e.g. to flush a writer).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the machine and returns the sink (to collect or finish
    /// a trace after the run).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Read access to main memory.
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// Write access to main memory (program loading).
    pub fn mem_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Host-side counters of the translated run loop: dispatches, ops
    /// and fallback steps (all zero when the machine single-steps).
    /// Never part of [`Machine::stats`], which is identical whichever
    /// engine ran.
    pub fn engine(&self) -> EngineCounters {
        self.engine
    }

    /// Bytes written by the program via output syscalls.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (program entry).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Read access to the instruction cache (diagnostics: decompressed
    /// code exists only here, per Figure 3).
    pub fn icache(&self) -> &Cache {
        &self.icache
    }

    /// The word visible at `addr` through the fetch priority chain —
    /// handler RAM, then I-cache, then (outside the compressed region,
    /// whose bytes exist only in the cache) main memory. Returns `None`
    /// for compressed-region addresses whose line is not resident.
    ///
    /// This is the single definition of fetch-path resolution; [`Machine::fetch`]
    /// follows the same order but layers timing, stats, and the miss
    /// machinery on top, and [`Machine::insn_at`] decodes through it.
    fn resolve_word(&self, addr: u32) -> Option<u32> {
        if Self::in_range(self.handler_range, addr) {
            return Some(self.mem.read_u32(addr));
        }
        if let Some(w) = self.icache.read_word(addr) {
            return Some(w);
        }
        if Self::in_range(self.compressed_range, addr) {
            return None;
        }
        Some(self.mem.read_u32(addr))
    }

    /// Decodes the instruction currently visible at `addr` through the
    /// fetch path — handler RAM, then I-cache, then main memory — without
    /// disturbing any state. Returns `None` for undecodable words or
    /// compressed-region addresses whose line is not resident (those
    /// bytes exist nowhere yet). Useful for tracing and debuggers.
    pub fn insn_at(&self, addr: u32) -> Option<Instruction> {
        decode(self.resolve_word(addr)?).ok()
    }

    /// Read access to the data cache (diagnostics). It models tags,
    /// LRU and dirty bits only: data lives in main memory, so the cache
    /// keeps no line contents and [`Cache::read_word`] on it is `None`.
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// Switches privilege mode. With [`SimConfig::second_regfile`], a
    /// switch into or out of exception mode also switches register
    /// banks by swapping `regs` with `shadow`: the swap happens only at
    /// exception entry and `iret`, so `reg`/`set_reg` — a few times per
    /// simulated instruction — index one flat bank and never ask which
    /// bank is active. Without a second file the handler shares the
    /// program's registers and nothing is ever swapped.
    fn set_mode(&mut self, mode: Mode) {
        if self.cfg.second_regfile && mode != self.mode {
            std::mem::swap(&mut self.regs, &mut self.shadow);
        }
        self.mode = mode;
    }

    /// Reads a general-purpose register in the active bank.
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize & 31]
    }

    /// Writes a general-purpose register in the active bank
    /// (writes to `$0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize & 31] = value;
        }
    }

    /// Reads a coprocessor-0 register.
    pub fn c0(&self, r: C0Reg) -> u32 {
        self.c0[r.number() as usize]
    }

    /// Writes a coprocessor-0 register (image loaders program the
    /// decompressor base registers this way).
    pub fn set_c0(&mut self, r: C0Reg, value: u32) {
        self.c0[r.number() as usize] = value;
    }

    /// Declares the handler RAM: fetches in `[start, end)` bypass the
    /// I-cache at one cycle (the paper's "own small on-chip RAM", §4.1).
    pub fn set_handler_range(&mut self, start: u32, end: u32) {
        assert!(start < end && start.is_multiple_of(4), "bad handler range");
        self.handler_range = Some((start, end));
    }

    /// Declares the compressed code region: an I-miss in `[start, end)`
    /// raises the decompression exception instead of a hardware fill (§4.2).
    pub fn set_compressed_range(&mut self, start: u32, end: u32) {
        assert!(
            start <= end && start.is_multiple_of(4),
            "bad compressed range"
        );
        self.compressed_range = Some((start, end));
    }

    fn in_range(range: Option<(u32, u32)>, pc: u32) -> bool {
        matches!(range, Some((s, e)) if pc >= s && pc < e)
    }

    fn cycle(&mut self, n: u64) {
        self.stats.cycles += n;
        if self.mode == Mode::Exception {
            self.stats.handler_cycles += n;
        }
    }

    /// Charges `n` stall cycles to `cause`: the single place where cycle
    /// accounting, the [`crate::StallBreakdown`] bucket, and the
    /// [`TraceEvent::Stall`] emission are kept in lock-step (the folded
    /// trace reconstructs the breakdown exactly because they cannot
    /// diverge).
    fn stall(&mut self, cause: StallCause, n: u64) {
        self.cycle(n);
        self.stats.stalls.add(cause, n);
        if S::ENABLED {
            self.sink.event(&TraceEvent::Stall {
                cause,
                cycles: n,
                handler: self.mode == Mode::Exception,
            });
        }
    }

    fn fetch(&mut self, pc: u32) -> Result<Fetch, SimError> {
        if Self::in_range(self.handler_range, pc) {
            // Dedicated on-chip RAM: single-cycle, never misses.
            return Ok(Fetch::Word(self.mem.read_u32(pc)));
        }
        if self.mode == Mode::Exception {
            // The decompressor must never fetch outside its RAM, or it
            // could miss and replace itself (§4.1).
            return Err(SimError::HandlerEscaped { pc });
        }
        self.stats.ifetches += 1;
        if S::ENABLED {
            self.sink.event(&TraceEvent::Fetch { pc });
        }
        if let Some(word) = self.icache.touch_read(pc) {
            return Ok(Fetch::Word(word));
        }
        self.stats.imisses += 1;
        if Self::in_range(self.compressed_range, pc) {
            // Software-managed miss: raise the decompression exception.
            let (handler_base, _) = self
                .handler_range
                .ok_or(SimError::NoHandlerInstalled { pc })?;
            self.stats.imisses_compressed += 1;
            self.stats.exceptions += 1;
            if S::ENABLED {
                let cycle = self.stats.cycles;
                self.sink.event(&TraceEvent::FetchMiss {
                    pc,
                    cycle,
                    kind: MissKind::Compressed,
                });
                self.sink.event(&TraceEvent::ExcEntry { pc, cycle });
                self.exc_snapshot = (self.stats.handler_insns, self.stats.handler_cycles);
            }
            self.c0[C0Reg::BADVA.number() as usize] = pc;
            self.c0[C0Reg::EPC.number() as usize] = pc;
            self.set_mode(Mode::Exception);
            self.pc = handler_base;
            self.last_load_dest = None;
            let penalty = self.cfg.exception_entry_penalty;
            self.stall(StallCause::Exception, penalty);
            return Ok(Fetch::TookException);
        }
        // Hardware-managed miss: fill the line from main memory.
        self.stats.imisses_native += 1;
        let line_bytes = self.cfg.icache.line_bytes;
        let base = self.cfg.icache.line_base(pc);
        let mem = &self.mem;
        let ev = self
            .icache
            .fill_with(base, |line| mem.read_into(base, line));
        if let Some(bc) = self.blocks.as_deref_mut() {
            // The refill makes any store since the last fill observable
            // to fetch; untouched granules keep their blocks (the
            // refill restored identical bytes). The evicted line needs
            // nothing: its blocks stay byte-valid, and dispatch probes
            // residency separately.
            bc.note_fill(base, line_bytes);
        }
        if S::ENABLED {
            self.sink.event(&TraceEvent::FetchMiss {
                pc,
                cycle: self.stats.cycles,
                kind: MissKind::Native,
            });
            self.sink.event(&TraceEvent::IFill {
                base,
                cycle: self.stats.cycles,
                evicted: ev.evicted,
            });
        }
        self.stall(StallCause::IMiss, self.cfg.mem_transfer_cycles(line_bytes));
        let word = self.icache.read_word(pc).expect("just filled");
        Ok(Fetch::Word(word))
    }

    /// Decodes `word` fetched at `pc`, reusing the pre-decoded store when
    /// enabled. Slots are keyed by the full packed `(pc, word)` pair, so any
    /// change to the bytes behind an address — a `swic` write, an eviction
    /// plus refill, or native↔compressed layout differences — changes the
    /// key and forces a fresh decode; a stale entry can never be served.
    fn decode_word(&mut self, pc: u32, word: u32) -> Result<Instruction, SimError> {
        let Some(store) = self.decode.as_deref_mut() else {
            return decode(word).map_err(|_| SimError::InvalidInstruction { pc, word });
        };
        // `pc` is 4-aligned (checked in `step`), so a real key can never
        // collide with the `u64::MAX` empty-slot sentinel.
        let key = ((pc as u64) << 32) | word as u64;
        let slot = &mut store[((pc >> 2) as usize) & (DECODE_SLOTS - 1)];
        if slot.key == key {
            return Ok(slot.insn);
        }
        let insn = decode(word).map_err(|_| SimError::InvalidInstruction { pc, word })?;
        *slot = DecodeEntry { key, insn };
        Ok(insn)
    }

    /// A store landed at `addr`. Handler-RAM bytes are fetched straight
    /// from main memory, so a store there may rewrite code under any
    /// handler trace — bump the handler generation, invalidating them
    /// all at once. A store anywhere else changes memory but not the
    /// resident I-cache line the interpreter keeps fetching from, so it
    /// only becomes observable at the next refill: record the granule
    /// in the stored-to bitmap and let the fill path invalidate then.
    #[inline]
    fn note_store(&mut self, addr: u32) {
        if let Some(bc) = self.blocks.as_deref_mut() {
            if Self::in_range(self.handler_range, addr) {
                bc.hgen += 1;
            } else {
                bc.note_written(addr);
            }
        }
    }

    /// Models one D-cache access for timing (functional data lives in main
    /// memory; the D-cache tracks tags, LRU, and dirty bits). Inlined
    /// into every load and store arm: a hit is a count and an LRU touch,
    /// and the miss path stays out of line.
    #[inline(always)]
    fn daccess(&mut self, addr: u32, is_store: bool) {
        self.stats.daccesses += 1;
        let hit = if is_store {
            self.dcache.touch_dirty(addr)
        } else {
            self.dcache.touch(addr)
        };
        if S::ENABLED {
            self.sink.event(&TraceEvent::DAccess {
                addr,
                store: is_store,
                hit,
            });
        }
        if !hit {
            self.dmiss(addr, is_store);
        }
    }

    /// The D-cache miss path of [`Machine::daccess`]: fill (with a
    /// writeback if the victim was dirty), the stalls, and the fill
    /// event.
    #[cold]
    #[inline(never)]
    fn dmiss(&mut self, addr: u32, is_store: bool) {
        self.stats.dmisses += 1;
        let line_bytes = self.cfg.dcache.line_bytes;
        let base = self.cfg.dcache.line_base(addr);
        let ev = self.dcache.fill_with(base, |_| {});
        if S::ENABLED {
            self.sink.event(&TraceEvent::DFill {
                base,
                cycle: self.stats.cycles,
                evicted: ev.evicted,
                dirty: ev.dirty,
            });
        }
        if ev.dirty {
            self.stats.writebacks += 1;
            self.stall(StallCause::DMiss, self.cfg.mem_transfer_cycles(line_bytes));
        }
        self.stall(StallCause::DMiss, self.cfg.mem_transfer_cycles(line_bytes));
        if is_store {
            self.dcache.mark_dirty(addr);
        }
    }

    /// Executes one instruction (or takes one exception).
    ///
    /// # Errors
    ///
    /// Any [`SimError`]: invalid encodings, unaligned accesses, handler
    /// protocol violations, or unknown syscalls.
    pub fn step(&mut self) -> Result<Step, SimError> {
        if let Some(code) = self.exited {
            return Ok(Step::Exited(code));
        }
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return Err(SimError::UnalignedFetch { pc });
        }
        let word = match self.fetch(pc)? {
            Fetch::Word(w) => w,
            Fetch::TookException => return Ok(Step::Continue),
        };
        let insn = self.decode_word(pc, word)?;

        self.stats.insns += 1;
        self.cycle(1);
        if S::ENABLED {
            self.sink.event(&TraceEvent::Commit {
                pc,
                handler: self.mode == Mode::Exception,
            });
        }
        if self.mode == Mode::Exception {
            self.stats.handler_insns += 1;
        } else {
            self.stats.program_insns += 1;
        }

        if let Some(dest) = self.last_load_dest.take() {
            let (a, b) = insn.src_regs();
            if a == Some(dest) || b == Some(dest) {
                self.stall(StallCause::LoadUse, 1); // load-use interlock bubble
            }
        }

        self.pc = self.execute(pc, insn)?;
        Ok(match self.exited {
            Some(code) => Step::Exited(code),
            None => Step::Continue,
        })
    }

    #[inline(always)]
    fn branch(&mut self, pc: u32, taken: bool, offset: i16) -> u32 {
        self.stats.branches += 1;
        let mispredict = self.bpred.predict_update(pc, taken) != taken;
        if S::ENABLED {
            self.sink.event(&TraceEvent::Branch {
                pc,
                taken,
                mispredict,
            });
        }
        if mispredict {
            self.stats.mispredicts += 1;
            self.stall(StallCause::Branch, self.cfg.mispredict_penalty);
        }
        if taken {
            pc.wrapping_add(4).wrapping_add((offset as i32 as u32) << 2)
        } else {
            pc.wrapping_add(4)
        }
    }

    fn check_align(&self, pc: u32, addr: u32, align: u32) -> Result<(), SimError> {
        if !addr.is_multiple_of(align) {
            Err(SimError::UnalignedAccess { pc, addr })
        } else {
            Ok(())
        }
    }

    fn syscall(&mut self, pc: u32) -> Result<(), SimError> {
        let code = self.reg(Reg::V0);
        let a0 = self.reg(Reg::A0);
        match code {
            1 => {
                // print_int
                let s = (a0 as i32).to_string();
                self.output.extend_from_slice(s.as_bytes());
            }
            4 => {
                // print_str: NUL-terminated, capped defensively
                let mut addr = a0;
                for _ in 0..4096 {
                    let b = self.mem.read_u8(addr);
                    if b == 0 {
                        break;
                    }
                    self.output.push(b);
                    addr = addr.wrapping_add(1);
                }
            }
            10 => self.exited = Some(a0),
            11 => self.output.push(a0 as u8),
            other => return Err(SimError::UnknownSyscall { pc, code: other }),
        }
        Ok(())
    }

    /// Executes one decoded instruction at `pc` and returns the next
    /// PC. The caller commits it (the interpreter after every step; the
    /// block loop only for the final op — every earlier op in a block
    /// is straight-line by construction, so its next PC is statically
    /// known and the per-op `pc` store would be pure overhead).
    ///
    /// Inlined into both run loops: the call frame (argument marshaling
    /// and `Result` plumbing) is measurable at the per-instruction
    /// scale this path runs at.
    #[inline(always)]
    fn execute(&mut self, pc: u32, insn: Instruction) -> Result<u32, SimError> {
        use Instruction::*;
        let mut next = pc.wrapping_add(4);
        match insn {
            Add { rd, rs, rt } | Addu { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_add(self.reg(rt));
                self.set_reg(rd, v);
            }
            Sub { rd, rs, rt } | Subu { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_sub(self.reg(rt));
                self.set_reg(rd, v);
            }
            And { rd, rs, rt } => {
                let v = self.reg(rs) & self.reg(rt);
                self.set_reg(rd, v);
            }
            Or { rd, rs, rt } => {
                let v = self.reg(rs) | self.reg(rt);
                self.set_reg(rd, v);
            }
            Xor { rd, rs, rt } => {
                let v = self.reg(rs) ^ self.reg(rt);
                self.set_reg(rd, v);
            }
            Nor { rd, rs, rt } => {
                let v = !(self.reg(rs) | self.reg(rt));
                self.set_reg(rd, v);
            }
            Slt { rd, rs, rt } => {
                let v = ((self.reg(rs) as i32) < (self.reg(rt) as i32)) as u32;
                self.set_reg(rd, v);
            }
            Sltu { rd, rs, rt } => {
                let v = (self.reg(rs) < self.reg(rt)) as u32;
                self.set_reg(rd, v);
            }
            Sll { rd, rt, shamt } => {
                let v = self.reg(rt) << shamt;
                self.set_reg(rd, v);
            }
            Srl { rd, rt, shamt } => {
                let v = self.reg(rt) >> shamt;
                self.set_reg(rd, v);
            }
            Sra { rd, rt, shamt } => {
                let v = ((self.reg(rt) as i32) >> shamt) as u32;
                self.set_reg(rd, v);
            }
            Sllv { rd, rt, rs } => {
                let v = self.reg(rt) << (self.reg(rs) & 31);
                self.set_reg(rd, v);
            }
            Srlv { rd, rt, rs } => {
                let v = self.reg(rt) >> (self.reg(rs) & 31);
                self.set_reg(rd, v);
            }
            Srav { rd, rt, rs } => {
                let v = ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32;
                self.set_reg(rd, v);
            }
            Mult { rs, rt } => {
                let p = (self.reg(rs) as i32 as i64) * (self.reg(rt) as i32 as i64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
                self.hilo_ready = self.stats.cycles + self.cfg.mult_latency;
            }
            Multu { rs, rt } => {
                let p = (self.reg(rs) as u64) * (self.reg(rt) as u64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
                self.hilo_ready = self.stats.cycles + self.cfg.mult_latency;
            }
            Div { rs, rt } => {
                let (a, b) = (self.reg(rs) as i32, self.reg(rt) as i32);
                if b == 0 {
                    self.lo = 0;
                    self.hi = 0;
                } else {
                    self.lo = a.wrapping_div(b) as u32;
                    self.hi = a.wrapping_rem(b) as u32;
                }
                self.hilo_ready = self.stats.cycles + self.cfg.div_latency;
            }
            Divu { rs, rt } => {
                let (a, b) = (self.reg(rs), self.reg(rt));
                self.lo = a.checked_div(b).unwrap_or(0);
                self.hi = a.checked_rem(b).unwrap_or(0);
                self.hilo_ready = self.stats.cycles + self.cfg.div_latency;
            }
            Mfhi { rd } => {
                if self.stats.cycles < self.hilo_ready {
                    let wait = self.hilo_ready - self.stats.cycles;
                    self.stall(StallCause::Hilo, wait);
                }
                let v = self.hi;
                self.set_reg(rd, v);
            }
            Mflo { rd } => {
                if self.stats.cycles < self.hilo_ready {
                    let wait = self.hilo_ready - self.stats.cycles;
                    self.stall(StallCause::Hilo, wait);
                }
                let v = self.lo;
                self.set_reg(rd, v);
            }
            Mthi { rs } => self.hi = self.reg(rs),
            Mtlo { rs } => self.lo = self.reg(rs),
            Jr { rs } => {
                let target = self.reg(rs);
                self.stats.reg_jumps += 1;
                let ras_miss = self.ras.pop() != Some(target);
                if S::ENABLED {
                    self.sink.event(&TraceEvent::RegJump {
                        pc,
                        target,
                        ras_miss,
                    });
                }
                if ras_miss {
                    self.stats.reg_jump_misses += 1;
                    self.stall(StallCause::RegJump, self.cfg.mispredict_penalty);
                }
                next = target;
            }
            Jalr { rd, rs } => {
                let target = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(4));
                self.ras.push(pc.wrapping_add(4));
                self.stats.reg_jumps += 1;
                if S::ENABLED {
                    self.sink.event(&TraceEvent::RegJump {
                        pc,
                        target,
                        ras_miss: false,
                    });
                }
                // Indirect-call target resolves in EX: front-end redirect.
                self.stall(StallCause::RegJump, self.cfg.mispredict_penalty);
                next = target;
            }
            Syscall => self.syscall(pc)?,
            Break { code } => return Err(SimError::BreakExecuted { pc, code }),
            Addi { rt, rs, imm } | Addiu { rt, rs, imm } => {
                let v = self.reg(rs).wrapping_add(imm as i32 as u32);
                self.set_reg(rt, v);
            }
            Slti { rt, rs, imm } => {
                let v = ((self.reg(rs) as i32) < imm as i32) as u32;
                self.set_reg(rt, v);
            }
            Sltiu { rt, rs, imm } => {
                let v = (self.reg(rs) < imm as i32 as u32) as u32;
                self.set_reg(rt, v);
            }
            Andi { rt, rs, imm } => {
                let v = self.reg(rs) & imm as u32;
                self.set_reg(rt, v);
            }
            Ori { rt, rs, imm } => {
                let v = self.reg(rs) | imm as u32;
                self.set_reg(rt, v);
            }
            Xori { rt, rs, imm } => {
                let v = self.reg(rs) ^ imm as u32;
                self.set_reg(rt, v);
            }
            Lui { rt, imm } => self.set_reg(rt, (imm as u32) << 16),
            Lb { rt, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                self.daccess(addr, false);
                let v = self.mem.read_u8(addr) as i8 as i32 as u32;
                self.set_reg(rt, v);
                self.last_load_dest = Some(rt);
            }
            Lbu { rt, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                self.daccess(addr, false);
                let v = self.mem.read_u8(addr) as u32;
                self.set_reg(rt, v);
                self.last_load_dest = Some(rt);
            }
            Lh { rt, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                self.check_align(pc, addr, 2)?;
                self.daccess(addr, false);
                let v = self.mem.read_u16(addr) as i16 as i32 as u32;
                self.set_reg(rt, v);
                self.last_load_dest = Some(rt);
            }
            Lhu { rt, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                self.check_align(pc, addr, 2)?;
                self.daccess(addr, false);
                let v = self.mem.read_u16(addr) as u32;
                self.set_reg(rt, v);
                self.last_load_dest = Some(rt);
            }
            Lw { rt, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                self.check_align(pc, addr, 4)?;
                self.daccess(addr, false);
                let v = self.mem.read_u32(addr);
                self.set_reg(rt, v);
                self.last_load_dest = Some(rt);
            }
            Lwx { rd, base, index } => {
                let addr = self.reg(base).wrapping_add(self.reg(index));
                self.check_align(pc, addr, 4)?;
                self.daccess(addr, false);
                let v = self.mem.read_u32(addr);
                self.set_reg(rd, v);
                self.last_load_dest = Some(rd);
            }
            Lhux { rd, base, index } => {
                let addr = self.reg(base).wrapping_add(self.reg(index));
                self.check_align(pc, addr, 2)?;
                self.daccess(addr, false);
                let v = self.mem.read_u16(addr) as u32;
                self.set_reg(rd, v);
                self.last_load_dest = Some(rd);
            }
            Lbux { rd, base, index } => {
                let addr = self.reg(base).wrapping_add(self.reg(index));
                self.daccess(addr, false);
                let v = self.mem.read_u8(addr) as u32;
                self.set_reg(rd, v);
                self.last_load_dest = Some(rd);
            }
            Sb { rt, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                self.daccess(addr, true);
                let v = self.reg(rt) as u8;
                self.mem.write_u8(addr, v);
                self.note_store(addr);
            }
            Sh { rt, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                self.check_align(pc, addr, 2)?;
                self.daccess(addr, true);
                let v = self.reg(rt) as u16;
                self.mem.write_u16(addr, v);
                self.note_store(addr);
            }
            Sw { rt, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                self.check_align(pc, addr, 4)?;
                self.daccess(addr, true);
                let v = self.reg(rt);
                self.mem.write_u32(addr, v);
                self.note_store(addr);
            }
            Swic { rt, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                self.check_align(pc, addr, 4)?;
                let word = self.reg(rt);
                let ev = self.icache.write_word_alloc(addr, word);
                if let Some(bc) = self.blocks.as_deref_mut() {
                    match ev {
                        // Allocation zero-fills the whole line: every
                        // granule of it changed. (The victim line needs
                        // no bump — its blocks stay byte-valid and
                        // dispatch probes residency separately.)
                        Some(_) => {
                            let line_bytes = self.cfg.icache.line_bytes;
                            let base = self.cfg.icache.line_base(addr);
                            bc.bump_range(base, line_bytes);
                            // The line's cache-only bytes now diverge
                            // from memory: a future native refill will
                            // not restore them.
                            bc.note_written_range(base, line_bytes);
                        }
                        // In-place write: only the written granule.
                        None => {
                            bc.bump(addr);
                            bc.note_written(addr);
                        }
                    }
                }
                self.stats.swics += 1;
                if S::ENABLED {
                    self.sink.event(&TraceEvent::Swic {
                        addr,
                        pc,
                        evicted: ev.is_some_and(|e| e.evicted),
                    });
                }
                self.stall(StallCause::Swic, self.cfg.swic_penalty);
            }
            Beq { rs, rt, offset } => {
                let taken = self.reg(rs) == self.reg(rt);
                next = self.branch(pc, taken, offset);
            }
            Bne { rs, rt, offset } => {
                let taken = self.reg(rs) != self.reg(rt);
                next = self.branch(pc, taken, offset);
            }
            Blez { rs, offset } => {
                let taken = (self.reg(rs) as i32) <= 0;
                next = self.branch(pc, taken, offset);
            }
            Bgtz { rs, offset } => {
                let taken = (self.reg(rs) as i32) > 0;
                next = self.branch(pc, taken, offset);
            }
            Bltz { rs, offset } => {
                let taken = (self.reg(rs) as i32) < 0;
                next = self.branch(pc, taken, offset);
            }
            Bgez { rs, offset } => {
                let taken = (self.reg(rs) as i32) >= 0;
                next = self.branch(pc, taken, offset);
            }
            J { target } => {
                next = (pc.wrapping_add(4) & 0xf000_0000) | (target << 2);
            }
            Jal { target } => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                self.ras.push(pc.wrapping_add(4));
                next = (pc.wrapping_add(4) & 0xf000_0000) | (target << 2);
            }
            Mfc0 { rt, c0 } => {
                let v = self.c0(c0);
                self.set_reg(rt, v);
            }
            Mtc0 { rt, c0 } => {
                let v = self.reg(rt);
                self.set_c0(c0, v);
            }
            Iret => {
                if self.mode != Mode::Exception {
                    return Err(SimError::IretOutsideHandler { pc });
                }
                // Count the refill against the handler before leaving it.
                self.stall(StallCause::Exception, self.cfg.exception_return_penalty);
                self.set_mode(Mode::Normal);
                self.last_load_dest = None;
                next = self.c0(C0Reg::EPC);
                if S::ENABLED {
                    let (insns0, cycles0) = self.exc_snapshot;
                    self.sink.event(&TraceEvent::ExcExit {
                        epc: next,
                        cycle: self.stats.cycles,
                        insns: self.stats.handler_insns - insns0,
                        cycles: self.stats.handler_cycles - cycles0,
                    });
                }
            }
        }
        Ok(next)
    }

    /// Runs until exit or until `max_insns` instructions have committed.
    ///
    /// With [`SimConfig::translate`] set (and no trace sink attached),
    /// execution goes through the basic-block translation engine (see
    /// [`crate::translate`]); results and statistics are identical to
    /// the single-step interpreter either way.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from [`Machine::step`], or
    /// [`SimError::InsnLimitExceeded`] if the program does not exit in time.
    pub fn run(&mut self, max_insns: u64) -> Result<RunOutcome, SimError> {
        if self.blocks.is_some() {
            return self.run_translated(max_insns);
        }
        loop {
            match self.step()? {
                Step::Exited(code) => return Ok(RunOutcome { exit_code: code }),
                Step::Continue => {
                    if self.stats.insns >= max_insns {
                        return Err(SimError::InsnLimitExceeded { limit: max_insns });
                    }
                }
            }
        }
    }

    /// The translated run loop: execute a whole program block or
    /// handler trace per dispatch where one is valid (or can be built),
    /// single-step otherwise.
    fn run_translated(&mut self, max_insns: u64) -> Result<RunOutcome, SimError> {
        // New run: callers may have edited memory since the last run
        // (fault injection, reloaded images) without the simulator
        // observing it, so no earlier unit can be trusted — and a line
        // still resident may hold bytes its memory no longer has, which
        // its next refill must make observable like a store's.
        let bc = self
            .blocks
            .as_deref_mut()
            .expect("translated loop has blocks");
        bc.reset();
        for base in self.icache.resident_bases() {
            bc.note_written_range(base, self.cfg.icache.line_bytes);
        }
        loop {
            match self.block_step(max_insns) {
                Ok(Step::Exited(code)) => break Ok(RunOutcome { exit_code: code }),
                Ok(Step::Continue) => {
                    if self.stats.insns >= max_insns {
                        break Err(SimError::InsnLimitExceeded { limit: max_insns });
                    }
                }
                Err(e) => break Err(e),
            }
        }
    }

    /// The block cache (present whenever the translated loop runs).
    #[inline]
    fn block_cache(&mut self) -> &mut BlockCache {
        self.blocks
            .as_deref_mut()
            .expect("translated loop has blocks")
    }

    /// One translated dispatch: a handler trace in exception mode, a
    /// program block otherwise — or exactly one interpreter step when
    /// neither applies.
    fn block_step(&mut self, max_insns: u64) -> Result<Step, SimError> {
        if let Some(code) = self.exited {
            return Ok(Step::Exited(code));
        }
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return Err(SimError::UnalignedFetch { pc });
        }
        if self.mode == Mode::Exception {
            self.trace_step(pc, max_insns)
        } else {
            self.program_step(pc, max_insns)
        }
    }

    /// Single-steps once for `why`, counting the step and the
    /// instruction it committed (none when it took an exception).
    fn fallback(&mut self, why: Fallback) -> Result<Step, SimError> {
        self.engine.count_fallback(why);
        let before = self.stats.insns;
        let step = self.step();
        self.engine.fallback_insns += self.stats.insns - before;
        step
    }

    /// Dispatches the program block at `pc`: probe its slot, rebuild on
    /// miss or staleness, check the budget and the backing line's
    /// residency, then run it in place.
    fn program_step(&mut self, pc: u32, max_insns: u64) -> Result<Step, SimError> {
        let slot = BlockCache::slot_index(pc);
        let bc = self.block_cache();
        let blk = &bc.blocks[slot];
        if blk.pc != pc || blk.gen != bc.gens[BlockCache::gen_index(pc)] {
            // Everything below may write `blocks` or `seen`; the next
            // run's entry must wipe them.
            bc.touched = true;
            // Blocks build on the *second* sighting: a first-time PC is
            // noted in the `seen` side table and single-stepped. Cold
            // code (most of a large text) then never pays
            // decode-and-install for a block that would execute once —
            // which made translation a net loss on I-miss-dominated
            // benchmarks. The note lives beside the block slot, not in
            // it, so a cold PC aliasing a hot block's slot cannot
            // destroy the built block.
            if bc.seen[slot] != pc {
                bc.seen[slot] = pc;
                return self.fallback(Fallback::FirstSighting);
            }
            if !self.build_block(pc, slot) {
                return self.fallback(Fallback::NoBlock);
            }
        }
        let len = self.block_cache().blocks[slot].len;
        if self.stats.insns + len as u64 > max_insns {
            // Executing the whole block could overshoot the budget;
            // single-step so `InsnLimitExceeded` fires at the exact
            // instruction the interpreter would stop at.
            return self.fallback(Fallback::Budget);
        }
        // One LRU touch stands in for the block's N same-line touches:
        // no other I-line is referenced in between, so relative recency
        // — all LRU ever compares — is identical. A byte-valid block's
        // line may still have been evicted: the touch misses
        // (disturbing nothing), and one interpreter step performs the
        // fill — or raises the decompression exception — exactly as
        // always.
        if !self.icache.touch(pc) {
            return self.fallback(Fallback::NotResident);
        }
        // Run the block where it lies: the table is moved out for the
        // call (a pointer swap) and back after. `execute` never reads
        // or writes the block tables, so nothing can observe the gap.
        let table = std::mem::take(&mut self.block_cache().blocks);
        let step = self.exec_ops(&table[slot]);
        self.block_cache().blocks = table;
        step
    }

    /// Dispatches the handler trace entered at `pc`: look it up,
    /// rebuild it when missing or stale, check the budget, then run it
    /// in place.
    fn trace_step(&mut self, pc: u32, max_insns: u64) -> Result<Step, SimError> {
        let Some(i) = self
            .block_cache()
            .trace_at(pc)
            .or_else(|| self.build_trace(pc))
        else {
            return self.fallback(Fallback::NoBlock);
        };
        let len = self.block_cache().traces[i].len;
        if self.stats.insns + len as u64 > max_insns {
            return self.fallback(Fallback::Budget);
        }
        let traces = std::mem::take(&mut self.block_cache().traces);
        let step = self.exec_ops(&traces[i]);
        self.block_cache().traces = traces;
        step
    }

    /// Builds and installs a program block starting at `pc` into
    /// `slot` from resident I-cache words. Returns `false` when no
    /// block can be built (first word not resident, undecodable, or in
    /// handler RAM) — the caller single-steps instead.
    fn build_block(&mut self, pc: u32, slot: usize) -> bool {
        // Only resident I-cache words (residency is what a matching
        // generation re-proves at dispatch), never crossing into
        // handler RAM (those fetches take the RAM path) or out of the
        // backing line.
        let line_end = self
            .cfg
            .icache
            .line_base(pc)
            .saturating_add(self.cfg.icache.line_bytes);
        let end = granule_end(pc).min(line_end);
        let handler_range = self.handler_range;
        let icache = &self.icache;
        let mut insns = [FILLER; BLOCK_OPS];
        let built = build_block_ops(
            pc,
            end,
            |a| {
                if Self::in_range(handler_range, a) {
                    return None;
                }
                icache.read_word(a)
            },
            &mut insns,
        );
        if built.len == 0 {
            return false;
        }
        self.engine.block_builds += 1;
        let bc = self.block_cache();
        bc.blocks[slot] = Block {
            pc,
            gen: bc.gens[BlockCache::gen_index(pc)],
            len: built.len as u8,
            hilo: built.hilo,
            ends_load: built.ends_load,
            interlocks: built.interlocks as u8,
            insns,
        };
        true
    }

    /// Builds the handler trace entered at `pc` from handler RAM and
    /// returns its position, or `None` when no trace can be built (`pc`
    /// outside handler RAM, or its word undecodable) — the caller
    /// single-steps, which raises the interpreter's error.
    fn build_trace(&mut self, pc: u32) -> Option<usize> {
        let range = self.handler_range?;
        let mem = &self.mem;
        let bc = self
            .blocks
            .as_deref_mut()
            .expect("translated loop has blocks");
        // Everything below writes `traces`; the next run's entry must
        // wipe them.
        bc.touched = true;
        let gen = bc.hgen;
        if build_trace(pc, range, |a| mem.read_u32(a), gen, bc.trace_entry(pc)) == 0 {
            return None;
        }
        self.engine.trace_builds += 1;
        self.block_cache().trace_at(pc)
    }

    /// Charges the base per-instruction counters for `n` instructions
    /// of handler or program code in one go (the `BATCHED` fast path of
    /// [`Machine::exec_ops`]).
    #[inline]
    fn charge_insns(&mut self, handler: bool, n: u64) {
        self.stats.insns += n;
        self.stats.cycles += n;
        if handler {
            self.stats.handler_cycles += n;
            self.stats.handler_insns += n;
        } else {
            self.stats.ifetches += n;
            self.stats.program_insns += n;
        }
    }

    /// Reverses [`Machine::charge_insns`] for `n` instructions that a
    /// batched unit charged up front but never executed (an error or a
    /// side exit cut the unit short).
    fn uncharge_insns(&mut self, handler: bool, n: u64) {
        self.stats.insns -= n;
        self.stats.cycles -= n;
        if handler {
            self.stats.handler_cycles -= n;
            self.stats.handler_insns -= n;
        } else {
            self.stats.ifetches -= n;
            self.stats.program_insns -= n;
        }
    }

    /// Executes one valid program block or handler trace. Units without
    /// hi/lo-latency ops charge the base per-instruction counters for
    /// the whole unit up front — exact because every other stats update
    /// only adds, and an early exit uncharges the unexecuted tail. The
    /// others charge op by op so `mult`/`mfhi` observe the same
    /// intermediate `Stats::cycles` the interpreter produces.
    fn exec_ops<U: Unit>(&mut self, unit: &U) -> Result<Step, SimError> {
        if unit.hilo() {
            self.exec_unit::<U, false>(unit)
        } else {
            self.exec_unit::<U, true>(unit)
        }
    }

    /// The op loop. Per-op work mirrors `step` exactly — same
    /// statistics in the same order, the same interlock rule, the same
    /// `execute` — minus the per-op fetch resolution, set scan, and
    /// decode the unit already paid for at build time.
    fn exec_unit<U: Unit, const BATCHED: bool>(&mut self, unit: &U) -> Result<Step, SimError> {
        let len = unit.len();
        if BATCHED {
            self.charge_insns(U::HANDLER, len as u64);
        }
        // Entry op: the previous unit's trailing load is in
        // `last_load_dest`, same as the interpreter. `take` clears it;
        // later ops then rely on the build-time interlock mask instead
        // of re-deriving it per op, and only the exit paths restore the
        // "cleared unless the op was a load" invariant the interpreter
        // maintains (execute's load arms set it; everything else leaves
        // it alone here).
        if let Some(dest) = self.last_load_dest.take() {
            let (a, b) = unit.insn(0).src_regs();
            if a == Some(dest) || b == Some(dest) {
                self.stall(StallCause::LoadUse, 1);
            }
        }
        for i in 0..len {
            if !BATCHED {
                self.charge_insns(U::HANDLER, 1);
            }
            if i != 0 && unit.interlocked(i) {
                self.stall(StallCause::LoadUse, 1);
            }
            let next = match self.execute(unit.op_pc(i), unit.insn(i)) {
                Ok(next) => next,
                Err(e) => {
                    // The interpreter leaves `pc` at the faulting
                    // instruction (it commits the next PC only on
                    // success) and has cleared `last_load_dest` at that
                    // step's entry — restore both exactly.
                    self.pc = unit.op_pc(i);
                    self.last_load_dest = None;
                    return Err(self.leave_unit::<U, BATCHED, _>(i + 1, len, e));
                }
            };
            if i == len - 1 {
                // Commit only the final op's target: every earlier op's
                // next PC is the unit's next op (program blocks are
                // straight-line by construction; traces check it below).
                self.pc = next;
                break;
            }
            // A trace continues only along its own path, and only while
            // handler RAM is as it was built from: a store there may
            // have rewritten the ops ahead (handler fetches read main
            // memory, so the interpreter would fetch the new bytes).
            // Only a conditional branch can leave the path and only a
            // store can change the generation, so only those ops are
            // checked. Otherwise leave here: the interpreter commits
            // `next` — a branch or a store, never a load, so
            // `last_load_dest` is clear.
            if U::HANDLER
                && unit.checked(i)
                && (next != unit.op_pc(i + 1) || self.block_cache().hgen != unit.gen())
            {
                self.pc = next;
                self.last_load_dest = None;
                self.engine.side_exits += 1;
                return Ok(self.leave_unit::<U, BATCHED, _>(i + 1, len, Step::Continue));
            }
        }
        self.count_unit::<U>(len);
        // Unit boundary: restore the interpreter's "clear unless the
        // previous step was a load" invariant in one shot (execute's
        // load arms are the only setters on this path, so a non-load
        // final op may have left an earlier load's stale destination).
        if !unit.ends_load() {
            self.last_load_dest = None;
        }
        Ok(match self.exited {
            Some(code) => Step::Exited(code),
            None => Step::Continue,
        })
    }

    /// Leaves a unit after `done` of its `len` ops: counts the dispatch,
    /// uncharges the ops a batched unit charged but never ran, and
    /// passes `out` through.
    #[inline]
    fn leave_unit<U: Unit, const BATCHED: bool, T>(
        &mut self,
        done: usize,
        len: usize,
        out: T,
    ) -> T {
        self.count_unit::<U>(done);
        if BATCHED {
            self.uncharge_insns(U::HANDLER, (len - done) as u64);
        }
        out
    }

    /// Counts one dispatch of a unit that ran `ops` ops.
    #[inline]
    fn count_unit<U: Unit>(&mut self, ops: usize) {
        if U::HANDLER {
            self.engine.trace_dispatches += 1;
            self.engine.trace_ops += ops as u64;
        } else {
            self.engine.block_dispatches += 1;
            self.engine.block_ops += ops as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdc_isa::asm::assemble;
    use rtdc_isa::encode;

    const TEXT: u32 = 0x1000;
    const DATA: u32 = 0x1000_0000;

    fn load<S: TraceSink>(m: &mut Machine<S>, base: u32, src: &str) {
        let out = assemble(src, base, DATA).expect("test asm");
        for (i, w) in out.encoded_text().iter().enumerate() {
            m.mem_mut().write_u32(base + 4 * i as u32, *w);
        }
        for (i, b) in out.data.iter().enumerate() {
            m.mem_mut().write_u8(DATA + i as u32, *b);
        }
    }

    fn machine(src: &str) -> Machine {
        let mut m = Machine::new(SimConfig::hpca2000_baseline());
        load(&mut m, TEXT, src);
        m.set_pc(TEXT);
        m.set_reg(Reg::SP, crate::map::STACK_TOP);
        m
    }

    #[test]
    fn exit_syscall_terminates() {
        let mut m = machine("li $v0,10\nli $a0,7\nsyscall\n");
        let out = m.run(100).unwrap();
        assert_eq!(out.exit_code, 7);
        assert_eq!(m.stats().insns, 3);
    }

    #[test]
    fn arithmetic_and_memory_round_trip() {
        let mut m = machine(
            "li $t0,1234\nla $t1,buf\nsw $t0,0($t1)\nlw $t2,0($t1)\n\
             move $a0,$t2\nli $v0,1\nsyscall\nli $v0,10\nli $a0,0\nsyscall\n\
             .data\nbuf: .space 4\n",
        );
        m.run(100).unwrap();
        assert_eq!(m.output(), b"1234");
    }

    #[test]
    fn print_string_syscall() {
        let mut m = machine(
            "la $a0,msg\nli $v0,4\nsyscall\nli $v0,10\nli $a0,0\nsyscall\n\
             .data\nmsg: .byte 104,105,0\n",
        );
        m.run(100).unwrap();
        assert_eq!(m.output(), b"hi");
    }

    #[test]
    fn first_fetch_pays_line_fill() {
        let mut m = machine("li $v0,10\nli $a0,0\nsyscall\n");
        m.run(100).unwrap();
        // One I-line fill (16 cycles) + 3 base cycles.
        assert_eq!(m.stats().imisses, 1);
        assert_eq!(m.stats().cycles, 16 + 3);
    }

    #[test]
    fn dcache_miss_then_hit() {
        let mut m = machine(
            "la $t1,buf\nlw $t0,0($t1)\nlw $t2,4($t1)\nli $v0,10\nli $a0,0\nsyscall\n\
             .data\nbuf: .word 1,2,3,4\n",
        );
        m.run(100).unwrap();
        assert_eq!(m.stats().daccesses, 2);
        assert_eq!(m.stats().dmisses, 1); // both words share one 16B line
    }

    #[test]
    fn load_use_interlock_costs_one_bubble() {
        let a = {
            let mut m = machine(
                "la $t1,buf\nlw $t0,0($t1)\nadd $t2,$t0,$t0\nli $v0,10\nli $a0,0\nsyscall\n.data\nbuf: .word 9\n",
            );
            m.run(100).unwrap();
            m.stats().cycles
        };
        let b = {
            let mut m = machine(
                "la $t1,buf\nlw $t0,0($t1)\nadd $t2,$t3,$t3\nli $v0,10\nli $a0,0\nsyscall\n.data\nbuf: .word 9\n",
            );
            m.run(100).unwrap();
            m.stats().cycles
        };
        assert_eq!(a, b + 1);
    }

    #[test]
    fn loop_branch_predicted_after_warmup() {
        let mut m = machine(
            "li $t0,0\nli $t1,100\nloop: add $t0,$t0,1\nbne $t0,$t1,loop\nli $v0,10\nli $a0,0\nsyscall\n",
        );
        m.run(10_000).unwrap();
        let s = m.stats();
        assert_eq!(s.branches, 100);
        assert!(s.mispredicts <= 6, "mispredicts = {}", s.mispredicts);
    }

    #[test]
    fn ras_predicts_returns() {
        let mut m = machine("jal f\njal f\nli $v0,10\nli $a0,0\nsyscall\nf: jr $ra\n");
        m.run(100).unwrap();
        assert_eq!(m.stats().reg_jumps, 2);
        assert_eq!(m.stats().reg_jump_misses, 0);
    }

    #[test]
    fn mult_result_needs_latency() {
        let fast = {
            let mut m = machine("li $t0,6\nli $t1,7\nmult $t0,$t1\nnop\nnop\nnop\nmflo $t2\nli $v0,10\nmove $a0,$t2\nsyscall\n");
            let out = m.run(100).unwrap();
            assert_eq!(out.exit_code, 42);
            m.stats().cycles
        };
        let stalled = {
            let mut m = machine("li $t0,6\nli $t1,7\nmult $t0,$t1\nmflo $t2\nnop\nnop\nnop\nli $v0,10\nmove $a0,$t2\nsyscall\n");
            let out = m.run(100).unwrap();
            assert_eq!(out.exit_code, 42);
            m.stats().cycles
        };
        assert!(stalled > fast, "mflo right after mult must stall");
    }

    #[test]
    fn division_works_and_div_by_zero_is_zero() {
        let mut m = machine(
            "li $t0,43\nli $t1,5\ndiv $t0,$t1\nmflo $a0\nmfhi $t3\nli $v0,1\nsyscall\n\
             li $t1,0\ndiv $t0,$t1\nmflo $a0\nli $v0,1\nsyscall\nli $v0,10\nli $a0,0\nsyscall\n",
        );
        m.run(200).unwrap();
        assert_eq!(m.output(), b"80");
    }

    /// End-to-end software-managed miss: a one-line "decompressor" that
    /// materializes `li $a0,99; li $v0,10; syscall` into the I-cache.
    #[test]
    fn compressed_region_miss_invokes_handler_and_swic_code_runs() {
        let mut m = Machine::new(SimConfig::hpca2000_baseline());
        // The handler writes a fixed 8-word line at the missed address.
        // Line contents: li $a0,99 / li $v0,10 / syscall / 5x nop
        let words = [
            encode(Instruction::Addiu {
                rt: Reg::A0,
                rs: Reg::ZERO,
                imm: 99,
            }),
            encode(Instruction::Addiu {
                rt: Reg::V0,
                rs: Reg::ZERO,
                imm: 10,
            }),
            encode(Instruction::Syscall),
            0,
            0,
            0,
            0,
            0,
        ];
        // Stash the line in .data so the handler can copy it.
        for (i, w) in words.iter().enumerate() {
            m.mem_mut().write_u32(DATA + 4 * i as u32, *w);
        }
        let handler_src = "\
            mfc0 $27,c0[BADVA]\n\
            srl $27,$27,5\n\
            sll $27,$27,5\n\
            la $26,src\n\
            add $12,$27,32\n\
        copy: lw $9,0($26)\n\
            swic $9,0($27)\n\
            add $26,$26,4\n\
            add $27,$27,4\n\
            bne $27,$12,copy\n\
            iret\n\
            .data\nsrc: .space 32\n";
        let h = assemble(handler_src, crate::map::HANDLER_BASE, DATA).unwrap();
        for (i, w) in h.encoded_text().iter().enumerate() {
            m.mem_mut()
                .write_u32(crate::map::HANDLER_BASE + 4 * i as u32, *w);
        }
        m.set_handler_range(
            crate::map::HANDLER_BASE,
            crate::map::HANDLER_BASE + crate::map::HANDLER_BYTES,
        );
        m.set_compressed_range(TEXT, TEXT + 0x100);
        m.set_reg(Reg::SP, crate::map::STACK_TOP);
        m.set_pc(TEXT);

        // NOTE: handler saves no registers — fine here, nothing else runs.
        let out = m.run(1000).unwrap();
        assert_eq!(out.exit_code, 99);
        let s = m.stats();
        assert_eq!(s.exceptions, 1);
        assert_eq!(s.imisses_compressed, 1);
        assert_eq!(s.imisses_native, 0);
        assert_eq!(s.swics, 8);
        assert!(s.handler_insns > 0);
        // The three program instructions committed outside the handler.
        assert_eq!(s.program_insns, 3);
    }

    #[test]
    fn second_regfile_isolates_handler_registers() {
        let cfg = SimConfig::hpca2000_baseline().with_second_regfile(true);
        let mut m = Machine::new(cfg);
        m.set_reg(Reg::T0, 1111); // program bank
        assert_eq!(m.reg(Reg::T0), 1111);
        // Flip into exception mode manually and check banking.
        m.set_mode(Mode::Exception);
        assert_eq!(m.reg(Reg::T0), 0);
        m.set_reg(Reg::T0, 2222);
        m.set_mode(Mode::Normal);
        assert_eq!(m.reg(Reg::T0), 1111);
        // The handler bank keeps its value across leaving and
        // re-entering exception mode, and re-setting the current mode
        // swaps nothing.
        m.set_mode(Mode::Normal);
        assert_eq!(m.reg(Reg::T0), 1111);
        m.set_mode(Mode::Exception);
        assert_eq!(m.reg(Reg::T0), 2222);
        m.set_mode(Mode::Exception);
        assert_eq!(m.reg(Reg::T0), 2222);
        // `$0` reads 0 in both banks after a write to it.
        m.set_reg(Reg::ZERO, 7);
        assert_eq!(m.reg(Reg::ZERO), 0);
        m.set_mode(Mode::Normal);
        m.set_reg(Reg::ZERO, 9);
        assert_eq!(m.reg(Reg::ZERO), 0);
        m.set_mode(Mode::Exception);
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn without_second_regfile_the_handler_shares_the_bank() {
        let mut m = Machine::new(SimConfig::hpca2000_baseline());
        m.set_reg(Reg::T0, 1111);
        m.set_mode(Mode::Exception);
        assert_eq!(m.reg(Reg::T0), 1111, "no swap on entry");
        m.set_reg(Reg::T0, 2222);
        m.set_mode(Mode::Normal);
        assert_eq!(m.reg(Reg::T0), 2222, "no swap on exit");
        assert_eq!(m.shadow, [0; 32], "the second bank is never used");
    }

    #[test]
    fn iret_outside_handler_is_an_error() {
        let mut m = machine("iret\n");
        assert!(matches!(
            m.run(10),
            Err(SimError::IretOutsideHandler { .. })
        ));
    }

    #[test]
    fn compressed_miss_without_handler_is_an_error() {
        let mut m = machine("nop\n");
        m.set_compressed_range(TEXT, TEXT + 0x100);
        assert!(matches!(
            m.run(10),
            Err(SimError::NoHandlerInstalled { .. })
        ));
    }

    #[test]
    fn runaway_program_hits_insn_limit() {
        let mut m = machine("loop: b loop\n");
        assert_eq!(m.run(50), Err(SimError::InsnLimitExceeded { limit: 50 }));
    }

    #[test]
    fn break_is_fatal() {
        let mut m = machine("break 3\n");
        assert!(matches!(
            m.run(10),
            Err(SimError::BreakExecuted { code: 3, .. })
        ));
    }

    #[test]
    fn unaligned_word_access_is_an_error() {
        let mut m = machine("li $t0,1\nlw $t1,0($t0)\n");
        assert!(matches!(m.run(10), Err(SimError::UnalignedAccess { .. })));
    }

    #[test]
    fn profiler_attributes_exec_and_misses() {
        let src = "li $v0,10\nli $a0,0\nsyscall\n";
        let profiler = crate::RegionProfiler::new(vec![(TEXT, TEXT + 12, 0)], 1);
        let mut m = Machine::with_sink(SimConfig::hpca2000_baseline(), profiler);
        load(&mut m, TEXT, src);
        m.set_pc(TEXT);
        m.run(100).unwrap();
        let p = m.into_sink();
        assert_eq!(p.exec_counts(), &[3]);
        assert_eq!(p.miss_counts(), &[1]);
    }

    #[test]
    fn zero_register_stays_zero() {
        let mut m = machine("add $0,$0,1\nmove $a0,$0\nli $v0,10\nsyscall\n");
        let out = m.run(100).unwrap();
        assert_eq!(out.exit_code, 0);
    }

    #[test]
    fn stall_accounting_is_complete() {
        // Every cycle is either an instruction's base cycle or attributed
        // to exactly one stall cause.
        let mut m = machine(
            "la $t1,buf\nli $t0,50\n\
             loop: lw $t2,0($t1)\nadd $t3,$t2,$t2\nmult $t2,$t3\nmflo $t4\n\
             sw $t4,4($t1)\nadd $t0,$t0,-1\nbgtz $t0,loop\n\
             li $v0,10\nli $a0,0\nsyscall\n.data\nbuf: .word 3,0\n",
        );
        m.run(10_000).unwrap();
        let s = m.stats();
        assert_eq!(s.insns + s.stalls.sum(), s.cycles, "{:?}", s.stalls);
        assert!(s.stalls.load_use > 0);
        assert!(s.stalls.hilo > 0);
        assert!(s.stalls.imiss > 0);
        assert!(s.stalls.dmiss > 0);
    }

    #[test]
    fn handler_escaping_its_ram_is_fatal() {
        // A handler that jumps outside the handler RAM must be caught
        // (§4.1: it could miss and replace itself).
        let mut m = Machine::new(SimConfig::hpca2000_baseline());
        let h = assemble("li $26,0x2000\njr $26\n", crate::map::HANDLER_BASE, DATA).unwrap();
        for (i, w) in h.encoded_text().iter().enumerate() {
            m.mem_mut()
                .write_u32(crate::map::HANDLER_BASE + 4 * i as u32, *w);
        }
        m.set_handler_range(
            crate::map::HANDLER_BASE,
            crate::map::HANDLER_BASE + crate::map::HANDLER_BYTES,
        );
        m.set_compressed_range(TEXT, TEXT + 0x100);
        m.set_pc(TEXT);
        assert!(matches!(
            m.run(100),
            Err(SimError::HandlerEscaped { pc: 0x2000 })
        ));
    }

    #[test]
    fn unaligned_pc_is_fatal() {
        let mut m = machine("nop\n");
        m.set_pc(TEXT + 2);
        assert!(matches!(m.run(10), Err(SimError::UnalignedFetch { .. })));
    }

    #[test]
    fn unknown_syscall_is_fatal() {
        let mut m = machine("li $v0,99\nsyscall\n");
        assert!(matches!(
            m.run(10),
            Err(SimError::UnknownSyscall { code: 99, .. })
        ));
    }

    #[test]
    fn print_int_handles_negative_values() {
        let mut m = machine("li $a0,-42\nli $v0,1\nsyscall\nli $v0,10\nli $a0,0\nsyscall\n");
        m.run(100).unwrap();
        assert_eq!(m.output(), b"-42");
    }

    #[test]
    fn dirty_lines_cost_a_writeback_on_eviction() {
        // Store to many conflicting lines: evictions of dirty lines must
        // be counted and cost extra cycles.
        let src = "\
            la $t0,buf\nli $t1,40\n\
            loop: sw $t1,0($t0)\n\
            addiu $t0,$t0,4096\n\
            addiu $t1,$t1,-1\n\
            bgtz $t1,loop\n\
            li $v0,10\nli $a0,0\nsyscall\n.data\nbuf: .space 4\n";
        let mut m = machine(src);
        m.run(1000).unwrap();
        assert!(m.stats().writebacks > 0, "stats: {:?}", m.stats());
    }

    #[test]
    fn indexed_loads_execute() {
        let mut m = machine(
            "la $t0,buf\nli $t1,4\nlw $a0,($t1+$t0)\nli $v0,10\nsyscall\n\
             .data\nbuf: .word 11,22\n",
        );
        let out = m.run(100).unwrap();
        assert_eq!(out.exit_code, 22);
    }

    #[test]
    fn cache_accessors_reflect_execution() {
        let mut m = machine("li $v0,10\nli $a0,0\nsyscall\n");
        m.run(100).unwrap();
        assert!(m.icache().valid_lines() >= 1);
        assert_eq!(m.dcache().valid_lines(), 0);
    }

    #[test]
    fn jalr_pays_indirect_redirect_and_pushes_ras() {
        let mut m = machine("la $t0,f\njalr $t0\nli $v0,10\nli $a0,0\nsyscall\nf: jr $ra\n.data\n");
        // `la f` needs the label in text: assemble resolves it since f is
        // in the same unit.
        m.run(100).unwrap();
        assert_eq!(m.stats().reg_jumps, 2); // jalr + jr
        assert_eq!(m.stats().reg_jump_misses, 0); // RAS predicted the return
    }
}
