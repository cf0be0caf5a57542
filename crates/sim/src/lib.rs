//! Cycle-level simulator for the paper's embedded core (Table 1): a 1-wide,
//! in-order, 5-stage pipeline with L1 caches, a bimode branch predictor, a
//! banked main-memory model — and, crucially, the **software-managed
//! instruction cache** of *"Reducing Code Size with Run-time Decompression"*
//! (HPCA 2000):
//!
//! * an I-cache miss inside a configured *compressed region* raises an
//!   exception that vectors to a decompression handler in dedicated on-chip
//!   RAM;
//! * the handler reads the miss address via `mfc0`, writes the rebuilt
//!   native cache line with `swic`, and resumes with `iret`;
//! * decompressed code exists **only in the I-cache** (Figure 3) — the
//!   cache stores real line contents, so a buggy handler produces wrong
//!   execution, not silently-correct timing.
//!
//! This plays the role SimpleScalar 3.0 (modified) played for the paper;
//! DESIGN.md §3 documents the substitution and the timing model.
//!
//! # Example
//!
//! ```
//! use rtdc_isa::{asm::assemble, Reg};
//! use rtdc_sim::{Machine, SimConfig};
//!
//! let program = assemble(
//!     "li $v0,10\n li $a0,42\n syscall\n", // exit(42)
//!     0x1000,
//!     0x1000_0000,
//! )?;
//! let mut m = Machine::new(SimConfig::hpca2000_baseline());
//! for (i, word) in program.encoded_text().iter().enumerate() {
//!     m.mem_mut().write_u32(0x1000 + 4 * i as u32, *word);
//! }
//! m.set_pc(0x1000);
//! let outcome = m.run(1_000)?;
//! assert_eq!(outcome.exit_code, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod cache;
mod config;
mod cpu;
mod error;
pub mod json;
mod mem;
mod profile;
mod stats;
pub mod trace;
mod translate;

pub use bpred::{Bimode, ReturnStack};
pub use cache::{Cache, Eviction};
pub use config::{CacheConfig, SimConfig};
pub use cpu::{Machine, Mode, RunOutcome, Step};
pub use error::SimError;
pub use mem::MainMemory;
pub use profile::RegionProfiler;
pub use stats::{StallBreakdown, Stats};
pub use trace::{JsonlTracer, NoTrace, TraceEvent, TraceFilter, TraceSink, VecSink};
pub use translate::EngineCounters;

/// Conventional memory map shared by the image builder and the workload
/// generators. Addresses are virtual; see DESIGN.md for how they relate to
/// the paper's Figure 3 layout.
pub mod map {
    /// Base of program text (native or virtual-decompressed code).
    pub const TEXT_BASE: u32 = 0x0000_1000;
    /// Base of the decompression handler's dedicated on-chip RAM.
    pub const HANDLER_BASE: u32 = 0x0ff0_0000;
    /// Size of the handler RAM (generously above the paper's 832B worst case).
    pub const HANDLER_BYTES: u32 = 0x1000;
    /// Base of the handler's scratch RAM: a small data buffer for
    /// decompressors that must materialize a whole unit before filling
    /// cache lines (e.g. the LZ chunk scheme). Like the handler RAM it
    /// models a dedicated on-chip buffer; main memory is sparse, so only
    /// codecs that use it pay for it.
    pub const SCRATCH_BASE: u32 = 0x0fe0_0000;
    /// Size of the handler scratch RAM (holds one 512-byte decode unit,
    /// with headroom).
    pub const SCRATCH_BYTES: u32 = 0x1000;
    /// Base of compressed segments (`.dictionary`, `.indices`, CodePack
    /// groups and mapping table) in main memory.
    pub const COMPRESSED_BASE: u32 = 0x0400_0000;
    /// Base of the `.data` segment (fixed so generators can hardcode
    /// data addresses; code placement never moves data).
    pub const DATA_BASE: u32 = 0x1000_0000;
    /// Initial stack pointer (stack grows down).
    pub const STACK_TOP: u32 = 0x1fff_ff00;
}
