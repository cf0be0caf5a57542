//! The core of the reproduction of *"Reducing Code Size with Run-time
//! Decompression"* (Lefurgy, Piccininni, Mudge — HPCA 2000): run-time code
//! decompression via a **software-managed instruction cache**.
//!
//! Programs are stored compressed in main memory. On an I-cache miss in
//! the compressed region, an exception vectors to a small software
//! decompressor resident in on-chip RAM; it rebuilds the missed native
//! cache line and writes it into the I-cache with the `swic` instruction,
//! so the CPU is entirely unaware of compression and cached code runs at
//! native speed.
//!
//! * [`handlers`] — the decompression exception handlers in assembly
//!   (Figure 2 verbatim, plus the unrolled second-register-file variant
//!   and both CodePack handlers); they *execute on the simulated core*.
//! * [`registry`] — the scheme registry: every compression scheme's
//!   codec, handler source, and C0 ABI in one table; the builder, CLI,
//!   and harnesses are scheme-generic over it.
//! * [`image`] / [`builder`] — compressed program images in the paper's
//!   Figure 3 memory layout, for any registered scheme.
//! * [`select`] — selective compression (§3.3): execution-based and
//!   miss-based native-procedure selection.
//! * [`plan`] — the [`CompressionPlan`](plan::CompressionPlan) IR: every
//!   compressed build is a plan (native/compressed split, layout ranks,
//!   provenance), and [`builder::build_planned`] is the one layout path;
//!   [`ImageSpec`](plan::ImageSpec) names an image family (`native`,
//!   `cp+rf`, a plan) and builds it.
//! * [`runner`] — loading, running, and native profiling.
//!
//! # Example: compress, run, compare
//!
//! ```
//! use rtdc::prelude::*;
//! use rtdc_isa::program::{ObjectProgram, ObjInsn, Procedure, ProcId};
//! use rtdc_isa::{Instruction, Reg};
//!
//! // A toy program: exit(5).
//! let program = ObjectProgram {
//!     name: "toy".into(),
//!     procedures: vec![Procedure::new("main", vec![
//!         ObjInsn::Insn(Instruction::Addiu { rt: Reg::A0, rs: Reg::ZERO, imm: 5 }),
//!         ObjInsn::Insn(Instruction::Addiu { rt: Reg::V0, rs: Reg::ZERO, imm: 10 }),
//!         ObjInsn::Insn(Instruction::Syscall),
//!     ])],
//!     data: Vec::new(),
//!     entry: ProcId(0),
//!     addr_tables: Vec::new(),
//! };
//!
//! let cfg = SimConfig::hpca2000_baseline();
//! let native = build_native(&program)?;
//! let compressed = ImageSpec::Uniform { scheme: Scheme::Dictionary, rf: false }
//!     .build(&program)?;
//! let a = run_image(&native, cfg, 10_000)?;
//! let b = run_image(&compressed, cfg, 10_000)?;
//! assert_eq!(a.exit_code, b.exit_code); // identical architectural result
//! assert!(b.stats.cycles > a.stats.cycles); // decompression costs cycles
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod error;
pub mod fault;
pub mod handlers;
pub mod image;
pub mod imagefile;
pub mod integrity;
pub mod plan;
pub mod proccache;
pub mod registry;
pub mod runner;
pub mod select;

/// One-stop imports for experiments and examples.
pub mod prelude {
    pub use crate::builder::{build_native, build_planned};
    pub use crate::error::{BuildError, ImageError, RunError};
    pub use crate::fault::{Fault, FaultKind, FaultPlan};
    pub use crate::image::{MemoryImage, Scheme, SizeReport, Verified};
    pub use crate::plan::{CompressionPlan, ImageSpec, PlanError, PlanSource, ProcDecision};
    pub use crate::runner::{
        load_image, load_verified, profile_native, run_image, run_image_verified,
        run_image_with_sink, RunReport,
    };
    pub use crate::select::{placement_hot_first, ProcedureProfile, SelectBy, Selection};
    pub use rtdc_compress::codec::{Codec, CompressError};
    pub use rtdc_sim::SimConfig;
}
