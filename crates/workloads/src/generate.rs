//! Synthetic benchmark generation.
//!
//! Turns a [`BenchmarkSpec`] into a runnable [`ObjectProgram`] whose
//! observable statistics track the paper's Table 2 row for that benchmark:
//! static `.text` size, unique-instruction fraction (via the filler
//! idiom sampler), steady-state I-miss ratio (via the dynamic [`Style`]),
//! and a per-procedure exec/miss profile shaped like the benchmark's class
//! (walker / loop-kernel / interpreter).
//!
//! Every program computes a running checksum threaded through every call
//! (`$a0` in, `$v0` out) and prints it before exiting, so a native and a
//! compressed run can be compared for architectural equivalence — a single
//! mis-decompressed instruction changes the output.

use rtdc_isa::program::{AddrTable, ObjInsn, ObjectProgram, ProcId, Procedure};
use rtdc_isa::{Instruction as I, Reg};
use rtdc_rng::Rng64;
use rtdc_sim::map;

use crate::idioms::{CodeSampler, FillerTarget};
use crate::spec::{BenchmarkSpec, Style};
use crate::vocab::{Vocabulary, DST_POOL};
use crate::zipf::Zipf;

/// Per-procedure private data area size in bytes.
pub const DATA_SLOT_BYTES: u32 = 128;

/// Generates the program for a benchmark spec.
///
/// Deterministic: the same spec always yields the identical program.
pub fn generate(spec: &BenchmarkSpec) -> ObjectProgram {
    Generator::new(spec).build()
}

/// The filler a spec's generator emits, from its Table 2 row: the size
/// budget left after the driver, of which roughly 74% is idiom filler,
/// and the unique-word count left after the rest (memory ops, branches,
/// per-proc setup, driver, calls), whose uniques are bounded and
/// estimated here. [`BenchmarkSpec::vocab_size`] was calibrated for
/// exactly this target.
pub fn filler_target(spec: &BenchmarkSpec) -> FillerTarget {
    let target = spec.paper.insns();
    let body_budget = target.saturating_sub(Generator::driver_words_estimate(spec));
    let target_unique = spec.paper.unique_fraction() * target as f64;
    let other_unique = 3.0 * spec.procs as f64 + 1200.0;
    FillerTarget {
        emissions: (body_budget as f64 * 0.74) as usize,
        uniques: ((target_unique - other_unique).max(64.0)) as usize,
    }
}

/// Builds `li reg, value` as one or two concrete instructions.
fn emit_li(out: &mut Vec<ObjInsn>, reg: Reg, value: u32) {
    if (value as i32) >= i16::MIN as i32 && (value as i32) <= i16::MAX as i32 {
        out.push(ObjInsn::Insn(I::Addiu {
            rt: reg,
            rs: Reg::ZERO,
            imm: value as i16,
        }));
    } else {
        out.push(ObjInsn::Insn(I::Lui {
            rt: reg,
            imm: (value >> 16) as u16,
        }));
        out.push(ObjInsn::Insn(I::Ori {
            rt: reg,
            rs: reg,
            imm: (value & 0xffff) as u16,
        }));
    }
}

fn mv(dst: Reg, src: Reg) -> ObjInsn {
    ObjInsn::Insn(I::Addu {
        rd: dst,
        rs: src,
        rt: Reg::ZERO,
    })
}

struct Generator<'a> {
    spec: &'a BenchmarkSpec,
    rng: Rng64,
    sampler: CodeSampler,
    /// Maps zipf rank -> callable proc id (1-based; 0 is the driver).
    rank_to_proc: Vec<usize>,
}

impl<'a> Generator<'a> {
    fn new(spec: &'a BenchmarkSpec) -> Generator<'a> {
        let mut rng = Rng64::seed_from_u64(spec.seed);

        // --- filler sampler over the spec's pinned vocabulary size ---
        let master = Vocabulary::generate(spec.seed, filler_target(spec).master_size());
        let sampler = CodeSampler::with_vocab(spec.seed, master.prefix(spec.vocab_size));

        // Spread "hot" zipf ranks across the address space.
        let mut rank_to_proc: Vec<usize> = (1..=spec.procs).collect();
        for i in (1..rank_to_proc.len()).rev() {
            let j = rng.gen_range(0..=i);
            rank_to_proc.swap(i, j);
        }

        Generator {
            spec,
            rng,
            sampler,
            rank_to_proc,
        }
    }

    fn driver_words_estimate(spec: &BenchmarkSpec) -> usize {
        match spec.style {
            Style::Walker { calls, .. } => 10 + 3 * calls,
            Style::LoopKernel {
                kernels,
                init_fraction,
                ..
            } => {
                let n_init = ((spec.procs - kernels) as f64 * init_fraction) as usize;
                1 + 3 * n_init + 1 + (3 * kernels + 14) + 9
            }
            Style::Interpreter { .. } => 28,
        }
    }

    fn data_addr(proc: usize) -> u32 {
        map::DATA_BASE + proc as u32 * DATA_SLOT_BYTES
    }

    /// One generated procedure: data-base setup, an L-times repeated body
    /// of filler/memory/branch/multiply instructions, and a checksum fold.
    fn gen_proc(&mut self, idx: usize, body_insns: usize, loops: u32) -> Procedure {
        let body_insns = body_insns.max(8);
        let mut code: Vec<ObjInsn> = Vec::with_capacity(body_insns + 9);
        let data = Self::data_addr(idx);
        code.push(ObjInsn::Insn(I::Lui {
            rt: Reg::T9,
            imm: (data >> 16) as u16,
        }));
        code.push(ObjInsn::Insn(I::Ori {
            rt: Reg::T9,
            rs: Reg::T9,
            imm: (data & 0xffff) as u16,
        }));
        code.push(ObjInsn::Insn(I::Addiu {
            rt: Reg::T8,
            rs: Reg::ZERO,
            imm: loops.min(i16::MAX as u32) as i16,
        }));
        let loop_top = code.len();

        let mut emitted = 0usize;
        while emitted < body_insns {
            let remaining = body_insns - emitted;
            let roll = self.rng.gen_f64();
            if roll < 0.18 {
                code.push(ObjInsn::Insn(self.gen_mem_op()));
                emitted += 1;
            } else if roll < 0.22 && remaining >= 5 {
                // A data-dependent forward branch over 1..3 instructions.
                let skip = self.rng.gen_range(1..=3i16);
                let rs = DST_POOL[self.rng.gen_range(0..DST_POOL.len())];
                let rt = DST_POOL[self.rng.gen_range(0..DST_POOL.len())];
                let insn = if self.rng.gen_bool() {
                    I::Bne {
                        rs,
                        rt,
                        offset: skip,
                    }
                } else {
                    I::Beq {
                        rs,
                        rt,
                        offset: skip,
                    }
                };
                code.push(ObjInsn::Insn(insn));
                emitted += 1;
            } else if roll < 0.235 && remaining >= 3 {
                // Multiply with a dependent mflo two slots later.
                let rs = DST_POOL[self.rng.gen_range(0..DST_POOL.len())];
                let rt = DST_POOL[self.rng.gen_range(0..DST_POOL.len())];
                let rd = DST_POOL[self.rng.gen_range(0..DST_POOL.len())];
                code.push(ObjInsn::Insn(I::Mult { rs, rt }));
                code.push(ObjInsn::Insn(self.sampler.next_insn()));
                code.push(ObjInsn::Insn(I::Mflo { rd }));
                emitted += 3;
            } else {
                // Emit a whole idiom so its byte sequence stays intact
                // (recurring idioms are what LZRW1-class compressors match).
                loop {
                    code.push(ObjInsn::Insn(self.sampler.next_insn()));
                    emitted += 1;
                    if self.sampler.at_boundary() || emitted >= body_insns {
                        break;
                    }
                }
            }
        }

        // Loop back-edge.
        code.push(ObjInsn::Insn(I::Addiu {
            rt: Reg::T8,
            rs: Reg::T8,
            imm: -1,
        }));
        let pos = code.len();
        let offset = loop_top as i64 - (pos as i64 + 1);
        code.push(ObjInsn::Insn(I::Bgtz {
            rs: Reg::T8,
            offset: offset as i16,
        }));

        // Checksum fold: v0 = f(a0, scratch state).
        let tx = DST_POOL[self.rng.gen_range(0..DST_POOL.len())];
        let ty = DST_POOL[self.rng.gen_range(0..DST_POOL.len())];
        code.push(ObjInsn::Insn(I::Xor {
            rd: Reg::V0,
            rs: Reg::A0,
            rt: tx,
        }));
        code.push(ObjInsn::Insn(I::Addu {
            rd: Reg::V0,
            rs: Reg::V0,
            rt: ty,
        }));
        code.push(ObjInsn::Insn(I::Jr { rs: Reg::RA }));

        Procedure::new(format!("{}_{idx:04}", self.spec.name), code)
    }

    fn gen_mem_op(&mut self) -> I {
        let rt = DST_POOL[self.rng.gen_range(0..DST_POOL.len())];
        // Skewed toward small offsets (field accesses at the start of a
        // struct), like real code — keeps low halfwords compressible.
        let offset = match self.rng.gen_range(0..10) {
            0..=2 => 0i16,
            3..=6 => 4 * self.rng.gen_range(1..5i16),
            _ => 4 * self.rng.gen_range(0..(DATA_SLOT_BYTES / 4) as i16),
        };
        match self.rng.gen_range(0..12) {
            0..=4 => I::Lw {
                rt,
                base: Reg::T9,
                offset,
            },
            5..=7 => I::Sw {
                rt,
                base: Reg::T9,
                offset,
            },
            8..=9 => I::Lhu {
                rt,
                base: Reg::T9,
                offset,
            },
            10 => I::Lbu {
                rt,
                base: Reg::T9,
                offset,
            },
            _ => I::Sh {
                rt,
                base: Reg::T9,
                offset,
            },
        }
    }

    /// Appends the checksum-print / newline / exit sequence.
    fn epilogue(code: &mut Vec<ObjInsn>) {
        code.push(mv(Reg::A0, Reg::S1));
        code.push(ObjInsn::Insn(I::Addiu {
            rt: Reg::V0,
            rs: Reg::ZERO,
            imm: 1,
        }));
        code.push(ObjInsn::Insn(I::Syscall));
        code.push(ObjInsn::Insn(I::Addiu {
            rt: Reg::A0,
            rs: Reg::ZERO,
            imm: 10,
        }));
        code.push(ObjInsn::Insn(I::Addiu {
            rt: Reg::V0,
            rs: Reg::ZERO,
            imm: 11,
        }));
        code.push(ObjInsn::Insn(I::Syscall));
        code.push(ObjInsn::Insn(I::Andi {
            rt: Reg::A0,
            rs: Reg::S1,
            imm: 0x7f,
        }));
        code.push(ObjInsn::Insn(I::Addiu {
            rt: Reg::V0,
            rs: Reg::ZERO,
            imm: 10,
        }));
        code.push(ObjInsn::Insn(I::Syscall));
    }

    /// `move a0,s1; jal p; move s1,v0` — the standard checksum-threading
    /// call sequence.
    fn call_seq(code: &mut Vec<ObjInsn>, p: usize) {
        code.push(mv(Reg::A0, Reg::S1));
        code.push(ObjInsn::Call(ProcId(p)));
        code.push(mv(Reg::S1, Reg::V0));
    }

    fn build(mut self) -> ObjectProgram {
        let spec = *self.spec;
        let n = spec.procs;
        let driver_words = Self::driver_words_estimate(&spec);
        let body_budget = spec.paper.insns().saturating_sub(driver_words);
        // Mean *total* words per procedure, minus fixed overhead of 9.
        let mean_body = (body_budget / n).saturating_sub(9).max(8);

        // Per-style loop factors for procedure bodies.
        let body_loops = match spec.style {
            Style::Walker { body_loops, .. } => body_loops,
            Style::Interpreter { body_loops, .. } => body_loops,
            Style::LoopKernel { .. } => 1,
        };

        // --- procedures (ids 1..=n; 0 is the driver) ---
        let mut procedures = Vec::with_capacity(n + 1);
        procedures.push(Procedure::new("main", Vec::new())); // placeholder
        for idx in 1..=n {
            let jitter = self.rng.gen_range(0.6..1.4);
            let body = ((mean_body as f64) * jitter) as usize;
            procedures.push(self.gen_proc(idx, body, body_loops));
        }

        // --- data image: per-proc slots, then style-specific tables ---
        let mut data = Vec::with_capacity(((n + 1) as u32 * DATA_SLOT_BYTES) as usize);
        for _ in 0..((n + 1) as u32 * DATA_SLOT_BYTES / 4) {
            let w = self.rng.gen_u32();
            data.extend_from_slice(&w.to_le_bytes());
        }
        let mut addr_tables = Vec::new();

        // --- driver ---
        let mut code: Vec<ObjInsn> = Vec::with_capacity(driver_words);
        code.push(ObjInsn::Insn(I::Addiu {
            rt: Reg::S1,
            rs: Reg::ZERO,
            imm: 0,
        }));
        match spec.style {
            Style::Walker { calls, zipf_s, .. } => {
                let zipf = Zipf::new(n, zipf_s);
                for _ in 0..calls {
                    let p = self.rank_to_proc[zipf.sample(&mut self.rng)];
                    Self::call_seq(&mut code, p);
                }
                Self::epilogue(&mut code);
            }
            Style::LoopKernel {
                kernels,
                iterations,
                excursion_shift,
                init_fraction,
            } => {
                // Kernels spread evenly across the procedure list.
                // Kernels contiguous in the link order: a conflict-free hot
                // region, as real loop kernels (and the paper's near-zero
                // loop-benchmark miss ratios) require.
                let kernel_ids: Vec<usize> = (1..=kernels).collect();
                let cold: Vec<usize> = (1..=n).filter(|id| !kernel_ids.contains(id)).collect();

                // Startup walk over a sample of cold procedures.
                let n_init = ((cold.len() as f64) * init_fraction) as usize;
                for i in 0..n_init {
                    let p = cold[i * cold.len() / n_init.max(1)];
                    Self::call_seq(&mut code, p);
                }

                // Excursion table: a power-of-two sample of cold procs.
                let table_len = (cold.len().next_power_of_two() / 2).clamp(1, 1024);
                let table_procs: Vec<ProcId> = (0..table_len)
                    .map(|i| ProcId(cold[i * cold.len() / table_len]))
                    .collect();
                let table_offset = data.len();
                data.extend(std::iter::repeat_n(0u8, table_len * 4));
                addr_tables.push(AddrTable {
                    data_offset: table_offset,
                    procs: table_procs,
                });
                let table_addr = map::DATA_BASE + table_offset as u32;

                emit_li(&mut code, Reg::S0, iterations);
                let loop_top = code.len();
                for &k in &kernel_ids {
                    Self::call_seq(&mut code, k);
                }
                // Every 2^shift iterations: one cold excursion via jalr.
                let mask = (1u16 << excursion_shift) - 1;
                code.push(ObjInsn::Insn(I::Andi {
                    rt: Reg::T0,
                    rs: Reg::S0,
                    imm: mask,
                }));
                code.push(ObjInsn::Insn(I::Bne {
                    rs: Reg::T0,
                    rt: Reg::ZERO,
                    offset: 10,
                }));
                code.push(ObjInsn::Insn(I::Srl {
                    rd: Reg::T0,
                    rt: Reg::S0,
                    shamt: excursion_shift as u8,
                }));
                code.push(ObjInsn::Insn(I::Andi {
                    rt: Reg::T0,
                    rs: Reg::T0,
                    imm: (table_len - 1) as u16,
                }));
                code.push(ObjInsn::Insn(I::Sll {
                    rd: Reg::T0,
                    rt: Reg::T0,
                    shamt: 2,
                }));
                code.push(ObjInsn::Insn(I::Lui {
                    rt: Reg::T1,
                    imm: (table_addr >> 16) as u16,
                }));
                code.push(ObjInsn::Insn(I::Ori {
                    rt: Reg::T1,
                    rs: Reg::T1,
                    imm: (table_addr & 0xffff) as u16,
                }));
                code.push(ObjInsn::Insn(I::Addu {
                    rd: Reg::T1,
                    rs: Reg::T1,
                    rt: Reg::T0,
                }));
                code.push(ObjInsn::Insn(I::Lw {
                    rt: Reg::T1,
                    base: Reg::T1,
                    offset: 0,
                }));
                code.push(mv(Reg::A0, Reg::S1));
                code.push(ObjInsn::Insn(I::Jalr {
                    rd: Reg::RA,
                    rs: Reg::T1,
                }));
                code.push(mv(Reg::S1, Reg::V0));
                // Loop back-edge.
                code.push(ObjInsn::Insn(I::Addiu {
                    rt: Reg::S0,
                    rs: Reg::S0,
                    imm: -1,
                }));
                let pos = code.len();
                let offset = loop_top as i64 - (pos as i64 + 1);
                code.push(ObjInsn::Insn(I::Bgtz {
                    rs: Reg::S0,
                    offset: offset as i16,
                }));
                Self::epilogue(&mut code);
            }
            Style::Interpreter {
                program_len,
                passes,
                zipf_s,
                ..
            } => {
                // Dispatch table over every handler procedure.
                let table_offset = data.len();
                data.extend(std::iter::repeat_n(0u8, n * 4));
                addr_tables.push(AddrTable {
                    data_offset: table_offset,
                    procs: (1..=n).map(ProcId).collect(),
                });
                let table_addr = map::DATA_BASE + table_offset as u32;

                // Bytecode stream: zipf-distributed table byte-offsets.
                let zipf = Zipf::new(n, zipf_s);
                let bc_offset = data.len();
                for _ in 0..program_len {
                    let handler = self.rank_to_proc[zipf.sample(&mut self.rng)];
                    let table_index = (handler - 1) as u32;
                    data.extend_from_slice(&(table_index * 4).to_le_bytes());
                }
                let bc_addr = map::DATA_BASE + bc_offset as u32;
                let bc_end = bc_addr + (program_len as u32) * 4;

                emit_li(&mut code, Reg::S0, passes);
                let pass_top = code.len();
                emit_li(&mut code, Reg::S2, bc_addr);
                emit_li(&mut code, Reg::S3, bc_end);
                let op_top = code.len();
                code.push(ObjInsn::Insn(I::Lw {
                    rt: Reg::T0,
                    base: Reg::S2,
                    offset: 0,
                }));
                code.push(ObjInsn::Insn(I::Lui {
                    rt: Reg::T1,
                    imm: (table_addr >> 16) as u16,
                }));
                code.push(ObjInsn::Insn(I::Ori {
                    rt: Reg::T1,
                    rs: Reg::T1,
                    imm: (table_addr & 0xffff) as u16,
                }));
                code.push(ObjInsn::Insn(I::Addu {
                    rd: Reg::T1,
                    rs: Reg::T1,
                    rt: Reg::T0,
                }));
                code.push(ObjInsn::Insn(I::Lw {
                    rt: Reg::T1,
                    base: Reg::T1,
                    offset: 0,
                }));
                code.push(mv(Reg::A0, Reg::S1));
                code.push(ObjInsn::Insn(I::Jalr {
                    rd: Reg::RA,
                    rs: Reg::T1,
                }));
                code.push(mv(Reg::S1, Reg::V0));
                code.push(ObjInsn::Insn(I::Addiu {
                    rt: Reg::S2,
                    rs: Reg::S2,
                    imm: 4,
                }));
                let pos = code.len();
                let offset = op_top as i64 - (pos as i64 + 1);
                code.push(ObjInsn::Insn(I::Bne {
                    rs: Reg::S2,
                    rt: Reg::S3,
                    offset: offset as i16,
                }));
                code.push(ObjInsn::Insn(I::Addiu {
                    rt: Reg::S0,
                    rs: Reg::S0,
                    imm: -1,
                }));
                let pos = code.len();
                let offset = pass_top as i64 - (pos as i64 + 1);
                code.push(ObjInsn::Insn(I::Bgtz {
                    rs: Reg::S0,
                    offset: offset as i16,
                }));
                Self::epilogue(&mut code);
            }
        }
        procedures[0] = Procedure::new("main", code);

        ObjectProgram {
            name: spec.name.to_string(),
            procedures,
            data,
            entry: ProcId(0),
            addr_tables,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn generation_is_deterministic() {
        let s = spec::pegwit();
        let a = generate(&s);
        let b = generate(&s);
        assert_eq!(a, b);
    }

    #[test]
    fn static_size_tracks_paper_target() {
        for s in spec::all_benchmarks() {
            let p = crate::generate_cached(&s);
            let target = s.paper.insns();
            let actual = p.total_insns();
            let err = (actual as f64 - target as f64).abs() / target as f64;
            assert!(
                err < 0.06,
                "{}: target {target} insns, generated {actual} ({:.1}% off)",
                s.name,
                err * 100.0
            );
        }
    }

    #[test]
    fn loop_kernel_uses_an_excursion_table() {
        let p = generate(&spec::mpeg2enc());
        assert_eq!(p.addr_tables.len(), 1);
        assert!(!p.addr_tables[0].procs.is_empty());
    }

    #[test]
    fn interpreter_has_dispatch_table_over_all_handlers() {
        let s = spec::perl();
        let p = generate(&s);
        assert_eq!(p.addr_tables.len(), 1);
        assert_eq!(p.addr_tables[0].procs.len(), s.procs);
    }

    #[test]
    fn branch_offsets_stay_inside_procedures() {
        // Every intra-proc branch must land within the same procedure.
        for s in spec::all_benchmarks() {
            let p = crate::generate_cached(&s);
            for proc in &p.procedures {
                let len = proc.code.len() as i64;
                for (i, slot) in proc.code.iter().enumerate() {
                    if let ObjInsn::Insn(insn) = slot {
                        let off = match *insn {
                            I::Beq { offset, .. }
                            | I::Bne { offset, .. }
                            | I::Bgtz { offset, .. }
                            | I::Blez { offset, .. }
                            | I::Bltz { offset, .. }
                            | I::Bgez { offset, .. } => offset as i64,
                            _ => continue,
                        };
                        let target = i as i64 + 1 + off;
                        assert!(
                            (0..len).contains(&target),
                            "{}/{}: branch at {i} to {target} (len {len})",
                            s.name,
                            proc.name
                        );
                    }
                }
            }
        }
    }
}
