//! Benchmark specifications: the eight paper benchmarks, their published
//! numbers (Tables 2 and 3), and the generator parameters calibrated to
//! reproduce their observable statistics.
//!
//! The paper ran SPEC CINT95 and MediaBench programs compiled with GCC
//! 2.6.3 and shortened inputs; we cannot run those binaries, so each
//! benchmark here is a *synthetic analog* calibrated on the axes that the
//! paper's results actually depend on (DESIGN.md §3): static `.text` size,
//! unique-instruction fraction, I-cache miss ratio, and loop- vs
//! call-oriented dynamic structure. Dynamic instruction counts are scaled
//! down ~25–100× (the paper itself shortened inputs for the same reason).

/// Published per-benchmark numbers (Tables 2 and 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperReference {
    /// Dynamic instructions, millions (Table 2).
    pub dynamic_insns_millions: f64,
    /// Non-speculative 16KB I-cache miss ratio (Table 2).
    pub miss_ratio_16k: f64,
    /// Native `.text` size in bytes (Table 2).
    pub original_bytes: u32,
    /// Dictionary compression ratio (Table 2).
    pub dict_ratio: f64,
    /// CodePack compression ratio (Table 2).
    pub codepack_ratio: f64,
    /// LZRW1 whole-text compression ratio (Table 2).
    pub lzrw1_ratio: f64,
    /// Slowdown, dictionary (Table 3, "D").
    pub slowdown_d: f64,
    /// Slowdown, dictionary with second register file ("D+RF").
    pub slowdown_d_rf: f64,
    /// Slowdown, CodePack ("CP").
    pub slowdown_cp: f64,
    /// Slowdown, CodePack with second register file ("CP+RF").
    pub slowdown_cp_rf: f64,
}

impl PaperReference {
    /// Unique-instruction fraction implied by Table 2
    /// (`dict_bytes = 2N + 4U  ⇒  U/N = ratio − 0.5`).
    pub fn unique_fraction(&self) -> f64 {
        self.dict_ratio - 0.5
    }

    /// Native static instruction count.
    pub fn insns(&self) -> usize {
        (self.original_bytes / 4) as usize
    }
}

/// Dynamic structure of a benchmark analog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Style {
    /// Call-oriented program with a large instruction working set (cc1,
    /// go, vortex analogs): the driver calls Zipf-sampled procedures whose
    /// bodies re-execute `body_loops` times, so the steady-state miss
    /// ratio lands near `1 / (8 × body_loops)`.
    Walker {
        /// Total procedure calls the driver makes.
        calls: usize,
        /// Whole-body repeat count per call.
        body_loops: u32,
        /// Zipf exponent of the call-target distribution.
        zipf_s: f64,
    },
    /// Loop-oriented program (mpeg2enc, pegwit, ijpeg, ghostscript
    /// analogs): a small kernel set executes almost all instructions from
    /// the cache; a startup walk plus periodic cold-procedure excursions
    /// produce the (rare) misses that miss-based selection targets.
    LoopKernel {
        /// Number of hot kernel procedures.
        kernels: usize,
        /// Main-loop iterations.
        iterations: u32,
        /// An excursion fires every `2^excursion_shift` iterations.
        excursion_shift: u32,
        /// Fraction of cold procedures walked once at startup.
        init_fraction: f64,
    },
    /// Bytecode-interpreter program (perl analog): the driver dispatches
    /// through a procedure-address table with `jalr`, driven by a
    /// Zipf-distributed bytecode stream.
    Interpreter {
        /// Bytecode stream length.
        program_len: usize,
        /// Passes over the stream.
        passes: u32,
        /// Whole-body repeat count per handler invocation.
        body_loops: u32,
        /// Zipf exponent of the opcode distribution.
        zipf_s: f64,
    },
}

/// A complete benchmark description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name (the paper's).
    pub name: &'static str,
    /// Generator seed (fixed; the suite is deterministic).
    pub seed: u64,
    /// Filler vocabulary size: the one fitted parameter. The first
    /// `vocab_size` words of the master vocabulary for the spec's
    /// [`filler_target`](crate::filler_target), as found offline by
    /// [`calibrate_vocab_size`](crate::idioms::calibrate_vocab_size).
    pub vocab_size: usize,
    /// Number of procedures.
    pub procs: usize,
    /// Dynamic structure.
    pub style: Style,
    /// Published reference numbers.
    pub paper: PaperReference,
}

/// The eight benchmarks of the paper's evaluation.
pub fn all_benchmarks() -> Vec<BenchmarkSpec> {
    vec![
        cc1(),
        ghostscript(),
        go(),
        ijpeg(),
        mpeg2enc(),
        pegwit(),
        perl(),
        vortex(),
    ]
}

/// Looks up a benchmark by name.
pub fn by_name(name: &str) -> Option<BenchmarkSpec> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

/// cc1 (GCC) analog: the largest, most miss-heavy walker.
pub fn cc1() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "cc1",
        seed: 0xcc1,
        vocab_size: 617_012,
        procs: 1400,
        style: Style::Walker {
            calls: 1560,
            body_loops: 5,
            zipf_s: 0.5,
        },
        paper: PaperReference {
            dynamic_insns_millions: 121.0,
            miss_ratio_16k: 0.0293,
            original_bytes: 1_083_168,
            dict_ratio: 0.654,
            codepack_ratio: 0.605,
            lzrw1_ratio: 0.604,
            slowdown_d: 2.99,
            slowdown_d_rf: 2.19,
            slowdown_cp: 17.88,
            slowdown_cp_rf: 16.91,
        },
    }
}

/// ghostscript analog: huge text, tiny steady-state miss ratio.
pub fn ghostscript() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "ghostscript",
        seed: 0x6405,
        vocab_size: 896_484,
        procs: 1550,
        style: Style::LoopKernel {
            kernels: 12,
            iterations: 1850,
            excursion_shift: 5,
            init_fraction: 0.02,
        },
        paper: PaperReference {
            dynamic_insns_millions: 155.0,
            miss_ratio_16k: 0.0004,
            original_bytes: 1_099_136,
            dict_ratio: 0.694,
            codepack_ratio: 0.627,
            lzrw1_ratio: 0.616,
            slowdown_d: 1.30,
            slowdown_d_rf: 1.18,
            slowdown_cp: 3.46,
            slowdown_cp_rf: 3.32,
        },
    }
}

/// go analog: mid-size walker.
pub fn go() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "go",
        seed: 0x60,
        vocab_size: 304_839,
        procs: 450,
        style: Style::Walker {
            calls: 1250,
            body_loops: 6,
            zipf_s: 0.5,
        },
        paper: PaperReference {
            dynamic_insns_millions: 133.0,
            miss_ratio_16k: 0.0205,
            original_bytes: 310_576,
            dict_ratio: 0.696,
            codepack_ratio: 0.589,
            lzrw1_ratio: 0.639,
            slowdown_d: 2.52,
            slowdown_d_rf: 1.91,
            slowdown_cp: 11.14,
            slowdown_cp_rf: 10.56,
        },
    }
}

/// ijpeg analog: loop kernels with moderate excursion rate.
pub fn ijpeg() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "ijpeg",
        seed: 0x13e6,
        vocab_size: 364_235,
        procs: 285,
        style: Style::LoopKernel {
            kernels: 8,
            iterations: 2780,
            excursion_shift: 5,
            init_fraction: 0.10,
        },
        paper: PaperReference {
            dynamic_insns_millions: 124.0,
            miss_ratio_16k: 0.0007,
            original_bytes: 198_272,
            dict_ratio: 0.772,
            codepack_ratio: 0.597,
            lzrw1_ratio: 0.615,
            slowdown_d: 1.06,
            slowdown_d_rf: 1.03,
            slowdown_cp: 1.42,
            slowdown_cp_rf: 1.40,
        },
    }
}

/// mpeg2enc analog: tight loops, nearly zero misses.
pub fn mpeg2enc() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "mpeg2enc",
        seed: 0x9e62,
        vocab_size: 250_282,
        procs: 170,
        style: Style::LoopKernel {
            kernels: 6,
            iterations: 5500,
            excursion_shift: 7,
            init_fraction: 0.05,
        },
        paper: PaperReference {
            dynamic_insns_millions: 137.0,
            miss_ratio_16k: 0.0001,
            original_bytes: 118_416,
            dict_ratio: 0.823,
            codepack_ratio: 0.632,
            lzrw1_ratio: 0.602,
            slowdown_d: 1.01,
            slowdown_d_rf: 1.00,
            slowdown_cp: 1.05,
            slowdown_cp_rf: 1.04,
        },
    }
}

/// pegwit analog: the smallest benchmark, loop-oriented.
pub fn pegwit() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "pegwit",
        seed: 0x9e64,
        vocab_size: 155_709,
        procs: 130,
        style: Style::LoopKernel {
            kernels: 5,
            iterations: 5500,
            excursion_shift: 7,
            init_fraction: 0.05,
        },
        paper: PaperReference {
            dynamic_insns_millions: 115.0,
            miss_ratio_16k: 0.0001,
            original_bytes: 88_400,
            dict_ratio: 0.793,
            codepack_ratio: 0.614,
            lzrw1_ratio: 0.562,
            slowdown_d: 1.01,
            slowdown_d_rf: 1.01,
            slowdown_cp: 1.11,
            slowdown_cp_rf: 1.10,
        },
    }
}

/// perl analog: bytecode interpreter dispatching through an address table.
pub fn perl() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "perl",
        seed: 0x9e71,
        vocab_size: 429_770,
        procs: 390,
        style: Style::Interpreter {
            program_len: 450,
            passes: 2,
            body_loops: 7,
            zipf_s: 0.8,
        },
        paper: PaperReference {
            dynamic_insns_millions: 109.0,
            miss_ratio_16k: 0.0162,
            original_bytes: 267_568,
            dict_ratio: 0.737,
            codepack_ratio: 0.606,
            lzrw1_ratio: 0.602,
            slowdown_d: 2.15,
            slowdown_d_rf: 1.64,
            slowdown_cp: 11.64,
            slowdown_cp_rf: 11.02,
        },
    }
}

/// vortex analog: large database-ish walker.
pub fn vortex() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "vortex",
        seed: 0x0eb7,
        vocab_size: 291_727,
        procs: 700,
        style: Style::Walker {
            calls: 1500,
            body_loops: 6,
            zipf_s: 0.5,
        },
        paper: PaperReference {
            dynamic_insns_millions: 154.0,
            miss_ratio_16k: 0.0205,
            original_bytes: 495_248,
            dict_ratio: 0.658,
            codepack_ratio: 0.555,
            lzrw1_ratio: 0.555,
            slowdown_d: 2.39,
            slowdown_d_rf: 1.80,
            slowdown_cp: 12.00,
            slowdown_cp_rf: 11.36,
        },
    }
}

/// Test/demo-scale specs: the same machinery at ~1% scale, so debug-mode
/// integration tests finish quickly. Not part of the paper's suite.
pub mod tiny {
    use super::*;

    fn paper_like(original_bytes: u32, dict_ratio: f64, miss: f64) -> PaperReference {
        PaperReference {
            dynamic_insns_millions: 0.1,
            miss_ratio_16k: miss,
            original_bytes,
            dict_ratio,
            codepack_ratio: dict_ratio - 0.05,
            lzrw1_ratio: dict_ratio - 0.05,
            slowdown_d: 1.5,
            slowdown_d_rf: 1.3,
            slowdown_cp: 5.0,
            slowdown_cp_rf: 4.8,
        }
    }

    /// A miniature walker (~12K insns static, ~150K dynamic).
    pub fn walker() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "tiny-walker",
            seed: 0x7e57_0001,
            vocab_size: 2_920,
            procs: 80,
            style: Style::Walker {
                calls: 220,
                body_loops: 4,
                zipf_s: 0.5,
            },
            paper: paper_like(48_000, 0.70, 0.03),
        }
    }

    /// A miniature loop-kernel program.
    pub fn loop_kernel() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "tiny-loop",
            seed: 0x7e57_0002,
            vocab_size: 5_426,
            procs: 60,
            style: Style::LoopKernel {
                kernels: 4,
                iterations: 250,
                excursion_shift: 4,
                init_fraction: 0.1,
            },
            paper: paper_like(40_000, 0.75, 0.001),
        }
    }

    /// A miniature interpreter.
    pub fn interpreter() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "tiny-interp",
            seed: 0x7e57_0003,
            vocab_size: 1_224,
            procs: 50,
            style: Style::Interpreter {
                program_len: 120,
                passes: 2,
                body_loops: 4,
                zipf_s: 0.8,
            },
            paper: paper_like(36_000, 0.72, 0.02),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_benchmarks_with_unique_names() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 8);
        let names: std::collections::HashSet<_> = all.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn by_name_round_trips() {
        for spec in all_benchmarks() {
            assert_eq!(by_name(spec.name).unwrap().name, spec.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn unique_fractions_match_table2_arithmetic() {
        // cc1: 707,904 = 2·270,792 + 4·U  ⇒  U = 41,634, U/N = 0.1537…
        let p = cc1().paper;
        assert!((p.unique_fraction() - 0.154).abs() < 0.001);
        assert_eq!(p.insns(), 270_792);
    }

    #[test]
    fn pinned_vocab_sizes_match_calibration() {
        let mut specs = all_benchmarks();
        specs.extend([tiny::walker(), tiny::loop_kernel(), tiny::interpreter()]);
        let recomputed: Vec<(&str, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|s| {
                    scope.spawn(move || {
                        let target = crate::filler_target(s);
                        (s.name, crate::idioms::calibrate_vocab_size(s.seed, target))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration panicked"))
                .collect()
        });
        let pinned: Vec<(&str, usize)> = specs.iter().map(|s| (s.name, s.vocab_size)).collect();
        assert_eq!(pinned, recomputed);
    }

    #[test]
    fn paper_orderings_hold() {
        for b in all_benchmarks() {
            let p = b.paper;
            // CodePack always compresses better than dictionary (Table 2).
            assert!(p.codepack_ratio < p.dict_ratio, "{}", b.name);
            // +RF never hurts (Table 3).
            assert!(p.slowdown_d_rf <= p.slowdown_d, "{}", b.name);
            assert!(p.slowdown_cp_rf <= p.slowdown_cp, "{}", b.name);
            // CodePack is always slower than dictionary (Table 3).
            assert!(p.slowdown_cp >= p.slowdown_d, "{}", b.name);
        }
    }
}
