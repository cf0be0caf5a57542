//! Block-translation differential tests.
//!
//! Basic-block translated execution (`SimConfig::translate`) is a pure
//! host-side optimization: it may never change *anything* observable —
//! not the architectural results (registers, memory, output, exit code)
//! and not the simulated statistics (cycles, misses, stalls,
//! exceptions). These tests run the known-answer programs and a
//! randomized synthetic workload under native code and every
//! decompression scheme with translation on and off, asserting the full
//! [`Stats`] structs compare equal.
//!
//! The hard cases the suite is built around:
//!
//! * **`swic` churn** — a tiny I-cache forces the decompression handler
//!   to rewrite the same cache-resident PCs over and over with
//!   different procedure bodies; every rewrite must invalidate the
//!   blocks built from the overwritten bytes, and every eviction must
//!   push dispatch back to the interpreter step that re-fills the line.
//! * **self-modifying code** — an ordinary store into text changes main
//!   memory but *not* the resident I-cache line, so the new bytes
//!   become fetchable (and must invalidate blocks) only at the next
//!   refill of the granule.
//! * **injected faults** — a corrupted image must be detected, halted
//!   on, or survived *identically* whether the simulator single-steps
//!   or runs translated blocks.
//! * **harness edits between runs** — memory rewritten through
//!   `mem_mut()` behind the simulator's back must never be served from
//!   a block built in an earlier run of the same machine.

use rtdc_isa::program::ObjectProgram;
use rtdc_isa::{encode, Instruction, Reg};
use rtdc_repro::core::fault::FaultPlan;
use rtdc_repro::core::prelude::*;
use rtdc_repro::sim::{Machine, Stats};
use rtdc_repro::workloads::{generate, programs, spec::tiny};

const MAX_INSNS: u64 = 50_000_000;

/// All scheme variants a program can run under: native plus the four
/// paper configurations (D, D+RF, CP, CP+RF).
const VARIANTS: [(Option<Scheme>, bool); 5] = [
    (None, false),
    (Some(Scheme::Dictionary), false),
    (Some(Scheme::Dictionary), true),
    (Some(Scheme::CodePack), false),
    (Some(Scheme::CodePack), true),
];

/// Runs `program` under one scheme variant with translation on and off
/// and asserts architecturally identical results *and* identical
/// statistics. Returns the (shared) stats for further shape checks.
fn assert_translation_transparent(
    program: &ObjectProgram,
    scheme: Option<Scheme>,
    rf: bool,
    cfg: SimConfig,
) -> Stats {
    let image = match scheme {
        None => build_native(program).unwrap(),
        Some(s) => {
            let n = program.procedures.len();
            build_compressed(program, s, rf, &Selection::all_compressed(n)).unwrap()
        }
    };
    let on = run_image(&image, cfg.with_translation(true), MAX_INSNS).unwrap();
    let off = run_image(&image, cfg.with_translation(false), MAX_INSNS).unwrap();
    let label = format!("{}: {scheme:?} rf={rf}", program.name);
    assert_eq!(on.exit_code, off.exit_code, "{label}: exit code");
    assert_eq!(on.output, off.output, "{label}: output bytes");
    assert_eq!(on.stats, off.stats, "{label}: stats diverged");
    on.stats
}

/// Every known-answer program, every scheme, baseline 16KB I-cache.
#[test]
fn known_answer_programs_identical_with_translation() {
    let cfg = SimConfig::hpca2000_baseline();
    for program in programs::all_programs() {
        for (scheme, rf) in VARIANTS {
            let stats = assert_translation_transparent(&program, scheme, rf, cfg);
            if scheme.is_some() {
                assert!(
                    stats.exceptions > 0,
                    "{}: decompressor must run",
                    program.name
                );
            }
        }
    }
}

/// Every known-answer program again with a deliberately tiny (1KB)
/// I-cache: constant eviction means `swic` rewrites the same
/// cache-resident PCs over and over with different procedure bodies —
/// exactly the pattern a stale translated block would corrupt — and
/// every dispatch whose backing line was evicted must fall back to the
/// interpreter step that performs the refill.
#[test]
fn known_answer_programs_identical_under_swic_thrash() {
    let cfg = SimConfig::hpca2000_baseline().with_icache_size(1024);
    for program in programs::all_programs() {
        for (scheme, rf) in VARIANTS {
            let stats = assert_translation_transparent(&program, scheme, rf, cfg);
            if scheme.is_some() {
                assert!(
                    stats.exceptions > 0,
                    "{}: thrashing run must take decompression exceptions",
                    program.name
                );
            }
        }
    }
}

/// A randomized synthetic workload (the tiny walker analog: Zipf-sampled
/// procedure calls over generated filler code) under all schemes, at
/// both the baseline and a thrashing I-cache size.
#[test]
fn randomized_workload_identical_with_translation() {
    let program = generate(&tiny::walker());
    for cfg in [
        SimConfig::hpca2000_baseline(),
        SimConfig::hpca2000_baseline().with_icache_size(2048),
    ] {
        for (scheme, rf) in VARIANTS {
            assert_translation_transparent(&program, scheme, rf, cfg);
        }
    }
}

/// Self-modifying code: a loop alternately stores two different
/// encodings over one of its own instructions, then floods the (1KB)
/// I-cache with straight-line code so the patched line is evicted and
/// refilled. The store changes main memory, not the resident line, so
/// the new instruction becomes fetchable only at the refill — the
/// translated engine must invalidate the block built from the old bytes
/// at exactly that point, never earlier or later, to stay
/// cycle-identical with the interpreter.
#[test]
fn self_modifying_code_identical_with_translation() {
    const TEXT_BASE: u32 = 0x1000;
    const DATA_BASE: u32 = 0x1000_0000;
    let flood = "        addu $zero, $zero, $zero\n".repeat(300);
    let src = format!(
        "
        li   $s0, 24
        la   $s1, patch
        li   $s2, {DATA_BASE}
        lw   $s3, 0($s2)
        lw   $s4, 4($s2)
loop:
        li   $t0, 0
        jal  patchsub
        addu $s5, $s5, $t0
        jal  flood
        andi $t1, $s0, 1
        beqz $t1, even
        sw   $s3, 0($s1)
        b    next
even:
        sw   $s4, 0($s1)
next:
        addiu $s0, $s0, -1
        bnez $s0, loop
        li   $v0, 10
        li   $a0, 0
        syscall
patchsub:
patch:
        addiu $t0, $t0, 1
        jr   $ra
flood:
{flood}
        jr   $ra
"
    );
    let out = rtdc_isa::asm::assemble(&src, TEXT_BASE, DATA_BASE).expect("assembles");
    let variant_a = encode(Instruction::Addiu {
        rt: Reg::T0,
        rs: Reg::T0,
        imm: 7,
    });
    let variant_b = encode(Instruction::Addiu {
        rt: Reg::T0,
        rs: Reg::T0,
        imm: 100,
    });

    let run = |translate: bool| {
        let cfg = SimConfig::hpca2000_baseline()
            .with_icache_size(1024)
            .with_translation(translate);
        let mut m = Machine::new(cfg);
        for (i, w) in out.encoded_text().iter().enumerate() {
            m.mem_mut().write_u32(TEXT_BASE + 4 * i as u32, *w);
        }
        m.mem_mut().write_u32(DATA_BASE, variant_a);
        m.mem_mut().write_u32(DATA_BASE + 4, variant_b);
        m.set_pc(TEXT_BASE);
        let outcome = m.run(MAX_INSNS).expect("runs to exit");
        (outcome.exit_code, m.pc(), m.reg(Reg::S5), *m.stats())
    };

    let (exit_on, pc_on, sum_on, stats_on) = run(true);
    let (exit_off, pc_off, sum_off, stats_off) = run(false);
    assert_eq!(exit_on, exit_off, "exit code");
    assert_eq!(pc_on, pc_off, "final PC");
    assert_eq!(sum_on, sum_off, "accumulated sum register");
    assert_eq!(stats_on, stats_off, "stats diverged");
    // The patch must actually have been observed: with every iteration
    // running the original `addiu $t0, $t0, 1` the sum would be 24.
    assert_ne!(sum_on, 24, "stores into text were never fetched");
}

/// A harness edit between two runs of one machine: the first run builds
/// blocks for a hot leaf and stops at its instruction budget, the
/// harness rewrites the leaf through `mem_mut()` (unobserved by the
/// simulator), and a second run from the entry point must fetch the new
/// bytes exactly when the interpreter does. Each iteration calls the
/// leaf twice and floods the 1KB I-cache, so the leaf's line is refilled
/// from the edited memory and then hit by a second call, which would
/// execute a block built from the old bytes had the engine kept one:
///
/// * **flood first** — the leaf is evicted before the second run calls
///   it, so only the run-entry wipe stands between the refill and a
///   block surviving from the first run;
/// * **leaf first** — the leaf is still resident when the second run
///   starts, so the second run builds from the old resident bytes (as
///   the interpreter fetches them), and the later refill must
///   invalidate that block.
#[test]
fn harness_edit_between_runs_identical_with_translation() {
    const TEXT_BASE: u32 = 0x1000;
    const DATA_BASE: u32 = 0x1000_0000;
    const STACK_TOP: u32 = 0x7fff_f000;
    let flood = "        addu $zero, $zero, $zero\n".repeat(300);
    let calls = "        jal  leaf\n        jal  leaf\n";
    let flood_call = "        jal  flood\n";
    // (order, loop body, first-run budget, leaf resident at its end)
    for (order, body, budget, resident) in [
        ("flood first", format!("{flood_call}{calls}"), 900, false),
        ("leaf first", format!("{calls}{flood_call}"), 1_000, true),
    ] {
        let src = format!(
            "
        li   $s0, 24
        li   $t0, 0
loop:
{body}
        addiu $s0, $s0, -1
        bnez $s0, loop
        move $a0, $t0
        li   $v0, 1
        syscall
        andi $a0, $t0, 255
        li   $v0, 10
        syscall
leaf:
        addiu $t0, $t0, 1
        jr   $ra
flood:
{flood}
        jr   $ra
"
        );
        let out = rtdc_isa::asm::assemble(&src, TEXT_BASE, DATA_BASE).expect("assembles");
        let text = out.encoded_text();
        let bump = encode(Instruction::Addiu {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: 1,
        });
        let leaf = TEXT_BASE + 4 * text.iter().position(|&w| w == bump).expect("leaf") as u32;
        let edited = encode(Instruction::Addiu {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: 7,
        });

        let run = |translate: bool| {
            let cfg = SimConfig::hpca2000_baseline()
                .with_icache_size(1024)
                .with_translation(translate);
            let mut m = Machine::new(cfg);
            for (i, w) in text.iter().enumerate() {
                m.mem_mut().write_u32(TEXT_BASE + 4 * i as u32, *w);
            }
            m.set_pc(TEXT_BASE);
            m.set_reg(Reg::SP, STACK_TOP);
            // A few iterations (the leaf's block gets built), stopping
            // in a flood.
            let first = m.run(budget);
            assert!(first.is_err(), "{order}: first run stops at its budget");
            assert_eq!(m.icache().probe(leaf), resident, "{order}: leaf residency");
            m.mem_mut().write_u32(leaf, edited);
            m.set_pc(TEXT_BASE);
            m.set_reg(Reg::SP, STACK_TOP);
            let outcome = m.run(MAX_INSNS).expect("second run exits");
            (outcome.exit_code, m.output().to_vec(), *m.stats())
        };

        let (exit_on, out_on, stats_on) = run(true);
        let (exit_off, out_off, stats_off) = run(false);
        assert_eq!(exit_on, exit_off, "{order}: exit code");
        assert_eq!(out_on, out_off, "{order}: output bytes");
        assert_eq!(stats_on, stats_off, "{order}: stats diverged");
        // The edit must actually have been fetched: unedited, the second
        // run would count exactly 48.
        assert_ne!(out_on, b"48", "{order}: the edited leaf was never fetched");
    }
}

/// Where an injected fault surfaced, in comparable form.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Rejected by load-time integrity verification.
    Load,
    /// Caught by the per-line fill check at an I-cache miss.
    Miss,
    /// The corrupted code trapped on its own (typed sim error).
    Halt(String),
    /// Ran to completion (rightly or wrongly).
    Done {
        exit: u32,
        output: Vec<u8>,
        stats: Box<Stats>,
    },
}

fn classify(r: Result<rtdc_repro::core::runner::RunReport, RunError>) -> Outcome {
    match r {
        Err(RunError::CorruptImage(_)) => Outcome::Load,
        Err(RunError::CorruptFill { .. }) => Outcome::Miss,
        Err(e) => Outcome::Halt(e.to_string()),
        Ok(r) => Outcome::Done {
            exit: r.exit_code,
            output: r.output,
            stats: Box::new(r.stats),
        },
    }
}

/// Injected faults — both storage-stage (load verification sees them)
/// and memory-stage (only the `--verify-lines` fill checks or the
/// corrupted code itself can surface them) — must be detected,
/// classified, and survived identically by the translated and
/// single-step engines. This is `faultsweep`'s classification loop run
/// differentially.
#[test]
fn injected_faults_classified_identically_with_translation() {
    let program = generate(&tiny::walker());
    let cfg = SimConfig::hpca2000_baseline();
    let n = program.procedures.len();
    for scheme in Scheme::all() {
        let clean =
            build_compressed(&program, scheme, false, &Selection::all_compressed(n)).unwrap();
        let reference = run_image(&clean, cfg, MAX_INSNS).unwrap();
        let budget = reference.stats.insns * 4 + 1_000_000;
        for i in 0..10u64 {
            let plan = FaultPlan::random(1000 + i, 1, &clean);
            let mut img = clean.clone();
            plan.apply(&mut img).unwrap();
            let memory_stage = i % 2 == 1;
            if memory_stage {
                img.reseal_segments();
            }
            let on = classify(run_image_verified(&img, cfg.with_translation(true), budget));
            let off = classify(run_image_verified(
                &img,
                cfg.with_translation(false),
                budget,
            ));
            assert_eq!(
                on,
                off,
                "{scheme:?} fault seed {} (memory_stage={memory_stage}): engines disagree",
                1000 + i
            );
        }
    }
}
