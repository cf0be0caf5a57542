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
//! * **handler traces** — a trace follows the handler's static path and
//!   must leave it at exactly the op the interpreter would: a branch
//!   going the other way (both directions, forward and backward), a
//!   store rewriting handler RAM ahead of the running trace, a jump out
//!   of handler RAM, and an instruction budget running out mid-trace.

use rtdc_isa::program::ObjectProgram;
use rtdc_isa::{encode, Instruction, Reg};
use rtdc_repro::core::fault::FaultPlan;
use rtdc_repro::core::prelude::*;
use rtdc_repro::sim::{map, EngineCounters, Machine, SimError, Stats};
use rtdc_repro::workloads::{generate, programs, spec::tiny};

const MAX_INSNS: u64 = 50_000_000;

/// All scheme variants a program can run under: native, then every
/// registered codec with and without the second register file.
fn variants() -> Vec<(Option<Scheme>, bool)> {
    let compressed = Scheme::all().flat_map(|s| [(Some(s), false), (Some(s), true)]);
    std::iter::once((None, false)).chain(compressed).collect()
}

/// The translated engine's accounting: every committed instruction ran
/// in exactly one program block, handler trace or fallback step.
fn assert_engine_accounts_for(e: &EngineCounters, stats: &Stats, label: &str) {
    assert_eq!(
        e.block_ops + e.trace_ops + e.fallback_insns,
        stats.insns,
        "{label}: engine counters {e:?}"
    );
}

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
        None => ImageSpec::Native,
        Some(scheme) => ImageSpec::Uniform { scheme, rf },
    }
    .build(program)
    .unwrap();
    let on = run_image(&image, cfg.with_translation(true), MAX_INSNS).unwrap();
    let off = run_image(&image, cfg.with_translation(false), MAX_INSNS).unwrap();
    let label = format!("{}: {scheme:?} rf={rf}", program.name);
    assert_eq!(on.exit_code, off.exit_code, "{label}: exit code");
    assert_eq!(on.output, off.output, "{label}: output bytes");
    assert_eq!(on.stats, off.stats, "{label}: stats diverged");
    assert_engine_accounts_for(&on.engine, &on.stats, &label);
    assert_eq!(
        off.engine,
        EngineCounters::default(),
        "{label}: interpreter"
    );
    if scheme.is_some() {
        assert!(
            on.engine.trace_ops > 0,
            "{label}: the handler ran as traces"
        );
    }
    on.stats
}

/// Every known-answer program, every scheme, baseline 16KB I-cache.
#[test]
fn known_answer_programs_identical_with_translation() {
    let cfg = SimConfig::hpca2000_baseline();
    for program in programs::all_programs() {
        for (scheme, rf) in variants() {
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
        for (scheme, rf) in variants() {
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
        for (scheme, rf) in variants() {
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
    for scheme in Scheme::all() {
        let clean = ImageSpec::Uniform { scheme, rf: false }
            .build(&program)
            .unwrap();
        let reference = run_image(&clean, cfg, MAX_INSNS).unwrap();
        let budget = reference.stats.insns * 4 + 1_000_000;
        for i in 0..10u64 {
            let plan = FaultPlan::random(1000 + i, 1, &clean);
            let mut img = clean.clone();
            plan.apply(&mut img).unwrap();
            let memory_stage = i % 2 == 1;
            if memory_stage {
                img.seal();
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

/// Base of the compressed region the hand-written handlers serve.
const HANDLER_CASE_REGION: u32 = 0x8000;

/// Lines in that region: the program calls each once, so each call
/// misses and runs the handler.
const HANDLER_CASE_LINES: u32 = 16;

/// Where the handlers find the template line they copy into each
/// missed line: `addiu $s2,$s2,1; jr $ra`, then six `nop`s.
const HANDLER_CASE_TEMPLATE: u32 = 0x1000_0000;

/// The program: call every line of the compressed region once, then
/// exit with `$s1` (which the handlers accumulate into).
const HANDLER_CASE_PROGRAM: &str = "
        li   $s3, 0x8000
        li   $s4, 16
loop:
        jalr $s3
        addiu $s3, $s3, 32
        addiu $s4, $s4, -1
        bnez $s4, loop
        move $a0, $s1
        li   $v0, 10
        syscall
";

/// Handler tail: copy the template into the missed line with `swic`
/// (a backward loop of 8 trips) and return.
const HANDLER_CASE_FILL: &str = "
        mfc0 $27, c0[BADVA]
        srl  $27, $27, 5
        sll  $27, $27, 5
        li   $26, 0x10000000
        addiu $12, $27, 32
copy:
        lw   $9, 0($26)
        swic $9, 0($27)
        addiu $26, $26, 4
        addiu $27, $27, 4
        bne  $27, $12, copy
        iret
";

/// What one run of a hand-written handler case ended with.
#[derive(Debug, PartialEq)]
struct CaseEnd {
    result: Result<u32, SimError>,
    pc: u32,
    regs: Vec<u32>,
    stats: Stats,
}

/// Runs [`HANDLER_CASE_PROGRAM`] with `handler` (words for handler RAM)
/// under an instruction budget, single-stepped or translated.
fn run_handler_case(handler: &[u32], budget: u64, translate: bool) -> (CaseEnd, EngineCounters) {
    const TEXT: u32 = 0x1000;
    let cfg = SimConfig::hpca2000_baseline().with_translation(translate);
    let mut m = Machine::new(cfg);
    let program = rtdc_isa::asm::assemble(HANDLER_CASE_PROGRAM, TEXT, HANDLER_CASE_TEMPLATE)
        .expect("program assembles");
    for (i, w) in program.encoded_text().iter().enumerate() {
        m.mem_mut().write_u32(TEXT + 4 * i as u32, *w);
    }
    let template = [
        encode(Instruction::Addiu {
            rt: Reg::S2,
            rs: Reg::S2,
            imm: 1,
        }),
        encode(Instruction::Jr { rs: Reg::RA }),
    ];
    for (i, w) in template.iter().enumerate() {
        m.mem_mut()
            .write_u32(HANDLER_CASE_TEMPLATE + 4 * i as u32, *w);
    }
    for (i, w) in handler.iter().enumerate() {
        m.mem_mut().write_u32(map::HANDLER_BASE + 4 * i as u32, *w);
    }
    m.set_handler_range(map::HANDLER_BASE, map::HANDLER_BASE + map::HANDLER_BYTES);
    m.set_compressed_range(
        HANDLER_CASE_REGION,
        HANDLER_CASE_REGION + 32 * HANDLER_CASE_LINES,
    );
    m.set_reg(Reg::SP, map::STACK_TOP);
    m.set_pc(TEXT);
    let result = m.run(budget).map(|o| o.exit_code);
    let regs = (0..32).map(|r| m.reg(Reg::new(r))).collect();
    let end = CaseEnd {
        result,
        pc: m.pc(),
        regs,
        stats: *m.stats(),
    };
    (end, m.engine())
}

/// Assembles handler source at the handler RAM base.
fn handler_words(src: &str) -> Vec<u32> {
    rtdc_isa::asm::assemble(src, map::HANDLER_BASE, HANDLER_CASE_TEMPLATE)
        .expect("handler assembles")
        .encoded_text()
}

/// Runs a handler case on both engines, asserts they end identically,
/// and returns the (shared) end plus the translated engine's counters.
fn assert_handler_case_identical(
    handler: &[u32],
    budget: u64,
    label: &str,
) -> (CaseEnd, EngineCounters) {
    let (on, engine) = run_handler_case(handler, budget, true);
    let (off, _) = run_handler_case(handler, budget, false);
    assert_eq!(on, off, "{label} (budget {budget}): engines disagree");
    assert_engine_accounts_for(&engine, &on.stats, label);
    (on, engine)
}

/// A handler whose forward branch and backward loop change direction
/// from one exception to the next: traces follow one direction of each
/// and must side-exit on the other, at exactly the interpreter's PC.
const BRANCHY_HANDLER: &str = "
        andi $8, $s1, 1
        beq  $8, $0, even     # forward: falls through on odd $s1 only
        addiu $s5, $s5, 3
even:
        addiu $s1, $s1, 1
        andi $9, $s1, 3
        addiu $9, $9, 1       # 1..4 trips
spin:
        addiu $s6, $s6, 1
        addiu $9, $9, -1
        bgtz $9, spin         # backward: taken until the last trip
";

#[test]
fn handler_trace_side_exits_match_the_interpreter() {
    let handler = handler_words(&format!("{BRANCHY_HANDLER}{HANDLER_CASE_FILL}"));
    let (end, engine) = assert_handler_case_identical(&handler, MAX_INSNS, "branchy");
    assert_eq!(end.result, Ok(HANDLER_CASE_LINES), "one exception per line");
    assert_eq!(end.regs[Reg::S2.number() as usize], HANDLER_CASE_LINES);
    assert!(engine.side_exits > 0, "{engine:?}");
    // Every trace ends at `iret` or leaves early, never stalls at a
    // fallback: each dispatch in the handler is a trace.
    assert_eq!(engine.fallback_no_block, 0, "{engine:?}");
}

#[test]
fn handler_store_ahead_of_its_trace_is_fetched() {
    // Each exception bumps the immediate of the `addiu` right after the
    // store before running it: a trace built from the old word must
    // leave right after the store.
    let handler = handler_words(&format!(
        "
        la   $8, patch
        lw   $9, 0($8)
        addiu $9, $9, 1
        sw   $9, 0($8)
patch:
        addiu $s1, $s1, 1
{HANDLER_CASE_FILL}"
    ));
    let (end, engine) = assert_handler_case_identical(&handler, MAX_INSNS, "self-patching");
    // Exception k adds k + 1 (stale words would add k).
    let lines = HANDLER_CASE_LINES;
    assert_eq!(
        end.result,
        Ok(lines * (lines + 1) / 2 + lines),
        "patched words ran"
    );
    assert!(engine.side_exits >= 16, "{engine:?}");
    assert!(
        engine.trace_builds >= 16,
        "every store invalidates: {engine:?}"
    );
}

#[test]
fn handler_jump_out_of_its_ram_escapes_identically() {
    let handler = handler_words("addiu $s1, $s1, 1\naddiu $s1, $s1, 2\nj 0x2000\n");
    let (end, _) = assert_handler_case_identical(&handler, MAX_INSNS, "escaping");
    assert_eq!(end.result, Err(SimError::HandlerEscaped { pc: 0x2000 }));
    assert_eq!(end.regs[Reg::S1.number() as usize], 3);
}

#[test]
fn budget_running_out_inside_a_trace_stops_identically() {
    let handler = handler_words(&format!("{BRANCHY_HANDLER}{HANDLER_CASE_FILL}"));
    let (full, _) = run_handler_case(&handler, MAX_INSNS, false);
    let total = full.stats.insns;
    for budget in 1..total {
        let (end, _) = assert_handler_case_identical(&handler, budget, "budget");
        assert_eq!(
            end.result,
            Err(SimError::InsnLimitExceeded { limit: budget }),
            "budget {budget} of {total}"
        );
        assert_eq!(end.stats.insns, budget);
    }
}
