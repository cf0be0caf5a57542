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
//! * **handler traces** — a trace is recorded along the path the
//!   handler took the first time it ran from its entry PC, and must
//!   leave it at exactly the op the interpreter would: a branch going
//!   the other way (both directions, forward and backward), a `jr`
//!   returning somewhere else, a store rewriting handler RAM ahead of
//!   the running trace, a jump out of handler RAM, and an instruction
//!   budget running out mid-trace. A recording must stop exactly where
//!   the interpreter would too: at the budget, and (installing nothing)
//!   at a store into handler RAM. A seeded generator of small branchy
//!   handlers drives all of these at once.

use rtdc_isa::program::ObjectProgram;
use rtdc_isa::{encode, Instruction, Reg};
use rtdc_repro::core::fault::FaultPlan;
use rtdc_repro::core::prelude::*;
use rtdc_repro::sim::{map, EngineCounters, Machine, SimError, Stats};
use rtdc_repro::workloads::{generate, programs, spec::tiny};
use rtdc_rng::{fuzz, Rng64};

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
/// single-step engines. A memory-stage fault's corrupted code runs as
/// blocks and traces only under `run_image`, so that is the pair
/// compared; `run_image_verified` single-steps whatever the config
/// says, and its one classification per fault is the fill-CRC check.
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
            let case = format!(
                "{scheme:?} fault seed {} (memory_stage={memory_stage})",
                1000 + i
            );
            let on = classify(run_image(&img, cfg.with_translation(true), budget));
            let off = classify(run_image(&img, cfg.with_translation(false), budget));
            assert_eq!(on, off, "{case}: engines disagree");
            let verified = classify(run_image_verified(&img, cfg, budget));
            assert_eq!(
                verified == Outcome::Load,
                !memory_stage,
                "{case}: load verification"
            );
            if let Outcome::Done { .. } = verified {
                assert_eq!(verified, off, "{case}: passing fill checks changed the run");
            }
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
    // Each exception increments the immediate of the `addiu` right
    // after the store, and stores the new word by address: into scratch
    // on odd exceptions (`$s2`, the lines done so far, is even), over
    // `patch` on even ones. The address is picked without a branch, so
    // the trace recorded on an odd exception holds the store, and the
    // next exception runs that trace into handler RAM: it must leave
    // right after the store, because the op ahead was built from the
    // old word.
    let handler = handler_words(&format!(
        "
        la   $8, patch
        lw   $9, 0($8)
        addiu $9, $9, 1
        li   $10, {SCRATCH}
        andi $11, $s2, 1
        subu $11, $0, $11     # all ones on even exceptions
        xor  $12, $8, $10
        and  $12, $12, $11
        xor  $10, $10, $12    # `patch` on even exceptions, else scratch
        sw   $9, 0($10)
patch:
        addiu $s1, $s1, 1
{HANDLER_CASE_FILL}"
    ));
    let (end, engine) = assert_handler_case_identical(&handler, MAX_INSNS, "self-patching");
    // Exception k adds 1 + k / 2 (stale words would add k / 2 on even
    // exceptions): 16 + (0 + 1 + 1 + … + 7 + 7 + 8).
    assert_eq!(end.result, Ok(80), "patched words ran");
    // Odd exceptions record the whole handler (59 ops, the store into
    // scratch included); even ones run that trace, side-exit right
    // after its store, and record the rest from `patch`. From the third
    // exception on, each dispatch finds its trace stale.
    let lines = u64::from(HANDLER_CASE_LINES);
    assert_eq!(engine.side_exits, lines / 2, "{engine:?}");
    assert_eq!(engine.trace_builds, lines, "{engine:?}");
    assert_eq!(engine.invalidations, lines - 2, "{engine:?}");
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

/// A handler whose first exception takes the rare direction of a
/// branch (`$s1` is 0 only then): the entry trace is recorded along the
/// rare path, and every later exception side-exits at that branch into
/// a trace of its own.
#[test]
fn handler_first_run_takes_the_rare_direction() {
    let handler = handler_words(&format!(
        "
        bne  $s1, $0, common  # taken on every exception but the first
        addiu $s5, $s5, 100
common:
        addiu $s1, $s1, 1
{HANDLER_CASE_FILL}"
    ));
    let (end, engine) = assert_handler_case_identical(&handler, MAX_INSNS, "rare first");
    assert_eq!(end.result, Ok(HANDLER_CASE_LINES));
    assert_eq!(end.regs[Reg::S5.number() as usize], 100);
    assert_eq!(engine.side_exits, 15, "{engine:?}");
    assert_eq!(engine.trace_builds, 2, "the rare path and the common one");
}

/// A leaf called from two sites, with a branch inside it: the trace
/// entered at the branch's target (after a side exit) holds the leaf's
/// `jr $ra` and the return the recording took, and a later call from
/// the other site reaches that `jr` with a different `$ra`, which must
/// side-exit there.
#[test]
fn handler_return_elsewhere_than_recorded_side_exits() {
    let handler = handler_words(&format!(
        "
        move $25, $31
        andi $8, $s1, 1
        beq  $8, $0, site_b   # even exceptions call from site b
        jal  leaf
        addiu $s5, $s5, 1
        j    join
site_b:
        jal  leaf
        addiu $s5, $s5, 2
join:
        addiu $s1, $s1, 1
        move $31, $25
{HANDLER_CASE_FILL}
leaf:
        andi $10, $s1, 2
        beq  $10, $0, ret     # bit 1 of $s1: 0, 0, 1, 1, 0, ...
        addiu $s6, $s6, 1
ret:
        jr   $ra
"
    ));
    let (end, engine) = assert_handler_case_identical(&handler, MAX_INSNS, "jr elsewhere");
    assert_eq!(end.result, Ok(HANDLER_CASE_LINES));
    let lines = HANDLER_CASE_LINES;
    assert_eq!(end.regs[Reg::S5.number() as usize], lines / 2 * 3);
    assert_eq!(end.regs[Reg::S6.number() as usize], lines / 2);
    assert!(engine.side_exits > 0, "{engine:?}");
}

/// Every budget that ends inside the first exception's recordings
/// stops both engines at the same instruction, and the translated one
/// has run every handler instruction so far as a recording step. The
/// first exception runs 137 handler instructions, so it records three
/// traces: two cut at the 64-op cap, then one that ends at `iret`.
#[test]
fn budget_running_out_at_every_point_of_a_recording_stops_identically() {
    let handler = handler_words(&format!(
        "
        li   $10, 30
spin:
        addiu $s6, $s6, 1
        addiu $10, $10, -1
        bgtz $10, spin
{HANDLER_CASE_FILL}"
    ));
    // Instructions the program commits before its first exception.
    let mut before = 1;
    while run_handler_case(&handler, before + 1, false)
        .0
        .stats
        .handler_insns
        == 0
    {
        before += 1;
    }
    for budget in before + 1..=before + 137 {
        let (end, engine) = assert_handler_case_identical(&handler, budget, "recording budget");
        assert_eq!(
            end.result,
            Err(SimError::InsnLimitExceeded { limit: budget })
        );
        assert_eq!(end.stats.handler_insns, budget - before);
        assert_eq!(engine.fallback_record, budget - before, "{engine:?}");
        assert_eq!(engine.trace_dispatches, 0, "{engine:?}");
    }
}

/// A store into handler RAM in the middle of a recording (here over
/// the op the recording started at, behind it) stops the recording with
/// nothing installed; odd exceptions store, even ones do not, so traces
/// are installed, invalidated and recorded again in turn.
#[test]
fn handler_store_during_a_recording_installs_nothing() {
    let handler = handler_words(&format!(
        "
entry:
        addiu $s5, $s5, 1     # the store bumps this immediate
        addiu $s1, $s1, 1
        andi $8, $s1, 1
        beq  $8, $0, nostore
        la   $10, entry
        lw   $11, 0($10)
        addiu $11, $11, 1
        sw   $11, 0($10)
        addiu $s6, $s6, 1
nostore:
{HANDLER_CASE_FILL}"
    ));
    let (end, engine) = assert_handler_case_identical(&handler, MAX_INSNS, "store mid-recording");
    assert_eq!(end.result, Ok(HANDLER_CASE_LINES));
    assert_eq!(end.regs[Reg::S6.number() as usize], HANDLER_CASE_LINES / 2);
    // Immediates 1, 2, 2, 3, 3, …, 8, 8, 9: each odd exception's store
    // takes effect from the next exception on.
    assert_eq!(end.regs[Reg::S5.number() as usize], 80);
    assert!(engine.invalidations > 0, "{engine:?}");
    assert!(engine.trace_dispatches > 0, "{engine:?}");
    // Each exception installs what it recorded without a store, and
    // nothing from the recordings the store cut.
    assert_eq!(engine.trace_builds, 16, "{engine:?}");
    assert_eq!(engine.trace_dispatches, 7, "{engine:?}");
}

/// Scratch memory the generated handlers load from and store to.
const SCRATCH: u32 = HANDLER_CASE_TEMPLATE + 0x100;

/// A seeded branchy handler: a body of random fragments — forward
/// branches and bounded backward loops on `$s1` (which changes every
/// exception), `jal`s to leaf subroutines (each with its own branch and
/// called from several sites), loads and stores into scratch memory,
/// `mult`/`mflo`, and stores that patch an immediate in handler RAM on
/// some exceptions and hit scratch on the others — then
/// [`HANDLER_CASE_FILL`], then the leaves.
fn random_handler(rng: &mut Rng64) -> String {
    let simple = |rng: &mut Rng64| -> String {
        let off = 4 * rng.gen_range(0..8u32);
        match rng.gen_range(0..6u32) {
            0 => format!("addiu $s5, $s5, {}\n", rng.gen_range(1..100u32)),
            1 => "addu $s6, $s6, $s1\nxor $s7, $s7, $s6\n".to_string(),
            2 => "sll $13, $s1, 2\naddu $s5, $s5, $13\n".to_string(),
            3 => "mult $s1, $s6\nmflo $13\naddu $s7, $s7, $13\n".to_string(),
            4 => format!("lw $11, {off}($24)\naddu $s5, $s5, $11\n"),
            _ => format!("sw $s6, {off}($24)\n"),
        }
    };
    let leaves = rng.gen_range(1..4usize);
    let mut body = format!("move $25, $31\nli $24, {SCRATCH}\naddiu $s1, $s1, 1\n");
    for k in 0..rng.gen_range(2..10usize) {
        match rng.gen_range(0..6u32) {
            0 => {
                let (op, mask) = (*rng.choose(&["beq", "bne"]), rng.gen_range(1..8u32));
                body += &format!("andi $8, $s1, {mask}\n{op} $8, $0, f{k}\n");
                for _ in 0..rng.gen_range(1..3usize) {
                    body += &simple(rng);
                }
                body += &format!("f{k}:\n");
            }
            1 => {
                body += &format!(
                    "andi $10, $s1, 3\naddiu $10, $10, 1\nl{k}:\n{}addiu $10, $10, -1\nbgtz $10, l{k}\n",
                    simple(rng)
                );
            }
            2 => body += &format!("jal leaf{}\n", rng.gen_range(0..leaves)),
            3 => {
                // Bump `p{k}`'s immediate and store the word, without a
                // branch, over `p{k}` when `$s1 & mask` is non-zero and
                // into scratch otherwise: a trace recorded on a scratch
                // store later runs the store into handler RAM.
                let mask = rng.gen_range(1..8u32);
                body += &format!(
                    "la $14, p{k}\nlw $15, 0($14)\naddiu $15, $15, 1\n\
                     andi $13, $s1, {mask}\nsltu $13, $0, $13\nsubu $13, $0, $13\n\
                     xor $12, $14, $24\nand $12, $12, $13\nxor $12, $24, $12\n\
                     sw $15, 0($12)\np{k}:\naddiu $s7, $s7, 1\n"
                );
            }
            _ => body += &simple(rng),
        }
    }
    body += "move $31, $25\n";
    body += HANDLER_CASE_FILL;
    for j in 0..leaves {
        let mask = rng.gen_range(1..8u32);
        body += &format!(
            "leaf{j}:\nandi $8, $s1, {mask}\nbeq $8, $0, r{j}\n{}r{j}:\n{}jr $ra\n",
            simple(rng),
            simple(rng)
        );
    }
    body
}

/// Generated handlers run identically on both engines, to completion
/// and under a random budget, with every instruction accounted for.
#[test]
fn generated_handlers_identical_with_translation() {
    let mut rng = Rng64::seed_from_u64(29);
    for i in 0..fuzz::iters(200) {
        let src = random_handler(&mut rng);
        let handler = handler_words(&src);
        let label = format!("iter {i}:\n{src}");
        let (full, _) = assert_handler_case_identical(&handler, MAX_INSNS, &label);
        assert_eq!(
            full.result,
            Ok(full.regs[Reg::S1.number() as usize]),
            "{label}"
        );
        let budget = rng.gen_range(1..=full.stats.insns);
        assert_handler_case_identical(&handler, budget, &label);
    }
}
