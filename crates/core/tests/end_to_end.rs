//! End-to-end tests: compressed programs must be architecturally identical
//! to their native versions under every scheme and handler variant, and the
//! handlers must match the paper's instruction-count claims.

use rtdc::prelude::*;
use rtdc_isa::asm::assemble;
use rtdc_isa::program::{AddrTable, ObjInsn, ObjectProgram, ProcId, Procedure};
use rtdc_sim::map;

/// The test program's `.data` layout, declared in every snippet that needs
/// `la` so the assembler can resolve the (fixed) data addresses.
const DATA_LAYOUT: &str = "\n.data\ntable: .space 4\nbuf: .space 64\n";

/// Assembles a procedure body (no cross-procedure calls) into object slots.
fn proc_body(src: &str) -> Vec<ObjInsn> {
    let src = format!("{src}{DATA_LAYOUT}");
    let out = assemble(&src, 0, map::DATA_BASE).expect("test proc body");
    out.text.into_iter().map(ObjInsn::Insn).collect()
}

/// A multi-procedure test program: main loops calling `mix` and `accum`,
/// `accum` walks a data buffer, the checksum is printed and the program
/// exits with a derived code. Exercises calls, loops, loads/stores,
/// branches, shifts, and an indirect call through an address table.
fn test_program() -> ObjectProgram {
    // main: s0 = loop counter, s1 = checksum accumulator.
    let mut main = Vec::new();
    main.extend(proc_body(
        "li $s0,12\n\
         li $s1,0\n",
    ));
    // loop: call mix(s1) -> v0; s1 = v0; call accum(s1) -> v0; s1 = v0
    let loop_head = main.len();
    main.extend(proc_body("move $a0,$s1\n"));
    main.push(ObjInsn::Call(ProcId(1))); // mix
    main.extend(proc_body("move $s1,$v0\nmove $a0,$s1\n"));
    main.push(ObjInsn::Call(ProcId(2))); // accum
    main.extend(proc_body("move $s1,$v0\n"));
    // indirect call through the address table (entry 0 = mix)
    main.extend(proc_body(
        "la $t0,table\nlw $t1,0($t0)\nmove $a0,$s1\njalr $t1\nmove $s1,$v0\n",
    ));
    // decrement and loop
    let back = {
        // bne $s0,$zero,loop_head — compute offset manually
        let cur = main.len() + 1; // position of the bne itself
        let off = loop_head as i64 - (cur as i64 + 1);
        let src = format!("add $s0,$s0,-1\nbne $s0,$0,{off}\n");
        proc_body(&src)
    };
    main.extend(back);
    main.extend(proc_body(
        "move $a0,$s1\nli $v0,1\nsyscall\n\
         andi $a0,$s1,0x7f\nli $v0,10\nsyscall\n",
    ));

    let mix = proc_body(
        "sll $t0,$a0,3\n\
         xor $t0,$t0,$a0\n\
         srl $t1,$t0,5\n\
         add $v0,$t0,$t1\n\
         add $v0,$v0,1\n\
         jr $ra\n",
    );

    let accum = proc_body(
        "la $t0,buf\n\
         li $t1,16\n\
         move $v0,$a0\n\
         aloop: lw $t2,0($t0)\n\
         add $v0,$v0,$t2\n\
         sw $v0,0($t0)\n\
         add $t0,$t0,4\n\
         add $t1,$t1,-1\n\
         bne $t1,$0,aloop\n\
         jr $ra\n",
    );

    // .data: table (1 word) then buf (16 words initialized 1..=16)
    let mut data = vec![0u8; 4];
    for i in 1..=16u32 {
        data.extend_from_slice(&i.to_le_bytes());
    }
    // symbols used by `la` above: table at DATA_BASE, buf at DATA_BASE+4.
    // proc_body assembles each body with its own .data-less source, so the
    // labels must be resolved here instead: rewrite them via constants.
    let _ = &data;

    ObjectProgram {
        name: "e2e".into(),
        procedures: vec![
            Procedure::new("main", main),
            Procedure::new("mix", mix),
            Procedure::new("accum", accum),
        ],
        data,
        entry: ProcId(0),
        addr_tables: vec![AddrTable {
            data_offset: 0,
            procs: vec![ProcId(1)],
        }],
    }
}

fn native_report(cfg: SimConfig) -> RunReport {
    let p = test_program();
    let img = build_native(&p).unwrap();
    run_image(&img, cfg, 1_000_000).unwrap()
}

#[test]
fn native_program_runs() {
    let r = native_report(SimConfig::hpca2000_baseline());
    assert!(!r.output.is_empty());
    assert!(r.stats.program_insns > 100);
}

fn assert_equivalent(scheme: Scheme, rf: bool) {
    let cfg = SimConfig::hpca2000_baseline();
    let p = test_program();
    let native = native_report(cfg);
    let img = ImageSpec::Uniform { scheme, rf }.build(&p).unwrap();
    let r = run_image(&img, cfg, 5_000_000).unwrap();
    assert_eq!(r.exit_code, native.exit_code, "{scheme:?} rf={rf}");
    assert_eq!(r.output, native.output, "{scheme:?} rf={rf}");
    assert!(
        r.stats.exceptions > 0,
        "decompressor must have been invoked"
    );
    assert!(
        r.stats.cycles > native.stats.cycles,
        "decompression must cost cycles"
    );
    // Program-visible work is identical.
    assert_eq!(r.stats.program_insns, native.stats.program_insns);
}

#[test]
fn dictionary_equivalent_to_native() {
    assert_equivalent(Scheme::Dictionary, false);
}

#[test]
fn dictionary_rf_equivalent_to_native() {
    assert_equivalent(Scheme::Dictionary, true);
}

#[test]
fn codepack_equivalent_to_native() {
    assert_equivalent(Scheme::CodePack, false);
}

#[test]
fn codepack_rf_equivalent_to_native() {
    assert_equivalent(Scheme::CodePack, true);
}

#[test]
fn dictionary_handler_executes_exactly_75_insns_per_line() {
    // The paper §4.1: "executes 75 instructions to decompress a cache line".
    let cfg = SimConfig::hpca2000_baseline();
    let p = test_program();
    let img = ImageSpec::Uniform {
        scheme: Scheme::Dictionary,
        rf: false,
    }
    .build(&p)
    .unwrap();
    let r = run_image(&img, cfg, 5_000_000).unwrap();
    assert_eq!(r.stats.handler_insns % r.stats.exceptions, 0);
    assert_eq!(r.stats.handler_insns / r.stats.exceptions, 75);
}

#[test]
fn dictionary_rf_handler_executes_42_insns_per_line() {
    let cfg = SimConfig::hpca2000_baseline();
    let p = test_program();
    let img = ImageSpec::Uniform {
        scheme: Scheme::Dictionary,
        rf: true,
    }
    .build(&p)
    .unwrap();
    let r = run_image(&img, cfg, 5_000_000).unwrap();
    assert_eq!(r.stats.handler_insns / r.stats.exceptions, 42);
}

#[test]
fn codepack_handler_cost_is_near_paper_scale() {
    // The paper §4.1: ~1120 instructions per two-line group on average.
    let cfg = SimConfig::hpca2000_baseline();
    let p = test_program();
    let img = ImageSpec::Uniform {
        scheme: Scheme::CodePack,
        rf: false,
    }
    .build(&p)
    .unwrap();
    let r = run_image(&img, cfg, 10_000_000).unwrap();
    let per_group = r.stats.handler_insns as f64 / r.stats.exceptions as f64;
    assert!(
        (600.0..1800.0).contains(&per_group),
        "CodePack handler executes {per_group} insns/group; expected paper-scale (~1120)"
    );
    // Each exception decompresses TWO cache lines (16 swics).
    assert_eq!(r.stats.swics, 16 * r.stats.exceptions);
}

#[test]
fn rf_variants_are_cheaper() {
    let cfg = SimConfig::hpca2000_baseline();
    let p = test_program();
    for scheme in [Scheme::Dictionary, Scheme::CodePack] {
        let plain = run_image(
            &ImageSpec::Uniform { scheme, rf: false }.build(&p).unwrap(),
            cfg,
            10_000_000,
        )
        .unwrap();
        let rf = run_image(
            &ImageSpec::Uniform { scheme, rf: true }.build(&p).unwrap(),
            cfg,
            10_000_000,
        )
        .unwrap();
        assert!(
            rf.stats.cycles < plain.stats.cycles,
            "{scheme:?}: +RF must reduce cycles"
        );
    }
}

#[test]
fn selective_compression_splits_regions_and_stays_correct() {
    let cfg = SimConfig::hpca2000_baseline();
    let p = test_program();
    let native = native_report(cfg);
    // Keep `accum` (proc 2) native.
    let sel = Selection::from_native_set([2].into_iter().collect(), 3);
    for scheme in [Scheme::Dictionary, Scheme::CodePack] {
        let img = build_planned(
            &p,
            &CompressionPlan::uniform(scheme, false, PlanSource::Heuristic, &sel),
        )
        .unwrap();
        assert!(img.segment(".native").is_some());
        let r = run_image(&img, cfg, 10_000_000).unwrap();
        assert_eq!(r.exit_code, native.exit_code);
        assert_eq!(r.output, native.output);
        assert!(r.stats.imisses_native > 0, "native region must miss via HW");
    }
}

#[test]
fn fully_native_selection_needs_no_exceptions() {
    let cfg = SimConfig::hpca2000_baseline();
    let p = test_program();
    let img = build_planned(
        &p,
        &CompressionPlan::uniform(
            Scheme::Dictionary,
            false,
            PlanSource::Heuristic,
            &Selection::all_native(3),
        ),
    )
    .unwrap();
    assert!(img.compressed_range.is_none());
    let r = run_image(&img, cfg, 1_000_000).unwrap();
    assert_eq!(r.stats.exceptions, 0);
    let native = native_report(cfg);
    assert_eq!(r.exit_code, native.exit_code);
}

#[test]
fn size_report_tracks_selection() {
    let p = test_program();
    let full = ImageSpec::Uniform {
        scheme: Scheme::Dictionary,
        rf: false,
    }
    .build(&p)
    .unwrap();
    let half = build_planned(
        &p,
        &CompressionPlan::uniform(
            Scheme::Dictionary,
            false,
            PlanSource::Heuristic,
            &Selection::from_native_set([0].into_iter().collect(), 3),
        ),
    )
    .unwrap();
    let none = build_planned(
        &p,
        &CompressionPlan::uniform(
            Scheme::Dictionary,
            false,
            PlanSource::Heuristic,
            &Selection::all_native(3),
        ),
    )
    .unwrap();
    assert!(full.sizes.native_text_bytes < half.sizes.native_text_bytes);
    assert!(half.sizes.native_text_bytes < none.sizes.native_text_bytes);
    assert_eq!(none.sizes.compressed_payload_bytes, 0);
    assert_eq!(full.sizes.original_text_bytes, p.text_bytes());
    // A tiny program is mostly singleton instructions, so dictionary
    // compression *expands* it — exactly the §3.1 caveat. (Realistic
    // compression ratios are exercised by the workload-scale tests.)
    assert!(full.sizes.compression_ratio() > 1.0);
    assert!((none.sizes.compression_ratio() - 1.0).abs() < 0.05);
}

#[test]
fn profile_native_attributes_work() {
    let cfg = SimConfig::hpca2000_baseline();
    let p = test_program();
    let (report, profile) = profile_native(&p, cfg, 1_000_000).unwrap();
    assert_eq!(profile.names, vec!["main", "mix", "accum"]);
    let total: u64 = profile.exec.iter().sum();
    assert_eq!(total, report.stats.program_insns);
    // accum (the data loop) executes more instructions than mix.
    assert!(profile.exec[2] > profile.exec[1]);
}

#[test]
fn selection_mismatch_is_rejected() {
    let p = test_program();
    let err = build_planned(
        &p,
        &CompressionPlan::uniform(
            Scheme::Dictionary,
            false,
            PlanSource::Heuristic,
            &Selection::all_compressed(7),
        ),
    )
    .unwrap_err();
    assert_eq!(
        err,
        BuildError::Plan(PlanError::ProcCountMismatch {
            plan: 7,
            program: 3
        })
    );
}

/// §3.1: programs with more than 64K unique instructions cannot be fully
/// dictionary-compressed — the builder surfaces the overflow so callers
/// can fall back to selective compression (or CodePack, which has no such
/// limit).
#[test]
fn dictionary_overflow_is_surfaced_and_codepack_is_not_limited() {
    use rtdc_isa::program::{ObjInsn, ObjectProgram, ProcId, Procedure};
    use rtdc_isa::{Instruction, Reg};

    // ~66K distinct instruction words across a few procedures.
    let mut procedures = Vec::new();
    let mut made = 0u32;
    for p in 0..5 {
        let mut code = Vec::new();
        for _ in 0..13_300 {
            // Distinct (rt, imm) pairs: 11 dsts x 8192 imms > 66K combos.
            let rt = [
                Reg::T0,
                Reg::T1,
                Reg::T2,
                Reg::T3,
                Reg::T4,
                Reg::T5,
                Reg::T6,
                Reg::T7,
                Reg::A1,
                Reg::A2,
                Reg::A3,
            ][(made % 11) as usize];
            let imm = ((made / 11) % 8192) as i16;
            code.push(ObjInsn::Insn(Instruction::Addiu {
                rt,
                rs: Reg::ZERO,
                imm,
            }));
            made += 1;
        }
        code.push(ObjInsn::Insn(Instruction::Jr { rs: Reg::RA }));
        procedures.push(Procedure::new(format!("big{p}"), code));
    }
    let program = ObjectProgram {
        name: "overflow".into(),
        procedures,
        data: Vec::new(),
        entry: ProcId(0),
        addr_tables: Vec::new(),
    };
    let n = program.procedures.len();

    let err = ImageSpec::Uniform {
        scheme: Scheme::Dictionary,
        rf: false,
    }
    .build(&program)
    .unwrap_err();
    assert!(matches!(err, BuildError::Compress(_)), "{err}");

    // Selective compression is the paper's escape hatch: native-ize most
    // procedures and the rest fits in 16-bit indices.
    let sel = Selection::from_native_set((1..n).collect(), n);
    assert!(build_planned(
        &program,
        &CompressionPlan::uniform(Scheme::Dictionary, false, PlanSource::Heuristic, &sel)
    )
    .is_ok());

    // CodePack has raw escapes instead of a hard dictionary limit.
    assert!(ImageSpec::Uniform {
        scheme: Scheme::CodePack,
        rf: false
    }
    .build(&program)
    .is_ok());
}
