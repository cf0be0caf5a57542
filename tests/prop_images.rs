//! Randomized tests over the image builder and the full run pipeline:
//! randomized programs and selections must yield well-formed images and
//! architecturally equivalent executions (seeded, offline — no external
//! property-testing framework).

use rtdc_repro::core::prelude::*;
use rtdc_repro::isa::program::{ObjInsn, ObjectProgram, ProcId, Procedure};
use rtdc_repro::isa::{Instruction as I, Reg};
use rtdc_rng::Rng64;

const MAX_INSNS: u64 = 400_000;
const CASES: usize = 24;

/// Safe ALU filler over scratch registers.
fn filler(rng: &mut Rng64) -> I {
    const POOL: [Reg; 5] = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::A1];
    let rd = *rng.choose(&POOL);
    let rs = *rng.choose(&POOL);
    let rt = *rng.choose(&POOL);
    let imm = rng.gen_range(i16::MIN..=i16::MAX);
    match imm as u16 % 5 {
        0 => I::Addu { rd, rs, rt },
        1 => I::Xor { rd, rs, rt },
        2 => I::Addiu { rt: rd, rs, imm },
        3 => I::Sll {
            rd,
            rt: rs,
            shamt: (imm as u8) & 31,
        },
        _ => I::Sltu { rd, rs, rt },
    }
}

/// A random leaf procedure: filler body, checksum fold, return.
fn leaf_proc(rng: &mut Rng64, idx: usize) -> Procedure {
    let body_len = rng.gen_range(1..40);
    let mut code: Vec<ObjInsn> = (0..body_len).map(|_| ObjInsn::Insn(filler(rng))).collect();
    code.push(ObjInsn::Insn(I::Xor {
        rd: Reg::V0,
        rs: Reg::A0,
        rt: Reg::T0,
    }));
    code.push(ObjInsn::Insn(I::Addu {
        rd: Reg::V0,
        rs: Reg::V0,
        rt: Reg::T1,
    }));
    code.push(ObjInsn::Insn(I::Jr { rs: Reg::RA }));
    Procedure::new(format!("leaf{idx}"), code)
}

/// A random program: N leaf procedures and a driver that calls a random
/// schedule of them, threading a checksum, then prints and exits.
fn random_program(rng: &mut Rng64) -> ObjectProgram {
    let n = rng.gen_range(2usize..8);
    let leaves: Vec<Procedure> = (1..=n).map(|i| leaf_proc(rng, i)).collect();
    let schedule: Vec<usize> = (0..rng.gen_range(1..30))
        .map(|_| rng.gen_range(1..=n))
        .collect();

    let mut main: Vec<ObjInsn> = vec![ObjInsn::Insn(I::Addiu {
        rt: Reg::S1,
        rs: Reg::ZERO,
        imm: 7,
    })];
    for &p in &schedule {
        main.push(ObjInsn::Insn(I::Addu {
            rd: Reg::A0,
            rs: Reg::S1,
            rt: Reg::ZERO,
        }));
        main.push(ObjInsn::Call(ProcId(p)));
        main.push(ObjInsn::Insn(I::Addu {
            rd: Reg::S1,
            rs: Reg::V0,
            rt: Reg::ZERO,
        }));
    }
    main.extend([
        ObjInsn::Insn(I::Addu {
            rd: Reg::A0,
            rs: Reg::S1,
            rt: Reg::ZERO,
        }),
        ObjInsn::Insn(I::Addiu {
            rt: Reg::V0,
            rs: Reg::ZERO,
            imm: 1,
        }),
        ObjInsn::Insn(I::Syscall),
        ObjInsn::Insn(I::Andi {
            rt: Reg::A0,
            rs: Reg::S1,
            imm: 0x7f,
        }),
        ObjInsn::Insn(I::Addiu {
            rt: Reg::V0,
            rs: Reg::ZERO,
            imm: 10,
        }),
        ObjInsn::Insn(I::Syscall),
    ]);
    let mut procedures = vec![Procedure::new("main", main)];
    procedures.extend(leaves);
    ObjectProgram {
        name: "prop".into(),
        procedures,
        data: Vec::new(),
        entry: ProcId(0),
        addr_tables: Vec::new(),
    }
}

fn random_native_set(rng: &mut Rng64, n: usize) -> std::collections::BTreeSet<usize> {
    (0..n).filter(|_| rng.gen_bool()).collect()
}

/// Image segments never overlap, for any program/scheme/selection.
#[test]
fn segments_are_disjoint() {
    let mut rng = Rng64::seed_from_u64(0x1a6e_0001);
    for _ in 0..CASES {
        let program = random_program(&mut rng);
        let n = program.procedures.len();
        let selection = Selection::from_native_set(random_native_set(&mut rng, n), n);
        let scheme = if rng.gen_bool() {
            Scheme::CodePack
        } else {
            Scheme::Dictionary
        };
        let image = build_planned(
            &program,
            &CompressionPlan::uniform(scheme, false, PlanSource::Heuristic, &selection),
        )
        .unwrap();
        let mut ranges: Vec<(u32, u32, &str)> = image
            .segments
            .iter()
            .filter(|s| !s.bytes.is_empty())
            .map(|s| (s.base, s.end(), s.name.as_str()))
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "segments {} and {} overlap",
                w[0].2,
                w[1].2
            );
        }
        // Procedure regions are disjoint too and lie in text space.
        let mut procs = image.proc_regions.clone();
        procs.sort();
        for w in procs.windows(2) {
            assert!(w[0].1 <= w[1].0);
        }
    }
}

/// Any random program runs identically native and compressed, under
/// any random selection and both schemes.
#[test]
fn random_programs_run_equivalently() {
    let mut rng = Rng64::seed_from_u64(0x1a6e_0002);
    for _ in 0..CASES {
        let program = random_program(&mut rng);
        let cfg = SimConfig::hpca2000_baseline();
        let n = program.procedures.len();
        let native_img = build_native(&program).unwrap();
        let native = run_image(&native_img, cfg, MAX_INSNS).unwrap();

        let selection = Selection::from_native_set(random_native_set(&mut rng, n), n);
        let scheme = if rng.gen_bool() {
            Scheme::CodePack
        } else {
            Scheme::Dictionary
        };
        let rf = rng.gen_bool();
        let image = build_planned(
            &program,
            &CompressionPlan::uniform(scheme, rf, PlanSource::Heuristic, &selection),
        )
        .unwrap();
        let run = run_image(&image, cfg, MAX_INSNS).unwrap();
        assert_eq!(run.output, native.output);
        assert_eq!(run.exit_code, native.exit_code);
        assert_eq!(run.stats.program_insns, native.stats.program_insns);
    }
}

/// Size invariants for arbitrary selections. Note a hybrid may be
/// SMALLER than both endpoints: unique-heavy procedures expand under
/// dictionary compression (§3.1), so pulling them native shrinks the
/// total — randomized testing found this before we believed it.
#[test]
fn selective_sizes_are_bounded() {
    let mut rng = Rng64::seed_from_u64(0x1a6e_0003);
    for _ in 0..CASES {
        let program = random_program(&mut rng);
        let sel = rng.gen_range(0usize..256);
        let n = program.procedures.len();
        let bits: std::collections::BTreeSet<usize> =
            (0..n).filter(|i| sel & (1 << i) != 0).collect();
        let selection = Selection::from_native_set(bits.clone(), n);
        let full = ImageSpec::Uniform {
            scheme: Scheme::Dictionary,
            rf: false,
        }
        .build(&program)
        .unwrap();
        let none = build_planned(
            &program,
            &CompressionPlan::uniform(
                Scheme::Dictionary,
                false,
                PlanSource::Heuristic,
                &Selection::all_native(n),
            ),
        )
        .unwrap();
        let mid = build_planned(
            &program,
            &CompressionPlan::uniform(Scheme::Dictionary, false, PlanSource::Heuristic, &selection),
        )
        .unwrap();
        // Upper bound: the worse endpoint plus padding/dictionary slack.
        // Slack: region padding (up to 60B of nop words costs index bytes
        // plus a dictionary entry) and per-proc rounding.
        let hi = full
            .sizes
            .total_code_bytes()
            .max(none.sizes.total_code_bytes())
            + 160
            + 8 * n as u32;
        // Lower bound: the native-selected procedures are stored verbatim.
        let lo: u32 = bits
            .iter()
            .map(|&i| program.procedures[i].byte_size())
            .sum();
        let got = mid.sizes.total_code_bytes();
        assert!(got <= hi, "mid {got} above {hi}");
        assert!(got >= lo, "mid {got} below native bytes {lo}");
        assert_eq!(mid.sizes.native_text_bytes, lo);
    }
}
