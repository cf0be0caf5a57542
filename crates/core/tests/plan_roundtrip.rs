//! Compression-plan serialization contract: parse↔display identity for
//! every registry scheme, typed rejections (never panics) for malformed
//! input — the `decode_no_panic.rs` discipline applied to the plan IR —
//! and typed rejections of bad plans by `build_planned`.

use std::collections::BTreeSet;
use std::str::FromStr;

use rtdc::prelude::*;
use rtdc_isa::asm::assemble;
use rtdc_isa::program::{ObjInsn, ObjectProgram, ProcId, Procedure};
use rtdc_rng::{fuzz, Rng64};
use rtdc_sim::map;

fn proc_body(src: &str) -> Vec<ObjInsn> {
    let out = assemble(src, 0, map::DATA_BASE).expect("test proc body");
    out.text.into_iter().map(ObjInsn::Insn).collect()
}

/// A three-procedure program (distinct sizes, cross-procedure calls) —
/// small enough to build under every scheme, big enough that layout
/// order and selection both matter.
fn test_program() -> ObjectProgram {
    let mut main = proc_body("li $s0,3\nli $s1,0\n");
    main.push(ObjInsn::Call(ProcId(1)));
    main.extend(proc_body("move $s1,$v0\nmove $a0,$s1\n"));
    main.push(ObjInsn::Call(ProcId(2)));
    main.extend(proc_body(
        "move $a0,$v0\nli $v0,1\nsyscall\nli $a0,0\nli $v0,10\nsyscall\n",
    ));
    let p1 = proc_body("li $v0,7\nsll $v0,$v0,2\njr $ra\n");
    let p2 = proc_body("sll $t0,$a0,1\nxor $t0,$t0,$a0\nsrl $t1,$t0,3\nadd $v0,$t0,$t1\njr $ra\n");
    ObjectProgram {
        name: "plan-test".into(),
        procedures: vec![
            Procedure::new("main", main),
            Procedure::new("p1", p1),
            Procedure::new("p2", p2),
        ],
        data: Vec::new(),
        entry: ProcId(0),
        addr_tables: Vec::new(),
    }
}

fn sample_plan(scheme: Scheme, rf: bool) -> CompressionPlan {
    let native: BTreeSet<usize> = [1].into_iter().collect();
    let sel = Selection::from_native_set(native, 3);
    CompressionPlan::from_order(scheme, rf, PlanSource::Trace, 2, &sel, &[2, 0, 1]).unwrap()
}

#[test]
fn roundtrip_every_scheme_and_handler_variant() {
    for scheme in Scheme::all() {
        for rf in [false, true] {
            let plan = sample_plan(scheme, rf);
            let text = plan.to_string();
            let reparsed = CompressionPlan::from_str(&text).unwrap();
            assert_eq!(reparsed, plan, "scheme {scheme} rf={rf}");
            assert_eq!(reparsed.to_string(), text, "canonical form is stable");
        }
    }
}

#[test]
fn sources_roundtrip() {
    for source in [PlanSource::Heuristic, PlanSource::Trace, PlanSource::Manual] {
        let sel = Selection::all_compressed(2);
        let plan = CompressionPlan::uniform(Scheme::Dictionary, false, source, &sel);
        let reparsed: CompressionPlan = plan.to_string().parse().unwrap();
        assert_eq!(reparsed.source, source);
    }
}

#[test]
fn unknown_scheme_is_a_typed_error() {
    let header = "rtdc-plan v1 scheme=zstd source=manual iter=0 procs=1\n0 native 0\n";
    assert_eq!(
        header.parse::<CompressionPlan>(),
        Err(PlanError::UnknownScheme {
            name: "zstd".into()
        })
    );
    let line = "rtdc-plan v1 scheme=d source=manual iter=0 procs=1\n0 zstd 0\n";
    assert_eq!(
        line.parse::<CompressionPlan>(),
        Err(PlanError::UnknownScheme {
            name: "zstd".into()
        })
    );
}

#[test]
fn proc_id_out_of_range_is_a_typed_error() {
    let text = "rtdc-plan v1 scheme=d source=manual iter=0 procs=2\n0 d 0\n5 d 1\n";
    assert_eq!(
        text.parse::<CompressionPlan>(),
        Err(PlanError::ProcOutOfRange { id: 5, procs: 2 })
    );
}

#[test]
fn duplicate_proc_and_rank_are_typed_errors() {
    let dup_proc = "rtdc-plan v1 scheme=d source=manual iter=0 procs=2\n0 d 0\n0 d 1\n";
    assert_eq!(
        dup_proc.parse::<CompressionPlan>(),
        Err(PlanError::DuplicateProc { id: 0 })
    );
    let dup_rank = "rtdc-plan v1 scheme=d source=manual iter=0 procs=2\n0 d 1\n1 d 1\n";
    assert_eq!(
        dup_rank.parse::<CompressionPlan>(),
        Err(PlanError::DuplicateRank { rank: 1 })
    );
    let bad_rank = "rtdc-plan v1 scheme=d source=manual iter=0 procs=2\n0 d 0\n1 d 9\n";
    assert_eq!(
        bad_rank.parse::<CompressionPlan>(),
        Err(PlanError::RankOutOfRange { rank: 9, procs: 2 })
    );
}

#[test]
fn count_and_header_problems_are_typed_errors() {
    let short = "rtdc-plan v1 scheme=d source=manual iter=0 procs=3\n0 d 0\n";
    assert_eq!(
        short.parse::<CompressionPlan>(),
        Err(PlanError::WrongProcCount {
            declared: 3,
            actual: 1
        })
    );
    for bad in [
        "",
        "not-a-plan",
        "rtdc-plan v2 scheme=d source=manual iter=0 procs=0",
        "rtdc-plan v1 scheme=d source=manual iter=0",
        "rtdc-plan v1 scheme=d source=nowhere iter=0 procs=0",
        "rtdc-plan v1 scheme=d source=manual iter=x procs=0",
        "rtdc-plan v1 scheme=d source=manual iter=0 procs=99999999999",
        "rtdc-plan v1 scheme=d source=manual iter=0 procs=1\n0 d\n",
        "rtdc-plan v1 scheme=d source=manual iter=0 procs=1\n0 d 0 extra\n",
    ] {
        assert!(bad.parse::<CompressionPlan>().is_err(), "accepted: {bad:?}");
    }
}

/// Harness mutants of the serialized form: whatever the bytes, parsing
/// returns `Ok` or a typed `PlanError` — it never panics and never OOMs
/// (the `procs=` cap) — and a mutant that parses round-trips through
/// its canonical text.
#[test]
fn mutated_plans_never_panic() {
    let mut rng = Rng64::seed_from_u64(0x9e3779b97f4a7c15);
    let base = sample_plan(Scheme::CodePack, true).to_string();
    let tokens: [&[u8]; 3] = [b"procs=99999999999", b"+rf", b"\n0 d 0"];
    for i in 0..fuzz::iters(500) {
        let mut bytes = base.clone().into_bytes();
        fuzz::mutate(&mut rng, &mut bytes, &tokens);
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(plan) = fuzz::check(i, &*text, str::parse::<CompressionPlan>) {
            assert_eq!(plan.to_string().parse(), Ok(plan), "iter {i}: {text:?}");
        }
    }
}

#[test]
fn build_planned_rejects_bad_plans_without_panicking() {
    let program = test_program();
    // Plan for the wrong procedure count.
    let sel = Selection::all_compressed(2);
    let plan = CompressionPlan::uniform(Scheme::Dictionary, false, PlanSource::Manual, &sel);
    assert_eq!(
        build_planned(&program, &plan).unwrap_err(),
        BuildError::Plan(PlanError::ProcCountMismatch {
            plan: 2,
            program: 3
        })
    );
    // Internally inconsistent ranks.
    let sel = Selection::all_compressed(3);
    let mut plan = CompressionPlan::uniform(Scheme::Dictionary, false, PlanSource::Manual, &sel);
    plan.procs[2].rank = 0;
    assert_eq!(
        build_planned(&program, &plan).unwrap_err(),
        BuildError::Plan(PlanError::DuplicateRank { rank: 0 })
    );
}

#[test]
fn planned_image_runs_identically_to_native() {
    let program = test_program();
    let cfg = SimConfig::hpca2000_baseline();
    let native = build_native(&program).unwrap();
    let want = run_image(&native, cfg, 100_000).unwrap();
    let sel = Selection::from_native_set([2].into_iter().collect(), 3);
    let plan = CompressionPlan::from_order(
        Scheme::CodePack,
        false,
        PlanSource::Trace,
        1,
        &sel,
        &[1, 2, 0],
    )
    .unwrap();
    let image = build_planned(&program, &plan).unwrap();
    let got = run_image(&image, cfg, 100_000).unwrap();
    assert_eq!(got.exit_code, want.exit_code);
    assert_eq!(got.output, want.output);
}
