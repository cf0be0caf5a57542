//! Cross-crate integration: every workload style × every compression
//! scheme × every handler variant must be architecturally identical to the
//! native run, and the handler economics must match the paper.

use rtdc_repro::core::prelude::*;
use rtdc_repro::workloads::{generate, spec::tiny, BenchmarkSpec};

const MAX_INSNS: u64 = 50_000_000;

fn native_baseline(spec: &BenchmarkSpec) -> (Vec<u8>, u64) {
    let program = generate(spec);
    let image = build_native(&program).unwrap();
    let run = run_image(&image, SimConfig::hpca2000_baseline(), MAX_INSNS).unwrap();
    (run.output, run.stats.cycles)
}

fn check_all_schemes(spec: &BenchmarkSpec) {
    let cfg = SimConfig::hpca2000_baseline();
    let program = generate(spec);
    let (native_out, native_cycles) = native_baseline(spec);
    assert!(
        !native_out.is_empty(),
        "{}: workload must produce output",
        spec.name
    );

    for scheme in [Scheme::Dictionary, Scheme::CodePack, Scheme::ByteDict] {
        for rf in [false, true] {
            let image = ImageSpec::Uniform { scheme, rf }.build(&program).unwrap();
            let run = run_image(&image, cfg, MAX_INSNS).unwrap();
            assert_eq!(
                run.output, native_out,
                "{}: {scheme:?} rf={rf} diverged from native",
                spec.name
            );
            assert!(run.stats.exceptions > 0);
            assert!(run.stats.cycles > native_cycles);
        }
    }
}

#[test]
fn walker_style_equivalent_under_all_schemes() {
    check_all_schemes(&tiny::walker());
}

#[test]
fn loop_kernel_style_equivalent_under_all_schemes() {
    check_all_schemes(&tiny::loop_kernel());
}

#[test]
fn interpreter_style_equivalent_under_all_schemes() {
    check_all_schemes(&tiny::interpreter());
}

#[test]
fn selective_compression_every_threshold_is_correct() {
    let cfg = SimConfig::hpca2000_baseline();
    let spec = tiny::walker();
    let program = generate(&spec);
    let (native_out, _) = native_baseline(&spec);
    let (_, profile) = profile_native(&program, cfg, MAX_INSNS).unwrap();

    let mut sizes = Vec::new();
    for strategy in [SelectBy::Execution, SelectBy::Miss] {
        for threshold in [0.05, 0.10, 0.15, 0.20, 0.50] {
            let sel = Selection::by_profile(&profile, strategy, threshold);
            let image = build_planned(
                &program,
                &CompressionPlan::uniform(Scheme::Dictionary, false, PlanSource::Heuristic, &sel),
            )
            .unwrap();
            let run = run_image(&image, cfg, MAX_INSNS).unwrap();
            assert_eq!(run.output, native_out, "{strategy} @ {threshold}");
            sizes.push((strategy, threshold, image.sizes.total_code_bytes()));
        }
    }
    // Within a strategy, higher thresholds never shrink the program.
    for w in sizes.chunks(5) {
        for pair in w.windows(2) {
            assert!(
                pair[0].2 <= pair[1].2,
                "sizes must grow with threshold: {pair:?}"
            );
        }
    }
}

#[test]
fn paper_handler_economics_hold_at_tiny_scale() {
    // The dictionary handler executes exactly 75 (or 42 with +RF)
    // instructions per miss regardless of workload.
    let cfg = SimConfig::hpca2000_baseline();
    let spec = tiny::interpreter();
    let program = generate(&spec);
    for (rf, expected) in [(false, 75.0), (true, 42.0)] {
        let image = ImageSpec::Uniform {
            scheme: Scheme::Dictionary,
            rf,
        }
        .build(&program)
        .unwrap();
        let run = run_image(&image, cfg, MAX_INSNS).unwrap();
        assert_eq!(run.stats.handler_insns_per_exception(), expected, "rf={rf}");
    }
}

#[test]
fn miss_based_beats_exec_based_on_loop_code() {
    // The paper's §5.3 claim, checked end-to-end at tiny scale: at a
    // matched threshold, miss-based selection yields at most the overhead
    // of execution-based selection on a loop-oriented program.
    let cfg = SimConfig::hpca2000_baseline();
    let spec = tiny::loop_kernel();
    let program = generate(&spec);
    let (_, profile) = profile_native(&program, cfg, MAX_INSNS).unwrap();
    let slow = |strategy| {
        let sel = Selection::by_profile(&profile, strategy, 0.5);
        let image = build_planned(
            &program,
            &CompressionPlan::uniform(Scheme::Dictionary, false, PlanSource::Heuristic, &sel),
        )
        .unwrap();
        let run = run_image(&image, cfg, MAX_INSNS).unwrap();
        (run.stats.cycles, image.sizes.total_code_bytes())
    };
    let (exec_cycles, exec_size) = slow(SelectBy::Execution);
    let (miss_cycles, miss_size) = slow(SelectBy::Miss);
    // Miss-based keeps the cold, miss-prone procedures native and
    // compresses the kernels; it must win on at least one axis and not
    // lose badly on the other.
    assert!(
        miss_cycles as f64 <= exec_cycles as f64 * 1.05,
        "miss-based {miss_cycles} vs exec-based {exec_cycles}"
    );
    assert!(
        miss_size <= exec_size * 11 / 10,
        "miss-based {miss_size}B vs exec-based {exec_size}B"
    );
}

#[test]
fn deterministic_end_to_end() {
    // Same spec, two independent end-to-end runs: identical stats.
    let cfg = SimConfig::hpca2000_baseline();
    let spec = tiny::walker();
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let program = generate(&spec);
            let image = ImageSpec::Uniform {
                scheme: Scheme::CodePack,
                rf: true,
            }
            .build(&program)
            .unwrap();
            let run = run_image(&image, cfg, MAX_INSNS).unwrap();
            (run.stats, run.output)
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}
