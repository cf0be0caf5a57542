//! Property test for the stall-attribution invariant: on **any**
//! workload, under **every** registered scheme (and native), every cycle
//! the machine charges is either a commit cycle or lands in exactly one
//! `StallBreakdown` bucket — `stalls.sum() + insns == cycles`. The
//! tracing conformance suite depends on this (stall events must account
//! for all non-commit cycles); here it is fuzzed across randomly
//! perturbed workload specs rather than the fixed benchmark suite.

use rtdc::prelude::*;
use rtdc_rng::Rng64;
use rtdc_sim::Stats;
use rtdc_workloads::{generate, spec, BenchmarkSpec, Style};

const MAX_INSNS: u64 = 50_000_000;

/// Randomly perturbs one of the tiny template specs (the `&'static` name
/// requirement keeps us on the templates' names; the knobs and seed are
/// what matter to the dynamics).
fn random_spec(rng: &mut Rng64) -> BenchmarkSpec {
    let mut s = *rng.choose(&[
        spec::tiny::walker(),
        spec::tiny::loop_kernel(),
        spec::tiny::interpreter(),
    ]);
    s.seed = rng.gen_u64();
    s.procs = rng.gen_range(20..80usize);
    s.style = match s.style {
        Style::Walker { .. } => Style::Walker {
            calls: rng.gen_range(40..200usize),
            body_loops: rng.gen_range(1..6u32),
            zipf_s: 0.3 + 0.5 * rng.gen_f64(),
        },
        Style::LoopKernel { .. } => Style::LoopKernel {
            kernels: rng.gen_range(2..6usize),
            iterations: rng.gen_range(40..200u32),
            excursion_shift: rng.gen_range(3..6u32),
            init_fraction: 0.05 + 0.1 * rng.gen_f64(),
        },
        Style::Interpreter { .. } => Style::Interpreter {
            program_len: rng.gen_range(30..120usize),
            passes: rng.gen_range(1..3u32),
            body_loops: rng.gen_range(1..5u32),
            zipf_s: 0.5 + 0.5 * rng.gen_f64(),
        },
    };
    s
}

fn assert_complete_attribution(label: &str, stats: &Stats) {
    assert_eq!(
        stats.stalls.sum() + stats.insns,
        stats.cycles,
        "{label}: every cycle must be a commit or exactly one stall bucket"
    );
    assert_eq!(
        stats.insns,
        stats.program_insns + stats.handler_insns,
        "{label}"
    );
    assert!(stats.handler_cycles <= stats.cycles, "{label}");
    assert!(stats.handler_insns <= stats.handler_cycles, "{label}");
    assert_eq!(
        stats.imisses,
        stats.imisses_native + stats.imisses_compressed,
        "{label}"
    );
}

#[test]
fn stall_buckets_account_for_every_cycle_on_random_workloads() {
    let mut rng = Rng64::seed_from_u64(0x57a1_1bca);
    for round in 0..4 {
        let s = random_spec(&mut rng);
        let program = generate(&s);

        let native = build_native(&program).expect("native build");
        let r = run_image(&native, SimConfig::hpca2000_baseline(), MAX_INSNS).expect("native run");
        assert_complete_attribution(&format!("round {round} {} native", s.name), &r.stats);
        let native_program_insns = r.stats.program_insns;

        for scheme in Scheme::all() {
            for rf in [false, true] {
                let label = format!("round {round} {} {}", s.name, scheme.name_rf(rf));
                let img = ImageSpec::Uniform { scheme, rf }
                    .build(&program)
                    .unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
                let r = run_image(&img, SimConfig::hpca2000_baseline(), MAX_INSNS)
                    .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
                assert_complete_attribution(&label, &r.stats);
                assert_eq!(
                    r.stats.program_insns, native_program_insns,
                    "{label}: compressed run must do identical program work"
                );
            }
        }
    }
}

#[test]
fn stall_buckets_account_for_every_cycle_on_the_paper_suite_config_sweep() {
    // The fixed tiny specs across I-cache sizes (different miss/stall
    // mixes) — cheap enough to run in debug mode.
    for s in [spec::tiny::walker(), spec::tiny::loop_kernel()] {
        let program = generate(&s);
        for kb in [4u32, 16] {
            let cfg = SimConfig::hpca2000_baseline().with_icache_size(kb * 1024);
            let native = build_native(&program).expect("native build");
            let r = run_image(&native, cfg, MAX_INSNS).expect("native run");
            assert_complete_attribution(&format!("{} native {kb}KB", s.name), &r.stats);

            let img = ImageSpec::Uniform {
                scheme: Scheme::Dictionary,
                rf: false,
            }
            .build(&program)
            .expect("build");
            let r = run_image(&img, cfg, MAX_INSNS).expect("run");
            assert_complete_attribution(&format!("{} d {kb}KB", s.name), &r.stats);
        }
    }
}
