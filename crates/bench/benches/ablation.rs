//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Procedure placement** — the paper's original-order hybrid layout
//!    vs a hot-first profile-guided order (the paper's §5.3 future work).
//! 2. **`swic` drain penalty** — the cost of requiring a non-speculative
//!    pipeline before writing the I-cache (§4).
//! 3. **Exception entry/return penalty** — how much of the decompression
//!    overhead is pipeline flushing rather than handler execution.

use rtdc::prelude::*;
use rtdc_bench::experiments::{build_and_run, MAX_INSNS};
use rtdc_sim::SimConfig;
use rtdc_workloads::{by_name, generate_cached};

fn main() {
    let cfg = SimConfig::hpca2000_baseline();
    let (scheme, source) = (Scheme::Dictionary, PlanSource::Heuristic);

    println!("== Ablation 1: hybrid-layout procedure placement (§5.3 future work) ==");
    println!(
        "{:<12} {:<6} {:<5} {:>14} {:>12} {:>12}",
        "benchmark", "select", "thr", "native cycles", "orig order", "hot-first"
    );
    for name in ["go", "mpeg2enc"] {
        let spec = by_name(name).unwrap();
        let program = generate_cached(&spec);
        let (native, profile) = profile_native(&program, cfg, MAX_INSNS).expect("profile");
        let base = native.stats.cycles as f64;
        for strategy in [SelectBy::Execution, SelectBy::Miss] {
            for threshold in [0.20, 0.50] {
                let sel = Selection::by_profile(&profile, strategy, threshold);
                let plan = CompressionPlan::uniform(scheme, false, source, &sel);
                let (_, orig_run) = build_and_run(&spec, &ImageSpec::Plan(plan), cfg, run_image);
                let order = placement_hot_first(&profile, strategy);
                let plan = CompressionPlan::from_order(scheme, false, source, 0, &sel, &order);
                let hot = ImageSpec::Plan(plan.expect("a permutation"));
                let (_, hot_run) = build_and_run(&spec, &hot, cfg, run_image);
                assert_eq!(orig_run.output, native.output);
                assert_eq!(hot_run.output, native.output);
                println!(
                    "{:<12} {:<6} {:>4.0}% {:>14} {:>11.3}x {:>11.3}x",
                    name,
                    strategy.to_string(),
                    100.0 * threshold,
                    native.stats.cycles,
                    orig_run.stats.cycles as f64 / base,
                    hot_run.stats.cycles as f64 / base,
                );
            }
        }
    }

    println!("\n== Ablation 2: swic pipeline-drain penalty (cycles per swic) ==");
    let spec = by_name("go").unwrap();
    let program = generate_cached(&spec);
    let image = ImageSpec::Uniform { scheme, rf: false }
        .build(&program)
        .unwrap();
    let native = build_native(&program).unwrap();
    for penalty in [0u64, 1, 2, 4] {
        let mut c = cfg;
        c.swic_penalty = penalty;
        let nat = run_image(&native, c, MAX_INSNS).unwrap();
        let run = run_image(&image, c, MAX_INSNS).unwrap();
        println!(
            "swic_penalty={penalty}: slowdown {:.3}x",
            run.stats.cycles as f64 / nat.stats.cycles as f64
        );
    }

    println!("\n== Ablation 3: exception entry/return flush penalty ==");
    for penalty in [0u64, 4, 10] {
        let mut c = cfg;
        c.exception_entry_penalty = penalty;
        c.exception_return_penalty = penalty;
        let nat = run_image(&native, c, MAX_INSNS).unwrap();
        let run = run_image(&image, c, MAX_INSNS).unwrap();
        println!(
            "entry/return={penalty}: slowdown {:.3}x",
            run.stats.cycles as f64 / nat.stats.cycles as f64
        );
    }
}
