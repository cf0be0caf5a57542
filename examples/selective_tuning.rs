//! Execution-based vs miss-based selective compression on a loop-oriented
//! program — the paper's §5.3 headline result.
//!
//! ```sh
//! cargo run --release --example selective_tuning
//! ```
//!
//! For MIPS16/Thumb-style compression, keeping the *hottest-executing*
//! procedures native is right: compressed instructions pay on every
//! execution. For cache-line software decompression, they pay only on the
//! *miss path* — so the right procedures to keep native are the ones that
//! miss, and for loop code those are NOT the hot kernels. This example
//! demonstrates the divergence on the mpeg2enc analog.

use rtdc_repro::core::prelude::*;
use rtdc_repro::workloads::{generate, spec};

const MAX_INSNS: u64 = 2_000_000_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig::hpca2000_baseline();
    let bench = spec::mpeg2enc();
    let program = generate(&bench);
    let n = program.procedures.len();
    let scheme = Scheme::Dictionary;

    let (native_run, profile) = profile_native(&program, cfg, MAX_INSNS)?;
    let native_cycles = native_run.stats.cycles as f64;

    // Show where execution and misses actually live.
    let top = |counts: &[u64]| -> Vec<(String, u64)> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        order
            .iter()
            .take(4)
            .map(|&i| (profile.names[i].clone(), counts[i]))
            .collect()
    };
    println!("{}: top procedures by executed instructions:", bench.name);
    for (name, c) in top(&profile.exec) {
        println!("  {name:<16} {c:>9} insns");
    }
    println!("top procedures by I-cache misses:");
    for (name, c) in top(&profile.miss) {
        println!("  {name:<16} {c:>9} misses");
    }
    println!("(different procedures — this is a loop-oriented program)\n");

    println!(
        "{:<22} {:>10} {:>12} {:>10}",
        "selection", "native kept", "size ratio", "slowdown"
    );
    for (label, strategy) in [
        ("execution-based", SelectBy::Execution),
        ("miss-based", SelectBy::Miss),
    ] {
        for threshold in [0.05, 0.20, 0.50] {
            let sel = Selection::by_profile(&profile, strategy, threshold);
            let plan = CompressionPlan::uniform(scheme, false, PlanSource::Heuristic, &sel);
            let image = build_planned(&program, &plan)?;
            let run = run_image(&image, cfg, MAX_INSNS)?;
            assert_eq!(run.output, native_run.output);
            println!(
                "{:<15} @ {:>3.0}% {:>10} {:>11.1}% {:>9.3}x",
                label,
                100.0 * threshold,
                sel.native_count(),
                100.0 * image.sizes.compression_ratio(),
                run.stats.cycles as f64 / native_cycles,
            );
        }
    }
    println!("\nMiss-based selection gets the same (or better) speed at a smaller");
    println!("size: the hot kernels are compressed — they decompress once and run");
    println!("from the cache — while the miss-prone cold procedures stay native.");
    Ok(())
}
