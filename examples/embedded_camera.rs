//! Embedded-camera firmware sizing study.
//!
//! ```sh
//! cargo run --release --example embedded_camera
//! ```
//!
//! The scenario the paper's introduction motivates: an embedded product
//! (here, a camera running JPEG-style image code — the `ijpeg` analog)
//! must fit its firmware into a fixed ROM budget without giving up
//! responsiveness. This example walks the actual engineering decision:
//!
//! 1. measure the native footprint and speed;
//! 2. compare fully-compressed dictionary vs CodePack images;
//! 3. use miss-based selective compression to buy back speed until the
//!    ROM budget is hit;
//! 4. report the chosen configuration.

use rtdc_repro::core::prelude::*;
use rtdc_repro::workloads::{generate, spec};

const MAX_INSNS: u64 = 2_000_000_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig::hpca2000_baseline();
    let bench = spec::ijpeg();
    let program = generate(&bench);
    let n = program.procedures.len();

    println!(
        "firmware: {} ({} procedures, {} KB native .text)\n",
        program.name,
        n,
        program.text_bytes() / 1024
    );

    let native = build_native(&program)?;
    let native_run = run_image(&native, cfg, MAX_INSNS)?;
    let native_cycles = native_run.stats.cycles;
    println!(
        "native:      {:>7} KB  1.00x",
        native.sizes.total_code_bytes() / 1024
    );

    // ROM budget: 70% of the native footprint.
    let budget = (native.sizes.original_text_bytes as f64 * 0.70) as u32;
    println!("ROM budget:  {:>7} KB  (70% of native)\n", budget / 1024);

    let (_, profile) = profile_native(&program, cfg, MAX_INSNS)?;

    let mut best: Option<(String, u32, f64)> = None;
    for scheme in [Scheme::Dictionary, Scheme::CodePack] {
        for threshold in [0.0, 0.05, 0.10, 0.20, 0.50] {
            let sel = if threshold == 0.0 {
                Selection::all_compressed(n)
            } else {
                Selection::by_profile(&profile, SelectBy::Miss, threshold)
            };
            let plan = CompressionPlan::uniform(scheme, true, PlanSource::Heuristic, &sel);
            let image = build_planned(&program, &plan)?;
            let run = run_image(&image, cfg, MAX_INSNS)?;
            assert_eq!(run.output, native_run.output);
            let size = image.sizes.total_code_bytes();
            let slowdown = run.stats.cycles as f64 / native_cycles as f64;
            let fits = size <= budget;
            println!(
                "{:>2}+RF miss@{:>3.0}%: {:>4} KB ({:>5.1}%)  {:.3}x  {}",
                scheme.label(),
                100.0 * threshold,
                size / 1024,
                100.0 * image.sizes.compression_ratio(),
                slowdown,
                if fits { "fits" } else { "OVER BUDGET" },
            );
            if fits && best.as_ref().is_none_or(|(_, _, s)| slowdown < *s) {
                best = Some((
                    format!(
                        "{}+RF, miss-based @ {:.0}%",
                        scheme.label(),
                        100.0 * threshold
                    ),
                    size,
                    slowdown,
                ));
            }
        }
    }

    let (label, size, slowdown) = best.expect("some configuration fits");
    println!("\nchosen configuration: {label}");
    println!("  {} KB in ROM, {slowdown:.3}x native speed", size / 1024);
    println!("\nThe loop-oriented image kernels stay compressed (they rarely miss),");
    println!("so the speed cost is tiny — the paper's §5.3 insight in action.");
    Ok(())
}
