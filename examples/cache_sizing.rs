//! How I-cache size controls decompression overhead (Figure 4's insight).
//!
//! ```sh
//! cargo run --release --example cache_sizing
//! ```
//!
//! Decompression only happens on the miss path, so slowdown is a function
//! of the I-cache miss ratio. This example sweeps the `go` analog across
//! 4KB/8KB/16KB/32KB/64KB instruction caches and shows the paper's
//! rule of thumb: once the miss ratio drops below ~1%, the dictionary
//! scheme runs within ~2x of native — cache sizing is the system knob
//! that makes software decompression viable.

use rtdc_repro::core::prelude::*;
use rtdc_repro::workloads::{generate, spec};

const MAX_INSNS: u64 = 2_000_000_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = spec::go();
    let program = generate(&bench);
    let scheme = Scheme::Dictionary;

    println!(
        "benchmark: {} ({} KB .text, fully compressed, dictionary)\n",
        bench.name,
        program.text_bytes() / 1024
    );
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>12}",
        "I$", "miss ratio", "native cyc", "slowdown", "total mem*"
    );

    for size_kb in [4u32, 8, 16, 32, 64] {
        let cfg = SimConfig::hpca2000_baseline().with_icache_size(size_kb * 1024);
        let native = build_native(&program)?;
        let native_run = run_image(&native, cfg, MAX_INSNS)?;
        let image = ImageSpec::Uniform { scheme, rf: false }.build(&program)?;
        let run = run_image(&image, cfg, MAX_INSNS)?;
        assert_eq!(run.output, native_run.output);
        // Total memory = compressed program + the cache itself (§5.2:
        // "when considering total memory savings, the cache size should
        // be considered").
        let total_kb = image.sizes.total_code_bytes() / 1024 + size_kb;
        println!(
            "{:>5}K {:>11.2}% {:>12} {:>9.2}x {:>10}KB",
            size_kb,
            100.0 * native_run.stats.imiss_ratio(),
            native_run.stats.cycles,
            run.stats.cycles as f64 / native_run.stats.cycles as f64,
            total_kb,
        );
    }

    println!("\n* compressed code + I-cache SRAM: a very large cache can cost more");
    println!("  memory than compression saves — the paper's closing caveat (§5.2).");
    Ok(())
}
