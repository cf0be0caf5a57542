//! §6 future work — "it is worthwhile to investigate software
//! decompressors that can attain even higher levels of compression with a
//! higher decompression overhead."
//!
//! This harness enumerates the whole scheme registry — the paper's D and
//! CP plus every codec added since (the byte-aligned two-level dictionary
//! **D2**, the 512-byte-chunk **LZ**) — and measures each one's
//! compression ratio, slowdown, and handler instructions per miss on the
//! same benchmarks. It answers the paper's question concretely: where do
//! denser-but-costlier decompressors land on the size/speed plane?

use std::fmt::Write as _;

use rtdc::prelude::*;
use rtdc_bench::experiments::{build_and_run, pct};
use rtdc_sim::SimConfig;
use rtdc_workloads::all_benchmarks;

fn main() {
    let cfg = SimConfig::hpca2000_baseline();
    let schemes: Vec<Scheme> = Scheme::all().collect();
    println!("== §6 future work: every registered scheme on the size/speed plane ==");
    println!("(compression ratio, slowdown, and handler insns/miss per scheme)\n");
    let mut header = format!("{:<12} |", "benchmark");
    for group in 0..3 {
        for s in &schemes {
            write!(header, " {:>7}", s.label()).expect("write to string");
        }
        if group < 2 {
            header.push_str(" |");
        }
    }
    println!("{header}");
    let w = 8 * schemes.len() - 1;
    println!(
        "{:<12} | {:^w$} | {:^w$} {:^w$}",
        "", "compression ratio", "slowdown", "h-insn/miss"
    );
    for spec in all_benchmarks() {
        let (_, native) = build_and_run(&spec, None, cfg, run_image);
        let base = native.stats.cycles as f64;

        let mut ratios = Vec::new();
        let mut slows = Vec::new();
        let mut handler_insns = Vec::new();
        for &scheme in &schemes {
            let (image, run) = build_and_run(&spec, Some((scheme, false)), cfg, run_image);
            ratios.push(image.sizes.compression_ratio());
            assert_eq!(run.output, native.output, "{} {scheme:?}", spec.name);
            slows.push(run.stats.cycles as f64 / base);
            handler_insns.push(run.stats.handler_insns_per_exception());
        }
        let mut line = format!("{:<12} |", spec.name);
        for r in &ratios {
            write!(line, " {:>7}", pct(*r)).expect("write to string");
        }
        line.push_str(" |");
        for s in &slows {
            write!(line, " {:>6.2}x", s).expect("write to string");
        }
        line.push_str(" |");
        for h in &handler_insns {
            write!(line, " {:>7.0}", h).expect("write to string");
        }
        println!("{line}");
    }
    println!("\nShape checks: D2's ratio sits at or below CodePack's; its slowdown");
    println!("sits between D and CP (byte-aligned decode needs no bit buffer, but");
    println!("variable-length codes still force the mapping-table indirection).");
    println!("LZ compresses best of all but pays the largest per-miss handler cost");
    println!("(a whole 512-byte chunk per exception). This is the §6 trade-off made");
    println!("concrete: more compression than the 16-bit dictionary is available at");
    println!("a spectrum of decode costs, all from the same registry.");
}
