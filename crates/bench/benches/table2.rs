//! Table 2 — "Compression ratio of .text section".
//!
//! For each benchmark: dynamic instruction count, non-speculative 16KB
//! I-cache miss ratio, original/dictionary/CodePack sizes, and the
//! dictionary/CodePack/LZRW1 compression ratios. Paper values are printed
//! alongside for comparison (absolute dynamic counts are scaled down by
//! design; see EXPERIMENTS.md).
//!
//! Benchmarks fan out across worker threads (`--jobs N` / `RTDC_JOBS`,
//! default: available parallelism); rows print in benchmark order, so the
//! output is byte-identical for any job count.

use std::fmt::Write as _;

use rtdc_bench::experiments::{paper_ratio, pct, table2_rows};
use rtdc_bench::jobs::jobs_from_env;
use rtdc_sim::SimConfig;
use rtdc_workloads::all_benchmarks;

fn main() {
    let jobs = jobs_from_env();
    let cfg = SimConfig::hpca2000_baseline();
    println!("== Table 2: Compression ratio of .text section ==");
    println!("(paper values in parentheses; dynamic counts intentionally ~25-100x shorter)\n");
    println!(
        "{:<12} {:>10} {:>16} {:>11} {:>11} {:>11} {:>16} {:>16} {:>16}",
        "benchmark",
        "dyn insns",
        "miss ratio",
        "orig B",
        "dict B",
        "CP B",
        "dict ratio",
        "CP ratio",
        "LZRW1 ratio",
    );
    let specs = all_benchmarks();
    let rows = table2_rows(&specs, cfg, jobs);
    for (spec, r) in specs.iter().zip(&rows) {
        let p = spec.paper;
        let mut line = format!(
            "{:<12} {:>10} {:>7} ({:>6}) {:>11}",
            r.name,
            r.dynamic_insns,
            pct(r.miss_ratio),
            pct(p.miss_ratio_16k),
            r.original_bytes,
        );
        for s in &r.schemes {
            write!(line, " {:>11}", s.payload_bytes).expect("write to string");
        }
        for s in &r.schemes {
            write!(
                line,
                " {:>7} ({:>6})",
                pct(s.ratio),
                pct(paper_ratio(&p, s.scheme))
            )
            .expect("write to string");
        }
        write!(
            line,
            " {:>7} ({:>6})",
            pct(r.lzrw1_ratio),
            pct(p.lzrw1_ratio)
        )
        .expect("write to string");
        println!("{line}");
    }
    println!("\nShape checks: CP < dict for every row; dict within ~0.50-0.85; CP ~0.55-0.70.");
}
