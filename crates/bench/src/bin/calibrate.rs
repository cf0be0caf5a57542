//! Calibration tool: for each benchmark, the filler vocabulary fit and
//! the measured vs paper Table 2 statistics, so generator parameters can
//! be tuned.
//!
//! The fit table recomputes each spec's vocabulary size with the
//! bisection and prints it beside the pinned `vocab_size`, with the
//! filler's target and achieved unique-word counts and the master size
//! the bisection is bounded by.
//!
//! ```sh
//! cargo run --release -p rtdc-bench --bin calibrate [bench]
//! ```

use rtdc_bench::args::Cli;
use rtdc_bench::experiments::{pct, table2_row};
use rtdc_sim::SimConfig;
use rtdc_workloads::idioms::{calibrate_vocab_size, CodeSampler};
use rtdc_workloads::vocab::Vocabulary;
use rtdc_workloads::{all_benchmarks, filler_target, BenchmarkSpec};

const CLI: Cli = Cli {
    usage: "usage: calibrate [BENCH]",
    values: "",
    switches: "",
    operands: 0..=1,
};

/// Prints one spec's fit row.
fn fit_row(spec: &BenchmarkSpec) {
    let target = filler_target(spec);
    let master_size = target.master_size();
    let recomputed = calibrate_vocab_size(spec.seed, target);
    let master = Vocabulary::generate(spec.seed, master_size);
    let achieved =
        CodeSampler::count_uniques(spec.seed, master.prefix(spec.vocab_size), target.emissions);
    println!(
        "{:<12} {:>9} {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} {:>10}",
        spec.name,
        target.emissions,
        target.uniques,
        achieved,
        pct(achieved as f64 / target.uniques as f64),
        master_size,
        spec.vocab_size,
        pct(spec.vocab_size as f64 / master_size as f64),
        recomputed,
    );
}

fn main() {
    let cfg = SimConfig::hpca2000_baseline();
    let args = CLI.from_env();
    let only = args.operands().first();
    let specs: Vec<BenchmarkSpec> = all_benchmarks()
        .into_iter()
        .filter(|s| only.is_none_or(|f| s.name == f))
        .collect();

    println!(
        "{:<12} {:>9} {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} {:>10}",
        "bench", "filler", "target", "achieved", "ach%", "master", "pinned", "pin%", "recomputed"
    );
    for spec in &specs {
        fit_row(spec);
    }
    println!();

    println!(
        "{:<12} {:>9} {:>9} | {:>7} {:>7} | {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6}",
        "bench",
        "dyn(K)",
        "origKB",
        "miss%",
        "paper%",
        "dict%",
        "paper",
        "cp%",
        "paper",
        "lz%",
        "paper"
    );
    for spec in &specs {
        let t0 = std::time::Instant::now();
        let row = table2_row(spec, cfg);
        println!(
            "{:<12} {:>9} {:>9} | {:>7} {:>7} | {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6}   ({:.1}s)",
            row.name,
            row.dynamic_insns / 1000,
            row.original_bytes / 1024,
            pct(row.miss_ratio),
            pct(spec.paper.miss_ratio_16k),
            pct(row.schemes[0].ratio),
            pct(spec.paper.dict_ratio),
            pct(row.schemes[1].ratio),
            pct(spec.paper.codepack_ratio),
            pct(row.lzrw1_ratio),
            pct(spec.paper.lzrw1_ratio),
            t0.elapsed().as_secs_f64(),
        );
    }
}
