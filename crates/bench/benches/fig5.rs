//! Figure 5 — "Selective compression" size/speed curves.
//!
//! For every benchmark, four series — dictionary vs CodePack crossed with
//! execution-based vs miss-based selection — sweeping the paper's
//! thresholds (5%, 10%, 15%, 20%, 50% of the profiled metric) between the
//! fully-compressed and fully-native endpoints. Each data point prints the
//! resulting compression ratio (x-axis) and slowdown vs native (y-axis).
//!
//! Benchmarks fan out across worker threads (`--jobs N` / `RTDC_JOBS`,
//! default: available parallelism); each benchmark's block of lines is
//! built by its worker and printed in benchmark order, so the output is
//! byte-identical for any job count.

use std::fmt::Write as _;

use rtdc::prelude::*;
use rtdc_bench::experiments::{build_and_run, MAX_INSNS};
use rtdc_bench::jobs::{jobs_from_env, parallel_map};
use rtdc_sim::SimConfig;
use rtdc_workloads::{all_benchmarks, generate_cached, BenchmarkSpec};

const THRESHOLDS: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.50];

fn bench_block(spec: &BenchmarkSpec, cfg: SimConfig) -> String {
    let program = generate_cached(spec);
    let n = program.procedures.len();
    let (native_report, profile) = profile_native(&program, cfg, MAX_INSNS).expect("profile run");
    let native_cycles = native_report.stats.cycles as f64;

    let mut out = String::new();
    writeln!(
        out,
        "--- {} (paper: D {:.2}x, CP {:.2}x fully compressed) ---",
        spec.name, spec.paper.slowdown_d, spec.paper.slowdown_cp
    )
    .expect("write to string");
    for scheme in Scheme::paper_schemes() {
        for strategy in [SelectBy::Execution, SelectBy::Miss] {
            let mut points: Vec<(f64, f64, usize)> = Vec::new();
            let mut selections = vec![Selection::all_compressed(n)];
            selections.extend(
                THRESHOLDS
                    .iter()
                    .map(|&t| Selection::by_profile(&profile, strategy, t)),
            );
            selections.push(Selection::all_native(n));
            for sel in &selections {
                let plan = CompressionPlan::uniform(scheme, false, PlanSource::Heuristic, sel);
                let (image, report) = build_and_run(spec, &ImageSpec::Plan(plan), cfg, run_image);
                assert_eq!(
                    report.output, native_report.output,
                    "{} {scheme:?} {strategy}: diverged",
                    spec.name
                );
                points.push((
                    image.sizes.compression_ratio(),
                    report.stats.cycles as f64 / native_cycles,
                    sel.native_count(),
                ));
            }
            let series: Vec<String> = points
                .iter()
                .map(|(r, s, k)| format!("{:>5.1}%->{:>5.2}x[{k}]", 100.0 * r, s))
                .collect();
            writeln!(
                out,
                "{:>2} {:<5} {}",
                scheme.label(),
                strategy.to_string(),
                series.join("  ")
            )
            .expect("write to string");
        }
    }
    out
}

fn main() {
    let cfg = SimConfig::hpca2000_baseline();
    println!("== Figure 5: selective compression size/speed curves ==");
    println!("(each point: compression ratio % -> slowdown vs native)\n");

    let specs = all_benchmarks();
    for block in parallel_map(&specs, jobs_from_env(), |spec| bench_block(spec, cfg)) {
        println!("{block}");
    }
    println!("Shape checks: curves run from fully-compressed (left, slow) to native");
    println!("(right, 1.0x); miss-based selection dominates execution-based for the");
    println!("loop-oriented benchmarks (mpeg2enc, pegwit); occasional non-monotone");
    println!("points are the procedure-placement effect the paper reports (§5.3).");
}
