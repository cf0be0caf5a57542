//! Figure 4 — "Effect of I-cache miss ratio on execution time".
//!
//! Every benchmark is simulated with 4KB, 16KB and 64KB instruction
//! caches under (a) dictionary and (b) CodePack compression, with and
//! without the second register file. Each data point is the benchmark's
//! native-run miss ratio at that cache size against the compressed run's
//! slowdown — the scatter the paper plots.
//!
//! Benchmarks fan out across worker threads (`--jobs N` / `RTDC_JOBS`,
//! default: available parallelism); each benchmark's block of lines is
//! built by its worker and printed in benchmark order, so the output is
//! byte-identical for any job count.

use rtdc::prelude::*;
use rtdc_bench::experiments::{build_and_run, pct};
use rtdc_bench::jobs::{jobs_from_env, parallel_map};
use rtdc_sim::SimConfig;
use rtdc_workloads::{all_benchmarks, BenchmarkSpec};

/// One plotted point: a benchmark at one I-cache size.
struct Point {
    bench: &'static str,
    icache_kb: u32,
    miss_ratio: f64,
    /// Slowdown without and with the second register file.
    slowdown: [f64; 2],
}

impl Point {
    fn row(&self) -> String {
        format!(
            "{:<12} {:>5}K {:>12} {:>10.2} {:>10.2}",
            self.bench,
            self.icache_kb,
            pct(self.miss_ratio),
            self.slowdown[0],
            self.slowdown[1],
        )
    }

    fn name(&self) -> String {
        format!(
            "{} {}K ({:.2}%, {:.2}x)",
            self.bench,
            self.icache_kb,
            100.0 * self.miss_ratio,
            self.slowdown[0]
        )
    }
}

fn bench_points(spec: &BenchmarkSpec, scheme: Scheme, sizes: &[u32]) -> Vec<Point> {
    sizes
        .iter()
        .map(|&size| {
            let cfg = SimConfig::hpca2000_baseline().with_icache_size(size);
            let (_, native) = build_and_run(spec, &ImageSpec::Native, cfg, run_image);
            let base = native.stats.cycles as f64;
            let run =
                |rf| build_and_run(spec, &ImageSpec::Uniform { scheme, rf }, cfg, run_image).1;
            let (plain, rf) = (run(false), run(true));
            assert_eq!(plain.output, native.output, "{} {scheme:?}", spec.name);
            Point {
                bench: spec.name,
                icache_kb: size / 1024,
                miss_ratio: native.stats.imiss_ratio(),
                slowdown: [
                    plain.stats.cycles as f64 / base,
                    rf.stats.cycles as f64 / base,
                ],
            }
        })
        .collect()
}

/// One shape check's verdict: "holds", or every point that breaks it.
fn verdict(broken: Vec<String>) -> String {
    if broken.is_empty() {
        "holds".to_string()
    } else {
        format!("fails at {}", broken.join(", "))
    }
}

/// Figure 4's visual claims for one scheme, checked on its points (one
/// benchmark's points are consecutive, in ascending cache size). A
/// point breaks a slowdown check if either variant does.
fn shape_checks(label: &str, points: &[Point], limit: f64) -> [String; 3] {
    let slower = |a: &Point, b: &Point| (0..2).any(|v| a.slowdown[v] > b.slowdown[v]);
    let mut unordered = Vec::new();
    for a in points {
        for b in points {
            if a.miss_ratio < b.miss_ratio && slower(a, b) {
                unordered.push(format!("{} above {}", a.name(), b.name()));
            }
        }
    }
    let mut not_down_left = Vec::new();
    for bench in points.chunk_by(|a, b| a.bench == b.bench) {
        for pair in bench.windows(2) {
            let (small, big) = (&pair[0], &pair[1]);
            if big.miss_ratio > small.miss_ratio || slower(big, small) {
                not_down_left.push(big.name());
            }
        }
    }
    let over: Vec<String> = points
        .iter()
        .filter(|p| p.miss_ratio < 0.01 && p.slowdown.iter().any(|&s| s >= limit))
        .map(Point::name)
        .collect();
    [
        format!(
            "{label}: slowdown grows with miss ratio across the scatter: {}",
            verdict(unordered)
        ),
        format!(
            "{label}: bigger caches move every benchmark down and to the left: {}",
            verdict(not_down_left)
        ),
        format!(
            "{label}: below 1% miss ratio the slowdown stays under {limit}x: {}",
            verdict(over)
        ),
    ]
}

fn main() {
    println!("== Figure 4: Effect of I-cache miss ratio on execution time ==\n");
    let sizes = [4 * 1024u32, 16 * 1024, 64 * 1024];
    let specs = all_benchmarks();
    let jobs = jobs_from_env();

    let mut checks = Vec::new();
    for (i, scheme) in Scheme::paper_schemes().enumerate() {
        println!("({}) {}", (b'a' + i as u8) as char, scheme.long_name());
        println!(
            "{:<12} {:>6} {:>12} {:>10} {:>10}",
            "benchmark",
            "I$",
            "miss ratio",
            scheme.label(),
            format!("{}+RF", scheme.label())
        );
        let points: Vec<Point> =
            parallel_map(&specs, jobs, |spec| bench_points(spec, scheme, &sizes))
                .into_iter()
                .flatten()
                .collect();
        for p in &points {
            println!("{}", p.row());
        }
        println!();
        // The paper's bounds: the dictionary stays under ~2x and CodePack
        // under ~5x below a 1% miss ratio.
        let limit = if scheme == Scheme::Dictionary {
            2.0
        } else {
            5.0
        };
        checks.extend(shape_checks(scheme.label(), &points, limit));
    }
    println!("Shape checks (Figure 4's visual claims), computed from the rows above;");
    println!("a point is named by benchmark, I-cache, miss ratio and slowdown:");
    for check in checks {
        println!("  {check}");
    }
}
