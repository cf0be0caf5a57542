//! `simperf` — simulator-throughput baseline (sim-MIPS).
//!
//! Runs every benchmark analog natively and under every registered
//! scheme (both handler variants), then prints a hand-rolled JSON report
//! of simulated instructions, host wall-clock, and sim-MIPS (millions of
//! simulated instructions per host second) per scheme and per benchmark.
//!
//! Regenerate the checked-in baseline with:
//!
//! ```sh
//! cargo run --release -p rtdc-bench --bin simperf > BENCH_sim.json
//! ```
//!
//! The headline numbers come from a strictly serial pass — throughput
//! measured while other workers compete for the same cores would
//! understate the simulator. Each serial cell is run `--repeat N` times
//! (default: 3) and reports the **median** wall-clock, so a single
//! scheduling hiccup cannot skew a row; the simulated metrics are
//! deterministic and asserted identical across repeats. A second pass
//! then re-runs the same work fanned out across `--jobs N` workers
//! (default: available parallelism) and records the aggregate under
//! `"parallel"`, so the baseline also documents how harness fan-out
//! scales on the measurement host.

use std::time::{Duration, Instant};

use rtdc::prelude::*;
use rtdc_bench::experiments::{build_and_run, Runner};
use rtdc_bench::jobs::{jobs_from_env, parallel_map};
use rtdc_bench::planopt::optimized_plan_cached;
use rtdc_sim::{SimConfig, StallBreakdown, Stats};
use rtdc_workloads::{all_benchmarks, generate_cached, BenchmarkSpec};

struct Cell {
    name: &'static str,
    scheme: String,
    insns: u64,
    wall: Duration,
    mips: f64,
    /// Deterministic per-run metrics (unlike wall/mips these are
    /// host-independent, so `benchguard` can diff them exactly and
    /// attribute a sim-MIPS regression to a simulated phase).
    metrics: Metrics,
}

#[derive(Clone, Copy, Default)]
struct Metrics {
    cycles: u64,
    handler_cycles: u64,
    exceptions: u64,
    stalls: StallBreakdown,
}

impl Metrics {
    fn from_stats(s: &Stats) -> Metrics {
        Metrics {
            cycles: s.cycles,
            handler_cycles: s.handler_cycles,
            exceptions: s.exceptions,
            stalls: s.stalls,
        }
    }

    fn accumulate(&mut self, other: &Metrics) {
        self.cycles += other.cycles;
        self.handler_cycles += other.handler_cycles;
        self.exceptions += other.exceptions;
        let (a, b) = (&mut self.stalls, &other.stalls);
        a.imiss += b.imiss;
        a.dmiss += b.dmiss;
        a.branch += b.branch;
        a.reg_jump += b.reg_jump;
        a.load_use += b.load_use;
        a.hilo += b.hilo;
        a.swic += b.swic;
        a.exception += b.exception;
    }
}

/// `native`, then `native-interp` (the same native run with block
/// translation off — the single-step interpreter reference, so the
/// translation engine's speedup is documented in the report itself),
/// then every registry scheme plain, `+rf`, `+vl` (the
/// `--verify-lines` runner: identical simulated stats, host-side
/// per-fill CRC checks — its sim-MIPS delta vs the plain row is the
/// verification overhead), and `+plan` (the closed-loop optimizer's
/// plan at the default 10%-of-text native budget; the plan is computed
/// once per benchmark × scheme and cached, and the measured run itself
/// is plain and untraced), in registry order — the row set for both
/// passes.
fn scheme_labels() -> Vec<String> {
    let mut labels = vec!["native".to_string(), "native-interp".to_string()];
    for s in Scheme::all() {
        labels.push(s.name().to_string());
        labels.push(format!("{}+rf", s.name()));
        labels.push(format!("{}+vl", s.name()));
        labels.push(format!("{}+plan", s.name()));
    }
    labels
}

/// Runs one benchmark under one labeled scheme (`native`, a registry
/// name, `+rf`, or `+vl`) and returns the report.
fn run_labeled(spec: &BenchmarkSpec, label: &str, cfg: SimConfig) -> rtdc::runner::RunReport {
    if label == "native" {
        return build_and_run(spec, None, cfg, run_image).1;
    }
    if label == "native-interp" {
        return build_and_run(spec, None, cfg.with_translation(false), run_image).1;
    }
    if let Some(name) = label.strip_suffix("+plan") {
        let (scheme, rf) = Scheme::parse(name).expect("label came from the registry");
        let plan = optimized_plan_cached(spec, scheme, rf, cfg);
        let program = generate_cached(spec);
        let image = build_planned(&program, &plan).expect("planned build");
        return run_image(&image, cfg, rtdc_bench::experiments::MAX_INSNS).expect("planned run");
    }
    let (name, runner): (&str, Runner) = match label.strip_suffix("+vl") {
        Some(name) => (name, run_image_verified),
        None => (label, run_image),
    };
    let scheme = Scheme::parse(name).expect("label came from the registry");
    build_and_run(spec, Some(scheme), cfg, runner).1
}

/// Runs one benchmark under one labeled scheme and returns its cell.
fn run_cell(spec: &BenchmarkSpec, label: &str, cfg: SimConfig) -> Cell {
    let r = run_labeled(spec, label, cfg);
    Cell {
        name: spec.name,
        scheme: label.to_string(),
        insns: r.stats.insns,
        wall: r.wall,
        mips: r.sim_mips(),
        metrics: Metrics::from_stats(&r.stats),
    }
}

fn json_row(indent: &str, c: &Cell) -> String {
    let m = &c.metrics;
    let b = &m.stalls;
    let handler_share = if m.cycles == 0 {
        0.0
    } else {
        m.handler_cycles as f64 / m.cycles as f64
    };
    let exc_per_kinsn = if c.insns == 0 {
        0.0
    } else {
        1000.0 * m.exceptions as f64 / c.insns as f64
    };
    format!(
        "{indent}{{\"name\": \"{}\", \"scheme\": \"{}\", \"insns\": {}, \"wall_secs\": {:.4}, \"sim_mips\": {:.2}, \
         \"cycles\": {}, \"handler_share\": {handler_share:.4}, \"exc_per_kinsn\": {exc_per_kinsn:.3}, \
         \"stall_imiss\": {}, \"stall_dmiss\": {}, \"stall_branch\": {}, \"stall_regjump\": {}, \
         \"stall_loaduse\": {}, \"stall_hilo\": {}, \"stall_swic\": {}, \"stall_exception\": {}}}",
        c.name,
        c.scheme,
        c.insns,
        c.wall.as_secs_f64(),
        c.mips,
        m.cycles,
        b.imiss,
        b.dmiss,
        b.branch,
        b.reg_jump,
        b.load_use,
        b.hilo,
        b.swic,
        b.exception,
    )
}

/// `--repeat N` argument (default 3, clamped to at least 1): how many
/// times each serial cell is run; the row reports the median wall-clock.
fn repeat_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--repeat")
        .and_then(|w| w[1].parse::<usize>().ok())
        .unwrap_or(3)
        .max(1)
}

/// Runs one serial cell `repeat` times and returns it with the median
/// wall-clock (and the sim-MIPS recomputed from it). The simulated side
/// is deterministic, so stats must agree exactly across repeats — any
/// divergence is a simulator bug worth crashing on. Returns the program
/// output alongside for cross-scheme comparison.
fn run_cell_median(
    spec: &BenchmarkSpec,
    label: &str,
    cfg: SimConfig,
    repeat: usize,
) -> (Cell, Vec<u8>) {
    let first = run_labeled(spec, label, cfg);
    let mut walls = vec![first.wall];
    for _ in 1..repeat {
        let r = run_labeled(spec, label, cfg);
        assert_eq!(
            r.stats, first.stats,
            "{} {label}: nondeterministic stats across repeats",
            spec.name
        );
        walls.push(r.wall);
    }
    walls.sort();
    let wall = walls[walls.len() / 2];
    let secs = wall.as_secs_f64();
    let insns = first.stats.insns;
    let cell = Cell {
        name: spec.name,
        scheme: label.to_string(),
        insns,
        wall,
        mips: if secs > 0.0 {
            insns as f64 / secs / 1e6
        } else {
            0.0
        },
        metrics: Metrics::from_stats(&first.stats),
    };
    (cell, first.output)
}

fn main() {
    let cfg = SimConfig::hpca2000_baseline();
    let labels = scheme_labels();
    let repeat = repeat_from_args();
    let mut cells: Vec<Cell> = Vec::new();

    // Serial pass: the sim-MIPS baseline proper (median of `repeat`
    // runs per cell).
    for spec in all_benchmarks() {
        let (native, native_output) = run_cell_median(&spec, "native", cfg, repeat);
        cells.push(native);
        for label in labels.iter().filter(|l| *l != "native") {
            let (cell, output) = run_cell_median(&spec, label, cfg, repeat);
            assert_eq!(output, native_output, "{} {label}: diverged", spec.name);
            cells.push(cell);
        }
        eprintln!("{}: done", spec.name);
    }

    // Per-scheme aggregates (total simulated work / total host time).
    let totals: Vec<Cell> = labels
        .iter()
        .map(|label| {
            let (mut insns, mut wall) = (0u64, Duration::ZERO);
            let mut metrics = Metrics::default();
            for c in cells.iter().filter(|c| &c.scheme == label) {
                insns += c.insns;
                wall += c.wall;
                metrics.accumulate(&c.metrics);
            }
            let secs = wall.as_secs_f64();
            Cell {
                name: "all",
                scheme: label.clone(),
                insns,
                wall,
                mips: if secs > 0.0 {
                    insns as f64 / secs / 1e6
                } else {
                    0.0
                },
                metrics,
            }
        })
        .collect();

    // Parallel pass: the same work items fanned out across workers; one
    // aggregate measures end-to-end wall-clock scaling.
    let jobs = jobs_from_env();
    let work: Vec<(BenchmarkSpec, String)> = all_benchmarks()
        .into_iter()
        .flat_map(|spec| labels.iter().map(move |l| (spec, l.clone())))
        .collect();
    eprintln!("parallel pass ({jobs} jobs, {} runs)...", work.len());
    let t0 = Instant::now();
    let par_cells = parallel_map(&work, jobs, |(spec, label)| run_cell(spec, label, cfg));
    let par_wall = t0.elapsed();
    let par_insns: u64 = par_cells.iter().map(|c| c.insns).sum();
    let par_secs = par_wall.as_secs_f64();
    let par_mips = if par_secs > 0.0 {
        par_insns as f64 / par_secs / 1e6
    } else {
        0.0
    };

    println!("{{");
    println!("  \"note\": \"sim-MIPS baseline; wall-clock numbers are host-dependent\",");
    println!(
        "  \"config\": \"hpca2000_baseline (16KB I-cache, decode cache on, block translation on)\","
    );
    println!("  \"repeat\": {repeat},");
    println!("  \"schemes\": [");
    let rows: Vec<String> = totals.iter().map(|c| json_row("    ", c)).collect();
    println!("{}", rows.join(",\n"));
    println!("  ],");
    println!(
        "  \"parallel\": {{\"jobs\": {jobs}, \"runs\": {}, \"wall_secs\": {:.4}, \"insns\": {par_insns}, \"sim_mips\": {par_mips:.2}}},",
        work.len(),
        par_secs,
    );
    println!("  \"benchmarks\": [");
    let rows: Vec<String> = cells.iter().map(|c| json_row("    ", c)).collect();
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}
