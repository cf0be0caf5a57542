//! `simperf` — simulator-throughput baseline (sim-MIPS).
//!
//! Runs every benchmark analog natively and under every registered
//! scheme (both handler variants), then prints a JSON report
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
use rtdc_bench::args::Cli;
use rtdc_bench::experiments::{build_and_run, Runner};
use rtdc_bench::jobs::{parallel_map, resolve_jobs};
use rtdc_bench::planopt::optimized_plan_cached;
use rtdc_sim::json::ObjWriter;
use rtdc_sim::trace::StallCause;
use rtdc_sim::{SimConfig, StallBreakdown, Stats};
use rtdc_workloads::{all_benchmarks, BenchmarkSpec};

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
        for cause in StallCause::ALL {
            self.stalls.add(cause, other.stalls.get(cause));
        }
    }
}

/// One report row; both passes run [`Row::all`] in order.
#[derive(Clone)]
enum Row {
    /// An image family, run plainly.
    Image(ImageSpec),
    /// Native with block translation off: the single-step interpreter
    /// reference, so the translation engine's speedup is in the report.
    NativeInterp,
    /// A uniform image under the `--verify-lines` runner: identical
    /// simulated stats, but the runner single-steps, so its sim-MIPS
    /// delta vs the plain row is the block engine's speedup plus the
    /// fill checks, not the checks alone (compare `native` against
    /// `native-interp` for the engine's part).
    VerifyLines(ImageSpec),
    /// The closed-loop optimizer's plan at the default 10%-of-text
    /// native budget, computed once per benchmark × scheme and cached;
    /// the measured run itself is plain and untraced.
    Optimized(Scheme),
}

impl Row {
    /// `native`, `native-interp`, then every registry scheme plain,
    /// `+rf`, `+vl` and `+plan`, in registry order.
    fn all() -> Vec<Row> {
        let mut rows = vec![Row::Image(ImageSpec::Native), Row::NativeInterp];
        for scheme in Scheme::all() {
            let plain = ImageSpec::Uniform { scheme, rf: false };
            rows.push(Row::Image(plain.clone()));
            rows.push(Row::Image(ImageSpec::Uniform { scheme, rf: true }));
            rows.push(Row::VerifyLines(plain));
            rows.push(Row::Optimized(scheme));
        }
        rows
    }

    fn label(&self) -> String {
        match self {
            Row::Image(image) => image.label(),
            Row::NativeInterp => "native-interp".to_string(),
            Row::VerifyLines(image) => format!("{}+vl", image.label()),
            Row::Optimized(scheme) => ImageSpec::plan_label(*scheme, false),
        }
    }

    fn run(&self, spec: &BenchmarkSpec, cfg: SimConfig) -> RunReport {
        let (image, cfg, runner): (ImageSpec, SimConfig, Runner) = match self {
            Row::Image(image) => (image.clone(), cfg, run_image),
            Row::NativeInterp => (ImageSpec::Native, cfg.with_translation(false), run_image),
            Row::VerifyLines(image) => (image.clone(), cfg, run_image_verified),
            Row::Optimized(scheme) => {
                let plan = optimized_plan_cached(spec, *scheme, false, cfg);
                (ImageSpec::Plan((*plan).clone()), cfg, run_image)
            }
        };
        build_and_run(spec, &image, cfg, runner).1
    }
}

fn json_row(c: &Cell) -> String {
    let m = &c.metrics;
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
    let mut w = ObjWriter::new();
    w.str("name", c.name)
        .str("scheme", &c.scheme)
        .u64("insns", c.insns)
        .f64("wall_secs", c.wall.as_secs_f64(), 4)
        .f64("sim_mips", c.mips, 2)
        .u64("cycles", m.cycles)
        .f64("handler_share", handler_share, 4)
        .f64("exc_per_kinsn", exc_per_kinsn, 3);
    for cause in StallCause::ALL {
        w.u64(&format!("stall_{}", cause.name()), m.stalls.get(cause));
    }
    w.finish()
}

/// Simulated instructions per host second, in millions (0 for no time).
fn mips(insns: u64, wall: Duration) -> f64 {
    match wall.as_secs_f64() {
        secs if secs > 0.0 => insns as f64 / secs / 1e6,
        _ => 0.0,
    }
}

/// A JSON array with one row per line.
fn json_rows(cells: &[Cell]) -> String {
    let rows: Vec<String> = cells.iter().map(json_row).collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

/// Runs one cell `repeat` times and returns it with the median
/// wall-clock (and the sim-MIPS recomputed from it). The simulated side
/// is deterministic, so stats must agree exactly across repeats — any
/// divergence is a simulator bug worth crashing on. Returns the program
/// output alongside for cross-scheme comparison.
fn run_cell_median(
    spec: &BenchmarkSpec,
    row: &Row,
    cfg: SimConfig,
    repeat: usize,
) -> (Cell, Vec<u8>) {
    let label = row.label();
    let first = row.run(spec, cfg);
    let mut walls = vec![first.wall];
    for _ in 1..repeat {
        let r = row.run(spec, cfg);
        assert_eq!(
            r.stats, first.stats,
            "{} {label}: nondeterministic stats across repeats",
            spec.name
        );
        walls.push(r.wall);
    }
    walls.sort();
    let wall = walls[walls.len() / 2];
    let insns = first.stats.insns;
    let cell = Cell {
        name: spec.name,
        scheme: label,
        insns,
        wall,
        mips: mips(insns, wall),
        metrics: Metrics::from_stats(&first.stats),
    };
    (cell, first.output)
}

const CLI: Cli = Cli {
    usage: "usage: simperf [--repeat N] [--jobs N] > BENCH_sim.json",
    values: "repeat jobs",
    switches: "",
    operands: 0..=0,
};

fn main() {
    let args = CLI.from_env();
    let jobs = args.num("jobs").and_then(resolve_jobs);
    let (repeat, jobs) = match (args.num::<usize>("repeat"), jobs) {
        (Ok(repeat), Ok(jobs)) => (repeat.unwrap_or(3).max(1), jobs),
        (Err(e), _) | (_, Err(e)) => CLI.fail(e),
    };
    let cfg = SimConfig::hpca2000_baseline();
    let rows = Row::all();
    let mut cells: Vec<Cell> = Vec::new();

    // Serial pass: the sim-MIPS baseline proper (median of `repeat`
    // runs per cell).
    for spec in all_benchmarks() {
        // Every row's output must match the first, native row's.
        let (native, native_output) = run_cell_median(&spec, &rows[0], cfg, repeat);
        cells.push(native);
        for row in &rows[1..] {
            let (cell, output) = run_cell_median(&spec, row, cfg, repeat);
            assert_eq!(
                output, native_output,
                "{} {}: diverged",
                spec.name, cell.scheme
            );
            cells.push(cell);
        }
        eprintln!("{}: done", spec.name);
    }

    // Per-scheme aggregates (total simulated work / total host time).
    let totals: Vec<Cell> = rows
        .iter()
        .map(|row| {
            let label = row.label();
            let (mut insns, mut wall) = (0u64, Duration::ZERO);
            let mut metrics = Metrics::default();
            for c in cells.iter().filter(|c| c.scheme == label) {
                insns += c.insns;
                wall += c.wall;
                metrics.accumulate(&c.metrics);
            }
            Cell {
                name: "all",
                scheme: label,
                insns,
                wall,
                mips: mips(insns, wall),
                metrics,
            }
        })
        .collect();

    // Parallel pass: the same work items fanned out across workers; one
    // aggregate measures end-to-end wall-clock scaling.
    let work: Vec<(BenchmarkSpec, Row)> = all_benchmarks()
        .into_iter()
        .flat_map(|spec| rows.iter().map(move |row| (spec, row.clone())))
        .collect();
    eprintln!("parallel pass ({jobs} jobs, {} runs)...", work.len());
    let t0 = Instant::now();
    let par_cells = parallel_map(&work, jobs, |(spec, row)| {
        run_cell_median(spec, row, cfg, 1).0
    });
    let par_wall = t0.elapsed();
    let par_insns: u64 = par_cells.iter().map(|c| c.insns).sum();

    let parallel = ObjWriter::new()
        .u64("jobs", jobs as u64)
        .u64("runs", work.len() as u64)
        .f64("wall_secs", par_wall.as_secs_f64(), 4)
        .u64("insns", par_insns)
        .f64("sim_mips", mips(par_insns, par_wall), 2)
        .finish();
    let report = ObjWriter::new()
        .str(
            "note",
            "sim-MIPS baseline; wall-clock numbers are host-dependent",
        )
        .str(
            "config",
            "hpca2000_baseline (16KB I-cache, decode cache on, block translation on)",
        )
        .u64("repeat", repeat as u64)
        .raw("schemes", &json_rows(&totals))
        .raw("parallel", &parallel)
        .raw("benchmarks", &json_rows(&cells))
        .finish();
    println!("{report}");
}
