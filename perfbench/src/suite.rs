//! `suite`: the paper's experiment loop as a batch, no daemon.
//!
//! Every paper analog × every uniform label is built, loaded and run to
//! completion, in a seeded cell order, pass after pass. The simulator
//! does most of the work here, so simulator changes show; serving is
//! bypassed, so protocol and cache changes should not.

use std::collections::BTreeMap;
use std::time::Instant;

use rtdc::prelude::*;
use rtdc_isa::program::ObjectProgram;
use rtdc_rng::Rng64;
use rtdc_serve::json::{self, Json};
use rtdc_serve::protocol::{parse_stats, stats_json};
use rtdc_sim::Stats;
use rtdc_workloads::{all_benchmarks, generate, generate_cached, BenchmarkSpec, Style};

use crate::report::{geomean, interquartile_mean, median, percentile, sim_groups, Outcome};
use crate::speed::{self, Sample};
use crate::trace::{self, Tracer};

/// The uniform image families: native plus every scheme with and
/// without the second register file.
pub const LABELS: [&str; 9] = [
    "native", "d", "d+rf", "cp", "cp+rf", "d2", "d2+rf", "lz", "lz+rf",
];

/// Instruction limit per run (the experiment harnesses' limit).
pub const MAX_INSNS: u64 = 2_000_000_000;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The golden values every cell's result must equal, next to this file.
const GOLDEN: &str = include_str!("../golden/suite.jsonl");

/// Builds `program` as the uniform image `label`, exactly as the daemon
/// does for a `build` request without a plan.
pub fn build(program: &ObjectProgram, label: &str) -> Result<MemoryImage, BuildError> {
    if label == "native" {
        return build_native(program);
    }
    let (scheme, rf) = Scheme::parse(label).expect("LABELS are registry schemes");
    let plan = CompressionPlan::uniform(
        scheme,
        rf,
        PlanSource::Heuristic,
        &Selection::all_compressed(program.procedures.len()),
    );
    build_planned(program, &plan)
}

/// One cell's result, as checked against the golden file.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// Program exit code.
    pub exit_code: u32,
    /// CRC32 of the program output.
    pub output_crc32: u32,
    /// Every simulated statistic.
    pub stats: Stats,
}

/// Renders one golden line.
pub fn golden_line(bench: &str, label: &str, g: &Golden) -> String {
    format!(
        "{{\"bench\":\"{bench}\",\"label\":\"{label}\",\"exit_code\":{},\"output_crc32\":{},\"stats\":{}}}",
        g.exit_code,
        g.output_crc32,
        stats_json(&g.stats)
    )
}

/// Parses the golden file into `(bench, label) → Golden`.
pub fn parse_golden(text: &str) -> Result<BTreeMap<(String, String), Golden>, String> {
    let mut map = BTreeMap::new();
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let v = json::parse(line).map_err(|e| format!("golden line {}: {e}", i + 1))?;
        let s = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let n = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .and_then(|n| u32::try_from(n).ok())
        };
        let (Some(bench), Some(label), Some(exit_code), Some(output_crc32), Some(stats)) = (
            s("bench"),
            s("label"),
            n("exit_code"),
            n("output_crc32"),
            v.get("stats").and_then(parse_stats),
        ) else {
            return Err(format!("golden line {}: missing field", i + 1));
        };
        map.insert(
            (bench, label),
            Golden {
                exit_code,
                output_crc32,
                stats,
            },
        );
    }
    Ok(map)
}

/// Whether `spec` is one of the I-miss-heavy call walkers (cc1, go,
/// vortex) or one of the loop kernels.
pub fn style_class(spec: &BenchmarkSpec) -> Option<&'static str> {
    match spec.style {
        Style::Walker { .. } => Some("imiss_heavy"),
        Style::LoopKernel { .. } => Some("loop_heavy"),
        _ => None,
    }
}

/// One cell's measurements.
struct Cell {
    req: u64,
    bench: &'static str,
    label: &'static str,
    class: Option<&'static str>,
    build_s: f64,
    load_run_s: f64,
    wall_s: f64,
    /// The host's slowness right after the cell.
    slow: f64,
    size_ratio: f64,
    exit_code: u32,
    stats: Stats,
    output: Vec<u8>,
}

/// Builds, verifies, loads and runs one cell, one span per call, then
/// measures the host's speed.
fn run_cell(
    t: &mut Tracer,
    req: u64,
    spec: &BenchmarkSpec,
    label: &'static str,
) -> Result<Cell, String> {
    let cfg = SimConfig::hpca2000_baseline();
    let t0 = Instant::now();
    let mut cell = t.span("cell", req, |t| -> Result<Cell, String> {
        let program = t.span("generate_cached", req, |_| generate_cached(spec));
        let name = if label == "native" {
            "build_native"
        } else {
            "build_planned"
        };
        let image = t
            .span(name, req, |_| build(&program, label))
            .map_err(|e| format!("{} {label}: build: {e}", spec.name))?;
        let t1 = Instant::now();
        t.span("verify_integrity", req, |_| image.verify_integrity())
            .map_err(|e| format!("{} {label}: verify: {e}", spec.name))?;
        let t2 = Instant::now();
        let mut m = t
            .span("load_image", req, |_| load_image(&image, cfg))
            .map_err(|e| format!("{} {label}: load: {e}", spec.name))?;
        let outcome = t
            .span("Machine::run", req, |_| m.run(MAX_INSNS))
            .map_err(|e| format!("{} {label}: run: {e}", spec.name))?;
        let t3 = Instant::now();
        Ok(Cell {
            req,
            bench: spec.name,
            label,
            class: style_class(spec),
            build_s: (t1 - t0).as_secs_f64(),
            load_run_s: (t3 - t2).as_secs_f64(),
            wall_s: (t3 - t0).as_secs_f64(),
            slow: 1.0,
            size_ratio: image.sizes.compression_ratio(),
            exit_code: outcome.exit_code,
            stats: *m.stats(),
            output: m.output().to_vec(),
        })
    })?;
    cell.slow = speed::slowness();
    Ok(cell)
}

/// The cells of one pass, in the order `rng` shuffles them to.
fn pass_order(specs: &[BenchmarkSpec], rng: &mut Rng64) -> Vec<(BenchmarkSpec, &'static str)> {
    let mut cells: Vec<(BenchmarkSpec, &'static str)> = specs
        .iter()
        .flat_map(|s| LABELS.iter().map(move |l| (*s, *l)))
        .collect();
    rng.shuffle(&mut cells);
    cells
}

/// Generates `specs` as one set-up step, timing each program on its
/// own; `cached` fills the process-wide program cache instead of
/// generating afresh.
pub fn generate_all(specs: &[BenchmarkSpec], cached: bool) -> Vec<Sample> {
    specs
        .iter()
        .map(|spec| {
            speed::timed(|| {
                if cached {
                    generate_cached(spec);
                } else {
                    std::hint::black_box(generate(spec));
                }
            })
            .1
        })
        .collect()
}

/// Generates every analog `SETUP_REPS` times and returns the median
/// scaled seconds. The first repetition fills the process-wide program
/// cache the cells read through `generate_cached`.
fn setup(specs: &[BenchmarkSpec]) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|rep| speed::scaled_total(&generate_all(specs, rep == 0)))
        .collect();
    median(&times)
}

/// Checks one pass: every cell equals its golden values, and every
/// cell's output equals the native output of its benchmark.
fn check_pass(cells: &[Cell], golden: &BTreeMap<(String, String), Golden>, out: &mut Outcome) {
    let native: BTreeMap<&str, &[u8]> = cells
        .iter()
        .filter(|c| c.label == "native")
        .map(|c| (c.bench, c.output.as_slice()))
        .collect();
    for c in cells {
        let got = Golden {
            exit_code: c.exit_code,
            output_crc32: rtdc::integrity::crc32(&c.output),
            stats: c.stats,
        };
        let want = golden.get(&(c.bench.to_string(), c.label.to_string()));
        let same_output = native
            .get(c.bench)
            .is_some_and(|n| *n == c.output.as_slice());
        if want != Some(&got) || !same_output {
            out.failed += 1;
            if out.failed <= 5 {
                out.problems.push(format!(
                    "{} {}: result differs from {}",
                    c.bench,
                    c.label,
                    if same_output {
                        "golden"
                    } else {
                        "native output"
                    }
                ));
            }
        }
    }
}

/// Compares the deterministic columns of `cells` with the rows of the
/// checked-in `BENCH_sim.json` for the same (benchmark, label). Returns
/// (rows compared, mismatches).
fn check_bench_sim(cells: &[Cell], text: &str) -> Result<(usize, Vec<String>), String> {
    let v = json::parse(text).map_err(|e| format!("BENCH_sim.json: {e}"))?;
    let Some(Json::Arr(rows)) = v.get("benchmarks") else {
        return Err("BENCH_sim.json: no `benchmarks` array".into());
    };
    let num = |row: &Json, k: &str| match row.get(k) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    };
    let mut mismatches = Vec::new();
    let mut compared = 0;
    for c in cells {
        let Some(row) = rows.iter().find(|r| {
            r.get("name").and_then(Json::as_str) == Some(c.bench)
                && r.get("scheme").and_then(Json::as_str) == Some(c.label)
        }) else {
            mismatches.push(format!("{} {}: no BENCH_sim.json row", c.bench, c.label));
            continue;
        };
        compared += 1;
        let s = &c.stats;
        let b = &s.stalls;
        let exact = [
            ("insns", s.insns),
            ("cycles", s.cycles),
            ("stall_imiss", b.imiss),
            ("stall_dmiss", b.dmiss),
            ("stall_branch", b.branch),
            ("stall_regjump", b.reg_jump),
            ("stall_loaduse", b.load_use),
            ("stall_hilo", b.hilo),
            ("stall_swic", b.swic),
            ("stall_exception", b.exception),
        ];
        let mut bad: Vec<&str> = exact
            .iter()
            .filter(|(k, want)| row.get(k).and_then(Json::as_u64) != Some(*want))
            .map(|(k, _)| *k)
            .collect();
        // The file rounds these two to 4 and 3 places.
        let share = if s.cycles == 0 {
            0.0
        } else {
            s.handler_cycles as f64 / s.cycles as f64
        };
        let exc = if s.insns == 0 {
            0.0
        } else {
            1000.0 * s.exceptions as f64 / s.insns as f64
        };
        if num(row, "handler_share").map(|n| format!("{n:.4}")) != Some(format!("{share:.4}")) {
            bad.push("handler_share");
        }
        if num(row, "exc_per_kinsn").map(|n| format!("{n:.3}")) != Some(format!("{exc:.3}")) {
            bad.push("exc_per_kinsn");
        }
        if !bad.is_empty() {
            mismatches.push(format!("{} {}: {}", c.bench, c.label, bad.join(",")));
        }
    }
    Ok((compared, mismatches))
}

/// Prints the golden file for the current simulator: one pass in
/// canonical order.
pub fn write_golden() -> Result<(), String> {
    let mut t = Tracer::new(false, Instant::now());
    for spec in all_benchmarks() {
        for label in LABELS {
            let c = run_cell(&mut t, 0, &spec, label)?;
            let g = Golden {
                exit_code: c.exit_code,
                output_crc32: rtdc::integrity::crc32(&c.output),
                stats: c.stats,
            };
            println!("{}", golden_line(c.bench, c.label, &g));
        }
    }
    Ok(())
}

/// Runs the workload for `seconds` (whole passes; at least one) and fills
/// `out`. With `traced`, one untraced pass comes first and gives the
/// tracing overhead; the traced passes give the per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome, tracer: &mut Tracer) {
    let specs = all_benchmarks();
    let setup_s = setup(&specs);
    out.set("setup_s", setup_s);
    out.set("workloads.generate_s", setup_s);

    let golden = match parse_golden(GOLDEN) {
        Ok(g) => g,
        Err(e) => {
            out.problems.push(e);
            BTreeMap::new()
        }
    };

    let mut rng = Rng64::seed_from_u64(seed);
    let start = Instant::now();
    let mut untraced_wall = None;
    let mut passes: Vec<Vec<Cell>> = Vec::new();
    let mut req = 0u64;
    let mut plain = Tracer::new(false, Instant::now());
    loop {
        let order = pass_order(&specs, &mut rng);
        let mut cells = Vec::with_capacity(order.len());
        let first_of_traced = traced && untraced_wall.is_none();
        let t = if first_of_traced {
            &mut plain
        } else {
            &mut *tracer
        };
        for (spec, label) in &order {
            out.attempted += 1;
            match run_cell(t, req, spec, label) {
                Ok(c) => cells.push(c),
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(e);
                }
            }
            req += 1;
        }
        check_pass(&cells, &golden, out);
        if first_of_traced {
            untraced_wall = Some(cells.iter().map(|c| c.wall_s).sum::<f64>());
        } else {
            passes.push(cells);
        }
        if start.elapsed().as_secs_f64() >= seconds && !passes.is_empty() {
            break;
        }
    }

    match std::fs::read_to_string("BENCH_sim.json") {
        Ok(text) => match check_bench_sim(&passes[0], &text) {
            Ok((compared, mismatches)) => {
                println!(
                    "BENCH_sim.json check: {compared} rows compared, {} mismatches",
                    mismatches.len()
                );
                for m in mismatches.iter().take(5) {
                    out.problems.push(format!("BENCH_sim.json: {m}"));
                }
            }
            Err(e) => out.problems.push(e),
        },
        Err(e) => out.problems.push(format!("BENCH_sim.json: {e}")),
    }

    // Throughput and latencies in seconds scaled to the nominal host
    // speed, cell by cell (the cells are in the order they ran).
    let all: Vec<&Cell> = passes.iter().flatten().collect();
    let pass_wall = |p: &Vec<Cell>| p.iter().map(|c| c.wall_s).sum::<f64>();
    let slow = speed::smooth(&all.iter().map(|c| c.slow).collect::<Vec<_>>());
    let scaled = |f: fn(&Cell) -> f64| -> Vec<f64> {
        all.iter().zip(&slow).map(|(c, s)| f(c) / s).collect()
    };
    let scaled_wall: f64 = scaled(|c| c.wall_s).iter().sum();
    let insns: u64 = all.iter().map(|c| c.stats.insns).sum();
    let build_ms: Vec<f64> = scaled(|c| c.build_s * 1e3);
    let run_ms: Vec<f64> = scaled(|c| c.load_run_s * 1e3);
    out.set("host.slowness", median(&slow));
    out.set("rps", all.len() as f64 / scaled_wall);
    out.set("suite_mips", insns as f64 / scaled_wall / 1e6);
    out.set("build_iqm_ms", interquartile_mean(&build_ms));
    out.set("build_p99_ms", percentile(&build_ms, 0.99));
    out.set("run_p50_ms", percentile(&run_ms, 0.50));
    out.set("run_p99_ms", percentile(&run_ms, 0.99));

    // Deterministic: one pass holds every cell exactly once.
    let first = &passes[0];
    let native_cycles: BTreeMap<&str, u64> = first
        .iter()
        .filter(|c| c.label == "native")
        .map(|c| (c.bench, c.stats.cycles))
        .collect();
    let compressed: Vec<&Cell> = first.iter().filter(|c| c.label != "native").collect();
    let slowdowns: Vec<f64> = compressed
        .iter()
        .filter_map(|c| Some(c.stats.cycles as f64 / *native_cycles.get(c.bench)? as f64))
        .collect();
    let ratios: Vec<f64> = compressed.iter().map(|c| c.size_ratio).collect();
    out.set("sim.slowdown", geomean(&slowdowns));
    out.set("builder.size_ratio", geomean(&ratios));
    let sum = |f: fn(&Stats) -> u64| first.iter().map(|c| f(&c.stats)).sum::<u64>() as f64;
    out.set(
        "sim.handler_share",
        sum(|s| s.handler_cycles) / sum(|s| s.cycles),
    );
    out.set(
        "sim.exc_per_kinsn",
        1000.0 * sum(|s| s.exceptions) / sum(|s| s.insns),
    );

    if !traced {
        return;
    }
    // Per-layer figures from the traced passes' spans.
    let by_req: BTreeMap<u64, &Cell> = all.iter().map(|c| (c.req, *c)).collect();
    let spans = tracer.spans();
    for (name, metric) in [
        ("verify_integrity", "integrity.verify_us.p50"),
        ("load_image", "runner.load_us.p50"),
    ] {
        out.set(metric, median(&trace::durations_us(spans, name)));
    }
    let mut builds = trace::durations_us(spans, "build_native");
    builds.extend(trace::durations_us(spans, "build_planned"));
    out.set("builder.build_us.p50", median(&builds));
    out.set("builder.builds", builds.len() as f64);
    let mut by_group: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "Machine::run") {
        let Some(c) = by_req.get(&s.req) else {
            continue;
        };
        for g in sim_groups(c.label, c.class) {
            let e = by_group.entry(g).or_default();
            e.0 += c.stats.insns;
            e.1 += s.dur_ns();
        }
    }
    for (name, (insns, ns)) in by_group {
        out.set(&name, insns as f64 / ns as f64 * 1e3);
    }
    out.set(
        "trace.unattributed_share",
        trace::unattributed_share(spans, "cell"),
    );
    let traced_wall = median(&passes.iter().map(pass_wall).collect::<Vec<_>>());
    if let Some(plain) = untraced_wall {
        out.set("trace.overhead_share", traced_wall / plain - 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_file_covers_every_cell_and_round_trips() {
        let golden = parse_golden(GOLDEN).expect("golden parses");
        assert_eq!(golden.len(), all_benchmarks().len() * LABELS.len());
        for ((bench, label), g) in &golden {
            assert!(LABELS.contains(&label.as_str()));
            let native = &golden[&(bench.clone(), "native".to_string())];
            assert_eq!(g.output_crc32, native.output_crc32, "{bench} {label}");
            assert_eq!(g.exit_code, native.exit_code, "{bench} {label}");
            let again = parse_golden(&golden_line(bench, label, g)).unwrap();
            assert_eq!(again.values().next(), Some(g));
        }
    }

    #[test]
    fn pass_order_is_seeded() {
        let specs = all_benchmarks();
        let names = |seed| -> Vec<(&str, &str)> {
            pass_order(&specs, &mut Rng64::seed_from_u64(seed))
                .iter()
                .map(|(s, l)| (s.name, *l))
                .collect()
        };
        assert_eq!(names(3), names(3));
        assert_ne!(names(3), names(4));
        assert_eq!(names(3).len(), specs.len() * LABELS.len());
    }
}
