//! `planopt` — the closed-loop plan optimizer, as a command.
//!
//! Runs the traced → analyze → re-plan → re-run loop on one benchmark
//! and prints the iteration history; optionally writes the winning plan
//! in the canonical `rtdc-plan v1` form, ready for `rtdc-run --plan`.
//!
//! ```sh
//! planopt --bench go --scheme d [--budget-pct 10] [--max-iters 8] [--emit go-d.plan]
//! ```
//!
//! `--scheme` takes a registry name with an optional `+rf` suffix
//! (`d`, `cp+rf`, ...). `--budget-pct` is the native-procedure byte
//! budget as a percentage of the original text size (default 10, the
//! middle of the paper's fig. 5 threshold range).

use std::process::ExitCode;

use rtdc::prelude::*;
use rtdc_bench::planopt::{budget_from_pct, optimize, PlanOptConfig};
use rtdc_sim::SimConfig;
use rtdc_workloads::{by_name, generate_cached};

struct Args {
    bench: String,
    scheme: Scheme,
    rf: bool,
    budget_pct: f64,
    max_iters: u32,
    emit: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = None;
    let mut scheme = None;
    let mut budget_pct = 10.0;
    let mut max_iters = PlanOptConfig::default().max_iters;
    let mut emit = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--bench" => bench = Some(value(i)?.to_string()),
            "--scheme" => scheme = Some(value(i)?.to_string()),
            "--budget-pct" => {
                let v = value(i)?;
                budget_pct = v.parse().map_err(|_| format!("bad --budget-pct `{v}`"))?
            }
            "--max-iters" => {
                let v = value(i)?;
                max_iters = v.parse().map_err(|_| format!("bad --max-iters `{v}`"))?
            }
            "--emit" => emit = Some(value(i)?.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    let bench = bench.ok_or("--bench is required")?;
    let label = scheme.ok_or("--scheme is required")?;
    let (scheme, rf) = Scheme::parse(&label)
        .ok_or_else(|| format!("unknown scheme `{label}` (try: d, d+rf, cp, cp+rf, d2, lz)"))?;
    Ok(Args {
        bench,
        scheme,
        rf,
        budget_pct,
        max_iters,
        emit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("planopt: {e}");
            eprintln!(
                "usage: planopt --bench <name> --scheme <scheme[+rf]> \
                 [--budget-pct N] [--max-iters N] [--emit FILE]"
            );
            return ExitCode::FAILURE;
        }
    };
    let Some(spec) = by_name(&args.bench) else {
        eprintln!("planopt: unknown benchmark `{}`", args.bench);
        return ExitCode::FAILURE;
    };

    let cfg = SimConfig::hpca2000_baseline();
    let program = generate_cached(&spec);
    let opt = PlanOptConfig {
        max_iters: args.max_iters,
        native_budget_bytes: budget_from_pct(&program, args.budget_pct),
        ..PlanOptConfig::default()
    };
    println!(
        "== planopt: {} under {} (native budget {} bytes = {:.0}% of text) ==",
        spec.name,
        args.scheme.name_rf(args.rf),
        opt.native_budget_bytes,
        args.budget_pct,
    );

    let result = match optimize(&program, args.scheme, args.rf, cfg, &opt) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("planopt: {e}");
            return ExitCode::FAILURE;
        }
    };

    let base = &result.iterations[0];
    for (i, it) in result.iterations.iter().enumerate() {
        println!(
            "iter {i}: cycles {:>9} ({:.3}x of iter 0)  handler {:>4.1}%  exc {:>6}  ratio {:>5.1}%  native procs {}",
            it.cycles,
            it.cycles as f64 / base.cycles as f64,
            100.0 * it.handler_cycles as f64 / it.cycles as f64,
            it.exceptions,
            100.0 * it.ratio,
            it.plan.native_count(),
        );
    }
    let best = &result.iterations[result.best];
    println!(
        "{} after {} iterations; best is iter {}: {:.1}% fewer cycles than all-compressed at {:.1}% ratio",
        if result.converged {
            "converged (fixed point)"
        } else {
            "stopped (iteration bound)"
        },
        result.iterations.len(),
        result.best,
        100.0 * (1.0 - best.cycles as f64 / base.cycles as f64),
        100.0 * best.ratio,
    );

    if let Some(path) = args.emit {
        if let Err(e) = std::fs::write(&path, result.plan.to_string()) {
            eprintln!("planopt: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote plan to {path}");
    }
    ExitCode::SUCCESS
}
