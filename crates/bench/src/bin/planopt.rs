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
use rtdc_bench::args::Cli;
use rtdc_bench::planopt::{budget_from_pct, optimize, PlanOptConfig};
use rtdc_sim::SimConfig;
use rtdc_workloads::{by_name, generate_cached};

const CLI: Cli = Cli {
    usage: "usage: planopt --bench <name> --scheme <scheme[+rf]> \
            [--budget-pct N] [--max-iters N] [--emit FILE]",
    values: "bench scheme budget-pct max-iters emit",
    switches: "",
    operands: 0..=0,
};

fn run() -> Result<(), String> {
    let args = CLI.from_env();
    let (Some(bench), Some(label)) = (args.opt("bench"), args.opt("scheme")) else {
        return Err(format!("--bench and --scheme are required\n{}", CLI.usage));
    };
    let (scheme, rf) = Scheme::parse(label)
        .ok_or_else(|| format!("unknown scheme `{label}` (try: d, d+rf, cp, cp+rf, d2, lz)"))?;
    let budget_pct = args.num("budget-pct")?.unwrap_or(10.0);
    if !(0.0..=100.0).contains(&budget_pct) {
        return Err(format!("bad --budget-pct `{budget_pct}` (want 0 to 100)"));
    }
    let max_iters = args.num("max-iters")?;
    let spec = by_name(bench).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;

    let cfg = SimConfig::hpca2000_baseline();
    let program = generate_cached(&spec);
    let defaults = PlanOptConfig::default();
    let opt = PlanOptConfig {
        max_iters: max_iters.unwrap_or(defaults.max_iters),
        native_budget_bytes: budget_from_pct(&program, budget_pct),
        ..defaults
    };
    println!(
        "== planopt: {} under {} (native budget {} bytes = {:.0}% of text) ==",
        spec.name,
        scheme.name_rf(rf),
        opt.native_budget_bytes,
        budget_pct,
    );

    let result = optimize(&program, scheme, rf, cfg, &opt).map_err(|e| e.to_string())?;

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

    if let Some(path) = args.opt("emit") {
        std::fs::write(path, result.plan.to_string())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote plan to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("planopt: {e}");
            ExitCode::FAILURE
        }
    }
}
