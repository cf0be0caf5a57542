//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|serve-hot|serve-churn --seed N --seconds N --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-golden \
//!     > perfbench/golden/suite.jsonl
//! ```
//!
//! Run from the repository root. Prints the run conditions, every metric
//! by name with its unit, and the checks, then as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). With `--trace 1` the spans are written to
//! `perfbench/out/spans-<workload>.jsonl`.

mod report;
mod serve;
mod speed;
mod suite;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::{Outcome, END_TO_END, PER_LAYER};
use serve::Mix;
use trace::Tracer;

/// The workloads.
pub const WORKLOADS: [&str; 3] = ["suite", "serve-hot", "serve-churn"];

/// The workloads `BENCHMARK.json` lists, in its order. `serve-churn`
/// runs by hand only: its time goes to builds, fsync'd spills, file
/// reads and checksums, which the shared host slows unlike the rest, so
/// its figures spread by 12% or more between runs even when scaled.
pub const MEASURED: [&str; 2] = ["suite", "serve-hot"];

/// Where sockets, stores and span files go (relative to the repository
/// root, like every path here).
pub const OUT_DIR: &str = "perfbench/out";

const USAGE: &str = "usage: perfbench --workload suite|serve-hot|serve-churn --seed N --seconds N --trace 0|1\n       perfbench --write-golden";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--write-golden"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1) as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unexpected argument `{flag}`")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// The commit of the checkout, when it is a git work tree of its own.
fn commit() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd
        .as_ref()
        .and_then(|d| d.parent())
        .map(|p| p.to_path_buf());
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(c) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Result<(Outcome, String), String> {
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut out = Outcome::default();
    let (clients, connections, pool, budget, keyset) = match args.workload {
        "suite" => {
            suite::run(args.seed, args.seconds, args.trace, &mut out, &mut tracer);
            (1, 0, 0, 0, 0)
        }
        w => {
            let mix = if w == "serve-hot" {
                Mix::Hot
            } else {
                Mix::Churn
            };
            let c = serve::run(
                mix,
                args.seed,
                args.seconds,
                args.trace,
                &mut out,
                &mut tracer,
            )?;
            let n = serve::CLIENTS;
            (
                n,
                n,
                serve::POOL_THREADS,
                c.cache_budget_bytes,
                c.keyset_bytes,
            )
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conditions = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"client_threads\":{clients},\"connections\":{connections},\"pool_threads\":{pool},\
         \"cache_budget_bytes\":{budget},\"keyset_bytes\":{keyset},\"profile\":\"{}\",\"commit\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        commit(),
    );
    if args.trace {
        let path = std::path::Path::new(OUT_DIR).join(format!("spans-{}.jsonl", args.workload));
        trace::write_jsonl(tracer.spans(), &conditions, &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Ok((out, conditions))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match suite::write_golden() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (out, conditions) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("conditions: {conditions}");
    for (name, value) in &out.metrics {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u);
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    println!(
        "failed_share: {} ({} failed of {} attempted)",
        out.failed_share(),
        out.failed,
        out.attempted
    );
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "{}",
        out.result_line(if args.trace { PER_LAYER } else { END_TO_END })
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve-hot", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload suite --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload suite --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--write-golden")).unwrap().is_none());
    }
}
