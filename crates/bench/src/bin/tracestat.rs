//! `tracestat` — analyze a JSONL trace produced by `rtdc-run --trace`.
//!
//! Usage: `tracestat <trace.jsonl> [--line-bytes N]`
//!
//! Everything printed is derived from the trace file alone: folded
//! statistics, the cycle-overhead breakdown, I-line reuse, the
//! miss-interval histogram, and per-procedure decompression cost.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use rtdc_bench::analyze;
use rtdc_bench::args::Cli;

const CLI: Cli = Cli {
    usage: "usage: tracestat <trace.jsonl> [--line-bytes N]",
    values: "line-bytes",
    switches: "",
    operands: 1..=1,
};

fn run() -> Result<(), String> {
    let args = CLI.from_env();
    let path = args.operands()[0].as_str();
    let line_bytes: u32 = args.num("line-bytes")?.unwrap_or(32);
    if !line_bytes.is_power_of_two() {
        return Err("--line-bytes must be a power of two".into());
    }
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = analyze::parse_trace(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let analysis = analyze::analyze(&trace, line_bytes);
    print!("{}", analyze::report(&analysis));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tracestat: {e}");
            ExitCode::FAILURE
        }
    }
}
