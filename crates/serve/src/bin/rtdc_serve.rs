//! `rtdc-serve` — the build-and-run daemon.
//!
//! ```sh
//! rtdc-serve <socket-path> [--threads N] [--cache-mb N] [--max-insns N]
//!            [--cache-dir PATH] [--max-queue N]
//! rtdc-serve --metrics-dump <socket-path>
//! ```
//!
//! Binds a Unix domain socket and serves newline-delimited JSON requests
//! until a client sends `{"op":"shutdown"}` (or the process is killed;
//! the socket file is unlinked on orderly teardown). Protocol and cache
//! semantics live in the `rtdc_serve` library — this bin is argument
//! parsing and a join.
//!
//! The daemon writes a structured nd-JSON log to stderr (one object per
//! line); `RTDC_LOG` selects the level (`off`, `error`, `warn`, `info`,
//! `debug`, `trace`; default `info`). `--metrics-dump` is a client
//! mode: it connects to a *running* daemon, fetches one telemetry
//! snapshot, and prints it to stdout in the Prometheus text exposition
//! format — the glue for external scrapers and cron jobs.
//!
//! Examples:
//!
//! ```sh
//! rtdc-serve /tmp/rtdc.sock --threads 8 --cache-mb 128 &
//! printf '%s\n' '{"op":"run","bench":"sort","scheme":"d+rf"}' | nc -U /tmp/rtdc.sock
//! rtdc-serve --metrics-dump /tmp/rtdc.sock
//! printf '%s\n' '{"op":"stats"}' '{"op":"shutdown"}' | nc -U /tmp/rtdc.sock
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rtdc_bench::args::Cli;
use rtdc_obs::log::{self, Level};
use rtdc_serve::client::Client;
use rtdc_serve::json::Json;
use rtdc_serve::server::{ServeConfig, Server};

const CLI: Cli = Cli {
    usage: "usage: rtdc-serve <socket-path> [--threads N] [--cache-mb N] [--max-insns N] [--cache-dir PATH] [--max-queue N]\n       rtdc-serve --metrics-dump <socket-path>",
    values: "threads cache-mb max-insns max-queue cache-dir",
    switches: "metrics-dump",
    operands: 1..=1,
};

/// Client mode: fetch one Prometheus-text snapshot from a running
/// daemon and print it.
fn metrics_dump(path: &Path) -> Result<(), String> {
    let mut client =
        Client::connect(path).map_err(|e| format!("{}: connect: {e}", path.display()))?;
    let resp = client
        .request(r#"{"op":"metrics","format":"text"}"#)
        .map_err(|e| format!("{}: metrics: {e}", path.display()))?;
    let text = resp
        .get("text")
        .and_then(Json::as_str)
        .ok_or_else(|| "unexpected metrics response: missing `text`".to_string())?;
    print!("{text}");
    Ok(())
}

fn run() -> Result<(), String> {
    let args = CLI.from_env();
    let path = PathBuf::from(&args.operands()[0]);
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        threads: args
            .num("threads")?
            .map_or(defaults.threads, |n: usize| n.max(1)),
        cache_bytes: match args.num::<u64>("cache-mb")? {
            None => defaults.cache_bytes,
            Some(mb) => mb
                .checked_mul(1 << 20)
                .ok_or_else(|| format!("bad --cache-mb `{mb}` (above 2^64 bytes)"))?,
        },
        max_insns: args.num("max-insns")?.unwrap_or(defaults.max_insns),
        max_queue: args
            .num("max-queue")?
            .map_or(defaults.max_queue, |n: u64| n.max(1)),
        cache_dir: args.opt("cache-dir").map(PathBuf::from),
        ..defaults
    };
    if args.has("metrics-dump") {
        return metrics_dump(&path);
    }
    log::init(Level::Info);
    let server =
        Server::start(&path, config.clone()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "rtdc-serve: listening on {} ({} workers, {} MiB cache{})",
        path.display(),
        config.threads,
        config.cache_bytes >> 20,
        config
            .cache_dir
            .as_ref()
            .map_or(String::new(), |d| format!(", store {}", d.display())),
    );
    server.join();
    eprintln!("rtdc-serve: shut down");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rtdc-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
