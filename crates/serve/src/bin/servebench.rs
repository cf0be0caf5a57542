//! `servebench` — throughput and latency benchmark for `rtdc-serve`.
//!
//! ```sh
//! servebench [--clients N] [--reps N] [--out BENCH_serve.json] [--quick]
//! ```
//!
//! Starts an in-process daemon on a private socket and drives it with
//! `--clients` concurrent client threads through three phases:
//!
//! 1. **cold builds** — a zero-budget cache, so every `build` request
//!    lays the image out from scratch: the per-request-build baseline.
//! 2. **warm builds** — a real cache, pre-warmed, then the *same*
//!    request stream: every request is a verified cache hit. The
//!    headline metric is `build_speedup = warm_rps / cold_rps` — the
//!    build-once/serve-many economics the daemon exists for.
//! 3. **mixed runs** — `run` requests (cached builds + fresh
//!    simulations), recording requests/sec and daemon-side p50/p99
//!    latency.
//! 4. **restart recovery** — a disk-backed server is populated, torn
//!    down, and restarted on the same `--cache-dir`; `restart_hit_rate`
//!    is the warm hit rate of the replay (the persistence rung of the
//!    crash-safety story; gated at >= 0.8).
//! 5. **shed correctness** — a one-worker, queue-of-one server under
//!    `--clients`-way saturation; `shed_correctness` is the fraction of
//!    responses that are well-formed (`ok:true` or a typed
//!    `overloaded`), gated at 1.0: overload may slow clients down, but
//!    it must never hand them garbage.
//!
//! Latency is reported from the daemon's side: `build_p99_ms` and
//! `run_p50_daemon_ms`/`run_p99_daemon_ms` come from the daemon's own
//! `serve.op.<op>.us` histograms via the `metrics` op — pure handler
//! service time, no queue wait, quantiles as log2-bucket upper bounds
//! (conservative within 2x). `benchguard` gates them with `[serve_max]`
//! ceilings.
//!
//! Results land in `BENCH_serve.json` (schema: a flat `"serve"` array of
//! `{"metric": ..., "value": ...}` rows), which `benchguard` gates via
//! the `[serve_floors]` / `[serve_min]` / `[serve_max]` sections of
//! `benchguard.toml`. Wall-clock metrics are host-dependent; the gate
//! compares ratios against a checked-in baseline plus absolute bounds
//! (the ≥5x build speedup, loose latency ceilings), not raw numbers.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rtdc::plan::ImageSpec;
use rtdc_bench::args::Cli;
use rtdc_obs::HistogramSnapshot;
use rtdc_serve::client::{parse_histogram, request_line, Client};
use rtdc_serve::json::{Json, ObjWriter};
use rtdc_serve::server::{ServeConfig, Server};

/// The request workset: every tiny benchmark x every image family. Tiny
/// benchmarks are generated once per process (`generate_cached`), so the
/// cold phase measures image *layout* cost, not program generation.
const BENCHES: [&str; 3] = ["tiny-walker", "tiny-loop", "tiny-interp"];

const CLI: Cli = Cli {
    usage: "usage: servebench [--clients N] [--reps N] [--out FILE] [--quick]\n\
            (--quick runs 2 reps instead of 6; an explicit --reps wins)",
    values: "clients reps out",
    switches: "quick",
    operands: 0..=0,
};

/// Each client's request stream: `reps` passes over the full workset,
/// rotated per client so concurrent clients hit different keys at any
/// instant (maximum cache churn, no lockstep).
fn build_stream(client_id: usize, reps: usize, labels: &[String]) -> Vec<String> {
    let mut lines = Vec::new();
    for rep in 0..reps {
        for i in 0..BENCHES.len() {
            for j in 0..labels.len() {
                let rot = (i * labels.len() + j + client_id * 7 + rep * 3)
                    % (BENCHES.len() * labels.len());
                let b = BENCHES[rot / labels.len()];
                let l = &labels[rot % labels.len()];
                lines.push(request_line("build", b, l, None));
            }
        }
    }
    lines
}

/// Drives `clients` threads, each sending its stream. Returns (total
/// requests, wall).
fn drive(
    socket: &Path,
    clients: usize,
    streams: &[Vec<String>],
) -> Result<(u64, Duration), String> {
    let started = Instant::now();
    let results: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let stream = &streams[id];
                scope.spawn(move || {
                    let mut c = Client::connect(socket).map_err(|e| e.to_string())?;
                    for line in stream {
                        let resp = c.request_raw(line).map_err(|e| e.to_string())?;
                        if !resp.starts_with(r#"{"ok":true"#) {
                            return Err(format!("request `{line}` failed: {resp}"));
                        }
                    }
                    Ok(stream.len() as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall = started.elapsed();
    let mut total = 0;
    for r in results {
        total += r?;
    }
    Ok((total, wall))
}

fn start(socket: &Path, config: ServeConfig) -> Result<Server, String> {
    Server::start(socket, config).map_err(|e| format!("{}: {e}", socket.display()))
}

/// Builds every workset image once, in order, on one connection.
fn build_all(socket: &Path, labels: &[String], phase: &str) -> Result<(), String> {
    let mut c = Client::connect(socket).map_err(|e| e.to_string())?;
    for bench in BENCHES {
        for label in labels {
            let resp = c
                .request_raw(&request_line("build", bench, label, None))
                .map_err(|e| e.to_string())?;
            if !resp.starts_with(r#"{"ok":true"#) {
                return Err(format!("{phase} build failed: {resp}"));
            }
        }
    }
    Ok(())
}

fn cache_stats(socket: &Path) -> Result<(u64, u64, u64), String> {
    let mut c = Client::connect(socket).map_err(|e| e.to_string())?;
    let v = c.request(r#"{"op":"stats"}"#).map_err(|e| e.to_string())?;
    let cache = v.get("cache").ok_or("stats response missing `cache`")?;
    let f = |k: &str| {
        cache
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats cache missing `{k}`"))
    };
    Ok((f("lookups")?, f("hits")?, f("misses")?))
}

fn run() -> Result<(), String> {
    let args = CLI.from_env();
    let clients = args.num::<usize>("clients")?.unwrap_or(8).max(1);
    let default_reps = if args.has("quick") { 2 } else { 6 };
    let reps = args.num::<usize>("reps")?.unwrap_or(default_reps).max(1);
    let out_path = PathBuf::from(args.opt("out").unwrap_or("BENCH_serve.json"));
    let temp_dir = std::env::temp_dir();
    let temp = |name: &str| temp_dir.join(format!("rtdc-servebench-{}-{name}", std::process::id()));
    let labels: Vec<String> = ImageSpec::uniform_families().map(|s| s.label()).collect();
    let threads = rtdc_bench::jobs::resolve_jobs(None);
    let base = ServeConfig {
        threads,
        max_insns: 2_000_000_000,
        ..ServeConfig::default()
    };
    let streams: Vec<Vec<String>> = (0..clients)
        .map(|id| build_stream(id, reps, &labels))
        .collect();

    // Generation is memoized per process; do it before timing anything
    // so the cold phase measures layout, not program generation.
    eprintln!("servebench: generating worksets...");
    for bench in BENCHES {
        let spec = [
            rtdc_workloads::spec::tiny::walker(),
            rtdc_workloads::spec::tiny::loop_kernel(),
            rtdc_workloads::spec::tiny::interpreter(),
        ]
        .into_iter()
        .find(|s| s.name == bench)
        .expect("tiny spec");
        rtdc_workloads::generate_cached(&spec);
    }

    // Phase 1: cold — zero cache budget, every build is from scratch.
    eprintln!(
        "servebench: cold build phase ({} clients x {} requests)...",
        clients,
        streams[0].len()
    );
    let cold_socket = temp("cold.sock");
    let cold_server = start(
        &cold_socket,
        ServeConfig {
            cache_bytes: 0,
            ..base.clone()
        },
    )?;
    let (cold_reqs, cold_wall) = drive(&cold_socket, clients, &streams)?;
    drop(cold_server);
    let cold_rps = cold_reqs as f64 / cold_wall.as_secs_f64();

    // Phase 2: warm — real cache, pre-warmed, same stream.
    eprintln!("servebench: warm build phase...");
    let warm_socket = temp("warm.sock");
    let warm_server = start(
        &warm_socket,
        ServeConfig {
            cache_bytes: 256 << 20,
            ..base.clone()
        },
    )?;
    build_all(&warm_socket, &labels, "warmup")?;
    let (warm_reqs, warm_wall) = drive(&warm_socket, clients, &streams)?;
    let (lookups, hits, _misses) = cache_stats(&warm_socket)?;
    let warm_rps = warm_reqs as f64 / warm_wall.as_secs_f64();
    let hit_rate = hits as f64 / lookups.max(1) as f64;
    let build_speedup = warm_rps / cold_rps.max(1e-9);

    // Phase 3: mixed runs on the warm server (cached builds + fresh
    // simulations) for latency percentiles.
    eprintln!("servebench: run phase...");
    let run_streams: Vec<Vec<String>> = (0..clients)
        .map(|id| {
            let mut lines = Vec::new();
            for rep in 0..reps.min(3) {
                for (j, label) in labels.iter().enumerate() {
                    let b = BENCHES[(id + rep + j) % BENCHES.len()];
                    lines.push(request_line("run", b, label, None));
                }
            }
            lines
        })
        .collect();
    let (run_reqs, run_wall) = drive(&warm_socket, clients, &run_streams)?;
    // Daemon-side service-time histograms for the same workload,
    // fetched over the same protocol everyone else uses.
    let (build_us, run_us) = {
        let mut c = Client::connect(&warm_socket).map_err(|e| e.to_string())?;
        let resp = c.metrics().map_err(|e| e.to_string())?;
        let m = resp
            .get("metrics")
            .ok_or("metrics response missing `metrics`")?;
        let hist = |name: &str| -> Result<HistogramSnapshot, String> {
            m.get("histograms")
                .and_then(|h| h.get(name))
                .and_then(parse_histogram)
                .ok_or_else(|| format!("metrics missing histogram `{name}`"))
        };
        (hist("serve.op.build.us")?, hist("serve.op.run.us")?)
    };
    drop(warm_server);

    // Phase 4: restart recovery — populate a disk-backed server, tear
    // it down, restart on the same --cache-dir, replay. The metric is
    // the warm hit rate after restart: how much of the working set the
    // persistent store carried across the process boundary.
    eprintln!("servebench: restart recovery phase...");
    let store_dir = temp("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let restart_socket = temp("restart.sock");
    let disk_config = ServeConfig {
        cache_bytes: 256 << 20,
        cache_dir: Some(store_dir.clone()),
        ..base
    };
    let restart_hit_rate = {
        let gen1 = start(&restart_socket, disk_config.clone())?;
        build_all(&restart_socket, &labels, "restart-phase")?;
        drop(gen1); // process boundary stand-in: only the disk survives
        let gen2 = start(&restart_socket, disk_config)?;
        build_all(&restart_socket, &labels, "restart-phase")?;
        let (lookups, hits, _) = cache_stats(&restart_socket)?;
        drop(gen2);
        let _ = std::fs::remove_dir_all(&store_dir);
        hits as f64 / lookups.max(1) as f64
    };

    // Phase 5: shed correctness — a deliberately overloadable server
    // (one worker, no cache, queue of one). Every response under
    // saturation must be well-formed: `ok:true` or a typed
    // `overloaded`. The metric is that fraction; anything below 1.0
    // means a client saw a malformed line or an untyped failure.
    eprintln!("servebench: shed correctness phase...");
    let shed_socket = temp("shed.sock");
    let shed_server = start(
        &shed_socket,
        ServeConfig {
            threads: 1,
            cache_bytes: 0,
            max_queue: 1,
            ..base
        },
    )?;
    let shed_correctness = {
        let per_client = 8usize;
        let counts: Vec<Result<(u64, u64), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|id| {
                    let socket = &shed_socket;
                    let labels = &labels;
                    scope.spawn(move || {
                        let mut c = Client::connect(socket).map_err(|e| e.to_string())?;
                        let line = request_line(
                            "build",
                            BENCHES[id % BENCHES.len()],
                            &labels[id % labels.len()],
                            None,
                        );
                        let (mut total, mut well_formed) = (0u64, 0u64);
                        for _ in 0..per_client {
                            let resp = c.request_raw(&line).map_err(|e| e.to_string())?;
                            total += 1;
                            let ok = resp.starts_with(r#"{"ok":true"#);
                            let shed = rtdc_serve::json::parse(&resp).is_ok_and(|v| {
                                v.get("error").and_then(Json::as_str) == Some("overloaded")
                            });
                            if ok || shed {
                                well_formed += 1;
                            }
                        }
                        Ok((total, well_formed))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect()
        });
        let (mut total, mut well_formed) = (0u64, 0u64);
        for r in counts {
            let (t, w) = r?;
            total += t;
            well_formed += w;
        }
        well_formed as f64 / total.max(1) as f64
    };
    drop(shed_server);

    let run_rps = run_reqs as f64 / run_wall.as_secs_f64();
    let q_ms = |h: &HistogramSnapshot, q: f64| h.quantile(q).unwrap_or(0) as f64 / 1e3;

    let rows = [
        ("cold_build_rps", cold_rps),
        ("warm_build_rps", warm_rps),
        ("build_speedup", build_speedup),
        ("hit_rate", hit_rate),
        ("run_rps", run_rps),
        ("build_p99_ms", q_ms(&build_us, 0.99)),
        ("run_p50_daemon_ms", q_ms(&run_us, 0.50)),
        ("run_p99_daemon_ms", q_ms(&run_us, 0.99)),
        ("restart_hit_rate", restart_hit_rate),
        ("shed_correctness", shed_correctness),
    ];
    let serve: Vec<String> = rows
        .iter()
        .map(|&(metric, value)| {
            ObjWriter::new()
                .str("metric", metric)
                .f64("value", value, 4)
                .finish()
        })
        .collect();
    let report = ObjWriter::new()
        .str(
            "note",
            "rtdc-serve throughput; wall-clock dependent, gate on ratios + serve_min/serve_max. \
             latencies (*_daemon_ms, build_p99_ms) are daemon-side handler service time from \
             log2 histograms (bucket upper bounds, within 2x)",
        )
        .u64("clients", clients as u64)
        .u64("server_threads", threads as u64)
        .u64("build_requests", cold_reqs + warm_reqs)
        .u64("run_requests", run_reqs)
        .raw("serve", &format!("[\n{}\n]", serve.join(",\n")))
        .finish();
    std::fs::write(&out_path, report + "\n").map_err(|e| format!("{}: {e}", out_path.display()))?;

    println!("servebench: {} clients, {threads} server threads", clients);
    for (metric, value) in rows {
        println!("  {metric:<16} {value:>12.2}");
    }
    println!("wrote {}", out_path.display());
    if build_speedup < 5.0 {
        eprintln!(
            "servebench: WARNING: build_speedup {build_speedup:.2} below the 5x acceptance floor"
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
