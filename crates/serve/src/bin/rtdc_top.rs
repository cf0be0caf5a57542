//! `rtdc-top` — a live terminal dashboard for a running `rtdc-serve`.
//!
//! ```sh
//! rtdc-top <socket-path> [--interval-ms N] [--iters N] [--once]
//! ```
//!
//! Polls the daemon's `metrics` op and renders, per interval: requests
//! per second and p50/p90/p99 service time per op (computed from the
//! daemon-side histogram *deltas*, so each frame shows that interval,
//! not the lifetime), the cache hit rate and occupancy, pool
//! saturation, and how the simulator ran the interval's runs: mean
//! instructions per dispatch, the share of handler-trace dispatches
//! that side-exited, and the share of dispatches that single-stepped. Everything on screen comes from the one `metrics`
//! response — the dashboard holds no privileged view of the daemon.
//!
//! `--once` prints a single frame from the lifetime totals and exits
//! (useful in scripts); `--iters N` stops after N frames. Quantiles are
//! log2-bucket upper bounds: conservative within a factor of 2.
//!
//! A daemon restart between frames (visible as `started_at` changing or
//! uptime decreasing) resets the baseline instead of rendering
//! nonsense negative rates.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rtdc_obs::HistogramSnapshot;
use rtdc_serve::client::{parse_histogram, Client};
use rtdc_serve::json::Json;
use rtdc_sim::EngineCounters;

const USAGE: &str = "usage: rtdc-top <socket-path> [--interval-ms N] [--iters N] [--once]";

/// The ops rendered as table rows, in display order.
const OPS: [&str; 6] = ["build", "run", "trace", "plan", "stats", "metrics"];

/// One parsed `metrics` response.
struct Sample {
    taken: Instant,
    started_at: u64,
    uptime: u64,
    /// `serve.req.<op>` totals, [`OPS`] order.
    reqs: [u64; OPS.len()],
    /// `serve.op.<op>.us` histograms, [`OPS`] order.
    op_us: [HistogramSnapshot; OPS.len()],
    errors: u64,
    hits: u64,
    lookups: u64,
    entries: u64,
    resident_bytes: u64,
    budget_bytes: u64,
    threads: u64,
    in_flight: u64,
    queue_depth: u64,
    /// The `serve.sim.engine.<field>` totals.
    engine: EngineCounters,
}

fn counter(m: &Json, name: &str) -> u64 {
    m.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn gauge(m: &Json, name: &str) -> u64 {
    m.get("gauges")
        .and_then(|g| g.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn sample(client: &mut Client) -> Result<Sample, String> {
    let resp = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("daemon rejected the metrics op: {resp:?}"));
    }
    let m = resp
        .get("metrics")
        .ok_or("metrics response missing `metrics`")?;
    let mut reqs = [0u64; OPS.len()];
    let mut op_us: [HistogramSnapshot; OPS.len()] = Default::default();
    for (i, op) in OPS.iter().enumerate() {
        reqs[i] = counter(m, &format!("serve.req.{op}"));
        op_us[i] = m
            .get("histograms")
            .and_then(|h| h.get(&format!("serve.op.{op}.us")))
            .and_then(parse_histogram)
            .unwrap_or_default();
    }
    Ok(Sample {
        taken: Instant::now(),
        started_at: resp.get("started_at").and_then(Json::as_u64).unwrap_or(0),
        uptime: resp
            .get("uptime_seconds")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        reqs,
        op_us,
        errors: counter(m, "serve.err.total"),
        hits: gauge(m, "serve.cache.hits"),
        lookups: gauge(m, "serve.cache.lookups"),
        entries: gauge(m, "serve.cache.entries"),
        resident_bytes: gauge(m, "serve.cache.resident_bytes"),
        budget_bytes: gauge(m, "serve.cache.budget_bytes"),
        threads: gauge(m, "serve.pool.threads"),
        in_flight: gauge(m, "serve.pool.in_flight"),
        queue_depth: gauge(m, "serve.pool.queue_depth"),
        engine: EngineCounters::from_array(
            EngineCounters::FIELDS.map(|f| counter(m, &format!("serve.sim.engine.{f}"))),
        ),
    })
}

fn quantile_ms(h: &HistogramSnapshot, q: f64) -> String {
    match h.quantile(q) {
        Some(us) => format!("{:.2}", us as f64 / 1000.0),
        None => "-".to_string(),
    }
}

/// Renders one frame. `prev` bounds the interval; `None` renders the
/// lifetime totals (the `--once` view and the first live frame).
fn render(path: &Path, cur: &Sample, prev: Option<&Sample>) -> String {
    let dt = prev.map_or(0.0, |p| cur.taken.duration_since(p.taken).as_secs_f64());
    let window = if prev.is_some() {
        format!("last {dt:.1}s")
    } else {
        "lifetime".to_string()
    };
    let mut out = format!(
        "rtdc-top — {} — up {}s — {}\n\n{:<9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        path.display(),
        cur.uptime,
        window,
        "op",
        "rps",
        "p50 ms",
        "p90 ms",
        "p99 ms",
        "total",
    );
    for (i, op) in OPS.iter().enumerate() {
        let (n, h) = match prev {
            Some(p) => (
                cur.reqs[i].saturating_sub(p.reqs[i]),
                cur.op_us[i].since(&p.op_us[i]),
            ),
            None => (cur.reqs[i], cur.op_us[i].clone()),
        };
        let rps = if dt > 0.0 {
            format!("{:.1}", n as f64 / dt)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            op,
            rps,
            quantile_ms(&h, 0.50),
            quantile_ms(&h, 0.90),
            quantile_ms(&h, 0.99),
            cur.reqs[i],
        ));
    }
    let hit_rate = if cur.lookups > 0 {
        format!("{:.1}%", 100.0 * cur.hits as f64 / cur.lookups as f64)
    } else {
        "-".to_string()
    };
    let saturation = if cur.threads > 0 {
        format!("{:.0}%", 100.0 * cur.in_flight as f64 / cur.threads as f64)
    } else {
        "-".to_string()
    };
    out.push_str(&format!(
        "\ncache  hit rate {hit_rate} ({}/{} lookups)  entries {}  resident {:.1}/{:.1} MiB\n",
        cur.hits,
        cur.lookups,
        cur.entries,
        cur.resident_bytes as f64 / f64::from(1u32 << 20),
        cur.budget_bytes as f64 / f64::from(1u32 << 20),
    ));
    out.push_str(&format!(
        "pool   threads {}  in-flight {}  queue depth {}  saturation {saturation}  errors {}\n",
        cur.threads, cur.in_flight, cur.queue_depth, cur.errors,
    ));
    out.push_str(&render_engine(&match prev {
        Some(p) => engine_since(&cur.engine, &p.engine),
        None => cur.engine,
    }));
    out
}

/// The engine counters accumulated between `earlier` and `cur`.
fn engine_since(cur: &EngineCounters, earlier: &EngineCounters) -> EngineCounters {
    let (mut d, e) = (cur.to_array(), earlier.to_array());
    for (d, e) in d.iter_mut().zip(e) {
        *d = d.saturating_sub(e);
    }
    EngineCounters::from_array(d)
}

/// The simulator line: ops per dispatch, the side-exit share of trace
/// dispatches, and the fallback share of all dispatches.
fn render_engine(e: &EngineCounters) -> String {
    if e.dispatches() == 0 {
        return "sim    no translated runs\n".to_string();
    }
    let side_exits = if e.trace_dispatches > 0 {
        100.0 * e.side_exits as f64 / e.trace_dispatches as f64
    } else {
        0.0
    };
    format!(
        "sim    {:.2} ops/dispatch ({:.2} per block, {:.2} per trace)  side exits {side_exits:.1}% of traces  fallbacks {:.1}% of dispatches\n",
        e.ops_per_dispatch(),
        e.ops_per_block(),
        e.ops_per_trace(),
        100.0 * e.share(e.fallbacks()),
    )
}

fn run() -> Result<(), String> {
    let mut path: Option<PathBuf> = None;
    let mut interval = Duration::from_millis(1000);
    let mut iters: Option<u64> = None;
    let mut once = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))?
                .parse()
                .map_err(|_| format!("{name} needs a number\n{USAGE}"))
        };
        match arg.as_str() {
            "--interval-ms" => interval = Duration::from_millis(num("--interval-ms")?.max(10)),
            "--iters" => iters = Some(num("--iters")?),
            "--once" => once = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!("unexpected option `{other}`\n{USAGE}"));
            }
            other => {
                if path.replace(PathBuf::from(other)).is_some() {
                    return Err(format!("more than one socket path\n{USAGE}"));
                }
            }
        }
    }
    let path = path.ok_or_else(|| USAGE.to_string())?;
    let mut client =
        Client::connect(&path).map_err(|e| format!("{}: connect: {e}", path.display()))?;
    if once {
        let cur = sample(&mut client)?;
        print!("{}", render(&path, &cur, None));
        return Ok(());
    }
    let mut prev: Option<Sample> = None;
    let mut frame = 0u64;
    loop {
        let cur = sample(&mut client)?;
        // A restart makes the lifetime counters start over; comparing
        // against the old baseline would render nonsense rates.
        let restarted = prev
            .as_ref()
            .is_some_and(|p| cur.started_at != p.started_at || cur.uptime < p.uptime);
        let base = if restarted { None } else { prev.as_ref() };
        // ANSI clear + home: a plain-terminal live view, no TUI deps.
        print!("\x1b[2J\x1b[H{}", render(&path, &cur, base));
        use std::io::Write;
        let _ = std::io::stdout().flush();
        prev = Some(cur);
        frame += 1;
        if iters.is_some_and(|n| frame >= n) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rtdc-top: {e}");
            ExitCode::FAILURE
        }
    }
}
