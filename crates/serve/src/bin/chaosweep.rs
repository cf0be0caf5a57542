//! `chaosweep` — fault injection against a *real* `rtdc-serve` daemon.
//!
//! ```sh
//! chaosweep [--quick] [--seed N]
//! ```
//!
//! The `faultsweep` pattern promoted to the service layer: each fault
//! family scripts a concrete failure — `SIGKILL` mid-spill, corrupted
//! store files, worker panics, a slow-loris client, queue saturation —
//! against a daemon (subprocess families locate the sibling
//! `rtdc-serve` binary; in-process families drive the library server),
//! then classifies what the service did about it:
//!
//! | outcome     | meaning                                                |
//! |-------------|--------------------------------------------------------|
//! | `recovered` | full service restored, every response well-formed      |
//! | `shed`      | load was refused with typed `overloaded` errors only   |
//! | `degraded`  | correct but diminished (e.g. cold cache after restart) |
//! | `wedged`    | an operation failed to complete within the watchdog    |
//! | `silent`    | a failure produced no typed signal (the worst outcome) |
//!
//! Exit status is non-zero iff any family is `wedged` or `silent` —
//! `degraded` and `shed` are legitimate answers to induced faults,
//! hangs and lies are not.

use std::io::Write as IoWrite;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rtdc_bench::args::Cli;
use rtdc_rng::Rng64;
use rtdc_serve::client::{connect_with_retry, request_line, Client, RetryPolicy};
use rtdc_serve::json::{self, Json};
use rtdc_serve::pool::WorkerPool;
use rtdc_serve::server::{ServeConfig, Server};

const CLI: Cli = Cli {
    usage: "usage: chaosweep [--quick] [--seed N]",
    values: "seed",
    switches: "quick",
    operands: 0..=0,
};

/// How a fault family resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Recovered,
    Shed,
    Degraded,
    Wedged,
    Silent,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Recovered => "recovered",
            Outcome::Shed => "shed",
            Outcome::Degraded => "degraded",
            Outcome::Wedged => "wedged",
            Outcome::Silent => "silent",
        }
    }

    fn is_failure(self) -> bool {
        matches!(self, Outcome::Wedged | Outcome::Silent)
    }
}

/// What one family reports back to the sweep.
struct Report {
    name: &'static str,
    outcome: Outcome,
    detail: String,
}

/// Subprocess daemons registered for cleanup if a family wedges (the
/// family thread is abandoned, so its `Child` handles never drop).
type PidRegistry = Arc<Mutex<Vec<u32>>>;

struct Ctx {
    quick: bool,
    seed: u64,
    pids: PidRegistry,
}

/// The workload every daemon family drives: all three tiny benches
/// across three compressed labels (nine distinct cache keys).
fn workload() -> Vec<String> {
    let mut lines = Vec::new();
    for bench in ["tiny-walker", "tiny-loop", "tiny-interp"] {
        for scheme in ["d", "cp", "d+rf"] {
            lines.push(request_line("build", bench, scheme, None));
        }
    }
    lines
}

fn serve_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent")?;
    let bin = dir.join("rtdc-serve");
    if !bin.exists() {
        return Err(format!(
            "{} not found (build rtdc-serve first)",
            bin.display()
        ));
    }
    Ok(bin)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rtdc-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn spawn_daemon(ctx: &Ctx, sock: &Path, cache_dir: Option<&Path>) -> Result<Child, String> {
    let bin = serve_binary()?;
    let mut cmd = Command::new(bin);
    cmd.arg(sock).args(["--threads", "2"]);
    if let Some(dir) = cache_dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn rtdc-serve: {e}"))?;
    ctx.pids.lock().unwrap().push(child.id());
    Ok(child)
}

fn connect(sock: &Path, rng: &mut Rng64) -> Result<Client, String> {
    let policy = RetryPolicy {
        attempts: 40,
        base_delay_ms: 10,
        max_delay_ms: 200,
    };
    connect_with_retry(sock, &policy, rng).map_err(|e| format!("connect {}: {e}", sock.display()))
}

/// One `stats` round trip, returning the parsed response object.
fn stats(c: &mut Client) -> Result<Json, String> {
    c.request(r#"{"op":"stats"}"#)
        .map_err(|e| format!("stats: {e}"))
}

fn field(v: &Json, obj: &str, name: &str) -> u64 {
    v.get(obj)
        .and_then(|o| o.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Drives `lines` and fails on any response that is not `ok:true`.
/// Returns the number of malformed (non-JSON / untyped) responses —
/// those are `silent` failures at the protocol layer.
fn drive_ok(c: &mut Client, lines: &[String]) -> Result<u64, String> {
    let mut malformed = 0;
    for line in lines {
        let resp = c.request_raw(line).map_err(|e| format!("request: {e}"))?;
        match json::parse(&resp) {
            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {}
            Ok(v) if v.get("error").and_then(Json::as_str).is_some() => {
                return Err(format!("typed error for `{line}`: {resp}"));
            }
            _ => malformed += 1,
        }
    }
    Ok(malformed)
}

/// Family 1: `SIGKILL` a daemon while its spill stream is in flight,
/// restart on the same `--cache-dir`, and demand the store recovers
/// every entry that survived — without a single bad response.
fn family_kill_mid_spill(ctx: &Ctx) -> Result<(Outcome, String), String> {
    let dir = scratch_dir("kill");
    let sock = dir.join("serve.sock");
    let cache = dir.join("store");
    let mut rng = Rng64::seed_from_u64(ctx.seed ^ 0x4B49_4C4C);
    let lines = workload();

    let mut child = spawn_daemon(ctx, &sock, Some(&cache))?;
    let mut c = connect(&sock, &mut rng)?;
    // Complete part of the workload (those keys are durably spilled),
    // then pipeline the rest and kill the daemon mid-stream.
    let split = lines.len() / 2;
    drive_ok(&mut c, &lines[..split])?;
    {
        let mut raw = UnixStream::connect(&sock).map_err(|e| format!("connect: {e}"))?;
        for line in &lines[split..] {
            let _ = raw.write_all(line.as_bytes());
            let _ = raw.write_all(b"\n");
        }
        let _ = raw.flush();
        std::thread::sleep(Duration::from_millis(rng.gen_range(5u64..40)));
    }
    child.kill().map_err(|e| format!("kill: {e}"))?;
    let _ = child.wait();

    // Restart on the same store. The scan must absorb any torn state
    // (tmp orphans, half-spilled files) without crashing.
    let mut child = spawn_daemon(ctx, &sock, Some(&cache))?;
    let mut c = connect(&sock, &mut rng)?;
    let s0 = stats(&mut c)?;
    let entries = field(&s0, "store", "entries");
    let malformed = drive_ok(&mut c, &lines)?;
    let s1 = stats(&mut c)?;
    let store_hits = field(&s1, "cache", "store_hits");
    let load_failures = field(&s1, "store", "load_failures");
    let _ = c.shutdown();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    let detail = format!(
        "entries={entries} store_hits={store_hits} load_failures={load_failures} \
         tmp_cleaned={} quarantined={}",
        field(&s0, "store", "tmp_cleaned"),
        field(&s0, "store", "quarantined"),
    );
    if malformed > 0 {
        return Ok((
            Outcome::Silent,
            format!("{malformed} malformed responses; {detail}"),
        ));
    }
    // Every surviving entry must come back as a store hit; a clean
    // replay that had to rebuild surviving entries is degraded.
    if store_hits + load_failures < entries {
        return Ok((Outcome::Degraded, detail));
    }
    Ok((Outcome::Recovered, detail))
}

/// Family 2: corrupt store files on disk (bit flips, truncation,
/// garbage headers) between daemon generations. The scan must
/// quarantine every mutant and the replay must rebuild cleanly.
fn family_store_corruption(ctx: &Ctx) -> Result<(Outcome, String), String> {
    let dir = scratch_dir("corrupt");
    let sock = dir.join("serve.sock");
    let cache = dir.join("store");
    let mut rng = Rng64::seed_from_u64(ctx.seed ^ 0xC0_44F7);
    let lines = workload();

    let mut child = spawn_daemon(ctx, &sock, Some(&cache))?;
    let mut c = connect(&sock, &mut rng)?;
    drive_ok(&mut c, &lines)?;
    c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let _ = child.wait();

    // Mutate a sample of the store between generations.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&cache)
        .map_err(|e| format!("read store dir: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "img"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err("daemon spilled nothing".into());
    }
    let victims = files.len().min(3);
    for (i, path) in files.iter().take(victims).enumerate() {
        let mut bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        match i % 3 {
            0 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0u32..8);
            }
            1 => bytes.truncate(rng.gen_range(0..bytes.len())),
            _ => {
                let head = 12.min(bytes.len());
                bytes[..head].fill(0xFF);
            }
        }
        std::fs::write(path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let mut child = spawn_daemon(ctx, &sock, Some(&cache))?;
    let mut c = connect(&sock, &mut rng)?;
    let s0 = stats(&mut c)?;
    let quarantined = field(&s0, "store", "quarantined");
    let malformed = drive_ok(&mut c, &lines)?;
    let s1 = stats(&mut c)?;
    let load_failures = field(&s1, "store", "load_failures");
    let _ = c.shutdown();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    let detail =
        format!("mutated={victims} quarantined={quarantined} load_failures={load_failures}");
    if malformed > 0 {
        return Ok((
            Outcome::Silent,
            format!("{malformed} malformed responses; {detail}"),
        ));
    }
    // Every mutant must be caught somewhere typed: at scan or on load.
    if quarantined + load_failures < victims as u64 {
        return Ok((
            Outcome::Silent,
            format!("mutants served without a signal? {detail}"),
        ));
    }
    Ok((Outcome::Recovered, detail))
}

/// Family 3: closures that panic in the pool's slots, induced from
/// several threads at once. The pool must count every panic and keep
/// granting its slots to the survivors.
fn family_worker_panics(ctx: &Ctx) -> Result<(Outcome, String), String> {
    const CALLERS: u64 = 4;
    let panics: u64 = if ctx.quick { 8 } else { 64 };
    let pool = WorkerPool::new(2, None);
    let survivors: u64 = std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|i| {
                let pool = &pool;
                s.spawn(move || {
                    for _ in (i..panics).step_by(CALLERS as usize) {
                        pool.run(|| panic!("chaos: induced worker panic"));
                    }
                    pool.run(|| i).is_some()
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|h| u64::from(h.join().unwrap_or(false)))
            .sum()
    });
    let detail = format!("panics={} survivors={survivors}/{CALLERS}", pool.panics());
    if survivors < CALLERS {
        return Ok((Outcome::Degraded, detail));
    }
    if pool.panics() != panics {
        return Ok((Outcome::Silent, format!("panics uncounted: {detail}")));
    }
    Ok((Outcome::Recovered, detail))
}

/// Family 4: a slow-loris client pipelines requests and never drains
/// its responses. The write-stall bound must shed the connection while
/// a healthy client keeps getting answers and shutdown stays prompt.
fn family_slow_loris(ctx: &Ctx) -> Result<(Outcome, String), String> {
    let dir = scratch_dir("loris");
    let sock = dir.join("serve.sock");
    let mut rng = Rng64::seed_from_u64(ctx.seed ^ 0x1015);
    let server = Server::start(
        &sock,
        ServeConfig {
            threads: 2,
            write_stall_ms: 300,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("start: {e}"))?;

    // The loris: flood requests, read nothing. Responses accumulate in
    // the socket buffer until the daemon's writes stall past budget and
    // it drops the connection — errors here are expected and ignored.
    let mut loris = UnixStream::connect(&sock).map_err(|e| format!("connect: {e}"))?;
    let floods: usize = if ctx.quick { 20_000 } else { 60_000 };
    let _ = loris.set_write_timeout(Some(Duration::from_millis(100)));
    let mut accepted = 0usize;
    for _ in 0..floods {
        match loris.write_all(b"{\"op\":\"metrics\",\"format\":\"text\"}\n") {
            Ok(()) => accepted += 1,
            Err(_) => break,
        }
    }

    // A healthy client on its own connection must be unaffected.
    let mut c = connect(&sock, &mut rng)?;
    let healthy = drive_ok(&mut c, &workload()[..3])? == 0;
    let _ = c.shutdown();
    drop(loris);
    server.join(); // the watchdog turns a hang here into `wedged`
    let _ = std::fs::remove_dir_all(&dir);

    let detail = format!("flooded={accepted} healthy_served={healthy}");
    if !healthy {
        return Ok((Outcome::Degraded, detail));
    }
    Ok((Outcome::Recovered, detail))
}

/// Family 5: more concurrent work than `max_queue` permits. Every
/// response must be well-formed — `ok:true` or a typed `overloaded` —
/// and a client retrying with backoff must eventually get through.
fn family_queue_saturation(ctx: &Ctx) -> Result<(Outcome, String), String> {
    let dir = scratch_dir("saturate");
    let sock = dir.join("serve.sock");
    let server = Server::start(
        &sock,
        ServeConfig {
            threads: 1,
            cache_bytes: 0, // every request rebuilds: maximal pressure
            max_queue: 1,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("start: {e}"))?;

    let clients: usize = 6;
    let per_client: usize = if ctx.quick { 4 } else { 10 };
    let results: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let sock = sock.clone();
                s.spawn(move || -> Result<(u64, u64, u64), String> {
                    let mut rng = Rng64::seed_from_u64(0x5A7 + i as u64);
                    let mut c = connect(&sock, &mut rng)?;
                    let line = request_line("build", "tiny-interp", "cp", None);
                    let (mut ok, mut shed, mut malformed) = (0u64, 0u64, 0u64);
                    for _ in 0..per_client {
                        let resp = c.request_raw(&line).map_err(|e| format!("req: {e}"))?;
                        match json::parse(&resp) {
                            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => ok += 1,
                            Ok(v)
                                if v.get("error").and_then(Json::as_str) == Some("overloaded") =>
                            {
                                shed += 1;
                            }
                            _ => malformed += 1,
                        }
                    }
                    // The resilient path: bounded retries must land it.
                    let policy = RetryPolicy {
                        attempts: 10,
                        base_delay_ms: 5,
                        max_delay_ms: 100,
                    };
                    let resp = c
                        .request_retrying(&line, &policy, &mut rng)
                        .map_err(|e| format!("retry: {e}"))?;
                    match json::parse(&resp) {
                        Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => ok += 1,
                        Ok(v) if v.get("error").is_some() => shed += 1,
                        _ => malformed += 1,
                    }
                    Ok((ok, shed, malformed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread").unwrap_or((0, 0, u64::MAX)))
            .collect()
    });

    let mut c = Client::connect(&sock).map_err(|e| format!("connect: {e}"))?;
    let s = stats(&mut c)?;
    let shed_total = field(&s, "requests", "errors");
    let _ = c.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    let ok: u64 = results.iter().map(|r| r.0).sum();
    let shed: u64 = results.iter().map(|r| r.1).sum();
    let malformed: u64 = results.iter().map(|r| r.2).sum();
    let detail = format!("ok={ok} shed={shed} malformed={malformed} err_total={shed_total}");
    if malformed > 0 {
        return Ok((Outcome::Silent, detail));
    }
    if ok == 0 {
        return Ok((Outcome::Degraded, format!("nothing got through: {detail}")));
    }
    if shed > 0 {
        return Ok((Outcome::Shed, detail));
    }
    Ok((Outcome::Recovered, detail))
}

/// Runs one family under a watchdog: a family that does not report
/// within the timeout is `wedged` (its thread is abandoned; any
/// subprocess daemons it registered are killed at exit).
fn run_family(
    name: &'static str,
    timeout: Duration,
    f: impl FnOnce() -> Result<(Outcome, String), String> + Send + 'static,
) -> Report {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(format!("chaos-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn family");
    match rx.recv_timeout(timeout) {
        Ok(Ok((outcome, detail))) => Report {
            name,
            outcome,
            detail,
        },
        Ok(Err(detail)) => Report {
            name,
            outcome: Outcome::Wedged,
            detail,
        },
        Err(_) => Report {
            name,
            outcome: Outcome::Wedged,
            detail: format!("no report within {timeout:?}"),
        },
    }
}

fn main() -> ExitCode {
    let args = CLI.from_env();
    let quick = args.has("quick");
    let seed = match args.num::<u64>("seed") {
        Ok(seed) => seed.unwrap_or(0xC4A0_5EED),
        Err(e) => CLI.fail(e),
    };
    let timeout = Duration::from_secs(if quick { 90 } else { 240 });
    let pids: PidRegistry = Arc::new(Mutex::new(Vec::new()));
    let ctx = |p: &PidRegistry| Ctx {
        quick,
        seed,
        pids: Arc::clone(p),
    };

    // Induced panics are the *point* of the worker-panic family; keep
    // their backtraces out of the report. Everything else still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let induced = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos: induced"));
        if !induced {
            default_hook(info);
        }
    }));

    println!("chaosweep: seed={seed:#x} quick={quick}");
    type Family = (
        &'static str,
        Box<dyn FnOnce() -> Result<(Outcome, String), String> + Send>,
    );
    let families: Vec<Family> = {
        let (c1, c2, c3, c4, c5) = (ctx(&pids), ctx(&pids), ctx(&pids), ctx(&pids), ctx(&pids));
        vec![
            (
                "kill-mid-spill",
                Box::new(move || family_kill_mid_spill(&c1)),
            ),
            (
                "store-corruption",
                Box::new(move || family_store_corruption(&c2)),
            ),
            ("worker-panics", Box::new(move || family_worker_panics(&c3))),
            ("slow-loris", Box::new(move || family_slow_loris(&c4))),
            (
                "queue-saturation",
                Box::new(move || family_queue_saturation(&c5)),
            ),
        ]
    };

    let mut failed = false;
    for (name, f) in families {
        let report = run_family(name, timeout, f);
        println!(
            "  {:<18} {:<10} {}",
            report.name,
            report.outcome.label(),
            report.detail
        );
        failed |= report.outcome.is_failure();
    }

    if failed {
        // Abandoned family threads may have left daemons running.
        for pid in pids.lock().unwrap().iter() {
            let _ = Command::new("kill")
                .args(["-9", &pid.to_string()])
                .stderr(Stdio::null())
                .status();
        }
        eprintln!("chaosweep: FAILED (wedged or silent outcomes above)");
        return ExitCode::FAILURE;
    }
    println!("chaosweep: all families recovered, shed, or degraded gracefully");
    ExitCode::SUCCESS
}
