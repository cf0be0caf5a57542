//! `serve-hot` and `serve-churn`: closed loops of two clients, each on
//! its own connection, against a daemon with two pool workers started
//! in this process.
//!
//! * `serve-hot` keeps the whole key set (3 tiny benchmarks × 9 labels)
//!   resident, filled during set-up; each request is a `build` or a
//!   `run` by a seeded coin, so every request is a verified cache hit
//!   and the cost is transport, parsing, lookup, integrity check, load,
//!   a short simulation and rendering.
//! * `serve-churn` sends zipf-skewed `build` requests over all 11
//!   generated benchmarks × 9 labels to a daemon with a disk store in an
//!   empty directory and a cache budget of one third of the key set's
//!   resident bytes: misses build, spill, evict and reload with
//!   re-verify, and nothing is simulated.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rtdc::prelude::*;
use rtdc_rng::Rng64;
use rtdc_serve::cache::{CacheKey, ImageCache, Outcome as CacheOutcome};
use rtdc_serve::client::{request_line, Client};
use rtdc_serve::json::{self, Json, ObjWriter};
use rtdc_serve::protocol::{parse_request, parse_stats, stats_json, ServeError};
use rtdc_serve::server::{handle_line, ServeConfig, ServeState, Server};
use rtdc_serve::store::DiskStore;
use rtdc_sim::Stats;
use rtdc_workloads::{all_benchmarks, generate_cached, spec, BenchmarkSpec};

use crate::report::{geomean, interquartile_mean, median, percentile, sim_groups, Outcome};
use crate::speed;
use crate::suite::{self, LABELS, MAX_INSNS};
use crate::trace::{self, Tracer};

/// Client threads, one connection each.
pub const CLIENTS: usize = 2;
/// Daemon pool workers.
pub const POOL_THREADS: usize = 2;
/// The clients pause after each segment of this length to measure the
/// host's speed.
const SEGMENT: Duration = Duration::from_millis(250);
/// `serve-hot`'s cache budget: far above its key set.
const HOT_CACHE_BYTES: u64 = 256 << 20;
/// Set-up repetitions; `setup_s` is their median. `serve-hot`'s set-up
/// takes tens of milliseconds, so it repeats more to steady the median.
fn setup_reps(mix: Mix) -> usize {
    match mix {
        Mix::Hot => 9,
        Mix::Churn => 3,
    }
}
/// Zipf exponent of `serve-churn`'s key popularity.
const ZIPF_S: f64 = 1.0;
/// Requests in one round of `serve-churn`'s deck.
const CHURN_DECK: f64 = 2000.0;
/// Seed of `serve-churn`'s fixed key ranking: the run seed orders the
/// requests, never which keys are popular, so every seed has the same mix.
const RANKING_SEED: u64 = 0x0063_6875_726e;

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Warm cache, `build`/`run` coin.
    Hot,
    /// Cold cache with a disk store and a tight budget, zipf `build`s.
    Churn,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Hot => "serve-hot",
            Mix::Churn => "serve-churn",
        }
    }
}

/// A request's op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `build`.
    Build = 0,
    /// `run`.
    Run = 1,
}

/// One cache key of the workload: a benchmark and a uniform label.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    /// The generated benchmark.
    pub spec: BenchmarkSpec,
    /// The image family.
    pub label: &'static str,
}

fn tiny_specs() -> Vec<BenchmarkSpec> {
    vec![
        spec::tiny::walker(),
        spec::tiny::loop_kernel(),
        spec::tiny::interpreter(),
    ]
}

/// The key set of `mix`, in stream index order (for `serve-churn`, by
/// popularity rank).
pub fn keys(mix: Mix) -> Vec<Key> {
    let specs = match mix {
        Mix::Hot => tiny_specs(),
        Mix::Churn => all_benchmarks().into_iter().chain(tiny_specs()).collect(),
    };
    let mut keys: Vec<Key> = specs
        .into_iter()
        .flat_map(|spec| LABELS.iter().map(move |&label| Key { spec, label }))
        .collect();
    if mix == Mix::Churn {
        Rng64::seed_from_u64(RANKING_SEED).shuffle(&mut keys);
    }
    keys
}

/// One client's seeded request sequence over a key set of `n` keys.
///
/// Each client deals from a deck, reshuffled by the seed every round.
/// `serve-hot`'s deck holds every (op, key) pair once. `serve-churn`'s
/// holds [`CHURN_DECK`] `build`s, key `k` (0-based rank) in proportion
/// to `1 / (k + 1)^s` and at least once. The seed orders the requests,
/// while every seed sends the same mix, so costs that differ by key
/// tenfold (a run, a miss's build) do not move the throughput between
/// seeds.
pub struct Stream {
    rng: Rng64,
    deck: Vec<(Op, usize)>,
    dealt: usize,
}

impl Stream {
    /// Client `client`'s stream for run seed `seed`.
    pub fn new(mix: Mix, seed: u64, client: usize, n: usize) -> Stream {
        let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1);
        let deck: Vec<(Op, usize)> = match mix {
            Mix::Hot => (0..n)
                .flat_map(|k| [(Op::Build, k), (Op::Run, k)])
                .collect(),
            Mix::Churn => {
                let weight = |k: usize| (k as f64 + 1.0).powf(-ZIPF_S);
                let total: f64 = (0..n).map(weight).sum();
                (0..n)
                    .flat_map(|k| {
                        let copies = (CHURN_DECK * weight(k) / total).round().max(1.0);
                        std::iter::repeat_n((Op::Build, k), copies as usize)
                    })
                    .collect()
            }
        };
        Stream {
            rng: Rng64::seed_from_u64(seed ^ salt),
            dealt: deck.len(),
            deck,
        }
    }

    /// The next request: its op and key index.
    pub fn next_request(&mut self) -> (Op, usize) {
        if self.dealt == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.deck[self.dealt - 1]
    }
}

/// What a direct, daemon-free build and run of a key gives.
struct Reference {
    sizes: SizeReport,
    resident_bytes: u64,
    run: Option<(u32, u32, u64, Stats)>,
}

fn direct_reference(key: &Key, with_run: bool) -> Result<Reference, String> {
    let program = generate_cached(&key.spec);
    let image = suite::build(&program, key.label)
        .map_err(|e| format!("{} {}: build: {e}", key.spec.name, key.label))?;
    let run = if with_run {
        let r = run_image(&image, SimConfig::hpca2000_baseline(), MAX_INSNS)
            .map_err(|e| format!("{} {}: run: {e}", key.spec.name, key.label))?;
        let crc = rtdc::integrity::crc32(&r.output);
        Some((r.exit_code, crc, r.output.len() as u64, r.stats))
    } else {
        None
    };
    Ok(Reference {
        sizes: image.sizes,
        resident_bytes: image.resident_bytes(),
        run,
    })
}

/// Checks one response line against the direct reference of its key.
fn check_response(resp: &str, op: Op, key: &Key, r: &Reference) -> Result<(), String> {
    let v = json::parse(resp).map_err(|e| format!("malformed response: {e}"))?;
    let s = |k: &str| v.get(k).and_then(Json::as_str);
    let n = |k: &str| v.get(k).and_then(Json::as_u64);
    let want_op = if op == Op::Build { "build" } else { "run" };
    if v.get("ok").and_then(Json::as_bool) != Some(true)
        || s("op") != Some(want_op)
        || s("bench") != Some(key.spec.name)
        || s("label") != Some(key.label)
    {
        return Err(format!("unexpected response `{resp}`"));
    }
    match op {
        Op::Build => {
            let sz = v.get("sizes");
            let f = |k: &str| sz.and_then(|o| o.get(k)).and_then(Json::as_u64);
            let want = &r.sizes;
            let same = f("original_text_bytes") == Some(u64::from(want.original_text_bytes))
                && f("native_text_bytes") == Some(u64::from(want.native_text_bytes))
                && f("compressed_payload_bytes") == Some(u64::from(want.compressed_payload_bytes))
                && f("handler_bytes") == Some(u64::from(want.handler_bytes))
                && n("resident_bytes") == Some(r.resident_bytes);
            if !same {
                return Err(format!("build sizes differ from a direct build: `{resp}`"));
            }
        }
        Op::Run => {
            let (exit, crc, len, stats) = r.run.ok_or("no run reference")?;
            let same = n("exit_code") == Some(u64::from(exit))
                && n("output_crc32") == Some(u64::from(crc))
                && n("output_len") == Some(len)
                && v.get("stats").and_then(parse_stats) == Some(stats);
            if !same {
                return Err(format!("run result differs from a direct run: `{resp}`"));
            }
        }
    }
    Ok(())
}

/// One request as a client saw it.
struct Record {
    op: Op,
    key: usize,
    id: u64,
    client: usize,
    /// The segment it was sent in.
    seg: usize,
    start: Instant,
    end: Instant,
    ok: bool,
}

/// The workload's fixed state: keys, request lines, references, paths.
struct Setup {
    mix: Mix,
    keys: Vec<Key>,
    lines: Vec<[String; 2]>,
    refs: Vec<Reference>,
    budget: u64,
    keyset_bytes: u64,
    out_dir: PathBuf,
    stores: u32,
}

impl Setup {
    fn config(&mut self) -> ServeConfig {
        let cache_dir = (self.mix == Mix::Churn).then(|| self.fresh_dir("store"));
        ServeConfig {
            threads: POOL_THREADS,
            cache_bytes: self.budget,
            max_insns: MAX_INSNS,
            cache_dir,
            ..ServeConfig::default()
        }
    }

    /// A new, empty directory under the output directory.
    fn fresh_dir(&mut self, what: &str) -> PathBuf {
        self.stores += 1;
        let dir = self.out_dir.join(format!("{what}{}", self.stores));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn socket(&self) -> PathBuf {
        self.out_dir.join("d.sock")
    }

    /// Starts a daemon and, for `serve-hot`, fills its cache with the
    /// whole key set.
    fn start_daemon(&mut self) -> Result<Server, String> {
        let cfg = self.config();
        let sock = self.socket();
        let server = Server::start(&sock, cfg).map_err(|e| format!("{}: {e}", sock.display()))?;
        if self.mix == Mix::Hot {
            let mut c = Client::connect(&sock).map_err(|e| e.to_string())?;
            for lines in &self.lines {
                let resp = c
                    .request_raw(&lines[Op::Build as usize])
                    .map_err(|e| e.to_string())?;
                if !resp.starts_with(r#"{"ok":true"#) {
                    return Err(format!("warm-up build failed: {resp}"));
                }
            }
        }
        Ok(server)
    }
}

/// Generates the programs, measures the key set, and starts the daemon,
/// [`setup_reps`] times. Returns the set-up, the last daemon, and the
/// median set-up and generation seconds.
fn setup(mix: Mix, out_dir: &Path) -> Result<(Setup, Server, f64, f64), String> {
    let keys = keys(mix);
    let lines: Vec<[String; 2]> = keys
        .iter()
        .map(|k| {
            [
                request_line("build", k.spec.name, k.label, None),
                request_line("run", k.spec.name, k.label, None),
            ]
        })
        .collect();
    let mut specs: Vec<BenchmarkSpec> = Vec::new();
    for k in &keys {
        if !specs.iter().any(|s| s.name == k.spec.name) {
            specs.push(k.spec);
        }
    }
    let _ = std::fs::remove_dir_all(out_dir);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut st = Setup {
        mix,
        keys,
        lines,
        refs: Vec::new(),
        budget: HOT_CACHE_BYTES,
        keyset_bytes: 0,
        out_dir: out_dir.to_path_buf(),
        stores: 0,
    };
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut daemon = None;
    for rep in 0..setup_reps(mix) {
        drop(daemon.take());
        let mut samples = suite::generate_all(&specs, rep == 0);
        generate_s.push(speed::scaled_total(&samples));
        if mix == Mix::Churn {
            // The budget comes from a measurement: one third of the key
            // set's resident bytes. The builds double as the references.
            st.refs = Vec::with_capacity(st.keys.len());
            for k in &st.keys {
                let (r, s) = speed::timed(|| direct_reference(k, false));
                st.refs.push(r?);
                samples.push(s);
            }
            st.keyset_bytes = st.refs.iter().map(|r| r.resident_bytes).sum();
            st.budget = st.keyset_bytes / 3;
        }
        let (d, s) = speed::timed(|| st.start_daemon());
        daemon = Some(d?);
        samples.push(s);
        setup_s.push(speed::scaled_total(&samples));
    }
    if mix == Mix::Hot {
        st.refs = st
            .keys
            .iter()
            .map(|k| direct_reference(k, true))
            .collect::<Result<_, _>>()?;
        st.keyset_bytes = st.refs.iter().map(|r| r.resident_bytes).sum();
    }
    let daemon = daemon.expect("at least one set-up");
    Ok((st, daemon, median(&setup_s), median(&generate_s)))
}

/// What one closed-loop window gave.
#[derive(Default)]
struct Window {
    records: Vec<Record>,
    failed: u64,
    errors: Vec<String>,
    /// The host's slowness after each segment (per client while a client
    /// runs, then the mean over the clients, smoothed).
    slow: Vec<f64>,
}

impl Window {
    /// A request's round trip in milliseconds at the nominal host speed.
    fn scaled_ms(&self, r: &Record) -> f64 {
        let slow = self.slow.get(r.seg).copied().unwrap_or(1.0);
        (r.end - r.start).as_secs_f64() / slow * 1e3
    }

    /// Requests per second at the nominal host speed: each closed-loop
    /// client's requests over the sum of its scaled round trips, summed
    /// over the clients.
    fn rps(&self) -> f64 {
        (0..CLIENTS)
            .map(|c| {
                let mine = self.records.iter().filter(|r| r.client == c);
                let (n, ms) =
                    mine.fold((0usize, 0.0), |(n, ms), r| (n + 1, ms + self.scaled_ms(r)));
                if n == 0 {
                    0.0
                } else {
                    n as f64 / ms * 1e3
                }
            })
            .sum()
    }

    fn latencies_ms(&self, op: Op) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.op == op && r.ok)
            .map(|r| self.scaled_ms(r))
            .collect()
    }

    fn count(&self, op: Op) -> u64 {
        self.records.iter().filter(|r| r.op == op).count() as u64
    }
}

/// Drives `CLIENTS` closed-loop clients against `sock` until `deadline`,
/// in segments of [`SEGMENT`]: after each, every client stops and
/// measures the host's speed on its own core while the daemon idles.
/// Each response is checked against the reference the first time its
/// (op, key) is seen and compared byte for byte after that.
fn drive(st: &Setup, sock: &Path, seed: u64, deadline: Instant) -> Window {
    let barrier = Barrier::new(CLIENTS);
    let done = AtomicBool::new(false);
    let runs: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (barrier, done) = (&barrier, &done);
                scope.spawn(move || {
                    let mut w = Window::default();
                    // A client whose connection fails still takes part in
                    // every pause, so the others never wait for it.
                    let mut conn = match Client::connect(sock) {
                        Ok(c) => Some(c),
                        Err(e) => {
                            w.failed += 1;
                            w.errors.push(format!("client {client}: connect: {e}"));
                            None
                        }
                    };
                    let mut stream = Stream::new(st.mix, seed, client, st.keys.len());
                    let mut verified: Vec<Option<String>> = vec![None; 2 * st.keys.len()];
                    let mut seq = 0u64;
                    for seg in 0.. {
                        let seg_end = Instant::now() + SEGMENT;
                        while let Some(c) = conn.as_mut().filter(|_| Instant::now() < seg_end) {
                            let (op, key) = stream.next_request();
                            let line = &st.lines[key][op as usize];
                            let start = Instant::now();
                            let resp = c.request_raw(line);
                            let end = Instant::now();
                            let id = (client as u64) << 32 | seq;
                            seq += 1;
                            let ok = match resp {
                                Err(e) => {
                                    w.errors.push(format!("client {client}: {e}"));
                                    w.failed += 1;
                                    w.records.push(Record {
                                        op,
                                        key,
                                        id,
                                        client,
                                        seg,
                                        start,
                                        end,
                                        ok: false,
                                    });
                                    conn = None;
                                    break;
                                }
                                Ok(resp) => match &verified[2 * key + op as usize] {
                                    Some(v) => *v == resp,
                                    None => {
                                        match check_response(
                                            &resp,
                                            op,
                                            &st.keys[key],
                                            &st.refs[key],
                                        ) {
                                            Ok(()) => {
                                                verified[2 * key + op as usize] = Some(resp);
                                                true
                                            }
                                            Err(e) => {
                                                w.errors.push(e);
                                                false
                                            }
                                        }
                                    }
                                },
                            };
                            if !ok {
                                w.failed += 1;
                            }
                            w.records.push(Record {
                                op,
                                key,
                                id,
                                client,
                                seg,
                                start,
                                end,
                                ok,
                            });
                        }
                        if barrier.wait().is_leader() {
                            done.store(Instant::now() >= deadline, Ordering::Relaxed);
                        }
                        w.slow.push(speed::slowness());
                        barrier.wait();
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Window::default();
    let segments = runs.iter().map(|w| w.slow.len()).min().unwrap_or(0);
    let mean: Vec<f64> = (0..segments)
        .map(|s| runs.iter().map(|w| w.slow[s]).sum::<f64>() / runs.len() as f64)
        .collect();
    all.slow = speed::smooth(&mean);
    for w in runs {
        all.records.extend(w.records);
        all.failed += w.failed;
        all.errors.extend(w.errors);
    }
    all.records.sort_by_key(|r| r.start);
    all
}

/// The daemon's counters and gauges, read through the `metrics` op.
fn daemon_counters(sock: &Path) -> Result<BTreeMap<String, u64>, String> {
    let mut c = Client::connect(sock).map_err(|e| e.to_string())?;
    let v = c.metrics().map_err(|e| e.to_string())?;
    let m = v.get("metrics").ok_or("metrics response lacks `metrics`")?;
    let mut out = BTreeMap::new();
    for section in ["counters", "gauges"] {
        if let Some(Json::Obj(map)) = m.get(section) {
            for (k, v) in map {
                if let Some(n) = v.as_u64() {
                    out.insert(k.clone(), n);
                }
            }
        }
    }
    Ok(out)
}

/// Checks the daemon's view against the client's: per-op request counts
/// over the window, and the cache identities on the final snapshot.
fn check_counters(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    w: &Window,
    out: &mut Outcome,
) {
    let delta = |k: &str| {
        let at = |m: &BTreeMap<String, u64>| m.get(k).copied().unwrap_or(0);
        at(after).saturating_sub(at(before))
    };
    for (op, name) in [(Op::Build, "serve.req.build"), (Op::Run, "serve.req.run")] {
        if delta(name) != w.count(op) {
            out.problems.push(format!(
                "{name}: daemon counted {}, clients sent {}",
                delta(name),
                w.count(op)
            ));
        }
    }
    let g = |k: &str| after.get(&format!("serve.cache.{k}")).copied().unwrap_or(0);
    if g("lookups") != g("hits") + g("misses") + g("poisoned") {
        out.problems
            .push("cache: lookups != hits + misses + poisoned".into());
    }
    if g("entries") + g("evictions") + g("poisoned") != g("inserts") {
        out.problems
            .push("cache: entries != inserts - evictions - poisoned".into());
    }
}

/// One closed-loop window, checked against the daemon's counters;
/// returns the window and the daemon's counter and gauge deltas.
fn measured_window(
    st: &Setup,
    sock: &Path,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(Window, BTreeMap<String, u64>), String> {
    let before = daemon_counters(sock)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let w = drive(st, sock, seed, deadline);
    let after = daemon_counters(sock)?;
    out.attempted += w.records.len() as u64;
    out.failed += w.failed;
    out.problems.extend(w.errors.iter().take(5).cloned());
    check_counters(&before, &after, &w, out);
    let delta = after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect();
    Ok((w, delta))
}

/// Runs `mix` for `seconds` and fills `out`. With `traced`, the window
/// is split: an untraced half, a half with round-trip spans on a fresh
/// daemon, then an in-process replay of the traced half's requests
/// through the calls the handler makes.
pub fn run(
    mix: Mix,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<Conditions, String> {
    let out_dir =
        PathBuf::from(crate::OUT_DIR).join(format!("{}-{}", mix.name(), std::process::id()));
    let (mut st, daemon, setup_s, generate_s) = setup(mix, &out_dir)?;
    out.set("setup_s", setup_s);
    out.set("workloads.generate_s", generate_s);
    let conditions = Conditions {
        cache_budget_bytes: st.budget,
        keyset_bytes: st.keyset_bytes,
    };
    let sock = st.socket();
    let window = if traced { seconds / 2.0 } else { seconds };
    let (w, delta) = measured_window(&st, &sock, seed, window, out)?;
    drop(daemon);
    let builds = w.latencies_ms(Op::Build);
    let runs = w.latencies_ms(Op::Run);
    out.set("host.slowness", median(&w.slow));
    out.set("rps", w.rps());
    out.set("build_iqm_ms", interquartile_mean(&builds));
    out.set("build_p99_ms", percentile(&builds, 0.99));
    out.set("run_p50_ms", percentile(&runs, 0.50));
    out.set("run_p99_ms", percentile(&runs, 0.99));
    let d = |k: &str| delta.get(k).copied().unwrap_or(0) as f64;
    // Resident hits only: store hits are counted apart.
    out.set(
        "cache.hit_rate",
        (d("serve.cache.hits") - d("serve.cache.store_hits")) / d("serve.cache.lookups"),
    );
    for (metric, counter) in [
        ("cache.flight_waits", "serve.cache.flight_waits"),
        ("cache.evictions", "serve.cache.evictions"),
        ("cache.store_hits", "serve.cache.store_hits"),
        ("store.loads", "serve.store.loads"),
        ("store.spills", "serve.store.spills"),
    ] {
        out.set(metric, d(counter));
    }
    if mix == Mix::Hot {
        simulated_shape(&st, out);
    }
    if traced {
        let daemon = st.start_daemon()?;
        let epoch = Instant::now();
        let (tw, _) = measured_window(&st, &sock, seed, window, out)?;
        drop(daemon);
        out.set("trace.overhead_share", w.rps() / tw.rps() - 1.0);
        let mut rt = Tracer::new(true, epoch);
        for r in &tw.records {
            rt.record("round_trip", r.id, r.start, r.end);
        }
        tracer.absorb(rt);
        replay(&mut st, &tw, window, out, tracer)?;
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    Ok(conditions)
}

/// The deterministic simulated figures of `serve-hot`'s key set, from
/// the direct references.
fn simulated_shape(st: &Setup, out: &mut Outcome) {
    let stats = |i: usize| st.refs[i].run.map(|r| r.3).unwrap_or_default();
    let mut slowdowns = Vec::new();
    for (i, k) in st
        .keys
        .iter()
        .enumerate()
        .filter(|(_, k)| k.label != "native")
    {
        if let Some(n) = st
            .keys
            .iter()
            .position(|n| n.spec.name == k.spec.name && n.label == "native")
        {
            slowdowns.push(stats(i).cycles as f64 / stats(n).cycles as f64);
        }
    }
    out.set("sim.slowdown", geomean(&slowdowns));
    let sum = |f: fn(&Stats) -> u64| (0..st.keys.len()).map(|i| f(&stats(i))).sum::<u64>() as f64;
    out.set(
        "sim.handler_share",
        sum(|s| s.handler_cycles) / sum(|s| s.cycles),
    );
    out.set(
        "sim.exc_per_kinsn",
        1000.0 * sum(|s| s.exceptions) / sum(|s| s.insns),
    );
}

/// Renders a response the way the handler does (identity fields, then
/// sizes or the run result).
fn render(op: Op, key: &Key, image: &MemoryImage, run: Option<(u32, &[u8], &Stats)>) -> String {
    let mut w = ObjWriter::new();
    w.bool("ok", true)
        .str("op", if op == Op::Build { "build" } else { "run" })
        .str("bench", key.spec.name)
        .str("label", key.label);
    match run {
        None => {
            let sz = &image.sizes;
            let mut sizes = ObjWriter::new();
            sizes
                .u64("original_text_bytes", u64::from(sz.original_text_bytes))
                .u64("native_text_bytes", u64::from(sz.native_text_bytes))
                .u64(
                    "compressed_payload_bytes",
                    u64::from(sz.compressed_payload_bytes),
                )
                .u64("handler_bytes", u64::from(sz.handler_bytes));
            w.raw("sizes", &sizes.finish())
                .u64("resident_bytes", image.resident_bytes());
        }
        Some((exit, output, stats)) => {
            w.u64("exit_code", u64::from(exit))
                .u64("output_len", output.len() as u64)
                .u64("output_crc32", u64::from(rtdc::integrity::crc32(output)))
                .raw("stats", &stats_json(stats));
        }
    }
    w.finish()
}

/// Replays the traced window's requests in order, in this process, for
/// at most `seconds`: `handle_line` on a daemon state of its own, and the
/// handler's calls one by one on a cache of their own, one span each.
fn replay(
    st: &mut Setup,
    tw: &Window,
    seconds: f64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let cfg = st.config();
    let state = ServeState::try_new(&cfg).map_err(|e| e.to_string())?;
    let cache = match st.mix {
        Mix::Hot => ImageCache::new(cfg.cache_bytes),
        Mix::Churn => {
            let dir = st.fresh_dir("replay");
            let store = DiskStore::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            ImageCache::with_store(cfg.cache_bytes, Arc::new(store))
        }
    };
    let probe_dir = st.fresh_dir("probe");
    let probe = DiskStore::open(&probe_dir).map_err(|e| format!("{}: {e}", probe_dir.display()))?;
    let sim_cfg = SimConfig::hpca2000_baseline();
    let cache_key = |k: &Key| CacheKey {
        bench: k.spec.name.to_string(),
        label: k.label.to_string(),
        plan_digest: 0,
    };
    let build = |t: &mut Tracer, id: u64, k: &Key| -> Result<MemoryImage, ServeError> {
        let program = generate_cached(&k.spec);
        let name = if k.label == "native" {
            "build_native"
        } else {
            "build_planned"
        };
        t.span(name, id, |_| suite::build(&program, k.label))
            .map_err(|e| ServeError::BuildFailed {
                detail: e.to_string(),
            })
    };
    if st.mix == Mix::Hot {
        // The same warm start as the daemon's.
        let mut quiet = Tracer::new(false, Instant::now());
        for (k, lines) in st.keys.iter().zip(&st.lines) {
            handle_line(&state, &lines[Op::Build as usize], None);
            cache
                .get_or_build(&cache_key(k), || build(&mut quiet, 0, k))
                .map_err(|e| e.to_string())?;
        }
    }

    let mut overhead_us = Vec::new();
    let mut sim: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for r in &tw.records {
        if Instant::now() >= deadline {
            break;
        }
        let key = &st.keys[r.key];
        let line = &st.lines[r.key][r.op as usize];
        let t0 = Instant::now();
        let resp = tracer.span("handle_line", r.id, |_| handle_line(&state, line, None));
        let handled = t0.elapsed();
        overhead_us.push(((r.end - r.start).as_secs_f64() - handled.as_secs_f64()) * 1e6);
        if let Err(e) = check_response(&resp, r.op, key, &st.refs[r.key]) {
            out.problems.push(format!("replayed handle_line: {e}"));
        }
        tracer
            .span("replay", r.id, |t| -> Result<(), String> {
                t.span("parse_request", r.id, |_| parse_request(line))
                    .map_err(|e| e.to_string())?;
                t.span("generate_cached", r.id, |_| generate_cached(&key.spec));
                let (image, outcome) = t
                    .span("ImageCache::get_or_build", r.id, |t| {
                        cache.get_or_build(&cache_key(key), || build(t, r.id, key))
                    })
                    .map_err(|e| e.to_string())?;
                t.span("verify_integrity", r.id, |_| image.verify_integrity())
                    .map_err(|e| e.to_string())?;
                if outcome == CacheOutcome::Miss {
                    let ck = cache_key(key);
                    t.span("DiskStore::spill", r.id, |_| probe.spill(&ck, &image))
                        .map_err(|e| e.to_string())?;
                    t.span("DiskStore::load", r.id, |_| probe.load(&ck))
                        .map_err(|e| e.to_string())?;
                }
                let run = if r.op == Op::Run {
                    let mut m = t
                        .span("load_image", r.id, |_| load_image(&image, sim_cfg))
                        .map_err(|e| e.to_string())?;
                    let s0 = Instant::now();
                    let exit = t
                        .span("Machine::run", r.id, |_| m.run(MAX_INSNS))
                        .map_err(|e| e.to_string())?
                        .exit_code;
                    let ns = s0.elapsed().as_nanos() as u64;
                    let insns = m.stats().insns;
                    for g in sim_groups(key.label, suite::style_class(&key.spec)) {
                        let e = sim.entry(g).or_default();
                        e.0 += insns;
                        e.1 += ns;
                    }
                    Some((exit, m.output().to_vec(), *m.stats()))
                } else {
                    None
                };
                let rendered = t.span("render", r.id, |_| {
                    render(
                        r.op,
                        key,
                        &image,
                        run.as_ref().map(|(e, o, s)| (*e, o.as_slice(), s)),
                    )
                });
                std::hint::black_box(rendered);
                Ok(())
            })
            .unwrap_or_else(|e| out.problems.push(format!("replay: {e}")));
    }
    drop(state);
    let spans = tracer.spans();
    for (name, metric) in [
        ("parse_request", "protocol.parse_us.p50"),
        ("render", "protocol.render_us.p50"),
        ("ImageCache::get_or_build", "cache.get_us.p50"),
        ("verify_integrity", "integrity.verify_us.p50"),
        ("load_image", "runner.load_us.p50"),
        ("DiskStore::load", "store.load_us.p50"),
        ("DiskStore::spill", "store.spill_us.p50"),
    ] {
        out.set(metric, median(&trace::durations_us(spans, name)));
    }
    let mut builds = trace::durations_us(spans, "build_native");
    builds.extend(trace::durations_us(spans, "build_planned"));
    out.set("builder.build_us.p50", median(&builds));
    out.set("builder.builds", builds.len() as f64);
    out.set("server.overhead_us.p50", median(&overhead_us));
    out.set(
        "trace.unattributed_share",
        trace::unattributed_share(spans, "replay"),
    );
    for (name, (insns, ns)) in sim {
        out.set(&name, insns as f64 / ns as f64 * 1e3);
    }
    Ok(())
}

/// The serve-specific run conditions.
pub struct Conditions {
    /// The daemon's cache budget.
    pub cache_budget_bytes: u64,
    /// The key set's total resident bytes.
    pub keyset_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(mix: Mix, seed: u64, client: usize) -> Vec<(Op, usize)> {
        let n = keys(mix).len();
        let mut s = Stream::new(mix, seed, client, n);
        (0..500).map(|_| s.next_request()).collect()
    }

    #[test]
    fn streams_are_seeded() {
        for mix in [Mix::Hot, Mix::Churn] {
            assert_eq!(sequence(mix, 11, 0), sequence(mix, 11, 0));
            assert_ne!(sequence(mix, 11, 0), sequence(mix, 12, 0));
            assert_ne!(sequence(mix, 11, 0), sequence(mix, 11, 1), "clients differ");
        }
    }

    #[test]
    fn key_sets_have_the_documented_shape() {
        let hot = keys(Mix::Hot);
        assert_eq!(hot.len(), 3 * LABELS.len());
        let churn = keys(Mix::Churn);
        assert_eq!(churn.len(), 11 * LABELS.len());
        let names = |ks: &[Key]| -> Vec<(&str, &str)> {
            ks.iter().map(|k| (k.spec.name, k.label)).collect()
        };
        assert_eq!(names(&churn), names(&keys(Mix::Churn)), "ranking is fixed");
    }

    #[test]
    fn hot_deals_every_pair_and_churn_only_builds() {
        let hot = sequence(Mix::Hot, 5, 0);
        let deck = 2 * keys(Mix::Hot).len();
        let mut round: Vec<(Op, usize)> = hot[deck..2 * deck].to_vec();
        round.sort_by_key(|&(op, k)| (k, op as usize));
        let want: Vec<(Op, usize)> = (0..deck / 2)
            .flat_map(|k| [(Op::Build, k), (Op::Run, k)])
            .collect();
        assert_eq!(round, want, "each round sends every (op, key) once");
        assert_ne!(hot[..deck], hot[deck..2 * deck], "rounds are reshuffled");
        let churn = sequence(Mix::Churn, 5, 0);
        assert!(churn.iter().all(|(op, _)| *op == Op::Build));
        let top = churn.iter().filter(|(_, k)| *k == 0).count();
        let tail = churn.iter().filter(|(_, k)| *k == 98).count();
        assert!(top > 5 * tail.max(1), "zipf skew: top {top}, tail {tail}");
        let n = keys(Mix::Churn).len();
        let deck = Stream::new(Mix::Churn, 5, 0, n).deck;
        let count = |k: usize| deck.iter().filter(|(_, d)| *d == k).count();
        assert!((0..n).all(|k| count(k) >= 1), "every key is in the deck");
        assert!(
            (1..n).all(|k| count(k) <= count(k - 1)),
            "popularity falls with rank"
        );
        assert_eq!(count(0), 386, "1/H(99) of 2000");
    }
}
