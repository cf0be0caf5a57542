//! The daemon: request dispatch, the socket accept loop, and the
//! thread-pool plumbing between them.
//!
//! [`handle_request`] is the entire semantic surface — a *pure
//! dispatcher* from parsed [`Request`] to response line against shared
//! [`ServeState`]. The socket layer ([`Server`]) adds nothing but
//! transport: per-connection reader threads parse length-bounded lines
//! and park each request on the [`WorkerPool`], so CPU-bound work is
//! bounded by the pool width no matter how many clients connect, and a
//! slow client never wedges a worker. Tests drive [`handle_request`]
//! directly when the property under test is semantic, and through the
//! socket when it is concurrency.
//!
//! Telemetry is woven through every layer but leaks into none of the
//! pure responses: [`ServeMetrics`] pre-registers the hot-path handles
//! (per-op counters and service-time histograms, byte counters, the
//! pool's wall histogram), [`sync_ambient`] mirrors cache and pool
//! counters into gauges at snapshot time, and the structured log
//! (`rtdc_obs::log`) carries connection/request events on stderr.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rtdc::prelude::*;
use rtdc_bench::planopt::optimized_plan_cached;
use rtdc_isa::program::ObjectProgram;
use rtdc_obs::log::{self, Level};
use rtdc_obs::{Counter, Histogram, MetricsRegistry};
use rtdc_sim::trace::{TraceEvent, EVENT_KINDS};
use rtdc_sim::{EngineCounters, NoTrace, TraceSink};
use rtdc_workloads::{by_name, generate_cached, programs, spec, BenchmarkSpec};

use crate::cache::{CacheKey, ImageCache};
use crate::json::ObjWriter;
use crate::pool::WorkerPool;
use crate::protocol::{
    parse_request, stats_json, BuildSpec, MetricsFormat, Request, ServeError, MAX_LINE_BYTES,
};
use crate::store::DiskStore;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub threads: usize,
    /// Image-cache byte budget (0 disables caching).
    pub cache_bytes: u64,
    /// Default per-run instruction limit (requests may override).
    pub max_insns: u64,
    /// Directory for the persistent image store (`--cache-dir`).
    /// `None` means RAM-only: the cache dies with the process.
    pub cache_dir: Option<PathBuf>,
    /// Admission bound: a request arriving while this many jobs are
    /// already queued (excluding in-flight) is shed with a typed
    /// `overloaded` error instead of queueing without bound.
    pub max_queue: u64,
    /// Per-connection write-stall budget in milliseconds: a response
    /// write making no progress for this long is abandoned and the
    /// connection dropped, so a slow-loris client cannot pin a reader
    /// thread.
    pub write_stall_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: rtdc_bench::jobs::default_jobs(),
            cache_bytes: 64 << 20,
            max_insns: 2_000_000_000,
            cache_dir: None,
            max_queue: 1024,
            write_stall_ms: 2_000,
        }
    }
}

/// Per-op request counters (the `stats` op's `requests` object). Each
/// is a registry handle (`serve.req.<op>` / `serve.err.total`), so the
/// `stats` and `metrics` views can never disagree.
#[derive(Debug)]
pub struct OpCounters {
    /// `build` requests handled.
    pub build: Arc<Counter>,
    /// `run` requests handled.
    pub run: Arc<Counter>,
    /// `trace` requests handled.
    pub trace: Arc<Counter>,
    /// `plan` requests handled.
    pub plan: Arc<Counter>,
    /// `stats` requests handled.
    pub stats: Arc<Counter>,
    /// `metrics` requests handled.
    pub metrics: Arc<Counter>,
    /// Requests answered with a typed error (any kind, including
    /// parse-level rejections the dispatcher never saw).
    pub errors: Arc<Counter>,
}

impl OpCounters {
    fn new(reg: &MetricsRegistry) -> OpCounters {
        OpCounters {
            build: reg.counter("serve.req.build"),
            run: reg.counter("serve.req.run"),
            trace: reg.counter("serve.req.trace"),
            plan: reg.counter("serve.req.plan"),
            stats: reg.counter("serve.req.stats"),
            metrics: reg.counter("serve.req.metrics"),
            errors: reg.counter("serve.err.total"),
        }
    }
}

/// The ops `handle_request` dispatches (service-time histograms are
/// pre-registered per entry, so the hot path never takes the registry
/// lock).
const OPS: [&str; 7] = [
    "build", "run", "trace", "plan", "stats", "metrics", "shutdown",
];

/// The daemon's metrics registry plus the pre-registered hot-path
/// handles. Everything observable through the `metrics` op lives here;
/// ambient values (cache counters, pool depth, uptime) are mirrored
/// into registry gauges by [`sync_ambient`] at snapshot time, so they
/// are exactly the internal counters at the instant of the snapshot.
pub struct ServeMetrics {
    /// The registry the `metrics` op snapshots.
    pub registry: MetricsRegistry,
    /// Request bytes read off client sockets, newlines included.
    pub bytes_in: Arc<Counter>,
    /// Response bytes written to client sockets, newlines included.
    pub bytes_out: Arc<Counter>,
    /// Per-job pool wall time (`serve.pool.job_wall.us`), fed by the
    /// worker loop.
    pub pool_wall: Arc<Histogram>,
    /// Requests shed at admission with `overloaded` (`serve.shed`).
    pub shed: Arc<Counter>,
    /// Requests whose `deadline_ms` budget expired
    /// (`serve.deadline_exceeded`).
    pub deadline_exceeded: Arc<Counter>,
    /// `serve.op.<op>.us` service-time histograms, one per [`OPS`] entry.
    op_us: Vec<(&'static str, Arc<Histogram>)>,
    /// `serve.sim.engine.<field>` counters, one per
    /// [`EngineCounters::FIELDS`] entry: how the simulator's translated
    /// loop split every run (block and trace ops, side exits, fallback
    /// steps by reason).
    sim_engine: [Arc<Counter>; EngineCounters::FIELDS.len()],
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = MetricsRegistry::new();
        let op_us = OPS
            .iter()
            .map(|op| (*op, registry.histogram(&format!("serve.op.{op}.us"))))
            .collect();
        ServeMetrics {
            bytes_in: registry.counter("serve.bytes_in"),
            bytes_out: registry.counter("serve.bytes_out"),
            pool_wall: registry.histogram("serve.pool.job_wall.us"),
            shed: registry.counter("serve.shed"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            op_us,
            sim_engine: EngineCounters::FIELDS
                .map(|field| registry.counter(&format!("serve.sim.engine.{field}"))),
            registry,
        }
    }

    /// The service-time histogram for `op`.
    fn op_us(&self, op: &str) -> &Arc<Histogram> {
        self.op_us
            .iter()
            .find(|(k, _)| *k == op)
            .map(|(_, h)| h)
            .expect("every dispatched op is in OPS")
    }

    /// Counts one typed error under `serve.err.<kind>` (registered
    /// lazily — errors are not the hot path).
    fn record_error(&self, kind: &str) {
        self.registry.counter(&format!("serve.err.{kind}")).inc();
    }

    /// Records one simulator run for the image label: the
    /// `serve.sim.{runs,cycles}.<label>` counters, the
    /// `serve.sim.wall_us.<label>` histogram, and the run's engine
    /// counters into the pre-registered `serve.sim.engine.<field>`
    /// totals.
    fn record_sim(&self, label: &str, report: &RunReport, wall: Duration) {
        for (counter, n) in self.sim_engine.iter().zip(report.engine.to_array()) {
            counter.add(n);
        }
        self.registry
            .counter(&format!("serve.sim.runs.{label}"))
            .inc();
        self.registry
            .counter(&format!("serve.sim.cycles.{label}"))
            .add(report.stats.cycles);
        self.registry
            .histogram(&format!("serve.sim.wall_us.{label}"))
            .observe_micros(wall);
    }
}

/// Everything a request handler needs, shared across workers.
pub struct ServeState {
    /// The content-addressed image cache.
    pub cache: ImageCache,
    /// Simulator configuration (the paper baseline; `second_regfile` is
    /// forced per-image at load time).
    pub sim: rtdc_sim::SimConfig,
    /// Default instruction limit.
    pub max_insns: u64,
    /// Per-op counters.
    pub ops: OpCounters,
    /// The telemetry registry and its hot-path handles.
    pub metrics: ServeMetrics,
    /// Admission bound (see [`ServeConfig::max_queue`]).
    pub max_queue: u64,
    /// Write-stall budget (see [`ServeConfig::write_stall_ms`]).
    pub write_stall_ms: u64,
    started: Instant,
    started_at: u64,
    shutdown: AtomicBool,
}

impl ServeState {
    /// Fresh state for `config`. Panics if the configured `cache_dir`
    /// cannot be opened; use [`ServeState::try_new`] to handle that.
    pub fn new(config: &ServeConfig) -> ServeState {
        ServeState::try_new(config).expect("open cache dir")
    }

    /// Fresh state for `config`, opening (and scanning) the persistent
    /// store when `cache_dir` is set.
    ///
    /// # Errors
    ///
    /// I/O errors creating or reading the store directory. Individual
    /// bad store *files* are never errors — the scan quarantines them.
    pub fn try_new(config: &ServeConfig) -> std::io::Result<ServeState> {
        let metrics = ServeMetrics::new();
        let cache = match &config.cache_dir {
            None => ImageCache::new(config.cache_bytes),
            Some(dir) => {
                let store = Arc::new(DiskStore::open(dir)?);
                let s = store.stats();
                log::event(Level::Info, "store_open")
                    .str("dir", &dir.to_string_lossy())
                    .u64("entries", s.entries)
                    .u64("quarantined", s.quarantined)
                    .u64("tmp_cleaned", s.tmp_cleaned)
                    .emit();
                ImageCache::with_store(config.cache_bytes, store)
            }
        };
        Ok(ServeState {
            cache,
            sim: rtdc_sim::SimConfig::hpca2000_baseline(),
            max_insns: config.max_insns,
            ops: OpCounters::new(&metrics.registry),
            metrics,
            max_queue: config.max_queue,
            write_stall_ms: config.write_stall_ms,
            started: Instant::now(),
            started_at: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Whole seconds since this state was constructed.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Unix seconds at construction (the `stats`/`metrics` ops'
    /// `started_at` field; a restart is visible as this changing).
    pub fn started_at(&self) -> u64 {
        self.started_at
    }

    /// Whether a `shutdown` request has been handled.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Mirrors ambient values — cache counters, pool depth, uptime — into
/// registry gauges. Called at snapshot time (the `metrics` op and the
/// shutdown flush), so the gauges a snapshot carries are exactly the
/// internal counters at that instant; they are *views*, not shadow
/// state that could drift.
fn sync_ambient(state: &ServeState, pool: Option<&WorkerPool>) {
    let reg = &state.metrics.registry;
    reg.gauge("serve.uptime_seconds")
        .set(state.uptime_seconds());
    let c = state.cache.stats();
    for (name, v) in [
        ("lookups", c.lookups),
        ("hits", c.hits),
        ("store_hits", c.store_hits),
        ("misses", c.misses),
        ("poisoned", c.poisoned),
        ("inserts", c.inserts),
        ("evictions", c.evictions),
        ("uncached", c.uncached),
        ("build_failures", c.build_failures),
        ("flight_waits", c.flight_waits),
        ("entries", c.entries),
        ("resident_bytes", c.resident_bytes),
        ("budget_bytes", c.budget_bytes),
    ] {
        reg.gauge(&format!("serve.cache.{name}")).set(v);
    }
    if let Some(store) = state.cache.store() {
        let s = store.stats();
        for (name, v) in [
            ("entries", s.entries),
            ("scanned", s.scanned),
            ("quarantined", s.quarantined),
            ("tmp_cleaned", s.tmp_cleaned),
            ("loads", s.loads),
            ("load_failures", s.load_failures),
            ("spills", s.spills),
            ("spill_failures", s.spill_failures),
        ] {
            reg.gauge(&format!("serve.store.{name}")).set(v);
        }
    }
    if let Some(p) = pool {
        for (name, v) in [
            ("threads", p.threads() as u64),
            ("queued", p.queued()),
            ("executed", p.executed()),
            ("panics", p.panics()),
            ("in_flight", p.in_flight()),
            ("queue_depth", p.queue_depth()),
        ] {
            reg.gauge(&format!("serve.pool.{name}")).set(v);
        }
    }
}

/// Resolves `bench` to a generator spec, if it names one (the eight
/// paper analogs plus the three tiny specs).
fn resolve_spec(bench: &str) -> Option<BenchmarkSpec> {
    if let Some(s) = by_name(bench) {
        return Some(s);
    }
    [
        spec::tiny::walker(),
        spec::tiny::loop_kernel(),
        spec::tiny::interpreter(),
    ]
    .into_iter()
    .find(|s| s.name == bench)
}

/// Resolves `bench` to a program: a generated benchmark analog or a
/// known-answer program.
fn resolve_program(bench: &str) -> Result<Arc<ObjectProgram>, ServeError> {
    if let Some(s) = resolve_spec(bench) {
        return Ok(generate_cached(&s));
    }
    programs::all_programs()
        .into_iter()
        .find(|p| p.name == bench)
        .map(Arc::new)
        .ok_or_else(|| ServeError::UnknownBench {
            bench: bench.to_string(),
        })
}

/// Resolves a [`BuildSpec`] to `(cache label, plan)`. `None` plan means
/// a native build; the label names the image family in the cache key and
/// in responses (`native`, `d`, `cp+rf`, `d+plan`, ...).
fn resolve_build(
    program: &ObjectProgram,
    spec: &BuildSpec,
) -> Result<(String, Option<CompressionPlan>), ServeError> {
    match spec {
        BuildSpec::Native => Ok(("native".to_string(), None)),
        BuildSpec::Uniform { scheme, rf } => {
            let s = Scheme::by_name(scheme).ok_or_else(|| ServeError::UnknownScheme {
                scheme: scheme.clone(),
            })?;
            let n = program.procedures.len();
            let plan = CompressionPlan::uniform(
                s,
                *rf,
                PlanSource::Heuristic,
                &Selection::all_compressed(n),
            );
            let label = format!("{}{}", s.name(), if *rf { "+rf" } else { "" });
            Ok((label, Some(plan)))
        }
        BuildSpec::Plan { text } => {
            let plan: CompressionPlan =
                text.parse().map_err(|e: PlanError| ServeError::BadPlan {
                    detail: e.to_string(),
                })?;
            let label = format!(
                "{}{}+plan",
                plan.scheme.name(),
                if plan.second_rf { "+rf" } else { "" }
            );
            Ok((label, Some(plan)))
        }
    }
}

/// Builds or fetches the image for `(bench, spec)` through the cache,
/// verified exactly once on the way out.
fn obtain_image(
    state: &ServeState,
    bench: &str,
    spec: &BuildSpec,
) -> Result<(Verified<Arc<MemoryImage>>, String, u32), ServeError> {
    let program = resolve_program(bench)?;
    let (label, plan) = resolve_build(&program, spec)?;
    let plan_digest = plan.as_ref().map_or(0, CompressionPlan::digest);
    let key = CacheKey {
        bench: bench.to_string(),
        label: label.clone(),
        plan_digest,
    };
    let (image, _outcome) = state.cache.get_or_build(&key, || {
        let built = match &plan {
            None => build_native(&program),
            Some(p) => build_planned(&program, p),
        };
        built.map_err(|e| ServeError::BuildFailed {
            detail: e.to_string(),
        })
    })?;
    Ok((image, label, plan_digest))
}

fn identity_fields<'a>(
    w: &'a mut ObjWriter,
    op: &str,
    bench: &str,
    label: &str,
    plan_digest: u32,
) -> &'a mut ObjWriter {
    w.bool("ok", true)
        .str("op", op)
        .str("bench", bench)
        .str("label", label)
        .u64("plan_digest", u64::from(plan_digest))
}

fn handle_build(state: &ServeState, bench: &str, spec: &BuildSpec) -> Result<String, ServeError> {
    let (image, label, digest) = obtain_image(state, bench, spec)?;
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
    let mut w = ObjWriter::new();
    identity_fields(&mut w, "build", bench, &label, digest)
        .raw("sizes", &sizes.finish())
        .u64("resident_bytes", image.resident_bytes());
    Ok(w.finish())
}

/// A request's deadline budget, anchored at admission (the instant the
/// line came off the socket — queue time counts against the budget).
#[derive(Debug, Clone, Copy)]
struct Deadline {
    at: Instant,
    ms: u64,
}

impl Deadline {
    /// The deadline for `req`, if it carries one, anchored at `admitted`.
    fn of(req: &Request, admitted: Instant) -> Option<Deadline> {
        req.deadline_ms().map(|ms| Deadline {
            at: admitted + Duration::from_millis(ms),
            ms,
        })
    }

    /// Errors with a typed [`ServeError::Timeout`] if the budget has
    /// expired. Called at dequeue and between build and run phases.
    fn check(d: Option<Deadline>) -> Result<(), ServeError> {
        match d {
            Some(d) if Instant::now() >= d.at => Err(ServeError::Timeout { deadline_ms: d.ms }),
            _ => Ok(()),
        }
    }
}

fn handle_run(
    state: &ServeState,
    bench: &str,
    spec: &BuildSpec,
    max_insns: Option<u64>,
    deadline: Option<Deadline>,
) -> Result<String, ServeError> {
    let (image, label, digest) = obtain_image(state, bench, spec)?;
    // The build phase may have consumed the whole budget; answer
    // `timeout` rather than starting a run the client gave up on.
    Deadline::check(deadline)?;
    let limit = max_insns.unwrap_or(state.max_insns);
    let sim_start = Instant::now();
    let (report, NoTrace) =
        run_image_with_sink(&image, state.sim, limit, NoTrace).map_err(|e| {
            ServeError::RunFailed {
                detail: e.to_string(),
            }
        })?;
    state
        .metrics
        .record_sim(&label, &report, sim_start.elapsed());
    let mut w = ObjWriter::new();
    identity_fields(&mut w, "run", bench, &label, digest)
        .u64("exit_code", u64::from(report.exit_code))
        .u64("output_len", report.output.len() as u64)
        .u64(
            "output_crc32",
            u64::from(rtdc::integrity::crc32(&report.output)),
        )
        .raw("stats", &stats_json(&report.stats));
    Ok(w.finish())
}

/// A sink counting events by kind — the `trace` op's payload. Counting
/// (rather than streaming JSONL back) keeps the response a small pure
/// function of the request, which the determinism battery compares
/// byte-for-byte.
#[derive(Default)]
struct CountSink {
    counts: [u64; EVENT_KINDS.len()],
}

impl TraceSink for CountSink {
    fn event(&mut self, ev: &TraceEvent) {
        let kind = ev.kind();
        let idx = EVENT_KINDS
            .iter()
            .position(|(k, _)| *k == kind)
            .expect("every event kind is in EVENT_KINDS");
        self.counts[idx] += 1;
    }
}

fn handle_trace(
    state: &ServeState,
    bench: &str,
    spec: &BuildSpec,
    max_insns: Option<u64>,
    deadline: Option<Deadline>,
) -> Result<String, ServeError> {
    let (image, label, digest) = obtain_image(state, bench, spec)?;
    Deadline::check(deadline)?;
    let limit = max_insns.unwrap_or(state.max_insns);
    let sim_start = Instant::now();
    let (report, sink) = run_image_with_sink(&image, state.sim, limit, CountSink::default())
        .map_err(|e| ServeError::RunFailed {
            detail: e.to_string(),
        })?;
    state
        .metrics
        .record_sim(&label, &report, sim_start.elapsed());
    let mut events = ObjWriter::new();
    let mut total = 0u64;
    for (i, (_, name)) in EVENT_KINDS.iter().enumerate() {
        events.u64(name, sink.counts[i]);
        total += sink.counts[i];
    }
    let mut w = ObjWriter::new();
    identity_fields(&mut w, "trace", bench, &label, digest)
        .u64("exit_code", u64::from(report.exit_code))
        .u64("events_total", total)
        .raw("events", &events.finish());
    Ok(w.finish())
}

fn handle_plan(
    state: &ServeState,
    bench: &str,
    scheme: &str,
    rf: bool,
) -> Result<String, ServeError> {
    let spec = resolve_spec(bench).ok_or_else(|| {
        if resolve_program(bench).is_ok() {
            ServeError::Unsupported {
                detail: format!(
                    "`{bench}` is a known-answer program; `plan` needs a generated benchmark"
                ),
            }
        } else {
            ServeError::UnknownBench {
                bench: bench.to_string(),
            }
        }
    })?;
    let s = Scheme::by_name(scheme).ok_or_else(|| ServeError::UnknownScheme {
        scheme: scheme.to_string(),
    })?;
    let plan = optimized_plan_cached(&spec, s, rf, state.sim);
    let mut w = ObjWriter::new();
    w.bool("ok", true)
        .str("op", "plan")
        .str("bench", bench)
        .str(
            "scheme",
            &format!("{}{}", s.name(), if rf { "+rf" } else { "" }),
        )
        .u64("plan_digest", u64::from(plan.digest()))
        .str("plan", &plan.to_string());
    Ok(w.finish())
}

fn handle_stats(state: &ServeState, pool: Option<&WorkerPool>) -> String {
    let o = &state.ops;
    let mut requests = ObjWriter::new();
    requests
        .u64("build", o.build.get())
        .u64("run", o.run.get())
        .u64("trace", o.trace.get())
        .u64("plan", o.plan.get())
        .u64("stats", o.stats.get())
        .u64("metrics", o.metrics.get())
        .u64("errors", o.errors.get());
    let c = state.cache.stats();
    let mut cache = ObjWriter::new();
    cache
        .u64("lookups", c.lookups)
        .u64("hits", c.hits)
        .u64("store_hits", c.store_hits)
        .u64("misses", c.misses)
        .u64("poisoned", c.poisoned)
        .u64("inserts", c.inserts)
        .u64("evictions", c.evictions)
        .u64("uncached", c.uncached)
        .u64("build_failures", c.build_failures)
        .u64("flight_waits", c.flight_waits)
        .u64("entries", c.entries)
        .u64("resident_bytes", c.resident_bytes)
        .u64("budget_bytes", c.budget_bytes);
    let mut w = ObjWriter::new();
    w.bool("ok", true)
        .str("op", "stats")
        .u64("started_at", state.started_at())
        .u64("uptime_seconds", state.uptime_seconds())
        .raw("requests", &requests.finish())
        .raw("cache", &cache.finish());
    if let Some(store) = state.cache.store() {
        let s = store.stats();
        let mut sw = ObjWriter::new();
        sw.u64("entries", s.entries)
            .u64("scanned", s.scanned)
            .u64("quarantined", s.quarantined)
            .u64("tmp_cleaned", s.tmp_cleaned)
            .u64("loads", s.loads)
            .u64("load_failures", s.load_failures)
            .u64("spills", s.spills)
            .u64("spill_failures", s.spill_failures);
        w.raw("store", &sw.finish());
    }
    if let Some(p) = pool {
        let mut pw = ObjWriter::new();
        pw.u64("threads", p.threads() as u64)
            .u64("queued", p.queued())
            .u64("executed", p.executed())
            .u64("in_flight", p.in_flight())
            .u64("queue_depth", p.queue_depth())
            .u64("panics", p.panics());
        w.raw("pool", &pw.finish());
    }
    w.finish()
}

/// The `metrics` op: sync ambient gauges, snapshot the registry, and
/// render it in the requested format. The JSON form nests the full
/// snapshot under `"metrics"`; the text form embeds the Prometheus
/// exposition as the `"text"` string (the protocol stays one JSON
/// object per line either way).
fn handle_metrics(state: &ServeState, pool: Option<&WorkerPool>, format: MetricsFormat) -> String {
    sync_ambient(state, pool);
    let snap = state.metrics.registry.snapshot();
    let mut w = ObjWriter::new();
    w.bool("ok", true)
        .str("op", "metrics")
        .u64("started_at", state.started_at())
        .u64("uptime_seconds", state.uptime_seconds());
    match format {
        MetricsFormat::Json => w.str("format", "json").raw("metrics", &snap.to_json()),
        MetricsFormat::Text => w.str("format", "text").str("text", &snap.to_prometheus()),
    };
    w.finish()
}

/// Handles one parsed request, returning the response line (without the
/// trailing newline). Pure dispatch: every failure becomes a typed error
/// response; nothing here panics on any input. Telemetry rides along —
/// each request bumps its `serve.req.<op>` counter and lands one
/// observation in its `serve.op.<op>.us` service-time histogram — but
/// none of it leaks into the response bytes of the four pure ops.
pub fn handle_request(state: &ServeState, req: &Request, pool: Option<&WorkerPool>) -> String {
    handle_request_at(state, req, pool, Instant::now())
}

/// [`handle_request`] with an explicit admission instant: the request's
/// `deadline_ms` budget is measured from `admitted` (when the line came
/// off the socket), so time spent queued behind other work counts
/// against it. Expiry is checked here at dequeue — work the client has
/// given up on is never started — and again between the build and run
/// phases of `run`/`trace`.
pub fn handle_request_at(
    state: &ServeState,
    req: &Request,
    pool: Option<&WorkerPool>,
    admitted: Instant,
) -> String {
    let handler_start = Instant::now();
    let deadline = Deadline::of(req, admitted);
    let (op, result) = match req {
        Request::Build { bench, spec, .. } => {
            state.ops.build.inc();
            (
                "build",
                Deadline::check(deadline).and_then(|()| handle_build(state, bench, spec)),
            )
        }
        Request::Run {
            bench,
            spec,
            max_insns,
            ..
        } => {
            state.ops.run.inc();
            (
                "run",
                Deadline::check(deadline)
                    .and_then(|()| handle_run(state, bench, spec, *max_insns, deadline)),
            )
        }
        Request::Trace {
            bench,
            spec,
            max_insns,
            ..
        } => {
            state.ops.trace.inc();
            (
                "trace",
                Deadline::check(deadline)
                    .and_then(|()| handle_trace(state, bench, spec, *max_insns, deadline)),
            )
        }
        Request::Plan {
            bench, scheme, rf, ..
        } => {
            state.ops.plan.inc();
            (
                "plan",
                Deadline::check(deadline).and_then(|()| handle_plan(state, bench, scheme, *rf)),
            )
        }
        Request::Stats => {
            state.ops.stats.inc();
            ("stats", Ok(handle_stats(state, pool)))
        }
        Request::Metrics { format } => {
            state.ops.metrics.inc();
            ("metrics", Ok(handle_metrics(state, pool, *format)))
        }
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            let mut w = ObjWriter::new();
            w.bool("ok", true).str("op", "shutdown");
            ("shutdown", Ok(w.finish()))
        }
    };
    let line = match result {
        Ok(line) => line,
        Err(e) => {
            state.ops.errors.inc();
            if matches!(e, ServeError::Timeout { .. }) {
                state.metrics.deadline_exceeded.inc();
            }
            state.metrics.record_error(e.kind());
            e.render()
        }
    };
    state
        .metrics
        .op_us(op)
        .observe_micros(handler_start.elapsed());
    line
}

/// Handles one raw request line end to end (parse + dispatch).
pub fn handle_line(state: &ServeState, line: &str, pool: Option<&WorkerPool>) -> String {
    handle_line_at(state, line, pool, Instant::now())
}

/// [`handle_line`] with an explicit admission instant (see
/// [`handle_request_at`]).
pub fn handle_line_at(
    state: &ServeState,
    line: &str,
    pool: Option<&WorkerPool>,
    admitted: Instant,
) -> String {
    match parse_request(line) {
        Ok(req) => handle_request_at(state, &req, pool, admitted),
        Err(e) => {
            state.ops.errors.inc();
            state.metrics.record_error(e.kind());
            e.render()
        }
    }
}

/// One bounded line read.
enum LineRead {
    /// A complete line (newline stripped), within the cap.
    Line(Vec<u8>),
    /// The line exceeded the cap; the overflow was discarded up to (and
    /// including) the next newline.
    Oversized,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max` bytes. An oversized
/// line is *discarded as it streams in* — the server never buffers more
/// than `max` bytes per connection, so an abusive client cannot balloon
/// memory. `stop` is polled on every read timeout (the connection's
/// read timeout is the shutdown latency bound): when it reports true,
/// the read ends as a clean EOF.
fn read_line_bounded<R: BufRead>(
    r: &mut R,
    max: usize,
    stop: &dyn Fn() -> bool,
) -> std::io::Result<LineRead> {
    let mut line = Vec::new();
    let fill = |r: &mut R| -> std::io::Result<Option<()>> {
        loop {
            match r.fill_buf() {
                Ok(_) => return Ok(Some(())),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop() {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    };
    loop {
        if fill(r)?.is_none() {
            return Ok(LineRead::Eof);
        }
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return if line.is_empty() {
                Ok(LineRead::Eof)
            } else {
                // Trailing unterminated line: serve it (clients that
                // close after the last request without a final newline).
                Ok(LineRead::Line(std::mem::take(&mut line)))
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let fits = line.len() + pos <= max;
                if fits {
                    line.extend_from_slice(&chunk[..pos]);
                }
                r.consume(pos + 1);
                return if fits {
                    Ok(LineRead::Line(line))
                } else {
                    Ok(LineRead::Oversized)
                };
            }
            None => {
                let n = chunk.len();
                if line.len() + n <= max {
                    line.extend_from_slice(chunk);
                    r.consume(n);
                } else {
                    // Over the cap mid-line: drop what we have and
                    // stream-discard until the newline.
                    line.clear();
                    r.consume(n);
                    loop {
                        if fill(r)?.is_none() {
                            return Ok(LineRead::Eof);
                        }
                        let chunk = r.fill_buf()?;
                        if chunk.is_empty() {
                            return Ok(LineRead::Eof);
                        }
                        match chunk.iter().position(|&b| b == b'\n') {
                            Some(pos) => {
                                r.consume(pos + 1);
                                return Ok(LineRead::Oversized);
                            }
                            None => {
                                let n = chunk.len();
                                r.consume(n);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Monotonic connection-id source for the structured log; ids are
/// process-global so grepping the log for `"conn":N` isolates one
/// client's lifetime.
static CONN_IDS: AtomicU64 = AtomicU64::new(0);

/// Serves one connection: parse lines, park each request on the pool,
/// write each reply. Returns when the client disconnects or the server
/// shuts down; `path` is the server's own socket, dialed once to wake
/// the accept loop when this connection carried the `shutdown` op.
fn serve_connection(
    state: &Arc<ServeState>,
    pool: &Arc<WorkerPool>,
    stream: UnixStream,
    path: &Path,
) {
    let conn = CONN_IDS.fetch_add(1, Ordering::Relaxed) + 1;
    log::event(Level::Info, "conn_open")
        .u64("conn", conn)
        .emit();
    let requests = serve_requests(state, pool, stream, path, conn);
    log::event(Level::Info, "conn_close")
        .u64("conn", conn)
        .u64("requests", requests)
        .emit();
}

/// The body of [`serve_connection`]; returns how many request lines
/// this connection answered (for the `conn_close` log event).
fn serve_requests(
    state: &Arc<ServeState>,
    pool: &Arc<WorkerPool>,
    stream: UnixStream,
    path: &Path,
    conn: u64,
) -> u64 {
    // The read timeout bounds shutdown latency: an idle reader wakes at
    // this cadence, polls the flag, and exits instead of blocking a
    // teardown join forever. The write timeout turns a full send buffer
    // into 50 ms ticks `write_line_bounded` can count against the
    // stall budget, so a slow-loris client is bounded the same way.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return 0,
    };
    let mut reader = BufReader::new(stream);
    let stop = || state.shutdown_requested();
    let mut seq = 0u64;
    loop {
        if state.shutdown_requested() {
            return seq;
        }
        let line = match read_line_bounded(&mut reader, MAX_LINE_BYTES, &stop) {
            Err(_) | Ok(LineRead::Eof) => return seq,
            Ok(LineRead::Oversized) => {
                state.ops.errors.inc();
                let err = ServeError::OversizedLine {
                    limit: MAX_LINE_BYTES,
                };
                state.metrics.record_error(err.kind());
                let resp = err.render();
                seq += 1;
                state.metrics.bytes_out.add(resp.len() as u64 + 1);
                log::event(Level::Debug, "request")
                    .u64("conn", conn)
                    .u64("seq", seq)
                    .str("note", "oversized line discarded")
                    .u64("bytes_out", resp.len() as u64 + 1)
                    .emit();
                if write_line_bounded(&mut writer, &resp, state, &stop).is_err() {
                    return seq;
                }
                continue;
            }
            Ok(LineRead::Line(bytes)) => bytes,
        };
        // Every line — even an empty one — gets exactly one response;
        // clients pipeline on that 1:1 invariant, so silently skipping
        // a blank line would desynchronize (and wedge) them.
        let bytes_in = line.len() as u64 + 1;
        state.metrics.bytes_in.add(bytes_in);
        let req_start = Instant::now();
        // Admission control: a queue already at the bound means this
        // request would wait behind `max_queue` jobs; shed it with a
        // typed, retryable `overloaded` instead of queueing unboundedly.
        let depth = pool.queue_depth();
        if depth >= state.max_queue {
            let err = ServeError::Overloaded {
                queue_depth: depth,
                limit: state.max_queue,
            };
            state.ops.errors.inc();
            state.metrics.record_error(err.kind());
            state.metrics.shed.inc();
            let resp = err.render();
            seq += 1;
            state.metrics.bytes_out.add(resp.len() as u64 + 1);
            log::event(Level::Debug, "request")
                .u64("conn", conn)
                .u64("seq", seq)
                .str("note", "shed: admission queue full")
                .u64("queue_depth", depth)
                .u64("bytes_out", resp.len() as u64 + 1)
                .emit();
            if write_line_bounded(&mut writer, &resp, state, &stop).is_err() {
                return seq;
            }
            continue;
        }
        let line = String::from_utf8_lossy(&line).into_owned();
        // Dispatch to the pool and wait for this request's reply; the
        // job never dispatches nested jobs, so the pool cannot deadlock.
        let (tx, rx) = mpsc::channel::<String>();
        let st = Arc::clone(state);
        let pl = Arc::clone(pool);
        let admitted = req_start;
        let accepted = pool.execute(Box::new(move || {
            let resp = handle_line_at(&st, &line, Some(&pl), admitted);
            let _ = tx.send(resp);
        }));
        let resp = if accepted {
            match rx.recv() {
                Ok(r) => r,
                // The job panicked past the renderer (it shouldn't): the
                // channel closes; answer with a typed error, not silence.
                Err(_) => ServeError::BuildFailed {
                    detail: "internal: request handler died".into(),
                }
                .render(),
            }
        } else {
            ServeError::Unsupported {
                detail: "server is shutting down".into(),
            }
            .render()
        };
        seq += 1;
        let bytes_out = resp.len() as u64 + 1;
        state.metrics.bytes_out.add(bytes_out);
        log::event(Level::Debug, "request")
            .u64("conn", conn)
            .u64("seq", seq)
            .u64("bytes_in", bytes_in)
            .u64("bytes_out", bytes_out)
            .u64(
                "us",
                req_start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            )
            .emit();
        if write_line_bounded(&mut writer, &resp, state, &stop).is_err() {
            return seq;
        }
        if state.shutdown_requested() {
            // This connection delivered (or raced with) the `shutdown`
            // op; the accept loop is still parked in `incoming()`, so
            // dial it awake before leaving.
            let _ = UnixStream::connect(path);
            return seq;
        }
    }
}

/// Writes `line` + newline with a bounded stall. The stream's 50 ms
/// write timeout turns a full send buffer into `WouldBlock`/`TimedOut`
/// ticks; after [`ServeState::write_stall_ms`] with **no forward
/// progress** (or on shutdown) the write is abandoned with an error and
/// the caller drops the connection. A slow-loris client that stops
/// draining its socket therefore costs a reader thread at most the
/// stall budget, instead of pinning it forever; a merely *slow* client
/// that keeps draining resets the budget on every accepted byte.
fn write_line_bounded(
    w: &mut UnixStream,
    line: &str,
    state: &ServeState,
    stop: &dyn Fn() -> bool,
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let budget = Duration::from_millis(state.write_stall_ms);
    let mut off = 0usize;
    let mut last_progress = Instant::now();
    while off < buf.len() {
        match w.write(&buf[off..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "peer stopped reading",
                ))
            }
            Ok(n) => {
                off += n;
                last_progress = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop() || last_progress.elapsed() >= budget {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "write stalled past budget",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// A running daemon bound to a Unix socket.
pub struct Server {
    path: PathBuf,
    state: Arc<ServeState>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `path` (removing any stale socket file) and starts serving.
    ///
    /// # Errors
    ///
    /// I/O errors binding the socket.
    pub fn start(path: &Path, config: ServeConfig) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let state = Arc::new(ServeState::try_new(&config)?);
        let pool = Arc::new(WorkerPool::new_instrumented(
            config.threads,
            Arc::clone(&state.metrics.pool_wall),
        ));
        let mut start_ev = log::event(Level::Info, "serve_start")
            .str("socket", &path.to_string_lossy())
            .u64("threads", config.threads as u64)
            .u64("cache_bytes", config.cache_bytes)
            .u64("max_queue", config.max_queue);
        if let Some(dir) = &config.cache_dir {
            start_ev = start_ev.str("cache_dir", &dir.to_string_lossy());
        }
        start_ev.emit();
        let accept_state = Arc::clone(&state);
        let accept_path = path.to_path_buf();
        let accept = std::thread::Builder::new()
            .name("rtdc-serve-accept".into())
            .spawn(move || {
                // `pool` lives (and on drop, drains) inside the accept
                // thread: joining the server joins all in-flight work.
                let pool = pool;
                let mut readers: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if accept_state.shutdown_requested() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let st = Arc::clone(&accept_state);
                    let pl = Arc::clone(&pool);
                    let wake = accept_path.clone();
                    let h = std::thread::Builder::new()
                        .name("rtdc-serve-conn".into())
                        .spawn(move || serve_connection(&st, &pl, stream, &wake))
                        .expect("spawn connection reader");
                    readers.push(h);
                    readers.retain(|h| !h.is_finished());
                }
                for h in readers {
                    let _ = h.join();
                }
                // Final telemetry flush: with every reader joined the
                // counters are quiescent, so this snapshot is the exact
                // totals for the daemon's lifetime.
                sync_ambient(&accept_state, Some(&pool));
                log::event(Level::Info, "metrics_snapshot")
                    .raw(
                        "metrics",
                        &accept_state.metrics.registry.snapshot().to_json(),
                    )
                    .emit();
            })
            .expect("spawn accept loop");
        Ok(Server {
            path: path.to_path_buf(),
            state,
            accept: Some(accept),
        })
    }

    /// The shared state (tests poke counters and the cache through this).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// The socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Requests shutdown and wakes the accept loop.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.path);
    }

    /// Waits for the accept loop (and with it, all in-flight work) to
    /// finish. Call [`Server::shutdown`] first, or send a `shutdown`
    /// request; otherwise this blocks until a client does.
    pub fn join(mut self) {
        // A `shutdown` op flips the flag from a worker; the accept loop
        // still needs a wake-up connection to notice.
        if self.state.shutdown_requested() {
            let _ = UnixStream::connect(&self.path);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&self.path);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

// Teardown converges from either direction. A client `shutdown` op:
// the handling connection writes its reply, sees the flag, dials the
// wake-up connection, and the accept loop breaks. A host-side
// `shutdown()`/`Drop`: the flag plus wake-up dial stop the accept loop,
// and every idle reader notices the flag at its next read timeout (the
// 50ms cadence set on each connection), so joining never waits on a
// blocked read.

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServeState {
        ServeState::new(&ServeConfig {
            threads: 2,
            cache_bytes: 16 << 20,
            max_insns: 50_000_000,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn build_and_run_known_answer_program() {
        let st = state();
        let b = handle_line(&st, r#"{"op":"build","bench":"sort","scheme":"d"}"#, None);
        assert!(b.contains(r#""ok":true"#), "{b}");
        assert!(b.contains(r#""label":"d""#), "{b}");
        let r = handle_line(&st, r#"{"op":"run","bench":"sort","scheme":"d"}"#, None);
        assert!(r.contains(r#""ok":true"#), "{r}");
        assert!(r.contains(r#""exit_code":"#), "{r}");
        assert!(r.contains(r#""stats":{"insns":"#), "{r}");
        // The second run hits the cache; the response bytes must not care.
        let r2 = handle_line(&st, r#"{"op":"run","bench":"sort","scheme":"d"}"#, None);
        assert_eq!(r, r2, "responses must be pure functions of the request");
        let s = st.cache.stats();
        assert_eq!((s.misses, s.hits), (1, 2));
    }

    #[test]
    fn run_matches_direct_runner() {
        let st = state();
        let resp = handle_line(
            &st,
            r#"{"op":"run","bench":"crc32","scheme":"cp+rf"}"#,
            None,
        );
        let v = crate::json::parse(&resp).unwrap();
        let got = crate::protocol::parse_stats(v.get("stats").unwrap()).unwrap();
        let program = resolve_program("crc32").unwrap();
        let plan = CompressionPlan::uniform(
            Scheme::CodePack,
            true,
            PlanSource::Heuristic,
            &Selection::all_compressed(program.procedures.len()),
        );
        let image = Verified::new(build_planned(&program, &plan).unwrap()).unwrap();
        let (want, NoTrace) = run_image_with_sink(&image, st.sim, st.max_insns, NoTrace).unwrap();
        assert_eq!(got, want.stats);
    }

    #[test]
    fn trace_counts_are_consistent() {
        let st = state();
        let resp = handle_line(&st, r#"{"op":"trace","bench":"sort"}"#, None);
        let v = crate::json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(crate::json::Json::as_bool), Some(true));
        let events = v.get("events").unwrap();
        let fetches = events
            .get("fetch")
            .and_then(crate::json::Json::as_u64)
            .unwrap();
        let commits = events
            .get("commit")
            .and_then(crate::json::Json::as_u64)
            .unwrap();
        assert!(fetches > 0 && commits > 0);
        // A native image never takes the decompression exception.
        assert_eq!(
            events.get("exc").and_then(crate::json::Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn unknown_targets_are_typed_errors() {
        let st = state();
        for (line, kind) in [
            (r#"{"op":"run","bench":"nope"}"#, "unknown-bench"),
            (
                r#"{"op":"run","bench":"sort","scheme":"zz"}"#,
                "unknown-scheme",
            ),
            (
                r#"{"op":"build","bench":"sort","plan":"not a plan"}"#,
                "bad-plan",
            ),
            (
                r#"{"op":"plan","bench":"sort","scheme":"d"}"#,
                "unsupported",
            ),
            (
                r#"{"op":"plan","bench":"nope","scheme":"d"}"#,
                "unknown-bench",
            ),
        ] {
            let resp = handle_line(&st, line, None);
            assert!(
                resp.contains(&format!(r#""error":"{kind}""#)),
                "{line} -> {resp}"
            );
        }
        assert_eq!(st.ops.errors.get(), 5);
        // Every kind surfaced in the registry too.
        let snap = st.metrics.registry.snapshot();
        assert_eq!(snap.value("serve.err.total"), Some(5));
        assert_eq!(snap.value("serve.err.unknown-bench"), Some(2));
        assert_eq!(snap.value("serve.err.unknown-scheme"), Some(1));
        assert_eq!(snap.value("serve.err.bad-plan"), Some(1));
        assert_eq!(snap.value("serve.err.unsupported"), Some(1));
    }

    #[test]
    fn plan_build_shares_cache_with_equivalent_digest() {
        let st = state();
        // `plan` on a tiny benchmark, then `build` with the returned text:
        // the digest in both responses must agree.
        let p = handle_line(
            &st,
            r#"{"op":"plan","bench":"tiny-loop","scheme":"d"}"#,
            None,
        );
        let v = crate::json::parse(&p).unwrap();
        let digest = v
            .get("plan_digest")
            .and_then(crate::json::Json::as_u64)
            .unwrap();
        let text = v.get("plan").and_then(crate::json::Json::as_str).unwrap();
        let mut req = ObjWriter::new();
        req.str("op", "build")
            .str("bench", "tiny-loop")
            .str("plan", text);
        let b = handle_line(&st, &req.finish(), None);
        let bv = crate::json::parse(&b).unwrap();
        assert_eq!(
            bv.get("plan_digest").and_then(crate::json::Json::as_u64),
            Some(digest)
        );
    }

    #[test]
    fn metrics_op_reports_both_formats() {
        let st = state();
        handle_line(&st, r#"{"op":"run","bench":"sort","scheme":"d"}"#, None);
        let m = handle_line(&st, r#"{"op":"metrics"}"#, None);
        let v = crate::json::parse(&m).unwrap();
        assert_eq!(v.get("ok").and_then(crate::json::Json::as_bool), Some(true));
        let metrics = v.get("metrics").unwrap();
        let counters = metrics.get("counters").unwrap();
        assert_eq!(
            counters
                .get("serve.req.run")
                .and_then(crate::json::Json::as_u64),
            Some(1)
        );
        assert_eq!(
            counters
                .get("serve.sim.runs.d")
                .and_then(crate::json::Json::as_u64),
            Some(1)
        );
        // The run's service time landed in its histogram.
        let h = metrics
            .get("histograms")
            .and_then(|h| h.get("serve.op.run.us"))
            .unwrap();
        assert_eq!(h.get("count").and_then(crate::json::Json::as_u64), Some(1));
        // Ambient cache gauges mirror the internal counters exactly.
        let gauges = metrics.get("gauges").unwrap();
        let s = st.cache.stats();
        assert_eq!(
            gauges
                .get("serve.cache.misses")
                .and_then(crate::json::Json::as_u64),
            Some(s.misses)
        );
        let t = handle_line(&st, r#"{"op":"metrics","format":"text"}"#, None);
        let tv = crate::json::parse(&t).unwrap();
        let text = tv.get("text").and_then(crate::json::Json::as_str).unwrap();
        assert!(text.contains("# TYPE serve_req_run counter\nserve_req_run 1\n"));
        assert!(text.contains("serve_op_run_us_count 1\n"));
    }

    #[test]
    fn stats_reports_uptime_and_flight_waits() {
        let st = state();
        let resp = handle_line(&st, r#"{"op":"stats"}"#, None);
        let v = crate::json::parse(&resp).unwrap();
        assert!(v
            .get("uptime_seconds")
            .and_then(crate::json::Json::as_u64)
            .is_some());
        assert_eq!(
            v.get("started_at").and_then(crate::json::Json::as_u64),
            Some(st.started_at())
        );
        let cache = v.get("cache").unwrap();
        assert_eq!(
            cache
                .get("flight_waits")
                .and_then(crate::json::Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn expired_deadline_is_a_typed_timeout() {
        let st = state();
        let req = parse_request(r#"{"op":"run","bench":"sort","deadline_ms":1}"#).unwrap();
        // Admitted 50 ms ago with a 1 ms budget: expired at dequeue.
        let admitted = Instant::now() - Duration::from_millis(50);
        let resp = handle_request_at(&st, &req, None, admitted);
        assert!(resp.contains(r#""error":"timeout""#), "{resp}");
        assert_eq!(st.metrics.deadline_exceeded.get(), 1);
        assert_eq!(st.ops.errors.get(), 1);
        // A generous budget admitted just now succeeds.
        let req = parse_request(r#"{"op":"run","bench":"sort","deadline_ms":60000}"#).unwrap();
        let resp = handle_request_at(&st, &req, None, Instant::now());
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        // `deadline_ms` must not leak into the pure response bytes.
        let plain = handle_line(&st, r#"{"op":"run","bench":"sort"}"#, None);
        assert_eq!(resp, plain);
    }

    #[test]
    fn stalled_writes_are_bounded_not_forever() {
        use std::os::unix::net::UnixStream as Us;
        let st = ServeState::new(&ServeConfig {
            write_stall_ms: 150,
            ..ServeConfig::default()
        });
        let (mut a, b) = Us::pair().unwrap();
        let _ = a.set_write_timeout(Some(Duration::from_millis(50)));
        // The peer never reads: a multi-megabyte line must fill the
        // socket buffer and then abort within the stall budget.
        let big = "x".repeat(8 << 20);
        let start = Instant::now();
        let err = write_line_bounded(&mut a, &big, &st, &(|| false)).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            "{err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "stall must be bounded, took {:?}",
            start.elapsed()
        );
        drop(b);
        // A draining peer sees the whole line.
        let (mut a, b) = Us::pair().unwrap();
        let _ = a.set_write_timeout(Some(Duration::from_millis(50)));
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(b);
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            line.len()
        });
        write_line_bounded(&mut a, &big, &st, &(|| false)).unwrap();
        drop(a);
        assert_eq!(reader.join().unwrap(), big.len() + 1);
    }

    #[test]
    fn bounded_reader_discards_oversized_lines() {
        let data = {
            let mut d = vec![b'a'; 100];
            d.push(b'\n');
            d.extend_from_slice(b"{\"op\":\"stats\"}\n");
            d
        };
        let mut r = BufReader::with_capacity(16, &data[..]);
        let stop = || false;
        assert!(matches!(
            read_line_bounded(&mut r, 10, &stop).unwrap(),
            LineRead::Oversized
        ));
        match read_line_bounded(&mut r, 10_000, &stop).unwrap() {
            LineRead::Line(l) => assert_eq!(l, b"{\"op\":\"stats\"}"),
            _ => panic!("second line must parse after an oversized first"),
        }
        assert!(matches!(
            read_line_bounded(&mut r, 10, &stop).unwrap(),
            LineRead::Eof
        ));
    }
}
