//! The daemon, in three layers over the shared state defined here.
//!
//! * [`transport`]: the [`Server`], its accept loop, and one reader
//!   thread per connection moving length-bounded lines between the
//!   socket and the pool. It owns every socket and nothing semantic.
//! * [`dispatch`]: one request line in, one response line out —
//!   parsing, admission control, deadline budgets and per-op telemetry
//!   ([`handle_line`], [`handle_request_at`]).
//! * [`handlers`]: the per-op handlers behind the dispatcher.
//!
//! This module holds what all three share: [`ServeConfig`], the
//! [`ServeState`] every handler reads, and the [`ServeMetrics`] registry.
//! Tests drive [`handle_line`] directly when the property under test is
//! semantic, and through the socket when it is concurrency or teardown.
//!
//! Telemetry leaks into none of the pure responses: [`ServeMetrics`]
//! pre-registers the hot-path handles (per-op counters and service-time
//! histograms, byte counters, the pool's wall histogram), `sync_ambient`
//! mirrors cache, store and pool counters into gauges at snapshot time,
//! and the structured log (`rtdc_obs::log`) carries connection and
//! request events on stderr.

use std::collections::HashMap;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rtdc::prelude::RunReport;
use rtdc_obs::log::{self, Level};
use rtdc_obs::{Counter, Histogram, MetricsRegistry};
use rtdc_sim::EngineCounters;

use crate::cache::ImageCache;
use crate::pool::WorkerPool;
use crate::store::DiskStore;

mod dispatch;
mod handlers;
mod transport;

pub use dispatch::{handle_line, handle_line_at, handle_request_at};
pub use transport::Server;

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
    /// Per-connection write-stall budget in milliseconds: the socket's
    /// send timeout (0 counts as 1 ms). A response write that cannot
    /// hand the kernel a byte for this long is abandoned and the
    /// connection dropped, so a client that stops reading cannot pin a
    /// reader thread. Linux times each send wait separately: a peer
    /// that keeps draining, however slowly, is never cut off, and one
    /// that never reads is dropped within two budgets (a partial send,
    /// then a timed-out one).
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

/// The ops the dispatcher serves (service-time histograms are
/// pre-registered per entry, so the hot path never takes the registry
/// lock).
const OPS: [&str; 7] = [
    "build", "run", "trace", "plan", "stats", "metrics", "shutdown",
];

/// The daemon's metrics registry plus the pre-registered hot-path
/// handles. Everything observable through the `metrics` op lives here;
/// ambient values (cache counters, pool depth, uptime) are mirrored
/// into registry gauges by `sync_ambient` at snapshot time, so they
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
    /// loop split every run (block and trace ops, side exits, builds,
    /// table conflicts and invalidations, fallback steps by reason,
    /// trace recording among them).
    sim_engine: [Arc<Counter>; EngineCounters::FIELDS.len()],
    /// Each image label's sim handles, registered on its first run.
    sim_labels: Mutex<HashMap<String, SimLabel>>,
}

/// The `serve.sim.{runs,cycles}.<label>` counters and the
/// `serve.sim.wall_us.<label>` histogram of one image label.
struct SimLabel {
    runs: Arc<Counter>,
    cycles: Arc<Counter>,
    wall_us: Arc<Histogram>,
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
            sim_labels: Mutex::default(),
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
    /// totals. A label's three handles are registered on its first run
    /// and looked up by label after that.
    fn record_sim(&self, label: &str, report: &RunReport, wall: Duration) {
        for (counter, n) in self.sim_engine.iter().zip(report.engine.to_array()) {
            counter.add(n);
        }
        let mut labels = self.sim_labels.lock().expect("sim label lock");
        if !labels.contains_key(label) {
            let handles = SimLabel {
                runs: self.registry.counter(&format!("serve.sim.runs.{label}")),
                cycles: self.registry.counter(&format!("serve.sim.cycles.{label}")),
                wall_us: self
                    .registry
                    .histogram(&format!("serve.sim.wall_us.{label}")),
            };
            labels.insert(label.to_string(), handles);
        }
        let handles = &labels[label];
        handles.runs.inc();
        handles.cycles.add(report.stats.cycles);
        handles.wall_us.observe_micros(wall);
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
    /// A dup of the [`Server`]'s listening socket, held as a stream only
    /// to be shut down: that fails the accept loop's blocked `accept`
    /// at once (`None` for a state with no server).
    listener: Option<UnixStream>,
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
            listener: None,
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

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: the one teardown path, behind the `shutdown`
    /// op, [`Server::shutdown`] and dropping a [`Server`]. Sets the flag
    /// and, the first time only, shuts the server's listening socket, so
    /// its accept loop wakes, sees the flag and tears the connections
    /// down.
    pub fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            if let Some(listener) = &self.listener {
                let _ = listener.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Mirrors ambient values — cache, store and pool counters, uptime —
/// into registry gauges. Called at snapshot time (the `metrics` op and
/// the shutdown flush), so the gauges a snapshot carries are exactly
/// the internal counters at that instant; they are *views*, not shadow
/// state that could drift.
fn sync_ambient(state: &ServeState, pool: Option<&WorkerPool>) {
    let reg = &state.metrics.registry;
    let set = |group: &str, fields: &[(&str, u64)]| {
        for (name, v) in fields {
            reg.gauge(&format!("serve.{group}.{name}")).set(*v);
        }
    };
    reg.gauge("serve.uptime_seconds")
        .set(state.uptime_seconds());
    set("cache", &state.cache.stats().fields());
    if let Some(store) = state.cache.store() {
        set("store", &store.stats().fields());
    }
    if let Some(p) = pool {
        set("pool", &p.fields());
    }
}

#[cfg(test)]
mod tests;
