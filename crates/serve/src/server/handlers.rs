//! The handler layer: one function per op, each a pure function of the
//! request and the shared [`ServeState`] (plus the pool, for the
//! counters `stats`/`metrics` report). Handlers return the response
//! line or a typed [`ServeError`]; counting, timing and deadlines at
//! dequeue belong to the dispatcher, sockets to the transport.

use std::sync::Arc;
use std::time::Instant;

use rtdc::prelude::*;
use rtdc_bench::planopt::optimized_plan_cached;
use rtdc_isa::program::ObjectProgram;
use rtdc_sim::trace::{TraceEvent, EVENT_KINDS};
use rtdc_sim::{NoTrace, TraceSink};
use rtdc_workloads::{resolve_program, resolve_spec};

use crate::cache::CacheKey;
use crate::json::ObjWriter;
use crate::pool::WorkerPool;
use crate::protocol::{stats_json, BuildSpec, MetricsFormat, ServeError};

use super::dispatch::Deadline;
use super::{sync_ambient, ServeState};

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
            Ok((s.name_rf(*rf), Some(plan)))
        }
        BuildSpec::Plan { text } => {
            let plan: CompressionPlan =
                text.parse().map_err(|e: PlanError| ServeError::BadPlan {
                    detail: e.to_string(),
                })?;
            let label = format!("{}+plan", plan.scheme.name_rf(plan.second_rf));
            Ok((label, Some(plan)))
        }
    }
}

/// Builds or fetches the image for `(bench, spec)` through the cache,
/// verified exactly once on the way out. Returns the image and the
/// response's opening fields (`ok`, `op`, `bench`, `label`,
/// `plan_digest`), which every image op shares.
fn obtain_image(
    state: &ServeState,
    op: &str,
    bench: &str,
    spec: &BuildSpec,
) -> Result<(Verified<Arc<MemoryImage>>, String, ObjWriter), ServeError> {
    let program = resolve_program(bench).ok_or_else(|| ServeError::UnknownBench {
        bench: bench.to_string(),
    })?;
    let (label, plan) = resolve_build(&program, spec)?;
    let plan_digest = plan.as_ref().map_or(0, CompressionPlan::digest);
    let mut w = ObjWriter::new();
    w.bool("ok", true)
        .str("op", op)
        .str("bench", bench)
        .str("label", &label)
        .u64("plan_digest", u64::from(plan_digest));
    let key = CacheKey {
        bench: bench.to_string(),
        label,
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
    Ok((image, key.label, w))
}

pub(super) fn handle_build(
    state: &ServeState,
    bench: &str,
    spec: &BuildSpec,
) -> Result<String, ServeError> {
    let (image, _, mut w) = obtain_image(state, "build", bench, spec)?;
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
    Ok(w.finish())
}

/// The step `run` and `trace` share: obtain the image, re-check the
/// deadline (the build may have spent the whole budget; answer
/// `timeout` rather than start a run the client gave up on), simulate
/// into `sink`, and record the run. Returns the report, the sink and
/// the response's opening fields.
fn simulate<S: TraceSink>(
    state: &ServeState,
    op: &str,
    bench: &str,
    spec: &BuildSpec,
    max_insns: Option<u64>,
    deadline: Option<Deadline>,
    sink: S,
) -> Result<(RunReport, S, ObjWriter), ServeError> {
    let (image, label, w) = obtain_image(state, op, bench, spec)?;
    Deadline::check(deadline)?;
    let limit = max_insns.unwrap_or(state.max_insns);
    let sim_start = Instant::now();
    let (report, sink) =
        run_image_with_sink(&image, state.sim, limit, sink).map_err(|e| ServeError::RunFailed {
            detail: e.to_string(),
        })?;
    state
        .metrics
        .record_sim(&label, &report, sim_start.elapsed());
    Ok((report, sink, w))
}

pub(super) fn handle_run(
    state: &ServeState,
    bench: &str,
    spec: &BuildSpec,
    max_insns: Option<u64>,
    deadline: Option<Deadline>,
) -> Result<String, ServeError> {
    let (report, NoTrace, mut w) =
        simulate(state, "run", bench, spec, max_insns, deadline, NoTrace)?;
    w.u64("exit_code", u64::from(report.exit_code))
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

pub(super) fn handle_trace(
    state: &ServeState,
    bench: &str,
    spec: &BuildSpec,
    max_insns: Option<u64>,
    deadline: Option<Deadline>,
) -> Result<String, ServeError> {
    let sink = CountSink::default();
    let (report, sink, mut w) = simulate(state, "trace", bench, spec, max_insns, deadline, sink)?;
    let mut events = ObjWriter::new();
    for ((_, name), n) in EVENT_KINDS.iter().zip(sink.counts) {
        events.u64(name, n);
    }
    w.u64("exit_code", u64::from(report.exit_code))
        .u64("events_total", sink.counts.iter().sum())
        .raw("events", &events.finish());
    Ok(w.finish())
}

pub(super) fn handle_plan(
    state: &ServeState,
    bench: &str,
    scheme: &str,
    rf: bool,
) -> Result<String, ServeError> {
    let spec = resolve_spec(bench).ok_or_else(|| {
        if resolve_program(bench).is_some() {
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
        .str("scheme", &s.name_rf(rf))
        .u64("plan_digest", u64::from(plan.digest()))
        .str("plan", &plan.to_string());
    Ok(w.finish())
}

/// One `(name, value)` field list as a JSON object.
fn fields_json(fields: &[(&str, u64)]) -> String {
    let mut w = ObjWriter::new();
    for (name, v) in fields {
        w.u64(name, *v);
    }
    w.finish()
}

pub(super) fn handle_stats(state: &ServeState, pool: Option<&WorkerPool>) -> String {
    let o = &state.ops;
    let requests = fields_json(&[
        ("build", o.build.get()),
        ("run", o.run.get()),
        ("trace", o.trace.get()),
        ("plan", o.plan.get()),
        ("stats", o.stats.get()),
        ("metrics", o.metrics.get()),
        ("errors", o.errors.get()),
    ]);
    let mut w = ObjWriter::new();
    w.bool("ok", true)
        .str("op", "stats")
        .u64("started_at", state.started_at())
        .u64("uptime_seconds", state.uptime_seconds())
        .raw("requests", &requests)
        .raw("cache", &fields_json(&state.cache.stats().fields()));
    if let Some(store) = state.cache.store() {
        w.raw("store", &fields_json(&store.stats().fields()));
    }
    if let Some(p) = pool {
        w.raw("pool", &fields_json(&p.fields()));
    }
    w.finish()
}

/// The `metrics` op: sync ambient gauges, snapshot the registry, and
/// render it in the requested format. The JSON form nests the full
/// snapshot under `"metrics"`; the text form embeds the Prometheus
/// exposition as the `"text"` string (the protocol stays one JSON
/// object per line either way).
pub(super) fn handle_metrics(
    state: &ServeState,
    pool: Option<&WorkerPool>,
    format: MetricsFormat,
) -> String {
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

/// The `shutdown` op: requests teardown; the connection that carried it
/// still receives this reply.
pub(super) fn handle_shutdown(state: &ServeState) -> String {
    state.request_shutdown();
    let mut w = ObjWriter::new();
    w.bool("ok", true).str("op", "shutdown");
    w.finish()
}
