//! Telemetry reconciliation battery: the `metrics` op's registry view
//! must agree **exactly** with the daemon's internal counters — the
//! cache's own `CacheStats`, the pool's job accounting, and the request
//! log the clients kept — after an eviction-stress workload. A registry
//! that drifts from the source of truth is worse than no registry.
//!
//! Everything here goes through the socket: the properties under test
//! include the protocol rendering, not just the in-process registry.

use std::sync::atomic::{AtomicU64, Ordering};

use rtdc_rng::Rng64;
use rtdc_serve::client::{parse_histogram, request_line, Client};
use rtdc_serve::json::Json;
use rtdc_serve::server::{ServeConfig, Server};

const CLIENTS: usize = 6;
const PER_CLIENT: usize = 20;

fn gauge(m: &Json, name: &str) -> u64 {
    m.get("gauges")
        .and_then(|g| g.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics missing gauge `{name}`"))
}

fn counter(m: &Json, name: &str) -> u64 {
    m.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics missing counter `{name}`"))
}

#[test]
fn registry_reconciles_with_cache_and_pool_after_eviction_stress() {
    // A few-KB budget on real images: constant LRU churn, so the
    // reconciliation covers evictions and single-flight waits, not just
    // the happy path.
    let path = std::env::temp_dir().join(format!("rtdc-serve-mrec-{}.sock", std::process::id()));
    let server = Server::start(
        &path,
        ServeConfig {
            threads: 2,
            cache_bytes: 6 << 10,
            max_insns: 2_000_000_000,
            ..ServeConfig::default()
        },
    )
    .expect("start server");

    let sent = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for id in 0..CLIENTS {
            let path = &path;
            let sent = &sent;
            scope.spawn(move || {
                let mut rng = Rng64::seed_from_u64(0x0B5_0000 + id as u64);
                let mut c = Client::connect(path).expect("connect");
                let benches = ["sort", "crc32", "matmul", "strsearch"];
                let labels = ["native", "d", "d+rf", "cp", "d2", "lz"];
                for _ in 0..PER_CLIENT {
                    let bench = rng.choose(&benches);
                    let label = rng.choose(&labels);
                    let resp = c
                        .request_raw(&request_line("build", bench, label, None))
                        .expect("request");
                    assert!(resp.starts_with(r#"{"ok":true"#), "{resp}");
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let total = sent.load(Ordering::Relaxed);
    assert_eq!(total, (CLIENTS * PER_CLIENT) as u64);

    let mut c = Client::connect(&path).expect("connect");
    let resp = c.metrics().expect("metrics op");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let m = resp.get("metrics").expect("metrics payload");

    // Request counters vs the client-side log.
    assert_eq!(counter(m, "serve.req.build"), total);
    assert_eq!(counter(m, "serve.req.metrics"), 1);
    assert_eq!(counter(m, "serve.err.total"), 0);
    assert!(counter(m, "serve.bytes_in") > 0);
    assert!(counter(m, "serve.bytes_out") > 0);

    // Cache gauges vs the cache's own counters. No cache activity can
    // happen between the snapshot and this read (the only live client
    // is ours, and `metrics` touches no images), so equality is exact.
    let s = server.state().cache.stats();
    for (name, want) in [
        ("lookups", s.lookups),
        ("hits", s.hits),
        ("misses", s.misses),
        ("poisoned", s.poisoned),
        ("inserts", s.inserts),
        ("evictions", s.evictions),
        ("uncached", s.uncached),
        ("build_failures", s.build_failures),
        ("flight_waits", s.flight_waits),
        ("entries", s.entries),
        ("resident_bytes", s.resident_bytes),
        ("budget_bytes", s.budget_bytes),
    ] {
        assert_eq!(
            gauge(m, &format!("serve.cache.{name}")),
            want,
            "cache gauge `{name}` drifted from CacheStats {s:?}"
        );
    }
    // And the cache's own invariants hold in the mirrored view.
    assert_eq!(
        gauge(m, "serve.cache.lookups"),
        gauge(m, "serve.cache.hits")
            + gauge(m, "serve.cache.misses")
            + gauge(m, "serve.cache.poisoned")
    );
    assert!(
        gauge(m, "serve.cache.evictions") > 0,
        "tiny budget must evict"
    );

    // Pool gauges: the snapshot is taken from inside the metrics job,
    // so that job is in flight. A worker retires its accounting
    // (`in_flight-- / executed++`) *after* the reply is produced, so
    // the other worker may still hold one stress-phase straggler.
    assert_eq!(gauge(m, "serve.pool.threads"), 2);
    assert_eq!(gauge(m, "serve.pool.queued"), total + 1);
    let executed = gauge(m, "serve.pool.executed");
    assert!(
        (total - 1..=total).contains(&executed),
        "executed {executed} vs {total} submitted"
    );
    assert!(gauge(m, "serve.pool.in_flight") >= 1);
    assert!(gauge(m, "serve.pool.queue_depth") <= 1);
    assert_eq!(gauge(m, "serve.pool.panics"), 0);

    // Service-time histogram: one observation per build, buckets
    // summing exactly to the count.
    let h = m
        .get("histograms")
        .and_then(|h| h.get("serve.op.build.us"))
        .and_then(parse_histogram)
        .expect("build histogram");
    assert_eq!(h.count, total);
    assert_eq!(h.count, h.buckets.iter().map(|&(_, n)| n).sum::<u64>());
    assert!(h.quantile(0.99).is_some());

    // The pool's wall histogram saw every retired job (same possible
    // straggler as `executed`).
    let wall = m
        .get("histograms")
        .and_then(|h| h.get("serve.pool.job_wall.us"))
        .and_then(parse_histogram)
        .expect("pool wall histogram");
    assert!(
        (total - 1..=total).contains(&wall.count),
        "wall count {} vs {total}",
        wall.count
    );

    drop(server);
}

#[test]
fn metrics_text_format_and_stats_uptime_agree() {
    let path = std::env::temp_dir().join(format!("rtdc-serve-mtxt-{}.sock", std::process::id()));
    let server = Server::start(&path, ServeConfig::default()).expect("start server");
    let mut c = Client::connect(&path).expect("connect");
    let resp = c
        .request(&request_line("build", "sort", "d", None))
        .expect("build");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    // `stats` and `metrics` report the same birth time; uptime counts.
    let stats = c.request(r#"{"op":"stats"}"#).expect("stats");
    let started_at = stats
        .get("started_at")
        .and_then(Json::as_u64)
        .expect("stats started_at");
    assert!(stats.get("uptime_seconds").and_then(Json::as_u64).is_some());
    let metrics = c.metrics().expect("metrics");
    assert_eq!(
        metrics.get("started_at").and_then(Json::as_u64),
        Some(started_at)
    );

    // Prometheus text exposition over the same socket.
    let text_resp = c
        .request(r#"{"op":"metrics","format":"text"}"#)
        .expect("metrics text");
    let text = text_resp
        .get("text")
        .and_then(Json::as_str)
        .expect("text field");
    assert!(text.contains("# TYPE serve_req_build counter\nserve_req_build 1\n"));
    assert!(text.contains("# TYPE serve_cache_hits gauge\n"));
    assert!(text.contains("serve_op_build_us_bucket{le=\"+Inf\"} 1\n"));
    assert!(text.contains("serve_op_build_us_count 1\n"));

    // The pure ops stay pure: a second identical build responds
    // byte-identically even though telemetry advanced in between.
    let again = c
        .request_raw(&request_line("build", "sort", "d", None))
        .expect("build again");
    let first = c
        .request_raw(&request_line("build", "sort", "d", None))
        .expect("build third");
    assert_eq!(again, first, "telemetry must not leak into responses");
    drop(server);
}

#[test]
fn engine_counters_account_for_every_instruction_of_a_run() {
    let path = std::env::temp_dir().join(format!("rtdc-serve-meng-{}.sock", std::process::id()));
    let server = Server::start(&path, ServeConfig::default()).expect("start server");
    let mut c = Client::connect(&path).expect("connect");
    // Every engine counter is registered before the first run.
    let before = c.metrics().expect("metrics");
    let m = before.get("metrics").expect("metrics payload");
    for field in rtdc_sim::EngineCounters::FIELDS {
        assert_eq!(counter(m, &format!("serve.sim.engine.{field}")), 0);
    }
    let resp = c
        .request(&request_line("run", "crc32", "d", None))
        .expect("run");
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    let insns = resp
        .get("stats")
        .and_then(|s| s.get("insns"))
        .and_then(Json::as_u64)
        .expect("stats.insns");
    let after = c.metrics().expect("metrics");
    let m = after.get("metrics").expect("metrics payload");
    let engine = |field: &str| counter(m, &format!("serve.sim.engine.{field}"));
    assert_eq!(
        engine("block_ops") + engine("trace_ops") + engine("fallback_insns"),
        insns,
        "one run's engine counters commit exactly its instructions"
    );
    assert!(
        engine("trace_ops") > 0,
        "a compressed run executes handler traces"
    );
    assert!(engine("block_dispatches") > 0);
    drop(server);
}

#[test]
fn stats_op_and_metrics_gauges_agree_field_by_field() {
    let tag = std::process::id();
    let path = std::env::temp_dir().join(format!("rtdc-serve-mfld-{tag}.sock"));
    let dir = std::env::temp_dir().join(format!("rtdc-serve-mfld-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    // One worker: the `metrics` job cannot start before the `stats` job
    // has retired, so the daemon is quiescent between the two views
    // except for those two jobs.
    let server = Server::start(
        &path,
        ServeConfig {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let mut c = Client::connect(&path).expect("connect");
    for (bench, label) in [("sort", "d"), ("crc32", "cp"), ("sort", "d")] {
        let resp = c
            .request_raw(&request_line("build", bench, label, None))
            .expect("build");
        assert!(resp.starts_with(r#"{"ok":true"#), "{resp}");
    }
    let stats = c.request(r#"{"op":"stats"}"#).expect("stats");
    let metrics = c.metrics().expect("metrics");
    let m = metrics.get("metrics").expect("metrics payload");
    for (group, n_fields) in [("cache", 13), ("store", 8), ("pool", 6)] {
        let Some(Json::Obj(fields)) = stats.get(group) else {
            panic!("stats has no `{group}` object: {stats:?}");
        };
        assert_eq!(fields.len(), n_fields, "stats `{group}`: {fields:?}");
        for (name, v) in fields {
            let seen = v.as_u64().expect("numeric field");
            // The pool view moved by exactly the two jobs: `stats` retired
            // and `metrics` queued in between.
            let want = match (group, name.as_str()) {
                ("pool", "queued" | "executed") => seen + 1,
                _ => seen,
            };
            assert_eq!(
                gauge(m, &format!("serve.{group}.{name}")),
                want,
                "stats `{group}.{name}` vs its gauge"
            );
        }
    }
    assert!(
        gauge(m, "serve.store.spills") > 0,
        "the builds were spilled"
    );
    assert!(gauge(m, "serve.cache.hits") > 0, "the repeat build hit");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
