//! Unit tests for the daemon's layers: handlers through `handle_line`,
//! and the transport's bounded line reader and writer on in-memory
//! streams and socket pairs.

use std::io::{BufRead, BufReader};
use std::sync::mpsc;

use rtdc::prelude::*;
use rtdc_sim::NoTrace;

use super::transport::{bounded_writer, read_line_bounded, write_line_bounded, LineRead};
use super::*;
use crate::json::ObjWriter;
use crate::protocol::parse_request;

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
    let program = rtdc_workloads::resolve_program("crc32").unwrap();
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
        // The bench is resolved before the scheme.
        (
            r#"{"op":"run","bench":"nope","scheme":"zz"}"#,
            "unknown-bench",
        ),
        (
            r#"{"op":"build","bench":"sort","scheme":"native+rf"}"#,
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
    assert_eq!(st.ops.errors.get(), 7);
    // Every kind surfaced in the registry too.
    let snap = st.metrics.registry.snapshot();
    assert_eq!(snap.value("serve.err.total"), Some(7));
    assert_eq!(snap.value("serve.err.unknown-bench"), Some(3));
    assert_eq!(snap.value("serve.err.unknown-scheme"), Some(2));
    assert_eq!(snap.value("serve.err.bad-plan"), Some(1));
    assert_eq!(snap.value("serve.err.unsupported"), Some(1));
    // The detail names the whole argument the client sent, not the
    // scheme with `+rf` split off (`native` is a valid family).
    for (line, detail) in [
        (
            r#"{"op":"build","bench":"sort","scheme":"native+rf"}"#,
            "unknown scheme `native+rf`",
        ),
        (
            r#"{"op":"plan","bench":"tiny-loop","scheme":"zz+rf"}"#,
            "unknown scheme `zz+rf`",
        ),
    ] {
        let resp = handle_line(&st, line, None);
        assert!(resp.contains(detail), "{line} -> {resp}");
    }
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
    let big = "x".repeat(8 << 20);
    // The peer never reads: a multi-megabyte line must fill the socket
    // buffer and then abort within the stall budget. That holds for
    // every budget, 0 included: a zero send timeout is invalid, and
    // left unset the write would block forever.
    for stall_ms in [150, 0] {
        let (a, b) = Us::pair().unwrap();
        let mut w = bounded_writer(&a, stall_ms).unwrap();
        let line = big.clone();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(write_line_bounded(&mut w, &line));
        });
        let err = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("write_stall_ms {stall_ms}: the stall is not bounded"))
            .unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            "{err}"
        );
        drop((a, b));
    }
    // A draining peer sees the whole line.
    let (a, b) = Us::pair().unwrap();
    let mut w = bounded_writer(&a, 150).unwrap();
    let reader = std::thread::spawn(move || {
        let mut r = BufReader::new(b);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        line.len()
    });
    write_line_bounded(&mut w, &big).unwrap();
    drop((a, w));
    assert_eq!(reader.join().unwrap(), big.len() + 1);
}

#[test]
fn bounded_reader_discards_oversized_lines() {
    fn read<R: BufRead>(r: &mut R, max: usize) -> LineRead {
        read_line_bounded(r, max).unwrap()
    }
    fn line(read: LineRead) -> Vec<u8> {
        match read {
            LineRead::Line(l) => l,
            LineRead::Oversized => panic!("expected a line, got Oversized"),
            LineRead::Eof => panic!("expected a line, got Eof"),
        }
    }
    let mut data = vec![b'a'; 100];
    data.push(b'\n');
    data.extend_from_slice(b"{\"op\":\"stats\"}\n");
    // Exactly the cap is served; one byte over is Oversized, and the
    // line after it is still served.
    data.extend_from_slice(b"0123456789\n0123456789X\nnext\n");
    // An unterminated final line within the cap is served.
    data.extend_from_slice(b"tail");
    for cap in [1, 4, 16, 1024] {
        let mut r = BufReader::with_capacity(cap, &data[..]);
        assert!(matches!(read(&mut r, 10), LineRead::Oversized));
        assert_eq!(line(read(&mut r, 10_000)), b"{\"op\":\"stats\"}");
        assert_eq!(line(read(&mut r, 10)), b"0123456789");
        assert!(matches!(read(&mut r, 10), LineRead::Oversized));
        assert_eq!(line(read(&mut r, 10)), b"next");
        assert_eq!(line(read(&mut r, 10)), b"tail");
        assert!(matches!(read(&mut r, 10), LineRead::Eof));
        // An oversized unterminated final line ends with the stream:
        // Eof, so it gets no answer.
        for tail in [&b"0123456789X"[..], &[b'y'; 40][..]] {
            let mut r = BufReader::with_capacity(cap, tail);
            assert!(matches!(read(&mut r, 10), LineRead::Eof));
        }
    }
}
