//! Execution-slot battery: each request runs on its connection's thread
//! in one of `threads` slots, granted in arrival order; a slot is freed
//! before the reply is written, and a panic frees it too.
//!
//! Clients are raw sockets, so each test controls exactly which bytes
//! the daemon has seen; the host side watches callers take and wait for
//! slots through [`Server::pool`].

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtdc_serve::client::request_line;
use rtdc_serve::json::{self, Json};
use rtdc_serve::pool::WorkerPool;
use rtdc_serve::server::{ServeConfig, Server};

const WATCHDOG: Duration = Duration::from_secs(10);

fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rtdc-serve-slots-{name}-{}.sock",
        std::process::id()
    ))
}

fn connect(path: &Path) -> UnixStream {
    let s = UnixStream::connect(path).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    s
}

fn send(s: &mut UnixStream, line: &str) {
    s.write_all(format!("{line}\n").as_bytes()).expect("send");
}

fn reply(s: &UnixStream) -> Json {
    let mut line = String::new();
    BufReader::new(s.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("reply");
    json::parse(&line).unwrap_or_else(|e| panic!("bad reply `{line}`: {e}"))
}

/// Waits until the pool's `(in_flight, queue_depth)` reads `want`.
fn wait_pool(server: &Server, want: (u64, u64)) {
    let started = Instant::now();
    loop {
        let f = server.pool().fields();
        if (f[3].1, f[4].1) == want {
            return;
        }
        assert!(started.elapsed() < WATCHDOG, "pool stuck at {f:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn field(v: &Json, group: &str, name: &str) -> u64 {
    v.get(group)
        .and_then(|g| g.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no `{group}.{name}` in {v:?}"))
}

#[test]
fn with_one_slot_a_second_request_waits_and_replies_keep_arrival_order() {
    let path = socket_path("order");
    let server = Server::start(
        &path,
        ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    // A holds the only slot for a cold generate + build + run of cc1,
    // while B and then C queue behind it.
    let mut a = connect(&path);
    send(&mut a, &request_line("run", "cc1", "lz", None));
    wait_pool(&server, (1, 0));
    let mut b = connect(&path);
    send(&mut b, r#"{"op":"metrics"}"#);
    wait_pool(&server, (1, 1));
    let mut c = connect(&path);
    send(&mut c, r#"{"op":"stats"}"#);
    wait_pool(&server, (1, 2));

    let ra = reply(&a);
    assert_eq!(ra.get("ok").and_then(Json::as_bool), Some(true), "{ra:?}");
    // B ran after A retired, with C still waiting for the slot.
    let rb = reply(&b);
    let m = rb.get("metrics").expect("metrics payload");
    for (name, want) in [
        ("queued", 3),
        ("executed", 1),
        ("in_flight", 1),
        ("queue_depth", 1),
        ("panics", 0),
    ] {
        assert_eq!(
            field(m, "gauges", &format!("serve.pool.{name}")),
            want,
            "serve.pool.{name} seen by B"
        );
    }
    // C ran last.
    let rc = reply(&c);
    assert_eq!(field(&rc, "pool", "executed"), 2, "{rc:?}");
    assert_eq!(field(&rc, "pool", "queue_depth"), 0, "{rc:?}");
    drop(server);
}

#[test]
fn a_peer_that_never_reads_does_not_hold_a_slot() {
    let path = socket_path("noread");
    let server = Server::start(
        &path,
        ServeConfig {
            threads: 1,
            // Far beyond the test: the loris's connection stays blocked
            // in its write for as long as the test runs.
            write_stall_ms: 60_000,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    // The loris pipelines requests and reads nothing, until the daemon
    // stops reading its requests: its connection thread is then blocked
    // writing a reply into full socket buffers.
    let mut loris = connect(&path);
    loris
        .set_write_timeout(Some(Duration::from_millis(200)))
        .expect("write timeout");
    let line = b"{\"op\":\"metrics\",\"format\":\"text\"}\n";
    let stalled = (0..100_000).any(|_| loris.write_all(line).is_err());
    assert!(stalled, "the daemon kept reading a peer that never reads");
    // Blocked in that write, the loris's connection holds no slot.
    wait_pool(&server, (0, 0));

    // The healthy client is served long before the loris's write could
    // time out and free anything.
    let mut healthy = connect(&path);
    healthy
        .set_read_timeout(Some(WATCHDOG))
        .expect("read timeout");
    send(&mut healthy, r#"{"op":"stats"}"#);
    let r = reply(&healthy);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    assert_eq!(field(&r, "pool", "in_flight"), 1, "{r:?}");
    // Closing the loris fails its stalled write at once, so teardown
    // does not wait out the stall budget.
    drop(loris);
    drop(server);
}

#[test]
fn a_panicking_closure_is_counted_and_the_next_run_succeeds() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let pool = WorkerPool::new(1, None);
        let panicked = pool.run(|| -> u32 { panic!("slots: induced panic") });
        let next = pool.run(|| 7u32);
        let _ = tx.send((panicked, next, pool.fields()));
    });
    // One slot: a panic that kept it would hang the second run.
    let (panicked, next, fields) = rx.recv_timeout(WATCHDOG).expect("second run never ran");
    assert_eq!(panicked, None);
    assert_eq!(next, Some(7));
    assert_eq!(
        fields,
        [
            ("threads", 1),
            ("queued", 2),
            ("executed", 2),
            ("in_flight", 0),
            ("queue_depth", 0),
            ("panics", 1),
        ]
    );
}
