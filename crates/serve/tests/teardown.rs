//! Teardown battery: however a daemon is asked to stop, `join` returns
//! promptly, whatever its clients are doing at that instant.
//!
//! Every test joins the server on a helper thread and fails unless the
//! join finishes within [`WATCHDOG`], so a wedged teardown fails the
//! suite instead of hanging it. Clients are raw sockets, so each test
//! controls exactly which bytes the daemon has seen.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtdc_serve::client::request_line;
use rtdc_serve::json::{self, Json};
use rtdc_serve::server::{ServeConfig, Server};

const WATCHDOG: Duration = Duration::from_secs(5);

fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rtdc-serve-teardown-{name}-{}.sock",
        std::process::id()
    ))
}

fn start_at(path: &Path) -> std::io::Result<Server> {
    Server::start(
        path,
        ServeConfig {
            threads: 2,
            cache_bytes: 16 << 20,
            ..ServeConfig::default()
        },
    )
}

fn start(name: &str) -> (Server, PathBuf) {
    let path = socket_path(name);
    let server = start_at(&path).expect("start server");
    (server, path)
}

/// Joins `server` on a helper thread; the receiver yields once the
/// join has returned.
fn join_in_background(server: Server) -> mpsc::Receiver<()> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    rx
}

fn assert_joins(joined: &mpsc::Receiver<()>, what: &str) {
    assert!(
        joined.recv_timeout(WATCHDOG).is_ok(),
        "join did not finish within {WATCHDOG:?} ({what})"
    );
}

/// Shuts `server` down from the host side and waits for the join.
fn shutdown_and_join(server: Server, what: &str) {
    server.shutdown();
    assert_joins(&join_in_background(server), what);
}

fn connect(path: &Path) -> UnixStream {
    let s = UnixStream::connect(path).expect("connect");
    s.set_read_timeout(Some(WATCHDOG)).expect("read timeout");
    s
}

/// Everything the daemon still sends on `s` before closing it.
fn rest(s: &mut UnixStream) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    buf
}

/// One request/response round trip on a raw stream: proves a reader
/// thread owns the connection.
fn round_trip(s: &mut UnixStream, line: &str) -> String {
    s.write_all(format!("{line}\n").as_bytes()).expect("send");
    let mut reader = BufReader::new(s.try_clone().expect("clone"));
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("reply");
    resp
}

#[test]
fn shutdown_op_from_a_client_that_hangs_up_stops_the_daemon() {
    let (server, path) = start("hangup");
    // `rtdc-serve`'s `main` parks in `join` before any client arrives.
    let joined = join_in_background(server);
    let mut s = connect(&path);
    assert!(round_trip(&mut s, r#"{"op":"stats"}"#).starts_with(r#"{"ok":true"#));
    // Hang up before the reply can be read: the reply write fails.
    s.shutdown(Shutdown::Read).expect("shut client read half");
    s.write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("send shutdown");
    drop(s);
    assert_joins(&joined, "shutdown op, client hung up before the reply");
}

#[test]
fn idle_client_does_not_hold_up_teardown() {
    let (server, path) = start("idle");
    let mut s = connect(&path);
    // Give the accept loop time to hand the connection to a reader,
    // which then blocks reading a line that never comes.
    std::thread::sleep(Duration::from_millis(50));
    shutdown_and_join(server, "client connected, never sent anything");
    assert!(rest(&mut s).is_empty());
}

#[test]
fn partial_line_at_teardown_gets_no_answer() {
    let (server, path) = start("partial");
    let mut s = connect(&path);
    assert!(round_trip(&mut s, r#"{"op":"stats"}"#).starts_with(r#"{"ok":true"#));
    // A request cut off mid-line: teardown's end-of-stream must not turn
    // it into a final unterminated line that gets served.
    s.write_all(br#"{"op":"stats""#).expect("send partial line");
    std::thread::sleep(Duration::from_millis(50));
    shutdown_and_join(server, "client parked mid-line");
    let rest = rest(&mut s);
    assert!(
        rest.is_empty(),
        "partial line was answered: {}",
        String::from_utf8_lossy(&rest)
    );
}

#[test]
fn line_buffered_behind_the_shutdown_op_is_not_served() {
    let (server, path) = start("buffered");
    let mut s = connect(&path);
    // Both lines arrive together: the second is buffered while the first
    // stops the daemon, and must not be read and served after it.
    s.write_all(b"{\"op\":\"shutdown\"}\n{\"op\":\"stats\"}\n")
        .expect("send");
    let rest = String::from_utf8(rest(&mut s)).expect("utf-8");
    assert_eq!(rest, "{\"ok\":true,\"op\":\"shutdown\"}\n");
    shutdown_and_join(server, "complete line buffered behind shutdown");
}

#[test]
fn request_admitted_before_teardown_gets_its_full_reply() {
    let (server, path) = start("inflight");
    let mut s = connect(&path);
    let line = request_line("run", "pegwit", "d", None);
    s.write_all(format!("{line}\n").as_bytes())
        .expect("send run");
    // Wait until a worker has started the run, then tear down under it.
    let started = Instant::now();
    while server.state().ops.run.get() == 0 {
        assert!(started.elapsed() < WATCHDOG, "run never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();
    let joined = join_in_background(server);
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let rest = String::from_utf8(rest(&mut s)).expect("utf-8");
    let mut lines = rest.lines();
    let reply = lines.next().expect("the admitted run was answered");
    let v = json::parse(reply).unwrap_or_else(|e| panic!("torn reply `{reply}`: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    assert!(v.get("stats").is_some(), "{reply}");
    assert_eq!(lines.next(), None);
    assert_joins(&joined, "run in flight at shutdown");
}

#[test]
fn client_that_half_closes_sees_end_of_stream_after_its_replies() {
    let (server, path) = start("halfclose");
    let mut s = connect(&path);
    s.write_all(b"{\"op\":\"stats\"}\n").expect("send");
    s.shutdown(Shutdown::Write).expect("half-close");
    // The daemon keeps running; only this connection ends, and the
    // client must not wait for teardown to see it end.
    let mut buf = Vec::new();
    s.read_to_end(&mut buf)
        .expect("end-of-stream before the read timeout");
    let text = String::from_utf8(buf).expect("utf-8");
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.starts_with(r#"{"ok":true,"op":"stats""#), "{text}");
    shutdown_and_join(server, "after a half-closed client");
}

#[test]
fn second_start_on_a_live_path_fails_and_the_first_still_joins() {
    let (server, path) = start("live");
    let err = start_at(&path).err().expect("second start on a live path");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // The failed start left the first server's socket in place.
    let mut s = connect(&path);
    assert!(round_trip(&mut s, r#"{"op":"stats"}"#).starts_with(r#"{"ok":true"#));
    drop(s);
    shutdown_and_join(server, "after a rejected second start");
    assert!(!path.exists(), "join unlinks its own socket file");
}

#[test]
fn stale_socket_file_is_replaced() {
    let path = socket_path("stale");
    let _ = std::fs::remove_file(&path);
    // A socket file nobody listens on, as a killed daemon leaves behind.
    drop(UnixListener::bind(&path).expect("bind stale socket"));
    assert!(path.exists());
    let server = start_at(&path).expect("start over a stale socket file");
    let mut s = connect(&path);
    assert!(round_trip(&mut s, r#"{"op":"stats"}"#).starts_with(r#"{"ok":true"#));
    drop(s);
    shutdown_and_join(server, "server started over a stale socket file");
}

#[test]
fn join_leaves_a_socket_file_it_did_not_bind() {
    let (server, path) = start("replaced");
    // Someone else takes the path over while the server runs.
    std::fs::remove_file(&path).expect("unlink");
    let other = UnixListener::bind(&path).expect("bind over the path");
    shutdown_and_join(server, "socket file replaced under the server");
    assert!(path.exists(), "join unlinked a socket file it did not bind");
    drop(other);
    let _ = std::fs::remove_file(&path);
}
