//! The transport layer: the [`Server`] bound to a Unix socket, its
//! accept loop, and one reader thread per connection.
//!
//! A reader reads length-bounded lines, parks each request on the
//! [`WorkerPool`] and writes the reply, so CPU-bound work is bounded by
//! the pool width however many clients connect, and a slow client never
//! wedges a worker. Everything semantic happens behind
//! [`handle_line_at`].
//!
//! Teardown has one path, [`ServeState::request_shutdown`]: it sets the
//! flag and shuts down the listening socket through a dup of its fd, so
//! the accept loop's blocked `accept` fails at once (`EINVAL`). The
//! loop keeps a clone of every live connection; it shuts each one's
//! read half, so a reader blocked in `read` sees end-of-stream at once,
//! then joins the readers and drains the pool. A reply already being
//! computed is still written (the write half stays open), and a reader
//! checks the flag before each read, so nothing that arrives after the
//! shutdown is served.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::fs::{FileTypeExt, MetadataExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtdc_obs::log::{self, Level};

use crate::client::Client;
use crate::pool::WorkerPool;
use crate::protocol::{ServeError, MAX_LINE_BYTES};

use super::dispatch::{admit, handle_line_at, reject};
use super::{sync_ambient, ServeConfig, ServeState};

/// One bounded line read.
pub(super) enum LineRead {
    /// A complete line (newline stripped), within the cap.
    Line(Vec<u8>),
    /// The line exceeded the cap; the overflow was discarded up to (and
    /// including) the next newline.
    Oversized,
    /// End of stream.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max` bytes. A final line
/// the stream ends without a newline is served too. An oversized line is
/// *discarded as it streams in*, `max + 1` bytes at a time, so the
/// server never buffers more than that per connection; one the stream
/// ends inside is dropped with it (`Eof`: there is no one to answer).
pub(super) fn read_line_bounded<R: BufRead>(r: &mut R, max: usize) -> std::io::Result<LineRead> {
    let cap = max as u64 + 1;
    let mut line = Vec::new();
    r.by_ref().take(cap).read_until(b'\n', &mut line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
        return Ok(LineRead::Line(line));
    }
    if line.len() <= max {
        return Ok(if line.is_empty() {
            LineRead::Eof
        } else {
            LineRead::Line(line)
        });
    }
    while line.last() != Some(&b'\n') {
        line.clear();
        if r.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
            return Ok(LineRead::Eof);
        }
    }
    Ok(LineRead::Oversized)
}

/// Bounds every write on `stream` by the stall budget and returns the
/// connection's write half. The budget is the socket's send timeout,
/// clamped to 1 ms: a zero timeout is an error, and ignoring it would
/// leave writes unbounded.
pub(super) fn bounded_writer(
    stream: &UnixStream,
    write_stall_ms: u64,
) -> std::io::Result<UnixStream> {
    stream.set_write_timeout(Some(Duration::from_millis(write_stall_ms.max(1))))?;
    stream.try_clone()
}

/// Writes `line` + newline on a [`bounded_writer`]. A peer that stops
/// reading makes a send wait out the budget; the write then fails and
/// the caller drops the connection, so such a client costs a reader
/// thread at most two budgets instead of pinning it forever.
pub(super) fn write_line_bounded(w: &mut UnixStream, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)
}

/// Monotonic connection-id source for the structured log; ids are
/// process-global so grepping the log for `"conn":N` isolates one
/// client's lifetime.
static CONN_IDS: AtomicU64 = AtomicU64::new(0);

/// Serves one connection until the client disconnects or the server
/// shuts down.
fn serve_connection(state: &Arc<ServeState>, pool: &Arc<WorkerPool>, stream: UnixStream) {
    let conn = CONN_IDS.fetch_add(1, Ordering::Relaxed) + 1;
    log::event(Level::Info, "conn_open")
        .u64("conn", conn)
        .emit();
    let requests = serve_requests(state, pool, stream, conn);
    log::event(Level::Info, "conn_close")
        .u64("conn", conn)
        .u64("requests", requests)
        .emit();
}

/// The body of [`serve_connection`]: parse lines, park each request on
/// the pool, write each reply. Returns how many request lines this
/// connection answered (for the `conn_close` log event).
fn serve_requests(
    state: &Arc<ServeState>,
    pool: &Arc<WorkerPool>,
    stream: UnixStream,
    conn: u64,
) -> u64 {
    let Ok(mut writer) = bounded_writer(&stream, state.write_stall_ms) else {
        return 0;
    };
    let mut reader = BufReader::new(stream);
    let mut seq = 0u64;
    // The flag is checked before each read: a line already buffered
    // when shutdown is requested is not served. It is checked again
    // after, because the read half is shut at teardown and a partial
    // line then reads as a final unterminated one.
    while !state.shutdown_requested() {
        let read = read_line_bounded(&mut reader, MAX_LINE_BYTES);
        if state.shutdown_requested() {
            break;
        }
        let req_start = Instant::now();
        let (resp, bytes_in, note) = match read {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized) => {
                let err = ServeError::OversizedLine {
                    limit: MAX_LINE_BYTES,
                };
                (reject(state, &err), 0, "oversized line discarded")
            }
            // Every line — even an empty one — gets exactly one response;
            // clients pipeline on that 1:1 invariant, so silently skipping
            // a blank line would desynchronize (and wedge) them.
            Ok(LineRead::Line(line)) => {
                let bytes_in = line.len() as u64 + 1;
                state.metrics.bytes_in.add(bytes_in);
                match admit(state, pool) {
                    Err(e) => (reject(state, &e), bytes_in, "shed: admission queue full"),
                    Ok(()) => (run_on_pool(state, pool, line, req_start), bytes_in, ""),
                }
            }
        };
        seq += 1;
        let bytes_out = resp.len() as u64 + 1;
        state.metrics.bytes_out.add(bytes_out);
        let mut ev = log::event(Level::Debug, "request")
            .u64("conn", conn)
            .u64("seq", seq);
        if !note.is_empty() {
            ev = ev.str("note", note);
        }
        ev.u64("bytes_in", bytes_in)
            .u64("bytes_out", bytes_out)
            .u64(
                "us",
                req_start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            )
            .emit();
        if write_line_bounded(&mut writer, &resp).is_err() {
            break;
        }
    }
    // Close the socket itself, not just this thread's handles: the
    // accept loop holds a clone, and the client must see end-of-stream.
    let _ = writer.shutdown(Shutdown::Both);
    seq
}

/// Runs one admitted request line on the pool and waits for its reply;
/// the job never dispatches nested jobs, so the pool cannot deadlock.
fn run_on_pool(
    state: &Arc<ServeState>,
    pool: &Arc<WorkerPool>,
    line: Vec<u8>,
    admitted: Instant,
) -> String {
    let line = String::from_utf8_lossy(&line).into_owned();
    let (tx, rx) = mpsc::channel::<String>();
    let st = Arc::clone(state);
    let pl = Arc::clone(pool);
    let accepted = pool.execute(Box::new(move || {
        let _ = tx.send(handle_line_at(&st, &line, Some(&pl), admitted));
    }));
    if !accepted {
        return ServeError::Unsupported {
            detail: "server is shutting down".into(),
        }
        .render();
    }
    // A job that panicked past the renderer (it shouldn't) closes the
    // channel; answer with a typed error, not silence.
    rx.recv().unwrap_or_else(|_| {
        ServeError::BuildFailed {
            detail: "internal: request handler died".into(),
        }
        .render()
    })
}

/// The accept loop: one reader thread per connection until shutdown is
/// requested, then the teardown described in the module docs and a
/// final telemetry flush.
fn accept_loop(listener: &UnixListener, state: &Arc<ServeState>, pool: WorkerPool) {
    let pool = Arc::new(pool);
    let mut readers: Vec<(JoinHandle<()>, UnixStream)> = Vec::new();
    for stream in listener.incoming() {
        if state.shutdown_requested() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let st = Arc::clone(state);
        let pl = Arc::clone(&pool);
        let h = std::thread::Builder::new()
            .name("rtdc-serve-conn".into())
            .spawn(move || serve_connection(&st, &pl, stream))
            .expect("spawn connection reader");
        readers.retain(|(h, _)| !h.is_finished());
        readers.push((h, peer));
    }
    for (_, peer) in &readers {
        let _ = peer.shutdown(Shutdown::Read);
    }
    for (h, _) in readers {
        let _ = h.join();
    }
    // Final telemetry flush: with every reader joined the counters are
    // quiescent, so this snapshot is the exact totals for the daemon's
    // lifetime. The pool is still alive here, so its gauges are too.
    sync_ambient(state, Some(&pool));
    log::event(Level::Info, "metrics_snapshot")
        .raw("metrics", &state.metrics.registry.snapshot().to_json())
        .emit();
}

/// Clears the way to bind `path`. A server already listening there is
/// an [`std::io::ErrorKind::AddrInUse`] error; a socket file nobody
/// listens on is stale and is removed. Anything else is left for `bind`
/// to reject.
fn remove_stale_socket(path: &Path) -> std::io::Result<()> {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return Ok(());
    };
    if !meta.file_type().is_socket() {
        return Ok(());
    }
    if Client::connect(path).is_ok() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            "a server is already listening on this socket",
        ));
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// The `(device, inode)` of the file at `path`.
fn file_id(path: &Path) -> std::io::Result<(u64, u64)> {
    std::fs::symlink_metadata(path).map(|m| (m.dev(), m.ino()))
}

/// A running daemon bound to a Unix socket.
pub struct Server {
    path: PathBuf,
    /// The socket file `bind` created; teardown unlinks `path` only while
    /// it is still this file.
    bound: (u64, u64),
    state: Arc<ServeState>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `path` (replacing a stale socket file) and starts serving.
    ///
    /// # Errors
    ///
    /// `AddrInUse` if a server is already listening on `path`; other I/O
    /// errors binding the socket.
    pub fn start(path: &Path, config: ServeConfig) -> std::io::Result<Server> {
        remove_stale_socket(path)?;
        let listener = UnixListener::bind(path)?;
        let bound = file_id(path)?;
        let state = Arc::new(ServeState {
            listener: Some(UnixStream::from(OwnedFd::from(listener.try_clone()?))),
            ..ServeState::try_new(&config)?
        });
        let pool =
            WorkerPool::new_instrumented(config.threads, Arc::clone(&state.metrics.pool_wall));
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
        // `pool` lives (and on drop, drains) inside the accept thread:
        // joining the server joins all in-flight work.
        let accept = std::thread::Builder::new()
            .name("rtdc-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state, pool))
            .expect("spawn accept loop");
        Ok(Server {
            path: path.to_path_buf(),
            bound,
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

    /// Requests shutdown ([`ServeState::request_shutdown`]).
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Waits for the accept loop (and with it, all in-flight work) to
    /// finish. Call [`Server::shutdown`] first, or send a `shutdown`
    /// request; otherwise this blocks until a client does.
    pub fn join(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if file_id(&self.path).is_ok_and(|id| id == self.bound) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.state.request_shutdown();
        self.finish();
    }
}
