//! A minimal blocking client for the `rtdc-serve` socket protocol.
//!
//! One request out, one response line back — the transport mirror of
//! [`crate::server::handle_line`]. Used by the test batteries, by
//! `servebench`, and by `rtdc-run --serve`.
//!
//! Resilience is opt-in and bounded: [`connect_with_retry`] rides out a
//! daemon that is still binding its socket (or restarting), and
//! [`Client::request_retrying`] retries typed `overloaded` sheds with
//! jittered exponential backoff. The jitter comes from a caller-owned
//! [`Rng64`], so a fixed seed makes the whole retry schedule
//! reproducible.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use rtdc::plan::ImageSpec;
use rtdc_obs::HistogramSnapshot;
use rtdc_rng::Rng64;

use crate::json::{self, Json, ObjWriter};

/// Bounded-retry parameters for [`connect_with_retry`] and
/// [`Client::request_retrying`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). 1 disables retries.
    pub attempts: u32,
    /// Backoff before the first retry, in ms; doubles per retry.
    pub base_delay_ms: u64,
    /// Backoff ceiling, in ms (pre-jitter).
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base_delay_ms: 10,
            max_delay_ms: 500,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (0-based): exponential
    /// from `base_delay_ms`, capped at `max_delay_ms`, then jittered to
    /// 50–100% so a thundering herd of shed clients decorrelates.
    /// Deterministic for a given `rng` state.
    pub fn delay(&self, retry: u32, rng: &mut Rng64) -> Duration {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << retry.min(20))
            .min(self.max_delay_ms);
        let jittered = (exp as f64) * (0.5 + rng.gen_f64() / 2.0);
        Duration::from_micros((jittered * 1000.0) as u64)
    }
}

/// Connects to `path`, retrying connect-refused / not-found per
/// `policy` — the client half of riding out a daemon restart.
///
/// # Errors
///
/// The last connect error once attempts are exhausted; non-retryable
/// errors (permissions, etc.) fail immediately.
pub fn connect_with_retry(
    path: &Path,
    policy: &RetryPolicy,
    rng: &mut Rng64,
) -> std::io::Result<Client> {
    let mut retry = 0u32;
    loop {
        match Client::connect(path) {
            Ok(c) => return Ok(c),
            Err(e) => {
                let transient = matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::NotFound
                );
                if !transient || retry + 1 >= policy.attempts.max(1) {
                    return Err(e);
                }
                std::thread::sleep(policy.delay(retry, rng));
                retry += 1;
            }
        }
    }
}

/// A connected client.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects to the daemon at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors connecting.
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one raw request line (newline appended) and reads one
    /// response line (newline stripped).
    ///
    /// # Errors
    ///
    /// I/O errors, or an unexpected EOF before the response line.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        Ok(resp)
    }

    /// Sends one request and parses the response as JSON.
    ///
    /// # Errors
    ///
    /// I/O errors; a malformed response line (which the server never
    /// produces) is reported as [`std::io::ErrorKind::InvalidData`].
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        let resp = self.request_raw(line)?;
        json::parse(&resp).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response `{resp}`: {e}"),
            )
        })
    }

    /// Sends one request, retrying typed `overloaded` sheds with
    /// jittered backoff per `policy`. Only sheds are retried — the
    /// server guarantees a shed request was never started, so the retry
    /// cannot double-execute work. Any other response (success or
    /// error) is returned as-is; attempts exhausted returns the last
    /// shed response, so callers always see a well-formed line.
    ///
    /// # Errors
    ///
    /// I/O errors from the transport.
    pub fn request_retrying(
        &mut self,
        line: &str,
        policy: &RetryPolicy,
        rng: &mut Rng64,
    ) -> std::io::Result<String> {
        let mut retry = 0u32;
        loop {
            let resp = self.request_raw(line)?;
            let shed = json::parse(&resp)
                .ok()
                .and_then(|v| v.get("error").and_then(Json::as_str).map(str::to_string))
                .is_some_and(|kind| kind == "overloaded");
            if !shed || retry + 1 >= policy.attempts.max(1) {
                return Ok(resp);
            }
            std::thread::sleep(policy.delay(retry, rng));
            retry += 1;
        }
    }

    /// Requests an orderly server shutdown.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        let _ = self.request_raw(r#"{"op":"shutdown"}"#)?;
        Ok(())
    }

    /// Fetches the daemon's full telemetry snapshot (the `metrics` op,
    /// JSON format) as the parsed response object. The snapshot proper
    /// is its `"metrics"` field; histograms inside it parse with
    /// [`parse_histogram`].
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn metrics(&mut self) -> std::io::Result<Json> {
        self.request(r#"{"op":"metrics"}"#)
    }
}

/// Reconstructs a histogram from its `metrics`-op JSON form
/// (`{"count":..,"sum":..,"buckets":[[index,count],..]}`) — the client
/// half of the daemon's snapshot rendering, shared by `rtdc-top` and
/// `servebench`. `None` for any structural mismatch.
pub fn parse_histogram(v: &Json) -> Option<HistogramSnapshot> {
    let count = v.get("count").and_then(Json::as_u64)?;
    let sum = v.get("sum").and_then(Json::as_u64)?;
    let Json::Arr(items) = v.get("buckets")? else {
        return None;
    };
    let buckets = items
        .iter()
        .map(|item| match item {
            Json::Arr(pair) if pair.len() == 2 => {
                let i = pair[0].as_u64()?;
                let n = pair[1].as_u64()?;
                u8::try_from(i).ok().map(|i| (i, n))
            }
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(HistogramSnapshot {
        count,
        sum,
        buckets,
    })
}

/// Renders a `build`/`run`/`trace` request line. `scheme` is a CLI-style
/// argument (`"native"`, `"d"`, `"cp+rf"`, ...); `max_insns` only
/// applies to `run`/`trace`.
pub fn request_line(op: &str, bench: &str, scheme: &str, max_insns: Option<u64>) -> String {
    request_line_opts(op, bench, scheme, max_insns, None)
}

/// [`request_line`] plus an optional `deadline_ms` budget.
pub fn request_line_opts(
    op: &str,
    bench: &str,
    scheme: &str,
    max_insns: Option<u64>,
    deadline_ms: Option<u64>,
) -> String {
    let mut w = ObjWriter::new();
    w.str("op", op).str("bench", bench);
    if ImageSpec::parse(scheme) != Some(ImageSpec::Native) {
        w.str("scheme", scheme);
    }
    if let Some(n) = max_insns {
        w.u64("max_insns", n);
    }
    if let Some(ms) = deadline_ms {
        w.u64("deadline_ms", ms);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_round_trips_from_snapshot_json() {
        let h = rtdc_obs::Histogram::default();
        for v in [0u64, 1, 5, 5, 900] {
            h.observe(v);
        }
        let snap = h.snapshot();
        let rendered = format!(
            "{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            snap.count,
            snap.sum,
            snap.buckets
                .iter()
                .map(|&(i, n)| format!("[{i},{n}]"))
                .collect::<Vec<_>>()
                .join(",")
        );
        let back = parse_histogram(&json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.quantile(0.5), snap.quantile(0.5));
    }

    #[test]
    fn request_lines_are_canonical() {
        assert_eq!(
            request_line("run", "sort", "d+rf", None),
            r#"{"op":"run","bench":"sort","scheme":"d+rf"}"#
        );
        assert_eq!(
            request_line("build", "go", "native", Some(5)),
            r#"{"op":"build","bench":"go","max_insns":5}"#
        );
        assert_eq!(
            request_line_opts("run", "sort", "d", None, Some(250)),
            r#"{"op":"run","bench":"sort","scheme":"d","deadline_ms":250}"#
        );
    }

    #[test]
    fn backoff_is_bounded_jittered_and_seed_deterministic() {
        let policy = RetryPolicy {
            attempts: 6,
            base_delay_ms: 10,
            max_delay_ms: 80,
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = Rng64::seed_from_u64(seed);
            (0..5).map(|r| policy.delay(r, &mut rng)).collect()
        };
        let a = schedule(42);
        assert_eq!(a, schedule(42), "same seed, same schedule");
        // Exponential envelope with 50-100% jitter, capped at max.
        for (retry, d) in a.iter().enumerate() {
            let exp = (10u64 << retry).min(80);
            assert!(
                *d >= Duration::from_millis(exp / 2) && *d <= Duration::from_millis(exp),
                "retry {retry}: {d:?} outside [{}/2, {}] ms",
                exp,
                exp
            );
        }
    }
}
