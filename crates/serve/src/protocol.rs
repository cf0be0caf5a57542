//! The `rtdc-serve` wire protocol: newline-delimited JSON.
//!
//! One request object per line in, one response object per line out, on
//! a Unix domain socket. Five operations mirror the batch CLI:
//!
//! | op      | what it does                                            |
//! |---------|---------------------------------------------------------|
//! | `build` | build (or fetch from cache) an image; report its sizes  |
//! | `run`   | build/fetch, then run to completion; report exact stats |
//! | `trace` | run with an event-counting sink; report event counts    |
//! | `plan`  | run the closed-loop optimizer; return the plan text     |
//! | `stats` | server/cache counters (the only cache-visible op)       |
//! | `metrics` | full telemetry snapshot (JSON, or Prometheus text)    |
//!
//! plus `shutdown` for orderly teardown. Responses to `build`, `run`,
//! `trace`, and `plan` are **pure functions of the request** — they carry
//! no wall-clock, no cache hit/miss flag, nothing host- or
//! history-dependent — which is what lets the determinism battery demand
//! byte-identical responses under any client interleaving. Cache
//! behavior is observable only through `stats` (and the daemon's stderr
//! log).
//!
//! Every rejection is a typed [`ServeError`] rendered as
//! `{"ok":false,"error":"<kind>","detail":"..."}`; the fuzz battery
//! asserts malformed input can produce nothing else.

use std::fmt;

use rtdc::image::Scheme;
use rtdc::plan::ImageSpec;
use rtdc_sim::trace::StallCause;
use rtdc_sim::{StallBreakdown, Stats};

use crate::json::{self, Json, ObjWriter};

/// Hard cap on a request line, in bytes. A line longer than this is
/// rejected with [`ServeError::OversizedLine`] *without buffering it*:
/// the reader discards to the next newline. Plans for the largest
/// benchmark serialize to ~100 KB, so the cap leaves generous headroom.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What an image is built from, as the request spells it: a family
/// name or an explicit plan. The handler resolves it to an
/// [`ImageSpec`](rtdc::plan::ImageSpec) after the bench, so an unknown
/// bench is reported before an unknown scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildSpec {
    /// An image family name, as `rtdc-run --scheme` takes it: `native`
    /// (also when the request names no scheme) or a registry scheme with
    /// an optional `+rf` — the `--scheme` CLI path.
    Family {
        /// The family name (`"native"`, `"d"`, `"cp+rf"`, ...).
        name: String,
    },
    /// An explicit `rtdc-plan v1` plan (canonical text, embedded in the
    /// request as a JSON string) — the `--plan` CLI path.
    Plan {
        /// The plan text.
        text: String,
    },
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Build an image and report its sizes.
    Build {
        /// Benchmark or known-answer program name.
        bench: String,
        /// What to build.
        spec: BuildSpec,
        /// Client-supplied deadline budget, measured from admission.
        deadline_ms: Option<u64>,
    },
    /// Build (or fetch) and run to completion.
    Run {
        /// Benchmark or known-answer program name.
        bench: String,
        /// What to build.
        spec: BuildSpec,
        /// Instruction limit override (default: the server's).
        max_insns: Option<u64>,
        /// Client-supplied deadline budget, measured from admission.
        deadline_ms: Option<u64>,
    },
    /// Build (or fetch) and run with an event-counting trace sink.
    Trace {
        /// Benchmark or known-answer program name.
        bench: String,
        /// What to build.
        spec: BuildSpec,
        /// Instruction limit override.
        max_insns: Option<u64>,
        /// Client-supplied deadline budget, measured from admission.
        deadline_ms: Option<u64>,
    },
    /// Run the closed-loop plan optimizer for a benchmark × scheme.
    Plan {
        /// Benchmark analog name (known-answer programs have no spec to
        /// optimize against and are rejected).
        bench: String,
        /// Registry scheme name.
        scheme: String,
        /// Second-register-file handler variant.
        rf: bool,
        /// Client-supplied deadline budget, measured from admission.
        deadline_ms: Option<u64>,
    },
    /// Server and cache counters.
    Stats,
    /// Full telemetry snapshot from the daemon's metrics registry.
    Metrics {
        /// Response format.
        format: MetricsFormat,
    },
    /// Orderly shutdown.
    Shutdown,
}

impl Request {
    /// The client-supplied deadline budget, if any (work ops only;
    /// `stats`/`metrics`/`shutdown` are cheap and never time out).
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            Request::Build { deadline_ms, .. }
            | Request::Run { deadline_ms, .. }
            | Request::Trace { deadline_ms, .. }
            | Request::Plan { deadline_ms, .. } => *deadline_ms,
            Request::Stats | Request::Metrics { .. } | Request::Shutdown => None,
        }
    }
}

/// How a `metrics` response renders the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// A nested JSON object (`"metrics"` field of the response) —
    /// what `rtdc-top` and `servebench` consume.
    Json,
    /// Prometheus text exposition 0.0.4, embedded as the `"text"`
    /// string field — what external scrapers consume (via
    /// `rtdc-serve --metrics-dump`).
    Text,
}

/// Typed request-level failures, each with a stable wire kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request line exceeded [`MAX_LINE_BYTES`].
    OversizedLine {
        /// The configured cap.
        limit: usize,
    },
    /// The line was not valid JSON.
    BadJson {
        /// Parser diagnostic.
        detail: String,
    },
    /// The line was JSON but not a valid request object.
    BadRequest {
        /// What was missing or malformed.
        detail: String,
    },
    /// `op` named no known operation.
    UnknownOp {
        /// The offending op.
        op: String,
    },
    /// `bench` named no benchmark analog or known-answer program.
    UnknownBench {
        /// The offending name.
        bench: String,
    },
    /// `scheme` named no registered scheme.
    UnknownScheme {
        /// The offending name.
        scheme: String,
    },
    /// An embedded plan failed to parse or validate.
    BadPlan {
        /// The plan error.
        detail: String,
    },
    /// Building the image failed.
    BuildFailed {
        /// The build error.
        detail: String,
    },
    /// Running the image failed.
    RunFailed {
        /// The run error.
        detail: String,
    },
    /// The request is structurally valid but not supported for this
    /// target (e.g. `plan` for a known-answer program).
    Unsupported {
        /// Why.
        detail: String,
    },
    /// The admission queue is full; the request was shed without being
    /// queued. Retryable: the work was never started.
    Overloaded {
        /// Queue depth at shed time.
        queue_depth: u64,
        /// The configured admission limit.
        limit: u64,
    },
    /// The request's `deadline_ms` budget expired before a result was
    /// produced (at dequeue, or between build and run phases).
    Timeout {
        /// The budget that expired.
        deadline_ms: u64,
    },
}

impl ServeError {
    /// The stable wire kind (`"error"` field of the response).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::OversizedLine { .. } => "oversized-line",
            ServeError::BadJson { .. } => "bad-json",
            ServeError::BadRequest { .. } => "bad-request",
            ServeError::UnknownOp { .. } => "unknown-op",
            ServeError::UnknownBench { .. } => "unknown-bench",
            ServeError::UnknownScheme { .. } => "unknown-scheme",
            ServeError::BadPlan { .. } => "bad-plan",
            ServeError::BuildFailed { .. } => "build-failed",
            ServeError::RunFailed { .. } => "run-failed",
            ServeError::Unsupported { .. } => "unsupported",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Timeout { .. } => "timeout",
        }
    }

    /// The human-readable detail.
    pub fn detail(&self) -> String {
        match self {
            ServeError::OversizedLine { limit } => {
                format!("request line exceeds {limit} bytes")
            }
            ServeError::BadJson { detail }
            | ServeError::BadRequest { detail }
            | ServeError::BadPlan { detail }
            | ServeError::BuildFailed { detail }
            | ServeError::RunFailed { detail }
            | ServeError::Unsupported { detail } => detail.clone(),
            ServeError::UnknownOp { op } => {
                format!("unknown op `{op}` (build|run|trace|plan|stats|metrics|shutdown)")
            }
            ServeError::UnknownBench { bench } => {
                format!("unknown benchmark `{bench}`")
            }
            ServeError::UnknownScheme { scheme } => {
                format!("unknown scheme `{scheme}`")
            }
            ServeError::Overloaded { queue_depth, limit } => {
                format!("admission queue full ({queue_depth} >= {limit}); retry with backoff")
            }
            ServeError::Timeout { deadline_ms } => {
                format!("deadline of {deadline_ms} ms exceeded")
            }
        }
    }

    /// Renders the error response line.
    pub fn render(&self) -> String {
        let mut w = ObjWriter::new();
        w.bool("ok", false)
            .str("error", self.kind())
            .str("detail", &self.detail());
        w.finish()
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

impl std::error::Error for ServeError {}

/// Extracts the build spec from a request object: `scheme` (with
/// optional `+rf`) or an embedded `plan`, mutually exclusive; neither
/// means native.
fn build_spec(obj: &Json) -> Result<BuildSpec, ServeError> {
    let scheme = obj.get("scheme");
    let plan = obj.get("plan");
    match (scheme, plan) {
        (Some(_), Some(_)) => Err(ServeError::BadRequest {
            detail: "`scheme` and `plan` are mutually exclusive".into(),
        }),
        (None, None) => Ok(BuildSpec::Family {
            name: ImageSpec::Native.label(),
        }),
        (Some(s), None) => {
            let name = s.as_str().ok_or_else(|| ServeError::BadRequest {
                detail: "`scheme` must be a string".into(),
            })?;
            Ok(BuildSpec::Family {
                name: name.to_string(),
            })
        }
        (None, Some(p)) => {
            let text = p.as_str().ok_or_else(|| ServeError::BadRequest {
                detail: "`plan` must be a string".into(),
            })?;
            Ok(BuildSpec::Plan {
                text: text.to_string(),
            })
        }
    }
}

fn bench_field(obj: &Json) -> Result<String, ServeError> {
    obj.get("bench")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ServeError::BadRequest {
            detail: "missing string field `bench`".into(),
        })
}

fn max_insns_field(obj: &Json) -> Result<Option<u64>, ServeError> {
    match obj.get("max_insns") {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| ServeError::BadRequest {
            detail: "`max_insns` must be a non-negative integer".into(),
        }),
    }
}

fn deadline_field(obj: &Json) -> Result<Option<u64>, ServeError> {
    match obj.get("deadline_ms") {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(ms) if ms > 0 => Ok(Some(ms)),
            _ => Err(ServeError::BadRequest {
                detail: "`deadline_ms` must be a positive integer".into(),
            }),
        },
    }
}

/// Parses one request line (already length-checked by the reader).
///
/// # Errors
///
/// A typed [`ServeError`] — never a panic — for any byte sequence.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let obj = json::parse(line).map_err(|e| ServeError::BadJson {
        detail: e.to_string(),
    })?;
    if !matches!(obj, Json::Obj(_)) {
        return Err(ServeError::BadRequest {
            detail: "request must be a JSON object".into(),
        });
    }
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest {
            detail: "missing string field `op`".into(),
        })?;
    match op {
        "build" => Ok(Request::Build {
            bench: bench_field(&obj)?,
            spec: build_spec(&obj)?,
            deadline_ms: deadline_field(&obj)?,
        }),
        "run" => Ok(Request::Run {
            bench: bench_field(&obj)?,
            spec: build_spec(&obj)?,
            max_insns: max_insns_field(&obj)?,
            deadline_ms: deadline_field(&obj)?,
        }),
        "trace" => Ok(Request::Trace {
            bench: bench_field(&obj)?,
            spec: build_spec(&obj)?,
            max_insns: max_insns_field(&obj)?,
            deadline_ms: deadline_field(&obj)?,
        }),
        "plan" => {
            let bench = bench_field(&obj)?;
            let arg =
                obj.get("scheme")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ServeError::BadRequest {
                        detail: "`plan` op needs a string field `scheme`".into(),
                    })?;
            let (scheme, rf) = Scheme::split_rf(arg);
            Ok(Request::Plan {
                bench,
                scheme: scheme.to_string(),
                rf,
                deadline_ms: deadline_field(&obj)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "metrics" => {
            let format = match obj.get("format") {
                None => MetricsFormat::Json,
                Some(v) => match v.as_str() {
                    Some("json") => MetricsFormat::Json,
                    Some("text") => MetricsFormat::Text,
                    _ => {
                        return Err(ServeError::BadRequest {
                            detail: "`format` must be \"json\" or \"text\"".into(),
                        })
                    }
                },
            };
            Ok(Request::Metrics { format })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ServeError::UnknownOp {
            op: other.to_string(),
        }),
    }
}

/// Renders a [`Stats`] as a nested JSON object, every field, in
/// declaration order. Deterministic across hosts: these are simulated
/// quantities only.
pub fn stats_json(s: &Stats) -> String {
    let mut w = ObjWriter::new();
    w.u64("insns", s.insns)
        .u64("program_insns", s.program_insns)
        .u64("handler_insns", s.handler_insns)
        .u64("cycles", s.cycles)
        .u64("ifetches", s.ifetches)
        .u64("imisses", s.imisses)
        .u64("imisses_native", s.imisses_native)
        .u64("imisses_compressed", s.imisses_compressed)
        .u64("daccesses", s.daccesses)
        .u64("dmisses", s.dmisses)
        .u64("writebacks", s.writebacks)
        .u64("branches", s.branches)
        .u64("mispredicts", s.mispredicts)
        .u64("reg_jumps", s.reg_jumps)
        .u64("reg_jump_misses", s.reg_jump_misses)
        .u64("exceptions", s.exceptions)
        .u64("swics", s.swics)
        .u64("handler_cycles", s.handler_cycles);
    for cause in StallCause::ALL {
        w.u64(&format!("stall_{}", cause.name()), s.stalls.get(cause));
    }
    w.finish()
}

/// Reconstructs a [`Stats`] from the object [`stats_json`] rendered —
/// the client half of the `rtdc-run --serve` path.
pub fn parse_stats(v: &Json) -> Option<Stats> {
    let f = |key: &str| v.get(key).and_then(Json::as_u64);
    let mut stalls = StallBreakdown::default();
    for cause in StallCause::ALL {
        stalls.add(cause, f(&format!("stall_{}", cause.name()))?);
    }
    Some(Stats {
        insns: f("insns")?,
        program_insns: f("program_insns")?,
        handler_insns: f("handler_insns")?,
        cycles: f("cycles")?,
        ifetches: f("ifetches")?,
        imisses: f("imisses")?,
        imisses_native: f("imisses_native")?,
        imisses_compressed: f("imisses_compressed")?,
        daccesses: f("daccesses")?,
        dmisses: f("dmisses")?,
        writebacks: f("writebacks")?,
        branches: f("branches")?,
        mispredicts: f("mispredicts")?,
        reg_jumps: f("reg_jumps")?,
        reg_jump_misses: f("reg_jump_misses")?,
        exceptions: f("exceptions")?,
        swics: f("swics")?,
        handler_cycles: f("handler_cycles")?,
        stalls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_five_ops() {
        assert_eq!(
            parse_request(r#"{"op":"run","bench":"sort","scheme":"d+rf"}"#).unwrap(),
            Request::Run {
                bench: "sort".into(),
                spec: BuildSpec::Family {
                    name: "d+rf".into()
                },
                max_insns: None,
                deadline_ms: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"build","bench":"sort"}"#).unwrap(),
            Request::Build {
                bench: "sort".into(),
                spec: BuildSpec::Family {
                    name: "native".into()
                },
                deadline_ms: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"plan","bench":"go","scheme":"cp"}"#).unwrap(),
            Request::Plan {
                bench: "go".into(),
                scheme: "cp".into(),
                rf: false,
                deadline_ms: None,
            }
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn metrics_op_parses_both_formats() {
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics {
                format: MetricsFormat::Json
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"text"}"#).unwrap(),
            Request::Metrics {
                format: MetricsFormat::Text
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"xml"}"#)
                .unwrap_err()
                .kind(),
            "bad-request"
        );
    }

    #[test]
    fn rejections_are_typed() {
        let cases = [
            ("{", "bad-json"),
            ("[1,2]", "bad-request"),
            (r#"{"op":"fly"}"#, "unknown-op"),
            (r#"{"op":"run"}"#, "bad-request"),
            (
                r#"{"op":"run","bench":"sort","scheme":"d","plan":"x"}"#,
                "bad-request",
            ),
            (
                r#"{"op":"run","bench":"sort","max_insns":-3}"#,
                "bad-request",
            ),
            (r#"{"op":"plan","bench":"go"}"#, "bad-request"),
            (
                r#"{"op":"run","bench":"sort","deadline_ms":0}"#,
                "bad-request",
            ),
            (
                r#"{"op":"run","bench":"sort","deadline_ms":"soon"}"#,
                "bad-request",
            ),
        ];
        for (line, kind) in cases {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind(), kind, "line `{line}` -> {err}");
            let rendered = err.render();
            assert!(
                rendered.starts_with(r#"{"ok":false,"error":"#),
                "{rendered}"
            );
            assert!(
                json::parse(&rendered).is_ok(),
                "error response must be JSON"
            );
        }
    }

    #[test]
    fn deadline_is_parsed_and_overload_errors_are_typed() {
        let req = parse_request(r#"{"op":"run","bench":"sort","deadline_ms":250}"#).unwrap();
        assert_eq!(req.deadline_ms(), Some(250));
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#).unwrap().deadline_ms(),
            None
        );
        let o = ServeError::Overloaded {
            queue_depth: 9,
            limit: 8,
        };
        assert_eq!(o.kind(), "overloaded");
        assert!(json::parse(&o.render()).is_ok());
        let t = ServeError::Timeout { deadline_ms: 250 };
        assert_eq!(t.kind(), "timeout");
        assert!(json::parse(&t.render()).is_ok());
    }

    #[test]
    fn stats_round_trip_is_exact() {
        let mut s = Stats {
            insns: 123,
            cycles: 456,
            exceptions: 7,
            ..Default::default()
        };
        s.stalls.swic = 9;
        let rendered = stats_json(&s);
        let back = parse_stats(&json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
