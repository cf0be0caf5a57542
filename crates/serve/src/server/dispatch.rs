//! The dispatch layer: one request line in, one response line out.
//!
//! Between transport (which moves lines) and the handlers (which do the
//! work) sit the rules every request obeys: parsing, admission control
//! against the queue bound, the `deadline_ms` budget, per-op counters
//! and service-time histograms, and turning every failure into exactly
//! one typed, counted error line. Nothing here panics on any input.

use std::time::{Duration, Instant};

use crate::pool::WorkerPool;
use crate::protocol::{parse_request, Request, ServeError};

use super::handlers::{
    handle_build, handle_metrics, handle_plan, handle_run, handle_shutdown, handle_stats,
    handle_trace,
};
use super::ServeState;

/// A request's deadline budget, anchored at admission (the instant the
/// line came off the socket — queue time counts against the budget).
#[derive(Debug, Clone, Copy)]
pub(super) struct Deadline {
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
    pub(super) fn check(d: Option<Deadline>) -> Result<(), ServeError> {
        match d {
            Some(d) if Instant::now() >= d.at => Err(ServeError::Timeout { deadline_ms: d.ms }),
            _ => Ok(()),
        }
    }
}

/// Admission control: a queue already at the bound means a new request
/// would wait behind `max_queue` jobs, so it is shed with a typed,
/// retryable `overloaded` instead of queueing without bound.
pub(super) fn admit(state: &ServeState, pool: &WorkerPool) -> Result<(), ServeError> {
    let depth = pool.queue_depth();
    if depth >= state.max_queue {
        return Err(ServeError::Overloaded {
            queue_depth: depth,
            limit: state.max_queue,
        });
    }
    Ok(())
}

/// Counts a typed error — `serve.err.total`, `serve.err.<kind>`, and
/// `serve.shed` or `serve.deadline_exceeded` where it applies — and
/// renders its response line.
pub(super) fn reject(state: &ServeState, e: &ServeError) -> String {
    state.ops.errors.inc();
    match e {
        ServeError::Timeout { .. } => state.metrics.deadline_exceeded.inc(),
        ServeError::Overloaded { .. } => state.metrics.shed.inc(),
        _ => {}
    }
    state.metrics.record_error(e.kind());
    e.render()
}

/// Handles one parsed request, returning the response line (without the
/// trailing newline). Telemetry rides along — each request bumps its
/// `serve.req.<op>` counter and lands one observation in its
/// `serve.op.<op>.us` service-time histogram — but none of it leaks
/// into the response bytes of the four pure ops.
///
/// The request's `deadline_ms` budget is measured from `admitted` (when
/// the line came off the socket), so time spent queued behind other
/// work counts against it. Expiry is checked here at dequeue — work the
/// client has given up on is never started — and again between the
/// build and run phases of `run`/`trace`.
pub fn handle_request_at(
    state: &ServeState,
    req: &Request,
    pool: Option<&WorkerPool>,
    admitted: Instant,
) -> String {
    let handler_start = Instant::now();
    let deadline = Deadline::of(req, admitted);
    let o = &state.ops;
    let (op, result) = match req {
        Request::Build { bench, spec, .. } => {
            o.build.inc();
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
            o.run.inc();
            let run = |()| handle_run(state, bench, spec, *max_insns, deadline);
            ("run", Deadline::check(deadline).and_then(run))
        }
        Request::Trace {
            bench,
            spec,
            max_insns,
            ..
        } => {
            o.trace.inc();
            let trace = |()| handle_trace(state, bench, spec, *max_insns, deadline);
            ("trace", Deadline::check(deadline).and_then(trace))
        }
        Request::Plan {
            bench, scheme, rf, ..
        } => {
            o.plan.inc();
            let plan = |()| handle_plan(state, bench, scheme, *rf);
            ("plan", Deadline::check(deadline).and_then(plan))
        }
        Request::Stats => {
            o.stats.inc();
            ("stats", Ok(handle_stats(state, pool)))
        }
        Request::Metrics { format } => {
            o.metrics.inc();
            ("metrics", Ok(handle_metrics(state, pool, *format)))
        }
        Request::Shutdown => ("shutdown", Ok(handle_shutdown(state))),
    };
    let line = result.unwrap_or_else(|e| reject(state, &e));
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
        Err(e) => reject(state, &e),
    }
}
