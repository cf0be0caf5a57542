//! A std-only parallel job runner for experiment fan-out.
//!
//! Every table/figure harness measures many independent (benchmark,
//! scheme, cache-size) cells; each cell is a deterministic simulation, so
//! the only requirement is that fan-out must not change *what* is computed
//! or the order results are reported in. [`parallel_map`] guarantees both:
//! items are claimed from a shared counter (no work-stealing
//! nondeterminism in who computes what — item `i` is always computed by
//! exactly one worker from the same input), and results are returned in
//! input order regardless of completion order. With `jobs <= 1` no threads
//! are spawned at all, so a single-job run is byte-identical to the
//! pre-fan-out serial harness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use crate::args::{ArgError, Cli};

/// Worker count to use when the user does not ask for one: the host's
/// available parallelism (1 if that cannot be determined).
pub fn default_jobs() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The command line of a `harness = false` bench target: `--jobs N`,
/// and the bare `--bench` that `cargo bench` passes to every such
/// target.
const HARNESS: Cli = Cli {
    usage: "usage: cargo bench -p rtdc-bench --bench NAME [-- --jobs N]",
    values: "jobs",
    switches: "bench",
    operands: 0..=0,
};

/// Resolves the worker count for a harness binary from its command line
/// ([`resolve_jobs`] of its `--jobs N`). Any other argument, or an
/// `RTDC_JOBS` that is not a number, ends the process with a usage
/// error.
pub fn jobs_from_env() -> usize {
    let args = HARNESS.from_env();
    args.num("jobs")
        .and_then(resolve_jobs)
        .unwrap_or_else(|e| HARNESS.fail(e))
}

/// The worker count: `flag` (a tool's `--jobs N`) wins, then the
/// `RTDC_JOBS` environment variable, then [`default_jobs`]. Zero is
/// clamped to 1.
///
/// # Errors
///
/// [`ArgError::BadEnv`] if `RTDC_JOBS` is consulted and is not a number.
pub fn resolve_jobs(flag: Option<usize>) -> Result<usize, ArgError> {
    let env = std::env::var_os("RTDC_JOBS").map(|v| v.to_string_lossy().into_owned());
    jobs_from(flag, env.as_deref())
}

/// [`resolve_jobs`] with the environment value passed in.
fn jobs_from(flag: Option<usize>, env: Option<&str>) -> Result<usize, ArgError> {
    let jobs = match (flag, env) {
        (Some(n), _) => n,
        (None, Some(v)) => v.parse().map_err(|_| ArgError::BadEnv {
            var: "RTDC_JOBS",
            value: v.to_string(),
        })?,
        (None, None) => default_jobs(),
    };
    Ok(jobs.max(1))
}

/// Applies `f` to every item on up to `jobs` worker threads and returns
/// the results **in input order**.
///
/// Workers claim items through an atomic cursor and send `(index, result)`
/// pairs over a channel; the caller reassembles by index. `jobs <= 1` (or
/// a single item) runs inline on the caller's thread with no channel, so
/// serial runs have zero threading overhead and identical behavior.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map<T, U, F>(items: &[T], jobs: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    thread::scope(|s| {
        for _ in 0..jobs.min(items.len()) {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                // A send error means the receiver is gone (caller
                // panicking); stop quietly and let the scope unwind.
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, out) in rx {
            slots[i] = Some(out);
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every index was claimed and delivered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| {
            // Finish later items faster to scramble completion order.
            std::thread::sleep(std::time::Duration::from_micros(100 - x));
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u32> = (0..57).collect();
        let f = |&x: &u32| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        assert_eq!(parallel_map(&items, 1, f), parallel_map(&items, 8, f));
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 64, |&x| x * x), vec![1, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let _ = parallel_map(&items, 4, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
        assert_eq!(jobs_from(None, None), Ok(default_jobs()));
        assert_eq!(jobs_from(Some(0), None), Ok(1));
        assert_eq!(jobs_from(Some(3), Some("5")), Ok(3));
    }

    #[test]
    fn rtdc_jobs_must_be_a_number() {
        assert_eq!(jobs_from(None, Some("5")), Ok(5));
        assert_eq!(jobs_from(None, Some("0")), Ok(1));
        // A count too large for `usize` is rejected by the parse alone;
        // nothing here starts a thread.
        for bad in ["x", "", "2k", "-1", " 4", "99999999999999999999999"] {
            let err = jobs_from(None, Some(bad)).unwrap_err();
            assert_eq!(
                err,
                ArgError::BadEnv {
                    var: "RTDC_JOBS",
                    value: bad.to_string()
                }
            );
            assert!(err.to_string().contains("RTDC_JOBS"), "{err}");
        }
    }
}
