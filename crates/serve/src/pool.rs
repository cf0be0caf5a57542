//! A fixed number of execution slots, granted on the caller's thread.
//!
//! The server runs each admitted request through [`WorkerPool::run`] on
//! the request's own connection thread, so CPU-bound work (builds,
//! simulation runs) is bounded by the slot count no matter how many
//! client connections exist. Callers take a ticket on arrival and are
//! granted slots in ticket order.
//!
//! Requests never run nested requests, so a slot holder never waits for
//! a slot; a closure that panics is caught
//! ([`std::panic::catch_unwind`]), counted and answered with `None`, and
//! its slot is freed, so one bad request cannot wedge the pool — the
//! protocol-fuzz battery leans on this.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use rtdc_obs::Histogram;

/// The pool's counters, all moved under one lock, so every observation
/// is a consistent cut: `queued = queue_depth + in_flight + executed`.
#[derive(Default)]
struct Counts {
    /// Tickets taken (calls to [`WorkerPool::run`]).
    queued: u64,
    /// Tickets granted a slot.
    started: u64,
    /// Tickets whose closure returned or panicked, slot freed.
    executed: u64,
    /// Closures that panicked.
    panics: u64,
}

/// `threads` execution slots shared by every caller.
pub struct WorkerPool {
    threads: u64,
    counts: Mutex<Counts>,
    /// Signalled each time a slot is freed.
    freed: Condvar,
    /// Per-run wall-time histogram (microseconds), when attached.
    wall: Option<Arc<Histogram>>,
}

impl WorkerPool {
    /// A pool of `threads` slots (at least 1), recording each run's
    /// wall time into `wall` (microseconds) when given — the daemon's
    /// `serve.pool.job_wall.us` histogram.
    pub fn new(threads: usize, wall: Option<Arc<Histogram>>) -> WorkerPool {
        WorkerPool {
            threads: threads.max(1) as u64,
            counts: Mutex::default(),
            freed: Condvar::new(),
            wall,
        }
    }

    fn counts(&self) -> MutexGuard<'_, Counts> {
        self.counts.lock().expect("pool counter lock")
    }

    /// Waits for a slot, in arrival order, then runs `f` on this thread
    /// and frees the slot. `None` if `f` panicked (caught and counted).
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        {
            let mut c = self.counts();
            let ticket = c.queued;
            c.queued += 1;
            // Ticket `t` may start once all but `threads - 1` of the
            // tickets before it have finished: at most `threads` run.
            while ticket >= c.executed + self.threads {
                c = self.freed.wait(c).expect("pool counter lock");
            }
            c.started += 1;
        }
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        if let Some(wall) = &self.wall {
            wall.observe_micros(started.elapsed());
        }
        let mut c = self.counts();
        c.executed += 1;
        c.panics += u64::from(out.is_err());
        drop(c);
        self.freed.notify_all();
        out.ok()
    }

    /// Runs whose closure panicked (caught; the slot was freed).
    pub fn panics(&self) -> u64 {
        self.counts().panics
    }

    /// Callers waiting for a slot now (the backlog a saturated pool
    /// accumulates).
    pub fn queue_depth(&self) -> u64 {
        let c = self.counts();
        c.queued - c.started
    }

    /// Every counter as `(name, value)`, in the `stats` op's order: the
    /// one field list behind both the `stats` op's `pool` object and the
    /// `serve.pool.<name>` gauges. `threads` is the slot count,
    /// `in_flight` the runs holding a slot and `queue_depth` the callers
    /// waiting for one; all six are one consistent cut.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        let c = self.counts();
        [
            ("threads", self.threads),
            ("queued", c.queued),
            ("executed", c.executed),
            ("in_flight", c.started - c.executed),
            ("queue_depth", c.queued - c.started),
            ("panics", c.panics),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn executes_jobs_on_many_threads() {
        let pool = WorkerPool::new(4, None);
        let (running, peak) = (AtomicU64::new(0), AtomicU64::new(0));
        let mut got: Vec<u32> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..100u32)
                .map(|i| {
                    let (pool, running, peak) = (&pool, &running, &peak);
                    s.spawn(move || {
                        pool.run(|| {
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            running.fetch_sub(1, Ordering::SeqCst);
                            i * i
                        })
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        got.sort_unstable();
        let want: Vec<u32> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, want);
        assert_eq!(pool.fields()[2], ("executed", 100));
        assert!(peak.load(Ordering::SeqCst) <= 4, "more runs than slots");
    }

    #[test]
    fn slots_are_granted_in_arrival_order() {
        let pool = WorkerPool::new(1, None);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            pool.run(|| {
                // Hold the only slot while five callers queue, one at a
                // time, so their arrival order is known.
                for i in 0..5u64 {
                    let (pool, order) = (&pool, &order);
                    s.spawn(move || pool.run(|| order.lock().unwrap().push(i)));
                    while pool.queue_depth() <= i {
                        std::thread::yield_now();
                    }
                }
                assert_eq!(pool.fields()[3], ("in_flight", 1));
            });
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn instrumentation_settles_exactly() {
        let reg = rtdc_obs::MetricsRegistry::new();
        let wall = reg.histogram("pool.job_wall.us");
        let pool = WorkerPool::new(2, Some(Arc::clone(&wall)));
        std::thread::scope(|s| {
            for _ in 0..5 {
                s.spawn(|| {
                    for _ in 0..10 {
                        assert_eq!(pool.run(|| 1u8), Some(1));
                    }
                });
            }
        });
        // A run's accounting is done before `run` returns, so the
        // counters are exact the moment the callers are joined.
        assert_eq!(
            pool.fields(),
            [
                ("threads", 2),
                ("queued", 50),
                ("executed", 50),
                ("in_flight", 0),
                ("queue_depth", 0),
                ("panics", 0),
            ]
        );
        let h = wall.snapshot();
        assert_eq!(h.count, 50, "every run records one wall observation");
        assert_eq!(h.count, h.buckets.iter().map(|&(_, n)| n).sum::<u64>());
    }
}
