//! A fixed-size worker pool executing boxed jobs.
//!
//! The server dispatches each parsed request onto this pool, so CPU-bound
//! work (builds, simulation runs) is bounded by the pool width no matter
//! how many client connections exist; the per-connection reader threads
//! only parse lines and wait for their job's reply.
//!
//! Jobs never dispatch nested jobs, so the pool cannot deadlock on
//! itself; a job that panics is caught ([`std::panic::catch_unwind`])
//! and counted rather than killing the worker, so one bad request
//! cannot wedge the pool — the protocol-fuzz battery leans on this.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use rtdc_obs::Histogram;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool's shared instrumentation cells. Every update is one atomic
/// RMW on the job path; the telemetry layer reads them into registry
/// gauges at snapshot time.
#[derive(Default)]
struct PoolStats {
    queued: AtomicU64,
    executed: AtomicU64,
    panics: AtomicU64,
    in_flight: AtomicU64,
    /// Per-job wall-time histogram (microseconds), when attached.
    wall: Option<Arc<Histogram>>,
}

/// A fixed-size pool of worker threads consuming a shared job queue.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least 1).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::spawn(threads, None)
    }

    /// Spawns `threads` workers recording per-job wall time into
    /// `wall` (microseconds) — the daemon's `serve.pool.job_wall.us`
    /// histogram.
    pub fn new_instrumented(threads: usize, wall: Arc<Histogram>) -> WorkerPool {
        WorkerPool::spawn(threads, Some(wall))
    }

    fn spawn(threads: usize, wall: Option<Arc<Histogram>>) -> WorkerPool {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let stats = Arc::new(PoolStats {
            wall,
            ..PoolStats::default()
        });
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("rtdc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &stats))
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            stats,
        }
    }

    /// Enqueues `job`. Returns `false` if the pool is shut down.
    pub fn execute(&self, job: Job) -> bool {
        match &self.tx {
            Some(tx) => {
                // Count before the send so `queued >= executed` holds in
                // any observation (a worker cannot run a job the queue
                // counter has not yet seen).
                self.stats.queued.fetch_add(1, Ordering::Release);
                if tx.send(job).is_ok() {
                    true
                } else {
                    self.stats.queued.fetch_sub(1, Ordering::Relaxed);
                    false
                }
            }
            None => false,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs whose closure panicked (caught; the worker survived).
    pub fn panics(&self) -> u64 {
        self.stats.panics.load(Ordering::Relaxed)
    }

    /// Jobs executed to completion (including caught panics).
    pub fn executed(&self) -> u64 {
        self.stats.executed.load(Ordering::Relaxed)
    }

    /// Jobs accepted by [`WorkerPool::execute`] so far.
    pub fn queued(&self) -> u64 {
        self.stats.queued.load(Ordering::Relaxed)
    }

    /// Jobs currently running on a worker.
    pub fn in_flight(&self) -> u64 {
        self.stats.in_flight.load(Ordering::Relaxed)
    }

    /// Jobs accepted but not yet started (the backlog a saturated pool
    /// accumulates). Computed from monotonic counters, so a racing
    /// observation can transiently read one high, never negative.
    pub fn queue_depth(&self) -> u64 {
        let queued = self.stats.queued.load(Ordering::Acquire);
        let started = self.stats.executed.load(Ordering::Relaxed)
            + self.stats.in_flight.load(Ordering::Relaxed);
        queued.saturating_sub(started)
    }

    /// Every counter as `(name, value)`, in the `stats` op's order: the
    /// one field list behind both the `stats` op's `pool` object and the
    /// `serve.pool.<name>` gauges.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("threads", self.threads() as u64),
            ("queued", self.queued()),
            ("executed", self.executed()),
            ("in_flight", self.in_flight()),
            ("queue_depth", self.queue_depth()),
            ("panics", self.panics()),
        ]
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, stats: &PoolStats) {
    loop {
        let job = {
            let guard = rx.lock().expect("pool queue lock");
            guard.recv()
        };
        let Ok(job) = job else { return };
        stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
            stats.panics.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(wall) = &stats.wall {
            wall.observe_micros(started.elapsed());
        }
        // `in_flight` down before `executed` up: a finishing job is
        // briefly counted in neither, so `queue_depth` can only read
        // transiently high, never negative.
        stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        stats.executed.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for WorkerPool {
    /// Drains queued jobs and joins every worker.
    fn drop(&mut self) {
        self.tx.take();
        // The pool is shared via `Arc`, and job closures themselves hold
        // a clone (for the `stats` op) — so the *last* owner can be a
        // worker dropping a finished job. A thread must never join
        // itself (EDEADLK): skip our own handle and let that worker
        // wind down on its own once the closed queue drains.
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() == me {
                continue;
            }
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn executes_jobs_on_many_threads() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u32 {
            let tx = tx.clone();
            assert!(pool.execute(Box::new(move || tx.send(i * i).unwrap())));
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        let want: Vec<u32> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, want);
        assert_eq!(pool.executed(), 100);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let pool = WorkerPool::new(2);
        for _ in 0..10 {
            pool.execute(Box::new(|| panic!("job panic")));
        }
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let tx = tx.clone();
            pool.execute(Box::new(move || tx.send(1u8).unwrap()));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 4, "workers must survive panics");
        // The last worker may still be between its catch and the counter
        // bump; wait for all 14 jobs to be fully accounted.
        while pool.executed() < 14 {
            std::thread::yield_now();
        }
        assert_eq!(pool.panics(), 10);
    }

    #[test]
    fn instrumentation_settles_exactly() {
        let reg = rtdc_obs::MetricsRegistry::new();
        let wall = reg.histogram("pool.job_wall.us");
        let pool = WorkerPool::new_instrumented(2, Arc::clone(&wall));
        let (tx, rx) = mpsc::channel();
        for _ in 0..50u8 {
            let tx = tx.clone();
            assert!(pool.execute(Box::new(move || tx.send(1u8).unwrap())));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 50);
        while pool.executed() < 50 {
            std::thread::yield_now();
        }
        assert_eq!(pool.queued(), 50);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.queue_depth(), 0);
        let h = wall.snapshot();
        assert_eq!(h.count, 50, "every job records one wall observation");
        assert_eq!(h.count, h.buckets.iter().map(|&(_, n)| n).sum::<u64>());
    }

    #[test]
    fn drop_drains_the_queue() {
        let (tx, rx) = mpsc::channel();
        {
            let pool = WorkerPool::new(1);
            for i in 0..20u8 {
                let tx = tx.clone();
                pool.execute(Box::new(move || tx.send(i).unwrap()));
            }
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 20, "drop must drain pending jobs");
    }
}
