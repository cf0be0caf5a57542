//! The metrics registry: named counters, gauges, and log2 histograms.
//!
//! Three metric kinds, all backed by `AtomicU64`:
//!
//! * [`Counter`] — monotonically increasing (requests handled, bytes
//!   moved). A snapshot of a counter never decreases.
//! * [`Gauge`] — a value set to the current level of something
//!   (resident bytes, queue depth, entries). May go up or down.
//! * [`Histogram`] — a fixed array of 65 log2 buckets plus a running
//!   `count` and `sum`. `observe(v)` increments the bucket whose range
//!   contains `v`: bucket 0 holds exactly `v == 0`, bucket *i* ≥ 1
//!   holds `2^(i-1) ..= 2^i − 1`. Quantiles reported from a histogram
//!   are the matching bucket's **upper bound** — conservative within a
//!   factor of 2, which is the precision a latency dashboard needs and
//!   the price of a lock-free fixed-size layout.
//!
//! Handles are `Arc`s handed out by [`MetricsRegistry`]; registration
//! takes the registry lock once per name, after which every update is
//! a single atomic RMW — the hot path never locks. A [`Snapshot`] reads
//! the same atomics: values observed while writers are running are each
//! individually monotonic (counters/histogram cells never decrease),
//! and after writers join the totals reconcile exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::log::esc_into;

/// Number of histogram buckets: one for zero plus one per bit width.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable level.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` to the level.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from the level (saturating at 0 two's-complement
    /// wise: callers pair add/sub, so transient wrap cannot persist).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The log2 bucket index for `v`: 0 for 0, else `v`'s bit width.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A fixed-bucket log2 histogram (see the module docs for the bucket
/// scheme). Unit-agnostic: the serving stack records microseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation. The bucket and sum cells are updated
    /// before `count` (release), and [`Histogram::snapshot`] reads
    /// `count` first (acquire) — so a mid-flight snapshot can only
    /// *over*-count buckets relative to `count`, never lose one, and a
    /// post-join snapshot reconciles exactly.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Records a duration in whole microseconds (the serving stack's
    /// latency unit).
    pub fn observe_micros(&self, d: std::time::Duration) {
        self.observe(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// A point-in-time copy of the cells. `count` is read first
    /// (acquire, pairing with the release in [`Histogram::observe`]):
    /// every observation it covers is fully visible in the buckets,
    /// so `sum(buckets) >= count` holds in any snapshot and equality
    /// holds once writers are quiescent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Acquire);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s cells (only non-empty
/// buckets, as `(bucket index, count)` pairs in index order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets: `(index, count)`, ascending index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the
    /// bucket containing it — conservative within a factor of 2.
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total: u64 = self.buckets.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(i, n) in &self.buckets {
            cum += n;
            if cum >= target {
                return Some(bucket_upper_bound(i as usize));
            }
        }
        self.buckets
            .last()
            .map(|&(i, _)| bucket_upper_bound(i as usize))
    }

    /// Mean of the observed values (exact: from `sum`/`count`).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The observations recorded since `earlier` (bucket-wise
    /// saturating difference) — the live-dashboard per-interval view.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut prev: BTreeMap<u8, u64> = earlier.buckets.iter().copied().collect();
        let buckets: Vec<(u8, u64)> = self
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let d = n.saturating_sub(prev.remove(&i).unwrap_or(0));
                (d > 0).then_some((i, d))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
///
/// Naming convention (enforced only by review): lowercase dotted paths,
/// component first — `serve.req.build`, `serve.cache.hits`,
/// `serve.op.run.us`. Histogram names end in their unit (`.us`).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, registering it if new.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different kind (a
    /// programming error, caught at first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.inner.lock().expect("metrics registry lock");
        match g
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` already registered as a non-counter"),
        }
    }

    /// The gauge named `name`, registering it if new.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = self.inner.lock().expect("metrics registry lock");
        match g
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(v) => Arc::clone(v),
            _ => panic!("metric `{name}` already registered as a non-gauge"),
        }
    }

    /// The histogram named `name`, registering it if new.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut g = self.inner.lock().expect("metrics registry lock");
        match g
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` already registered as a non-histogram"),
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name. The registry lock is held only while cloning the handle
    /// list; the atomic reads happen outside it.
    pub fn snapshot(&self) -> Snapshot {
        let handles: Vec<(String, MetricHandle)> = {
            let g = self.inner.lock().expect("metrics registry lock");
            g.iter()
                .map(|(k, m)| {
                    let h = match m {
                        Metric::Counter(c) => MetricHandle::Counter(Arc::clone(c)),
                        Metric::Gauge(v) => MetricHandle::Gauge(Arc::clone(v)),
                        Metric::Histogram(h) => MetricHandle::Histogram(Arc::clone(h)),
                    };
                    (k.clone(), h)
                })
                .collect()
        };
        let mut snap = Snapshot::default();
        for (name, h) in handles {
            match h {
                MetricHandle::Counter(c) => snap.counters.push((name, c.get())),
                MetricHandle::Gauge(v) => snap.gauges.push((name, v.get())),
                MetricHandle::Histogram(h) => snap.histograms.push((name, h.snapshot())),
            }
        }
        snap
    }
}

enum MetricHandle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time view of a registry, sorted by metric name within
/// each kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The counter or gauge named `name`.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .chain(self.gauges.iter())
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// The histogram named `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{"count":..,
    /// "sum":..,"buckets":[[index,count],..]}}}`. Field order is the
    /// sorted metric order, so equal snapshots render byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc_into(&mut out, k);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc_into(&mut out, k);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc_into(&mut out, k);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            ));
            for (j, (b, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{b},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): dots in names become underscores, histograms
    /// expand to cumulative `_bucket{le="..."}` series plus `_sum` and
    /// `_count`. External scrapers consume this as-is.
    pub fn to_prometheus(&self) -> String {
        fn prom_name(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for &(i, c) in &h.buckets {
                cum += c;
                out.push_str(&format!(
                    "{n}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_upper_bound(i as usize)
                ));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_log2_with_zero_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lands in the bucket whose range contains it.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1107);
        assert_eq!(s.count, s.buckets.iter().map(|&(_, n)| n).sum::<u64>());
        // p50 of 7 samples -> 4th sorted value (2) -> bucket [2,3].
        assert_eq!(s.quantile(0.50), Some(3));
        assert_eq!(s.quantile(1.0), Some(1023));
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(Histogram::default().snapshot().quantile(0.5), None);
    }

    #[test]
    fn snapshot_delta_isolates_the_interval() {
        let h = Histogram::default();
        h.observe(5);
        h.observe(9);
        let t0 = h.snapshot();
        h.observe(5);
        h.observe(100_000);
        let d = h.snapshot().since(&t0);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 100_005);
        assert_eq!(d.buckets, vec![(3, 1), (17, 1)]);
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        r.gauge("x.level").set(7);
        r.histogram("x.us").observe(42);
        let s = r.snapshot();
        assert_eq!(s.value("x.hits"), Some(4));
        assert_eq!(s.value("x.level"), Some(7));
        assert_eq!(s.histogram("x.us").unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_is_a_loud_error() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn json_rendering_is_deterministic_and_wellformed() {
        let r = MetricsRegistry::new();
        r.counter("b.count").inc();
        r.counter("a.count").add(2);
        r.gauge("c.level").set(9);
        r.histogram("d.us").observe(3);
        r.counter("a\"q\n").inc();
        let j = r.snapshot().to_json();
        assert_eq!(
            j,
            "{\"counters\":{\"a\\\"q\\n\":1,\"a.count\":2,\"b.count\":1},\
             \"gauges\":{\"c.level\":9},\
             \"histograms\":{\"d.us\":{\"count\":1,\"sum\":3,\"buckets\":[[2,1]]}}}"
        );
        assert_eq!(j, r.snapshot().to_json());
    }

    #[test]
    fn prometheus_rendering_has_cumulative_buckets() {
        let r = MetricsRegistry::new();
        r.counter("serve.req.build").add(5);
        let h = r.histogram("serve.op.build.us");
        h.observe(1);
        h.observe(3);
        h.observe(3);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE serve_req_build counter\nserve_req_build 5\n"));
        assert!(text.contains("serve_op_build_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("serve_op_build_us_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("serve_op_build_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("serve_op_build_us_sum 7\n"));
        assert!(text.contains("serve_op_build_us_count 3\n"));
    }
}
