//! In-memory spans around calls into the workspace crates, and the
//! self-time arithmetic over them.
//!
//! A span records one public call: its name, start and end (nanoseconds
//! from a shared epoch), the span that caused it and the id of the
//! operation (suite cell or request) it belongs to. Spans nest strictly
//! on one thread, so a span's self time is its duration minus the
//! durations of its direct children, and the self times of a tree add
//! back to its root's duration exactly.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The public call, e.g. `load_image` or `Machine::run`.
    pub name: &'static str,
    /// The operation (suite cell or request) this span belongs to.
    pub req: u64,
    /// Index of the enclosing span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds from the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls its closure, so the traced and untraced runs execute the same
/// code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch` (share one epoch
    /// between threads so their spans can be merged).
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` through
    /// the tracer it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-timed span with no parent (a client-side
    /// round trip measured by the caller).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            name,
            req,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this tracer, re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Children of a span never overlap each other and lie inside it, so no
/// self time is negative; saturating arithmetic only guards clock
/// rounding.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// The share of the `root` spans' time that no child span covers: the
/// benchmark's own work between calls, reported rather than hidden.
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(&selfs) {
        if s.name == root {
            own += own_ns;
            total += s.dur_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Writes the spans as JSON lines (with their self times) to `path`.
pub fn write_jsonl(spans: &[Span], header: &str, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iters: u64) -> u64 {
        (0..iters).fold(0u64, |a, i| std::hint::black_box(a.wrapping_add(i * i)))
    }

    fn nested(t: &mut Tracer) {
        t.span("root", 7, |t| {
            spin(1000);
            t.span("a", 7, |t| {
                spin(500);
                t.span("a1", 7, |_| spin(800));
                t.span("a2", 7, |_| spin(300));
            });
            t.span("b", 7, |_| spin(2000));
            spin(100);
        });
    }

    #[test]
    fn children_lie_inside_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        nested(&mut t);
        nested(&mut t);
        let spans = t.spans();
        assert_eq!(spans.len(), 10);
        for s in spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let p = &spans[p];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{s:?} escapes {p:?}"
                );
            }
        }
        for p in 0..spans.len() {
            let children: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(p))
                .map(Span::dur_ns)
                .sum();
            assert!(children <= spans[p].dur_ns());
        }
    }

    #[test]
    fn self_times_add_back_to_the_root() {
        let mut t = Tracer::new(true, Instant::now());
        nested(&mut t);
        let spans = t.spans();
        let selfs = self_times(spans);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur_ns());
        let a = spans.iter().position(|s| s.name == "a").unwrap();
        let kids: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(a))
            .map(Span::dur_ns)
            .sum();
        assert_eq!(selfs[a], spans[a].dur_ns() - kids);
        let share = unattributed_share(spans, "root");
        assert!((0.0..=1.0).contains(&share));
        assert_eq!(share, selfs[0] as f64 / spans[0].dur_ns() as f64);
    }

    #[test]
    fn self_times_of_hand_made_spans() {
        let s = |name, parent, start_ns, end_ns| Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            s("root", None, 0, 100),
            s("a", Some(0), 10, 40),
            s("a1", Some(1), 15, 25),
            s("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(unattributed_share(&spans, "root"), 0.3);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_reindexes() {
        let mut off = Tracer::new(false, Instant::now());
        nested(&mut off);
        assert!(off.spans().is_empty());
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        nested(&mut a);
        let mut b = Tracer::new(true, epoch);
        nested(&mut b);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans[5].parent, None);
        assert_eq!(spans[6].parent, Some(5));
        assert_eq!(spans[7].parent, Some(6));
    }
}
