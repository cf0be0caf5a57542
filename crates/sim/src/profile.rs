//! Per-region (per-procedure) execution and miss profiling.
//!
//! Selective compression (§3.3) needs two profiles per procedure: dynamic
//! instruction counts (execution-based selection) and non-speculative
//! I-cache miss counts (miss-based selection). [`RegionProfiler`] derives
//! both from the machine's event stream, attributed to caller-supplied
//! address regions.

use crate::trace::{NoTrace, TraceEvent, TraceSink};

/// A [`TraceSink`] that attributes committed program instructions
/// ([`TraceEvent::Commit`] outside the handler) and I-misses
/// ([`TraceEvent::FetchMiss`], both kinds) to address regions, and
/// records the region **entry trace** (each execution of a region's first
/// instruction), which procedure-granularity decompression models replay.
///
/// Every event is forwarded to an inner sink `S`. Right after the
/// `Commit` that enters a region, the inner sink also receives a
/// [`TraceEvent::RegionEntry`] stamped with the cycles seen so far
/// (commits plus stall cycles — the machine's `Stats::cycles` at that
/// instant, by the folding contract).
///
/// # Examples
///
/// ```
/// use rtdc_sim::trace::MissKind;
/// use rtdc_sim::{RegionProfiler, TraceEvent, TraceSink};
///
/// let mut p = RegionProfiler::new(vec![(0x1000, 0x1100, 0)], 1);
/// p.event(&TraceEvent::Commit { pc: 0x1000, handler: false }); // entry
/// p.event(&TraceEvent::Commit { pc: 0x1004, handler: false });
/// p.event(&TraceEvent::FetchMiss { pc: 0x1020, cycle: 2, kind: MissKind::Native });
/// assert_eq!(p.exec_counts(), &[2]);
/// assert_eq!(p.miss_counts(), &[1]);
/// assert_eq!(p.entry_trace(), &[0]);
/// ```
#[derive(Debug, Clone)]
pub struct RegionProfiler<S: TraceSink = NoTrace> {
    /// Sorted, disjoint half-open ranges with a region id each.
    ranges: Vec<(u32, u32, usize)>,
    exec: Vec<u64>,
    miss: Vec<u64>,
    entries: Vec<u32>,
    entry_cap: usize,
    truncated: bool,
    /// Commits plus stall cycles seen so far: the `RegionEntry` stamp.
    cycles: u64,
    inner: S,
}

impl RegionProfiler {
    /// Default cap on recorded entries (procedure calls); programs in this
    /// repository make a few thousand to a few hundred thousand calls, so
    /// the cap only saturates on pathological workloads. When it does,
    /// recording stops silently for the *trace* (per-region exec/miss
    /// counters keep accumulating) and [`RegionProfiler::truncated`]
    /// reports the loss.
    pub const ENTRY_TRACE_CAP: usize = 8_000_000;

    /// Creates a profiler over `regions` (`(start, end, id)` half-open byte
    /// ranges; ids may repeat if a region is split), with the default
    /// [`RegionProfiler::ENTRY_TRACE_CAP`] on the entry trace.
    ///
    /// # Panics
    ///
    /// Panics if ranges overlap or are unsorted after normalization.
    pub fn new(regions: Vec<(u32, u32, usize)>, region_count: usize) -> RegionProfiler {
        RegionProfiler::wrapping(regions, region_count, NoTrace)
    }
}

impl<S: TraceSink> RegionProfiler<S> {
    /// Like [`RegionProfiler::new`], forwarding every event — plus the
    /// [`TraceEvent::RegionEntry`] events this profiler derives — to
    /// `inner`.
    ///
    /// # Panics
    ///
    /// As [`RegionProfiler::new`].
    pub fn wrapping(
        mut regions: Vec<(u32, u32, usize)>,
        region_count: usize,
        inner: S,
    ) -> RegionProfiler<S> {
        regions.sort_by_key(|r| r.0);
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "profiler regions overlap");
        }
        assert!(
            regions.iter().all(|r| r.2 < region_count),
            "region id out of bounds"
        );
        RegionProfiler {
            ranges: regions,
            exec: vec![0; region_count],
            miss: vec![0; region_count],
            entries: Vec::new(),
            entry_cap: RegionProfiler::<NoTrace>::ENTRY_TRACE_CAP,
            truncated: false,
            cycles: 0,
            inner,
        }
    }

    fn lookup_range(&self, pc: u32) -> Option<(u32, usize)> {
        let i = self.ranges.partition_point(|&(start, _, _)| start <= pc);
        if i == 0 {
            return None;
        }
        let (start, end, id) = self.ranges[i - 1];
        (pc >= start && pc < end).then_some((start, id))
    }

    /// Records one committed program instruction at `pc`. Returns the
    /// region id when `pc` is a region's first instruction (a region
    /// *entry*), whether or not the entry trace still has room — the
    /// inner sink sees every entry even past the cap.
    fn record_exec(&mut self, pc: u32) -> Option<u32> {
        let (start, id) = self.lookup_range(pc)?;
        self.exec[id] += 1;
        if pc != start {
            return None;
        }
        if self.entries.len() < self.entry_cap {
            self.entries.push(id as u32);
        } else {
            self.truncated = true;
        }
        Some(id as u32)
    }

    /// Records one I-cache miss at `pc`.
    fn record_miss(&mut self, pc: u32) {
        if let Some((_, id)) = self.lookup_range(pc) {
            self.miss[id] += 1;
        }
    }

    /// Per-region committed instruction counts.
    pub fn exec_counts(&self) -> &[u64] {
        &self.exec
    }

    /// Per-region I-miss counts.
    pub fn miss_counts(&self) -> &[u64] {
        &self.miss
    }

    /// The region entry trace: region ids in the order their first
    /// instruction executed (i.e. the dynamic call sequence when regions
    /// are procedures). Recording saturates at
    /// [`RegionProfiler::ENTRY_TRACE_CAP`] entries: later entries
    /// are dropped from the trace (never from the exec/miss counters)
    /// and [`RegionProfiler::truncated`] turns `true`.
    pub fn entry_trace(&self) -> &[u32] {
        &self.entries
    }

    /// Whether the entry trace hit its cap and dropped entries. A
    /// truncated trace is a prefix of the real entry sequence; consumers
    /// that replay it (e.g. procedure-cache models) must not treat it as
    /// complete.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Consumes the profiler and returns the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for RegionProfiler<S> {
    // Inlined: each emission site keeps only its event's arm (most are no-ops).
    #[inline]
    fn event(&mut self, ev: &TraceEvent) {
        if S::ENABLED {
            self.inner.event(ev);
        }
        match *ev {
            TraceEvent::Commit { pc, handler } => {
                self.cycles += 1;
                if handler {
                    return;
                }
                if let Some(region) = self.record_exec(pc) {
                    if S::ENABLED {
                        self.inner.event(&TraceEvent::RegionEntry {
                            region,
                            pc,
                            cycle: self.cycles,
                        });
                    }
                }
            }
            TraceEvent::FetchMiss { pc, .. } => self.record_miss(pc),
            TraceEvent::Stall { cycles, .. } => self.cycles += cycles,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_to_correct_region() {
        let mut p = RegionProfiler::new(vec![(0x100, 0x200, 0), (0x200, 0x280, 1)], 2);
        p.record_exec(0x100);
        p.record_exec(0x1fc);
        p.record_exec(0x200);
        p.record_miss(0x27c);
        assert_eq!(p.exec_counts(), &[2, 1]);
        assert_eq!(p.miss_counts(), &[0, 1]);
    }

    #[test]
    fn out_of_range_ignored() {
        let mut p = RegionProfiler::new(vec![(0x100, 0x200, 0)], 1);
        p.record_exec(0xff);
        p.record_exec(0x200);
        assert_eq!(p.exec_counts(), &[0]);
    }

    #[test]
    fn entry_trace_records_first_instruction_executions() {
        let mut p = RegionProfiler::new(vec![(0x100, 0x200, 0), (0x200, 0x280, 1)], 2);
        p.record_exec(0x100); // enter region 0
        p.record_exec(0x104);
        p.record_exec(0x200); // enter region 1
        p.record_exec(0x100); // re-enter region 0
        assert_eq!(p.entry_trace(), &[0, 1, 0]);
    }

    #[test]
    fn split_region_shares_id() {
        let mut p = RegionProfiler::new(vec![(0x0, 0x10, 0), (0x20, 0x30, 0)], 1);
        p.record_exec(0x0);
        p.record_exec(0x20);
        assert_eq!(p.exec_counts(), &[2]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_regions_rejected() {
        let _ = RegionProfiler::new(vec![(0, 0x20, 0), (0x10, 0x30, 1)], 2);
    }

    #[test]
    fn record_exec_reports_entries() {
        let mut p = RegionProfiler::new(vec![(0x100, 0x200, 0)], 1);
        assert_eq!(p.record_exec(0x100), Some(0));
        assert_eq!(p.record_exec(0x104), None);
        assert_eq!(p.record_exec(0x300), None);
    }

    #[test]
    fn hitting_the_entry_cap_is_reported_not_silent() {
        let mut p = RegionProfiler {
            entry_cap: 3,
            ..RegionProfiler::new(vec![(0x100, 0x200, 0)], 1)
        };
        for _ in 0..3 {
            assert_eq!(p.record_exec(0x100), Some(0));
        }
        assert!(!p.truncated(), "under the cap nothing is lost");
        // The fourth entry saturates the trace but is still returned and
        // still counted.
        assert_eq!(p.record_exec(0x100), Some(0));
        assert!(p.truncated(), "dropping an entry must set the flag");
        assert_eq!(p.entry_trace().len(), 3);
        assert_eq!(p.exec_counts(), &[4]);
    }

    #[test]
    fn default_cap_matches_documented_constant() {
        let p = RegionProfiler::new(vec![(0, 4, 0)], 1);
        assert!(!p.truncated());
        assert_eq!(RegionProfiler::ENTRY_TRACE_CAP, 8_000_000);
    }
}
