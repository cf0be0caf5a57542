//! Trace analysis: everything here is derived from a JSONL trace file
//! alone (plus its preamble), so any trace — fresh from a run or read
//! back from disk — reproduces the same report.
//!
//! The analyses:
//!
//! * [`fold_stats`] — the conformance contract: folding the event stream
//!   reconstructs every [`Stats`] counter exactly.
//! * [`miss_interval_histogram`] — log2-bucketed cycle gaps between
//!   consecutive I-misses (how bursty is the miss stream?).
//! * [`handler_attribution`] — per-procedure decompression cost, joining
//!   exception addresses against the region definitions.
//! * [`line_reuse`] — I-line working set and fills-per-line (how much
//!   decompressed code is reused before eviction?).
//! * [`overhead_breakdown`] — where the cycles went: commit vs each
//!   stall bucket, and the handler's share.

use std::collections::HashMap;
use std::io::BufRead;

use rtdc_sim::trace::{parse_line, RegionDef, StallCause, TraceLine};
use rtdc_sim::{StallBreakdown, Stats, TraceEvent};

/// A parsed trace: preamble metadata plus the event stream.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Benchmark name from the `meta` preamble line (empty if absent).
    pub bench: String,
    /// Scheme name from the `meta` preamble line (empty if absent).
    pub scheme: String,
    /// Region definitions from the preamble.
    pub regions: Vec<RegionDef>,
    /// The events, in emission order.
    pub events: Vec<TraceEvent>,
}

/// Parses a whole JSONL trace from any line source.
///
/// # Errors
///
/// The 1-based line number and description of the first malformed line,
/// or the underlying I/O error's message.
pub fn parse_trace<R: BufRead>(reader: R) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read failed: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line).map_err(|e| format!("line {}: {e}", i + 1))? {
            TraceLine::Event(ev) => trace.events.push(ev),
            TraceLine::RegionDef(def) => trace.regions.push(def),
            TraceLine::Meta { bench, scheme } => {
                trace.bench = bench;
                trace.scheme = scheme;
            }
        }
    }
    Ok(trace)
}

/// Folds an event stream back into the [`Stats`] the machine accumulated
/// while emitting it. This is the trace format's correctness contract:
/// the conformance suite asserts the result equals the machine's own
/// `Stats` *exactly*, for every registered scheme. It requires an
/// unfiltered trace (every event kind present). Each event is folded
/// by [`Stats::apply`], the simulator's own definition of what it carries.
pub fn fold_stats(events: &[TraceEvent]) -> Stats {
    let mut s = Stats::default();
    for ev in events {
        s.apply(ev);
    }
    s
}

/// A log2-bucketed histogram of cycle intervals between consecutive
/// I-cache misses. Bucket `i` counts intervals in `[2^i, 2^(i+1))`
/// cycles (bucket 0 also holds zero-cycle intervals).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MissIntervalHistogram {
    /// `buckets[i]` = number of miss-to-miss intervals with
    /// `floor(log2(interval)) == i`.
    pub buckets: Vec<u64>,
    /// Total misses observed.
    pub misses: u64,
}

impl MissIntervalHistogram {
    /// Median miss-to-miss interval, reported as the representative
    /// (lower-bound) value of the bucket holding the median: `2^i`
    /// cycles. `None` with fewer than two misses.
    pub fn median_bucket_cycles(&self) -> Option<u64> {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen * 2 > total {
                return Some(1u64 << i);
            }
        }
        None
    }
}

/// Computes the miss-interval histogram over every I-miss (native and
/// compressed) in the stream, using the misses' cycle stamps.
pub fn miss_interval_histogram(events: &[TraceEvent]) -> MissIntervalHistogram {
    let mut h = MissIntervalHistogram::default();
    let mut last: Option<u64> = None;
    for ev in events {
        if let TraceEvent::FetchMiss { cycle, .. } = *ev {
            h.misses += 1;
            if let Some(prev) = last {
                let gap = cycle.saturating_sub(prev);
                let bucket = (64 - gap.max(1).leading_zeros() - 1) as usize;
                if h.buckets.len() <= bucket {
                    h.buckets.resize(bucket + 1, 0);
                }
                h.buckets[bucket] += 1;
            }
            last = Some(cycle);
        }
    }
    h
}

/// One procedure's share of decompression cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerShare {
    /// Procedure (region) name, or `<unmapped>` for exception addresses
    /// outside every region definition.
    pub name: String,
    /// Decompression exceptions whose miss address fell in this
    /// procedure.
    pub exceptions: u64,
    /// Handler instructions those exceptions executed.
    pub handler_insns: u64,
    /// Handler cycles those exceptions cost.
    pub handler_cycles: u64,
}

/// Attributes decompression-handler cost to procedures: each
/// [`TraceEvent::ExcEntry`] address is mapped through `regions`, and the
/// matching [`TraceEvent::ExcExit`]'s per-exception `insns`/`cycles`
/// deltas accrue to that procedure. Entries come back sorted by handler
/// cycles, descending; procedures that never missed are omitted.
pub fn handler_attribution(events: &[TraceEvent], regions: &[RegionDef]) -> Vec<HandlerShare> {
    let lookup = |pc: u32| -> String {
        regions
            .iter()
            .find(|r| pc >= r.start && pc < r.end)
            .map_or_else(|| "<unmapped>".to_string(), |r| r.name.clone())
    };
    // Exceptions cannot nest (the handler RAM is uncompressed and
    // uncached), so a single pending entry suffices.
    let mut pending: Option<String> = None;
    let mut shares: HashMap<String, HandlerShare> = HashMap::new();
    for ev in events {
        match ev {
            TraceEvent::ExcEntry { pc, .. } => pending = Some(lookup(*pc)),
            TraceEvent::ExcExit { insns, cycles, .. } => {
                let Some(name) = pending.take() else { continue };
                let share = shares.entry(name.clone()).or_insert(HandlerShare {
                    name,
                    exceptions: 0,
                    handler_insns: 0,
                    handler_cycles: 0,
                });
                share.exceptions += 1;
                share.handler_insns += insns;
                share.handler_cycles += cycles;
            }
            _ => {}
        }
    }
    let mut out: Vec<HandlerShare> = shares.into_values().collect();
    out.sort_by(|a, b| {
        b.handler_cycles
            .cmp(&a.handler_cycles)
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

/// I-line working-set and reuse numbers derived from fetches and fills.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LineReuse {
    /// Distinct I-cache line base addresses ever fetched.
    pub distinct_lines: u64,
    /// Total line fills (hardware [`TraceEvent::IFill`]s plus distinct
    /// lines written by `swic` per exception).
    pub fills: u64,
    /// Total I-cache fetches.
    pub fetches: u64,
    /// Lines filled more than once (re-decompressed or re-fetched after
    /// eviction) — the paper's motivation for caching decompressed code.
    pub refilled_lines: u64,
    /// Mean fetches served per fill (`fetches / fills`); higher means a
    /// decompressed line earns back more of its decompression cost.
    pub fetches_per_fill: f64,
}

/// Computes [`LineReuse`] with the given I-line size in bytes (32 for the
/// baseline config).
pub fn line_reuse(events: &[TraceEvent], line_bytes: u32) -> LineReuse {
    let mask = !(line_bytes - 1);
    let mut fetched: HashMap<u32, u64> = HashMap::new();
    let mut fills_per_line: HashMap<u32, u64> = HashMap::new();
    let mut fetches = 0u64;
    // swic writes one word at a time; count each line once per exception.
    let mut swic_lines_this_exc: Vec<u32> = Vec::new();
    let mut total_fills = 0u64;
    for ev in events {
        match *ev {
            TraceEvent::Fetch { pc } => {
                fetches += 1;
                *fetched.entry(pc & mask).or_insert(0) += 1;
            }
            TraceEvent::IFill { base, .. } => {
                total_fills += 1;
                *fills_per_line.entry(base).or_insert(0) += 1;
            }
            TraceEvent::Swic { addr, .. } => {
                let base = addr & mask;
                if !swic_lines_this_exc.contains(&base) {
                    swic_lines_this_exc.push(base);
                    total_fills += 1;
                    *fills_per_line.entry(base).or_insert(0) += 1;
                }
            }
            TraceEvent::ExcExit { .. } => swic_lines_this_exc.clear(),
            _ => {}
        }
    }
    LineReuse {
        distinct_lines: fetched.len() as u64,
        fills: total_fills,
        fetches,
        refilled_lines: fills_per_line.values().filter(|&&n| n > 1).count() as u64,
        fetches_per_fill: if total_fills == 0 {
            0.0
        } else {
            fetches as f64 / total_fills as f64
        },
    }
}

/// Where the cycles went, as absolute counts (shares are derived by the
/// report formatter).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverheadBreakdown {
    /// Total cycles (`commit_cycles + stalls.sum()`).
    pub cycles: u64,
    /// Cycles spent committing instructions (one per commit).
    pub commit_cycles: u64,
    /// Stall cycles by cause.
    pub stalls: StallBreakdown,
    /// Cycles inside the decompression handler (commits + stalls).
    pub handler_cycles: u64,
}

/// Derives the cycle-overhead breakdown from the folded stream.
pub fn overhead_breakdown(events: &[TraceEvent]) -> OverheadBreakdown {
    let s = fold_stats(events);
    OverheadBreakdown {
        cycles: s.cycles,
        commit_cycles: s.insns,
        stalls: s.stalls,
        handler_cycles: s.handler_cycles,
    }
}

/// The full analysis of one trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Benchmark name (from the preamble).
    pub bench: String,
    /// Scheme name (from the preamble).
    pub scheme: String,
    /// The folded statistics.
    pub stats: Stats,
    /// Miss-interval histogram.
    pub miss_intervals: MissIntervalHistogram,
    /// Per-procedure decompression cost.
    pub handler_shares: Vec<HandlerShare>,
    /// I-line working set and reuse.
    pub reuse: LineReuse,
    /// Cycle breakdown.
    pub overhead: OverheadBreakdown,
}

/// Runs every analysis over a parsed trace. `line_bytes` is the I-cache
/// line size the trace was recorded with (32 for the baseline config).
pub fn analyze(trace: &Trace, line_bytes: u32) -> TraceAnalysis {
    TraceAnalysis {
        bench: trace.bench.clone(),
        scheme: trace.scheme.clone(),
        stats: fold_stats(&trace.events),
        miss_intervals: miss_interval_histogram(&trace.events),
        handler_shares: handler_attribution(&trace.events, &trace.regions),
        reuse: line_reuse(&trace.events, line_bytes),
        overhead: overhead_breakdown(&trace.events),
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Formats the analysis as a human-readable report (what `tracestat`
/// prints).
pub fn report(a: &TraceAnalysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let s = &a.stats;
    let _ = writeln!(out, "trace: bench={} scheme={}", a.bench, a.scheme);
    let _ = writeln!(
        out,
        "  insns {} (program {}, handler {})  cycles {}  CPI {:.3}",
        s.insns,
        s.program_insns,
        s.handler_insns,
        s.cycles,
        if s.insns == 0 {
            0.0
        } else {
            s.cycles as f64 / s.insns as f64
        }
    );
    let _ = writeln!(
        out,
        "  imisses {} (native {}, compressed {})  exceptions {}  swics {}",
        s.imisses, s.imisses_native, s.imisses_compressed, s.exceptions, s.swics
    );

    let o = &a.overhead;
    let _ = writeln!(out, "cycle breakdown:");
    let _ = writeln!(
        out,
        "  commit {:>12}  {:5.1}%",
        o.commit_cycles,
        pct(o.commit_cycles, o.cycles)
    );
    for cause in StallCause::ALL {
        let (name, cyc) = (cause.name(), o.stalls.get(cause));
        if cyc > 0 {
            let _ = writeln!(out, "  {name:<9} {cyc:>11}  {:5.1}%", pct(cyc, o.cycles));
        }
    }
    let _ = writeln!(
        out,
        "  handler share: {:.1}% of cycles",
        pct(o.handler_cycles, o.cycles)
    );

    let _ = writeln!(
        out,
        "line reuse: {} distinct lines, {} fills ({} refilled), {:.1} fetches/fill",
        a.reuse.distinct_lines, a.reuse.fills, a.reuse.refilled_lines, a.reuse.fetches_per_fill
    );

    let h = &a.miss_intervals;
    let _ = writeln!(out, "miss intervals ({} misses):", h.misses);
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            let _ = writeln!(out, "  [2^{i:<2} cycles) {n:>9}");
        }
    }
    if let Some(med) = h.median_bucket_cycles() {
        let _ = writeln!(out, "  median bucket ~{med} cycles");
    }

    if !a.handler_shares.is_empty() {
        let _ = writeln!(out, "handler cost by procedure:");
        for share in &a.handler_shares {
            let _ = writeln!(
                out,
                "  {:<20} {:>7} exc  {:>10} insns  {:>10} cycles ({:.1}% of handler)",
                share.name,
                share.exceptions,
                share.handler_insns,
                share.handler_cycles,
                pct(share.handler_cycles, o.handler_cycles)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdc_sim::trace::MissKind;

    fn ev_exc(pc: u32, insns: u64, cycles: u64) -> [TraceEvent; 2] {
        [
            TraceEvent::ExcEntry { pc, cycle: 0 },
            TraceEvent::ExcExit {
                epc: pc,
                cycle: 0,
                insns,
                cycles,
            },
        ]
    }

    #[test]
    fn handler_attribution_joins_regions() {
        let regions = vec![
            RegionDef {
                id: 0,
                name: "main".into(),
                start: 0x1000,
                end: 0x1100,
            },
            RegionDef {
                id: 1,
                name: "mix".into(),
                start: 0x1100,
                end: 0x1200,
            },
        ];
        let mut events = Vec::new();
        events.extend(ev_exc(0x1004, 75, 100));
        events.extend(ev_exc(0x1104, 75, 100));
        events.extend(ev_exc(0x1108, 75, 120));
        events.extend(ev_exc(0x9000, 75, 90)); // outside every region
        let shares = handler_attribution(&events, &regions);
        assert_eq!(shares.len(), 3);
        assert_eq!(shares[0].name, "mix");
        assert_eq!(shares[0].exceptions, 2);
        assert_eq!(shares[0].handler_cycles, 220);
        assert!(shares.iter().any(|s| s.name == "<unmapped>"));
    }

    #[test]
    fn miss_intervals_bucket_log2() {
        let miss = |cycle| TraceEvent::FetchMiss {
            pc: 0,
            cycle,
            kind: MissKind::Native,
        };
        // Gaps: 1, 2, 5, 1000 -> buckets 0, 1, 2, 9.
        let h = miss_interval_histogram(&[miss(0), miss(1), miss(3), miss(8), miss(1008)]);
        assert_eq!(h.misses, 5);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[9], 1);
        // Intervals sorted: 1, 2, 5, 1000 — the upper median (5) lands
        // in bucket 2, represented by its lower bound 4.
        assert_eq!(h.median_bucket_cycles(), Some(4));
    }

    #[test]
    fn line_reuse_counts_swic_lines_once_per_exception() {
        let mut events = Vec::new();
        // One exception writing 8 words into the same 32-byte line.
        events.push(TraceEvent::ExcEntry {
            pc: 0x2000,
            cycle: 0,
        });
        for w in 0..8 {
            events.push(TraceEvent::Swic {
                addr: 0x2000 + 4 * w,
                pc: 0x0ff0_0000,
                evicted: false,
            });
        }
        events.push(TraceEvent::ExcExit {
            epc: 0x2000,
            cycle: 0,
            insns: 75,
            cycles: 100,
        });
        for w in 0..8 {
            events.push(TraceEvent::Fetch { pc: 0x2000 + 4 * w });
        }
        let r = line_reuse(&events, 32);
        assert_eq!(r.fills, 1);
        assert_eq!(r.fetches, 8);
        assert_eq!(r.distinct_lines, 1);
        assert_eq!(r.refilled_lines, 0);
        assert!((r.fetches_per_fill - 8.0).abs() < 1e-9);
    }

    #[test]
    fn parse_trace_reads_preamble_and_events() {
        let text = "\
            {\"ev\":\"meta\",\"bench\":\"go\",\"scheme\":\"d\"}\n\
            {\"ev\":\"region_def\",\"id\":0,\"name\":\"main\",\"start\":4096,\"end\":4352}\n\
            {\"ev\":\"commit\",\"pc\":4096,\"handler\":false}\n";
        let t = parse_trace(text.as_bytes()).unwrap();
        assert_eq!(t.bench, "go");
        assert_eq!(t.scheme, "d");
        assert_eq!(t.regions.len(), 1);
        assert_eq!(t.events.len(), 1);
        let bad = parse_trace("{\"ev\":\"nope\"}\n".as_bytes());
        assert!(bad.unwrap_err().starts_with("line 1"));
    }
}
