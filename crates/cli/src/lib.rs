//! Shared plumbing for the `rtdc-*` command-line tools.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use rtdc_sim::trace::StallCause;

/// Formats a stats block for human consumption.
pub fn format_stats(stats: &rtdc_sim::Stats) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "instructions    {:>14} (program {}, handler {})",
        stats.insns, stats.program_insns, stats.handler_insns
    );
    let _ = writeln!(
        s,
        "cycles          {:>14} (CPI {:.3})",
        stats.cycles,
        stats.cpi()
    );
    let _ = writeln!(
        s,
        "I-cache         {:>14} fetches, {} misses ({:.3}%)",
        stats.ifetches,
        stats.imisses,
        100.0 * stats.imiss_ratio()
    );
    let _ = writeln!(
        s,
        "D-cache         {:>14} accesses, {} misses ({:.3}%), {} writebacks",
        stats.daccesses,
        stats.dmisses,
        100.0 * stats.dmiss_ratio(),
        stats.writebacks
    );
    let _ = writeln!(
        s,
        "branches        {:>14}, {} mispredicted ({:.2}%)",
        stats.branches,
        stats.mispredicts,
        100.0 * stats.mispredict_ratio()
    );
    let _ = writeln!(
        s,
        "reg jumps       {:>14}, {} RAS misses",
        stats.reg_jumps, stats.reg_jump_misses
    );
    if stats.exceptions > 0 {
        let _ = writeln!(
            s,
            "decompression   {:>14} exceptions, {} swics, {:.1} handler insns/miss",
            stats.exceptions,
            stats.swics,
            stats.handler_insns_per_exception()
        );
    }
    let b = stats.stalls;
    let _ = writeln!(s, "stall cycles    {:>14} total", b.sum());
    let causes = StallCause::ALL.map(|c| format!("{} {}", c.name(), b.get(c)));
    let _ = writeln!(s, "  {}", causes.join(" / "));
    s
}

/// Formats the engine part of `rtdc-run`'s stderr sim-MIPS line: ops
/// per program-block and per handler-trace dispatch, the side-exit share
/// of trace dispatches, the share of dispatches that single-stepped, by
/// reason, and the block-table conflicts and generation invalidations.
/// Empty for a single-stepped run, which has no dispatches to describe.
pub fn format_engine(e: &rtdc_sim::EngineCounters) -> String {
    if e.dispatches() == 0 {
        return String::new();
    }
    let pct = |n: u64| 100.0 * e.share(n);
    format!(
        "; {:.2} ops/block, {:.2} ops/trace, side exits {:.1}% of traces; fallbacks {:.1}% \
         (first sighting {:.1}%, no block {:.1}%, not resident {:.1}%, budget {:.1}%, \
         recording {:.1}%); {} conflicts, {} invalidations",
        e.ops_per_block(),
        e.ops_per_trace(),
        100.0 * e.side_exit_share(),
        pct(e.fallbacks()),
        pct(e.fallback_first_sighting),
        pct(e.fallback_no_block),
        pct(e.fallback_not_resident),
        pct(e.fallback_budget),
        pct(e.fallback_record),
        e.block_conflicts,
        e.invalidations,
    )
}

/// Formats the derived metrics block printed by `rtdc-run --metrics`:
/// where the cycles went (per stall cause and in the handler) and the
/// exception rate, all derived from [`rtdc_sim::Stats`] alone.
pub fn format_metrics(stats: &rtdc_sim::Stats) -> String {
    let mut s = String::new();
    let cycles = stats.cycles.max(1) as f64;
    let share = |n: u64| 100.0 * n as f64 / cycles;
    let _ = writeln!(s, "metrics:");
    let _ = writeln!(
        s,
        "  handler share   {:>10.2}% of cycles ({} of {})",
        share(stats.handler_cycles),
        stats.handler_cycles,
        stats.cycles
    );
    let _ = writeln!(
        s,
        "  exceptions      {:>10.3} per K-insn",
        1000.0 * stats.exceptions as f64 / stats.insns.max(1) as f64
    );
    let _ = writeln!(
        s,
        "  commit cycles   {:>10.2}% (CPI {:.3})",
        share(stats.insns),
        stats.cpi()
    );
    for cause in StallCause::ALL {
        let (name, cyc) = (cause.name(), stats.stalls.get(cause));
        if cyc > 0 {
            let _ = writeln!(s, "  stall {name:<9} {:>8.2}% ({cyc} cycles)", share(cyc));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_format_is_nonempty() {
        let s = format_stats(&rtdc_sim::Stats::default());
        assert!(s.contains("instructions"));
        assert!(s.contains("stall cycles"));
    }

    #[test]
    fn metrics_format_reports_shares() {
        let mut stats = rtdc_sim::Stats {
            insns: 60,
            cycles: 100,
            handler_cycles: 25,
            exceptions: 3,
            ..Default::default()
        };
        stats.stalls.imiss = 40;
        let s = format_metrics(&stats);
        assert!(s.contains("handler share"), "{s}");
        assert!(s.contains("25.00%"), "{s}");
        assert!(s.contains("stall imiss"), "{s}");
        assert!(s.contains("50.000 per K-insn"), "{s}");
    }

    #[test]
    fn engine_format_reports_side_exits_recording_and_table_events() {
        assert_eq!(format_engine(&rtdc_sim::EngineCounters::default()), "");
        let e = rtdc_sim::EngineCounters {
            trace_dispatches: 8,
            trace_ops: 160,
            side_exits: 2,
            block_conflicts: 5,
            invalidations: 7,
            fallback_record: 2,
            fallback_insns: 2,
            ..Default::default()
        };
        let s = format_engine(&e);
        assert!(s.contains("20.00 ops/trace"), "{s}");
        assert!(s.contains("side exits 25.0% of traces"), "{s}");
        assert!(s.contains("recording 20.0%"), "{s}");
        assert!(s.contains("5 conflicts, 7 invalidations"), "{s}");
    }
}
