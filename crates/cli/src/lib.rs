//! Shared plumbing for the `rtdc-*` command-line tools.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// Minimal `--flag value` argument scanner (the tools have few options;
/// a full parser dependency is not warranted).
#[derive(Debug)]
pub struct Args {
    args: Vec<String>,
}

impl Args {
    /// Captures the process arguments (excluding the program name).
    pub fn from_env() -> Args {
        Args {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit list (tests).
    pub fn from_vec(args: Vec<String>) -> Args {
        Args { args }
    }

    /// The value following `--name`, if present.
    pub fn opt(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.args
            .windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
    }

    /// Whether the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.args.contains(&flag)
    }

    /// Positional arguments (everything not part of a `--flag value` pair
    /// or a bare `--flag`).
    pub fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for (i, a) in self.args.iter().enumerate() {
            if skip {
                skip = false;
                continue;
            }
            if let Some(stripped) = a.strip_prefix("--") {
                // A flag with a value unless it's the last token or the
                // next token is itself a flag.
                let _ = stripped;
                if i + 1 < self.args.len() && !self.args[i + 1].starts_with("--") {
                    skip = true;
                }
                continue;
            }
            out.push(a.as_str());
        }
        out
    }
}

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
    let _ = writeln!(
        s,
        "  imiss {} / dmiss {} / branch {} / regjump {} / loaduse {} / hilo {} / swic {} / exception {}",
        b.imiss, b.dmiss, b.branch, b.reg_jump, b.load_use, b.hilo, b.swic, b.exception
    );
    s
}

/// Formats the engine part of `rtdc-run`'s stderr sim-MIPS line: ops
/// per program-block and per handler-trace dispatch, and the share of
/// dispatches that single-stepped, by reason. Empty for a single-stepped
/// run, which has no dispatches to describe.
pub fn format_engine(e: &rtdc_sim::EngineCounters) -> String {
    if e.dispatches() == 0 {
        return String::new();
    }
    let pct = |n: u64| 100.0 * e.share(n);
    format!(
        "; {:.2} ops/block, {:.2} ops/trace; fallbacks {:.1}% (first sighting {:.1}%, \
         no block {:.1}%, not resident {:.1}%, budget {:.1}%)",
        e.ops_per_block(),
        e.ops_per_trace(),
        pct(e.fallbacks()),
        pct(e.fallback_first_sighting),
        pct(e.fallback_no_block),
        pct(e.fallback_not_resident),
        pct(e.fallback_budget),
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
    let b = stats.stalls;
    for (name, cyc) in [
        ("imiss", b.imiss),
        ("dmiss", b.dmiss),
        ("branch", b.branch),
        ("regjump", b.reg_jump),
        ("loaduse", b.load_use),
        ("hilo", b.hilo),
        ("swic", b.swic),
        ("exception", b.exception),
    ] {
        if cyc > 0 {
            let _ = writeln!(s, "  stall {name:<9} {:>8.2}% ({cyc} cycles)", share(cyc));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::from_vec(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn opt_and_has() {
        let a = args(&["--bench", "cc1", "--verbose", "file.s"]);
        assert_eq!(a.opt("bench"), Some("cc1"));
        assert!(a.has("verbose"));
        assert_eq!(a.opt("missing"), None);
        assert!(!a.has("missing"));
    }

    #[test]
    fn positionals_skip_flag_values() {
        let a = args(&["in.s", "--out", "out.bin", "extra"]);
        assert_eq!(a.positional(), vec!["in.s", "extra"]);
    }

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
}
