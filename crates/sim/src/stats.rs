//! Simulation statistics.

use crate::trace::{MissKind, StallCause, TraceEvent};

/// Counters accumulated over a simulation.
///
/// "Program" counters exclude instructions executed inside the cache-miss
/// exception handler, matching the paper's reporting (dynamic instruction
/// counts and miss ratios are properties of the benchmark, while handler
/// work shows up only in total cycles).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Total committed instructions (program + handler).
    pub insns: u64,
    /// Committed instructions outside the exception handler.
    pub program_insns: u64,
    /// Committed instructions inside the exception handler.
    pub handler_insns: u64,
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Program instruction fetches that went through the I-cache.
    pub ifetches: u64,
    /// Program I-cache misses (all non-speculative; see DESIGN.md).
    pub imisses: u64,
    /// I-misses serviced by the hardware cache controller (native region).
    pub imisses_native: u64,
    /// I-misses that raised the decompression exception (compressed region).
    pub imisses_compressed: u64,
    /// Data-cache accesses (loads + stores, program + handler).
    pub daccesses: u64,
    /// Data-cache misses.
    pub dmisses: u64,
    /// Dirty D-cache lines written back.
    pub writebacks: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,
    /// Register jumps (`jr`/`jalr`) executed.
    pub reg_jumps: u64,
    /// Register jumps whose target the RAS did not predict.
    pub reg_jump_misses: u64,
    /// Decompression exceptions taken.
    pub exceptions: u64,
    /// `swic` instructions executed.
    pub swics: u64,
    /// Cycles spent inside the exception handler (entry to `iret`,
    /// inclusive of its memory stalls).
    pub handler_cycles: u64,
    /// Stall-cycle attribution by cause.
    pub stalls: StallBreakdown,
}

/// Where the non-base cycles went. `sum() + insns == cycles` holds by
/// construction (each committed instruction costs one base cycle; every
/// other cycle is attributed to exactly one cause).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Hardware I-cache line fills (native region misses).
    pub imiss: u64,
    /// D-cache line fills and dirty writebacks.
    pub dmiss: u64,
    /// Conditional-branch mispredict bubbles.
    pub branch: u64,
    /// Register-jump (`jr`/`jalr`) redirect bubbles.
    pub reg_jump: u64,
    /// Load-use interlock bubbles.
    pub load_use: u64,
    /// `mfhi`/`mflo` waiting on multiply/divide.
    pub hilo: u64,
    /// `swic` pipeline drains.
    pub swic: u64,
    /// Exception entry and `iret` return flushes.
    pub exception: u64,
}

impl StallBreakdown {
    /// Total attributed stall cycles.
    pub fn sum(&self) -> u64 {
        StallCause::ALL.into_iter().map(|c| self.get(c)).sum()
    }

    /// The cycles charged to `cause` (read through a copy, so the one
    /// field map serves both readers and writers).
    pub fn get(&self, cause: StallCause) -> u64 {
        let mut copy = *self;
        *copy.bucket(cause)
    }

    /// Charges `cycles` to the bucket of `cause`.
    pub fn add(&mut self, cause: StallCause, cycles: u64) {
        *self.bucket(cause) += cycles;
    }

    /// The field of `cause`: the one place a [`StallCause`] maps to its
    /// field. Always inlined: `add` runs at every simulated stall, and
    /// left to the compiler the call cost ≈3% of suite throughput.
    #[inline(always)]
    fn bucket(&mut self, cause: StallCause) -> &mut u64 {
        match cause {
            StallCause::IMiss => &mut self.imiss,
            StallCause::DMiss => &mut self.dmiss,
            StallCause::Branch => &mut self.branch,
            StallCause::RegJump => &mut self.reg_jump,
            StallCause::LoadUse => &mut self.load_use,
            StallCause::Hilo => &mut self.hilo,
            StallCause::Swic => &mut self.swic,
            StallCause::Exception => &mut self.exception,
        }
    }
}

impl Stats {
    /// Folds one trace event into the counters it carries. Applying a
    /// machine's whole, unfiltered event stream to `Stats::default()`
    /// reconstructs its `Stats` exactly (the folding contract).
    pub fn apply(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Fetch { .. } => self.ifetches += 1,
            TraceEvent::FetchMiss { kind, .. } => {
                self.imisses += 1;
                match kind {
                    MissKind::Native => self.imisses_native += 1,
                    MissKind::Compressed => self.imisses_compressed += 1,
                }
            }
            TraceEvent::DAccess { hit, .. } => {
                self.daccesses += 1;
                if !hit {
                    self.dmisses += 1;
                }
            }
            TraceEvent::DFill { dirty, .. } => {
                if dirty {
                    self.writebacks += 1;
                }
            }
            TraceEvent::ExcEntry { .. } => self.exceptions += 1,
            TraceEvent::Swic { .. } => self.swics += 1,
            TraceEvent::Branch { mispredict, .. } => {
                self.branches += 1;
                if mispredict {
                    self.mispredicts += 1;
                }
            }
            TraceEvent::RegJump { ras_miss, .. } => {
                self.reg_jumps += 1;
                if ras_miss {
                    self.reg_jump_misses += 1;
                }
            }
            TraceEvent::Stall {
                cause,
                cycles,
                handler,
            } => {
                self.stalls.add(cause, cycles);
                self.cycles += cycles;
                if handler {
                    self.handler_cycles += cycles;
                }
            }
            TraceEvent::Commit { handler, .. } => {
                self.insns += 1;
                self.cycles += 1;
                if handler {
                    self.handler_insns += 1;
                    self.handler_cycles += 1;
                } else {
                    self.program_insns += 1;
                }
            }
            TraceEvent::IFill { .. }
            | TraceEvent::ExcExit { .. }
            | TraceEvent::RegionEntry { .. } => {}
        }
    }

    /// Program I-cache miss ratio (the paper's Table 2 metric).
    pub fn imiss_ratio(&self) -> f64 {
        if self.ifetches == 0 {
            0.0
        } else {
            self.imisses as f64 / self.ifetches as f64
        }
    }

    /// D-cache miss ratio.
    pub fn dmiss_ratio(&self) -> f64 {
        if self.daccesses == 0 {
            0.0
        } else {
            self.dmisses as f64 / self.daccesses as f64
        }
    }

    /// Conditional-branch misprediction ratio.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Cycles per committed program instruction.
    pub fn cpi(&self) -> f64 {
        if self.program_insns == 0 {
            0.0
        } else {
            self.cycles as f64 / self.program_insns as f64
        }
    }

    /// Average handler instructions per decompression exception.
    pub fn handler_insns_per_exception(&self) -> f64 {
        if self.exceptions == 0 {
            0.0
        } else {
            self.handler_insns as f64 / self.exceptions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = Stats::default();
        assert_eq!(s.imiss_ratio(), 0.0);
        assert_eq!(s.dmiss_ratio(), 0.0);
        assert_eq!(s.mispredict_ratio(), 0.0);
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.handler_insns_per_exception(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = Stats {
            ifetches: 200,
            imisses: 3,
            program_insns: 100,
            cycles: 150,
            exceptions: 2,
            handler_insns: 150,
            ..Stats::default()
        };
        assert!((s.imiss_ratio() - 0.015).abs() < 1e-12);
        assert!((s.cpi() - 1.5).abs() < 1e-12);
        assert!((s.handler_insns_per_exception() - 75.0).abs() < 1e-12);
    }
}
