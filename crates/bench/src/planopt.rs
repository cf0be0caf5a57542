//! Closed-loop trace-guided compression-plan optimization.
//!
//! The loop implements the feedback cycle the paper's selective
//! compression (§3.3) approximates with one profile pass: **run traced →
//! analyze → emit the next plan → rebuild → re-run**, until the plan
//! stops changing.
//!
//! Each iteration builds the current [`CompressionPlan`], runs it with a
//! [`PlanSink`] attached (compressed-region misses and exception
//! entry/exit pairs only — the full event firehose would dwarf the
//! image), then derives the next plan from everything observed so far:
//!
//! * **selection** — procedures whose decompression-handler share is
//!   largest *per native byte they would cost* go native, greedily,
//!   under a byte budget ([`PlanOptConfig::native_budget_bytes`]); cold
//!   procedures stay compressed. Cost estimates persist across
//!   iterations: a procedure moved native keeps its last observed
//!   handler cost, so the optimizer remembers *why* it is native instead
//!   of oscillating (a procedure with no misses looks free, would be
//!   re-compressed, would miss again, …).
//! * **layout** — compressed procedures are ordered by co-miss affinity:
//!   procedures whose misses are adjacent in the miss stream are placed
//!   adjacently, clustering lines that miss together (the paper's §5.3
//!   placement effect, steered instead of suffered).
//!
//! Every tie anywhere breaks deterministically (by count descending,
//! then procedure id ascending), and the workload and simulator are
//! deterministic, so the whole loop is reproducible bit for bit.
//!
//! **Convergence is guaranteed, not hoped for.** Feedback alone need not
//! reach a fixed point: every new layout perturbs conflict misses a
//! little, so the marginal native/compressed decision can flip forever.
//! The loop therefore observes for a bounded number of rounds
//! ([`PlanOptConfig::observe_iters`], the profile-collection phase any
//! feedback-directed optimizer bounds), then freezes the model. From
//! that point plan derivation is a pure function of a fixed model, so
//! the very next derivation repeats itself — a fixed point within
//! `observe_iters + 2` iterations, every time, on every scheme. The
//! reported plan is the best iteration on record: fewest cycles, then
//! smallest image, then smallest serialized form, so the choice is
//! total and deterministic.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use rtdc::prelude::*;
use rtdc_isa::program::ObjectProgram;
use rtdc_sim::trace::{MissKind, RegionDef, TraceEvent, TraceSink};
use rtdc_sim::SimConfig;
use rtdc_workloads::{generate_cached, BenchmarkSpec};

use crate::analyze::handler_attribution;
use crate::experiments::MAX_INSNS;

/// A [`TraceSink`] that keeps only what the optimizer consumes:
/// compressed-region I-misses (the co-miss affinity signal) and
/// exception entry/exit pairs (the handler-attribution signal). On the
/// big walkers this is thousands of times smaller than a full trace.
#[derive(Debug, Default)]
pub struct PlanSink {
    /// Retained events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for PlanSink {
    fn event(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::FetchMiss {
                kind: MissKind::Compressed,
                ..
            }
            | TraceEvent::ExcEntry { .. }
            | TraceEvent::ExcExit { .. } => self.events.push(*ev),
            _ => {}
        }
    }
}

/// Optimizer knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptConfig {
    /// Iteration bound. With `max_iters >= observe_iters + 2` the loop
    /// always exits at a fixed point first, so this is a backstop, not
    /// the usual exit.
    pub max_iters: u32,
    /// How many iterations feed the model before it freezes. The first
    /// run (all compressed) observes every procedure's handler cost;
    /// later observation rounds refine costs and affinities under the
    /// layouts the optimizer actually proposes.
    pub observe_iters: u32,
    /// Byte budget for native procedures: the original text bytes of the
    /// procedures kept native may not exceed this. `0` forbids native
    /// procedures entirely (the optimizer then only reorders layout).
    pub native_budget_bytes: u32,
}

impl Default for PlanOptConfig {
    fn default() -> PlanOptConfig {
        PlanOptConfig {
            max_iters: 8,
            observe_iters: 3,
            native_budget_bytes: 0,
        }
    }
}

/// A native-procedure byte budget of `pct` percent of the program's
/// original text size — the same knob as the paper's selection
/// thresholds, expressed in size terms so plan and heuristic compete at
/// equal compression ratio.
pub fn budget_from_pct(program: &ObjectProgram, pct: f64) -> u32 {
    (f64::from(program.text_bytes()) * (pct / 100.0).clamp(0.0, 1.0)).round() as u32
}

/// One iteration of the loop: the plan that ran and what it measured.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// The plan this iteration built and ran.
    pub plan: CompressionPlan,
    /// Total cycles of the run.
    pub cycles: u64,
    /// Cycles spent in the decompression handler.
    pub handler_cycles: u64,
    /// Decompression exceptions taken.
    pub exceptions: u64,
    /// Compression ratio of the built image (Eq. 1).
    pub ratio: f64,
}

/// The optimizer's outcome.
#[derive(Debug, Clone)]
pub struct PlanOptResult {
    /// The winning plan (the [`IterationRecord`] at `best`).
    pub plan: CompressionPlan,
    /// Index of the winning iteration in `iterations`.
    pub best: usize,
    /// Every iteration, in order; `iterations[0]` is always the
    /// all-compressed identity-layout starting point.
    pub iterations: Vec<IterationRecord>,
    /// The loop reached a fixed point (the derived next plan equalled
    /// the current one) rather than hitting `max_iters` or a limit
    /// cycle.
    pub converged: bool,
}

/// The per-procedure decisions of a plan, as a comparison key. The
/// header is excluded on purpose: two plans differing only in their
/// `iter=` stamp are the same plan, and fixed-point detection must see
/// them as such.
fn decision_key(plan: &CompressionPlan) -> String {
    use std::fmt::Write as _;
    let mut key = String::new();
    for d in &plan.procs {
        let _ = write!(
            key,
            "{}:{};",
            if d.scheme.is_some() { "c" } else { "n" },
            d.rank
        );
    }
    key
}

/// Maps a miss pc to its procedure via regions sorted by start address.
fn proc_at(sorted_regions: &[(u32, u32, usize)], pc: u32) -> Option<usize> {
    let i = sorted_regions.partition_point(|&(start, _, _)| start <= pc);
    let &(start, end, id) = sorted_regions.get(i.checked_sub(1)?)?;
    (pc >= start && pc < end).then_some(id)
}

/// Folds one traced run into the optimizer's persistent model:
/// last-observed handler cost per procedure, accumulated compressed-miss
/// counts, and accumulated co-miss affinity between procedure pairs.
fn observe(
    image: &MemoryImage,
    events: &[TraceEvent],
    cost: &mut [u64],
    miss_count: &mut [u64],
    affinity: &mut BTreeMap<(usize, usize), u64>,
) {
    // Handler cost by procedure, through the same attribution the trace
    // tooling uses (procedure names are unique, so the join is exact).
    let defs: Vec<RegionDef> = image
        .proc_regions
        .iter()
        .map(|&(start, end, id)| RegionDef {
            id: id as u32,
            name: image.proc_names[id].clone(),
            start,
            end,
        })
        .collect();
    let name_to_id: HashMap<&str, usize> = image
        .proc_names
        .iter()
        .enumerate()
        .map(|(id, name)| (name.as_str(), id))
        .collect();
    for share in handler_attribution(events, &defs) {
        if let Some(&id) = name_to_id.get(share.name.as_str()) {
            // Overwrite, don't accumulate: this is the procedure's cost
            // under the *current* plan. Procedures currently native take
            // no exceptions, so their last compressed-era estimate
            // survives untouched — that retention is what keeps the loop
            // from oscillating.
            cost[id] = share.handler_cycles;
        }
    }

    // Compressed-miss counts and adjacent-miss affinity.
    let mut regions = image.proc_regions.clone();
    regions.sort_unstable_by_key(|&(start, _, _)| start);
    let mut last: Option<usize> = None;
    for ev in events {
        if let TraceEvent::FetchMiss { pc, .. } = *ev {
            let Some(id) = proc_at(&regions, pc) else {
                continue;
            };
            miss_count[id] += 1;
            if let Some(prev) = last {
                if prev != id {
                    let pair = (prev.min(id), prev.max(id));
                    *affinity.entry(pair).or_insert(0) += 1;
                }
            }
            last = Some(id);
        }
    }
}

/// Derives the next plan from the model. Pure and deterministic: same
/// model, same plan.
#[allow(clippy::too_many_arguments)] // the arguments *are* the model
fn derive_next(
    scheme: Scheme,
    second_rf: bool,
    iteration: u32,
    proc_bytes: &[u32],
    cost: &[u64],
    miss_count: &[u64],
    affinity: &BTreeMap<(usize, usize), u64>,
    budget: u32,
) -> CompressionPlan {
    let n = proc_bytes.len();

    // --- selection: densest handler cost per native byte first ---
    let mut candidates: Vec<usize> = (0..n).filter(|&id| cost[id] > 0).collect();
    candidates.sort_unstable_by(|&a, &b| {
        // cost[a]/bytes[a] > cost[b]/bytes[b], cross-multiplied so the
        // comparison is exact.
        let da = u128::from(cost[a]) * u128::from(proc_bytes[b]);
        let db = u128::from(cost[b]) * u128::from(proc_bytes[a]);
        db.cmp(&da).then(a.cmp(&b))
    });
    let mut native = std::collections::BTreeSet::new();
    let mut spent = 0u32;
    for id in candidates {
        if spent + proc_bytes[id] <= budget {
            spent += proc_bytes[id];
            native.insert(id);
        }
    }
    let selection = Selection::from_native_set(native, n);

    // --- layout: chain compressed procedures by co-miss affinity ---
    let mut remaining: Vec<usize> = (0..n).filter(|&id| !selection.is_native(id)).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .copied()
            .map(|id| {
                let aff = order
                    .last()
                    .map(|&prev| {
                        let pair = (prev.min(id), prev.max(id));
                        affinity.get(&pair).copied().unwrap_or(0)
                    })
                    .unwrap_or(0);
                (aff, miss_count[id], std::cmp::Reverse(id), id)
            })
            .max()
            .expect("remaining is non-empty")
            .3;
        order.push(best);
        remaining.retain(|&id| id != best);
    }
    // Native procedures keep their original link order after the
    // compressed region, as the paper's hybrid images do.
    order.extend((0..n).filter(|&id| selection.is_native(id)));

    CompressionPlan::from_order(
        scheme,
        second_rf,
        PlanSource::Trace,
        iteration,
        &selection,
        &order,
    )
    .expect("derived order is a permutation by construction")
}

/// Runs the closed loop on `program` under `scheme` and returns the best
/// plan it found, with the full iteration history.
///
/// Deterministic end to end: the simulator, the workloads, and every
/// tie-break are. Two calls with the same arguments return identical
/// results.
///
/// # Errors
///
/// A description of the failing build or run (a plan the optimizer
/// derives is valid by construction, so these only trip on programs the
/// scheme cannot represent at all).
pub fn optimize(
    program: &ObjectProgram,
    scheme: Scheme,
    second_rf: bool,
    cfg: SimConfig,
    opt: &PlanOptConfig,
) -> Result<PlanOptResult, String> {
    let n = program.procedures.len();
    if n == 0 {
        return Err("program has no procedures".into());
    }
    let proc_bytes: Vec<u32> = program.procedures.iter().map(|p| p.byte_size()).collect();

    // The persistent model (see module docs).
    let mut cost = vec![0u64; n];
    let mut miss_count = vec![0u64; n];
    let mut affinity: BTreeMap<(usize, usize), u64> = BTreeMap::new();

    // Start fully compressed with the link-order layout: one iteration
    // in, every procedure's handler cost has been observed.
    let mut plan = CompressionPlan::uniform(
        scheme,
        second_rf,
        PlanSource::Trace,
        &Selection::all_compressed(n),
    );

    let mut iterations: Vec<IterationRecord> = Vec::new();
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut converged = false;
    for iter in 1..=opt.max_iters.max(1) {
        let image = build_planned(program, &plan).map_err(|e| format!("plan build: {e}"))?;
        let image = image
            .verify_integrity()
            .map_err(|e| format!("plan run: {}", RunError::CorruptImage(e)))?;
        let (report, sink) = run_image_with_sink(&image, cfg, MAX_INSNS, PlanSink::default())
            .map_err(|e| format!("plan run: {e}"))?;
        if iter <= opt.observe_iters.max(1) {
            observe(
                &image,
                &sink.events,
                &mut cost,
                &mut miss_count,
                &mut affinity,
            );
        }
        seen.insert(decision_key(&plan));
        iterations.push(IterationRecord {
            plan: plan.clone(),
            cycles: report.stats.cycles,
            handler_cycles: report.stats.handler_cycles,
            exceptions: report.stats.exceptions,
            ratio: image.sizes.compression_ratio(),
        });

        let next = derive_next(
            scheme,
            second_rf,
            iter,
            &proc_bytes,
            &cost,
            &miss_count,
            &affinity,
            opt.native_budget_bytes,
        );
        if decision_key(&next) == decision_key(&plan) {
            converged = true;
            break;
        }
        if seen.contains(&decision_key(&next)) {
            // The sequence revisits a measured plan. With the model
            // frozen, running it again would observe nothing and derive
            // it again — that *is* the fixed point, and its record is
            // already on file. With a live model this is a limit cycle;
            // stop deterministically and let best-of-history decide.
            converged = iter >= opt.observe_iters.max(1);
            break;
        }
        plan = next;
    }

    // Fewest cycles wins; then the smaller image; then the
    // lexicographically smallest decision key, so the choice is total.
    let best = (0..iterations.len())
        .min_by(|&a, &b| {
            let (ra, rb) = (&iterations[a], &iterations[b]);
            ra.cycles
                .cmp(&rb.cycles)
                .then(ra.ratio.total_cmp(&rb.ratio))
                .then(decision_key(&ra.plan).cmp(&decision_key(&rb.plan)))
        })
        .expect("at least one iteration ran");
    Ok(PlanOptResult {
        plan: iterations[best].plan.clone(),
        best,
        iterations,
        converged,
    })
}

/// Process-global cache of optimized plans, keyed by benchmark, scheme,
/// and handler variant — the [`generate_cached`] pattern. simperf runs
/// each `+plan` cell several times and reuses the plan across repeats;
/// optimizing costs a handful of traced runs, building from a plan costs
/// one.
///
/// All callers in one process must use the same `cfg` and budget policy
/// (simperf's: [`DEFAULT_BUDGET_PCT`] of text bytes), which is why they
/// are not part of the key.
pub fn optimized_plan_cached(
    spec: &BenchmarkSpec,
    scheme: Scheme,
    second_rf: bool,
    cfg: SimConfig,
) -> Arc<CompressionPlan> {
    type Slot = Arc<OnceLock<Arc<CompressionPlan>>>;
    type Key = (&'static str, &'static str, bool);
    static CACHE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let slot: Slot = {
        let mut guard = cache.lock().expect("plan cache poisoned");
        Arc::clone(
            guard
                .entry((spec.name, scheme.name(), second_rf))
                .or_default(),
        )
    };
    Arc::clone(slot.get_or_init(|| {
        let program = generate_cached(spec);
        let opt = PlanOptConfig {
            native_budget_bytes: budget_from_pct(&program, DEFAULT_BUDGET_PCT),
            ..PlanOptConfig::default()
        };
        let result = optimize(&program, scheme, second_rf, cfg, &opt)
            .expect("registry scheme optimizes the benchmark suite");
        Arc::new(result.plan)
    }))
}

/// Native-byte budget for the cached simperf plans: 10% of original text
/// bytes, the middle of the paper's fig. 5 threshold range.
pub const DEFAULT_BUDGET_PCT: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sink_keeps_only_the_optimizer_signals() {
        let mut sink = PlanSink::default();
        let keep = [
            TraceEvent::FetchMiss {
                pc: 0x1000,
                cycle: 1,
                kind: MissKind::Compressed,
            },
            TraceEvent::ExcEntry {
                pc: 0x1000,
                cycle: 1,
            },
            TraceEvent::ExcExit {
                epc: 0x1000,
                cycle: 100,
                insns: 75,
                cycles: 99,
            },
        ];
        for ev in keep {
            sink.event(&ev);
        }
        sink.event(&TraceEvent::FetchMiss {
            pc: 0x9000,
            cycle: 2,
            kind: MissKind::Native,
        });
        sink.event(&TraceEvent::Fetch { pc: 0x1000 });
        sink.event(&TraceEvent::Commit {
            pc: 0x1000,
            handler: false,
        });
        assert_eq!(sink.events, keep);
    }

    #[test]
    fn derive_next_respects_budget_and_breaks_ties_by_id() {
        let proc_bytes = [100, 100, 100, 100];
        // Procs 1 and 2 tie on density; only one fits the budget — the
        // lower id must win.
        let cost = [0, 500, 500, 10];
        let miss_count = [0, 50, 50, 1];
        let affinity = BTreeMap::new();
        let plan = derive_next(
            Scheme::Dictionary,
            false,
            1,
            &proc_bytes,
            &cost,
            &miss_count,
            &affinity,
            100,
        );
        let sel = plan.selection();
        assert!(sel.is_native(1));
        assert_eq!(sel.native_count(), 1);
        // Zero budget keeps everything compressed.
        let plan = derive_next(
            Scheme::Dictionary,
            false,
            1,
            &proc_bytes,
            &cost,
            &miss_count,
            &affinity,
            0,
        );
        assert_eq!(plan.native_count(), 0);
    }

    #[test]
    fn derive_next_chains_by_affinity() {
        let proc_bytes = [64, 64, 64, 64];
        let cost = [0, 0, 0, 0];
        // Proc 2 misses most (chain seed); 2 co-misses with 0, 0 with 3.
        let miss_count = [40, 10, 90, 20];
        let mut affinity = BTreeMap::new();
        affinity.insert((0, 2), 30);
        affinity.insert((0, 3), 25);
        affinity.insert((1, 3), 1);
        let plan = derive_next(
            Scheme::Dictionary,
            false,
            1,
            &proc_bytes,
            &cost,
            &miss_count,
            &affinity,
            0,
        );
        assert_eq!(plan.order(), vec![2, 0, 3, 1]);
    }

    #[test]
    fn proc_at_maps_misses_to_regions() {
        let regions = [
            (0x1000, 0x1100, 5),
            (0x1100, 0x1180, 2),
            (0x2000, 0x2040, 9),
        ];
        assert_eq!(proc_at(&regions, 0x1000), Some(5));
        assert_eq!(proc_at(&regions, 0x10fc), Some(5));
        assert_eq!(proc_at(&regions, 0x1100), Some(2));
        assert_eq!(proc_at(&regions, 0x1180), None);
        assert_eq!(proc_at(&regions, 0x0fff), None);
        assert_eq!(proc_at(&regions, 0x2020), Some(9));
    }
}
