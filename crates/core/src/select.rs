//! Selective compression (paper §3.3): choosing which procedures stay
//! native.
//!
//! Two strategies are implemented, exactly as evaluated in the paper:
//!
//! * **execution-based** — procedures are sorted by dynamic instruction
//!   count and selected (kept native) until they account for a target
//!   fraction of all executed instructions. This is what MIPS16/Thumb
//!   toolchains do.
//! * **miss-based** — procedures are sorted by *non-speculative I-cache
//!   miss* count instead. Since a cache-line decompressor only pays on the
//!   miss path, this models the real overhead; the paper shows it winning
//!   for loop-oriented programs.

use std::collections::BTreeSet;

/// Per-procedure profile: dynamic instruction and I-miss counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcedureProfile {
    /// Procedure names, by proc id.
    pub names: Vec<String>,
    /// Committed dynamic instructions per procedure.
    pub exec: Vec<u64>,
    /// Non-speculative I-cache misses per procedure.
    pub miss: Vec<u64>,
    /// Dynamic procedure-entry (call) sequence, for procedure-granularity
    /// models ([`crate::proccache`]).
    pub entry_trace: Vec<u32>,
    /// Whether `entry_trace` hit the profiler's cap and dropped entries
    /// ([`rtdc_sim::RegionProfiler::ENTRY_TRACE_CAP`]). `exec`/`miss`
    /// counts are always complete; only the trace saturates.
    pub entry_trace_truncated: bool,
}

impl ProcedureProfile {
    /// Number of procedures.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Which profile metric drives selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectBy {
    /// Dynamic instruction counts ("exec" curves in Figure 5).
    Execution,
    /// I-cache miss counts ("miss" curves in Figure 5).
    Miss,
}

impl std::fmt::Display for SelectBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SelectBy::Execution => "exec",
            SelectBy::Miss => "miss",
        })
    }
}

/// The set of procedures kept as native code; everything else is
/// compressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    native: BTreeSet<usize>,
    n_procs: usize,
}

impl Selection {
    /// Fully-compressed program (the left end of Figure 5's curves).
    pub fn all_compressed(n_procs: usize) -> Selection {
        Selection {
            native: BTreeSet::new(),
            n_procs,
        }
    }

    /// Fully-native program (the right end of Figure 5's curves).
    pub fn all_native(n_procs: usize) -> Selection {
        Selection {
            native: (0..n_procs).collect(),
            n_procs,
        }
    }

    /// Builds a selection from an explicit native set.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn from_native_set(native: BTreeSet<usize>, n_procs: usize) -> Selection {
        assert!(native.iter().all(|&i| i < n_procs), "proc id out of range");
        Selection { native, n_procs }
    }

    /// The paper's selection algorithm (§3.3): sort procedures by the
    /// chosen metric, then select the top ones as native code until the
    /// selected procedures account for at least `fraction` of the metric's
    /// total (the paper uses 5%, 10%, 15%, 20% and 50%).
    ///
    /// Procedures with a zero count are never selected, and a zero total
    /// yields a fully-compressed program.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `0.0..=1.0`.
    pub fn by_profile(profile: &ProcedureProfile, by: SelectBy, fraction: f64) -> Selection {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let counts = match by {
            SelectBy::Execution => &profile.exec,
            SelectBy::Miss => &profile.miss,
        };
        let total: u64 = counts.iter().sum();
        let mut native = BTreeSet::new();
        if total == 0 {
            return Selection {
                native,
                n_procs: profile.len(),
            };
        }
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
        let target = fraction * total as f64;
        let mut cum = 0u64;
        for id in order {
            if cum as f64 >= target || counts[id] == 0 {
                break;
            }
            native.insert(id);
            cum += counts[id];
        }
        Selection {
            native,
            n_procs: profile.len(),
        }
    }

    /// Is procedure `id` kept native?
    pub fn is_native(&self, id: usize) -> bool {
        self.native.contains(&id)
    }

    /// Iterates native proc ids in original (link) order.
    pub fn native_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.native.iter().copied()
    }

    /// Number of native procedures.
    pub fn native_count(&self) -> usize {
        self.native.len()
    }

    /// Total number of procedures.
    pub fn proc_count(&self) -> usize {
        self.n_procs
    }
}

/// A profile-driven within-region procedure order: hottest first.
///
/// The paper observes (§5.3) that splitting procedures into regions
/// changes procedure placement and therefore conflict misses, sometimes
/// overwhelming selective compression's benefit, and names a "unified
/// selective compression and code placement framework" as future work.
/// This is the simplest such placement: lay each region out by descending
/// profile count (in the spirit of Pettis-Hansen), so the hot procedures
/// of a region pack together instead of landing at profile-oblivious
/// offsets. Use with
/// [`CompressionPlan::from_order`](crate::plan::CompressionPlan::from_order).
pub fn placement_hot_first(profile: &ProcedureProfile, by: SelectBy) -> Vec<usize> {
    let counts = match by {
        SelectBy::Execution => &profile.exec,
        SelectBy::Miss => &profile.miss,
    };
    let mut order: Vec<usize> = (0..profile.len()).collect();
    order.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ProcedureProfile {
        ProcedureProfile {
            names: (0..5).map(|i| format!("p{i}")).collect(),
            exec: vec![100, 400, 50, 250, 200], // total 1000
            miss: vec![10, 0, 80, 5, 5],        // total 100
            entry_trace: Vec::new(),
            entry_trace_truncated: false,
        }
    }

    #[test]
    fn exec_selection_takes_hottest_until_threshold() {
        let s = Selection::by_profile(&profile(), SelectBy::Execution, 0.40);
        // p1 (400) alone reaches 40%.
        assert_eq!(s.native_count(), 1);
        assert!(s.is_native(1));
    }

    #[test]
    fn exec_selection_accumulates_across_procs() {
        let s = Selection::by_profile(&profile(), SelectBy::Execution, 0.60);
        // p1 (400) < 600, + p3 (250) = 650 >= 600.
        assert!(s.is_native(1) && s.is_native(3));
        assert_eq!(s.native_count(), 2);
    }

    #[test]
    fn miss_selection_orders_by_misses() {
        let s = Selection::by_profile(&profile(), SelectBy::Miss, 0.50);
        // p2 (80 misses) alone reaches 50% of 100.
        assert_eq!(s.native_count(), 1);
        assert!(s.is_native(2));
    }

    #[test]
    fn divergence_between_strategies() {
        // The loop-oriented case from the paper: the hottest-executing
        // procedure (p1) never misses, so miss-based selection compresses it.
        let exec = Selection::by_profile(&profile(), SelectBy::Execution, 0.30);
        let miss = Selection::by_profile(&profile(), SelectBy::Miss, 0.30);
        assert!(exec.is_native(1));
        assert!(!miss.is_native(1));
    }

    #[test]
    fn zero_fraction_compresses_everything() {
        let s = Selection::by_profile(&profile(), SelectBy::Execution, 0.0);
        assert_eq!(s.native_count(), 0);
    }

    #[test]
    fn full_fraction_selects_every_nonzero_proc() {
        let s = Selection::by_profile(&profile(), SelectBy::Miss, 1.0);
        // p1 has zero misses and must stay compressed.
        assert_eq!(s.native_count(), 4);
        assert!(!s.is_native(1));
    }

    #[test]
    fn zero_total_yields_all_compressed() {
        let p = ProcedureProfile {
            names: vec!["a".into()],
            exec: vec![0],
            miss: vec![0],
            entry_trace: Vec::new(),
            entry_trace_truncated: false,
        };
        let s = Selection::by_profile(&p, SelectBy::Miss, 0.5);
        assert_eq!(s.native_count(), 0);
    }

    #[test]
    fn endpoints() {
        let all_c = Selection::all_compressed(3);
        assert_eq!(all_c.native_count(), 0);
        let all_n = Selection::all_native(3);
        assert_eq!(all_n.native_count(), 3);
        assert!(all_n.is_native(2));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_rejected() {
        let _ = Selection::by_profile(&profile(), SelectBy::Execution, 1.5);
    }

    #[test]
    fn hot_first_order_is_a_permutation_sorted_by_metric() {
        let p = profile();
        let order = placement_hot_first(&p, SelectBy::Execution);
        assert_eq!(order, vec![1, 3, 4, 0, 2]); // exec: 400,250,200,100,50
        let order = placement_hot_first(&p, SelectBy::Miss);
        assert_eq!(order, vec![2, 0, 3, 4, 1]); // miss: 80,10,5,5,0
    }

    #[test]
    fn empty_profile_selects_and_orders_nothing() {
        let p = ProcedureProfile {
            names: Vec::new(),
            exec: Vec::new(),
            miss: Vec::new(),
            entry_trace: Vec::new(),
            entry_trace_truncated: false,
        };
        for by in [SelectBy::Execution, SelectBy::Miss] {
            let s = Selection::by_profile(&p, by, 0.5);
            assert_eq!(s.native_count(), 0);
            assert_eq!(s.proc_count(), 0);
            assert_eq!(placement_hot_first(&p, by), Vec::<usize>::new());
        }
    }

    #[test]
    fn fraction_endpoints_on_every_metric() {
        let p = profile();
        for by in [SelectBy::Execution, SelectBy::Miss] {
            // 0.0: the target is met before anything is selected.
            assert_eq!(Selection::by_profile(&p, by, 0.0).native_count(), 0);
            // 1.0: everything with a nonzero count, nothing with zero.
            let full = Selection::by_profile(&p, by, 1.0);
            let counts = match by {
                SelectBy::Execution => &p.exec,
                SelectBy::Miss => &p.miss,
            };
            for (id, &c) in counts.iter().enumerate() {
                assert_eq!(full.is_native(id), c > 0, "{by} id {id}");
            }
        }
    }

    #[test]
    fn tied_weights_break_deterministically_by_id() {
        // p3 and p4 tie on misses (5 each): lower id always sorts first,
        // for both selection and placement — the tie-break the optimizer's
        // reproducibility contract relies on.
        let p = profile();
        let order = placement_hot_first(&p, SelectBy::Miss);
        let pos3 = order.iter().position(|&i| i == 3).unwrap();
        let pos4 = order.iter().position(|&i| i == 4).unwrap();
        assert!(pos3 < pos4, "tied procs must order by ascending id");

        // All-tied profile: placement degenerates to the identity order
        // and selection takes a prefix of it.
        let tied = ProcedureProfile {
            names: (0..4).map(|i| format!("t{i}")).collect(),
            exec: vec![10, 10, 10, 10],
            miss: vec![10, 10, 10, 10],
            entry_trace: Vec::new(),
            entry_trace_truncated: false,
        };
        assert_eq!(
            placement_hot_first(&tied, SelectBy::Execution),
            vec![0, 1, 2, 3]
        );
        let half = Selection::by_profile(&tied, SelectBy::Execution, 0.5);
        assert!(half.is_native(0) && half.is_native(1));
        assert!(!half.is_native(2) && !half.is_native(3));
    }

    #[test]
    fn single_procedure_program() {
        let p = ProcedureProfile {
            names: vec!["only".into()],
            exec: vec![42],
            miss: vec![7],
            entry_trace: Vec::new(),
            entry_trace_truncated: false,
        };
        for by in [SelectBy::Execution, SelectBy::Miss] {
            assert_eq!(Selection::by_profile(&p, by, 0.0).native_count(), 0);
            let s = Selection::by_profile(&p, by, 1.0);
            assert_eq!(s.native_count(), 1);
            assert!(s.is_native(0));
            assert_eq!(placement_hot_first(&p, by), vec![0]);
        }
        // Any nonzero fraction selects the only (nonzero-count) procedure.
        assert_eq!(
            Selection::by_profile(&p, SelectBy::Miss, 0.01).native_count(),
            1
        );
    }
}
