//! §5.2 comparison — cache-line decompression vs Kirovski-style
//! procedure-granularity decompression.
//!
//! The paper: "They report slowdowns that range from marginal to over 100
//! times slower (for cc1 and go) than the original programs for 1KB to
//! 64KB caches. Both our dictionary and CodePack programs show much more
//! stability in performance over this range of cache sizes. However, the
//! LZRW1 compression sometimes attains better compression ratios."
//!
//! Here both schemes run on the same benchmarks: the procedure-cache
//! model replays each benchmark's real call trace over 1KB–64KB procedure
//! caches, and the cache-line schemes run in full simulation over the
//! same I-cache range (Figure 4's data).

use std::fmt::Write as _;

use rtdc::prelude::*;
use rtdc::proccache::{self, ProcCacheModel};
use rtdc_bench::experiments::{build_and_run, MAX_INSNS};
use rtdc_sim::SimConfig;
use rtdc_workloads::{all_benchmarks, generate_cached};

fn main() {
    println!("== §5.2: procedure-cache (Kirovski/LZRW1) vs cache-line decompression ==\n");
    let sizes_kb = [1u32, 4, 16, 64];

    let paper: Vec<Scheme> = Scheme::paper_schemes().collect();
    let mut header = format!(
        "{:<12} {:>9} | {:>8} {:>8} {:>8} {:>8} |",
        "benchmark", "lzrw1/pp", "pc 1K", "pc 4K", "pc 16K", "pc 64K"
    );
    for s in &paper {
        write!(header, " {:>9}", format!("{} 4-64K", s.label())).expect("write to string");
    }
    println!("{header}");
    for spec in all_benchmarks() {
        let program = generate_cached(&spec);
        let cfg = SimConfig::hpca2000_baseline();
        let (native, profile) = profile_native(&program, cfg, MAX_INSNS).expect("profile");
        let trace = &profile.entry_trace;

        // Procedure-cache slowdowns across the paper's 1KB-64KB range.
        let mut pc_cols = Vec::new();
        for &kb in &sizes_kb {
            let model = ProcCacheModel::with_cache(kb * 1024);
            match proccache::evaluate(&program, trace, &model) {
                Ok(out) => pc_cols.push(format!("{:.2}x", out.slowdown(native.stats.cycles))),
                Err(_) => pc_cols.push("n/a*".into()),
            }
        }

        // Cache-line schemes: min..max slowdown over 4KB..64KB I-caches
        // (from full simulation) — the "stability" side of the claim.
        let span = |scheme: Scheme| -> String {
            let mut lo = f64::INFINITY;
            let mut hi = 0.0f64;
            for kb in [4u32, 16, 64] {
                let c = SimConfig::hpca2000_baseline().with_icache_size(kb * 1024);
                let (_, nat) = build_and_run(&spec, &ImageSpec::Native, c, run_image);
                let uniform = ImageSpec::Uniform { scheme, rf: false };
                let (_, run) = build_and_run(&spec, &uniform, c, run_image);
                let s = run.stats.cycles as f64 / nat.stats.cycles as f64;
                lo = lo.min(s);
                hi = hi.max(s);
            }
            format!("{lo:.1}-{hi:.1}")
        };

        let mut line = format!(
            "{:<12} {:>8.1}% | {:>8} {:>8} {:>8} {:>8} |",
            spec.name,
            100.0 * proccache::per_procedure_lzrw1_ratio(&program),
            pc_cols[0],
            pc_cols[1],
            pc_cols[2],
            pc_cols[3],
        );
        for s in &paper {
            write!(line, " {:>9}", span(*s)).expect("write to string");
        }
        println!("{line}");
    }
    println!("\n* n/a: a called procedure exceeds the procedure cache (Kirovski");
    println!("  requirement 1 — the design cannot run at that size at all).");
    println!("\nShape checks: procedure-cache slowdowns swing from marginal (loop");
    println!("benchmarks, large caches) to tens-of-x or outright infeasible (call-");
    println!("heavy benchmarks, small caches), while each cache-line scheme's span");
    println!("stays comparatively narrow — the paper's stability claim. The");
    println!("per-procedure LZRW1 column sits far above Table 2's whole-text LZRW1,");
    println!("confirming the paper's framing of whole-text as the LOWER BOUND for");
    println!("procedure-based compression (small units lose shared history).");
}
