//! Table 3 — "Slowdown compared to native code".
//!
//! Five full simulations per benchmark: native, dictionary (D), dictionary
//! with second register file (D+RF), CodePack (CP), and CodePack with
//! second register file (CP+RF), all fully compressed. Every compressed
//! run is checked for architectural equivalence against the native run.
//!
//! Benchmarks fan out across worker threads (`--jobs N` / `RTDC_JOBS`,
//! default: available parallelism); rows print in benchmark order, so the
//! output is byte-identical for any job count.

use std::fmt::Write as _;

use rtdc::prelude::Scheme;
use rtdc_bench::experiments::{paper_slowdown, table3_rows};
use rtdc_bench::jobs::jobs_from_env;
use rtdc_sim::SimConfig;
use rtdc_workloads::all_benchmarks;

fn main() {
    let jobs = jobs_from_env();
    let cfg = SimConfig::hpca2000_baseline();
    println!("== Table 3: Slowdown compared to native code ==");
    println!("(paper values in parentheses)\n");
    let mut header = format!("{:<12} {:>14}", "benchmark", "native cycles");
    for s in Scheme::paper_schemes() {
        write!(
            header,
            " {:>15} {:>15}",
            s.label(),
            format!("{}+RF", s.label())
        )
        .expect("write to string");
    }
    println!("{header}");
    let specs = all_benchmarks();
    let rows = table3_rows(&specs, cfg, jobs);
    for (spec, r) in specs.iter().zip(&rows) {
        let p = spec.paper;
        let mut line = format!("{:<12} {:>14}", r.name, r.native_cycles);
        for s in &r.slowdowns {
            write!(
                line,
                " {:>7.2} ({:>5.2}) {:>7.2} ({:>5.2})",
                s.plain,
                paper_slowdown(&p, s.scheme, false),
                s.rf,
                paper_slowdown(&p, s.scheme, true),
            )
            .expect("write to string");
        }
        println!("{line}");
    }
    println!("\nShape checks: D <= ~3x; CP <= ~18x; CP >> D; +RF cuts dictionary overhead");
    println!("roughly in half but barely helps CodePack; loop benchmarks stay near 1.0.");
}
