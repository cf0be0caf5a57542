//! `faultsweep` — the corruption-sweep experiment: how much of the
//! decompression pipeline's attack surface do the integrity checks cover?
//!
//! ```sh
//! faultsweep                         # sort, 40 faults/scheme, seed 1
//! faultsweep --bench crc32 --faults 200 --seed 7
//! ```
//!
//! For every registered scheme, the sweep builds a fully-compressed
//! image and injects `--faults` single-fault plans, each derived from
//! its own seed (`--seed + fault index`) so any row of the report can be
//! replayed exactly with `rtdc-run --inject`. Faults alternate between
//! the two corruption stages the robustness model distinguishes:
//!
//! * **storage-stage** (even indices): the fault hits the stored image
//!   after sealing — exactly what load-time CRC verification exists to
//!   catch; the run is attempted as-is.
//! * **memory-stage** (odd indices): the fault hits after load — the
//!   segment digests are re-measured (`seal` again), so load
//!   verification passes and only the `--verify-lines` runner's per-line
//!   fill checks stand between the corruption and execution.
//!
//! Each run is classified by where the corruption surfaced:
//!
//! | class    | meaning                                                  |
//! |----------|----------------------------------------------------------|
//! | `load`   | rejected by load-time integrity verification             |
//! | `miss`   | caught by the per-line fill check at an I-cache miss     |
//! | `halt`   | the corrupted code trapped on its own (typed sim error)  |
//! | `silent` | ran to completion with the *wrong* architectural result  |
//! | `resid`  | silent, but via the documented residual: a memory-stage  |
//! |          | handler-RAM fault that corrupts register state while     |
//! |          | still producing CRC-correct fills                        |
//! | `benign` | ran to completion with the correct result                |
//!
//! `silent` is the class the integrity pipeline exists to empty; the
//! sweep exits non-zero if any scheme has a silent escape, or if either
//! detection path went unexercised (no `load` or no `miss` hit).
//!
//! `resid` does not fail the sweep: per-line CRCs attest what the
//! handler *writes into the I-cache*, not the handler's own execution,
//! so a post-load bit flip in handler RAM that leaves every fill intact
//! but, say, skips a register restore is invisible to them by
//! construction (storage-stage handler faults *are* caught — at load).
//! The sweep measures that residual instead of pretending it is zero.

use std::process::ExitCode;

use rtdc::fault::FaultPlan;
use rtdc::prelude::*;
use rtdc_bench::args::Cli;
use rtdc_workloads::resolve_program;

const CLI: Cli = Cli {
    usage: "usage: faultsweep [--bench NAME] [--faults N] [--seed S]",
    values: "bench faults seed",
    switches: "",
    operands: 0..=0,
};

/// Bounds corrupted runs: corrupt code may spin, so give each run a
/// generous multiple of the clean run's instruction count.
fn insn_budget(clean_insns: u64) -> u64 {
    clean_insns * 4 + 1_000_000
}

#[derive(Default)]
struct Tally {
    load: u32,
    miss: u32,
    halt: u32,
    silent: u32,
    resid: u32,
    benign: u32,
    /// First fault caught by each detection path, as a replayable
    /// `(seed, spec)` pair.
    first_load: Option<(u64, String)>,
    first_miss: Option<(u64, String)>,
}

fn run() -> Result<bool, String> {
    let args = CLI.from_env();
    let bench = args.opt("bench").unwrap_or("sort");
    let n_faults: u64 = args.num("faults")?.unwrap_or(40);
    let seed: u64 = args.num("seed")?.unwrap_or(1);

    let program = resolve_program(bench).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
    let cfg = SimConfig::hpca2000_baseline();

    println!("faultsweep: {bench}, {n_faults} faults/scheme, seed {seed}");
    println!(
        "{:<8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7}",
        "scheme", "load", "miss", "halt", "silent", "resid", "benign", "det%", "silent%"
    );

    let mut ok = true;
    for scheme in Scheme::all() {
        let clean = ImageSpec::Uniform { scheme, rf: false }
            .build(&program)
            .map_err(|e| format!("{scheme:?}: {e}"))?;
        let reference =
            run_image(&clean, cfg, u64::MAX).map_err(|e| format!("{scheme:?} clean run: {e}"))?;
        let budget = insn_budget(reference.stats.insns);

        let mut t = Tally::default();
        for i in 0..n_faults {
            let fault_seed = seed.wrapping_add(i);
            let plan = FaultPlan::random(fault_seed, 1, &clean);
            let spec = plan
                .faults
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let mut img = clean.clone();
            plan.apply(&mut img)
                .map_err(|e| format!("{scheme:?}: {e}"))?;
            let memory_stage = i % 2 == 1;
            if memory_stage {
                img.seal();
            }
            match run_image_verified(&img, cfg, budget) {
                Err(RunError::CorruptImage(_)) => {
                    t.load += 1;
                    t.first_load.get_or_insert((fault_seed, spec));
                }
                Err(RunError::CorruptFill { .. }) => {
                    t.miss += 1;
                    t.first_miss.get_or_insert((fault_seed, spec));
                }
                Err(RunError::Sim(_)) => t.halt += 1,
                Err(e) => return Err(format!("{scheme:?} seed {fault_seed}: {e}")),
                Ok(r) => {
                    if r.exit_code == reference.exit_code && r.output == reference.output {
                        t.benign += 1;
                    } else if memory_stage
                        && plan.faults.iter().all(|f| f.segment == ".decompressor")
                    {
                        t.resid += 1;
                        eprintln!(
                            "{}: handler-RAM residual at seed {fault_seed} ({spec}) — fills intact, register state corrupted",
                            scheme.name()
                        );
                    } else {
                        t.silent += 1;
                        eprintln!(
                            "{}: SILENT escape at seed {fault_seed} ({spec}) — wrong result undetected",
                            scheme.name()
                        );
                    }
                }
            }
        }

        let detected = t.load + t.miss;
        let exercised = t.load + t.miss + t.halt + t.silent + t.resid; // non-benign
        let det_pct = 100.0 * f64::from(detected) / f64::from(exercised.max(1));
        let silent_pct = 100.0 * f64::from(t.silent + t.resid) / f64::from(exercised.max(1));
        println!(
            "{:<8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6.1}% {:>6.1}%",
            scheme.name(),
            t.load,
            t.miss,
            t.halt,
            t.silent,
            t.resid,
            t.benign,
            det_pct,
            silent_pct
        );
        if let Some((s, spec)) = &t.first_load {
            println!("         replay load  detection: --inject {spec}  (seed {s})");
        }
        if let Some((s, spec)) = &t.first_miss {
            println!(
                "         replay miss  detection: --inject {spec} --inject-fixup --verify-lines  (seed {s})"
            );
        }
        if t.silent > 0 {
            eprintln!("{}: {} silent escape(s)", scheme.name(), t.silent);
            ok = false;
        }
        if t.first_load.is_none() || t.first_miss.is_none() {
            eprintln!(
                "{}: a detection path went unexercised (load: {}, miss: {}) — raise --faults",
                scheme.name(),
                t.load,
                t.miss
            );
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("faultsweep: integrity coverage check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("faultsweep: {e}");
            ExitCode::FAILURE
        }
    }
}
