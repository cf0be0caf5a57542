//! `rtdc-run` — run benchmark analogs under any scheme and print full
//! statistics reports.
//!
//! ```sh
//! rtdc-run --bench go                      # native run
//! rtdc-run --bench go --scheme d           # dictionary, fully compressed
//! rtdc-run --bench go --scheme cp+rf       # CodePack with second register file
//! rtdc-run --bench go --scheme d --select miss --threshold 20
//! rtdc-run --bench go --scheme d --select miss --emit-plan go.plan
//! rtdc-run --bench go --plan go.plan          # build exactly this plan
//! rtdc-run --bench go --scheme d --icache 64
//! rtdc-run --bench go --scheme d --layout  # print the Figure-3 layout
//! rtdc-run --bench go --scheme d --metrics # derived cycle/exception metrics
//! rtdc-run --bench go --scheme d --trace out.jsonl   # structured event trace
//! rtdc-run --bench go --scheme d --trace out.jsonl --trace-filter exc,swic
//! rtdc-run --bench crc32 --disasm 20       # disassemble the first N instructions
//! rtdc-run --bench cc1,go,perl --jobs 4    # several benchmarks, fanned out
//! rtdc-run --bench go --no-translate       # single-step reference run loop
//! rtdc-run --bench sort --scheme d --verify-lines      # re-check every fill
//! rtdc-run --bench sort --scheme d --inject rand:7     # corrupt the image
//! rtdc-run --bench sort --scheme d --inject flip:.dictionary:0:3 --inject-fixup
//! rtdc-run --list                          # list benchmarks
//! rtdc-run --list-schemes                  # list registered compression schemes
//! ```
//!
//! `--bench` accepts a comma-separated list; each benchmark's report is
//! built in full by its worker and printed in list order, so stdout is
//! byte-identical for any `--jobs` value (the default is 1 — serial).
//! `--layout`, `--trace`, `--disasm`, `--plan`, and `--emit-plan` only
//! apply to a single benchmark.
//!
//! `--plan FILE` builds from a canonical `rtdc-plan v1` file (the
//! scheme, native/compressed split, and layout order all come from the
//! plan); `--emit-plan FILE` writes the plan of the current build, so a
//! heuristic selection can be captured, hand-edited or optimized (see
//! the `planopt` tool in `rtdc-bench`), and replayed exactly.
//!
//! `--trace` writes a JSONL event trace (preamble: `meta` + one
//! `region_def` per procedure; then one event per line) that `tracestat`
//! and `rtdc_bench::analyze` consume; `--trace-filter` limits which
//! event kinds are recorded (`exc,swic,stall,...` or `all`).
//!
//! `--serve SOCKET` routes `--bench`/`--scheme` runs through a running
//! `rtdc-serve` daemon instead of building locally — repeated runs of
//! the same image are served from the daemon's content-addressed cache.
//! The printed stats block is identical to a local run's (the daemon's
//! responses are pure functions of the request); options that change
//! the local build or simulator (`--plan`, `--icache`, `--inject`,
//! `--trace`, ...) are rejected in this mode. The client rides out a
//! daemon restart (connect retried with jittered backoff) and typed
//! `overloaded` sheds (bounded request retries); `--deadline-ms N`
//! attaches a per-request budget the daemon enforces server-side, and
//! `--retry-seed N` makes the whole backoff schedule reproducible.
//!
//! `--inject SPEC` applies a deterministic fault plan to the image after
//! building it (`rand:SEED[:N]`, or a comma list of
//! `flip:SEG:OFF:BIT` / `stuck:SEG:OFF:0xVV` / `trunc:SEG:OFF`) —
//! load-time integrity verification then rejects the image unless
//! `--inject-fixup` also re-seals the segment digests, modelling
//! corruption that happens *after* the image was loaded and verified.
//! `--verify-lines` re-checks every decompression fill against the
//! build-time per-line CRCs, catching such post-load corruption at the
//! first miss that decodes wrong bytes.

use std::fmt::Write as _;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;

use rtdc::prelude::*;
use rtdc_bench::jobs::parallel_map;
use rtdc_cli::{format_engine, format_metrics, format_stats, Args};
use rtdc_isa::program::ObjectProgram;
use rtdc_sim::trace::RegionDef;
use rtdc_sim::{JsonlTracer, SimConfig, TraceFilter};
use rtdc_workloads::{all_benchmarks, programs, resolve_program};

const MAX_INSNS: u64 = 2_000_000_000;

/// Parses `--scheme` (default `native`) as an image family.
fn scheme_arg(args: &Args) -> Result<(String, ImageSpec), String> {
    let arg = args.opt("scheme").unwrap_or("native").to_ascii_lowercase();
    match ImageSpec::parse(&arg) {
        Some(image) => Ok((arg, image)),
        None => {
            let names: Vec<String> = ImageSpec::uniform_families().map(|s| s.label()).collect();
            Err(format!("unknown --scheme `{arg}` ({})", names.join("|")))
        }
    }
}

/// Resolves a benchmark analog, tiny spec or known-answer program by name.
fn resolve(name: &str) -> Result<Arc<ObjectProgram>, String> {
    resolve_program(name).ok_or_else(|| format!("unknown benchmark `{name}` (try --list)"))
}

/// Resolves the benchmark and builds its image per `--plan` (an explicit
/// compression plan file) or `--scheme`/`--select`/`--threshold` (the
/// heuristic path, internally lowered to a plan too), returning the
/// scheme label used in reports (`native`, `d`, `cp+rf`, `d+plan`, ...)
/// alongside the image. `--emit-plan FILE` writes whatever plan drove
/// the build, in canonical form, ready for editing and `--plan`.
fn build_image(name: &str, args: &Args, cfg: SimConfig) -> Result<(String, MemoryImage), String> {
    let program = resolve(name)?;

    let spec = if let Some(path) = args.opt("plan") {
        if args.opt("scheme").is_some()
            || args.opt("select").is_some()
            || args.opt("threshold").is_some()
        {
            return Err(
                "--plan carries the scheme and selection; drop --scheme/--select/--threshold"
                    .into(),
            );
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ImageSpec::Plan(text.parse().map_err(|e| format!("{path}: {e}"))?)
    } else {
        scheme_arg(args)?.1
    };
    // A heuristic selection keeps its family's label (`d`, not `d+plan`).
    let label = spec.label();
    let spec = match (spec, args.opt("select"), args.opt("threshold")) {
        (ImageSpec::Uniform { scheme, rf }, Some(strategy), threshold) => {
            let strategy = match strategy {
                "exec" => SelectBy::Execution,
                "miss" => SelectBy::Miss,
                other => return Err(format!("unknown --select `{other}` (exec|miss)")),
            };
            let pct: f64 = threshold
                .unwrap_or("20")
                .parse()
                .map_err(|_| "bad --threshold".to_string())?;
            eprintln!("profiling (native run) for {strategy}-based selection...");
            let (_, profile) =
                profile_native(&program, cfg, MAX_INSNS).map_err(|e| e.to_string())?;
            let selection = Selection::by_profile(&profile, strategy, pct / 100.0);
            let plan = CompressionPlan::uniform(scheme, rf, PlanSource::Heuristic, &selection);
            ImageSpec::Plan(plan)
        }
        (ImageSpec::Uniform { .. }, None, Some(_)) => {
            return Err("--threshold requires --select".into())
        }
        (ImageSpec::Native, Some(_), _) | (ImageSpec::Native, _, Some(_)) => {
            return Err(
                "--select/--threshold pick procedures to compress; give a compressed --scheme"
                    .into(),
            )
        }
        (spec, _, _) => spec,
    };
    let mut image = spec.build(&program).map_err(|e| e.to_string())?;

    if let Some(path) = args.opt("emit-plan") {
        let plan = spec
            .plan(program.procedures.len())
            .ok_or("--emit-plan needs a compressed build (--scheme or --plan)")?;
        std::fs::write(path, plan.to_string()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{name}: plan written to {path}");
    }

    if let Some(spec) = args.opt("inject") {
        let plan = FaultPlan::parse(spec, &image).map_err(|e| e.to_string())?;
        for f in &plan.faults {
            eprintln!("{name}: injecting {f}");
        }
        plan.apply(&mut image).map_err(|e| e.to_string())?;
        if args.has("inject-fixup") {
            image.seal();
        }
    } else if args.has("inject-fixup") {
        return Err("--inject-fixup requires --inject SPEC".into());
    }
    Ok((label, image))
}

/// Builds the image for one benchmark and runs it, returning the full
/// stdout report as a string (so parallel workers cannot interleave).
fn run_one(name: &str, args: &Args, cfg: SimConfig, with_layout: bool) -> Result<String, String> {
    let (label, image) = build_image(name, args, cfg)?;

    let mut out = String::new();
    writeln!(
        out,
        "{name} [{}]: {} procedures, code {:.1} KB ({:.1}% of native), handler {} B",
        match image.scheme {
            None => "native".to_string(),
            Some(s) => format!("{s}{}", if image.second_regfile { "+RF" } else { "" }),
        },
        image.proc_count(),
        image.sizes.total_code_bytes() as f64 / 1024.0,
        100.0 * image.sizes.compression_ratio(),
        image.sizes.handler_bytes,
    )
    .expect("write to string");

    if with_layout {
        write!(out, "{}", image.describe()).expect("write to string");
    }

    let report = if args.has("verify-lines") {
        run_image_verified(&image, cfg, MAX_INSNS).map_err(|e| e.to_string())?
    } else {
        run_image(&image, cfg, MAX_INSNS).map_err(|e| e.to_string())?
    };
    writeln!(
        out,
        "exit code {}, output: {:?}",
        report.exit_code,
        String::from_utf8_lossy(&report.output)
    )
    .expect("write to string");
    write!(out, "{}", format_stats(&report.stats)).expect("write to string");
    if args.has("metrics") {
        write!(out, "{}", format_metrics(&report.stats)).expect("write to string");
    }
    eprintln!(
        "{name} [{label}]: {:.1} sim-MIPS ({} insns in {:.3}s){}",
        report.sim_mips(),
        report.stats.insns,
        report.wall.as_secs_f64(),
        format_engine(&report.engine)
    );
    Ok(out)
}

/// Runs one benchmark with a JSONL event tracer attached, writing the
/// trace to `path`, and prints the usual stats afterwards.
fn trace_jsonl_one(name: &str, args: &Args, cfg: SimConfig, path: &str) -> Result<(), String> {
    let filter = match args.opt("trace-filter") {
        Some(spec) => TraceFilter::parse(spec)?,
        None => TraceFilter::all(),
    };
    let (label, image) = build_image(name, args, cfg)?;
    let image = image
        .verify_integrity()
        .map_err(|e| RunError::CorruptImage(e).to_string())?;

    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut tracer = JsonlTracer::with_filter(BufWriter::new(file), filter);
    tracer.write_meta(name, &label);
    for &(start, end, id) in &image.proc_regions {
        tracer.write_region_def(&RegionDef {
            id: id as u32,
            name: image.proc_names[id].clone(),
            start,
            end,
        });
    }
    let (report, tracer) =
        run_image_with_sink(&image, cfg, MAX_INSNS, tracer).map_err(|e| e.to_string())?;
    tracer
        .finish()
        .map_err(|e| format!("{path}: trace write failed: {e}"))?;
    print!("{}", format_stats(&report.stats));
    if args.has("metrics") {
        print!("{}", format_metrics(&report.stats));
    }
    eprintln!(
        "{name} [{label}]: trace written to {path} ({} insns, {} cycles); analyze with `tracestat {path}`",
        report.stats.insns, report.stats.cycles
    );
    Ok(())
}

/// Disassembles the first `ncount` committed instructions of one
/// benchmark to stdout (previously `--trace N`; renamed to `--disasm`
/// when `--trace` became the structured event trace).
fn disasm_one(name: &str, args: &Args, cfg: SimConfig, ncount: u64) -> Result<(), String> {
    let (_, image) = build_image(name, args, cfg)?;
    let mut m = load_image(&image, cfg).map_err(|e| e.to_string())?;
    while m.stats().insns < ncount {
        let pc = m.pc();
        let disasm = m
            .insn_at(pc)
            .map(|i| i.to_string())
            .unwrap_or_else(|| "<not resident>".into());
        let before = m.stats().insns;
        match m.step().map_err(|e| e.to_string())? {
            rtdc_sim::Step::Exited(_) => break,
            rtdc_sim::Step::Continue => {}
        }
        if m.stats().insns > before {
            println!("{pc:#010x}: {disasm}");
        } else {
            println!("{pc:#010x}: <decompression exception>");
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = Args::from_env();
    if args.has("list-schemes") {
        println!(
            "{:<8} {:<6} {:<12} description",
            "name", "label", "long name"
        );
        for s in Scheme::all() {
            println!(
                "{:<8} {:<6} {:<12} {}",
                s.name(),
                s.label(),
                s.long_name(),
                s.describe()
            );
        }
        println!("(append `+rf` to any name for the second-register-file handler)");
        return Ok(());
    }
    if args.has("list") {
        for b in all_benchmarks() {
            println!(
                "{:<12} {:>8} KB text, paper: D {:.2}x CP {:.2}x, miss {:.2}%",
                b.name,
                b.paper.original_bytes / 1024,
                b.paper.slowdown_d,
                b.paper.slowdown_cp,
                100.0 * b.paper.miss_ratio_16k
            );
        }
        for p in programs::all_programs() {
            println!(
                "{:<12} {:>8} B text, known-answer program",
                p.name,
                p.text_bytes()
            );
        }
        return Ok(());
    }

    let bench_arg = args
        .opt("bench")
        .ok_or("missing --bench NAME (try --list)")?;
    let names: Vec<&str> = bench_arg.split(',').filter(|s| !s.is_empty()).collect();
    if names.is_empty() {
        return Err("missing --bench NAME (try --list)".into());
    }

    let mut cfg = SimConfig::hpca2000_baseline();
    if let Some(kb) = args.opt("icache") {
        let kb: u32 = kb.parse().map_err(|_| format!("bad --icache `{kb}`"))?;
        cfg = cfg.with_icache_size(kb * 1024);
    }
    if args.has("no-translate") {
        // Reference path: single-step interpretation, bit-identical
        // stats to the (default) block-translated run loop.
        cfg = cfg.with_translation(false);
    }
    let jobs: usize = match args.opt("jobs") {
        Some(j) => j
            .parse::<usize>()
            .map_err(|_| format!("bad --jobs `{j}`"))?
            .max(1),
        None => 1,
    };

    if let Some(socket) = args.opt("serve") {
        return serve_run(socket, &names, &args);
    }

    if let Some(path) = args.opt("trace") {
        if names.len() > 1 {
            return Err("--trace only applies to a single --bench".into());
        }
        return trace_jsonl_one(names[0], &args, cfg, path);
    }
    if args.opt("trace-filter").is_some() {
        return Err("--trace-filter requires --trace FILE".into());
    }
    if let Some(ncount) = args.opt("disasm") {
        if names.len() > 1 {
            return Err("--disasm only applies to a single --bench".into());
        }
        let ncount: u64 = ncount.parse().map_err(|_| "bad --disasm".to_string())?;
        return disasm_one(names[0], &args, cfg, ncount);
    }
    let with_layout = args.has("layout");
    if with_layout && names.len() > 1 {
        return Err("--layout only applies to a single --bench".into());
    }
    if (args.opt("plan").is_some() || args.opt("emit-plan").is_some()) && names.len() > 1 {
        return Err("--plan/--emit-plan only apply to a single --bench".into());
    }

    let reports = parallel_map(&names, jobs, |name| run_one(name, &args, cfg, with_layout));
    let mut failed = false;
    for (name, r) in names.iter().zip(reports) {
        match r {
            Ok(text) => print!("{text}"),
            Err(e) => {
                failed = true;
                eprintln!("rtdc-run: {name}: {e}");
            }
        }
    }
    if failed {
        return Err("one or more benchmarks failed".into());
    }
    Ok(())
}

/// `--serve SOCKET`: route runs through an `rtdc-serve` daemon. The
/// daemon simulates under the paper baseline config, so every local
/// option that would change the build or the machine is rejected here
/// rather than silently ignored.
fn serve_run(socket: &str, names: &[&str], args: &Args) -> Result<(), String> {
    for opt in [
        "plan",
        "emit-plan",
        "select",
        "threshold",
        "icache",
        "trace",
        "trace-filter",
        "disasm",
        "inject",
        "jobs",
    ] {
        if args.opt(opt).is_some() {
            return Err(format!("--{opt} does not apply with --serve"));
        }
    }
    for flag in ["layout", "verify-lines", "inject-fixup", "no-translate"] {
        if args.has(flag) {
            return Err(format!("--{flag} does not apply with --serve"));
        }
    }
    // Validate locally for a friendly error before bothering the daemon.
    let (scheme_arg, _) = scheme_arg(args)?;
    let deadline_ms = match args.opt("deadline-ms") {
        Some(v) => Some(
            v.parse::<u64>()
                .ok()
                .filter(|&ms| ms > 0)
                .ok_or_else(|| format!("bad --deadline-ms `{v}` (positive integer ms)"))?,
        ),
        None => None,
    };
    let seed = match args.opt("retry-seed") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("bad --retry-seed `{v}`"))?,
        None => 0x52_45_54_52, // fixed default: retries stay reproducible
    };
    let mut rng = rtdc_rng::Rng64::seed_from_u64(seed);
    let policy = rtdc_serve::client::RetryPolicy::default();
    let path = std::path::Path::new(socket);
    let mut client = rtdc_serve::client::connect_with_retry(path, &policy, &mut rng)
        .map_err(|e| format!("{socket}: {e} (is rtdc-serve running?)"))?;
    let mut failed = false;
    for name in names {
        let line =
            rtdc_serve::client::request_line_opts("run", name, &scheme_arg, None, deadline_ms);
        let raw = client
            .request_retrying(&line, &policy, &mut rng)
            .map_err(|e| format!("{socket}: {e}"))?;
        let resp = rtdc_serve::json::parse(&raw)
            .map_err(|e| format!("{socket}: malformed response `{raw}`: {e}"))?;
        let ok = resp
            .get("ok")
            .and_then(rtdc_serve::json::Json::as_bool)
            .unwrap_or(false);
        if !ok {
            failed = true;
            let kind = resp
                .get("error")
                .and_then(rtdc_serve::json::Json::as_str)
                .unwrap_or("unknown");
            let detail = resp
                .get("detail")
                .and_then(rtdc_serve::json::Json::as_str)
                .unwrap_or("");
            eprintln!("rtdc-run: {name}: {kind}: {detail}");
            continue;
        }
        let field = |k: &str| {
            resp.get(k)
                .and_then(rtdc_serve::json::Json::as_u64)
                .ok_or_else(|| format!("{socket}: response missing `{k}`"))
        };
        let stats = resp
            .get("stats")
            .and_then(rtdc_serve::protocol::parse_stats)
            .ok_or_else(|| format!("{socket}: response missing `stats`"))?;
        let label = resp
            .get("label")
            .and_then(rtdc_serve::json::Json::as_str)
            .unwrap_or(&scheme_arg);
        println!(
            "{name} [{label}] via {socket}: exit code {}, {} output bytes",
            field("exit_code")?,
            field("output_len")?,
        );
        print!("{}", format_stats(&stats));
        if args.has("metrics") {
            print!("{}", format_metrics(&stats));
        }
    }
    if failed {
        return Err("one or more benchmarks failed".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rtdc-run: {e}");
            ExitCode::FAILURE
        }
    }
}
