//! Shared experiment plumbing for the table/figure harnesses.

use rtdc::prelude::*;
use rtdc_compress::lzrw1;
use rtdc_sim::SimConfig;
use rtdc_workloads::{generate_cached, BenchmarkSpec, PaperReference};

/// Generous commit budget: no experiment legitimately exceeds this.
pub const MAX_INSNS: u64 = 2_000_000_000;

/// A runner for [`build_and_run`]: [`run_image`], or
/// [`run_image_verified`] to re-check every handler fill against the
/// build-time per-line CRCs (same simulated stats; only host wall-clock,
/// and so sim-MIPS, differ — the overhead simperf records).
pub type Runner = fn(&MemoryImage, SimConfig, u64) -> Result<RunReport, RunError>;

/// Builds `spec` as the image family `image`, runs it to completion
/// with `runner`, and returns the image with its report.
pub fn build_and_run(
    spec: &BenchmarkSpec,
    image: &ImageSpec,
    cfg: SimConfig,
    runner: Runner,
) -> (MemoryImage, RunReport) {
    let program = generate_cached(spec);
    let image = image.build(&program).expect("build");
    let report = runner(&image, cfg, MAX_INSNS).expect("run");
    (image, report)
}

/// One scheme's full-compression size measurement within a Table 2 row.
#[derive(Debug, Clone, Copy)]
pub struct SchemeSize {
    /// Which scheme.
    pub scheme: Scheme,
    /// Fully-compressed payload bytes.
    pub payload_bytes: u32,
    /// Compression ratio (Eq. 1).
    pub ratio: f64,
}

/// A measured Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Committed program instructions (native run).
    pub dynamic_insns: u64,
    /// Non-speculative I-miss ratio at 16KB.
    pub miss_ratio: f64,
    /// Native `.text` bytes.
    pub original_bytes: u32,
    /// Per-scheme sizes, in [`Scheme::paper_schemes`] order.
    pub schemes: Vec<SchemeSize>,
    /// LZRW1 whole-text compression ratio.
    pub lzrw1_ratio: f64,
}

/// The paper's Table 2 compression ratio for `scheme`.
pub fn paper_ratio(p: &PaperReference, scheme: Scheme) -> f64 {
    match scheme.name() {
        "d" => p.dict_ratio,
        "cp" => p.codepack_ratio,
        other => panic!("paper reports no Table 2 ratio for scheme `{other}`"),
    }
}

/// The paper's Table 3 slowdown for `scheme` (+RF if `rf`).
pub fn paper_slowdown(p: &PaperReference, scheme: Scheme, rf: bool) -> f64 {
    match (scheme.name(), rf) {
        ("d", false) => p.slowdown_d,
        ("d", true) => p.slowdown_d_rf,
        ("cp", false) => p.slowdown_cp,
        ("cp", true) => p.slowdown_cp_rf,
        (other, _) => panic!("paper reports no Table 3 slowdown for scheme `{other}`"),
    }
}

/// Measures a Table 2 row: one native run plus every paper scheme's
/// compressor over the full `.text` (and LZRW1 over the raw bytes).
pub fn table2_row(spec: &BenchmarkSpec, cfg: SimConfig) -> Table2Row {
    let (native, report) = build_and_run(spec, &ImageSpec::Native, cfg, run_image);
    let program = generate_cached(spec);
    let schemes = Scheme::paper_schemes()
        .map(|scheme| {
            let img = ImageSpec::Uniform { scheme, rf: false }
                .build(&program)
                .expect("compressed build");
            SchemeSize {
                scheme,
                payload_bytes: img.sizes.compressed_payload_bytes,
                ratio: img.sizes.compression_ratio(),
            }
        })
        .collect();

    let text = native.segment(".text").expect("native text segment");
    let lz_ratio = lzrw1::compression_ratio(&text.bytes);

    Table2Row {
        name: spec.name.to_string(),
        dynamic_insns: report.stats.program_insns,
        miss_ratio: report.stats.imiss_ratio(),
        original_bytes: native.sizes.original_text_bytes,
        schemes,
        lzrw1_ratio: lz_ratio,
    }
}

/// One scheme's slowdown pair (plain handler, +RF handler) within a
/// Table 3 row.
#[derive(Debug, Clone, Copy)]
pub struct SchemeSlowdown {
    /// Which scheme.
    pub scheme: Scheme,
    /// Cycles relative to native, plain handler.
    pub plain: f64,
    /// Cycles relative to native, second-register-file handler.
    pub rf: f64,
}

/// A measured Table 3 row: slowdowns relative to native.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Native cycle count (the denominator).
    pub native_cycles: u64,
    /// Per-scheme slowdowns, in [`Scheme::paper_schemes`] order.
    pub slowdowns: Vec<SchemeSlowdown>,
}

/// Measures a Table 3 row: one native run plus every paper scheme with
/// both handler variants, fully compressed, verifying architectural
/// equivalence along the way.
pub fn table3_row(spec: &BenchmarkSpec, cfg: SimConfig) -> Table3Row {
    let (_, native) = build_and_run(spec, &ImageSpec::Native, cfg, run_image);
    let n_cycles = native.stats.cycles as f64;
    let slow = |scheme: Scheme, rf: bool| -> f64 {
        let (_, r) = build_and_run(spec, &ImageSpec::Uniform { scheme, rf }, cfg, run_image);
        assert_eq!(
            r.output, native.output,
            "{} {scheme:?} rf={rf}: compressed run diverged from native",
            spec.name
        );
        r.stats.cycles as f64 / n_cycles
    };
    Table3Row {
        name: spec.name.to_string(),
        native_cycles: native.stats.cycles,
        slowdowns: Scheme::paper_schemes()
            .map(|scheme| SchemeSlowdown {
                scheme,
                plain: slow(scheme, false),
                rf: slow(scheme, true),
            })
            .collect(),
    }
}

/// Measures every Table 2 row, fanning the benchmarks out across `jobs`
/// workers. Rows come back in the order of `specs`, so output formatting
/// is identical for any job count.
pub fn table2_rows(specs: &[BenchmarkSpec], cfg: SimConfig, jobs: usize) -> Vec<Table2Row> {
    crate::jobs::parallel_map(specs, jobs, |spec| table2_row(spec, cfg))
}

/// Measures every Table 3 row across `jobs` workers, in `specs` order.
pub fn table3_rows(specs: &[BenchmarkSpec], cfg: SimConfig, jobs: usize) -> Vec<Table3Row> {
    crate::jobs::parallel_map(specs, jobs, |spec| table3_row(spec, cfg))
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}
