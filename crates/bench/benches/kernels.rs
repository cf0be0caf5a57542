//! Micro-benchmarks of the pure algorithm kernels: compression and
//! decompression throughput for every registered codec (plus raw LZRW1
//! over the byte stream), the image builders per label, the integrity
//! CRCs every build and verified load pays for, raw simulator
//! speed, and the set-up layers of program generation. These are the
//! implementation-performance numbers (host-side), complementing the
//! simulated-machine results of the table/figure harnesses.
//!
//! Uses a tiny self-contained timing harness (median of repeated runs)
//! instead of criterion so the workspace builds with no network access.

use std::time::Instant;

use rtdc::integrity;
use rtdc::prelude::*;
use rtdc_compress::lzrw1;
use rtdc_isa::program::ObjectProgram;
use rtdc_sim::{SimConfig, SimError};
use rtdc_workloads::idioms::Idioms;
use rtdc_workloads::vocab::Vocabulary;
use rtdc_workloads::{all_benchmarks, filler_target, generate, spec};

/// Times `f` over `iters` runs and reports the median per-run time.
fn bench<T>(name: &str, throughput_bytes: Option<u64>, iters: usize, mut f: impl FnMut() -> T) {
    // One warm-up run, then timed runs.
    std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..iters.max(3))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[samples.len() / 2];
    match throughput_bytes {
        Some(bytes) => {
            let mibps = bytes as f64 / median / (1024.0 * 1024.0);
            println!("{name:<28} {:>10.3} ms   {mibps:>9.1} MiB/s", median * 1e3);
        }
        None => println!("{name:<28} {:>10.3} ms", median * 1e3),
    }
}

/// A realistic instruction-word stream: `program`'s linked text.
fn sample_text(program: &ObjectProgram) -> Vec<u32> {
    let image = build_native(program).expect("native build");
    let seg = image.segment(".text").expect("text");
    seg.bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn bench_compressors() {
    let words = sample_text(&generate(&spec::pegwit()));
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let n = bytes.len() as u64;
    println!("== compress ({} words) ==", words.len());
    for scheme in Scheme::all() {
        let codec = scheme.codec();
        bench(codec.long_name(), Some(n), 10, || {
            codec.compress(&words).unwrap()
        });
    }
    bench("lzrw1 (raw bytes)", Some(n), 10, || lzrw1::compress(&bytes));

    println!("== decompress ==");
    for scheme in Scheme::all() {
        let codec = scheme.codec();
        let layout = codec.compress(&words).unwrap();
        bench(codec.long_name(), Some(n), 10, || {
            codec.decode(&layout, words.len()).unwrap()
        });
    }
    let lz = lzrw1::compress(&bytes);
    bench("lzrw1 (raw bytes)", Some(n), 10, || {
        lzrw1::decompress(&lz).unwrap()
    });
}

/// The builder layer on the go analog: each codec's `compress` over the
/// whole text, then a complete build per uniform label (link, compress,
/// lay out, seal), as a suite cell or a cold daemon `build` does it.
fn bench_builders() {
    let program = generate(&spec::go());
    let words = sample_text(&program);
    let n = 4 * words.len() as u64;
    println!("== compress go ({} words) ==", words.len());
    for scheme in Scheme::all() {
        let codec = scheme.codec();
        bench(codec.long_name(), Some(n), 10, || {
            codec.compress(&words).unwrap()
        });
    }
    println!("== build go ==");
    bench("build_native", Some(n), 10, || {
        build_native(&program).unwrap()
    });
    let all = Selection::all_compressed(program.procedures.len());
    for scheme in Scheme::all() {
        for rf in [false, true] {
            let plan = CompressionPlan::uniform(scheme, rf, PlanSource::Heuristic, &all);
            let label = format!("build_planned {}", scheme.name_rf(rf));
            bench(&label, Some(n), 10, || {
                build_planned(&program, &plan).unwrap()
            });
        }
    }
}

/// The integrity layer: `crc32` at a block, a verified segment's size
/// and a whole-text size (each call repeated so the per-call time is
/// well above the timer's resolution), `line_crcs` over go's text, and
/// `verify_integrity` of go's `d` image, every segment re-CRCed as a
/// verified load or daemon hit does it.
fn bench_integrity() {
    let program = generate(&spec::go());
    let words = sample_text(&program);
    let text: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    println!("== integrity ==");
    for (name, len, reps) in [
        ("crc32 4 KiB x256", 4 << 10, 256),
        ("crc32 10 KiB x100", 10 << 10, 100),
        ("crc32 1 MiB", 1 << 20, 1),
    ] {
        let bytes: Vec<u8> = text.iter().copied().cycle().take(len).collect();
        bench(name, Some((len * reps) as u64), 20, || {
            (0..reps).fold(0, |acc, _| acc ^ integrity::crc32(&bytes))
        });
    }
    bench("line_crcs go", Some(text.len() as u64), 20, || {
        integrity::line_crcs(&words)
    });
    let image = ImageSpec::Uniform {
        scheme: Scheme::Dictionary,
        rf: false,
    }
    .build(&program)
    .expect("compressed build");
    let sealed: u64 = image.segments.iter().map(|s| s.bytes.len() as u64).sum();
    bench("verify_integrity go d", Some(sealed), 20, || {
        image.verify_integrity().is_ok()
    });
}

/// Loads `image` and runs it through the block engine for 100k
/// instructions (or to exit, if sooner).
fn run_100k(image: &MemoryImage, cfg: SimConfig) -> u64 {
    let mut m = load_image(image, cfg).expect("image verifies");
    match m.run(100_000) {
        Ok(_) | Err(SimError::InsnLimitExceeded { .. }) => m.stats().cycles,
        Err(e) => panic!("simulation failed: {e}"),
    }
}

fn bench_simulator() {
    let program = generate(&spec::pegwit());
    let native = build_native(&program).expect("native build");
    let cfg = SimConfig::hpca2000_baseline();
    println!("== simulator (100k insns) ==");
    bench("native_100k_insns", None, 10, || run_100k(&native, cfg));
    let scheme = Scheme::Dictionary;
    let compressed = ImageSpec::Uniform { scheme, rf: false }
        .build(&program)
        .expect("compressed build");
    bench("dictionary_100k_insns", None, 10, || {
        run_100k(&compressed, cfg)
    });
}

/// The set-up layers per analog: the master vocabulary, the idiom
/// table (drawn beside it on a second thread by `generate`), and a whole
/// `generate`.
fn bench_generate() {
    println!("== generate ==");
    for spec in all_benchmarks() {
        let master_size = filler_target(&spec).master_size();
        bench(&format!("{} vocabulary", spec.name), None, 3, || {
            Vocabulary::generate(spec.seed, master_size)
        });
        bench(&format!("{} idioms", spec.name), None, 3, || {
            Idioms::new(spec.seed, spec.vocab_size)
        });
        bench(&format!("{} generate", spec.name), None, 3, || {
            generate(&spec)
        });
    }
}

fn main() {
    bench_compressors();
    bench_builders();
    bench_integrity();
    bench_simulator();
    bench_generate();
}
