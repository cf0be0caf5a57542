//! Decode-cache differential tests.
//!
//! The pre-decoded instruction store (`SimConfig::decode_cache`) is a pure
//! host-side optimization: it may never change *anything* observable — not
//! the architectural results (registers, memory, output, exit code) and
//! not the simulated statistics (cycles, misses, exceptions). These tests
//! run the four known-answer programs and a randomized synthetic workload
//! under native code and every decompression scheme with the decode cache
//! on and off, asserting the full [`Stats`] structs compare equal.
//!
//! The small-I-cache variants matter most: a tiny instruction cache forces
//! constant eviction and refill, so compressed lines are repeatedly
//! rewritten by `swic` at the *same* virtual PC with different procedure
//! bodies resident — exactly the aliasing pattern a stale decode-cache
//! entry would corrupt. The decode store self-validates by keying each
//! slot on `(pc, word)`, so a changed word can never replay a stale
//! decode; these tests are the proof.

use rtdc_isa::program::ObjectProgram;
use rtdc_repro::core::prelude::*;
use rtdc_repro::workloads::{generate, programs, spec::tiny};

const MAX_INSNS: u64 = 50_000_000;

/// All scheme variants a program can run under: native plus the four
/// paper configurations (D, D+RF, CP, CP+RF).
const VARIANTS: [(Option<Scheme>, bool); 5] = [
    (None, false),
    (Some(Scheme::Dictionary), false),
    (Some(Scheme::Dictionary), true),
    (Some(Scheme::CodePack), false),
    (Some(Scheme::CodePack), true),
];

/// Runs `program` under one scheme variant with the decode cache on and
/// off and asserts architecturally identical results *and* identical
/// statistics. Returns the (shared) stats for further shape checks.
fn assert_cache_transparent(
    program: &ObjectProgram,
    scheme: Option<Scheme>,
    rf: bool,
    cfg: SimConfig,
) -> rtdc_repro::sim::Stats {
    let image = match scheme {
        None => ImageSpec::Native,
        Some(scheme) => ImageSpec::Uniform { scheme, rf },
    }
    .build(program)
    .unwrap();
    let on = run_image(&image, cfg.with_decode_cache(true), MAX_INSNS).unwrap();
    let off = run_image(&image, cfg.with_decode_cache(false), MAX_INSNS).unwrap();
    let label = format!("{}: {scheme:?} rf={rf}", program.name);
    assert_eq!(on.exit_code, off.exit_code, "{label}: exit code");
    assert_eq!(on.output, off.output, "{label}: output bytes");
    assert_eq!(on.stats, off.stats, "{label}: stats diverged");
    on.stats
}

/// Every known-answer program, every scheme, baseline 16KB I-cache.
#[test]
fn known_answer_programs_identical_with_decode_cache() {
    let cfg = SimConfig::hpca2000_baseline();
    for program in programs::all_programs() {
        for (scheme, rf) in VARIANTS {
            let stats = assert_cache_transparent(&program, scheme, rf, cfg);
            if scheme.is_some() {
                assert!(
                    stats.exceptions > 0,
                    "{}: decompressor must run",
                    program.name
                );
            }
        }
    }
}

/// Every known-answer program again with a deliberately tiny (1KB)
/// I-cache: constant eviction means `swic` rewrites the same cache-resident
/// PCs over and over, churning the decode store's slots through
/// eviction/refill and native↔compressed transitions.
#[test]
fn known_answer_programs_identical_under_cache_thrash() {
    let cfg = SimConfig::hpca2000_baseline().with_icache_size(1024);
    for program in programs::all_programs() {
        for (scheme, rf) in VARIANTS {
            let stats = assert_cache_transparent(&program, scheme, rf, cfg);
            if scheme.is_some() {
                assert!(
                    stats.exceptions > 0,
                    "{}: thrashing run must take decompression exceptions",
                    program.name
                );
            }
        }
    }
}

/// A randomized synthetic workload (the tiny walker analog: Zipf-sampled
/// procedure calls over generated filler code) under all schemes, at both
/// the baseline and a thrashing I-cache size.
#[test]
fn randomized_workload_identical_with_decode_cache() {
    let program = generate(&tiny::walker());
    for cfg in [
        SimConfig::hpca2000_baseline(),
        SimConfig::hpca2000_baseline().with_icache_size(2048),
    ] {
        for (scheme, rf) in VARIANTS {
            assert_cache_transparent(&program, scheme, rf, cfg);
        }
    }
}
