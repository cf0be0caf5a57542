//! Known-answer tests: real algorithms with independently computed ground
//! truth, run natively AND under every decompression scheme.
//!
//! Unlike the equivalence tests (which compare compressed runs against
//! native runs), these compare against answers computed *outside* the
//! simulator — CRC-32 of a known byte sequence, an insertion-sorted
//! checksum, a matrix-product trace — so a systematic bug that corrupts
//! native and compressed runs identically is still caught.

use rtdc_isa::program::ObjectProgram;
use rtdc_repro::core::prelude::*;
use rtdc_repro::workloads::programs;

const MAX_INSNS: u64 = 20_000_000;

/// Runs a program every way (native + 4 scheme/RF combos) and asserts the
/// expected output and exit code each time.
fn assert_known_answer(program: &ObjectProgram, expected_output: &str, expected_exit: u32) {
    let cfg = SimConfig::hpca2000_baseline();

    let native = build_native(program).unwrap();
    let r = run_image(&native, cfg, MAX_INSNS).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&r.output),
        expected_output,
        "{}: native output",
        program.name
    );
    assert_eq!(r.exit_code, expected_exit, "{}: native exit", program.name);

    for scheme in [Scheme::Dictionary, Scheme::CodePack, Scheme::ByteDict] {
        for rf in [false, true] {
            let image = ImageSpec::Uniform { scheme, rf }.build(program).unwrap();
            let r = run_image(&image, cfg, MAX_INSNS).unwrap();
            assert_eq!(
                String::from_utf8_lossy(&r.output),
                expected_output,
                "{}: {scheme:?} rf={rf}",
                program.name
            );
            assert_eq!(
                r.exit_code, expected_exit,
                "{}: {scheme:?} rf={rf}",
                program.name
            );
            assert!(
                r.stats.exceptions > 0,
                "{}: decompressor must run",
                program.name
            );
        }
    }
}

/// Insertion sort of 64 xorshift32 values; checksum = Σ i·a[i] (wrapping),
/// computed independently in the test header's comment:
/// sorted ascending as *signed* ints, checksum = -162428379.
#[test]
fn sort_program_sorts() {
    assert_known_answer(&programs::sort_program(), "-162428379\n", 37);
}

/// CRC-32 (poly 0xEDB88320) over bytes 0..=255 is 0x29058C73 = 688229491 —
/// verifiable with any standard CRC-32 implementation.
#[test]
fn crc32_program_matches_standard_crc() {
    assert_known_answer(&programs::crc32_program(), "688229491\n", 115);
}

/// A[i][j] = i+2j+1, B[i][j] = 3i−j+2; trace(A·B) = 540.
#[test]
fn matmul_program_computes_trace() {
    assert_known_answer(&programs::matmul_program(), "540\n", 28);
}

/// b[i] = (7i+3) & 0xF for i<200 contains the pattern [10,1,8] exactly 13
/// times in positions 0..197.
#[test]
fn strsearch_program_counts_matches() {
    assert_known_answer(&programs::strsearch_program(), "13\n", 13);
}

/// Selective compression on a real program: keep the hot procedure native,
/// answers unchanged.
#[test]
fn known_answers_survive_selective_compression() {
    let cfg = SimConfig::hpca2000_baseline();
    let program = programs::crc32_program();
    let (_, profile) = profile_native(&program, cfg, MAX_INSNS).unwrap();
    for strategy in [SelectBy::Execution, SelectBy::Miss] {
        let sel = Selection::by_profile(&profile, strategy, 0.5);
        let image = build_planned(
            &program,
            &CompressionPlan::uniform(Scheme::Dictionary, false, PlanSource::Heuristic, &sel),
        )
        .unwrap();
        let r = run_image(&image, cfg, MAX_INSNS).unwrap();
        assert_eq!(String::from_utf8_lossy(&r.output), "688229491\n");
    }
}
