//! Golden built images: every image the builders make from the generated
//! programs must match the fingerprint recorded in
//! `tests/golden/images.txt`.
//!
//! The set covers the 8 paper analogs and the 3 tiny specs under all 9
//! uniform labels (native, and each scheme with and without the second
//! register file), plus one hybrid plan per analog × scheme: every third
//! procedure native and the ranks reversed, so the `.native` segment and
//! a non-identity layout are covered too.
//!
//! Each line fingerprints what a build decides: every segment (name,
//! base, length, CRC32), the C0 initial values, the entry PC, the
//! per-procedure regions, the per-line reference CRCs and the size
//! report. Any change to a codec, the linker, the handler sources or the
//! layout moves a line. If a deliberate change moves one, the failure
//! message prints the new line to paste into the golden file.

use rtdc_repro::core::integrity::crc32;
use rtdc_repro::core::prelude::*;
use rtdc_repro::isa::program::ObjectProgram;
use rtdc_repro::workloads::{all_benchmarks, generate, spec, BenchmarkSpec};

const GOLDEN: &str = include_str!("golden/images.txt");

fn crc_of<T: Copy, const N: usize>(values: &[T], bytes: fn(T) -> [u8; N]) -> u32 {
    let buf: Vec<u8> = values.iter().flat_map(|&v| bytes(v)).collect();
    crc32(&buf)
}

/// One golden line for `image`, keyed by `bench` and `label`.
fn fingerprint(bench: &str, label: &str, image: &MemoryImage) -> String {
    let segs: Vec<String> = image
        .segments
        .iter()
        .map(|s| {
            format!(
                "{}@{:08x}+{}:{:08x}",
                s.name,
                s.base,
                s.bytes.len(),
                crc32(&s.bytes)
            )
        })
        .collect();
    let c0: Vec<String> = image
        .c0_init
        .iter()
        .map(|&(reg, v)| format!("{}={v:08x}", u8::from(reg)))
        .collect();
    let regions: Vec<u8> = image
        .proc_regions
        .iter()
        .flat_map(|&(start, end, id)| {
            [start, end, id as u32]
                .into_iter()
                .flat_map(u32::to_le_bytes)
        })
        .collect();
    let s = image.sizes;
    format!(
        "{bench} {label} entry={:08x} segs={} c0={} regions={}:{:08x} lines={}:{:08x} \
         sizes={}/{}/{}/{}",
        image.entry,
        segs.join(","),
        c0.join(","),
        image.proc_regions.len(),
        crc32(&regions),
        image.line_crcs.len(),
        crc_of(&image.line_crcs, u32::to_le_bytes),
        s.original_text_bytes,
        s.native_text_bytes,
        s.compressed_payload_bytes,
        s.handler_bytes,
    )
}

/// Every third procedure native, ranks reversed.
fn build_hybrid(program: &ObjectProgram, scheme: Scheme) -> MemoryImage {
    let n = program.procedures.len();
    let selection = Selection::from_native_set((0..n).step_by(3).collect(), n);
    let order: Vec<usize> = (0..n).rev().collect();
    let plan =
        CompressionPlan::from_order(scheme, false, PlanSource::Heuristic, 0, &selection, &order)
            .expect("reversed order is a permutation");
    build_planned(program, &plan).expect("hybrid build")
}

fn lines_for(spec: &BenchmarkSpec, hybrid: bool) -> Vec<String> {
    let program = generate(spec);
    let mut lines: Vec<String> = ImageSpec::uniform_families()
        .map(|image| {
            let built = image.build(&program).expect("uniform build");
            fingerprint(spec.name, &image.label(), &built)
        })
        .collect();
    if hybrid {
        for scheme in Scheme::all() {
            let label = format!("hybrid-{}", scheme.name());
            lines.push(fingerprint(
                spec.name,
                &label,
                &build_hybrid(&program, scheme),
            ));
        }
    }
    lines
}

#[test]
fn built_images_match_golden() {
    let mut specs: Vec<(BenchmarkSpec, bool)> =
        all_benchmarks().into_iter().map(|s| (s, true)).collect();
    specs.extend(
        [
            spec::tiny::walker(),
            spec::tiny::loop_kernel(),
            spec::tiny::interpreter(),
        ]
        .into_iter()
        .map(|s| (s, false)),
    );
    let actual: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|(s, hybrid)| scope.spawn(move || lines_for(s, *hybrid)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("build panicked"))
            .collect()
    });
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let mut mismatches = Vec::new();
    for line in &actual {
        let key: Vec<&str> = line.splitn(3, ' ').take(2).collect();
        let want = golden
            .iter()
            .find(|g| g.splitn(3, ' ').take(2).eq(key.iter().copied()));
        if want != Some(&line.as_str()) {
            mismatches.push(format!("want {want:?}\n got {line}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "built images differ from tests/golden/images.txt:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(
        golden.len(),
        actual.len(),
        "golden file has {} image lines, the builders made {}",
        golden.len(),
        actual.len()
    );
}
