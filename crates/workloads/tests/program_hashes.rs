//! Byte-identity guard for the workload generator: every analog and
//! every tiny spec, linked at `TEXT_BASE`, hashes to a pinned value.
//!
//! The hash covers each program's linked instruction words in link order
//! and its `.data` image with the address tables patched in, so any
//! change to generation — sampler, vocabulary, procedure layout, data —
//! moves it. The hash is FNV-1a 64 over the little-endian bytes, written
//! out here so it cannot drift with a library.
//!
//! A mismatch prints every spec's actual hash; paste them in only when a
//! change to the generated programs is intended.

use rtdc_isa::encode;
use rtdc_isa::program::{ObjectProgram, Placement, ProcId};
use rtdc_sim::map;
use rtdc_workloads::{all_benchmarks, generate, spec, BenchmarkSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64 over the program's linked words, then its patched data.
fn program_hash(p: &ObjectProgram) -> u64 {
    let placement = Placement::contiguous(p, map::TEXT_BASE).expect("placement");
    let mut h = FNV_OFFSET;
    for id in 0..p.procedures.len() {
        for insn in p.link_proc(ProcId(id), &placement).expect("link") {
            h = fnv1a(h, &encode(insn).to_le_bytes());
        }
    }
    fnv1a(h, &p.patched_data(&placement).expect("data"))
}

const PINNED: [(&str, u64); 11] = [
    ("cc1", 0x369f_6957_2ab4_d80f),
    ("ghostscript", 0x6f48_a9f7_2c59_b2cf),
    ("go", 0x1cac_8a9a_f240_249a),
    ("ijpeg", 0x35fc_4400_df11_5af5),
    ("mpeg2enc", 0x78d1_52d7_0bbb_af35),
    ("pegwit", 0x279e_1e8b_4a32_acf6),
    ("perl", 0x62f0_2b7d_a607_ef7f),
    ("vortex", 0x2bd6_bbd3_2504_0114),
    ("tiny-walker", 0x0240_f065_ee91_5297),
    ("tiny-loop", 0xbc2e_abc4_04ce_1500),
    ("tiny-interp", 0xa304_b4ae_26eb_480c),
];

#[test]
fn every_generated_program_hashes_to_its_pinned_value() {
    let mut specs: Vec<BenchmarkSpec> = all_benchmarks();
    specs.extend([
        spec::tiny::walker(),
        spec::tiny::loop_kernel(),
        spec::tiny::interpreter(),
    ]);
    let actual: Vec<(&str, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|s| scope.spawn(move || (s.name, program_hash(&generate(s)))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generation panicked"))
            .collect()
    });
    let report: String = actual
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(actual, PINNED, "actual hashes:\n{report}");
}
