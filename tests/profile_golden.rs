//! Golden native profiles: `profile_native` on every paper analog must
//! reproduce the per-procedure exec and I-miss counts and the region
//! entry trace recorded in `tests/golden/profiles.txt`.
//!
//! These profiles drive selective compression (table2, fig5, ablation,
//! proccache, policy), so any change to how the simulator attributes
//! work to procedures shows up here as a mismatch. The vectors are
//! fingerprinted (length, sum, CRC32) to keep the golden file small.
//! If a deliberate model change moves a profile, the failure message
//! prints the new line to paste into the golden file.

use rtdc_repro::core::integrity::crc32;
use rtdc_repro::core::prelude::*;
use rtdc_repro::workloads::{all_benchmarks, generate};

const GOLDEN: &str = include_str!("golden/profiles.txt");
const MAX_INSNS: u64 = 2_000_000_000;

fn crc_of<T: Copy, const N: usize>(values: &[T], bytes: fn(T) -> [u8; N]) -> u32 {
    let buf: Vec<u8> = values.iter().flat_map(|&v| bytes(v)).collect();
    crc32(&buf)
}

/// One golden line for `profile`.
fn fingerprint(name: &str, profile: &ProcedureProfile) -> String {
    format!(
        "{name} procs={} exec_sum={} exec_crc={:08x} miss_sum={} miss_crc={:08x} \
         entries={} entry_crc={:08x} truncated={}",
        profile.exec.len(),
        profile.exec.iter().sum::<u64>(),
        crc_of(&profile.exec, u64::to_le_bytes),
        profile.miss.iter().sum::<u64>(),
        crc_of(&profile.miss, u64::to_le_bytes),
        profile.entry_trace.len(),
        crc_of(&profile.entry_trace, u32::to_le_bytes),
        profile.entry_trace_truncated,
    )
}

#[test]
fn native_profiles_match_golden() {
    let cfg = SimConfig::hpca2000_baseline();
    let mut mismatches = Vec::new();
    for spec in all_benchmarks() {
        let program = generate(&spec);
        let (_, profile) = profile_native(&program, cfg, MAX_INSNS).expect("profile run");
        let got = fingerprint(spec.name, &profile);
        let want = GOLDEN
            .lines()
            .find(|l| l.split(' ').next() == Some(spec.name));
        if want != Some(got.as_str()) {
            mismatches.push(format!("want {want:?}\n got {got}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "native profiles differ from tests/golden/profiles.txt:\n{}",
        mismatches.join("\n")
    );
}
