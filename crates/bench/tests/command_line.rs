//! Every bench tool's command line goes through the one strict scanner
//! (`rtdc_bench::args`): an undeclared flag is an error that names it
//! before any simulation starts, and `--help` succeeds.

use std::process::Command;

const BINS: [(&str, &str); 6] = [
    ("benchguard", env!("CARGO_BIN_EXE_benchguard")),
    ("calibrate", env!("CARGO_BIN_EXE_calibrate")),
    ("faultsweep", env!("CARGO_BIN_EXE_faultsweep")),
    ("planopt", env!("CARGO_BIN_EXE_planopt")),
    ("simperf", env!("CARGO_BIN_EXE_simperf")),
    ("tracestat", env!("CARGO_BIN_EXE_tracestat")),
];

#[test]
fn undeclared_flags_are_named_and_stop_the_tool() {
    for (name, bin) in BINS {
        let out = Command::new(bin)
            .arg("--no-such-flag")
            .output()
            .expect("spawn tool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{name}: unknown flag `--no-such-flag`")),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} did work");
    }
}

#[test]
fn help_succeeds() {
    for (name, bin) in BINS {
        let out = Command::new(bin)
            .arg("--help")
            .output()
            .expect("spawn tool");
        assert!(out.status.success(), "{name}");
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with(&format!("usage: {name}")),
            "{name}"
        );
    }
}

#[test]
fn malformed_numbers_are_errors_that_name_the_flag() {
    for (bin, args, flag) in [
        (BINS[4].1, &["--repeat", "x"][..], "--repeat"),
        (BINS[4].1, &["--jobs", "-1"], "--jobs"),
        (BINS[2].1, &["--faults", "4294967296x"], "--faults"),
        (
            BINS[3].1,
            &[
                "--bench",
                "go",
                "--scheme",
                "d",
                "--max-iters",
                "4294967296",
            ],
            "--max-iters",
        ),
        (BINS[5].1, &["t.jsonl", "--line-bytes"], "--line-bytes"),
        (
            BINS[3].1,
            &["--bench", "go", "--scheme", "d", "--budget-pct", "150"],
            "--budget-pct",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn tool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // Exit 1 or 2: a typed error, never a panic's 101.
        assert!(
            matches!(out.status.code(), Some(1 | 2)),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work");
    }
}
