//! Every tool's command line goes through the one strict scanner
//! (`rtdc_bench::args`): an undeclared flag is an error that names it
//! before any work starts, `--help` succeeds, and the misreads the old
//! lenient scanner let through (a typo'd or valueless flag running a
//! different machine, an unparsable address assembling at the default)
//! are errors.

use std::process::{Command, Output};

const BINS: [(&str, &str); 3] = [
    ("rtdc-run", env!("CARGO_BIN_EXE_rtdc-run")),
    ("rtdc-asm", env!("CARGO_BIN_EXE_rtdc-asm")),
    ("rtdc-dis", env!("CARGO_BIN_EXE_rtdc-dis")),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn tool")
}

/// A small assembly source in a fresh temporary directory.
fn source() -> String {
    let dir = std::env::temp_dir().join(format!("rtdc-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("in.s");
    std::fs::write(&path, "main: li $v0,10\nsyscall\n").expect("write source");
    path.to_string_lossy().into_owned()
}

#[test]
fn undeclared_flags_are_named_and_stop_the_tool() {
    let input = source();
    let valid: [&[&str]; 3] = [
        &["--bench", "crc32"],
        &[&input, "--symbols"],
        &[&input, "--base", "0x1000"],
    ];
    for ((name, bin), valid) in BINS.into_iter().zip(valid) {
        let out = run(bin, &[valid, &["--no-such-flag"]].concat());
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
        let out = run(bin, &["--help"]);
        assert!(out.status.success(), "{name}");
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with(&format!("usage: {name}")),
            "{name}"
        );
    }
}

#[test]
fn former_silent_misreads_are_errors_that_name_the_flag() {
    let input = source();
    let (run_bin, asm_bin) = (BINS[0].1, BINS[1].1);
    for (bin, line, flag) in [
        (run_bin, "--bench crc32 --shceme d", "--shceme"),
        (run_bin, "--bench crc32 --scheme", "--scheme"),
        (run_bin, "--bench crc32 --scheme --metrics", "--scheme"),
        (run_bin, "--bench crc32 --icache", "--icache"),
        (
            run_bin,
            "--bench crc32 --scheme d --verify-line",
            "--verify-line",
        ),
        (run_bin, "--bench crc32 --jobs x", "--jobs"),
        (run_bin, "--bench crc32 --icache 4294967297", "--icache"),
        (run_bin, "--bench crc32 --scheme d --scheme cp", "--scheme"),
        (
            run_bin,
            "--bench sort --scheme d --select miss --threshold 150",
            "--threshold",
        ),
        (
            run_bin,
            "--bench sort --scheme d --select miss --threshold NaN",
            "--threshold",
        ),
        (asm_bin, "IN --text-base zz", "--text-base"),
        (asm_bin, "IN --data-base 0x100000000", "--data-base"),
    ] {
        let args = line
            .split(' ')
            .map(|a| if a == "IN" { input.as_str() } else { a });
        let out = Command::new(bin).args(args).output().expect("spawn tool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // Exit 1 or 2: a typed error, never a panic's 101.
        assert!(matches!(out.status.code(), Some(1 | 2)), "{line}: {stderr}");
        assert!(stderr.contains(flag), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} did work");
    }
}

#[test]
fn a_switch_never_takes_the_operand_after_it() {
    let out = run(BINS[1].1, &["--symbols", &source()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "0x00001000 main\n");
}
