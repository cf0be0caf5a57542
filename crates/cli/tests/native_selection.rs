//! `--select`/`--threshold` choose which procedures to compress, so they
//! mean nothing for a native image: `rtdc-run` must refuse them rather
//! than quietly build and run native, the way `--plan` refuses them.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtdc-run"))
        .args(args)
        .output()
        .expect("spawn rtdc-run")
}

#[test]
fn selection_flags_are_rejected_for_a_native_image() {
    for args in [
        &["--bench", "sort", "--scheme", "native", "--select", "miss"][..],
        &["--bench", "sort", "--select", "exec", "--threshold", "10"],
        &["--bench", "sort", "--threshold", "10"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "rtdc-run {args:?} succeeded");
        assert!(
            stderr.contains("--select/--threshold"),
            "rtdc-run {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "rtdc-run {args:?} ran the image");
    }
}

#[test]
fn selection_flags_still_drive_a_compressed_image() {
    let out = run(&[
        "--bench",
        "sort",
        "--scheme",
        "d",
        "--select",
        "exec",
        "--threshold",
        "50",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("sort [D]"));
}
