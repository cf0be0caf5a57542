//! Every serving tool's command line goes through the one strict
//! scanner (`rtdc_bench::args`): an undeclared flag is an error that
//! names it before any daemon starts, and `--help` succeeds.

use std::process::Command;

const BINS: [(&str, &str); 4] = [
    ("rtdc-serve", env!("CARGO_BIN_EXE_rtdc-serve")),
    ("servebench", env!("CARGO_BIN_EXE_servebench")),
    ("rtdc-top", env!("CARGO_BIN_EXE_rtdc-top")),
    ("chaosweep", env!("CARGO_BIN_EXE_chaosweep")),
];

#[test]
fn undeclared_flags_are_named_and_start_no_daemon() {
    let dir = std::env::temp_dir().join(format!("rtdc-serve-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let socket = dir.join("d.sock");
    let out_file = dir.join("bench.json");
    for (name, bin) in BINS {
        let out = Command::new(bin)
            .arg("--no-such-flag")
            .arg(&socket)
            .arg("--out")
            .arg(&out_file)
            .output()
            .expect("spawn tool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{name}: unknown flag `--no-such-flag`")),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} did work");
        assert!(!socket.exists(), "{name} bound a socket");
        assert!(!out_file.exists(), "{name} wrote a report");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
