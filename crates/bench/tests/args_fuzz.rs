//! Fuzz targets for the command-line scanner (`rtdc_bench::args`), the
//! parser every tool reads its argv through.
//!
//! Each mutates a valid command line through the shared harness
//! (`rtdc_rng::fuzz`), splits it at spaces into argv and scans it with
//! a declaration shaped like the tools' (value flags, switches, an
//! operand); `RTDC_FUZZ_ITERS` scales them (e.g.
//! `RTDC_FUZZ_ITERS=20000 cargo test --release -p rtdc-bench --test
//! args_fuzz`).

use rtdc_bench::args::{ArgError, Args, Cli};
use rtdc_rng::{fuzz, Rng64};

const CLI: Cli = Cli {
    usage: "usage: tool [FILE] --bench NAME [--icache KB] [--jobs N] [--disasm N] \
            [--text-base ADDR] [--threshold PCT] [--metrics] [--verify-lines]",
    values: "bench icache jobs disasm text-base threshold",
    switches: "metrics verify-lines",
    operands: 0..=1,
};

const CORPUS: [&str; 4] = [
    "--bench crc32 --icache 16 --jobs 4 --metrics",
    "in.s --text-base 0x1000 --verify-lines",
    "--bench sort,go --disasm 20 --threshold 20 --jobs 1",
    "--metrics --bench tiny-loop --icache 4 --text-base 4096",
];

fn argv(bytes: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(bytes)
        .split(' ')
        .filter(|t| !t.is_empty())
        .map(String::from)
        .collect()
}

/// Every numeric accessor the tools use, on every numeric flag.
type Numbers = [Result<Option<u64>, ArgError>; 4];

fn numbers(args: &Args) -> Numbers {
    [
        args.num::<u32>("icache").map(|v| v.map(u64::from)),
        args.num::<usize>("jobs").map(|v| v.map(|n| n as u64)),
        args.num::<u64>("disasm"),
        args.addr("text-base").map(|v| v.map(u64::from)),
    ]
}

/// Mutated command lines scan to `Args` or a typed `ArgError`, the same
/// way twice; what scans keeps every value and operand apart from the
/// flags, and its numeric accessors are total.
#[test]
fn scanner_never_panics_on_mutated_command_lines() {
    let tokens: [&[u8]; 6] = [b" --", b" --bench", b" -h", b" --metrics", b"0x", b" "];
    let mut rng = Rng64::seed_from_u64(0xF031_0001);
    let mut rejected = 0;
    let iters = fuzz::iters(500);
    for i in 0..iters {
        let mut bytes = rng.choose(&CORPUS).as_bytes().to_vec();
        fuzz::mutate(&mut rng, &mut bytes, &tokens);
        let argv = argv(&bytes);
        let scanned = fuzz::check(i, &argv, |a: &Vec<String>| {
            CLI.parse(a.iter().cloned())
                .map(|args| (numbers(&args), args))
        });
        match scanned {
            Ok((_, args)) => {
                for op in args.operands() {
                    assert!(op == "-" || !op.starts_with('-'), "iter {i}: {argv:?}");
                }
                for flag in CLI.values.split_whitespace() {
                    let value = args.opt(flag).unwrap_or_default();
                    assert!(!value.starts_with("--"), "iter {i}: {argv:?}");
                }
            }
            Err(_) => rejected += 1,
        }
    }
    // Most single edits to a flag name or its value break the line.
    assert!(rejected * 4 > iters, "only {rejected} of {iters} rejected");
}

/// A command line whose one number sits past a 32- or 64-bit field
/// scans, and each accessor returns that number exactly or a typed
/// `BadValue`: never a wrapped or truncated value, never a default.
#[test]
fn boundary_numbers_are_kept_or_rejected() {
    let mut rng = Rng64::seed_from_u64(0xF031_0002);
    for i in 0..fuzz::iters(500) {
        let mut bytes = rng.choose(&CORPUS).as_bytes().to_vec();
        let value = fuzz::boundary(&mut rng, &mut bytes).expect("every line has a number");
        let argv = argv(&bytes);
        let args = fuzz::check(i, &argv, |a: &Vec<String>| CLI.parse(a.iter().cloned()))
            .unwrap_or_else(|e| panic!("iter {i}: {argv:?}: {e}"));
        let spellings = [value.to_string(), format!("{value:#x}")];
        for got in numbers(&args) {
            match got {
                // The corpus's own numbers are at most 4096.
                Ok(Some(n)) => assert!(n == value || n <= 4096, "iter {i}: {argv:?} read {n}"),
                Ok(None) => {}
                Err(ArgError::BadValue { value: v, .. }) => {
                    assert!(spellings.contains(&v), "iter {i}: {argv:?} rejected `{v}`")
                }
                Err(e) => panic!("iter {i}: {argv:?}: {e}"),
            }
        }
    }
}
