//! The workspace's one fuzz harness: the iteration count, one
//! byte-mutation family and one no-panic check, shared by every parser's
//! fuzz target (JSON lines, serve requests, store files, codec layouts,
//! compression plans, image files, assembly source and fault specs).
//!
//! A target seeds an [`Rng64`], takes a valid input, edits a copy with
//! [`mutate`] and runs its parser on the mutant under [`check`]; its own
//! properties (round trips, rejection floors) stay in the target. A
//! text parser also runs a second loop over [`boundary`] mutants, whose
//! one number sits just past a 32- or 64-bit field: the parser must
//! keep that number exactly or reject it, never wrap or truncate it.
//!
//! A plain `cargo test` runs each target's smoke count; set
//! `RTDC_FUZZ_ITERS` to fuzz longer (e.g. `RTDC_FUZZ_ITERS=20000 cargo
//! test --release -p rtdc-sim --test json_fuzz`).

use std::fmt::{Debug, Display};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::Rng64;

/// A target's iteration count: `RTDC_FUZZ_ITERS` when it holds a
/// number, else `default` (the smoke count a plain test run uses).
pub fn iters(default: u64) -> u64 {
    std::env::var("RTDC_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Applies one to three random edits to `bytes`, each one of: flip a
/// bit, set a byte, truncate, insert a byte, duplicate a window of up to
/// 16 bytes in place, splice in one of the caller's `tokens` (nesting
/// bombs, keywords, hostile values), or append up to 64 garbage bytes.
/// An edit that needs a byte to act on appends garbage to an empty
/// input instead.
pub fn mutate(rng: &mut Rng64, bytes: &mut Vec<u8>, tokens: &[&[u8]]) {
    for _ in 0..rng.gen_range(1..4usize) {
        let len = bytes.len();
        let at = rng.gen_range(0..=len);
        match rng.gen_range(0..7u32) {
            0 if at < len => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 if at < len => bytes[at] = rng.gen_u32() as u8,
            2 => bytes.truncate(at),
            3 => bytes.insert(at, rng.gen_u32() as u8),
            4 => {
                let window = bytes[at..rng.gen_range(at..=len.min(at + 16))].to_vec();
                bytes.splice(at..at, window);
            }
            5 if !tokens.is_empty() => {
                bytes.splice(at..at, rng.choose(tokens).iter().copied());
            }
            _ => bytes.extend((0..rng.gen_range(1..=64usize)).map(|_| rng.gen_u32() as u8)),
        }
    }
}

/// The values [`boundary`] writes: 2^31, 2^32−1, 2^32+1 and 2^64−1,
/// at or just past the edge of a signed 32-bit, an unsigned 32-bit and
/// an unsigned 64-bit field.
pub const BOUNDARY_VALUES: [u64; 4] = [1 << 31, 0xffff_ffff, (1 << 32) + 1, u64::MAX];

/// Replaces one numeric token of `bytes`, chosen at random, with one of
/// [`BOUNDARY_VALUES`] and returns the value written, or `None` (and
/// leaves `bytes` alone) if there is no token. A token is a `0x` hex
/// number, rewritten in hex, or a run of decimal digits, rewritten in
/// decimal. Kept apart from [`mutate`], so every existing target's
/// seeded mutant stream stays as it is.
pub fn boundary(rng: &mut Rng64, bytes: &mut Vec<u8>) -> Option<u64> {
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let hex = bytes[i] == b'0'
            && bytes.get(i + 1) == Some(&b'x')
            && bytes.get(i + 2).is_some_and(u8::is_ascii_hexdigit);
        let (start, digit): (usize, fn(&u8) -> bool) = match bytes[i] {
            _ if hex => (i + 2, u8::is_ascii_hexdigit),
            b'0'..=b'9' => (i, u8::is_ascii_digit),
            _ => {
                i += 1;
                continue;
            }
        };
        let end = start + bytes[start..].iter().take_while(|b| digit(b)).count();
        tokens.push((i, end, hex));
        i = end;
    }
    if tokens.is_empty() {
        return None;
    }
    let (at, end, hex) = *rng.choose(&tokens);
    let value = *rng.choose(&BOUNDARY_VALUES);
    let text = if hex {
        format!("{value:#x}")
    } else {
        value.to_string()
    };
    bytes.splice(at..end, text.into_bytes());
    Some(value)
}

/// Runs `f` on `input` twice and returns its result. Fails, naming
/// `case` (the iteration, plus whatever else the target adds) and the
/// input, if a call panics instead of returning or the two calls
/// disagree: a parser of outside bytes must turn every input into one
/// defined, typed outcome.
pub fn check<I, T, F>(case: impl Display, input: &I, f: F) -> T
where
    I: Debug + ?Sized,
    T: PartialEq + Debug,
    F: Fn(&I) -> T,
{
    let once = catch_unwind(AssertUnwindSafe(|| f(input)))
        .unwrap_or_else(|_| panic!("iter {case}: panicked on {input:?}"));
    assert_eq!(
        once,
        f(input),
        "iter {case}: two calls disagree on {input:?}"
    );
    once
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutate_is_seeded_and_edits() {
        let run = |seed| {
            let mut rng = Rng64::seed_from_u64(seed);
            let mut bytes = b"{\"op\":\"stats\"}".to_vec();
            mutate(&mut rng, &mut bytes, &[b"[[[".as_slice()]);
            bytes
        };
        assert_eq!(run(7), run(7));
        let changed = (0..100)
            .filter(|&s| run(s) != b"{\"op\":\"stats\"}")
            .count();
        assert!(changed > 90, "only {changed} of 100 mutants differ");
    }

    #[test]
    fn boundary_rewrites_one_number_in_its_radix() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let mut rng = Rng64::seed_from_u64(seed);
            let mut bytes = b"flip:.text:0x10:7".to_vec();
            let value = boundary(&mut rng, &mut bytes).unwrap();
            let text = String::from_utf8(bytes).unwrap();
            let hex = format!("flip:.text:{value:#x}:7");
            let dec = format!("flip:.text:0x10:{value}");
            assert!(text == hex || text == dec, "{text}");
            seen.insert((value, text == hex));
        }
        assert_eq!(seen.len(), 8, "every value in both tokens");
        let mut bytes = b"abc".to_vec();
        assert_eq!(boundary(&mut Rng64::seed_from_u64(1), &mut bytes), None);
        assert_eq!(bytes, b"abc");
    }

    #[test]
    #[should_panic(expected = "iter 3: panicked on")]
    fn check_names_the_iteration_of_a_panic() {
        check(3, "x", |s: &str| -> u32 { s.parse().unwrap() });
    }
}
