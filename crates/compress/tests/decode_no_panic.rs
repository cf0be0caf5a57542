//! Fuzz harness: `Codec::decode` must be total — typed errors, never
//! panics, never out-of-bounds reads — over three adversarial input
//! families, for every codec.
//!
//! 1. **mutated-valid** — a real compressed layout with random byte
//!    flips and truncations (the realistic corruption model: mostly
//!    valid structure, a few wrong bytes);
//! 2. **random garbage** — layouts whose segments are pure noise of
//!    plausible sizes (no valid structure at all);
//! 3. **resized** — valid segment bytes with lengths grown or shrunk,
//!    probing every length-validation path.
//!
//! Mutants, the iteration count (`RTDC_FUZZ_ITERS`) and the no-panic
//! check come from the shared harness (`rtdc_rng::fuzz`); a failure
//! names the codec and the iteration.

use rtdc_compress::bytedict::ByteDictCodec;
use rtdc_compress::codec::{Codec, CodecSegment, CompressedLayout, DecodeError};
use rtdc_compress::codepack::CodePackCodec;
use rtdc_compress::dictionary::DictionaryCodec;
use rtdc_compress::lzchunk::LzChunkCodec;
use rtdc_rng::{fuzz, Rng64};

/// Every codec the core registry registers, duplicated here because the
/// registry crate depends on this one; `registry_covers_all_codecs` in
/// `rtdc` guards the other direction.
const CODECS: &[&dyn Codec] = &[
    &DictionaryCodec,
    &CodePackCodec,
    &ByteDictCodec,
    &LzChunkCodec,
];

/// Instruction-like words: a hot pool plus random escapes.
fn words(rng: &mut Rng64, n: usize) -> Vec<u32> {
    let pool: Vec<u32> = (0..24).map(|_| rng.gen_u32()).collect();
    (0..n)
        .map(|_| {
            if rng.gen_range(0..4usize) == 0 {
                rng.gen_u32()
            } else {
                pool[rng.gen_range(0..pool.len())]
            }
        })
        .collect()
}

/// Decodes `layout` under the harness check: it must return (`Ok` or
/// `Err`) rather than panic, and the same outcome twice.
fn decode(
    codec: &dyn Codec,
    layout: &CompressedLayout,
    n: usize,
    what: &str,
) -> Result<Vec<u32>, DecodeError> {
    let case = format!("{what}, {}", codec.name());
    fuzz::check(case, layout, |l: &CompressedLayout| codec.decode(l, n))
}

#[test]
fn mutated_valid_layouts_never_panic() {
    for codec in CODECS {
        let mut rng = Rng64::seed_from_u64(0xFA57_0001 ^ codec.unit_words() as u64);
        let n = 16 * codec.unit_words();
        let clean = codec.compress(&words(&mut rng, n)).unwrap();
        for i in 0..fuzz::iters(200) {
            let mut layout = clean.clone();
            for _ in 0..rng.gen_range(1..3usize) {
                let si = rng.gen_range(0..layout.segments.len());
                fuzz::mutate(&mut rng, &mut layout.segments[si].bytes, &[]);
            }
            let _ = decode(*codec, &layout, n, &format!("{i} (mutated layout)"));
        }
    }
}

#[test]
fn garbage_layouts_never_panic() {
    for codec in CODECS {
        let mut rng = Rng64::seed_from_u64(0xFA57_0002 ^ codec.unit_words() as u64);
        let n = 8 * codec.unit_words();
        // Learn the segment names from one valid compress, then fill them
        // with noise of random sizes (including empty).
        let template = codec.compress(&words(&mut rng, n)).unwrap();
        for i in 0..fuzz::iters(200) {
            let layout = CompressedLayout {
                segments: template
                    .segments
                    .iter()
                    .map(|s| CodecSegment {
                        name: s.name,
                        bytes: (0..rng.gen_range(0..512usize))
                            .map(|_| rng.gen_range(0u8..=255))
                            .collect(),
                    })
                    .collect(),
            };
            let _ = decode(*codec, &layout, n, &format!("{i} (garbage layout)"));
        }
    }
}

#[test]
fn missing_segments_are_typed_errors() {
    for codec in CODECS {
        let mut rng = Rng64::seed_from_u64(0xFA57_0003);
        let n = 4 * codec.unit_words();
        let clean = codec.compress(&words(&mut rng, n)).unwrap();
        // Dropping any one segment entirely must be an Err, not a panic.
        for drop in 0..clean.segments.len() {
            let layout = CompressedLayout {
                segments: clean
                    .segments
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, s)| s.clone())
                    .collect(),
            };
            assert!(
                decode(*codec, &layout, n, &format!("{drop} (segment dropped)")).is_err(),
                "{}: decode without {} must fail",
                codec.name(),
                clean.segments[drop].name
            );
        }
        // The empty layout too.
        let empty = CompressedLayout::default();
        let outcome = decode(*codec, &empty, n, "0 (empty layout)");
        if n > 0 {
            assert!(outcome.is_err(), "{}", codec.name());
        }
    }
}
