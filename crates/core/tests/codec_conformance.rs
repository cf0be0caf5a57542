//! Registry-driven codec conformance suite.
//!
//! Every test here enumerates the scheme registry and runs *identically*
//! over every registered codec — including any codec added later. This is
//! the executable contract for "adding a scheme": implement the trait,
//! write the handler, add the registry entry, and these tests take it
//! from there:
//!
//! 1. **roundtrip** — compress → serialized segment bytes → decode
//!    reproduces the input exactly (through the same bytes the run-time
//!    handler reads);
//! 2. **segment-layout invariants** — unique names, payload accounting,
//!    a resolvable C0 ABI;
//! 3. **handler differential** — a compressed image runs architecturally
//!    identical to its native build, with the handler filling exactly one
//!    decode unit per miss;
//! 4. **negative paths** — an overlong decode request is a typed error;
//!    corrupted images are rejected at load, and post-load corruption is
//!    caught at the first affected miss by the `--verify-lines` runner.
//!    That decoding mutated bytes never panics is the fuzz target
//!    `rtdc-compress/tests/decode_no_panic.rs`, over the same codecs.

use rtdc::prelude::*;
use rtdc::registry::C0Binding;
use rtdc_isa::asm::assemble;
use rtdc_isa::program::{ObjInsn, ObjectProgram, ProcId, Procedure};
use rtdc_rng::Rng64;
use rtdc_sim::map;

/// Random instruction-word streams with dictionary-friendly repetition
/// (a small hot pool) plus a unique tail, so every codec's code paths
/// (short codes, escapes, copies, literals) are exercised.
fn words(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng64::seed_from_u64(seed);
    let pool: Vec<u32> = (0..32).map(|_| rng.next_u64() as u32).collect();
    (0..n)
        .map(|_| {
            if rng.gen_range(0..4usize) == 0 {
                rng.next_u64() as u32
            } else {
                pool[rng.gen_range(0..pool.len())]
            }
        })
        .collect()
}

#[test]
fn roundtrip_through_serialized_bytes() {
    for scheme in Scheme::all() {
        let codec = scheme.codec();
        for n_units in [0usize, 1, 3, 7] {
            let n = n_units * codec.unit_words();
            let w = words(n, 0x5eed_0000 + n as u64);
            let layout = codec.compress(&w).unwrap();
            let decoded = codec
                .decode(&layout, n)
                .unwrap_or_else(|e| panic!("{}: {n}-word decode failed: {e}", codec.name()));
            assert_eq!(decoded, w, "{}: {n}-word roundtrip failed", codec.name());
        }
        // Non-unit-aligned input must roundtrip too (codecs pad internally
        // and trim on decode).
        let n = codec.unit_words() + 3;
        let w = words(n, 0xA11A);
        let layout = codec.compress(&w).unwrap();
        assert_eq!(codec.decode(&layout, n).unwrap(), w, "{}", codec.name());
    }
}

#[test]
fn segment_layout_invariants() {
    for scheme in Scheme::all() {
        let codec = scheme.codec();
        let w = words(4 * codec.unit_words(), 0xBEEF);
        let layout = codec.compress(&w).unwrap();

        // Names are unique, non-empty, and segment-like.
        for (i, seg) in layout.segments.iter().enumerate() {
            assert!(seg.name.starts_with('.'), "{}: {}", codec.name(), seg.name);
            for other in &layout.segments[i + 1..] {
                assert_ne!(seg.name, other.name, "{}", codec.name());
            }
        }
        // Payload accounting is exactly the segment sum.
        assert_eq!(
            layout.payload_bytes(),
            layout.segments.iter().map(|s| s.bytes.len()).sum::<usize>()
        );
        // The C0 ABI only names segments the codec actually produces.
        for &(_, binding) in scheme.handler().c0 {
            if let C0Binding::Segment(name) = binding {
                assert!(
                    layout.segment(name).is_some(),
                    "{}: C0 ABI names missing segment {name}",
                    codec.name()
                );
            }
        }
        // The region alignment is a whole number of decode units, so a
        // unit-aligned region is always representable.
        assert_eq!(codec.region_align() as usize % (4 * codec.unit_words()), 0);
    }
}

/// A small multi-procedure program: `main` loops calling `mix` and a
/// straight-line `filler` big enough to span several 512-byte LZ chunks,
/// prints a checksum, and exits with a derived code.
fn conformance_program() -> ObjectProgram {
    let body = |src: &str| -> Vec<ObjInsn> {
        assemble(src, 0, map::DATA_BASE)
            .expect("conformance test body")
            .text
            .into_iter()
            .map(ObjInsn::Insn)
            .collect()
    };

    let mut main = Vec::new();
    main.extend(body("li $s0,9\nli $s1,0\n"));
    let loop_head = main.len();
    main.extend(body("move $a0,$s1\n"));
    main.push(ObjInsn::Call(ProcId(1)));
    main.extend(body("move $s1,$v0\nmove $a0,$s1\n"));
    main.push(ObjInsn::Call(ProcId(2)));
    main.extend(body("move $s1,$v0\n"));
    let back = {
        let cur = main.len() + 1;
        let off = loop_head as i64 - (cur as i64 + 1);
        body(&format!("add $s0,$s0,-1\nbne $s0,$0,{off}\n"))
    };
    main.extend(back);
    main.extend(body(
        "move $a0,$s1\nli $v0,1\nsyscall\nandi $a0,$s1,0x7f\nli $v0,10\nsyscall\n",
    ));

    let mix = body(
        "sll $t0,$a0,3\nxor $t0,$t0,$a0\nsrl $t1,$t0,5\nadd $v0,$t0,$t1\nadd $v0,$v0,1\njr $ra\n",
    );

    // ~300 straight-line instructions so the compressed region spans
    // multiple LZ chunks; repetitive with variation, like filler code.
    let mut filler_src = String::from("move $v0,$a0\n");
    for i in 0..75 {
        filler_src.push_str(&format!(
            "add $v0,$v0,{}\nxor $v0,$v0,$a0\nsll $t0,$v0,1\nsrl $t1,$t0,{}\n",
            i % 13,
            1 + i % 7
        ));
    }
    filler_src.push_str("jr $ra\n");
    let filler = body(&filler_src);

    ObjectProgram {
        name: "conformance".into(),
        procedures: vec![
            Procedure::new("main", main),
            Procedure::new("mix", mix),
            Procedure::new("filler", filler),
        ],
        data: Vec::new(),
        entry: ProcId(0),
        addr_tables: Vec::new(),
    }
}

#[test]
fn images_account_sizes_for_every_scheme() {
    // Satellite: every codec's SizeReport segments sum to the image size
    // and the compressed region obeys the §3 alignment rules.
    let p = conformance_program();
    for scheme in Scheme::all() {
        let codec = scheme.codec();
        let img = ImageSpec::Uniform { scheme, rf: false }.build(&p).unwrap();

        // The codec's segments are everything that is not .native,
        // .decompressor, or .data; they must sum to the payload.
        let codec_seg_bytes: usize = img
            .segments
            .iter()
            .filter(|s| !matches!(s.name.as_str(), ".native" | ".decompressor" | ".data"))
            .map(|s| s.bytes.len())
            .sum();
        assert_eq!(
            img.sizes.compressed_payload_bytes as usize, codec_seg_bytes,
            "{scheme:?}: payload bytes must equal codec segment sum"
        );
        assert_eq!(
            img.sizes.handler_bytes as usize,
            img.segment(".decompressor").unwrap().bytes.len(),
            "{scheme:?}"
        );
        let native_len = img.segment(".native").map_or(0, |s| s.bytes.len());
        assert_eq!(
            img.sizes.native_text_bytes as usize, native_len,
            "{scheme:?}"
        );
        assert_eq!(
            img.sizes.total_code_bytes(),
            img.sizes.native_text_bytes + img.sizes.compressed_payload_bytes
        );

        // §3 alignment rules: the compressed region starts at the text
        // base and ends on a codec decode-unit boundary; codec segments
        // are laid out 4-byte aligned, contiguous from the compressed
        // base, and never overlap.
        let (start, end) = img.compressed_range.unwrap();
        assert_eq!(start, map::TEXT_BASE);
        assert_eq!(end % codec.region_align(), 0, "{scheme:?}");
        let mut cursor = map::COMPRESSED_BASE;
        for seg in img
            .segments
            .iter()
            .filter(|s| !matches!(s.name.as_str(), ".native" | ".decompressor" | ".data"))
        {
            assert_eq!(seg.base % 4, 0, "{scheme:?}: {} unaligned", seg.name);
            assert_eq!(seg.base, cursor, "{scheme:?}: {} not contiguous", seg.name);
            cursor = (seg.base + seg.bytes.len() as u32).div_ceil(4) * 4;
        }
    }
}

#[test]
fn handler_differential_run_vs_native_for_every_scheme() {
    let cfg = SimConfig::hpca2000_baseline();
    let p = conformance_program();
    let native_img = build_native(&p).unwrap();
    let native = run_image(&native_img, cfg, 10_000_000).unwrap();
    for scheme in Scheme::all() {
        for rf in [false, true] {
            let img = ImageSpec::Uniform { scheme, rf }.build(&p).unwrap();
            let r = run_image(&img, cfg, 50_000_000).unwrap();
            assert_eq!(r.exit_code, native.exit_code, "{scheme:?} rf={rf}");
            assert_eq!(r.output, native.output, "{scheme:?} rf={rf}");
            assert_eq!(
                r.stats.program_insns, native.stats.program_insns,
                "{scheme:?} rf={rf}"
            );
            assert!(r.stats.exceptions > 0, "{scheme:?} rf={rf}");
            // Each miss exception fills exactly one decode unit.
            assert_eq!(
                r.stats.swics,
                scheme.codec().unit_words() as u64 * r.stats.exceptions,
                "{scheme:?} rf={rf}: one decode unit per miss"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Negative paths: corruption must surface as typed errors, never panics.
// ---------------------------------------------------------------------

/// A decode request for more words than the payload carries is a typed
/// error, not a short read.
#[test]
fn decode_rejects_overlong_requests() {
    for scheme in Scheme::all() {
        let codec = scheme.codec();
        let n = 2 * codec.unit_words();
        let layout = codec.compress(&words(n, 0x0DD5)).unwrap();
        assert!(
            codec.decode(&layout, n + codec.unit_words()).is_err(),
            "{}: overlong decode must fail",
            codec.name()
        );
    }
}

/// Any single stored-image bit flip in any code-carrying segment is
/// caught by load-time CRC verification, for every scheme.
#[test]
fn load_rejects_stored_bit_flips_for_every_scheme() {
    let p = conformance_program();
    let cfg = SimConfig::hpca2000_baseline();
    for scheme in Scheme::all() {
        let clean = ImageSpec::Uniform { scheme, rf: false }.build(&p).unwrap();
        let plan = rtdc::fault::FaultPlan::random(0xC0FFEE, 4, &clean);
        for fault in &plan.faults {
            if matches!(fault.kind, rtdc::fault::FaultKind::Truncate) {
                continue; // covered by truncation_is_a_length_mismatch
            }
            let mut img = clean.clone();
            rtdc::fault::FaultPlan {
                faults: vec![fault.clone()],
            }
            .apply(&mut img)
            .unwrap();
            match load_image(&img, cfg) {
                Err(ImageError::ChecksumMismatch { segment, .. }) => {
                    assert_eq!(segment, fault.segment, "{scheme:?}: wrong segment blamed")
                }
                other => panic!("{scheme:?}: fault {fault} not caught at load: {other:?}"),
            }
        }
    }
}

/// Truncating a segment is a `LengthMismatch` (rejected outright, never
/// silently zero-padded back to size).
#[test]
fn truncation_is_a_length_mismatch() {
    let p = conformance_program();
    let cfg = SimConfig::hpca2000_baseline();
    for scheme in Scheme::all() {
        let mut img = ImageSpec::Uniform { scheme, rf: false }.build(&p).unwrap();
        let seg = img.segments[0].name.clone();
        rtdc::fault::FaultPlan::parse(&format!("trunc:{seg}:1"), &img)
            .unwrap()
            .apply(&mut img)
            .unwrap();
        assert!(
            matches!(
                load_image(&img, cfg),
                Err(ImageError::LengthMismatch { segment, .. }) if segment == seg
            ),
            "{scheme:?}: truncated {seg} must be a LengthMismatch"
        );
    }
}

/// Post-load corruption (stale digests re-measured, so load passes) is
/// caught by the `--verify-lines` runner at a miss — or, at worst, turns
/// into a typed simulator error; it must never complete with the native
/// architectural result while executing wrong code undetected by the
/// runner. At least one seed per scheme must produce a `CorruptFill`.
#[test]
fn verify_lines_catches_post_load_corruption() {
    let p = conformance_program();
    let cfg = SimConfig::hpca2000_baseline();
    for scheme in Scheme::all() {
        let clean = ImageSpec::Uniform { scheme, rf: false }.build(&p).unwrap();
        // Clean image sanity: the verified runner matches the plain one.
        let plain = run_image(&clean, cfg, 50_000_000).unwrap();
        let verified = run_image_verified(&clean, cfg, 50_000_000).unwrap();
        assert_eq!(verified.exit_code, plain.exit_code, "{scheme:?}");
        assert_eq!(verified.stats, plain.stats, "{scheme:?}");

        let mut caught_at_miss = false;
        for seed in 0..32u64 {
            let mut img = clean.clone();
            let plan = rtdc::fault::FaultPlan::random(seed, 1, &img);
            // Skip faults outside the codec payload (handler/native faults
            // are interesting for faultsweep, but here we want fills).
            if plan
                .faults
                .iter()
                .any(|f| matches!(f.segment.as_str(), ".decompressor" | ".native"))
            {
                continue;
            }
            plan.apply(&mut img).unwrap();
            img.seal(); // model post-load corruption
            match run_image_verified(&img, cfg, 50_000_000) {
                Err(RunError::CorruptFill { .. }) => caught_at_miss = true,
                Err(RunError::Sim(_)) => {} // corrupt code trapped on its own
                Err(e) => panic!("{scheme:?} seed {seed}: unexpected error {e}"),
                Ok(r) => {
                    // A benign fault (e.g. in nop padding) may still run to
                    // the correct result; silent *wrong* completion is the
                    // one outcome the runner must not produce.
                    assert_eq!(
                        (r.exit_code, r.output.clone()),
                        (plain.exit_code, plain.output.clone()),
                        "{scheme:?} seed {seed}: silent corruption escaped --verify-lines"
                    );
                }
            }
        }
        assert!(
            caught_at_miss,
            "{scheme:?}: no seed in 0..32 produced a CorruptFill at a miss"
        );
    }
}

#[test]
fn selective_compression_works_for_every_scheme() {
    // A hybrid (part-native) image must also run identically: the region
    // boundary and per-scheme alignment interact here.
    let cfg = SimConfig::hpca2000_baseline();
    let p = conformance_program();
    let native_img = build_native(&p).unwrap();
    let native = run_image(&native_img, cfg, 10_000_000).unwrap();
    for scheme in Scheme::all() {
        // Keep the big filler procedure native, compress the rest.
        let selection = Selection::from_native_set([2usize].into_iter().collect(), 3);
        let img = build_planned(
            &p,
            &CompressionPlan::uniform(scheme, false, PlanSource::Heuristic, &selection),
        )
        .unwrap();
        let r = run_image(&img, cfg, 50_000_000).unwrap();
        assert_eq!(r.exit_code, native.exit_code, "{scheme:?}");
        assert_eq!(r.output, native.output, "{scheme:?}");
    }
}
