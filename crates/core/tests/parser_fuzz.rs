//! Fuzz targets for the parsers of outside input that no other target
//! reaches: the image-file decoder (the store's envelope CRC rejects
//! every mutant before it), the assembler (`rtdc-asm` input and handler
//! sources) and fault-plan specs followed by their application
//! (`rtdc-run --inject`).
//!
//! Each mutates a valid input through the shared harness
//! (`rtdc_rng::fuzz`), which checks that the parser returns a typed
//! outcome, the same one twice, instead of panicking; `RTDC_FUZZ_ITERS`
//! scales them (e.g. `RTDC_FUZZ_ITERS=20000 cargo test --release -p
//! rtdc --test parser_fuzz`).

use rtdc::fault::FaultPlan;
use rtdc::imagefile::{decode_image, encode_image};
use rtdc::prelude::*;
use rtdc::registry;
use rtdc_isa::asm::assemble;
use rtdc_isa::program::{ObjInsn, ObjectProgram, ProcId, Procedure};
use rtdc_rng::{fuzz, Rng64};
use rtdc_sim::map;

/// A sealed image under the dictionary scheme with the
/// second-register-file handler: every optional field of the image
/// format (scheme, ranges, C0 values, regions, line CRCs) is present.
fn image() -> MemoryImage {
    let src = "li $s0,3\nsll $v0,$s0,2\nxor $a0,$v0,$s0\nli $v0,10\nsyscall\n";
    let body = assemble(src, 0, map::DATA_BASE)
        .expect("test proc body")
        .text;
    let program = ObjectProgram {
        name: "fuzz".into(),
        procedures: vec![Procedure::new(
            "main",
            body.into_iter().map(ObjInsn::Insn).collect(),
        )],
        data: vec![0; 16],
        entry: ProcId(0),
        addr_tables: Vec::new(),
    };
    ImageSpec::Uniform {
        scheme: Scheme::Dictionary,
        rf: true,
    }
    .build(&program)
    .expect("build")
}

/// Any bytes decode to an image or a typed `ImageFileError`, and a
/// mutant that decodes re-encodes to exactly its own bytes.
#[test]
fn image_file_decode_never_panics_on_mutated_bytes() {
    let baseline = encode_image(&image());
    let mut rng = Rng64::seed_from_u64(0xF025_0001);
    for i in 0..fuzz::iters(300) {
        let mut bytes = baseline.clone();
        fuzz::mutate(&mut rng, &mut bytes, &[b".text", &[0xff; 8]]);
        let decoded = fuzz::check(i, &bytes, |b: &Vec<u8>| {
            decode_image(b).map(|img| encode_image(&img))
        });
        if let Ok(again) = decoded {
            assert_eq!(
                again, bytes,
                "iter {i}: decoded image re-encodes differently"
            );
        }
    }
}

/// Mutated handler sources and a data-section program assemble or fail
/// with a typed `AsmError`.
#[test]
fn assembler_never_panics_on_mutated_source() {
    let mut corpus: Vec<String> = Scheme::all()
        .flat_map(|s| [false, true].map(|rf| registry::entry(s).handler.source_text(rf)))
        .collect();
    corpus.push(
        ".data\nbuf: .space 16\n.align 3\nval: .word 0xdeadbeef, -2\n.half 7\n.byte 1\n\
         .text\nmain: la $t0,val\nlw $t1,0($t0)\nbeq $t1,$zero,main\nj main\n"
            .into(),
    );
    let tokens: [&[u8]; 6] = [b"\n.data\n", b"\n.text\n", b"$31", b"0x", b"lab:", b"("];
    let mut rng = Rng64::seed_from_u64(0xF025_0002);
    for i in 0..fuzz::iters(300) {
        let mut bytes = rng.choose(&corpus).clone().into_bytes();
        fuzz::mutate(&mut rng, &mut bytes, &tokens);
        let source = String::from_utf8_lossy(&bytes);
        let _ = fuzz::check(i, &*source, |s: &str| {
            assemble(s, map::HANDLER_BASE, map::DATA_BASE)
        });
    }
}

/// Mutated fault specs parse to a plan or a typed `FaultError`; a plan
/// applies (or fails typed) the same way twice and round-trips through
/// its rendering.
#[test]
fn fault_plans_never_panic_on_mutated_specs() {
    let image = image();
    let corpus = [
        "flip:.indices:4:7",
        "stuck:.dictionary:0x10:255,trunc:.decompressor:3",
        "flip:.data:0:0,flip:.decompressor:1:1",
        "rand:7",
        "rand:0x2a:3",
    ];
    let mut rng = Rng64::seed_from_u64(0xF025_0003);
    for i in 0..fuzz::iters(300) {
        let mut bytes = rng.choose(&corpus).as_bytes().to_vec();
        fuzz::mutate(&mut rng, &mut bytes, &[b",", b":", b"rand:"]);
        let spec = String::from_utf8_lossy(&bytes);
        let outcome = fuzz::check(i, &*spec, |s: &str| {
            FaultPlan::parse(s, &image).map(|plan| {
                let mut img = image.clone();
                let applied = plan.apply(&mut img);
                (plan, applied, encode_image(&img))
            })
        });
        match outcome {
            Ok((plan, ..)) if !plan.faults.is_empty() => {
                let text: Vec<String> = plan.faults.iter().map(|f| f.to_string()).collect();
                let again = FaultPlan::parse(&text.join(","), &image);
                assert_eq!(again, Ok(plan), "iter {i}: {spec:?}");
            }
            _ => {}
        }
    }
}
