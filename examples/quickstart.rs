//! Quickstart: compress a small hand-written program and run it under
//! software decompression.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Demonstrates the full pipeline on a program small enough to read:
//! assemble → build a native image and a dictionary-compressed image →
//! simulate both → compare size, cycles, and architectural results.

use rtdc_repro::core::prelude::*;
use rtdc_repro::isa::asm::assemble;
use rtdc_repro::isa::program::{ObjInsn, ObjectProgram, ProcId, Procedure};
use rtdc_repro::sim::map;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A program with a hot loop (sum of squares) and a cold helper.
    let main_body = assemble(
        "li  $s0,200          # iterations
         li  $s1,0            # accumulator
loop:    move $a0,$s0
         nop                  # placeholder slot for the call below
         add $s1,$s1,$v0
         add $s0,$s0,-1
         bgtz $s0,loop
         move $a0,$s1
         li  $v0,1
         syscall              # print accumulator
         andi $a0,$s1,0x7f
         li  $v0,10
         syscall              # exit
        ",
        0,
        map::DATA_BASE,
    )?;
    let mut main_code: Vec<ObjInsn> = main_body.text.into_iter().map(ObjInsn::Insn).collect();
    main_code[3] = ObjInsn::Call(ProcId(1)); // patch the placeholder: call square

    let square = assemble("mult $a0,$a0\n mflo $v0\n jr $ra\n", 0, map::DATA_BASE)?;

    let program = ObjectProgram {
        name: "quickstart".into(),
        procedures: vec![
            Procedure::new("main", main_code),
            Procedure::new(
                "square",
                square.text.into_iter().map(ObjInsn::Insn).collect(),
            ),
        ],
        data: Vec::new(),
        entry: ProcId(0),
        addr_tables: Vec::new(),
    };

    let cfg = SimConfig::hpca2000_baseline();

    // Native baseline.
    let native = build_native(&program)?;
    let native_run = run_image(&native, cfg, 1_000_000)?;
    println!(
        "native:     {:>8} cycles, output {:?}",
        native_run.stats.cycles,
        String::from_utf8_lossy(&native_run.output)
    );

    // Dictionary-compressed: every procedure compressed; misses in the
    // compressed region invoke the paper's Figure 2 handler.
    let scheme = Scheme::Dictionary;
    let compressed = ImageSpec::Uniform { scheme, rf: false }.build(&program)?;
    let comp_run = run_image(&compressed, cfg, 1_000_000)?;
    println!(
        "dictionary: {:>8} cycles, output {:?}",
        comp_run.stats.cycles,
        String::from_utf8_lossy(&comp_run.output)
    );

    assert_eq!(
        native_run.output, comp_run.output,
        "architectural mismatch!"
    );

    println!(
        "\ncompression ratio: {:.1}% (tiny programs expand — every word is unique)",
        100.0 * compressed.sizes.compression_ratio()
    );
    println!("decompression exceptions: {}", comp_run.stats.exceptions);
    println!(
        "handler instructions/line: {:.0} (paper: 75)",
        comp_run.stats.handler_insns_per_exception()
    );
    println!(
        "slowdown: {:.2}x",
        comp_run.stats.cycles as f64 / native_run.stats.cycles as f64
    );
    println!("\nThe loop body was decompressed ONCE and then ran at native speed");
    println!("from the I-cache — the paper's key property (§3).");
    Ok(())
}
