//! `rtdc-asm` — assemble an `.s` source file.
//!
//! ```sh
//! rtdc-asm input.s [--out code.bin] [--text-base 0x1000] [--data-base 0x10000000] [--symbols]
//! ```
//!
//! Writes the encoded text section as little-endian 32-bit words. With
//! `--symbols`, prints the symbol table; without `--out`, prints a
//! word-per-line hex listing instead of writing a file.

use std::process::ExitCode;

use rtdc_bench::args::Cli;
use rtdc_isa::asm::assemble;

const CLI: Cli = Cli {
    usage: "usage: rtdc-asm <input.s> [--out code.bin] [--text-base ADDR] [--data-base ADDR] [--symbols]",
    values: "out text-base data-base",
    switches: "symbols",
    operands: 1..=1,
};

fn run() -> Result<(), String> {
    let args = CLI.from_env();
    let input = args.operands()[0].as_str();
    let text_base = args.addr("text-base")?.unwrap_or(rtdc_sim::map::TEXT_BASE);
    let data_base = args.addr("data-base")?.unwrap_or(rtdc_sim::map::DATA_BASE);
    let source = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let out = assemble(&source, text_base, data_base).map_err(|e| format!("{input}: {e}"))?;

    eprintln!(
        "{}: {} instructions ({} bytes text, {} bytes data)",
        input,
        out.text.len(),
        out.text_bytes(),
        out.data.len()
    );
    if args.has("symbols") {
        let mut syms: Vec<_> = out.symbols.iter().collect();
        syms.sort_by_key(|(_, &a)| a);
        for (name, addr) in syms {
            println!("{addr:#010x} {name}");
        }
    }

    let words = out.encoded_text();
    if let Some(path) = args.opt("out") {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
    } else if !args.has("symbols") {
        for (i, w) in words.iter().enumerate() {
            println!(
                "{:#010x}: {w:08x}  {}",
                text_base + 4 * i as u32,
                out.text[i]
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rtdc-asm: {e}");
            ExitCode::FAILURE
        }
    }
}
