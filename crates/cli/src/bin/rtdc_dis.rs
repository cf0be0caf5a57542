//! `rtdc-dis` — disassemble a flat binary of little-endian 32-bit words.
//!
//! ```sh
//! rtdc-dis code.bin [--base 0x1000]
//! ```

use std::process::ExitCode;

use rtdc_bench::args::Cli;
use rtdc_isa::decode;

const CLI: Cli = Cli {
    usage: "usage: rtdc-dis <code.bin> [--base ADDR]",
    values: "base",
    switches: "",
    operands: 1..=1,
};

fn run() -> Result<(), String> {
    let args = CLI.from_env();
    let input = args.operands()[0].as_str();
    let base = args.addr("base")?.unwrap_or(rtdc_sim::map::TEXT_BASE);
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    for (i, chunk) in bytes.chunks_exact(4).enumerate() {
        let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        // The address space wraps, like the simulated PC.
        let addr = base.wrapping_add(4 * i as u32);
        match decode(word) {
            Ok(insn) => println!("{addr:#010x}: {word:08x}  {insn}"),
            Err(_) => println!("{addr:#010x}: {word:08x}  <invalid>"),
        }
    }
    if bytes.len() % 4 != 0 {
        eprintln!(
            "rtdc-dis: warning: {} trailing bytes ignored",
            bytes.len() % 4
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rtdc-dis: {e}");
            ExitCode::FAILURE
        }
    }
}
