//! A two-pass assembler for the ISA.
//!
//! Exists so the software decompression handlers can be written in assembly
//! source, exactly as the paper presents its Figure 2 handler, and assembled
//! into simulator-loadable code. Syntax follows the paper / classic MIPS
//! assemblers:
//!
//! ```text
//! # Comments with '#'
//! loop:
//!     lhu   $11,0($9)        # load 16-bit index
//!     sll   $11,$11,2        # scale for 4B dictionary entry
//!     lw    $26,($11+$10)    # register-indexed load (PISA addressing)
//!     swic  $26,0($27)       # store word into I-cache
//!     bne   $27,$12,loop
//!     mfc0  $27,c0[BADVA]
//! ```
//!
//! Supported directives: `.text`, `.data`, `.word`, `.half`, `.byte`,
//! `.space`, `.align`. Supported pseudo-instructions: `nop`, `move`, `li`,
//! `la`, `b`, `beqz`, `bnez`.
//!
//! # Example
//!
//! ```
//! use rtdc_isa::asm::assemble;
//!
//! let out = assemble("start: addiu $t0,$zero,7\n jr $ra\n", 0x1000, 0x2000)?;
//! assert_eq!(out.text.len(), 2);
//! assert_eq!(out.symbols["start"], 0x1000);
//! # Ok::<(), rtdc_isa::asm::AsmError>(())
//! ```

mod operand;
mod parse;

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::insn::Instruction;

/// The output of [`assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembled {
    /// Assembled text-section instructions, in order from `text_base`.
    pub text: Vec<Instruction>,
    /// Raw data-section bytes, from `data_base`.
    pub data: Vec<u8>,
    /// Absolute addresses of every label.
    pub symbols: HashMap<String, u32>,
    /// Base address the text section was assembled at.
    pub text_base: u32,
    /// Base address the data section was assembled at.
    pub data_base: u32,
}

impl Assembled {
    /// Text section encoded to instruction words.
    pub fn encoded_text(&self) -> Vec<u32> {
        self.text.iter().map(|&i| crate::encode(i)).collect()
    }

    /// Text section size in bytes.
    pub fn text_bytes(&self) -> usize {
        self.text.len() * 4
    }
}

/// An assembly error, with the 1-based source line where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source.
    pub line: usize,
    /// What went wrong.
    pub kind: AsmErrorKind,
}

/// The kinds of [`AsmError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmErrorKind {
    /// Unknown mnemonic or directive.
    UnknownMnemonic(String),
    /// Operand list did not match the mnemonic.
    BadOperands(String),
    /// A register name could not be parsed.
    BadRegister(String),
    /// A numeric literal could not be parsed or was out of range.
    BadNumber(String),
    /// Reference to a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A branch target was too far away for a 16-bit offset.
    BranchOutOfRange(String),
    /// A jump target was outside the 26-bit addressable region.
    JumpOutOfRange(String),
    /// Malformed directive argument.
    BadDirective(String),
    /// A section (`.text` or `.data`) runs past the end of the 32-bit
    /// address space.
    SectionOverflow(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AsmErrorKind::*;
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            UnknownMnemonic(m) => write!(f, "unknown mnemonic or directive `{m}`"),
            BadOperands(m) => write!(f, "bad operands: {m}"),
            BadRegister(r) => write!(f, "bad register `{r}`"),
            BadNumber(n) => write!(f, "bad number `{n}`"),
            UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            BranchOutOfRange(l) => write!(f, "branch target `{l}` out of range"),
            JumpOutOfRange(l) => write!(f, "jump target `{l}` out of range"),
            BadDirective(d) => write!(f, "bad directive: {d}"),
            SectionOverflow(s) => write!(f, "section {s} runs past the 32-bit address space"),
        }
    }
}

impl Error for AsmError {}

/// Assembles `source` with the text section at `text_base` and the data
/// section at `data_base`.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered; see [`AsmErrorKind`] for the
/// possible causes.
pub fn assemble(source: &str, text_base: u32, data_base: u32) -> Result<Assembled, AsmError> {
    parse::assemble(source, text_base, data_base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{C0Reg, Instruction as I, Reg};

    fn asm(src: &str) -> Assembled {
        assemble(src, 0x1000, 0x8000).expect("assembly failed")
    }

    #[test]
    fn basic_rtype_and_itype() {
        let out = asm("add $1,$2,$3\naddiu $t0,$zero,-5\n");
        assert_eq!(
            out.text,
            vec![
                I::Add {
                    rd: Reg::AT,
                    rs: Reg::V0,
                    rt: Reg::V1
                },
                I::Addiu {
                    rt: Reg::T0,
                    rs: Reg::ZERO,
                    imm: -5
                },
            ]
        );
    }

    #[test]
    fn loads_and_stores() {
        let out = asm("lw $9,-4($sp)\nsw $9,8($29)\nlbu $8,0($9)\nswic $26,28($27)\n");
        assert_eq!(
            out.text,
            vec![
                I::Lw {
                    rt: Reg::T1,
                    base: Reg::SP,
                    offset: -4
                },
                I::Sw {
                    rt: Reg::T1,
                    base: Reg::SP,
                    offset: 8
                },
                I::Lbu {
                    rt: Reg::T0,
                    base: Reg::T1,
                    offset: 0
                },
                I::Swic {
                    rt: Reg::K0,
                    base: Reg::K1,
                    offset: 28
                },
            ]
        );
    }

    #[test]
    fn indexed_load_paper_syntax() {
        let out = asm("lw $26,($11+$10)\nlhu $8,($9+$10)\nlbu $8,($9+$10)\n");
        assert_eq!(
            out.text,
            vec![
                I::Lwx {
                    rd: Reg::K0,
                    base: Reg::T2,
                    index: Reg::T3
                },
                I::Lhux {
                    rd: Reg::T0,
                    base: Reg::T2,
                    index: Reg::T1
                },
                I::Lbux {
                    rd: Reg::T0,
                    base: Reg::T2,
                    index: Reg::T1
                },
            ]
        );
    }

    #[test]
    fn cop0_and_iret() {
        let out = asm("mfc0 $27,c0[BADVA]\nmfc0 $26,c0[0]\nmtc0 $8,c0[DICT]\niret\n");
        assert_eq!(
            out.text,
            vec![
                I::Mfc0 {
                    rt: Reg::K1,
                    c0: C0Reg::BADVA
                },
                I::Mfc0 {
                    rt: Reg::K0,
                    c0: C0Reg::DECOMP_BASE
                },
                I::Mtc0 {
                    rt: Reg::T0,
                    c0: C0Reg::DICT_BASE
                },
                I::Iret,
            ]
        );
    }

    #[test]
    fn branches_resolve_labels_both_directions() {
        let out = asm("top: addiu $8,$8,1\nbne $8,$9,top\nbeq $8,$9,done\nnop\ndone: jr $ra\n");
        assert_eq!(
            out.text[1],
            I::Bne {
                rs: Reg::T0,
                rt: Reg::T1,
                offset: -2
            }
        );
        assert_eq!(
            out.text[2],
            I::Beq {
                rs: Reg::T0,
                rt: Reg::T1,
                offset: 1
            }
        );
    }

    #[test]
    fn jumps_use_word_targets() {
        let out = asm("j end\nnop\nend: jal end\n");
        // end is at 0x1000 + 8 = 0x1008; word target = 0x1008 >> 2
        assert_eq!(
            out.text[0],
            I::J {
                target: 0x1008 >> 2
            }
        );
        assert_eq!(
            out.text[2],
            I::Jal {
                target: 0x1008 >> 2
            }
        );
    }

    #[test]
    fn pseudo_instructions() {
        let out = asm("nop\nmove $4,$8\nli $8,5\nli $8,0x12340000\nli $8,0x12345678\nb out\nout: beqz $8,out\nbnez $8,out\n");
        assert_eq!(out.text[0], I::NOP);
        assert_eq!(
            out.text[1],
            I::Addu {
                rd: Reg::A0,
                rs: Reg::T0,
                rt: Reg::ZERO
            }
        );
        assert_eq!(
            out.text[2],
            I::Addiu {
                rt: Reg::T0,
                rs: Reg::ZERO,
                imm: 5
            }
        );
        assert_eq!(
            out.text[3],
            I::Lui {
                rt: Reg::T0,
                imm: 0x1234
            }
        );
        assert_eq!(
            out.text[4],
            I::Lui {
                rt: Reg::T0,
                imm: 0x1234
            }
        );
        assert_eq!(
            out.text[5],
            I::Ori {
                rt: Reg::T0,
                rs: Reg::T0,
                imm: 0x5678
            }
        );
        assert_eq!(
            out.text[6],
            I::Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                offset: 0
            }
        );
        assert_eq!(
            out.text[7],
            I::Beq {
                rs: Reg::T0,
                rt: Reg::ZERO,
                offset: -1
            }
        );
        assert_eq!(
            out.text[8],
            I::Bne {
                rs: Reg::T0,
                rt: Reg::ZERO,
                offset: -2
            }
        );
    }

    #[test]
    fn la_resolves_data_labels() {
        let out = asm(".data\nbuf: .space 16\nval: .word 0xdeadbeef\n.text\nla $8,val\n");
        assert_eq!(out.symbols["buf"], 0x8000);
        assert_eq!(out.symbols["val"], 0x8010);
        assert_eq!(
            out.text[0],
            I::Lui {
                rt: Reg::T0,
                imm: 0
            }
        );
        assert_eq!(
            out.text[1],
            I::Ori {
                rt: Reg::T0,
                rs: Reg::T0,
                imm: 0x8010
            }
        );
        assert_eq!(&out.data[16..20], &0xdeadbeef_u32.to_le_bytes());
    }

    #[test]
    fn data_directives() {
        let out = asm(".data\n.byte 1,2,3\n.align 2\n.half 0x1234\n.word 7\n");
        assert_eq!(&out.data[..3], &[1, 2, 3]);
        assert_eq!(&out.data[4..6], &0x1234_u16.to_le_bytes());
        assert_eq!(&out.data[8..12], &7_u32.to_le_bytes());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let out = asm("# leading comment\n\n  add $1,$2,$3 # trailing\n");
        assert_eq!(out.text.len(), 1);
    }

    #[test]
    fn errors_report_line_numbers() {
        let err = assemble("nop\nbogus $1\n", 0, 0x8000).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, AsmErrorKind::UnknownMnemonic(_)));
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = assemble("a: nop\na: nop\n", 0, 0x8000).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::DuplicateLabel(_)));
    }

    #[test]
    fn undefined_label_rejected() {
        let err = assemble("j nowhere\n", 0, 0x8000).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::UndefinedLabel(_)));
    }

    #[test]
    fn branch_range_checked() {
        // Distance of 40000 instructions exceeds the i16 word offset.
        let mut src = String::from("b far\n");
        for _ in 0..40000 {
            src.push_str("nop\n");
        }
        src.push_str("far: nop\n");
        let err = assemble(&src, 0, 0x8000).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BranchOutOfRange(_)));
    }

    #[test]
    fn instruction_outside_text_rejected() {
        let err = assemble(".data\nadd $1,$2,$3\n", 0, 0x8000).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadDirective(_)));
    }

    #[test]
    fn data_directive_outside_data_rejected() {
        let err = assemble(".word 5\n", 0, 0x8000).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadDirective(_)));
    }

    #[test]
    fn immediate_range_enforced() {
        let err = assemble("addiu $1,$2,40000\n", 0, 0x8000).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadNumber(_)));
        let err = assemble("andi $1,$2,-1\n", 0, 0x8000).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadNumber(_)));
    }

    #[test]
    fn shift_amount_range_enforced() {
        let err = assemble("sll $1,$2,32\n", 0, 0x8000).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadOperands(_)));
    }

    #[test]
    fn wrong_operand_shapes_rejected() {
        for src in ["add $1,$2\n", "jr 5\n", "lw $1,$2,$3\n", "mfc0 $1,$2\n"] {
            let err = assemble(src, 0, 0x8000).unwrap_err();
            assert!(
                matches!(err.kind, AsmErrorKind::BadOperands(_)),
                "{src:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn jump_outside_region_rejected() {
        // Target in a different 256MB region than the jump.
        let err = assemble("j 0x10000000\n", 0, 0x8000).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::JumpOutOfRange(_)));
    }

    #[test]
    fn space_and_align_argument_validation() {
        assert!(matches!(
            assemble(".data\n.space -1\n", 0, 0x8000).unwrap_err().kind,
            AsmErrorKind::BadDirective(_)
        ));
        assert!(matches!(
            assemble(".data\n.align 30\n", 0, 0x8000).unwrap_err().kind,
            AsmErrorKind::BadDirective(_)
        ));
        // A section past the end of the address space is rejected before
        // a byte of it is allocated.
        assert!(matches!(
            assemble(".data\n.space 0xffff0000\n", 0, 0x1000_0000)
                .unwrap_err()
                .kind,
            AsmErrorKind::BadDirective(_)
        ));
        assert_eq!(asm(".data\n.space 0x8000\n").data.len(), 0x8000);
    }

    #[test]
    fn sections_past_the_address_space_are_typed_errors() {
        // Words past the end of a data section based just below 2^32,
        // then a label: the sizing pass stops at the first word that
        // crosses, so nothing is bound, emitted or allocated.
        let err = assemble(".data\n.word 1\n.word 2\nend: .word 3\n", 0, u32::MAX - 5).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.kind, AsmErrorKind::SectionOverflow(".data".into()));
        let err = assemble("nop\nnop\nend: nop\n", u32::MAX - 7, 0x8000).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, AsmErrorKind::SectionOverflow(".text".into()));
        // Right up to the last address is fine.
        let out = assemble(".data\n.word 1\nend:\n", 0, u32::MAX - 4).unwrap();
        assert_eq!(out.symbols["end"], u32::MAX);
    }

    #[test]
    fn values_wider_than_their_field_are_rejected() {
        for src in [
            ".data\n.word 0x100000000\n",
            ".data\n.word -0x80000001\n",
            ".data\n.half 70000\n",
            ".data\n.byte -129\n",
            "li $8, 0x100000005\n",
            "break 0x100000\n",
        ] {
            let err = assemble(src, 0, 0x8000).unwrap_err();
            assert!(
                matches!(err.kind, AsmErrorKind::BadNumber(_)),
                "{src:?}: {err}"
            );
        }
        let out = asm(".data\n.word -1, 0xffffffff\n.half -1\n.byte 255, -128\n");
        assert_eq!(
            out.data,
            [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80]
        );
        assert!(matches!(
            assemble("j -4\n", 0, 0x8000).unwrap_err().kind,
            AsmErrorKind::JumpOutOfRange(_)
        ));
    }

    #[test]
    fn globl_and_multiple_labels_accepted() {
        let out = asm(".globl main\nmain: start: nop\n");
        assert_eq!(out.symbols["main"], out.symbols["start"]);
    }

    #[test]
    fn break_with_and_without_code() {
        let out = asm("break\nbreak 77\n");
        assert_eq!(out.text[0], I::Break { code: 0 });
        assert_eq!(out.text[1], I::Break { code: 77 });
    }

    #[test]
    fn encoded_text_matches_words() {
        let out = asm("nop\nsyscall\n");
        assert_eq!(out.encoded_text().len(), 2);
        assert_eq!(out.text_bytes(), 8);
        assert_eq!(out.encoded_text()[0], 0);
    }

    #[test]
    fn paper_figure2_loop_assembles() {
        // The inner loop of the paper's dictionary decompressor, verbatim.
        let src = "\
loop:
    lhu   $11,0($9)     # Put index in r11
    add   $9,$9,2       # index_address++
    sll   $11,$11,2     # scale for 4B dictionary entry
    lw    $26,($11+$10) # r26 holds the instruction
    swic  $26,0($27)    # store word in cache
    add   $27,$27,4     # advance insn address
    bne   $27,$12,loop
";
        let out = asm(src);
        assert_eq!(out.text.len(), 7);
        assert_eq!(
            out.text[6],
            I::Bne {
                rs: Reg::K1,
                rt: Reg::T4,
                offset: -7
            }
        );
        // `add` with an immediate operand is accepted as addiu-style sugar.
        assert_eq!(
            out.text[1],
            I::Addiu {
                rt: Reg::T1,
                rs: Reg::T1,
                imm: 2
            }
        );
    }
}
