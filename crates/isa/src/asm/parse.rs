//! The two-pass assembler core.

use std::collections::HashMap;

use crate::asm::operand::{parse_number, parse_operand, Operand};
use crate::asm::{AsmError, AsmErrorKind, Assembled};
use crate::insn::Instruction as I;
use crate::reg::Reg;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

#[derive(Debug)]
enum Element {
    Label {
        name: String,
        line: usize,
    },
    Insn {
        mnemonic: String,
        ops: Vec<Operand>,
        line: usize,
    },
    Directive {
        name: String,
        args: Vec<String>,
        line: usize,
    },
}

fn err(line: usize, kind: AsmErrorKind) -> AsmError {
    AsmError { line, kind }
}

/// Splits a line body into comma-separated operand tokens, keeping
/// parenthesized groups (memory operands) intact.
fn split_operands(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in body.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn lex(source: &str) -> Result<Vec<Element>, AsmError> {
    let mut elements = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        let mut text = raw;
        if let Some(pos) = text.find('#') {
            text = &text[..pos];
        }
        let mut text = text.trim();
        // Labels (possibly several) at the start of the line.
        while let Some(colon) = text.find(':') {
            let candidate = text[..colon].trim();
            if candidate.is_empty()
                || !candidate
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                break;
            }
            elements.push(Element::Label {
                name: candidate.to_string(),
                line,
            });
            text = text[colon + 1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (head, body) = match text.find(char::is_whitespace) {
            Some(pos) => (&text[..pos], text[pos..].trim()),
            None => (text, ""),
        };
        if let Some(directive) = head.strip_prefix('.') {
            elements.push(Element::Directive {
                name: directive.to_ascii_lowercase(),
                args: split_operands(body),
                line,
            });
        } else {
            let ops = split_operands(body)
                .iter()
                .map(|tok| parse_operand(tok).map_err(|k| err(line, k)))
                .collect::<Result<Vec<_>, _>>()?;
            elements.push(Element::Insn {
                mnemonic: head.to_ascii_lowercase(),
                ops,
                line,
            });
        }
    }
    Ok(elements)
}

/// How many words an instruction statement assembles to (pseudo-expansion).
fn insn_words(mnemonic: &str, ops: &[Operand]) -> usize {
    match mnemonic {
        "la" => 2,
        "li" => match ops.get(1) {
            Some(&Operand::Imm(v)) => li_words(v),
            _ => 1,
        },
        _ => 1,
    }
}

fn li_words(v: i64) -> usize {
    let val = v as u32;
    let fits_i16 = (val as i32) >= i16::MIN as i32 && (val as i32) <= i16::MAX as i32;
    if fits_i16 || val & 0xffff == 0 {
        1
    } else {
        2
    }
}

/// Tracks the data section; `emit` is false during the sizing pass.
struct DataCursor {
    bytes: Vec<u8>,
    len: usize,
    emit: bool,
}

impl DataCursor {
    fn align_to(&mut self, align: usize) {
        while !self.len.is_multiple_of(align) {
            if self.emit {
                self.bytes.push(0);
            }
            self.len += 1;
        }
    }

    fn zeros(&mut self, n: usize) {
        if self.emit {
            self.bytes.resize(self.bytes.len() + n, 0);
        }
        self.len += n;
    }

    fn push(&mut self, b: &[u8]) {
        if self.emit {
            self.bytes.extend_from_slice(b);
        }
        self.len += b.len();
    }
}

fn directive_align(name: &str) -> usize {
    match name {
        "word" => 4,
        "half" => 2,
        _ => 1,
    }
}

struct Pass<'a> {
    symbols: HashMap<String, u32>,
    text_base: u32,
    data_base: u32,
    text: Vec<I>,
    data: DataCursor,
    text_words: usize,
    section: Section,
    pending: Vec<(&'a str, usize)>,
    sizing: bool,
}

impl<'a> Pass<'a> {
    fn bind_pending(&mut self) -> Result<(), AsmError> {
        let here = match self.section {
            Section::Text => self.text_base + 4 * self.text_words as u32,
            Section::Data => self.data_base + self.data.len as u32,
        };
        for (name, line) in self.pending.drain(..) {
            if self.sizing && self.symbols.insert(name.to_string(), here).is_some() {
                return Err(err(line, AsmErrorKind::DuplicateLabel(name.to_string())));
            }
        }
        Ok(())
    }

    fn resolve(&self, sym: &str, line: usize) -> Result<u32, AsmError> {
        self.symbols
            .get(sym)
            .copied()
            .ok_or_else(|| err(line, AsmErrorKind::UndefinedLabel(sym.to_string())))
    }

    fn data_value(&self, arg: &str, line: usize) -> Result<i64, AsmError> {
        let arg = arg.trim();
        if arg
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() || c == '-')
        {
            parse_number(arg).map_err(|k| err(line, k))
        } else if self.sizing {
            Ok(0) // forward references sized as zero, resolved in pass 2
        } else {
            self.resolve(arg, line).map(|a| a as i64)
        }
    }

    fn run(&mut self, elements: &'a [Element]) -> Result<(), AsmError> {
        for el in elements {
            match el {
                Element::Label { name, line } => self.pending.push((name, *line)),
                Element::Directive { name, args, line } => {
                    self.directive(name, args, *line)?;
                }
                Element::Insn {
                    mnemonic,
                    ops,
                    line,
                } => {
                    if self.section != Section::Text {
                        return Err(err(
                            *line,
                            AsmErrorKind::BadDirective(format!(
                                "instruction `{mnemonic}` outside .text"
                            )),
                        ));
                    }
                    self.bind_pending()?;
                    if self.sizing {
                        self.text_words += insn_words(mnemonic, ops);
                    } else {
                        emit(self, mnemonic, ops, *line)?;
                    }
                }
            }
        }
        self.bind_pending()
    }

    fn directive(&mut self, name: &str, args: &[String], line: usize) -> Result<(), AsmError> {
        match name {
            "text" => {
                self.section = Section::Text;
                Ok(())
            }
            "data" => {
                self.section = Section::Data;
                Ok(())
            }
            "globl" | "global" | "ent" | "end" => Ok(()), // accepted and ignored
            "word" | "half" | "byte" => {
                if self.section != Section::Data {
                    return Err(err(
                        line,
                        AsmErrorKind::BadDirective(format!(".{name} outside .data")),
                    ));
                }
                self.data.align_to(directive_align(name));
                self.bind_pending()?;
                for arg in args {
                    let v = self.data_value(arg, line)?;
                    match name {
                        "word" => self.data.push(&(v as u32).to_le_bytes()),
                        "half" => self.data.push(&(v as u16).to_le_bytes()),
                        _ => self.data.push(&[v as u8]),
                    }
                }
                Ok(())
            }
            "space" => {
                let n = args
                    .first()
                    .ok_or_else(|| {
                        err(
                            line,
                            AsmErrorKind::BadDirective(".space needs a size".into()),
                        )
                    })
                    .and_then(|a| parse_number(a).map_err(|k| err(line, k)))?;
                if n < 0 {
                    return Err(err(
                        line,
                        AsmErrorKind::BadDirective(".space negative".into()),
                    ));
                }
                // The section must end inside the 32-bit address space.
                if n >= (1 << 32) - i64::from(self.data_base) - self.data.len as i64 {
                    return Err(err(
                        line,
                        AsmErrorKind::BadDirective(".space past the address space".into()),
                    ));
                }
                self.bind_pending()?;
                self.data.zeros(n as usize);
                Ok(())
            }
            "align" => {
                let k = args
                    .first()
                    .ok_or_else(|| {
                        err(
                            line,
                            AsmErrorKind::BadDirective(".align needs a power".into()),
                        )
                    })
                    .and_then(|a| parse_number(a).map_err(|k| err(line, k)))?;
                if !(0..=16).contains(&k) {
                    return Err(err(
                        line,
                        AsmErrorKind::BadDirective(".align out of range".into()),
                    ));
                }
                match self.section {
                    Section::Data => self.data.align_to(1usize << k),
                    Section::Text => {} // text is always 4-aligned
                }
                Ok(())
            }
            other => Err(err(
                line,
                AsmErrorKind::UnknownMnemonic(format!(".{other}")),
            )),
        }
    }
}

fn imm16s(v: i64, line: usize) -> Result<i16, AsmError> {
    i16::try_from(v).map_err(|_| err(line, AsmErrorKind::BadNumber(v.to_string())))
}

fn imm16u(v: i64, line: usize) -> Result<u16, AsmError> {
    u16::try_from(v).map_err(|_| err(line, AsmErrorKind::BadNumber(v.to_string())))
}

fn bad_ops(mnemonic: &str, line: usize) -> AsmError {
    err(line, AsmErrorKind::BadOperands(mnemonic.to_string()))
}

/// Emits one (possibly pseudo) instruction during pass 2.
fn emit(p: &mut Pass<'_>, mnemonic: &str, ops: &[Operand], line: usize) -> Result<(), AsmError> {
    use Operand as O;
    let pc = p.text_base + 4 * p.text.len() as u32;

    let branch_offset = |p: &Pass<'_>, target: &Operand| -> Result<i16, AsmError> {
        match target {
            O::Sym(s) => {
                let addr = p.resolve(s, line)?;
                let delta = (addr as i64 - (pc as i64 + 4)) / 4;
                i16::try_from(delta)
                    .map_err(|_| err(line, AsmErrorKind::BranchOutOfRange(s.clone())))
            }
            O::Imm(v) => imm16s(*v, line),
            _ => Err(bad_ops(mnemonic, line)),
        }
    };
    let jump_target = |p: &Pass<'_>, target: &Operand| -> Result<u32, AsmError> {
        let addr = match target {
            O::Sym(s) => p.resolve(s, line)?,
            O::Imm(v) => *v as u32,
            _ => return Err(bad_ops(mnemonic, line)),
        };
        if addr % 4 != 0 || (addr & 0xf000_0000) != ((pc + 4) & 0xf000_0000) {
            return Err(err(
                line,
                AsmErrorKind::JumpOutOfRange(format!("{addr:#x}")),
            ));
        }
        Ok((addr >> 2) & 0x03ff_ffff)
    };

    let insn = match (mnemonic, ops) {
        // --- three-register ALU (with immediate sugar for add/sub) ---
        ("add" | "addu", [O::Reg(rd), O::Reg(rs), O::Reg(rt)]) => {
            if mnemonic == "add" {
                I::Add {
                    rd: *rd,
                    rs: *rs,
                    rt: *rt,
                }
            } else {
                I::Addu {
                    rd: *rd,
                    rs: *rs,
                    rt: *rt,
                }
            }
        }
        ("add" | "addu", [O::Reg(rd), O::Reg(rs), O::Imm(v)]) => I::Addiu {
            rt: *rd,
            rs: *rs,
            imm: imm16s(*v, line)?,
        },
        ("sub" | "subu", [O::Reg(rd), O::Reg(rs), O::Reg(rt)]) => {
            if mnemonic == "sub" {
                I::Sub {
                    rd: *rd,
                    rs: *rs,
                    rt: *rt,
                }
            } else {
                I::Subu {
                    rd: *rd,
                    rs: *rs,
                    rt: *rt,
                }
            }
        }
        ("sub" | "subu", [O::Reg(rd), O::Reg(rs), O::Imm(v)]) => I::Addiu {
            rt: *rd,
            rs: *rs,
            imm: imm16s(-*v, line)?,
        },
        ("and", [O::Reg(rd), O::Reg(rs), O::Reg(rt)]) => I::And {
            rd: *rd,
            rs: *rs,
            rt: *rt,
        },
        ("or", [O::Reg(rd), O::Reg(rs), O::Reg(rt)]) => I::Or {
            rd: *rd,
            rs: *rs,
            rt: *rt,
        },
        ("xor", [O::Reg(rd), O::Reg(rs), O::Reg(rt)]) => I::Xor {
            rd: *rd,
            rs: *rs,
            rt: *rt,
        },
        ("nor", [O::Reg(rd), O::Reg(rs), O::Reg(rt)]) => I::Nor {
            rd: *rd,
            rs: *rs,
            rt: *rt,
        },
        ("slt", [O::Reg(rd), O::Reg(rs), O::Reg(rt)]) => I::Slt {
            rd: *rd,
            rs: *rs,
            rt: *rt,
        },
        ("sltu", [O::Reg(rd), O::Reg(rs), O::Reg(rt)]) => I::Sltu {
            rd: *rd,
            rs: *rs,
            rt: *rt,
        },
        ("and", [O::Reg(rd), O::Reg(rs), O::Imm(v)]) => I::Andi {
            rt: *rd,
            rs: *rs,
            imm: imm16u(*v, line)?,
        },
        ("or", [O::Reg(rd), O::Reg(rs), O::Imm(v)]) => I::Ori {
            rt: *rd,
            rs: *rs,
            imm: imm16u(*v, line)?,
        },

        // --- shifts ---
        ("sll", [O::Reg(rd), O::Reg(rt), O::Imm(v)]) if (0..32).contains(v) => I::Sll {
            rd: *rd,
            rt: *rt,
            shamt: *v as u8,
        },
        ("srl", [O::Reg(rd), O::Reg(rt), O::Imm(v)]) if (0..32).contains(v) => I::Srl {
            rd: *rd,
            rt: *rt,
            shamt: *v as u8,
        },
        ("sra", [O::Reg(rd), O::Reg(rt), O::Imm(v)]) if (0..32).contains(v) => I::Sra {
            rd: *rd,
            rt: *rt,
            shamt: *v as u8,
        },
        ("sllv", [O::Reg(rd), O::Reg(rt), O::Reg(rs)]) => I::Sllv {
            rd: *rd,
            rt: *rt,
            rs: *rs,
        },
        ("srlv", [O::Reg(rd), O::Reg(rt), O::Reg(rs)]) => I::Srlv {
            rd: *rd,
            rt: *rt,
            rs: *rs,
        },
        ("srav", [O::Reg(rd), O::Reg(rt), O::Reg(rs)]) => I::Srav {
            rd: *rd,
            rt: *rt,
            rs: *rs,
        },

        // --- multiply / divide ---
        ("mult", [O::Reg(rs), O::Reg(rt)]) => I::Mult { rs: *rs, rt: *rt },
        ("multu", [O::Reg(rs), O::Reg(rt)]) => I::Multu { rs: *rs, rt: *rt },
        ("div", [O::Reg(rs), O::Reg(rt)]) => I::Div { rs: *rs, rt: *rt },
        ("divu", [O::Reg(rs), O::Reg(rt)]) => I::Divu { rs: *rs, rt: *rt },
        ("mfhi", [O::Reg(rd)]) => I::Mfhi { rd: *rd },
        ("mflo", [O::Reg(rd)]) => I::Mflo { rd: *rd },
        ("mthi", [O::Reg(rs)]) => I::Mthi { rs: *rs },
        ("mtlo", [O::Reg(rs)]) => I::Mtlo { rs: *rs },

        // --- register jumps, traps ---
        ("jr", [O::Reg(rs)]) => I::Jr { rs: *rs },
        ("jalr", [O::Reg(rs)]) => I::Jalr {
            rd: Reg::RA,
            rs: *rs,
        },
        ("jalr", [O::Reg(rd), O::Reg(rs)]) => I::Jalr { rd: *rd, rs: *rs },
        ("syscall", []) => I::Syscall,
        ("break", []) => I::Break { code: 0 },
        ("break", [O::Imm(v)]) => I::Break {
            code: *v as u32 & 0xfffff,
        },
        ("iret", []) => I::Iret,
        ("nop", []) => I::NOP,

        // --- I-type ALU ---
        ("addi", [O::Reg(rt), O::Reg(rs), O::Imm(v)]) => I::Addi {
            rt: *rt,
            rs: *rs,
            imm: imm16s(*v, line)?,
        },
        ("addiu", [O::Reg(rt), O::Reg(rs), O::Imm(v)]) => I::Addiu {
            rt: *rt,
            rs: *rs,
            imm: imm16s(*v, line)?,
        },
        ("slti", [O::Reg(rt), O::Reg(rs), O::Imm(v)]) => I::Slti {
            rt: *rt,
            rs: *rs,
            imm: imm16s(*v, line)?,
        },
        ("sltiu", [O::Reg(rt), O::Reg(rs), O::Imm(v)]) => I::Sltiu {
            rt: *rt,
            rs: *rs,
            imm: imm16s(*v, line)?,
        },
        ("andi", [O::Reg(rt), O::Reg(rs), O::Imm(v)]) => I::Andi {
            rt: *rt,
            rs: *rs,
            imm: imm16u(*v, line)?,
        },
        ("ori", [O::Reg(rt), O::Reg(rs), O::Imm(v)]) => I::Ori {
            rt: *rt,
            rs: *rs,
            imm: imm16u(*v, line)?,
        },
        ("xori", [O::Reg(rt), O::Reg(rs), O::Imm(v)]) => I::Xori {
            rt: *rt,
            rs: *rs,
            imm: imm16u(*v, line)?,
        },
        ("lui", [O::Reg(rt), O::Imm(v)]) => I::Lui {
            rt: *rt,
            imm: imm16u(*v, line)?,
        },

        // --- loads / stores ---
        ("lb", [O::Reg(rt), O::Mem { base, offset }]) => I::Lb {
            rt: *rt,
            base: *base,
            offset: imm16s(*offset, line)?,
        },
        ("lbu", [O::Reg(rt), O::Mem { base, offset }]) => I::Lbu {
            rt: *rt,
            base: *base,
            offset: imm16s(*offset, line)?,
        },
        ("lh", [O::Reg(rt), O::Mem { base, offset }]) => I::Lh {
            rt: *rt,
            base: *base,
            offset: imm16s(*offset, line)?,
        },
        ("lhu", [O::Reg(rt), O::Mem { base, offset }]) => I::Lhu {
            rt: *rt,
            base: *base,
            offset: imm16s(*offset, line)?,
        },
        ("lw", [O::Reg(rt), O::Mem { base, offset }]) => I::Lw {
            rt: *rt,
            base: *base,
            offset: imm16s(*offset, line)?,
        },
        ("sb", [O::Reg(rt), O::Mem { base, offset }]) => I::Sb {
            rt: *rt,
            base: *base,
            offset: imm16s(*offset, line)?,
        },
        ("sh", [O::Reg(rt), O::Mem { base, offset }]) => I::Sh {
            rt: *rt,
            base: *base,
            offset: imm16s(*offset, line)?,
        },
        ("sw", [O::Reg(rt), O::Mem { base, offset }]) => I::Sw {
            rt: *rt,
            base: *base,
            offset: imm16s(*offset, line)?,
        },
        ("swic", [O::Reg(rt), O::Mem { base, offset }]) => I::Swic {
            rt: *rt,
            base: *base,
            offset: imm16s(*offset, line)?,
        },
        ("lw", [O::Reg(rd), O::MemIndexed { base, index }]) => I::Lwx {
            rd: *rd,
            base: *base,
            index: *index,
        },
        ("lhu", [O::Reg(rd), O::MemIndexed { base, index }]) => I::Lhux {
            rd: *rd,
            base: *base,
            index: *index,
        },
        ("lbu", [O::Reg(rd), O::MemIndexed { base, index }]) => I::Lbux {
            rd: *rd,
            base: *base,
            index: *index,
        },

        // --- branches ---
        ("beq", [O::Reg(rs), O::Reg(rt), target]) => I::Beq {
            rs: *rs,
            rt: *rt,
            offset: branch_offset(p, target)?,
        },
        ("bne", [O::Reg(rs), O::Reg(rt), target]) => I::Bne {
            rs: *rs,
            rt: *rt,
            offset: branch_offset(p, target)?,
        },
        ("blez", [O::Reg(rs), target]) => I::Blez {
            rs: *rs,
            offset: branch_offset(p, target)?,
        },
        ("bgtz", [O::Reg(rs), target]) => I::Bgtz {
            rs: *rs,
            offset: branch_offset(p, target)?,
        },
        ("bltz", [O::Reg(rs), target]) => I::Bltz {
            rs: *rs,
            offset: branch_offset(p, target)?,
        },
        ("bgez", [O::Reg(rs), target]) => I::Bgez {
            rs: *rs,
            offset: branch_offset(p, target)?,
        },
        ("b", [target]) => I::Beq {
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            offset: branch_offset(p, target)?,
        },
        ("beqz", [O::Reg(rs), target]) => I::Beq {
            rs: *rs,
            rt: Reg::ZERO,
            offset: branch_offset(p, target)?,
        },
        ("bnez", [O::Reg(rs), target]) => I::Bne {
            rs: *rs,
            rt: Reg::ZERO,
            offset: branch_offset(p, target)?,
        },

        // --- jumps ---
        ("j", [target]) => I::J {
            target: jump_target(p, target)?,
        },
        ("jal", [target]) => I::Jal {
            target: jump_target(p, target)?,
        },

        // --- coprocessor 0 ---
        ("mfc0", [O::Reg(rt), O::C0(c0)]) => I::Mfc0 { rt: *rt, c0: *c0 },
        ("mtc0", [O::Reg(rt), O::C0(c0)]) => I::Mtc0 { rt: *rt, c0: *c0 },

        // --- pseudo: move / li / la ---
        ("move", [O::Reg(rd), O::Reg(rs)]) => I::Addu {
            rd: *rd,
            rs: *rs,
            rt: Reg::ZERO,
        },
        ("li", [O::Reg(rt), O::Imm(v)]) => {
            let val = *v as u32;
            match li_words(*v) {
                1 if (val as i32) <= i16::MAX as i32 && (val as i32) >= i16::MIN as i32 => {
                    I::Addiu {
                        rt: *rt,
                        rs: Reg::ZERO,
                        imm: val as i16,
                    }
                }
                1 => I::Lui {
                    rt: *rt,
                    imm: (val >> 16) as u16,
                },
                _ => {
                    p.text.push(I::Lui {
                        rt: *rt,
                        imm: (val >> 16) as u16,
                    });
                    I::Ori {
                        rt: *rt,
                        rs: *rt,
                        imm: (val & 0xffff) as u16,
                    }
                }
            }
        }
        ("la", [O::Reg(rt), O::Sym(s)]) => {
            let addr = p.resolve(s, line)?;
            p.text.push(I::Lui {
                rt: *rt,
                imm: (addr >> 16) as u16,
            });
            I::Ori {
                rt: *rt,
                rs: *rt,
                imm: (addr & 0xffff) as u16,
            }
        }

        (m, _) if KNOWN_MNEMONICS.contains(&m) => return Err(bad_ops(m, line)),
        (m, _) => return Err(err(line, AsmErrorKind::UnknownMnemonic(m.to_string()))),
    };
    p.text.push(insn);
    Ok(())
}

const KNOWN_MNEMONICS: &[&str] = &[
    "add", "addu", "sub", "subu", "and", "or", "xor", "nor", "slt", "sltu", "sll", "srl", "sra",
    "sllv", "srlv", "srav", "mult", "multu", "div", "divu", "mfhi", "mflo", "mthi", "mtlo", "jr",
    "jalr", "syscall", "break", "iret", "nop", "addi", "addiu", "slti", "sltiu", "andi", "ori",
    "xori", "lui", "lb", "lbu", "lh", "lhu", "lw", "sb", "sh", "sw", "swic", "beq", "bne", "blez",
    "bgtz", "bltz", "bgez", "b", "beqz", "bnez", "j", "jal", "mfc0", "mtc0", "move", "li", "la",
];

pub(crate) fn assemble(
    source: &str,
    text_base: u32,
    data_base: u32,
) -> Result<Assembled, AsmError> {
    let elements = lex(source)?;

    // Pass 1: sizes and symbol addresses.
    let mut pass1 = Pass {
        symbols: HashMap::new(),
        text_base,
        data_base,
        text: Vec::new(),
        data: DataCursor {
            bytes: Vec::new(),
            len: 0,
            emit: false,
        },
        text_words: 0,
        section: Section::Text,
        pending: Vec::new(),
        sizing: true,
    };
    pass1.run(&elements)?;
    let symbols = pass1.symbols;
    let expected_words = pass1.text_words;

    // Pass 2: emission with all symbols known.
    let mut pass2 = Pass {
        symbols,
        text_base,
        data_base,
        text: Vec::with_capacity(expected_words),
        data: DataCursor {
            bytes: Vec::with_capacity(pass1.data.len),
            len: 0,
            emit: true,
        },
        text_words: 0,
        section: Section::Text,
        pending: Vec::new(),
        sizing: false,
    };
    pass2.run(&elements)?;
    debug_assert_eq!(
        pass2.text.len(),
        expected_words,
        "sizing pass and emission pass disagree"
    );

    Ok(Assembled {
        text: pass2.text,
        data: pass2.data.bytes,
        symbols: pass2.symbols,
        text_base,
        data_base,
    })
}
