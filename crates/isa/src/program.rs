//! Late-linked object programs.
//!
//! Selective compression (paper §3.3) re-places procedures into a *native*
//! and a *compressed* memory region after profiling, preserving the original
//! procedure order within each region (§5.3). That only works if programs
//! are linked *late*: procedure code must carry **symbolic** calls that are
//! resolved once final addresses are known.
//!
//! An [`ObjectProgram`] is exactly that: an ordered list of [`Procedure`]s
//! whose bodies are concrete [`Instruction`]s except for calls/jumps to
//! other procedures ([`ObjInsn::Call`] / [`ObjInsn::Tail`]), plus an initial
//! `.data` image and optional [`AddrTable`]s (procedure-address tables
//! materialized into `.data` at link time, enabling indirect calls through
//! `jalr`).
//!
//! Intra-procedure branches are PC-relative and therefore already concrete;
//! moving a whole procedure never invalidates them. That makes linking
//! copy-and-patch: each procedure is encoded once, when it is made, and
//! [`ObjectProgram::link_words`] copies the encoded body and ors each
//! call's target into its slot.

use std::error::Error;
use std::fmt;

use crate::encode::encode;
use crate::insn::Instruction;

/// Index of a procedure within an [`ObjectProgram`] (original link order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// One instruction slot in a procedure body.
///
/// Every slot occupies exactly 4 bytes in the final text, so procedure
/// sizes are known before linking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjInsn {
    /// A concrete instruction (everything except cross-procedure transfers).
    Insn(Instruction),
    /// `jal` to another procedure; target patched at link time.
    Call(ProcId),
    /// `j` to another procedure (tail call); target patched at link time.
    Tail(ProcId),
}

/// A named procedure: the unit of selective compression.
///
/// The body is encoded once, in [`Procedure::new`]: a procedure keeps its
/// instruction words, with each [`ObjInsn::Call`]/[`ObjInsn::Tail`] slot
/// holding its opcode and a zero target, plus the list of those slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Procedure {
    /// Symbolic name (for profiles and reports).
    pub name: String,
    code: Vec<ObjInsn>,
    words: Vec<u32>,
    /// `(slot, callee)` for every call and tail call, in slot order.
    relocs: Vec<(u32, ProcId)>,
}

impl Procedure {
    /// Creates a procedure from its name and body, encoding the body.
    pub fn new(name: impl Into<String>, code: Vec<ObjInsn>) -> Procedure {
        let mut relocs = Vec::new();
        let words = code
            .iter()
            .enumerate()
            .map(|(slot, insn)| match *insn {
                ObjInsn::Insn(i) => encode(i),
                ObjInsn::Call(target) => {
                    relocs.push((slot as u32, target));
                    encode(Instruction::Jal { target: 0 })
                }
                ObjInsn::Tail(target) => {
                    relocs.push((slot as u32, target));
                    encode(Instruction::J { target: 0 })
                }
            })
            .collect();
        Procedure {
            name: name.into(),
            code,
            words,
            relocs,
        }
    }

    /// Body; one slot per instruction word.
    pub fn code(&self) -> &[ObjInsn] {
        &self.code
    }

    /// Size in instruction words.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Size in bytes.
    pub fn byte_size(&self) -> u32 {
        (self.code.len() * 4) as u32
    }
}

/// A table of procedure entry addresses to be materialized in `.data` at
/// link time (one little-endian `u32` per entry), so programs can make
/// indirect calls (`jalr`) through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrTable {
    /// Byte offset of the table within the `.data` image (4-aligned).
    pub data_offset: usize,
    /// Procedures whose addresses fill the table, in order.
    pub procs: Vec<ProcId>,
}

/// A complete pre-link program: procedures in original link order, initial
/// data, the entry procedure, and any address tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectProgram {
    /// Program name (benchmark name in the reproduction).
    pub name: String,
    /// Procedures in original link order.
    pub procedures: Vec<Procedure>,
    /// Initial contents of the `.data` segment.
    pub data: Vec<u8>,
    /// The procedure where execution starts.
    pub entry: ProcId,
    /// Procedure-address tables patched into `.data` at link time.
    pub addr_tables: Vec<AddrTable>,
}

impl ObjectProgram {
    /// Total static instruction count across all procedures.
    pub fn total_insns(&self) -> usize {
        self.procedures.iter().map(Procedure::len).sum()
    }

    /// Total `.text` size in bytes (the paper's "original size").
    pub fn text_bytes(&self) -> u32 {
        (self.total_insns() * 4) as u32
    }

    /// Links one procedure's body given every procedure's entry address,
    /// as instructions: the decoded view of [`ObjectProgram::link_words`].
    ///
    /// # Errors
    ///
    /// Fails if a referenced procedure has no placement or a patched jump
    /// target is not representable (outside the 26-bit region or unaligned).
    pub fn link_proc(
        &self,
        id: ProcId,
        placement: &Placement,
    ) -> Result<Vec<Instruction>, LinkError> {
        let proc = self
            .procedures
            .get(id.0)
            .ok_or(LinkError::UnknownProc(id))?;
        proc.code
            .iter()
            .map(|slot| match *slot {
                ObjInsn::Insn(i) => Ok(i),
                ObjInsn::Call(target) => placement
                    .jump_target(target)
                    .map(|t| Instruction::Jal { target: t }),
                ObjInsn::Tail(target) => placement
                    .jump_target(target)
                    .map(|t| Instruction::J { target: t }),
            })
            .collect()
    }

    /// Appends one procedure's linked instruction words to `out`: its
    /// encoded body, copied, with every call and tail call patched to its
    /// callee's address in `placement`. The words equal
    /// [`ObjectProgram::link_proc`]'s instructions, encoded.
    ///
    /// # Errors
    ///
    /// As [`ObjectProgram::link_proc`]. On error `out` may hold part of
    /// the body.
    pub fn link_words(
        &self,
        id: ProcId,
        placement: &Placement,
        out: &mut Vec<u32>,
    ) -> Result<(), LinkError> {
        let proc = self
            .procedures
            .get(id.0)
            .ok_or(LinkError::UnknownProc(id))?;
        let at = out.len();
        out.extend_from_slice(&proc.words);
        for &(slot, callee) in &proc.relocs {
            out[at + slot as usize] |= placement.jump_target(callee)?;
        }
        Ok(())
    }

    /// The `.data` image with all [`AddrTable`]s patched for `placement`.
    ///
    /// # Errors
    ///
    /// Fails if a table extends past the data image or references an
    /// unplaced procedure.
    pub fn patched_data(&self, placement: &Placement) -> Result<Vec<u8>, LinkError> {
        let mut data = self.data.clone();
        for table in &self.addr_tables {
            let end = table.data_offset + table.procs.len() * 4;
            if end > data.len() {
                return Err(LinkError::TableOutOfBounds {
                    offset: table.data_offset,
                    len: table.procs.len(),
                });
            }
            for (i, &p) in table.procs.iter().enumerate() {
                let addr = placement.addr(p)?;
                let at = table.data_offset + i * 4;
                data[at..at + 4].copy_from_slice(&addr.to_le_bytes());
            }
        }
        Ok(data)
    }
}

/// Entry addresses for every procedure of an [`ObjectProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    addrs: Vec<u32>,
}

impl Placement {
    /// Creates a placement from per-procedure entry addresses (indexed by
    /// [`ProcId`]).
    ///
    /// # Errors
    ///
    /// Fails if any address is not 4-byte aligned.
    pub fn new(addrs: Vec<u32>) -> Result<Placement, LinkError> {
        if let Some(&a) = addrs.iter().find(|a| **a % 4 != 0) {
            return Err(LinkError::Unaligned(a));
        }
        Ok(Placement { addrs })
    }

    /// Contiguous placement of all procedures starting at `base`.
    ///
    /// # Errors
    ///
    /// Fails if `base` is unaligned.
    pub fn contiguous(program: &ObjectProgram, base: u32) -> Result<Placement, LinkError> {
        let mut addrs = Vec::with_capacity(program.procedures.len());
        let mut at = base;
        for proc in &program.procedures {
            addrs.push(at);
            at += proc.byte_size();
        }
        Placement::new(addrs)
    }

    /// The entry address of `id`.
    ///
    /// # Errors
    ///
    /// Fails if `id` has no placement.
    pub fn addr(&self, id: ProcId) -> Result<u32, LinkError> {
        self.addrs
            .get(id.0)
            .copied()
            .ok_or(LinkError::UnknownProc(id))
    }

    /// Number of placed procedures.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    fn jump_target(&self, id: ProcId) -> Result<u32, LinkError> {
        let addr = self.addr(id)?;
        if addr >= 1 << 28 {
            return Err(LinkError::JumpUnreachable(addr));
        }
        Ok(addr >> 2)
    }
}

/// Errors produced while linking an [`ObjectProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinkError {
    /// A referenced procedure does not exist or was not placed.
    UnknownProc(ProcId),
    /// A placement address was not 4-byte aligned.
    Unaligned(u32),
    /// A call target lies outside the 26-bit jump region.
    JumpUnreachable(u32),
    /// An address table does not fit in the data image.
    TableOutOfBounds {
        /// Table offset in `.data`.
        offset: usize,
        /// Number of entries.
        len: usize,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::UnknownProc(p) => write!(f, "unknown or unplaced procedure {p}"),
            LinkError::Unaligned(a) => write!(f, "unaligned placement address {a:#x}"),
            LinkError::JumpUnreachable(a) => write!(f, "jump target {a:#x} outside 26-bit region"),
            LinkError::TableOutOfBounds { offset, len } => {
                write!(
                    f,
                    "address table at offset {offset} with {len} entries exceeds data image"
                )
            }
        }
    }
}

impl Error for LinkError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instruction as I, Reg};

    fn two_proc_program() -> ObjectProgram {
        ObjectProgram {
            name: "t".into(),
            procedures: vec![
                Procedure::new(
                    "main",
                    vec![
                        ObjInsn::Call(ProcId(1)),
                        ObjInsn::Insn(I::Jr { rs: Reg::RA }),
                    ],
                ),
                Procedure::new("leaf", vec![ObjInsn::Insn(I::Jr { rs: Reg::RA })]),
            ],
            data: vec![0; 8],
            entry: ProcId(0),
            addr_tables: vec![AddrTable {
                data_offset: 4,
                procs: vec![ProcId(1)],
            }],
        }
    }

    #[test]
    fn contiguous_placement_packs_in_order() {
        let p = two_proc_program();
        let placement = Placement::contiguous(&p, 0x1000).unwrap();
        assert_eq!(placement.addr(ProcId(0)).unwrap(), 0x1000);
        assert_eq!(placement.addr(ProcId(1)).unwrap(), 0x1008);
    }

    #[test]
    fn call_patched_to_placed_address() {
        let p = two_proc_program();
        let placement = Placement::contiguous(&p, 0x1000).unwrap();
        let main = p.link_proc(ProcId(0), &placement).unwrap();
        assert_eq!(
            main[0],
            I::Jal {
                target: 0x1008 >> 2
            }
        );
    }

    #[test]
    fn link_words_encode_link_proc() {
        let mut p = two_proc_program();
        p.procedures[1] = Procedure::new(
            "leaf",
            vec![
                ObjInsn::Tail(ProcId(0)),
                ObjInsn::Insn(I::Jr { rs: Reg::RA }),
            ],
        );
        let placement = Placement::new(vec![0x0ffc_0000, 0x1008]).unwrap();
        let mut words = vec![7];
        for id in [ProcId(0), ProcId(1)] {
            words.extend(p.link_proc(id, &placement).unwrap().into_iter().map(encode));
        }
        let mut linked = vec![7];
        p.link_words(ProcId(0), &placement, &mut linked).unwrap();
        p.link_words(ProcId(1), &placement, &mut linked).unwrap();
        assert_eq!(linked, words);
        let unplaced = Placement::new(vec![0x1000]).unwrap();
        assert_eq!(
            p.link_words(ProcId(0), &unplaced, &mut linked),
            Err(LinkError::UnknownProc(ProcId(1)))
        );
        assert_eq!(
            p.link_words(ProcId(2), &placement, &mut linked),
            Err(LinkError::UnknownProc(ProcId(2)))
        );
    }

    #[test]
    fn addr_table_patched_into_data() {
        let p = two_proc_program();
        let placement = Placement::contiguous(&p, 0x1000).unwrap();
        let data = p.patched_data(&placement).unwrap();
        assert_eq!(&data[4..8], &0x1008_u32.to_le_bytes());
    }

    #[test]
    fn unaligned_placement_rejected() {
        assert_eq!(
            Placement::new(vec![2]).unwrap_err(),
            LinkError::Unaligned(2)
        );
    }

    #[test]
    fn unplaced_call_rejected() {
        let p = two_proc_program();
        let placement = Placement::new(vec![0x1000]).unwrap(); // only main placed
        assert_eq!(
            p.link_proc(ProcId(0), &placement).unwrap_err(),
            LinkError::UnknownProc(ProcId(1))
        );
    }

    #[test]
    fn far_jump_rejected() {
        let p = two_proc_program();
        let placement = Placement::new(vec![0x1000, 1 << 28]).unwrap();
        assert!(matches!(
            p.link_proc(ProcId(0), &placement),
            Err(LinkError::JumpUnreachable(_))
        ));
    }

    #[test]
    fn table_bounds_checked() {
        let mut p = two_proc_program();
        p.data = vec![0; 4]; // table at offset 4 no longer fits
        let placement = Placement::contiguous(&p, 0).unwrap();
        assert!(matches!(
            p.patched_data(&placement),
            Err(LinkError::TableOutOfBounds { .. })
        ));
    }

    #[test]
    fn sizes() {
        let p = two_proc_program();
        assert_eq!(p.total_insns(), 3);
        assert_eq!(p.text_bytes(), 12);
    }
}
