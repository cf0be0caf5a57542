//! Builds [`MemoryImage`]s from [`ObjectProgram`]s: native images, and
//! compressed images in the paper's Figure 3 layout.
//!
//! Compressed-image construction follows §4.2:
//!
//! 1. procedures are split by the [`CompressionPlan`] into a *compressed*
//!    list and a *native* list, **preserving the plan's order within each
//!    list** (link order for the paper's builds) — this is what produces
//!    the paper's procedure-placement side effect in hybrid programs
//!    (§5.3);
//! 2. the compressed procedures are placed first, at the decompressed
//!    region base; native procedures follow (their misses use the normal
//!    cache controller);
//! 3. the concatenated compressed-region instruction words are compressed
//!    with the scheme's [`Codec`](rtdc_compress::codec::Codec) and its
//!    segments are laid out in declaration order at the compressed base
//!    (`.indices`/`.dictionary`, or mapping table + groups + half
//!    dictionaries for CodePack — the codec decides);
//! 4. the matching exception handler (assembled once per process, see
//!    [`registry::handler_text`]) is placed in handler RAM and the C0
//!    base registers are recorded for the loader.
//!
//! Linking is copy-and-patch ([`ObjectProgram::link_words`]): every
//! procedure was encoded when it was made, so a build copies words and
//! patches call targets, and encodes nothing.

use rtdc_isa::program::{ObjectProgram, Placement, ProcId};
use rtdc_isa::{encode, C0Reg, Instruction};
use rtdc_sim::map;

use crate::error::BuildError;
use crate::image::{MemoryImage, Segment, SizeReport};
use crate::integrity;
use crate::plan::{CompressionPlan, PlanError};
use crate::registry;

fn align_up(x: u32, a: u32) -> u32 {
    x.div_ceil(a) * a
}

fn le_bytes(words: &[u32]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(4 * words.len());
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes
}

/// Builds the fully-native image: all procedures contiguous at the text
/// base, no handler, no compressed region.
///
/// # Errors
///
/// Returns [`BuildError::Link`] if the program references unknown
/// procedures or jump targets are unreachable.
pub fn build_native(program: &ObjectProgram) -> Result<MemoryImage, BuildError> {
    let placement = Placement::contiguous(program, map::TEXT_BASE)?;
    let mut text = Vec::with_capacity(program.total_insns());
    let mut proc_regions = Vec::with_capacity(program.procedures.len());
    for (id, proc) in program.procedures.iter().enumerate() {
        program.link_words(ProcId(id), &placement, &mut text)?;
        let start = placement.addr(ProcId(id))?;
        proc_regions.push((start, start + proc.byte_size(), id));
    }
    let text_bytes = le_bytes(&text);
    let data = program.patched_data(&placement)?;
    let original = program.text_bytes();

    let mut image = MemoryImage {
        name: program.name.clone(),
        scheme: None,
        second_regfile: false,
        entry: placement.addr(program.entry)?,
        initial_sp: map::STACK_TOP,
        segments: vec![
            Segment {
                name: ".text".into(),
                base: map::TEXT_BASE,
                bytes: text_bytes,
            },
            Segment {
                name: ".data".into(),
                base: map::DATA_BASE,
                bytes: data,
            },
        ],
        c0_init: Vec::new(),
        handler_range: None,
        compressed_range: None,
        proc_regions,
        proc_names: program.procedures.iter().map(|p| p.name.clone()).collect(),
        sizes: SizeReport {
            original_text_bytes: original,
            native_text_bytes: original,
            compressed_payload_bytes: 0,
            handler_bytes: 0,
        },
        integrity: Vec::new(),
        line_crcs: Vec::new(),
    };
    image.seal();
    Ok(image)
}

/// Builds a compressed image from a [`CompressionPlan`] — **the** layout
/// path every compressed build goes through. The plan carries the
/// image-wide scheme and handler variant, the native/compressed split,
/// and the within-region layout order (ascending rank).
///
/// # Errors
///
/// * [`BuildError::Plan`] if the plan is internally inconsistent
///   ([`CompressionPlan::validate`]) or covers a different number of
///   procedures than the program;
/// * [`BuildError::Compress`] if the codec cannot represent the compressed
///   region (e.g. more than 64K unique instructions for the dictionary
///   scheme — compress fewer procedures), [`BuildError::Link`] on linking
///   failures.
pub fn build_planned(
    program: &ObjectProgram,
    plan: &CompressionPlan,
) -> Result<MemoryImage, BuildError> {
    plan.validate()?;
    let n = program.procedures.len();
    if plan.proc_count() != n {
        return Err(BuildError::Plan(PlanError::ProcCountMismatch {
            plan: plan.proc_count(),
            program: n,
        }));
    }
    let scheme = plan.scheme;
    let second_rf = plan.second_rf;
    let selection = plan.selection();
    let order = plan.order();

    // --- placement: compressed procs first, native procs after, the
    // plan's rank order preserved within each region ---
    let mut addrs = vec![0u32; n];
    let mut cursor = map::TEXT_BASE;
    for &id in &order {
        if !selection.is_native(id) {
            addrs[id] = cursor;
            cursor += program.procedures[id].byte_size();
        }
    }
    let comp_end = cursor;
    // The compressed region's end is aligned to the codec's decode unit
    // (one CodePack group for the paper's schemes), so no unit straddles
    // into the native region.
    let native_base = align_up(comp_end, scheme.codec().region_align());
    let mut cursor = native_base;
    for &id in &order {
        if selection.is_native(id) {
            addrs[id] = cursor;
            cursor += program.procedures[id].byte_size();
        }
    }
    let native_end = cursor;
    let placement = Placement::new(addrs)?;

    // --- link and materialize both regions ---
    let mut comp_words: Vec<u32> =
        Vec::with_capacity(((native_base - map::TEXT_BASE) / 4) as usize);
    let mut native_words: Vec<u32> = Vec::with_capacity(((native_end - native_base) / 4) as usize);
    let mut proc_regions = Vec::with_capacity(n);
    for &id in &order {
        if !selection.is_native(id) {
            program.link_words(ProcId(id), &placement, &mut comp_words)?;
            let start = placement.addr(ProcId(id))?;
            proc_regions.push((start, start + program.procedures[id].byte_size(), id));
        }
    }
    // Pad the compressed region to the group-aligned boundary with nops so
    // every line in the region decompresses.
    comp_words.resize(
        ((native_base - map::TEXT_BASE) / 4) as usize,
        encode(Instruction::NOP),
    );
    for &id in &order {
        if selection.is_native(id) {
            program.link_words(ProcId(id), &placement, &mut native_words)?;
            let start = placement.addr(ProcId(id))?;
            proc_regions.push((start, start + program.procedures[id].byte_size(), id));
        }
    }

    let data = program.patched_data(&placement)?;
    let handler_bytes = registry::handler_text(scheme, second_rf);

    // --- compress the compressed-region words and lay out segments ---
    // One generic path for every scheme: the codec emits named segments
    // in layout order; each is placed 4-byte aligned after the previous,
    // starting at the compressed base, and the handler's C0 ABI table is
    // resolved against the resulting base addresses.
    let codec = scheme.codec();
    debug_assert!(
        comp_words.len().is_multiple_of(codec.unit_words()),
        "compressed region must be unit-aligned"
    );
    let layout = codec.compress(&comp_words)?;
    let compressed_payload = layout.payload_bytes() as u32;
    let mut seg_bases: Vec<(&'static str, u32)> = Vec::with_capacity(layout.segments.len());
    let mut seg_cursor = map::COMPRESSED_BASE;
    for seg in &layout.segments {
        seg_bases.push((seg.name, seg_cursor));
        seg_cursor = align_up(seg_cursor + seg.bytes.len() as u32, 4);
    }
    let mut c0_init = vec![(C0Reg::DECOMP_BASE, map::TEXT_BASE)];
    c0_init.extend(scheme.handler().resolve_c0(|name| {
        seg_bases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, base)| base)
    }));
    let mut segments: Vec<Segment> = layout
        .segments
        .into_iter()
        .zip(&seg_bases)
        .map(|(seg, &(_, base))| Segment {
            name: seg.name.into(),
            base,
            bytes: seg.bytes,
        })
        .collect();

    let native_bytes = le_bytes(&native_words);
    if !native_bytes.is_empty() {
        segments.push(Segment {
            name: ".native".into(),
            base: native_base,
            bytes: native_bytes,
        });
    }
    segments.push(Segment {
        name: ".decompressor".into(),
        base: map::HANDLER_BASE,
        bytes: handler_bytes.to_vec(),
    });
    segments.push(Segment {
        name: ".data".into(),
        base: map::DATA_BASE,
        bytes: data,
    });

    let native_text_bytes = native_end - native_base;
    let mut image = MemoryImage {
        name: program.name.clone(),
        scheme: Some(scheme),
        second_regfile: second_rf,
        entry: placement.addr(program.entry)?,
        initial_sp: map::STACK_TOP,
        segments,
        c0_init,
        handler_range: Some((map::HANDLER_BASE, map::HANDLER_BASE + map::HANDLER_BYTES)),
        compressed_range: (comp_end > map::TEXT_BASE).then_some((map::TEXT_BASE, native_base)),
        proc_regions,
        proc_names: program.procedures.iter().map(|p| p.name.clone()).collect(),
        sizes: SizeReport {
            original_text_bytes: program.text_bytes(),
            native_text_bytes,
            compressed_payload_bytes: compressed_payload,
            handler_bytes: handler_bytes.len() as u32,
        },
        integrity: Vec::new(),
        // Reference measurements of what every compressed-region line
        // must decompress to; the padded words are exactly that region.
        line_crcs: integrity::line_crcs(&comp_words),
    };
    image.seal();
    Ok(image)
}
