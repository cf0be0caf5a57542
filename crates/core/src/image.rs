//! Memory images: the loadable result of compiling an [`ObjectProgram`]
//! into the paper's Figure 3 layout.
//!
//! [`ObjectProgram`]: rtdc_isa::program::ObjectProgram

use std::borrow::Borrow;
use std::ops::Deref;
use std::sync::Arc;

use rtdc_isa::C0Reg;

use crate::error::ImageError;
use crate::integrity::{crc32, SegmentDigest};
use crate::registry;

/// Which compression scheme an image uses — a thin key into the scheme
/// [`registry`].
///
/// The key is the codec's registry name (`"d"`, `"cp"`, ...). The
/// associated constants keep call sites reading like the old enum
/// (`Scheme::Dictionary`), but everything a scheme *does* — its codec,
/// its handler, its labels — lives in the registry entry, so no layer
/// needs to match on which scheme it has.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scheme(&'static str);

#[allow(non_upper_case_globals)]
impl Scheme {
    /// 16-bit-index dictionary compression (§3.1).
    pub const Dictionary: Scheme = Scheme("d");
    /// CodePack-style compression (§3.2).
    pub const CodePack: Scheme = Scheme("cp");
    /// Byte-aligned two-level dictionary ("D2"): the denser-but-still-fast
    /// point the paper's conclusion asks about (§6); see
    /// [`rtdc_compress::bytedict`].
    pub const ByteDict: Scheme = Scheme("d2");
    /// LZRW1 over 512-byte chunks ("LZ"): the paper's §5.2 bound made
    /// runnable; see [`rtdc_compress::lzchunk`].
    pub const LzChunk: Scheme = Scheme("lz");
}

impl Scheme {
    /// Registry/CLI name (`"d"`, `"cp"`, `"d2"`, `"lz"`).
    pub fn name(&self) -> &'static str {
        self.0
    }

    /// Short label used in reports ("D" / "CP", as in the paper's tables).
    pub fn label(&self) -> &'static str {
        registry::entry(*self).codec.short_label()
    }

    /// Human name used in figure panel titles ("Dictionary", "CodePack").
    pub fn long_name(&self) -> &'static str {
        registry::entry(*self).codec.long_name()
    }

    /// One-line description for `--list-schemes`.
    pub fn describe(&self) -> &'static str {
        registry::entry(*self).codec.describe()
    }

    /// This scheme's codec.
    pub fn codec(&self) -> &'static dyn rtdc_compress::codec::Codec {
        registry::entry(*self).codec
    }

    /// This scheme's handler spec.
    pub fn handler(&self) -> &'static registry::HandlerSpec {
        &registry::entry(*self).handler
    }

    /// All registered schemes, in registry (paper-first) order.
    pub fn all() -> impl Iterator<Item = Scheme> {
        registry::REGISTRY.iter().map(|e| e.scheme)
    }

    /// The paper's own schemes (Dictionary and CodePack), in the order the
    /// paper's tables list them. Harnesses that reproduce the paper
    /// verbatim enumerate these.
    pub fn paper_schemes() -> impl Iterator<Item = Scheme> {
        registry::REGISTRY
            .iter()
            .filter(|e| e.in_paper_tables)
            .map(|e| e.scheme)
    }

    /// Looks a scheme up by registry name.
    pub fn by_name(name: &str) -> Option<Scheme> {
        registry::by_name(name).map(|e| e.scheme)
    }

    /// Parses a CLI scheme argument: a registry name with an optional
    /// `+rf` suffix selecting the second-register-file handler
    /// (`"d"`, `"cp+rf"`, ...). Returns the scheme and the rf flag.
    pub fn parse(arg: &str) -> Option<(Scheme, bool)> {
        let (name, rf) = Scheme::split_rf(arg);
        Scheme::by_name(name).map(|s| (s, rf))
    }

    /// The scheme argument [`Scheme::parse`] reads back: the name, plus
    /// `+rf` for the second-register-file handler (`"d"`, `"cp+rf"`).
    pub fn name_rf(&self, rf: bool) -> String {
        format!("{}{}", self.name(), if rf { "+rf" } else { "" })
    }

    /// Splits a scheme argument into the name before an optional `+rf`
    /// suffix and whether the suffix was there, without looking the name
    /// up.
    pub fn split_rf(arg: &str) -> (&str, bool) {
        match arg.strip_suffix("+rf") {
            Some(base) => (base, true),
            None => (arg, false),
        }
    }
}

impl std::fmt::Debug for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Keep the old enum's `{:?}` rendering ("Dictionary", "CodePack")
        // so assertion messages stay familiar.
        f.write_str(self.long_name())
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One loadable segment of an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Segment name (`.native`, `.indices`, `.dictionary`, ...).
    pub name: String,
    /// Base virtual address.
    pub base: u32,
    /// Contents.
    pub bytes: Vec<u8>,
}

impl Segment {
    /// End address (exclusive).
    pub fn end(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }
}

/// Code-size accounting for an image (the paper's Table 2 quantities).
///
/// Following §5.1, the decompressor code is *not* included in compressed
/// program sizes; it is reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeReport {
    /// Size of the original (fully native) `.text`, in bytes.
    pub original_text_bytes: u32,
    /// Bytes of procedures left as native code.
    pub native_text_bytes: u32,
    /// Bytes of the compressed representation (indices + dictionary, or
    /// groups + mapping table + dictionaries).
    pub compressed_payload_bytes: u32,
    /// Size of the decompression handler (reported, not counted in the
    /// compression ratio).
    pub handler_bytes: u32,
}

impl SizeReport {
    /// Total post-compression code size: native bytes + compressed payload.
    pub fn total_code_bytes(&self) -> u32 {
        self.native_text_bytes + self.compressed_payload_bytes
    }

    /// Eq. 1: compressed size / original size (smaller is better; can
    /// exceed 1.0 for incompressible programs).
    pub fn compression_ratio(&self) -> f64 {
        if self.original_text_bytes == 0 {
            return 1.0;
        }
        self.total_code_bytes() as f64 / self.original_text_bytes as f64
    }
}

/// A fully-built program image: segments, entry state, handler and region
/// configuration, and per-procedure address ranges for profiling.
/// `PartialEq` is field-exact — the [`crate::imagefile`] round-trip
/// tests lean on it.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryImage {
    /// Program name.
    pub name: String,
    /// Compression scheme, or `None` for a native image.
    pub scheme: Option<Scheme>,
    /// Whether the image's handler expects the second register file.
    pub second_regfile: bool,
    /// Entry PC.
    pub entry: u32,
    /// Initial stack pointer.
    pub initial_sp: u32,
    /// Loadable segments.
    pub segments: Vec<Segment>,
    /// C0 registers the loader must program (decompressor bases).
    pub c0_init: Vec<(C0Reg, u32)>,
    /// Handler RAM range, if a decompressor is installed.
    pub handler_range: Option<(u32, u32)>,
    /// Compressed code region (misses here raise the exception).
    pub compressed_range: Option<(u32, u32)>,
    /// Per-procedure `(start, end, proc_id)` address ranges.
    pub proc_regions: Vec<(u32, u32, usize)>,
    /// Procedure names, indexed by proc id.
    pub proc_names: Vec<String>,
    /// Code-size accounting.
    pub sizes: SizeReport,
    /// Per-segment integrity digests, recorded by [`MemoryImage::seal`]
    /// at build time and verified at every load.
    pub integrity: Vec<SegmentDigest>,
    /// Build-time CRC32 of each 32-byte line of the *decompressed*
    /// compressed region ([`crate::integrity::LINE_BYTES`]-sized windows
    /// from the region base). Reference measurements for the
    /// `--verify-lines` runner; empty for native images.
    pub line_crcs: Vec<u32>,
}

impl MemoryImage {
    /// The segment named `name`, if present.
    pub fn segment(&self, name: &str) -> Option<&Segment> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// Measures every loadable segment (length + CRC32) into
    /// [`MemoryImage::integrity`]. The builders call this as their final
    /// step; anything that mutates segment bytes afterwards (see
    /// [`crate::fault`]) leaves the digests stale, which is exactly what
    /// load-time verification exists to catch. Sealing again after such
    /// a mutation models corruption *after* load: [`MemoryImage::line_crcs`]
    /// (the build-time reference measurements) is never touched here, so
    /// the load-time CRC passes and only the `--verify-lines` runner (or
    /// the architectural outcome) can tell something is wrong.
    pub fn seal(&mut self) {
        self.integrity = self
            .segments
            .iter()
            .map(|s| SegmentDigest {
                name: s.name.clone(),
                declared_len: s.bytes.len() as u32,
                crc: crc32(&s.bytes),
            })
            .collect();
    }

    /// Verifies the image against its build-time digests: every digested
    /// segment must exist with its recorded length and CRC32, no
    /// undigested segment may have appeared, and no segment may wrap the
    /// address space. Success yields the [`Verified`] token the loader
    /// requires, borrowing this image.
    ///
    /// # Errors
    ///
    /// The first [`ImageError`] found.
    pub fn verify_integrity(&self) -> Result<Verified<&MemoryImage>, ImageError> {
        Verified::new(self)
    }

    /// The check behind [`MemoryImage::verify_integrity`].
    fn check_integrity(&self) -> Result<(), ImageError> {
        if self.integrity.is_empty() && !self.segments.is_empty() {
            return Err(ImageError::Unsealed);
        }
        for seg in &self.segments {
            let len = seg.bytes.len() as u64;
            if u64::from(seg.base) + len > u64::from(u32::MAX) {
                return Err(ImageError::SegmentOverflow {
                    segment: seg.name.clone(),
                    base: seg.base,
                    len,
                });
            }
        }
        for digest in &self.integrity {
            let seg = self
                .segment(&digest.name)
                .ok_or_else(|| ImageError::MissingSegment {
                    segment: digest.name.clone(),
                })?;
            let actual_len = seg.bytes.len() as u32;
            if actual_len != digest.declared_len {
                return Err(ImageError::LengthMismatch {
                    segment: digest.name.clone(),
                    declared: digest.declared_len,
                    actual: actual_len,
                });
            }
            let actual = crc32(&seg.bytes);
            if actual != digest.crc {
                return Err(ImageError::ChecksumMismatch {
                    segment: digest.name.clone(),
                    expected: digest.crc,
                    actual,
                });
            }
        }
        for seg in &self.segments {
            if !self.integrity.iter().any(|d| d.name == seg.name) {
                return Err(ImageError::MissingSegment {
                    segment: seg.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Number of procedures.
    pub fn proc_count(&self) -> usize {
        self.proc_names.len()
    }

    /// Approximate bytes this image occupies when held resident in a
    /// host-side cache: segment payloads plus the build-time reference
    /// measurements (per-line CRCs and segment digests) that travel with
    /// it. Small fixed-size metadata (ranges, entry state) is ignored —
    /// the accounting exists so an LRU byte budget tracks the dominant
    /// cost, not to audit the allocator.
    pub fn resident_bytes(&self) -> u64 {
        let segs: u64 = self.segments.iter().map(|s| s.bytes.len() as u64).sum();
        let crcs = 4 * self.line_crcs.len() as u64;
        let digests: u64 = self.integrity.iter().map(|d| 8 + d.name.len() as u64).sum();
        segs + crcs + digests
    }

    /// A human-readable rendering of the memory layout — the paper's
    /// Figure 3, for this image.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} ({})",
            self.name,
            match self.scheme {
                None => "native".to_string(),
                Some(sc) => format!("{sc}{}", if self.second_regfile { "+RF" } else { "" }),
            }
        );
        if let Some((start, end)) = self.compressed_range {
            let _ = writeln!(
                s,
                "  {start:#010x}..{end:#010x}  decompressed code (exists only in I-cache)"
            );
        }
        let mut segs: Vec<&Segment> = self.segments.iter().collect();
        segs.sort_by_key(|seg| seg.base);
        for seg in segs {
            let _ = writeln!(
                s,
                "  {:#010x}..{:#010x}  {:<14} {:>8} bytes",
                seg.base,
                seg.end(),
                seg.name,
                seg.bytes.len()
            );
        }
        let _ = writeln!(
            s,
            "  entry {:#010x}, sp {:#010x}",
            self.entry, self.initial_sp
        );
        let _ = writeln!(
            s,
            "  code: {} native + {} compressed payload = {} bytes ({:.1}% of {})",
            self.sizes.native_text_bytes,
            self.sizes.compressed_payload_bytes,
            self.sizes.total_code_bytes(),
            100.0 * self.sizes.compression_ratio(),
            self.sizes.original_text_bytes,
        );
        s
    }
}

/// A [`MemoryImage`] that has passed its integrity check — the only
/// thing [`crate::runner::load_verified`] accepts, so "never load an
/// unverified image" is checked by the compiler rather than by every
/// load path.
///
/// The owner `I` is whatever holds the image: a borrow (what
/// [`MemoryImage::verify_integrity`] returns), an owned image, or an
/// `Arc` shared with a cache. The field is private and the type has no
/// `DerefMut`, so a token's bytes are exactly the bytes that were
/// measured; a shared `Arc` that someone else mutates through
/// `Arc::make_mut` is copied first, leaving the token's image intact.
///
/// ```
/// use rtdc::prelude::*;
/// # use rtdc_isa::program::{ObjectProgram, ObjInsn, Procedure, ProcId};
/// # use rtdc_isa::{Instruction, Reg};
/// # let program = ObjectProgram {
/// #     name: "toy".into(),
/// #     procedures: vec![Procedure::new("main", vec![
/// #         ObjInsn::Insn(Instruction::Addiu { rt: Reg::V0, rs: Reg::ZERO, imm: 10 }),
/// #         ObjInsn::Insn(Instruction::Syscall),
/// #     ])],
/// #     data: Vec::new(),
/// #     entry: ProcId(0),
/// #     addr_tables: Vec::new(),
/// # };
/// let image = build_native(&program)?;
/// let verified = image.verify_integrity()?;
/// let machine = load_verified(&verified, SimConfig::hpca2000_baseline(), rtdc_sim::NoTrace);
/// assert_eq!(machine.pc(), image.entry);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Outside this module a token can only come from a successful check:
///
/// ```compile_fail,E0451
/// use rtdc::image::{MemoryImage, Verified};
///
/// fn forge(image: MemoryImage) -> Verified<MemoryImage> {
///     Verified { image }
/// }
/// ```
#[derive(Debug, PartialEq)]
pub struct Verified<I: Borrow<MemoryImage>> {
    image: I,
}

impl<I: Borrow<MemoryImage>> Verified<I> {
    /// Verifies `owner`'s image ([`MemoryImage::verify_integrity`]) and
    /// wraps it.
    ///
    /// # Errors
    ///
    /// The first [`ImageError`] found; `owner` is dropped.
    pub fn new(owner: I) -> Result<Verified<I>, ImageError> {
        owner.borrow().check_integrity()?;
        Ok(Verified { image: owner })
    }

    /// The owner, e.g. the `Arc` to share with a cache map.
    pub fn owner(&self) -> &I {
        &self.image
    }
}

impl Verified<MemoryImage> {
    /// Moves a verified owned image behind an `Arc` without re-checking
    /// it: the bytes do not change.
    pub fn into_shared(self) -> Verified<Arc<MemoryImage>> {
        Verified {
            image: Arc::new(self.image),
        }
    }
}

impl<I: Borrow<MemoryImage>> Deref for Verified<I> {
    type Target = MemoryImage;

    fn deref(&self) -> &MemoryImage {
        self.image.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_report_ratio() {
        let s = SizeReport {
            original_text_bytes: 1000,
            native_text_bytes: 200,
            compressed_payload_bytes: 500,
            handler_bytes: 104,
        };
        assert_eq!(s.total_code_bytes(), 700);
        assert!((s.compression_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_program_ratio_is_one() {
        let s = SizeReport {
            original_text_bytes: 0,
            native_text_bytes: 0,
            compressed_payload_bytes: 0,
            handler_bytes: 0,
        };
        assert_eq!(s.compression_ratio(), 1.0);
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(Scheme::Dictionary.to_string(), "D");
        assert_eq!(Scheme::CodePack.to_string(), "CP");
        assert_eq!(Scheme::ByteDict.to_string(), "D2");
        assert_eq!(Scheme::LzChunk.to_string(), "LZ");
    }

    #[test]
    fn scheme_debug_matches_old_enum() {
        assert_eq!(format!("{:?}", Scheme::Dictionary), "Dictionary");
        assert_eq!(format!("{:?}", Scheme::CodePack), "CodePack");
        assert_eq!(format!("{:?}", Scheme::ByteDict), "ByteDict");
    }

    #[test]
    fn scheme_parse_handles_rf_suffix() {
        assert_eq!(Scheme::parse("d"), Some((Scheme::Dictionary, false)));
        assert_eq!(Scheme::parse("cp+rf"), Some((Scheme::CodePack, true)));
        assert_eq!(Scheme::parse("lz"), Some((Scheme::LzChunk, false)));
        assert_eq!(Scheme::parse("nope"), None);
        assert_eq!(Scheme::parse("+rf"), None);
    }

    #[test]
    fn scheme_all_is_registry_order() {
        let names: Vec<&str> = Scheme::all().map(|s| s.name()).collect();
        assert_eq!(names, ["d", "cp", "d2", "lz"]);
        let paper: Vec<&str> = Scheme::paper_schemes().map(|s| s.name()).collect();
        assert_eq!(paper, ["d", "cp"]);
    }
}
