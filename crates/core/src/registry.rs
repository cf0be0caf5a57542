//! The scheme registry: the **only** place that knows which compression
//! schemes exist.
//!
//! Every layer — the image builder, the CLI, the benchmark harnesses —
//! enumerates [`REGISTRY`] or looks entries up through [`Scheme`]
//! accessors instead of matching on scheme variants. One [`SchemeEntry`]
//! binds together everything the rest of the system needs:
//!
//! * the [`Codec`] (compression algorithm + segment layout), from
//!   `rtdc-compress`;
//! * the [`HandlerSpec`]: the exception-handler source and the C0 ABI
//!   table mapping C0 registers to codec segment bases.
//!
//! Adding a scheme = one codec module in `rtdc-compress`, one handler
//! `.s` source in `handlers/`, and one entry in [`REGISTRY`]. Nothing
//! else changes; see DESIGN.md ("Adding a codec") for the worked example.

use std::sync::OnceLock;

use rtdc_compress::codec::Codec;
use rtdc_compress::{bytedict, codepack, dictionary, lzchunk};
use rtdc_isa::asm::Assembled;
use rtdc_isa::C0Reg;
use rtdc_sim::map;

use crate::handlers;
use crate::image::Scheme;

/// How a C0 register is initialized for a scheme's handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C0Binding {
    /// Base address of the named codec segment.
    Segment(&'static str),
    /// Base of the handler scratch RAM ([`map::SCRATCH_BASE`]).
    ScratchBase,
}

/// Where a scheme's handler source comes from.
#[derive(Debug, Clone, Copy)]
pub enum HandlerSource {
    /// Two complete, separately-written sources (the paper's Figure 2
    /// dictionary handler and its hand-unrolled +RF variant).
    Complete {
        /// Source of the plain (save/restore) variant.
        plain: &'static str,
        /// Source of the second-register-file variant.
        rf: &'static str,
    },
    /// One body shared by both variants: the plain variant wraps it in
    /// register saves/restores, both get `iret` and an optional
    /// subroutine epilogue appended.
    Wrapped {
        /// The decompression body.
        body: &'static str,
        /// Register saves prepended to the plain variant.
        saves: &'static str,
        /// Register restores appended to the plain variant.
        restores: &'static str,
        /// Shared subroutines placed after `iret` (may be empty).
        epilogue: &'static str,
    },
}

/// Everything `rtdc-core` needs to build and run one scheme's handler.
#[derive(Debug, Clone, Copy)]
pub struct HandlerSpec {
    /// The handler's assembly source.
    pub source: HandlerSource,
    /// C0 ABI: which C0 registers the loader programs, in order, and what
    /// each one points at. (`c0[0]`, the decompressed-region base, is
    /// common to all schemes and set by the builder itself.)
    pub c0: &'static [(C0Reg, C0Binding)],
    /// Dynamic handler instructions per cache line for the plain variant,
    /// when the cost is constant (dictionary-style handlers); `None` for
    /// data-dependent handlers. Measured by the end-to-end tests.
    pub insns_per_line: Option<usize>,
    /// Same, for the second-register-file variant.
    pub rf_insns_per_line: Option<usize>,
}

impl HandlerSpec {
    /// The handler source for the requested variant.
    pub fn source_text(&self, second_rf: bool) -> String {
        match self.source {
            HandlerSource::Complete { plain, rf } => {
                (if second_rf { rf } else { plain }).to_string()
            }
            HandlerSource::Wrapped {
                body,
                saves,
                restores,
                epilogue,
            } => {
                let mut s = if second_rf {
                    format!("{body}    iret\n")
                } else {
                    format!("{saves}{body}{restores}    iret\n")
                };
                if !epilogue.is_empty() {
                    s.push('\n');
                    s.push_str(epilogue);
                }
                s
            }
        }
    }

    /// Assembles the requested variant at the handler RAM base.
    pub fn assemble(&self, second_rf: bool) -> Assembled {
        rtdc_isa::asm::assemble(&self.source_text(second_rf), map::HANDLER_BASE, 0)
            .expect("registered handler source is valid")
    }

    /// Resolves a [`C0Binding`] against the codec segment bases laid out
    /// by the builder.
    pub fn resolve_c0(&self, segment_base: impl Fn(&str) -> Option<u32>) -> Vec<(C0Reg, u32)> {
        self.c0
            .iter()
            .map(|&(reg, binding)| {
                let addr = match binding {
                    C0Binding::Segment(name) => segment_base(name)
                        .unwrap_or_else(|| panic!("codec produced no segment named {name}")),
                    C0Binding::ScratchBase => map::SCRATCH_BASE,
                };
                (reg, addr)
            })
            .collect()
    }
}

/// One registered compression scheme.
pub struct SchemeEntry {
    /// The registry key.
    pub scheme: Scheme,
    /// The compression algorithm and segment layout.
    pub codec: &'static dyn Codec,
    /// The exception handler and its C0 ABI.
    pub handler: HandlerSpec,
    /// Whether this scheme is one of the paper's own (Dictionary and
    /// CodePack): the table/figure harnesses that reproduce the paper
    /// verbatim enumerate only these; exploratory harnesses (futurework,
    /// simperf) enumerate everything.
    pub in_paper_tables: bool,
}

/// All registered schemes, in canonical (paper-first) order.
///
/// This is the single list to edit when adding a scheme.
pub static REGISTRY: &[SchemeEntry] = &[
    SchemeEntry {
        scheme: Scheme::Dictionary,
        codec: &dictionary::DictionaryCodec,
        handler: HandlerSpec {
            source: HandlerSource::Complete {
                plain: handlers::DICTIONARY_SOURCE,
                rf: handlers::DICTIONARY_RF_SOURCE,
            },
            c0: &[
                (C0Reg::DICT_BASE, C0Binding::Segment(".dictionary")),
                (C0Reg::INDICES_BASE, C0Binding::Segment(".indices")),
            ],
            insns_per_line: Some(handlers::DICTIONARY_INSNS_PER_LINE),
            rf_insns_per_line: Some(handlers::DICTIONARY_RF_INSNS_PER_LINE),
        },
        in_paper_tables: true,
    },
    SchemeEntry {
        scheme: Scheme::CodePack,
        codec: &codepack::CodePackCodec,
        handler: HandlerSpec {
            source: HandlerSource::Wrapped {
                body: handlers::CODEPACK_BODY,
                saves: handlers::CP_SAVES,
                restores: handlers::CP_RESTORES,
                epilogue: handlers::READ_BITS,
            },
            c0: &[
                (C0Reg::DICT_BASE, C0Binding::Segment(".hidict")),
                (C0Reg::INDICES_BASE, C0Binding::Segment(".lodict")),
                (C0Reg::GROUPS_BASE, C0Binding::Segment(".groups")),
                (C0Reg::GROUPTAB_BASE, C0Binding::Segment(".grouptab")),
                (C0Reg::AUX, C0Binding::Segment(".groupdeltas")),
            ],
            insns_per_line: None,
            rf_insns_per_line: None,
        },
        in_paper_tables: true,
    },
    SchemeEntry {
        scheme: Scheme::ByteDict,
        codec: &bytedict::ByteDictCodec,
        handler: HandlerSpec {
            source: HandlerSource::Wrapped {
                body: handlers::BYTEDICT_BODY,
                saves: handlers::BD_SAVES,
                restores: handlers::BD_RESTORES,
                epilogue: "",
            },
            c0: &[
                (C0Reg::DICT_BASE, C0Binding::Segment(".bytedict")),
                (C0Reg::GROUPS_BASE, C0Binding::Segment(".bytecodes")),
                (C0Reg::GROUPTAB_BASE, C0Binding::Segment(".linetab")),
                (C0Reg::AUX, C0Binding::Segment(".linedeltas")),
            ],
            insns_per_line: None,
            rf_insns_per_line: None,
        },
        in_paper_tables: false,
    },
    SchemeEntry {
        scheme: Scheme::LzChunk,
        codec: &lzchunk::LzChunkCodec,
        handler: HandlerSpec {
            source: HandlerSource::Wrapped {
                body: handlers::LZ_BODY,
                saves: handlers::LZ_SAVES,
                restores: handlers::LZ_RESTORES,
                epilogue: "",
            },
            c0: &[
                (C0Reg::GROUPS_BASE, C0Binding::Segment(".lzbytes")),
                (C0Reg::GROUPTAB_BASE, C0Binding::Segment(".lzchunks")),
                (C0Reg::AUX, C0Binding::ScratchBase),
            ],
            insns_per_line: None,
            rf_insns_per_line: None,
        },
        in_paper_tables: false,
    },
];

/// Each registered handler variant's encoded text, indexed like
/// [`REGISTRY`] and by variant (plain, then second register file).
static HANDLER_TEXT: [[OnceLock<Vec<u8>>; 2]; REGISTRY.len()] =
    [const { [const { OnceLock::new() }, const { OnceLock::new() }] }; REGISTRY.len()];

/// The little-endian text of `scheme`'s handler variant, assembled at
/// the handler RAM base the first time any build asks for it and shared
/// by every later build in the process.
///
/// # Panics
///
/// As [`entry`].
pub fn handler_text(scheme: Scheme, second_rf: bool) -> &'static [u8] {
    let i = REGISTRY
        .iter()
        .position(|e| e.scheme == scheme)
        .unwrap_or_else(|| panic!("scheme {:?} is not registered", scheme));
    HANDLER_TEXT[i][usize::from(second_rf)].get_or_init(|| {
        REGISTRY[i]
            .handler
            .assemble(second_rf)
            .encoded_text()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
    })
}

/// The entry for `scheme`.
///
/// # Panics
///
/// Panics if `scheme` is not registered (impossible for `Scheme` values
/// obtained through this crate's constants or [`Scheme::by_name`]).
pub fn entry(scheme: Scheme) -> &'static SchemeEntry {
    REGISTRY
        .iter()
        .find(|e| e.scheme == scheme)
        .unwrap_or_else(|| panic!("scheme {:?} is not registered", scheme))
}

/// The entry whose codec is named `name` (the CLI/registry key).
pub fn by_name(name: &str) -> Option<&'static SchemeEntry> {
    REGISTRY.iter().find(|e| e.codec.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_keys_are_unique_and_consistent() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert_eq!(e.scheme.name(), e.codec.name(), "key/codec name mismatch");
            for other in &REGISTRY[i + 1..] {
                assert_ne!(e.codec.name(), other.codec.name());
                assert_ne!(e.codec.short_label(), other.codec.short_label());
                assert_ne!(e.scheme, other.scheme);
            }
        }
    }

    #[test]
    fn every_handler_assembles_and_fits() {
        for e in REGISTRY {
            for rf in [false, true] {
                let a = e.handler.assemble(rf);
                assert!(
                    a.text_bytes() <= map::HANDLER_BYTES as usize,
                    "{} handler too large",
                    e.codec.name()
                );
            }
        }
    }

    #[test]
    fn handler_text_is_the_assembled_variant() {
        for e in REGISTRY {
            for rf in [false, true] {
                let want: Vec<u8> = e
                    .handler
                    .assemble(rf)
                    .encoded_text()
                    .iter()
                    .flat_map(|w| w.to_le_bytes())
                    .collect();
                assert_eq!(handler_text(e.scheme, rf), &want[..]);
                assert!(std::ptr::eq(
                    handler_text(e.scheme, rf),
                    handler_text(e.scheme, rf)
                ));
            }
        }
    }

    #[test]
    fn c0_bindings_name_real_segments() {
        // Compress a small stream with each codec and check every Segment
        // binding resolves against the produced layout.
        let words = vec![0x2402_0001u32; 256];
        for e in REGISTRY {
            let layout = e.codec.compress(&words).unwrap();
            for &(_, binding) in e.handler.c0 {
                if let C0Binding::Segment(name) = binding {
                    assert!(
                        layout.segment(name).is_some(),
                        "{}: C0 ABI names missing segment {name}",
                        e.codec.name()
                    );
                }
            }
        }
    }

    #[test]
    fn paper_pair_is_dictionary_then_codepack() {
        let pair: Vec<&str> = REGISTRY
            .iter()
            .filter(|e| e.in_paper_tables)
            .map(|e| e.codec.name())
            .collect();
        assert_eq!(pair, ["d", "cp"]);
    }
}
