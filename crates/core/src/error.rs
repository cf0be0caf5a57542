//! Errors for image building and running.

use std::error::Error;
use std::fmt;

use rtdc_compress::codec::{CompressError, DecodeError};
use rtdc_compress::dictionary::DictionaryOverflow;
use rtdc_isa::program::LinkError;
use rtdc_sim::SimError;

use crate::plan::PlanError;

/// Errors verifying a [`MemoryImage`](crate::image::MemoryImage)'s
/// integrity at load time, against the digests recorded when it was
/// built (see [`crate::integrity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageError {
    /// The image carries no digests at all — it was never sealed, so
    /// nothing about it can be attested.
    Unsealed,
    /// A digest exists for a segment the image no longer has, or the
    /// digest and segment counts disagree.
    MissingSegment {
        /// The digested segment that is absent.
        segment: String,
    },
    /// A segment's length differs from the length recorded at build time
    /// (e.g. a truncated image transfer). Rejected, never silently
    /// truncated or zero-padded.
    LengthMismatch {
        /// The offending segment.
        segment: String,
        /// Length recorded at build time.
        declared: u32,
        /// The segment's actual length.
        actual: u32,
    },
    /// A segment's bytes no longer match their build-time CRC32.
    ChecksumMismatch {
        /// The corrupted segment.
        segment: String,
        /// CRC32 recorded at build time.
        expected: u32,
        /// CRC32 of the bytes as loaded.
        actual: u32,
    },
    /// A segment's base + length overflows the 32-bit address space, so
    /// loading it would wrap.
    SegmentOverflow {
        /// The offending segment.
        segment: String,
        /// Its base address.
        base: u32,
        /// Its length in bytes.
        len: u64,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Unsealed => write!(f, "image carries no integrity digests"),
            ImageError::MissingSegment { segment } => {
                write!(f, "digested segment {segment} is missing from the image")
            }
            ImageError::LengthMismatch {
                segment,
                declared,
                actual,
            } => write!(
                f,
                "segment {segment} is {actual} bytes but was built with {declared}"
            ),
            ImageError::ChecksumMismatch {
                segment,
                expected,
                actual,
            } => write!(
                f,
                "segment {segment} CRC32 {actual:#010x} does not match build-time {expected:#010x}"
            ),
            ImageError::SegmentOverflow { segment, base, len } => write!(
                f,
                "segment {segment} at {base:#010x} with {len} bytes overflows the address space"
            ),
        }
    }
}

impl Error for ImageError {}

/// Errors building a [`MemoryImage`](crate::image::MemoryImage).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The chosen codec could not represent the compressed region (e.g.
    /// too many unique instructions for 16-bit indices); compress fewer
    /// procedures (§3.1's escape hatch).
    Compress(CompressError),
    /// Linking failed.
    Link(LinkError),
    /// The compression plan is internally inconsistent or does not match
    /// the program (see [`PlanError`]).
    Plan(PlanError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compress(e) => write!(f, "compression failed: {e}"),
            BuildError::Link(e) => write!(f, "link failed: {e}"),
            BuildError::Plan(e) => write!(f, "invalid compression plan: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Compress(e) => Some(e),
            BuildError::Link(e) => Some(e),
            BuildError::Plan(e) => Some(e),
        }
    }
}

impl From<PlanError> for BuildError {
    fn from(e: PlanError) -> BuildError {
        BuildError::Plan(e)
    }
}

impl From<CompressError> for BuildError {
    fn from(e: CompressError) -> BuildError {
        BuildError::Compress(e)
    }
}

impl From<DictionaryOverflow> for BuildError {
    fn from(e: DictionaryOverflow) -> BuildError {
        BuildError::Compress(CompressError::from(e))
    }
}

impl From<LinkError> for BuildError {
    fn from(e: LinkError) -> BuildError {
        BuildError::Link(e)
    }
}

/// Errors running an image to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The simulator hit a fatal condition.
    Sim(SimError),
    /// The image wants a second register file but the configuration (or
    /// vice versa) disagrees — the handler would corrupt program state.
    RegfileMismatch {
        /// What the image's handler was built for.
        image_rf: bool,
        /// What the simulator config provides.
        config_rf: bool,
    },
    /// Load-time integrity verification rejected the image.
    CorruptImage(ImageError),
    /// The `--verify-lines` runner caught a handler fill whose bytes do
    /// not match the build-time reference CRC — corrupted compressed
    /// data (or a corrupted handler) decoded into wrong instructions.
    CorruptFill {
        /// Base address of the bad 32-byte line.
        line_addr: u32,
        /// Build-time reference CRC32 of the line.
        expected: u32,
        /// CRC32 of the line the handler actually filled.
        actual: u32,
    },
    /// The `--verify-lines` runner could not reference-decode the
    /// image's compressed region to begin with.
    Decode(DecodeError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::RegfileMismatch { image_rf, config_rf } => write!(
                f,
                "image built for second_regfile={image_rf} but config has second_regfile={config_rf}"
            ),
            RunError::CorruptImage(e) => write!(f, "corrupt image rejected at load: {e}"),
            RunError::CorruptFill {
                line_addr,
                expected,
                actual,
            } => write!(
                f,
                "corrupt fill detected at miss: line {line_addr:#010x} CRC32 {actual:#010x}, reference {expected:#010x}"
            ),
            RunError::Decode(e) => write!(f, "compressed region does not decode: {e}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            RunError::RegfileMismatch { .. } | RunError::CorruptFill { .. } => None,
            RunError::CorruptImage(e) => Some(e),
            RunError::Decode(e) => Some(e),
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> RunError {
        RunError::Sim(e)
    }
}

impl From<ImageError> for RunError {
    fn from(e: ImageError) -> RunError {
        RunError::CorruptImage(e)
    }
}

impl From<DecodeError> for RunError {
    fn from(e: DecodeError) -> RunError {
        RunError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_chains_are_informative() {
        let e = BuildError::Plan(PlanError::ProcCountMismatch {
            plan: 3,
            program: 5,
        });
        assert!(e.to_string().contains('5') && e.to_string().contains('3'));
        let e = RunError::RegfileMismatch {
            image_rf: true,
            config_rf: false,
        };
        assert!(e.to_string().contains("second_regfile"));
    }
}
