//! Deterministic, seeded fault injection into built [`MemoryImage`]s.
//!
//! A [`FaultPlan`] is a list of [`Fault`]s applied to an image *between
//! build and load* — the window in which the stored image (flash, disk, a
//! transfer) can rot. Three fault kinds cover the classic corruption
//! modes: a single flipped bit, a byte stuck at a value, and truncation
//! of a segment's tail.
//!
//! Plans are reproducible by construction: [`FaultPlan::random`] derives
//! every choice from a caller-provided seed via the repo's own
//! deterministic RNG, and [`FaultPlan::parse`] accepts both explicit
//! fault lists and `rand:SEED[:N]` specs, so a failure seen in the
//! `faultsweep` experiment or under `rtdc-run --inject` can be replayed
//! exactly.
//!
//! Applying a plan deliberately does **not** touch the image's integrity
//! digests: a fault injected after [`MemoryImage::seal`] is exactly what
//! the load-time CRC check exists to catch. To model corruption that
//! happens *after* load (bit rot in RAM, which no load-time check can
//! see), seal again after applying — sealing measures segments only, so
//! the per-line reference CRCs survive untouched and the `--verify-lines`
//! runner still catches the corruption at the first affected miss.
//!
//! [`MemoryImage::seal`]: crate::image::MemoryImage::seal

#![deny(clippy::cast_possible_truncation)]

use std::fmt;

use rtdc_rng::Rng64;

use crate::image::MemoryImage;

/// What a single fault does to its target byte (or segment tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of the target byte.
    BitFlip {
        /// Bit position, `0..8`.
        bit: u8,
    },
    /// Overwrite the target byte with a fixed value (stuck-at).
    StuckByte {
        /// The value the byte is stuck at.
        value: u8,
    },
    /// Cut the segment off at the target offset (models a truncated
    /// image transfer).
    Truncate,
}

/// One fault: a kind applied at a byte offset of a named segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Target segment name (`.dictionary`, `.indices`, `.decompressor`,
    /// `.native`, ...).
    pub segment: String,
    /// Byte offset within the segment.
    pub offset: u32,
    /// What to do at that offset.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::BitFlip { bit } => {
                write!(f, "flip:{}:{}:{}", self.segment, self.offset, bit)
            }
            FaultKind::StuckByte { value } => {
                write!(f, "stuck:{}:{}:{:#04x}", self.segment, self.offset, value)
            }
            FaultKind::Truncate => write!(f, "trunc:{}:{}", self.segment, self.offset),
        }
    }
}

/// A reproducible list of faults to apply to an image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, applied in order.
    pub faults: Vec<Fault>,
}

/// Errors constructing or applying a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// The plan names a segment the image does not have.
    NoSuchSegment {
        /// The missing segment's name.
        segment: String,
    },
    /// A fault's offset is past the end of its target segment.
    OffsetOutOfRange {
        /// Target segment.
        segment: String,
        /// Requested offset.
        offset: u32,
        /// The segment's actual length.
        len: usize,
    },
    /// A plan spec string could not be parsed.
    BadSpec {
        /// The offending spec fragment.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NoSuchSegment { segment } => {
                write!(f, "image has no segment named {segment}")
            }
            FaultError::OffsetOutOfRange {
                segment,
                offset,
                len,
            } => write!(
                f,
                "offset {offset} is past the end of {segment} ({len} bytes)"
            ),
            FaultError::BadSpec { spec, reason } => write!(f, "bad fault spec `{spec}`: {reason}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultPlan {
    /// Generates `n` seeded faults over the code-carrying segments of
    /// `image` (everything except `.data`): targets are chosen weighted
    /// by segment size, offsets uniformly, and kinds with bit flips most
    /// likely (they are the common soft-error mode), so the same seed
    /// over the same image always yields the same plan.
    pub fn random(seed: u64, n: usize, image: &MemoryImage) -> FaultPlan {
        let mut rng = Rng64::seed_from_u64(seed);
        let targets: Vec<(&str, usize)> = image
            .segments
            .iter()
            .filter(|s| s.name != ".data" && !s.bytes.is_empty())
            .map(|s| (s.name.as_str(), s.bytes.len()))
            .collect();
        let total: u64 = targets.iter().map(|&(_, len)| len as u64).sum();
        let mut faults = Vec::with_capacity(n);
        if total == 0 {
            return FaultPlan { faults };
        }
        for _ in 0..n {
            let mut point = rng.gen_range(0..total);
            let &(name, len) = targets
                .iter()
                .find(|&&(_, len)| {
                    if point < len as u64 {
                        true
                    } else {
                        point -= len as u64;
                        false
                    }
                })
                .expect("point < total by construction");
            // Below a segment's length, and segments lie in the 32-bit
            // address space (`Segment::end` is a u32).
            #[allow(clippy::cast_possible_truncation)]
            let offset = rng.gen_range(0..len as u64) as u32;
            let kind = match rng.gen_range(0..8u32) {
                // The bit is below 8.
                #[allow(clippy::cast_possible_truncation)]
                0..=5 => FaultKind::BitFlip {
                    bit: rng.gen_range(0..8u32) as u8,
                },
                6 => FaultKind::StuckByte {
                    value: rng.gen_u32().to_le_bytes()[0],
                },
                _ => FaultKind::Truncate,
            };
            faults.push(Fault {
                segment: name.to_string(),
                offset,
                kind,
            });
        }
        FaultPlan { faults }
    }

    /// Parses a plan spec.
    ///
    /// Two grammars, chosen by prefix:
    ///
    /// * `rand:SEED[:N]` — N seeded faults (default 1, at most 2^20) via
    ///   [`FaultPlan::random`] over `image`;
    /// * a comma-separated fault list, each fault one of
    ///   `flip:SEG:OFF:BIT`, `stuck:SEG:OFF:VALUE`, `trunc:SEG:OFF`
    ///   (offsets and values accept `0x` hex).
    ///
    /// # Errors
    ///
    /// [`FaultError::BadSpec`] on malformed input.
    pub fn parse(spec: &str, image: &MemoryImage) -> Result<FaultPlan, FaultError> {
        let bad = |spec: &str, reason: &str| FaultError::BadSpec {
            spec: spec.to_string(),
            reason: reason.to_string(),
        };
        if let Some(rest) = spec.strip_prefix("rand:") {
            let mut parts = rest.split(':');
            let seed = parse_u64(parts.next().unwrap_or(""))
                .ok_or_else(|| bad(spec, "expected rand:SEED[:N]"))?;
            let n = match parts.next() {
                None => 1,
                Some(n) => match parse_u64(n).ok_or_else(|| bad(spec, "bad fault count"))? {
                    // The arm's range fits any usize.
                    #[allow(clippy::cast_possible_truncation)]
                    n @ 0..=MAX_RANDOM_FAULTS => n as usize,
                    _ => return Err(bad(spec, "fault count above 2^20")),
                },
            };
            if parts.next().is_some() {
                return Err(bad(spec, "expected rand:SEED[:N]"));
            }
            return Ok(FaultPlan::random(seed, n, image));
        }
        let mut faults = Vec::new();
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let parts: Vec<&str> = item.split(':').collect();
            let offset = |off: &str| {
                let off = parse_u64(off).ok_or_else(|| bad(item, "bad offset"))?;
                u32::try_from(off).map_err(|_| bad(item, "offset above 2^32"))
            };
            let fault = match parts.as_slice() {
                ["flip", seg, off, bit] => Fault {
                    segment: seg.to_string(),
                    offset: offset(off)?,
                    kind: FaultKind::BitFlip {
                        bit: match parse_u64(bit).ok_or_else(|| bad(item, "bad bit"))? {
                            // The arm's range fits a u8.
                            #[allow(clippy::cast_possible_truncation)]
                            b @ 0..=7 => b as u8,
                            _ => return Err(bad(item, "bit must be 0..8")),
                        },
                    },
                },
                ["stuck", seg, off, value] => Fault {
                    segment: seg.to_string(),
                    offset: offset(off)?,
                    kind: FaultKind::StuckByte {
                        value: match parse_u64(value).ok_or_else(|| bad(item, "bad value"))? {
                            // The arm's range fits a u8.
                            #[allow(clippy::cast_possible_truncation)]
                            v @ 0..=255 => v as u8,
                            _ => return Err(bad(item, "value must be a byte")),
                        },
                    },
                },
                ["trunc", seg, off] => Fault {
                    segment: seg.to_string(),
                    offset: offset(off)?,
                    kind: FaultKind::Truncate,
                },
                _ => {
                    return Err(bad(
                        item,
                        "expected flip:SEG:OFF:BIT, stuck:SEG:OFF:VALUE, or trunc:SEG:OFF",
                    ))
                }
            };
            faults.push(fault);
        }
        if faults.is_empty() {
            return Err(bad(spec, "empty plan"));
        }
        Ok(FaultPlan { faults })
    }

    /// Applies every fault to `image`, in order.
    ///
    /// Digests are intentionally left stale (see the module docs); call
    /// [`MemoryImage::seal`] afterwards to model post-load corruption
    /// instead.
    ///
    /// # Errors
    ///
    /// [`FaultError::NoSuchSegment`] / [`FaultError::OffsetOutOfRange`]
    /// if a fault does not land inside the image; earlier faults in the
    /// plan stay applied.
    pub fn apply(&self, image: &mut MemoryImage) -> Result<(), FaultError> {
        for f in &self.faults {
            let seg = image
                .segments
                .iter_mut()
                .find(|s| s.name == f.segment)
                .ok_or_else(|| FaultError::NoSuchSegment {
                    segment: f.segment.clone(),
                })?;
            let off = f.offset as usize;
            if off >= seg.bytes.len() {
                return Err(FaultError::OffsetOutOfRange {
                    segment: f.segment.clone(),
                    offset: f.offset,
                    len: seg.bytes.len(),
                });
            }
            match f.kind {
                FaultKind::BitFlip { bit } => seg.bytes[off] ^= 1 << (bit & 7),
                FaultKind::StuckByte { value } => seg.bytes[off] = value,
                FaultKind::Truncate => seg.bytes.truncate(off),
            }
        }
        Ok(())
    }
}

/// The most faults a `rand:` spec may ask for. The plan is built in
/// memory, so without a bound a short spec could ask for terabytes.
const MAX_RANDOM_FAULTS: u64 = 1 << 20;

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{Segment, SizeReport};

    fn toy_image() -> MemoryImage {
        let mut image = MemoryImage {
            name: "toy".into(),
            scheme: None,
            second_regfile: false,
            entry: 0x1000,
            initial_sp: 0x8000,
            segments: vec![
                Segment {
                    name: ".text".into(),
                    base: 0x1000,
                    bytes: vec![0u8; 64],
                },
                Segment {
                    name: ".data".into(),
                    base: 0x2000,
                    bytes: vec![0u8; 32],
                },
            ],
            c0_init: Vec::new(),
            handler_range: None,
            compressed_range: None,
            proc_regions: Vec::new(),
            proc_names: Vec::new(),
            sizes: SizeReport {
                original_text_bytes: 64,
                native_text_bytes: 64,
                compressed_payload_bytes: 0,
                handler_bytes: 0,
            },
            integrity: Vec::new(),
            line_crcs: Vec::new(),
        };
        image.seal();
        image
    }

    #[test]
    fn same_seed_same_plan() {
        let image = toy_image();
        let a = FaultPlan::random(42, 8, &image);
        let b = FaultPlan::random(42, 8, &image);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::random(43, 8, &image));
    }

    #[test]
    fn random_plan_avoids_data_segment() {
        let image = toy_image();
        let plan = FaultPlan::random(7, 64, &image);
        assert!(plan.faults.iter().all(|f| f.segment != ".data"));
    }

    #[test]
    fn apply_flips_exactly_one_bit() {
        let mut image = toy_image();
        let plan = FaultPlan {
            faults: vec![Fault {
                segment: ".text".into(),
                offset: 5,
                kind: FaultKind::BitFlip { bit: 3 },
            }],
        };
        plan.apply(&mut image).unwrap();
        assert_eq!(image.segments[0].bytes[5], 1 << 3);
        assert!(image.verify_integrity().is_err(), "digest must go stale");
    }

    #[test]
    fn truncate_cuts_segment() {
        let mut image = toy_image();
        let plan = FaultPlan::parse("trunc:.text:16", &image).unwrap();
        plan.apply(&mut image).unwrap();
        assert_eq!(image.segments[0].bytes.len(), 16);
    }

    #[test]
    fn parse_round_trips_display() {
        let image = toy_image();
        let plan = FaultPlan::parse(
            "flip:.text:12:3,stuck:.text:0x10:0xff,trunc:.text:5",
            &image,
        )
        .unwrap();
        let rendered: Vec<String> = plan.faults.iter().map(|f| f.to_string()).collect();
        let reparsed = FaultPlan::parse(&rendered.join(","), &image).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_rejects_garbage() {
        let image = toy_image();
        for bad in [
            "",
            "flip:.text:1",
            "zap:.text:1:2",
            "rand:notanumber",
            "rand:1:99999999999",
        ] {
            assert!(FaultPlan::parse(bad, &image).is_err(), "{bad}");
        }
        // An offset past 32 bits is rejected, not truncated to 1.
        for spec in [
            "flip:.text:4294967297:0",
            "stuck:.text:0x100000001:7",
            "trunc:.text:4294967296",
        ] {
            assert_eq!(
                FaultPlan::parse(spec, &image),
                Err(FaultError::BadSpec {
                    spec: spec.into(),
                    reason: "offset above 2^32".into()
                })
            );
        }
        assert_eq!(
            FaultPlan::parse("flip:.text:4294967295:0", &image).map(|p| p.faults[0].offset),
            Ok(u32::MAX)
        );
    }

    #[test]
    fn apply_rejects_out_of_range() {
        let mut image = toy_image();
        let plan = FaultPlan::parse("flip:.text:9999:0", &image).unwrap();
        assert!(matches!(
            plan.apply(&mut image),
            Err(FaultError::OffsetOutOfRange { .. })
        ));
        let plan = FaultPlan::parse("flip:.nope:0:0", &image).unwrap();
        assert!(matches!(
            plan.apply(&mut image),
            Err(FaultError::NoSuchSegment { .. })
        ));
    }
}
