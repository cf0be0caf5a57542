//! Binary serialization of [`MemoryImage`] — the payload format of the
//! `rtdc-serve` disk store.
//!
//! The format is deliberately dumb: little-endian, length-prefixed,
//! field-by-field, no compression (the segment payloads *are* the
//! compressed program; recompressing them buys nothing). What matters
//! is the decoder's posture: it is fed by files that may have been
//! truncated by a crash mid-write or corrupted at rest, so every read
//! is bounds-checked, every length is validated against the remaining
//! bytes *before* any allocation, and every failure is a typed
//! [`ImageFileError`] — never a panic, never an OOM from a hostile
//! length field. The store's envelope (magic, version, whole-file CRC)
//! rejects most damage before this decoder runs; these checks are the
//! second wall.
//!
//! Round-tripping is exact: `decode(encode(img)) == img` including the
//! integrity digests and line CRCs, so a decoded image can be
//! re-verified with [`MemoryImage::verify_integrity`] against the seals
//! recorded at build time — the disk store's proof that a rehydrated
//! image is byte-identical to the one that was spilled.
//!
//! [`MemoryImage::verify_integrity`]: crate::image::MemoryImage::verify_integrity

#![deny(clippy::cast_possible_truncation)]

use rtdc_isa::C0Reg;

use crate::image::{MemoryImage, Scheme, Segment, SizeReport};
use crate::integrity::SegmentDigest;

/// Why a byte sequence failed to decode as a [`MemoryImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageFileError {
    /// The input ended before `field` could be read in full.
    Truncated {
        /// The field being read when the bytes ran out.
        field: &'static str,
    },
    /// A string field held invalid UTF-8.
    BadUtf8 {
        /// The offending field.
        field: &'static str,
    },
    /// The encoded scheme name matched no registered scheme.
    UnknownScheme {
        /// The name found in the file.
        name: String,
    },
    /// A field held a value outside its domain (bad bool tag, c0
    /// register number >= 16, ...).
    BadValue {
        /// The offending field.
        field: &'static str,
    },
    /// Bytes remained after a complete image was decoded.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
}

impl std::fmt::Display for ImageFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageFileError::Truncated { field } => {
                write!(f, "truncated while reading `{field}`")
            }
            ImageFileError::BadUtf8 { field } => write!(f, "invalid utf-8 in `{field}`"),
            ImageFileError::UnknownScheme { name } => {
                write!(f, "unknown scheme `{name}`")
            }
            ImageFileError::BadValue { field } => write!(f, "bad value in `{field}`"),
            ImageFileError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after image")
            }
        }
    }
}

impl std::error::Error for ImageFileError {}

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    /// A length or count prefix. Each one in a [`MemoryImage`] is
    /// bounded by the 32-bit address space its segments occupy.
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("image lengths fit the 32-bit address space"));
    }
    fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.out.extend_from_slice(b);
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ImageFileError> {
        // `n` comes from an untrusted length prefix: check against the
        // *remaining input* before anything allocates.
        if self.b.len() - self.at < n {
            return Err(ImageFileError::Truncated { field });
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self, field: &'static str) -> Result<u8, ImageFileError> {
        Ok(self.take(1, field)?[0])
    }
    fn u32(&mut self, field: &'static str) -> Result<u32, ImageFileError> {
        let s = self.take(4, field)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn u64(&mut self, field: &'static str) -> Result<u64, ImageFileError> {
        let s = self.take(8, field)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }
    fn bytes(&mut self, field: &'static str) -> Result<&'a [u8], ImageFileError> {
        let n = self.u32(field)? as usize;
        self.take(n, field)
    }
    fn str(&mut self, field: &'static str) -> Result<String, ImageFileError> {
        let b = self.bytes(field)?;
        String::from_utf8(b.to_vec()).map_err(|_| ImageFileError::BadUtf8 { field })
    }
    fn bool(&mut self, field: &'static str) -> Result<bool, ImageFileError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ImageFileError::BadValue { field }),
        }
    }
    /// A length prefix for a sequence of items each at least
    /// `min_item_bytes` long — rejects lengths the remaining input
    /// cannot possibly satisfy, so `Vec::with_capacity` stays honest.
    fn count(
        &mut self,
        min_item_bytes: usize,
        field: &'static str,
    ) -> Result<usize, ImageFileError> {
        let n = self.u32(field)? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.b.len() - self.at {
            return Err(ImageFileError::Truncated { field });
        }
        Ok(n)
    }
}

/// Encodes `image` into the disk-store payload format.
pub fn encode_image(image: &MemoryImage) -> Vec<u8> {
    let mut w = Writer { out: Vec::new() };
    w.str(&image.name);
    match image.scheme {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.str(s.name());
        }
    }
    w.u8(u8::from(image.second_regfile));
    w.u32(image.entry);
    w.u32(image.initial_sp);
    w.len(image.segments.len());
    for s in &image.segments {
        w.str(&s.name);
        w.u32(s.base);
        w.bytes(&s.bytes);
    }
    w.len(image.c0_init.len());
    for (reg, val) in &image.c0_init {
        w.u8(reg.number());
        w.u32(*val);
    }
    for range in [image.handler_range, image.compressed_range] {
        match range {
            None => w.u8(0),
            Some((a, b)) => {
                w.u8(1);
                w.u32(a);
                w.u32(b);
            }
        }
    }
    w.len(image.proc_regions.len());
    for (start, end, id) in &image.proc_regions {
        w.u32(*start);
        w.u32(*end);
        w.u64(*id as u64);
    }
    w.len(image.proc_names.len());
    for n in &image.proc_names {
        w.str(n);
    }
    w.u32(image.sizes.original_text_bytes);
    w.u32(image.sizes.native_text_bytes);
    w.u32(image.sizes.compressed_payload_bytes);
    w.u32(image.sizes.handler_bytes);
    w.len(image.integrity.len());
    for d in &image.integrity {
        w.str(&d.name);
        w.u32(d.declared_len);
        w.u32(d.crc);
    }
    w.len(image.line_crcs.len());
    for c in &image.line_crcs {
        w.u32(*c);
    }
    w.out
}

/// Decodes a payload produced by [`encode_image`].
///
/// # Errors
///
/// A typed [`ImageFileError`] for any byte sequence that is not a
/// complete, exact encoding — truncation, bad tags, unknown schemes,
/// trailing garbage. Never panics, never allocates more than the input
/// length.
pub fn decode_image(bytes: &[u8]) -> Result<MemoryImage, ImageFileError> {
    let mut r = Reader { b: bytes, at: 0 };
    let name = r.str("name")?;
    let scheme = match r.u8("scheme tag")? {
        0 => None,
        1 => {
            let sname = r.str("scheme name")?;
            Some(Scheme::by_name(&sname).ok_or(ImageFileError::UnknownScheme { name: sname })?)
        }
        _ => {
            return Err(ImageFileError::BadValue {
                field: "scheme tag",
            })
        }
    };
    let second_regfile = r.bool("second_regfile")?;
    let entry = r.u32("entry")?;
    let initial_sp = r.u32("initial_sp")?;
    let nsegs = r.count(9, "segment count")?;
    let mut segments = Vec::with_capacity(nsegs);
    for _ in 0..nsegs {
        let name = r.str("segment name")?;
        let base = r.u32("segment base")?;
        let bytes = r.bytes("segment bytes")?.to_vec();
        segments.push(Segment { name, base, bytes });
    }
    let nc0 = r.count(5, "c0_init count")?;
    let mut c0_init = Vec::with_capacity(nc0);
    for _ in 0..nc0 {
        let n = r.u8("c0 register")?;
        if n >= 16 {
            return Err(ImageFileError::BadValue {
                field: "c0 register",
            });
        }
        let val = r.u32("c0 value")?;
        c0_init.push((C0Reg::new(n), val));
    }
    let mut ranges = [None, None];
    for (i, field) in ["handler_range", "compressed_range"].iter().enumerate() {
        ranges[i] = match r.u8(field)? {
            0 => None,
            1 => Some((r.u32(field)?, r.u32(field)?)),
            _ => return Err(ImageFileError::BadValue { field }),
        };
    }
    let nregions = r.count(16, "proc_regions count")?;
    let mut proc_regions = Vec::with_capacity(nregions);
    for _ in 0..nregions {
        let start = r.u32("proc region start")?;
        let end = r.u32("proc region end")?;
        let id = r.u64("proc region id")?;
        let id = usize::try_from(id).map_err(|_| ImageFileError::BadValue {
            field: "proc region id",
        })?;
        proc_regions.push((start, end, id));
    }
    let nnames = r.count(4, "proc_names count")?;
    let mut proc_names = Vec::with_capacity(nnames);
    for _ in 0..nnames {
        proc_names.push(r.str("proc name")?);
    }
    let sizes = SizeReport {
        original_text_bytes: r.u32("original_text_bytes")?,
        native_text_bytes: r.u32("native_text_bytes")?,
        compressed_payload_bytes: r.u32("compressed_payload_bytes")?,
        handler_bytes: r.u32("handler_bytes")?,
    };
    let ndigests = r.count(12, "integrity count")?;
    let mut integrity = Vec::with_capacity(ndigests);
    for _ in 0..ndigests {
        let name = r.str("digest name")?;
        let declared_len = r.u32("digest len")?;
        let crc = r.u32("digest crc")?;
        integrity.push(SegmentDigest {
            name,
            declared_len,
            crc,
        });
    }
    let ncrcs = r.count(4, "line_crcs count")?;
    let mut line_crcs = Vec::with_capacity(ncrcs);
    for _ in 0..ncrcs {
        line_crcs.push(r.u32("line crc")?);
    }
    if r.at != bytes.len() {
        return Err(ImageFileError::TrailingBytes {
            extra: bytes.len() - r.at,
        });
    }
    Ok(MemoryImage {
        name,
        scheme,
        second_regfile,
        entry,
        initial_sp,
        segments,
        c0_init,
        handler_range: ranges[0],
        compressed_range: ranges[1],
        proc_regions,
        proc_names,
        sizes,
        integrity,
        line_crcs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoryImage {
        let mut img = MemoryImage {
            name: "sample".into(),
            scheme: Some(Scheme::Dictionary),
            second_regfile: true,
            entry: 0x1000,
            initial_sp: 0x8000_0000,
            segments: vec![
                Segment {
                    name: ".native".into(),
                    base: 0x1000,
                    bytes: vec![1, 2, 3, 4, 5],
                },
                Segment {
                    name: ".dictionary".into(),
                    base: 0x4000,
                    bytes: vec![0xAA; 64],
                },
            ],
            c0_init: vec![(C0Reg::DECOMP_BASE, 0x2000), (C0Reg::DICT_BASE, 0x4000)],
            handler_range: Some((0x100, 0x200)),
            compressed_range: Some((0x2000, 0x3000)),
            proc_regions: vec![(0x1000, 0x1040, 0), (0x1040, 0x1100, 1)],
            proc_names: vec!["main".into(), "helper".into()],
            sizes: SizeReport {
                original_text_bytes: 1000,
                native_text_bytes: 200,
                compressed_payload_bytes: 300,
                handler_bytes: 104,
            },
            integrity: Vec::new(),
            line_crcs: vec![0xDEAD_BEEF, 0x1234_5678],
        };
        img.seal();
        img
    }

    #[test]
    fn round_trip_is_exact() {
        let img = sample();
        let bytes = encode_image(&img);
        let back = decode_image(&bytes).expect("decode");
        assert_eq!(back, img);
        back.verify_integrity()
            .expect("decoded image verifies against its seals");
    }

    #[test]
    fn native_image_round_trips() {
        let mut img = sample();
        img.scheme = None;
        img.handler_range = None;
        img.compressed_range = None;
        img.line_crcs.clear();
        img.seal();
        let back = decode_image(&encode_image(&img)).expect("decode");
        assert_eq!(back, img);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode_image(&sample());
        for cut in 0..bytes.len() {
            let err = decode_image(&bytes[..cut]).expect_err("truncated input must fail");
            assert!(
                matches!(
                    err,
                    ImageFileError::Truncated { .. } | ImageFileError::BadValue { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_image(&sample());
        bytes.push(0);
        assert_eq!(
            decode_image(&bytes),
            Err(ImageFileError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A segment count of u32::MAX with 4 bytes of input must fail
        // fast, not try to reserve gigabytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(b"xy"); // name
        bytes.push(0); // no scheme
        bytes.push(0); // second_regfile
        bytes.extend_from_slice(&0u32.to_le_bytes()); // entry
        bytes.extend_from_slice(&0u32.to_le_bytes()); // sp
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // segment count
        assert!(matches!(
            decode_image(&bytes),
            Err(ImageFileError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_scheme_is_typed() {
        let img = sample();
        let bytes = encode_image(&img);
        // The scheme name "d" sits right after the name field; splice in
        // a name no registry entry has.
        let mut w = Writer { out: Vec::new() };
        w.str("sample");
        w.u8(1);
        w.str("zz");
        let mut patched = w.out.clone();
        // Re-encode the rest of the image after the original prefix of
        // the same layout (name + tag + "d").
        let prefix_len = {
            let mut p = Writer { out: Vec::new() };
            p.str("sample");
            p.u8(1);
            p.str("d");
            p.out.len()
        };
        patched.extend_from_slice(&bytes[prefix_len..]);
        assert_eq!(
            decode_image(&patched),
            Err(ImageFileError::UnknownScheme { name: "zz".into() })
        );
    }
}
