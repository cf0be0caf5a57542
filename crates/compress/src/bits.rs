//! MSB-first bit stream reader/writer used by the CodePack-style encoder.
//!
//! The software decompression handler decodes the same layout in assembly,
//! so the bit order here is part of the on-"disk" format: within each byte,
//! the first bit written is the most significant bit.

/// Accumulates bits MSB-first into a byte vector.
///
/// Bits collect in a 64-bit accumulator and leave it 32 at a time, so a
/// write costs a shift and an or rather than a step per bit.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits: the low `pending` bits of `acc`, oldest highest.
    acc: u64,
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Appends the low `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 32` or `value` has bits above `width`.
    #[inline]
    pub fn write(&mut self, value: u32, width: u32) {
        assert!(width <= 32, "width too large");
        assert!(
            width == 32 || value < (1u32 << width),
            "value {value:#x} does not fit in {width} bits"
        );
        // `pending < 32` on entry, so the accumulator never holds more
        // than 63 live bits; older, already-flushed bits shift out the top.
        self.acc = (self.acc << width) | u64::from(value);
        self.pending += width;
        if self.pending >= 32 {
            self.pending -= 32;
            let out = (self.acc >> self.pending) as u32;
            self.bytes.extend_from_slice(&out.to_be_bytes());
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        let pad = (8 - self.pending % 8) % 8;
        self.write(0, pad);
    }

    /// Number of bits written (before any final padding).
    pub fn bit_len(&self) -> usize {
        8 * self.bytes.len() + self.pending as usize
    }

    /// Finishes and returns the bytes (zero-padded to a byte boundary).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_byte();
        let tail = (self.acc << (32 - self.pending)) as u32;
        let n = (self.pending / 8) as usize;
        self.bytes.extend_from_slice(&tail.to_be_bytes()[..n]);
        self.bytes
    }

    /// Current length in whole bytes (rounding the tail up).
    pub fn byte_len(&self) -> usize {
        self.bit_len().div_ceil(8)
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Creates a reader starting at bit 0 of `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// Creates a reader starting at byte offset `byte_offset`.
    pub fn at_byte(bytes: &'a [u8], byte_offset: usize) -> BitReader<'a> {
        BitReader {
            bytes,
            pos: byte_offset * 8,
        }
    }

    /// Reads `width` bits, most significant first.
    ///
    /// Returns `None` if the stream is exhausted.
    pub fn read(&mut self, width: u32) -> Option<u32> {
        if self.pos + width as usize > self.bytes.len() * 8 {
            return None;
        }
        let mut out = 0u32;
        for _ in 0..width {
            let byte = self.bytes[self.pos / 8];
            let bit = (byte >> (7 - self.pos % 8)) & 1;
            out = (out << 1) | bit as u32;
            self.pos += 1;
        }
        Some(out)
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xabc, 12);
        w.write(1, 1);
        w.write(0xffff, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(12), Some(0xabc));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(16), Some(0xffff));
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write(1, 1); // first bit = MSB of byte 0
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write(0b11, 2);
        w.align_byte();
        assert_eq!(w.bit_len(), 8);
        w.write(0xff, 8);
        assert_eq!(w.into_bytes(), vec![0b1100_0000, 0xff]);
    }

    #[test]
    fn reading_past_end_returns_none() {
        let bytes = [0u8; 1];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(8), Some(0));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn at_byte_starts_mid_stream() {
        let bytes = [0x00, 0xf0];
        let mut r = BitReader::at_byte(&bytes, 1);
        assert_eq!(r.read(4), Some(0xf));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_rejected() {
        BitWriter::new().write(8, 3);
    }
}
