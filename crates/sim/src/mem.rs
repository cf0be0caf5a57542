//! Sparse paged main memory.
//!
//! Functional storage only — access *timing* is the CPU model's job.
//! Backed by 64KB pages allocated on first touch, so the simulated 32-bit
//! address space costs only what the program actually uses.
//!
//! The page table is a flat 64K-entry array indexed by the high address
//! bits rather than a hash map: memory is read on every handler fetch and
//! every load/store, and a direct index (512KB of pointers per machine)
//! beats hashing the page number on that path.

const PAGE_SHIFT: u32 = 16;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
const PAGE_COUNT: usize = 1 << (32 - PAGE_SHIFT);

/// Byte-addressable little-endian main memory.
///
/// # Examples
///
/// ```
/// use rtdc_sim::MainMemory;
///
/// let mut m = MainMemory::new();
/// m.write_u32(0x1000, 0x1234_5678);
/// assert_eq!(m.read_u16(0x1000), 0x5678);
/// assert_eq!(m.read_u8(0x1003), 0x12);
/// ```
#[derive(Clone)]
pub struct MainMemory {
    pages: Vec<Option<Box<[u8; PAGE_BYTES]>>>,
}

impl Default for MainMemory {
    fn default() -> MainMemory {
        MainMemory::new()
    }
}

impl std::fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MainMemory")
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

impl MainMemory {
    /// Creates an empty memory; every byte reads as zero until written.
    pub fn new() -> MainMemory {
        MainMemory {
            pages: (0..PAGE_COUNT).map(|_| None).collect(),
        }
    }

    fn page(&self, addr: u32) -> Option<&[u8; PAGE_BYTES]> {
        self.pages[(addr >> PAGE_SHIFT) as usize].as_deref()
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_BYTES] {
        self.pages[(addr >> PAGE_SHIFT) as usize].get_or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_BYTES - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        self.page_mut(addr)[off] = value;
    }

    /// Reads a little-endian halfword (no alignment requirement here; the
    /// CPU model enforces alignment).
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian halfword.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let [a, b] = value.to_le_bytes();
        self.write_u8(addr, a);
        self.write_u8(addr.wrapping_add(1), b);
    }

    /// Reads a little-endian word.
    pub fn read_u32(&self, addr: u32) -> u32 {
        // Fast path: aligned word within one page.
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if addr.is_multiple_of(4) {
            if let Some(p) = self.page(addr) {
                return u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]]);
            }
            return 0;
        }
        u32::from_le_bytes([
            self.read_u8(addr),
            self.read_u8(addr.wrapping_add(1)),
            self.read_u8(addr.wrapping_add(2)),
            self.read_u8(addr.wrapping_add(3)),
        ])
    }

    /// Writes a little-endian word.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let bytes = value.to_le_bytes();
        if addr.is_multiple_of(4) {
            let off = (addr as usize) & (PAGE_BYTES - 1);
            let p = self.page_mut(addr);
            p[off..off + 4].copy_from_slice(&bytes);
            return;
        }
        for (i, b) in bytes.into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }

    /// Bulk-writes `bytes` starting at `addr` (page-sized slice copies,
    /// not a per-byte loop — cache fills go through here every miss).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr.wrapping_add(done as u32);
            let off = (a as usize) & (PAGE_BYTES - 1);
            let chunk = (PAGE_BYTES - off).min(bytes.len() - done);
            self.page_mut(a)[off..off + chunk].copy_from_slice(&bytes[done..done + chunk]);
            done += chunk;
        }
    }

    /// Bulk-reads `len` bytes starting at `addr` (page-sized slice copies;
    /// unmapped pages read as zero).
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Fills `out` with the bytes starting at `addr`, without allocating
    /// (cache fills go through here every miss; unmapped pages read as
    /// zero).
    pub(crate) fn read_into(&self, addr: u32, out: &mut [u8]) {
        let mut done = 0usize;
        while done < out.len() {
            let a = addr.wrapping_add(done as u32);
            let off = (a as usize) & (PAGE_BYTES - 1);
            let chunk = (PAGE_BYTES - off).min(out.len() - done);
            let dst = &mut out[done..done + chunk];
            match self.page(a) {
                Some(p) => dst.copy_from_slice(&p[off..off + chunk]),
                None => dst.fill(0),
            }
            done += chunk;
        }
    }

    /// Number of 64KB pages materialized (for footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MainMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_bee0), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn word_round_trip_little_endian() {
        let mut m = MainMemory::new();
        m.write_u32(0x1000, 0x1234_5678);
        assert_eq!(m.read_u32(0x1000), 0x1234_5678);
        assert_eq!(m.read_u8(0x1000), 0x78);
        assert_eq!(m.read_u8(0x1003), 0x12);
        assert_eq!(m.read_u16(0x1000), 0x5678);
        assert_eq!(m.read_u16(0x1002), 0x1234);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MainMemory::new();
        let addr = (1 << 16) - 2;
        m.write_u32(addr, 0xaabb_ccdd);
        assert_eq!(m.read_u32(addr), 0xaabb_ccdd);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_round_trip() {
        let mut m = MainMemory::new();
        let data: Vec<u8> = (0..100).collect();
        m.write_bytes(0x8000, &data);
        assert_eq!(m.read_bytes(0x8000, 100), data);
    }

    #[test]
    fn read_into_overwrites_and_zeroes_unmapped_pages() {
        let mut m = MainMemory::new();
        m.write_u32(0xFFFC, 0x0403_0201); // last word of a mapped page
        let mut buf = [0xAA; 8];
        m.read_into(0xFFFC, &mut buf); // runs into the unmapped next page
        assert_eq!(buf, [1, 2, 3, 4, 0, 0, 0, 0]);
    }
}
