//! Sparse word-addressable data memory used by the functional executor.

use crate::FxHashMap;

const PAGE_WORDS: usize = 1024;
const PAGE_SHIFT: u32 = 10; // 1024 words per page

/// A sparse, paged, 64-bit-word memory.
///
/// Addresses are byte addresses; accesses are aligned to 8 bytes by the
/// executor before reaching this structure (the low three address bits are
/// ignored). Untouched memory reads as zero.
#[derive(Debug, Default, Clone)]
pub struct WordMemory {
    pages: FxHashMap<u64, Box<[i64; PAGE_WORDS]>>,
}

impl WordMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        let word = addr >> 3;
        (word >> PAGE_SHIFT, (word as usize) & (PAGE_WORDS - 1))
    }

    /// Reads the 64-bit word containing byte address `addr`.
    pub fn read(&self, addr: u64) -> i64 {
        let (page, off) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Writes the 64-bit word containing byte address `addr`.
    pub fn write(&mut self, addr: u64, value: i64) {
        let (page, off) = Self::split(addr);
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]))[off] = value;
    }

    /// Reads an `f64` stored at `addr` (bit pattern reinterpretation).
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read(addr) as u64)
    }

    /// Writes an `f64` at `addr` (bit pattern reinterpretation).
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write(addr, value.to_bits() as i64);
    }

    /// Number of resident pages (for tests and diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = WordMemory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(0xdead_beef), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = WordMemory::new();
        m.write(0x1000, -42);
        assert_eq!(m.read(0x1000), -42);
        // Same word, different byte offset within the word.
        assert_eq!(m.read(0x1007), -42);
        // Next word unaffected.
        assert_eq!(m.read(0x1008), 0);
    }

    #[test]
    fn float_round_trips() {
        let mut m = WordMemory::new();
        m.write_f64(0x2000, 3.5);
        assert_eq!(m.read_f64(0x2000), 3.5);
    }

    #[test]
    fn pages_allocate_lazily() {
        let mut m = WordMemory::new();
        assert_eq!(m.resident_pages(), 0);
        m.write(0, 1);
        m.write(8, 2);
        assert_eq!(m.resident_pages(), 1);
        m.write(1 << 20, 3);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn distant_addresses_do_not_alias() {
        let mut m = WordMemory::new();
        m.write(0x10, 1);
        m.write(0x10 + (1 << 13), 2); // one page later
        assert_eq!(m.read(0x10), 1);
        assert_eq!(m.read(0x10 + (1 << 13)), 2);
    }
}
