//! A small deterministic hasher for the simulator's integer-keyed maps.
//!
//! The standard library's SipHash guards against keys crafted to
//! collide, at a cost that shows on per-instruction paths. The keys
//! hashed here — PCs, trace-cache line ids, memory page numbers — are
//! made by the simulator itself, so a multiplicative hash in the style
//! of rustc's `FxHasher` is enough. Never use [`FxHashMap`] for keys
//! that come from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the constant of the
/// `rustc-hash` 2.x Fx hasher).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// One add and one multiply per hashed word; [`Hasher::finish`]
/// rotates the well-mixed high bits down to where the map's bucket
/// index and control bits read them.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`FxHasher`]. Lookups depend only on the keys,
/// never on a per-process random seed; iteration order is still
/// unspecified, so nothing may depend on it.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(k: u64) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(k)
    }

    #[test]
    fn hashing_is_deterministic_and_spreads_aligned_keys() {
        assert_eq!(hash(0x1000), hash(0x1000));
        // Word-aligned PCs differ only above bit 2; their hashes must
        // still differ in the low bits a small table indexes by.
        let low: std::collections::BTreeSet<u64> =
            (0..64u64).map(|i| hash(0x1000 + 4 * i) & 63).collect();
        assert!(
            low.len() > 32,
            "only {} distinct low-bit buckets",
            low.len()
        );
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, u8> = FxHashMap::default();
        for k in 0..1000u64 {
            m.insert(k * 4, (k % 7) as u8);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|k| m[&(k * 4)] == (k % 7) as u8));
        assert_eq!(m.remove(&8), Some(2));
        assert!(!m.contains_key(&8));
    }
}
