//! Generic set-associative cache model (tags + true-LRU, no data).

/// Geometry and latency of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access latency on a hit, in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity smaller
    /// than one way, or non-power-of-two line size).
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(self.assoc > 0 && self.size_bytes > 0);
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines as usize >= self.assoc,
            "capacity smaller than one set"
        );
        (lines as usize) / self.assoc
    }
}

/// Hit/miss counters for a cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement. Only tags are
/// modelled — the simulator never needs cached data, just hit/miss timing.
///
/// All `sets × assoc` ways live in two flat arrays, set-major: a set is
/// the `assoc` consecutive ways starting at `set * assoc`. A way's
/// recency stamp is the access tick that last touched it (higher = more
/// recent); stamp `0` marks an invalid way, so a fresh cache is one
/// zeroed allocation per array.
///
/// # Example
///
/// ```
/// use ctcp_memory::{CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig {
///     size_bytes: 1024,
///     assoc: 2,
///     line_bytes: 64,
///     hit_latency: 2,
/// });
/// assert!(!c.access(0x100)); // cold miss
/// assert!(c.access(0x100)); // now hot
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    stats: CacheStats,
    tick: u64,
    offset_bits: u32,
    index_mask: u64,
    set_bits: u32,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is degenerate (see
    /// [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(num_sets.is_power_of_two(), "set count must be 2^n");
        let ways = num_sets * config.assoc;
        SetAssocCache {
            config,
            tags: vec![0; ways],
            stamps: vec![0; ways],
            stats: CacheStats::default(),
            tick: 0,
            offset_bits: config.line_bytes.trailing_zeros(),
            index_mask: num_sets as u64 - 1,
            set_bits: num_sets.trailing_zeros(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Aggregate hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The way range of the set `addr` maps to, and its tag.
    #[inline]
    fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.offset_bits;
        let first = (line & self.index_mask) as usize * self.config.assoc;
        (first..first + self.config.assoc, line >> self.set_bits)
    }

    /// The way of `set` holding `tag`, if resident.
    #[inline]
    fn find(&self, set: std::ops::Range<usize>, tag: u64) -> Option<usize> {
        let first = set.start;
        self.tags[set.clone()]
            .iter()
            .zip(&self.stamps[set])
            .position(|(&t, &stamp)| stamp != 0 && t == tag)
            .map(|w| first + w)
    }

    /// The line-aligned base address of the line containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes - 1)
    }

    /// Accesses `addr`, allocating the line on a miss (LRU victim: the
    /// first way with the lowest stamp, invalid ways first).
    /// Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (set, tag) = self.locate(addr);
        if let Some(way) = self.find(set.clone(), tag) {
            self.stamps[way] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let mut victim = set.start;
        for way in set {
            if self.stamps[way] < self.stamps[victim] {
                victim = way;
            }
        }
        self.tags[victim] = tag;
        self.stamps[victim] = self.tick;
        false
    }

    /// Checks residency without updating LRU, stats, or contents.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.find(set, tag).is_some()
    }

    /// Invalidates the line containing `addr`, if resident. Returns whether
    /// a line was invalidated.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        match self.find(set, tag) {
            Some(way) => {
                self.stamps[way] = 0;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x0));
        assert!(c.access(0x0));
        assert!(c.access(0x3f)); // same line
        assert!(!c.access(0x40)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = num_sets * line = 256).
        c.access(0x000);
        c.access(0x100);
        c.access(0x000); // touch A again; B is now LRU
        c.access(0x200); // evicts B
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn victim_is_the_first_least_recent_way_invalid_ways_first() {
        // One set of four ways (stride 64 B maps every line to it).
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 256,
            assoc: 4,
            line_bytes: 64,
            hit_latency: 1,
        });
        let line = |k: u64| k * 64;
        for k in 0..4 {
            c.access(line(k));
        }
        // Holes at ways 1 and 3: a miss fills the first of them, the
        // next miss the other, although line 0 is least recent.
        assert!(c.invalidate(line(3)));
        assert!(c.invalidate(line(1)));
        c.access(line(10));
        assert!(c.probe(line(0)) && c.probe(line(2)) && !c.probe(line(3)));
        assert_eq!(c.tags[1], 10);
        c.access(line(11));
        assert_eq!(c.tags[3], 11);
        // Full set: the least recently used line (0) goes.
        c.access(line(12));
        assert!(!c.probe(line(0)));
        assert_eq!(c.tags[0], 12);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        c.access(0x0);
        let before = c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(0x0);
        assert!(c.invalidate(0x0));
        assert!(!c.probe(0x0));
        assert!(!c.invalidate(0x0));
    }

    #[test]
    fn distinct_tags_same_set_coexist_up_to_assoc() {
        let mut c = small();
        c.access(0x000);
        c.access(0x100);
        assert!(c.probe(0x000));
        assert!(c.probe(0x100));
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = small();
        c.access(0);
        c.access(0);
        c.access(0);
        c.access(0x40);
        assert_eq!(c.stats().miss_rate(), 0.5);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = small();
        assert_eq!(c.line_addr(0x7f), 0x40);
        assert_eq!(c.line_addr(0x40), 0x40);
    }

    #[test]
    #[should_panic]
    fn degenerate_geometry_panics() {
        let _ = SetAssocCache::new(CacheConfig {
            size_bytes: 64,
            assoc: 4,
            line_bytes: 64,
            hit_latency: 1,
        });
    }
}
