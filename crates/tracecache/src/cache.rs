//! The trace cache proper.

use crate::{ProfileFields, RawTrace, TcLocation, TraceLine};
use ctcp_isa::FxHashMap;

/// Displaced lines the cache keeps for [`TraceCache::new_line`] to
/// reuse. Each install displaces at most one line and each build takes
/// one, so a short list covers the install latency's few lines in
/// flight.
const SPARE_LINES: usize = 4;

/// Trace cache geometry (defaults match Table 7: 2-way, 1K entries,
/// 3-cycle access, 16-instruction lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCacheConfig {
    /// Total number of lines (power-of-two multiple of `assoc`).
    pub entries: usize,
    /// Associativity.
    pub assoc: usize,
    /// Access latency in cycles (pipelined).
    pub access_latency: u64,
    /// Maximum instructions per line.
    pub line_capacity: usize,
    /// Maximum basic blocks (control transfers) per line.
    pub max_blocks: usize,
}

impl Default for TraceCacheConfig {
    fn default() -> Self {
        TraceCacheConfig {
            entries: 1024,
            assoc: 2,
            access_latency: 3,
            line_capacity: 16,
            max_blocks: 3,
        }
    }
}

/// Hit/miss statistics of the trace cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups that found a matching line (tag + path).
    pub hits: u64,
    /// Lookups that found no usable line.
    pub misses: u64,
    /// Lines installed.
    pub installs: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

#[derive(Debug)]
struct WaySlot {
    line: TraceLine,
    lru: u64,
}

/// The trace cache: a set-associative store of [`TraceLine`]s indexed by
/// start PC, with path matching against a supplied multiple-branch
/// prediction.
///
/// Lines are located by `(start_pc, conditional branch directions)`: a
/// lookup hits only if a resident line's tag matches and every recorded
/// conditional-branch direction agrees with the predictor's current
/// prediction for that branch (the fetch mechanism of Rotenberg et al.
/// that the paper builds on).
#[derive(Debug)]
pub struct TraceCache {
    config: TraceCacheConfig,
    sets: Vec<Vec<WaySlot>>,
    set_mask: u64,
    tick: u64,
    next_id: u64,
    stats: TraceCacheStats,
    /// line id -> (set, position-independent id lookup)
    resident: FxHashMap<u64, usize>,
    /// Storage of replaced and evicted lines, for [`TraceCache::new_line`].
    spare: Vec<TraceLine>,
}

impl TraceCache {
    /// Creates an empty trace cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two number of sets.
    pub fn new(config: TraceCacheConfig) -> Self {
        assert!(config.assoc > 0 && config.entries.is_multiple_of(config.assoc));
        let num_sets = config.entries / config.assoc;
        assert!(num_sets.is_power_of_two());
        TraceCache {
            config,
            sets: (0..num_sets).map(|_| Vec::new()).collect(),
            set_mask: num_sets as u64 - 1,
            tick: 0,
            next_id: 1,
            stats: TraceCacheStats::default(),
            resident: FxHashMap::default(),
            spare: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TraceCacheConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> TraceCacheStats {
        self.stats
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) & self.set_mask) as usize
    }

    /// Looks up a line starting at `pc` whose recorded conditional-branch
    /// path matches `predict` (called once per conditional branch in
    /// logical order). Returns the matching line and updates LRU/stats.
    pub fn lookup(&mut self, pc: u64, mut predict: impl FnMut(u64) -> bool) -> Option<&TraceLine> {
        self.tick += 1;
        let set_idx = self.set_of(pc);
        let tick = self.tick;
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|w| {
            w.line.start_pc == pc && w.line.branch_path().all(|(bpc, dir)| predict(bpc) == dir)
        });
        match pos {
            Some(i) => {
                set[i].lru = tick;
                self.stats.hits += 1;
                Some(&set[i].line)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Builds a line for `raw` under `placement`, as
    /// [`TraceLine::from_raw`] at this cache's line capacity, reusing the
    /// storage of a line an earlier [`TraceCache::install`] displaced
    /// when one is spare.
    ///
    /// # Panics
    ///
    /// As [`TraceLine::from_raw`].
    pub fn new_line(&mut self, raw: &RawTrace, placement: &[u8]) -> TraceLine {
        let capacity = self.config.line_capacity;
        match self.spare.pop() {
            Some(mut line) => {
                line.refill(raw, placement, capacity);
                line
            }
            None => TraceLine::from_raw(raw, placement, capacity),
        }
    }

    /// Installs `line`. An existing line with the same start PC and
    /// identical conditional path is replaced in place and **keeps its
    /// line id**, so `TcLocation`s held by in-flight instructions stay
    /// valid across the rebuild (slot contents are still verified by PC
    /// at update time). Otherwise a fresh id is assigned and the set's
    /// LRU way is evicted if full. The replaced or evicted line's storage
    /// is kept for [`TraceCache::new_line`]. Returns the line's id.
    pub fn install(&mut self, mut line: TraceLine) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(line.start_pc);
        let set = &mut self.sets[set_idx];
        self.stats.installs += 1;

        // Replace a same-pc same-path line in place, keeping its id.
        if let Some(way) = set.iter_mut().find(|w| {
            w.line.start_pc == line.start_pc && w.line.branch_path().eq(line.branch_path())
        }) {
            let id = way.line.id;
            line.id = id;
            way.lru = tick;
            let old = std::mem::replace(&mut way.line, line);
            self.keep_spare(old);
            return id;
        }

        let id = self.next_id;
        self.next_id += 1;
        line.id = id;

        let evicted = if set.len() >= self.config.assoc {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("set non-empty");
            Some(set.remove(victim).line)
        } else {
            None
        };
        set.push(WaySlot { line, lru: tick });
        if let Some(old) = evicted {
            self.resident.remove(&old.id);
            self.stats.evictions += 1;
            self.keep_spare(old);
        }
        self.resident.insert(id, set_idx);
        id
    }

    fn keep_spare(&mut self, line: TraceLine) {
        if self.spare.len() < SPARE_LINES {
            self.spare.push(line);
        }
    }

    /// Mutable access to the profile fields of a resident line's slot, for
    /// in-place feedback updates (leader promotion, chain propagation).
    /// Returns `None` if the line has been evicted or the slot is empty.
    pub fn profile_mut(&mut self, loc: TcLocation) -> Option<&mut ProfileFields> {
        let &set_idx = self.resident.get(&loc.line_id)?;
        let set = &mut self.sets[set_idx];
        let way = set.iter_mut().find(|w| w.line.id == loc.line_id)?;
        way.line
            .slots
            .get_mut(loc.slot as usize)?
            .as_mut()
            .map(|s| &mut s.profile)
    }

    /// Read-only access to a resident line by id (for tests/diagnostics).
    pub fn line(&self, line_id: u64) -> Option<&TraceLine> {
        let &set_idx = self.resident.get(&line_id)?;
        self.sets[set_idx]
            .iter()
            .find(|w| w.line.id == line_id)
            .map(|w| &w.line)
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.resident.len()
    }
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache::new(TraceCacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecFeedback, PendingInst, RawTrace};
    use ctcp_isa::{Instruction, Opcode, Reg};

    fn mk_line(start_pc: u64, dirs: &[bool]) -> TraceLine {
        let mut insts = Vec::new();
        let mut pc = start_pc;
        for (i, &d) in dirs.iter().enumerate() {
            insts.push(PendingInst {
                seq: i as u64,
                index: i as u32,
                pc,
                inst: Instruction::new(Opcode::Bne, None, Some(Reg::R1), Some(Reg::R2), 0),
                profile: ProfileFields::default(),
                tc_loc: None,
                feedback: ExecFeedback::default(),
                taken: Some(d),
            });
            pc += 4;
        }
        if dirs.is_empty() {
            insts.push(PendingInst {
                seq: 0,
                index: 0,
                pc,
                inst: Instruction::new(Opcode::Add, Some(Reg::R1), Some(Reg::R2), None, 0),
                profile: ProfileFields::default(),
                tc_loc: None,
                feedback: ExecFeedback::default(),
                taken: None,
            });
        }
        let raw = RawTrace::analyze(insts);
        let n = raw.len();
        TraceLine::from_raw(&raw, &TraceLine::identity_placement(n), 16)
    }

    #[test]
    fn lookup_matches_tag_and_path() {
        let mut tc = TraceCache::default();
        tc.install(mk_line(0x1000, &[true, false]));
        // Matching path.
        assert!(tc
            .lookup(0x1000, |bpc| bpc == 0x1000) // predicts T then N
            .is_some());
        // Wrong path.
        assert!(tc.lookup(0x1000, |_| true).is_none());
        // Wrong pc.
        assert!(tc.lookup(0x2000, |_| true).is_none());
        assert_eq!(tc.stats().hits, 1);
        assert_eq!(tc.stats().misses, 2);
    }

    #[test]
    fn path_associativity_same_pc_two_paths() {
        let mut tc = TraceCache::default();
        tc.install(mk_line(0x1000, &[true]));
        tc.install(mk_line(0x1000, &[false]));
        assert_eq!(tc.resident_lines(), 2);
        assert!(tc.lookup(0x1000, |_| true).is_some());
        assert!(tc.lookup(0x1000, |_| false).is_some());
    }

    #[test]
    fn same_pc_same_path_replaces_and_keeps_id() {
        let mut tc = TraceCache::default();
        let id1 = tc.install(mk_line(0x1000, &[true]));
        let id2 = tc.install(mk_line(0x1000, &[true]));
        // Rebuilds keep the line id so in-flight TcLocations stay valid.
        assert_eq!(id1, id2);
        assert_eq!(tc.resident_lines(), 1);
        assert!(tc.line(id1).is_some());
        assert_eq!(tc.stats().evictions, 0);
        assert_eq!(tc.stats().installs, 2);
        // A different path gets a fresh id.
        let id3 = tc.install(mk_line(0x1000, &[false]));
        assert_ne!(id3, id1);
    }

    #[test]
    fn displaced_lines_are_rebuilt_in_place() {
        let mut tc = TraceCache::default();
        let first = mk_line(0x1000, &[true]);
        let storage = first.slots.as_ptr();
        tc.install(first);
        // The rebuild displaces the first line; its storage becomes spare.
        tc.install(mk_line(0x1000, &[true]));
        let raw = RawTrace::analyze(vec![PendingInst {
            seq: 0,
            index: 9,
            pc: 0x2000,
            inst: Instruction::new(Opcode::Add, Some(Reg::R1), Some(Reg::R2), None, 0),
            profile: ProfileFields::default(),
            tc_loc: None,
            feedback: ExecFeedback::default(),
            taken: None,
        }]);
        let line = tc.new_line(&raw, &[5]);
        assert_eq!(line.slots.as_ptr(), storage);
        assert_eq!((line.id, line.start_pc, line.len()), (0, 0x2000, 1));
        assert_eq!(line.slots.len(), 16);
        assert_eq!(line.slots.iter().flatten().count(), 1);
        assert_eq!(line.slots[5].map(|s| s.index), Some(9));
        // With nothing spare, a fresh line is built.
        let fresh = tc.new_line(&raw, &[0]);
        assert_eq!(fresh.logical_to_phys, vec![0]);
    }

    #[test]
    fn lru_eviction_in_a_set() {
        let mut tc = TraceCache::new(TraceCacheConfig {
            entries: 4,
            assoc: 2,
            ..TraceCacheConfig::default()
        });
        // Two sets; pcs 0x1000 and 0x1008 share set (pc>>2 & 1).
        let a = tc.install(mk_line(0x1000, &[]));
        let b = tc.install(mk_line(0x1008, &[]));
        tc.lookup(0x1000, |_| true); // refresh a
        let c = tc.install(mk_line(0x1010, &[]));
        assert!(tc.line(a).is_some());
        assert!(tc.line(b).is_none(), "b was LRU and should be evicted");
        assert!(tc.line(c).is_some());
        assert_eq!(tc.stats().evictions, 1);
    }

    #[test]
    fn profile_mut_updates_in_place() {
        let mut tc = TraceCache::default();
        let id = tc.install(mk_line(0x1000, &[true]));
        let loc = TcLocation {
            line_id: id,
            slot: 0,
        };
        {
            let p = tc.profile_mut(loc).unwrap();
            p.chain_cluster = Some(2);
            p.role = crate::ChainRole::Leader;
        }
        let line = tc.line(id).unwrap();
        let slot = line.slots[0].as_ref().unwrap();
        assert_eq!(slot.profile.chain_cluster, Some(2));
        // Empty slot and evicted line return None.
        assert!(tc
            .profile_mut(TcLocation {
                line_id: id,
                slot: 15
            })
            .is_none());
        assert!(tc
            .profile_mut(TcLocation {
                line_id: 999,
                slot: 0
            })
            .is_none());
    }
}
