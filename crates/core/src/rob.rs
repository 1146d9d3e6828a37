//! The reorder buffer: a dense ring of in-flight instructions with O(1)
//! lookup by sequence number.
//!
//! Sequence numbers are dense and increasing, so an entry's position is
//! always `seq - head_seq`; no search is ever required. The ring is a
//! `VecDeque` pre-sized to the configured ROB capacity, so steady-state
//! push/pop never reallocates.

use crate::entry::Entry;
use std::collections::VecDeque;

pub(crate) struct Rob {
    entries: VecDeque<Entry>,
    head_seq: u64,
}

impl Rob {
    /// An empty ROB that can hold `capacity` entries without growing.
    #[cfg(test)]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Rob::from_storage(VecDeque::with_capacity(capacity), capacity)
    }

    /// An empty ROB built from recycled ring storage (cleared here),
    /// grown if needed so `capacity` entries fit without reallocating.
    pub(crate) fn from_storage(mut entries: VecDeque<Entry>, capacity: usize) -> Self {
        entries.clear();
        entries.reserve(capacity);
        Rob {
            entries,
            head_seq: 0,
        }
    }

    /// Tears the ROB down to its raw ring storage for arena recycling.
    pub(crate) fn into_storage(self) -> VecDeque<Entry> {
        self.entries
    }

    /// Number of in-flight entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The sequence number the next pushed entry must carry.
    #[inline]
    pub(crate) fn next_seq(&self) -> u64 {
        self.head_seq + self.entries.len() as u64
    }

    /// O(1) lookup by sequence number. `None` for retired or future seqs.
    #[inline]
    pub(crate) fn get(&self, seq: u64) -> Option<&Entry> {
        let off = seq.checked_sub(self.head_seq)? as usize;
        self.entries.get(off)
    }

    /// O(1) mutable lookup by sequence number.
    #[inline]
    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        let off = seq.checked_sub(self.head_seq)? as usize;
        self.entries.get_mut(off)
    }

    /// The oldest in-flight entry.
    #[inline]
    pub(crate) fn front(&self) -> Option<&Entry> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry, advancing `head_seq`.
    pub(crate) fn pop_front(&mut self) -> Option<Entry> {
        let e = self.entries.pop_front()?;
        self.head_seq = e.seq + 1;
        Some(e)
    }

    /// Appends `e`, which must carry [`Rob::next_seq`].
    pub(crate) fn push_back(&mut self, e: Entry) {
        debug_assert_eq!(e.seq, self.next_seq(), "sequence numbers must be dense");
        self.entries.push_back(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{SrcState, Stage};
    use crate::RsClass;
    use ctcp_isa::{Instruction, Opcode, Reg};

    fn entry(seq: u64) -> Entry {
        Entry {
            seq,
            pc: 0x1000 + seq * 4,
            index: seq as u32,
            inst: Instruction::new(Opcode::Add, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0),
            mem_addr: None,
            taken: None,
            group: 0,
            from_tc: false,
            tc_loc: None,
            profile: Default::default(),
            cluster: 0,
            rs: RsClass::Simple0,
            srcs: [SrcState::None, SrcState::None],
            stage: Stage::InRs,
            mispredicted: false,
            renamed_at: 0,
            dispatched_at: 0,
            exec_start: 0,
            feedback: Default::default(),
            cons_head: u32::MAX,
            cons_tail: u32::MAX,
        }
    }

    #[test]
    fn lookup_is_by_offset_from_head() {
        let mut rob = Rob::with_capacity(8);
        for s in 0..4 {
            rob.push_back(entry(s));
        }
        assert_eq!(rob.len(), 4);
        assert_eq!(rob.get(2).unwrap().seq, 2);
        assert!(rob.get(4).is_none());
        let popped = rob.pop_front().unwrap();
        assert_eq!(popped.seq, 0);
        // Retired seqs miss, survivors still resolve.
        assert!(rob.get(0).is_none());
        assert_eq!(rob.get(3).unwrap().seq, 3);
        assert_eq!(rob.next_seq(), 4);
    }

    #[test]
    fn head_seq_survives_wraparound_reuse() {
        let mut rob = Rob::with_capacity(4);
        for s in 0..100u64 {
            rob.push_back(entry(s));
            if rob.len() == 4 {
                rob.pop_front();
                rob.pop_front();
            }
        }
        let front = rob.front().unwrap().seq;
        assert_eq!(rob.get(front).unwrap().seq, front);
        assert_eq!(rob.next_seq(), 100);
    }
}
