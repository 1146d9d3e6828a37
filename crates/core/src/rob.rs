//! The reorder buffer: a fixed power-of-two ring of in-flight
//! instructions with O(1) lookup by sequence number.
//!
//! Sequence numbers are dense and increasing, so an entry lives in slot
//! `seq & mask` for its whole life: rename writes the slot in place,
//! every later stage updates it in place, and retirement only advances
//! the head. No entry is ever moved. A slot outside `head..head + len`
//! is stale and never read, so recycled storage needs no clearing.

use crate::entry::Entry;

pub(crate) struct Rob {
    /// Ring storage; at least `mask + 1` slots (recycled storage may be
    /// longer, and the tail beyond the ring goes unused).
    slots: Vec<Entry>,
    mask: u64,
    head_seq: u64,
    len: usize,
}

impl Rob {
    /// An empty ROB that can hold `capacity` entries.
    #[cfg(test)]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Rob::from_storage(Vec::new(), capacity)
    }

    /// An empty ROB built from recycled ring storage, grown if needed so
    /// `capacity` entries fit. Stale contents stay: they are never read.
    pub(crate) fn from_storage(mut slots: Vec<Entry>, capacity: usize) -> Self {
        let ring = capacity.max(1).next_power_of_two();
        if slots.len() < ring {
            slots.resize(ring, Entry::VACANT);
        }
        Rob {
            slots,
            mask: ring as u64 - 1,
            head_seq: 0,
            len: 0,
        }
    }

    /// Tears the ROB down to its raw ring storage for arena recycling.
    pub(crate) fn into_storage(self) -> Vec<Entry> {
        self.slots
    }

    /// Number of in-flight entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The sequence number the next pushed entry must carry.
    #[inline]
    pub(crate) fn next_seq(&self) -> u64 {
        self.head_seq + self.len as u64
    }

    #[inline]
    fn holds(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.head_seq) < self.len as u64
    }

    /// O(1) lookup by sequence number. `None` for retired or future seqs.
    #[inline]
    pub(crate) fn get(&self, seq: u64) -> Option<&Entry> {
        if self.holds(seq) {
            Some(&self.slots[(seq & self.mask) as usize])
        } else {
            None
        }
    }

    /// O(1) mutable lookup by sequence number.
    #[inline]
    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        if self.holds(seq) {
            Some(&mut self.slots[(seq & self.mask) as usize])
        } else {
            None
        }
    }

    /// The oldest in-flight entry.
    #[inline]
    pub(crate) fn front(&self) -> Option<&Entry> {
        self.get(self.head_seq)
    }

    /// Retires the oldest entry: the head advances past it, and its slot
    /// goes stale in place.
    #[inline]
    pub(crate) fn advance_head(&mut self) {
        debug_assert!(self.len > 0, "advance_head on an empty ROB");
        self.head_seq += 1;
        self.len -= 1;
    }

    /// Claims the slot of [`Rob::next_seq`] for the caller to write in
    /// place. Its previous contents are stale.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full.
    #[inline]
    pub(crate) fn push_slot(&mut self) -> &mut Entry {
        assert!(self.len as u64 <= self.mask, "ROB ring is full");
        let seq = self.next_seq();
        self.len += 1;
        &mut self.slots[(seq & self.mask) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(rob: &mut Rob, seq: u64) {
        assert_eq!(rob.next_seq(), seq, "sequence numbers must be dense");
        let slot = rob.push_slot();
        *slot = Entry::VACANT;
        slot.seq = seq;
        slot.pc = 0x1000 + seq * 4;
    }

    #[test]
    fn lookup_is_by_offset_from_head() {
        let mut rob = Rob::with_capacity(8);
        for s in 0..4 {
            push(&mut rob, s);
        }
        assert_eq!(rob.len(), 4);
        assert_eq!(rob.get(2).unwrap().seq, 2);
        assert!(rob.get(4).is_none());
        assert_eq!(rob.front().unwrap().seq, 0);
        rob.advance_head();
        // Retired seqs miss, survivors still resolve.
        assert!(rob.get(0).is_none());
        assert_eq!(rob.get(3).unwrap().seq, 3);
        assert_eq!(rob.next_seq(), 4);
    }

    #[test]
    fn head_seq_survives_wraparound_reuse() {
        let mut rob = Rob::with_capacity(4);
        for s in 0..100u64 {
            push(&mut rob, s);
            if rob.len() == 4 {
                rob.advance_head();
                rob.advance_head();
            }
        }
        let front = rob.front().unwrap().seq;
        assert_eq!(rob.get(front).unwrap().seq, front);
        assert_eq!(rob.next_seq(), 100);
    }

    #[test]
    fn non_power_of_two_capacity_wraps_and_misses_stale_slots() {
        // 100 entries round up to a 128-slot ring: seq s and s + 128
        // share a slot, so a lookup must go by the live window, not by
        // what the slot holds.
        let mut rob = Rob::with_capacity(100);
        let mut next = 0u64;
        for _ in 0..5 {
            while rob.len() < 100 {
                push(&mut rob, next);
                next += 1;
            }
            for _ in 0..37 {
                rob.advance_head();
            }
        }
        let head = rob.front().unwrap().seq;
        assert_eq!(head, next - rob.len() as u64);
        for seq in head..next {
            assert_eq!(rob.get(seq).unwrap().seq, seq, "live seq {seq}");
        }
        // Retired seqs whose slot now holds a live entry, and future seqs
        // whose slot still holds a retired one, both miss.
        assert!(rob.get(head - 1).is_none());
        assert!(rob.get(next - 128).is_none());
        assert!(rob.get(next).is_none());
        assert!(rob.get(head + 128).is_none());
        assert!(rob.get(0).is_none());
        // The ring accepts exactly what is left of its capacity.
        while rob.len() < 128 {
            push(&mut rob, next);
            next += 1;
        }
        assert_eq!(rob.get(next - 1).unwrap().seq, next - 1);
    }

    #[test]
    fn recycled_storage_is_not_cleared_yet_never_read() {
        let mut rob = Rob::with_capacity(4);
        for s in 0..4 {
            push(&mut rob, s);
        }
        let rob = Rob::from_storage(rob.into_storage(), 4);
        assert_eq!(rob.len(), 0);
        assert!(rob.front().is_none());
        assert!(rob.get(0).is_none());
        assert_eq!(rob.next_seq(), 0);
    }

    #[test]
    #[should_panic(expected = "ROB ring is full")]
    fn a_full_ring_rejects_a_push() {
        let mut rob = Rob::with_capacity(3);
        for s in 0..5 {
            push(&mut rob, s);
        }
    }
}
