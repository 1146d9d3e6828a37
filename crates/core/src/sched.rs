//! Event-driven scheduling structures: the completion wheel and the
//! per-reservation-station ready queues.
//!
//! Both exist to remove the per-cycle O(ROB) scans from the engine's
//! `complete` and `select_and_execute` phases. A finish cycle is fixed
//! the moment execution begins, so completions live in a calendar queue
//! ([`CompletionWheel`]) and are popped exactly when due. A source's
//! arrival cycle is fixed the moment its last producer completes (or at
//! dispatch when nothing is outstanding), so selectable instructions
//! live in [`ReadyQueue`]s keyed by that cycle instead of being
//! re-polled with `readiness()` every cycle. [`StoreRing`] answers the
//! loads' one ordering question — the oldest store whose address is
//! still unknown — without a search tree.

use std::collections::VecDeque;

/// Number of slots in the completion wheel. Must comfortably exceed the
/// longest single-instruction latency (worst case is a load that misses
/// to memory plus MSHR queueing, well under 200 cycles), so events
/// almost never sit more than one lap out.
const WHEEL_SLOTS: usize = 256;

/// A calendar queue of `(complete_cycle, seq)` events keyed by finish
/// cycle modulo [`WHEEL_SLOTS`]. Each slot holds the events for every
/// lap, with a residual check on drain, so multi-lap latencies are
/// correct (just slightly slower to pop).
pub(crate) struct CompletionWheel {
    slots: Vec<Vec<(u64, u64)>>,
    /// Last cycle fully drained; events are only scheduled after it.
    cursor: u64,
    len: usize,
}

impl CompletionWheel {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        CompletionWheel::from_slots(Vec::new())
    }

    /// An empty wheel built from recycled slot storage: each recycled
    /// slot vector is cleared (capacity kept) and the slot count is
    /// topped back up to [`WHEEL_SLOTS`].
    pub(crate) fn from_slots(mut slots: Vec<Vec<(u64, u64)>>) -> Self {
        for slot in &mut slots {
            slot.clear();
        }
        slots.resize_with(WHEEL_SLOTS, Vec::new);
        slots.truncate(WHEEL_SLOTS);
        CompletionWheel {
            slots,
            cursor: 0,
            len: 0,
        }
    }

    /// Tears the wheel down to its slot storage for arena recycling.
    pub(crate) fn into_slots(self) -> Vec<Vec<(u64, u64)>> {
        self.slots
    }

    /// Schedules `seq` to complete at `complete`, which must be in the
    /// future relative to the last `drain_into` call.
    pub(crate) fn schedule(&mut self, complete: u64, seq: u64) {
        debug_assert!(
            complete > self.cursor,
            "completion at {complete} scheduled after cycle {} was drained",
            self.cursor
        );
        self.slots[(complete as usize) % WHEEL_SLOTS].push((complete, seq));
        self.len += 1;
    }

    /// Appends every event due in `(cursor, now]` to `out`, ordered by
    /// cycle (events within one cycle keep their scheduling order).
    pub(crate) fn drain_into(&mut self, now: u64, out: &mut Vec<(u64, u64)>) {
        if now <= self.cursor {
            return;
        }
        if self.len == 0 {
            self.cursor = now;
            return;
        }
        if now - self.cursor >= WHEEL_SLOTS as u64 {
            // Catch-up path for a caller that skipped far ahead: one pass
            // over every slot, then sort for a deterministic cycle order.
            let start = out.len();
            for slot in &mut self.slots {
                let mut keep = 0;
                for i in 0..slot.len() {
                    let ev = slot[i];
                    if ev.0 <= now {
                        out.push(ev);
                    } else {
                        slot[keep] = ev;
                        keep += 1;
                    }
                }
                slot.truncate(keep);
            }
            self.len -= out.len() - start;
            out[start..].sort_unstable();
            self.cursor = now;
            return;
        }
        for cycle in (self.cursor + 1)..=now {
            let slot = &mut self.slots[(cycle as usize) % WHEEL_SLOTS];
            if slot.is_empty() {
                continue;
            }
            // Residual entries from later laps stay; in-place compaction
            // avoids any per-cycle allocation.
            let mut keep = 0;
            for i in 0..slot.len() {
                let ev = slot[i];
                if ev.0 == cycle {
                    out.push(ev);
                    self.len -= 1;
                } else {
                    slot[keep] = ev;
                    keep += 1;
                }
            }
            slot.truncate(keep);
        }
        self.cursor = now;
    }
}

/// Instructions in one reservation station, partitioned by whether
/// their operands have arrived. `ready` is kept in ascending sequence
/// order so selection visits candidates oldest first (program order);
/// `pending` is ordered by `(ready_at, seq)` so promotion is a prefix
/// drain.
#[derive(Debug, Default)]
pub(crate) struct ReadyQueue {
    /// Selectable now (operands arrived), ascending seq.
    pub(crate) ready: Vec<u64>,
    /// Operands arrive at a known future cycle, ascending `(at, seq)`.
    pending: Vec<(u64, u64)>,
}

impl ReadyQueue {
    /// An empty queue built from recycled list storage (cleared here).
    pub(crate) fn from_parts(mut ready: Vec<u64>, mut pending: Vec<(u64, u64)>) -> Self {
        ready.clear();
        pending.clear();
        ReadyQueue { ready, pending }
    }

    /// Tears the queue down to its list storage for arena recycling.
    pub(crate) fn into_parts(self) -> (Vec<u64>, Vec<(u64, u64)>) {
        (self.ready, self.pending)
    }

    /// Files `seq`, whose operands arrive at `ready_at`, under the
    /// current cycle `now`. Station residency is tracked separately by
    /// the engine's per-station counters — this queue only orders
    /// selectable work.
    pub(crate) fn push_at(&mut self, ready_at: u64, seq: u64, now: u64) {
        if ready_at <= now {
            let i = self.ready.partition_point(|&s| s < seq);
            self.ready.insert(i, seq);
        } else {
            let key = (ready_at, seq);
            let i = self.pending.partition_point(|&p| p < key);
            self.pending.insert(i, key);
        }
    }

    /// True when nothing is filed: no selectable and no pending entry.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.ready.is_empty() && self.pending.is_empty()
    }

    /// Moves every pending entry whose arrival cycle has come into the
    /// ready list. Select calls this for every station every cycle, so
    /// the common case — nothing due — is one inlined head check.
    #[inline]
    pub(crate) fn promote(&mut self, now: u64) {
        if self.pending.first().is_some_and(|&(at, _)| at <= now) {
            self.promote_due(now);
        }
    }

    fn promote_due(&mut self, now: u64) {
        let n = self.pending.partition_point(|&(at, _)| at <= now);
        for idx in 0..n {
            let seq = self.pending[idx].1;
            let i = self.ready.partition_point(|&s| s < seq);
            self.ready.insert(i, seq);
        }
        self.pending.drain(..n);
    }
}

/// In-flight stores in program order, each flagged once its address
/// resolves (at execute). Stores resolve out of order, but only the
/// oldest unresolved one matters to a load, so the resolved prefix is
/// popped as it forms and the front is always the answer.
#[derive(Debug, Default)]
pub(crate) struct StoreRing {
    /// `(seq, resolved)`, ascending seq; the front is unresolved.
    stores: VecDeque<(u64, bool)>,
}

impl StoreRing {
    /// An empty ring built from recycled storage (cleared here).
    pub(crate) fn from_storage(mut stores: VecDeque<(u64, bool)>) -> Self {
        stores.clear();
        StoreRing { stores }
    }

    /// Tears the ring down to its storage for arena recycling.
    pub(crate) fn into_storage(self) -> VecDeque<(u64, bool)> {
        self.stores
    }

    /// Appends a renamed store, younger than every store already held.
    pub(crate) fn push(&mut self, seq: u64) {
        debug_assert!(self.stores.back().is_none_or(|&(s, _)| s < seq));
        self.stores.push_back((seq, false));
    }

    /// Marks the store `seq` resolved, then pops the resolved prefix.
    pub(crate) fn resolve(&mut self, seq: u64) {
        let i = self
            .stores
            .binary_search_by_key(&seq, |&(s, _)| s)
            .expect("resolving a store that was never renamed");
        self.stores[i].1 = true;
        while self.stores.front().is_some_and(|&(_, resolved)| resolved) {
            self.stores.pop_front();
        }
    }

    /// The oldest store whose address is still unknown.
    #[inline]
    pub(crate) fn oldest_unresolved(&self) -> Option<u64> {
        self.stores.front().map(|&(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_pops_exactly_whats_due_in_order() {
        let mut w = CompletionWheel::new();
        w.schedule(3, 30);
        w.schedule(1, 10);
        w.schedule(2, 20);
        w.schedule(1, 11);
        let mut out = Vec::new();
        w.drain_into(2, &mut out);
        assert_eq!(out, vec![(1, 10), (1, 11), (2, 20)]);
        out.clear();
        w.drain_into(2, &mut out);
        assert!(out.is_empty(), "re-draining the same cycle yields nothing");
        w.drain_into(3, &mut out);
        assert_eq!(out, vec![(3, 30)]);
    }

    #[test]
    fn wheel_keeps_multi_lap_residents() {
        let mut w = CompletionWheel::new();
        let far = 5 + WHEEL_SLOTS as u64; // same slot as cycle 5, next lap
        w.schedule(far, 99);
        w.schedule(5, 1);
        let mut out = Vec::new();
        w.drain_into(5, &mut out);
        assert_eq!(out, vec![(5, 1)]);
        out.clear();
        w.drain_into(far - 1, &mut out);
        assert!(out.is_empty());
        w.drain_into(far, &mut out);
        assert_eq!(out, vec![(far, 99)]);
    }

    #[test]
    fn wheel_catch_up_path_sorts_by_cycle() {
        let mut w = CompletionWheel::new();
        w.schedule(300, 3);
        w.schedule(7, 7);
        w.schedule(150, 1);
        let mut out = Vec::new();
        // Jump well past a full lap in one call.
        w.drain_into(1000, &mut out);
        assert_eq!(out, vec![(7, 7), (150, 1), (300, 3)]);
    }

    #[test]
    fn ready_queue_promotes_in_seq_order() {
        let mut q = ReadyQueue::default();
        q.push_at(5, 42, 0); // future -> pending
        q.push_at(0, 7, 0); // already ready
        q.push_at(5, 13, 0);
        q.push_at(3, 99, 0);
        assert_eq!(q.ready, vec![7]);
        q.promote(4);
        assert_eq!(q.ready, vec![7, 99]);
        q.promote(5);
        assert_eq!(q.ready, vec![7, 13, 42, 99]);
    }

    #[test]
    fn store_ring_yields_the_oldest_unresolved_store_out_of_order() {
        let mut r = StoreRing::default();
        assert_eq!(r.oldest_unresolved(), None);
        for seq in [3, 8, 10, 15, 21] {
            r.push(seq);
        }
        assert_eq!(r.oldest_unresolved(), Some(3));
        // Younger stores resolving first leave the oldest in charge.
        r.resolve(10);
        r.resolve(15);
        assert_eq!(r.oldest_unresolved(), Some(3));
        // Resolving the oldest pops the whole resolved prefix behind it.
        r.resolve(3);
        assert_eq!(r.oldest_unresolved(), Some(8));
        r.resolve(8);
        assert_eq!(r.oldest_unresolved(), Some(21));
        r.push(30);
        r.resolve(21);
        assert_eq!(r.oldest_unresolved(), Some(30));
        r.resolve(30);
        assert_eq!(r.oldest_unresolved(), None);
        // Recycled storage starts empty.
        let mut r = StoreRing::from_storage(r.into_storage());
        r.push(40);
        assert_eq!(r.oldest_unresolved(), Some(40));
    }
}
