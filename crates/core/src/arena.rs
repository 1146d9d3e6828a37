//! Recyclable, data-oriented storage for the engine's hot state.
//!
//! Constructing an [`Engine`](crate::Engine) allocates a ROB ring, a
//! 256-slot completion wheel, per-cluster dispatch queues, per-RS
//! ready/pending lists, and a consumer-list slab. For a single long
//! simulation that cost is noise; for a sweep that interleaves hundreds
//! of short cells on one worker thread it dominates, and it scatters
//! every cell's hot state across fresh, cache-cold allocations.
//!
//! [`EngineArena`] is the remedy: one bundle holding every recyclable
//! allocation an engine owns. [`Engine::with_arena`](crate::Engine)
//! builds an engine out of a (possibly used) arena, clearing contents
//! but keeping capacity; [`Engine::into_arena`](crate::Engine) harvests
//! the storage back when the engine is dropped. A batch runner that
//! round-trips one arena through consecutive cells reaches steady state
//! after the first cell: everything after that runs with warm caches
//! and zero construction allocation.
//!
//! [`ConsumerArena`] is the data-oriented half: wakeup lists, formerly
//! one `Vec<(u64, u8)>` per ROB entry, live in a single
//! struct-of-arrays slab of singly linked nodes. Entries carry two
//! `u32` handles (head and tail of their chain) instead of a vector,
//! which shrinks the entry, removes per-entry allocations entirely, and
//! keeps all wakeup traffic inside one slab.

use crate::entry::Entry;
use std::collections::VecDeque;

/// Null handle for [`ConsumerArena`] chains.
pub(crate) const NIL: u32 = u32::MAX;

/// Struct-of-arrays slab of wakeup-list nodes. Each node is one
/// `(consumer_seq, src_index)` registration; chains are threaded
/// through `next` and owned by the producer's ROB entry via its
/// `cons_head`/`cons_tail` handles. Freed nodes go on an intrusive
/// free list, so steady state allocates nothing.
#[derive(Debug)]
pub(crate) struct ConsumerArena {
    seqs: Vec<u64>,
    ops: Vec<u8>,
    next: Vec<u32>,
    free_head: u32,
}

impl Default for ConsumerArena {
    fn default() -> Self {
        ConsumerArena {
            seqs: Vec::new(),
            ops: Vec::new(),
            next: Vec::new(),
            free_head: NIL,
        }
    }
}

impl ConsumerArena {
    fn alloc(&mut self, seq: u64, op: u8) -> u32 {
        if self.free_head != NIL {
            let n = self.free_head;
            let i = n as usize;
            self.free_head = self.next[i];
            self.seqs[i] = seq;
            self.ops[i] = op;
            self.next[i] = NIL;
            n
        } else {
            let n = u32::try_from(self.seqs.len()).expect("consumer slab exceeds u32 handles");
            self.seqs.push(seq);
            self.ops.push(op);
            self.next.push(NIL);
            n
        }
    }

    /// Appends a `(seq, op)` registration to the chain whose handles the
    /// caller owns, updating them in place.
    pub(crate) fn append(&mut self, head: &mut u32, tail: &mut u32, seq: u64, op: u8) {
        let n = self.alloc(seq, op);
        if *head == NIL {
            *head = n;
        } else {
            self.next[*tail as usize] = n;
        }
        *tail = n;
    }

    /// Drains the chain starting at `head` into `out` in insertion
    /// order, returning every node to the free list.
    pub(crate) fn drain_into(&mut self, head: u32, out: &mut Vec<(u64, u8)>) {
        let mut n = head;
        while n != NIL {
            let i = n as usize;
            out.push((self.seqs[i], self.ops[i]));
            let next = self.next[i];
            self.next[i] = self.free_head;
            self.free_head = n;
            n = next;
        }
    }

    /// Forgets every chain and every free node, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.seqs.clear();
        self.ops.clear();
        self.next.clear();
        self.free_head = NIL;
    }
}

/// Every recyclable allocation one [`Engine`](crate::Engine) owns: the
/// ROB ring, the in-flight store ring, the consumer slab, the completion
/// wheel's slot vectors, scratch buffers, and pools of per-cluster queue
/// storage. Obtain a fresh one with `EngineArena::default()`, pass it to
/// [`Engine::with_arena`](crate::Engine::with_arena), and harvest it
/// back with [`Engine::into_arena`](crate::Engine::into_arena) to reuse
/// across consecutive simulations. Contents are cleared (capacity kept)
/// when the next engine is built from it, except the ROB ring's slots,
/// which the ROB never reads outside its live window; either way reuse
/// cannot leak state between runs.
#[derive(Debug, Default)]
pub struct EngineArena {
    pub(crate) entries: Vec<Entry>,
    pub(crate) stores: VecDeque<(u64, bool)>,
    pub(crate) consumers: ConsumerArena,
    pub(crate) wheel_slots: Vec<Vec<(u64, u64)>>,
    pub(crate) events: Vec<(u64, u64)>,
    pub(crate) wakes: Vec<(u64, u8)>,
    pub(crate) steer_counts: Vec<u32>,
    pub(crate) dispatch_qs: Vec<VecDeque<u64>>,
    pub(crate) seq_lists: Vec<Vec<u64>>,
    pub(crate) pending_lists: Vec<Vec<(u64, u64)>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_keep_insertion_order_and_recycle_nodes() {
        let mut a = ConsumerArena::default();
        let (mut h1, mut t1) = (NIL, NIL);
        let (mut h2, mut t2) = (NIL, NIL);
        a.append(&mut h1, &mut t1, 10, 0);
        a.append(&mut h2, &mut t2, 20, 1);
        a.append(&mut h1, &mut t1, 11, 1);
        a.append(&mut h1, &mut t1, 12, 0);
        let mut out = Vec::new();
        a.drain_into(h1, &mut out);
        assert_eq!(out, vec![(10, 0), (11, 1), (12, 0)]);
        out.clear();
        a.drain_into(h2, &mut out);
        assert_eq!(out, vec![(20, 1)]);
        // All four nodes are free now: new chains reuse them without
        // growing the slab.
        let before = a.seqs.len();
        let (mut h3, mut t3) = (NIL, NIL);
        for k in 0..4 {
            a.append(&mut h3, &mut t3, k, 0);
        }
        assert_eq!(a.seqs.len(), before, "free list must be reused");
        out.clear();
        a.drain_into(h3, &mut out);
        assert_eq!(out, vec![(0, 0), (1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn clear_resets_chains_and_free_list() {
        let mut a = ConsumerArena::default();
        let (mut h, mut t) = (NIL, NIL);
        a.append(&mut h, &mut t, 1, 0);
        a.clear();
        let (mut h2, mut t2) = (NIL, NIL);
        a.append(&mut h2, &mut t2, 7, 1);
        let mut out = Vec::new();
        a.drain_into(h2, &mut out);
        assert_eq!(out, vec![(7, 1)]);
    }
}
