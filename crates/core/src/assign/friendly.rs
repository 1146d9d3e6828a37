//! Friendly et al.'s retire-time reordering (intra-trace dependencies
//! only).
//!
//! "For each issue slot, each instruction is checked for an intra-trace
//! input dependency for the respective cluster. Based on these data
//! dependencies, instructions are physically reordered within the trace."
//! — §2.3. The strategy walks issue slots in order; for each slot it
//! places the oldest not-yet-placed instruction that has an intra-trace
//! producer already placed on that slot's cluster, falling back to the
//! oldest unplaced instruction.

use super::Placement;
use crate::{ClusterGeometry, ClusterList, MAX_CLUSTERS};
use ctcp_tracecache::{RawTrace, MAX_TRACE_LEN};

/// The order in which Friendly's algorithm walks issue slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotFillOrder {
    /// Slots 0..capacity in order (the published strategy: clusters fill
    /// from cluster 0 outward).
    #[default]
    Sequential,
    /// Middle clusters' slots first (the paper's §5.3 "minor adjustment"
    /// that lifts Friendly from 3.1% to 4.7%).
    MiddleFirst,
}

/// Logical positions not yet placed, oldest first, held inline.
struct Unplaced {
    len: usize,
    pos: [u8; MAX_TRACE_LEN],
}

impl Unplaced {
    fn of(positions: impl IntoIterator<Item = u8>) -> Self {
        let mut u = Unplaced {
            len: 0,
            pos: [0; MAX_TRACE_LEN],
        };
        for p in positions {
            u.pos[u.len] = p;
            u.len += 1;
        }
        u
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Friendly's rule for a slot on `cluster`: removes and returns the
    /// oldest unplaced instruction with an intra-trace producer already
    /// placed on that cluster, else the oldest unplaced instruction.
    fn take_for(&mut self, trace: &RawTrace, cluster_of: &[Option<u8>], cluster: u8) -> usize {
        let pick = self.pos[..self.len]
            .iter()
            .position(|&i| {
                trace.intra_producers[i as usize]
                    .iter()
                    .flatten()
                    .any(|&p| cluster_of[p as usize] == Some(cluster))
            })
            .unwrap_or(0);
        let i = self.pos[pick];
        self.pos.copy_within(pick + 1..self.len, pick);
        self.len -= 1;
        i as usize
    }
}

/// Computes Friendly's placement for `trace`.
pub fn friendly_placement(
    trace: &RawTrace,
    geom: &ClusterGeometry,
    order: SlotFillOrder,
) -> Placement {
    let capacity = geom.total_slots();
    let n = trace.len();
    debug_assert!(n <= capacity);
    let spc = geom.slots_per_cluster;
    let mut placement = Placement::zeroed(n);
    let mut cluster_of = [None; MAX_TRACE_LEN];
    let mut unplaced = Unplaced::of(0..n as u8);
    let mut place = |slot: u8| {
        if unplaced.is_empty() {
            return;
        }
        let cluster = geom.cluster_of_slot(slot);
        let i = unplaced.take_for(trace, &cluster_of, cluster);
        placement[i] = slot;
        cluster_of[i] = Some(cluster);
    };
    match order {
        SlotFillOrder::Sequential => (0..capacity as u8).for_each(&mut place),
        SlotFillOrder::MiddleFirst => {
            // Cluster-major, but walking the clusters starting from the
            // most central one and moving to adjacent clusters, so small
            // traces occupy the middle of the machine while dependent
            // instructions can still gather within one cluster before the
            // walk moves on (slot-interleaving the clusters instead would
            // ping-pong each dependency chain between two clusters).
            let mut walk = ClusterList::default();
            let mut cur = geom.middle_order()[0];
            walk.push(cur);
            while walk.len() < geom.clusters as usize {
                let next = geom
                    .neighbors(cur)
                    .iter()
                    .copied()
                    .find(|c| !walk.contains(c))
                    .or_else(|| (0..geom.clusters).find(|c| !walk.contains(c)))
                    .expect("unvisited cluster exists");
                walk.push(next);
                cur = next;
            }
            for &c in walk.iter() {
                (0..spc).for_each(|k| place(c * spc + k));
            }
        }
    }
    placement
}

/// Completes a partial cluster assignment: instructions with a cluster in
/// `cluster_of` receive concrete slots within that cluster (in logical
/// order); the `skipped` instructions (logical positions, oldest first)
/// are then placed over the remaining slots by Friendly's rule. Returns
/// the full placement and records the final cluster of every
/// instruction back into `cluster_of`.
///
/// Used as the FDRT fallback ("These instructions are later assigned to
/// the remaining slots using Friendly's method", §4.3).
pub(crate) fn friendly_placement_partial(
    trace: &RawTrace,
    geom: &ClusterGeometry,
    cluster_of: &mut [Option<u8>],
    skipped: &[u8],
) -> Placement {
    let capacity = geom.total_slots();
    let n = trace.len();
    let spc = geom.slots_per_cluster as usize;
    let mut placement = Placement::zeroed(n);
    let mut slot_used = [false; u8::MAX as usize + 1]; // one flag per `u8` slot
    let mut next_in_cluster = [0usize; MAX_CLUSTERS as usize];
    for i in 0..n {
        if let Some(c) = cluster_of[i] {
            let base = c as usize * spc;
            let k = next_in_cluster[c as usize];
            debug_assert!(k < spc, "cluster over-filled by the first pass");
            placement[i] = (base + k) as u8;
            slot_used[base + k] = true;
            next_in_cluster[c as usize] = k + 1;
        }
    }
    let mut unplaced = Unplaced::of(skipped.iter().copied());
    for (slot, used) in slot_used[..capacity].iter_mut().enumerate() {
        if unplaced.is_empty() {
            break;
        }
        if *used {
            continue;
        }
        let cluster = geom.cluster_of_slot(slot as u8);
        let i = unplaced.take_for(trace, cluster_of, cluster);
        placement[i] = slot as u8;
        cluster_of[i] = Some(cluster);
        *used = true;
    }
    debug_assert!(unplaced.is_empty(), "more instructions than slots");
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctcp_isa::{Instruction, Opcode, Reg};
    use ctcp_tracecache::{ExecFeedback, PendingInst, ProfileFields};

    fn pi(seq: u64, inst: Instruction) -> PendingInst {
        PendingInst {
            seq,
            index: seq as u32,
            pc: 0x1000 + 4 * seq,
            inst,
            profile: ProfileFields::default(),
            tc_loc: None,
            feedback: ExecFeedback::default(),
            taken: None,
        }
    }

    fn add(d: Reg, a: Reg, b: Reg) -> Instruction {
        Instruction::new(Opcode::Add, Some(d), Some(a), Some(b), 0)
    }

    fn geom() -> ClusterGeometry {
        ClusterGeometry::default()
    }

    #[test]
    fn independent_instructions_keep_program_order() {
        let insts: Vec<_> = (0..8)
            .map(|i| pi(i, add(Reg::int(i as u8), Reg::R20, Reg::R21)))
            .collect();
        let t = RawTrace::analyze(insts);
        let p = friendly_placement(&t, &geom(), SlotFillOrder::Sequential);
        assert_eq!(p, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn dependent_chain_lands_on_producer_cluster() {
        // i0 produces r1; i1..i4 form a chain through r1->r2->r3->r4; with
        // only intra-trace deps, the whole chain should stay on cluster 0
        // until its 4 slots run out.
        let insts = vec![
            pi(0, add(Reg::R1, Reg::R20, Reg::R21)),
            pi(1, add(Reg::R2, Reg::R1, Reg::R21)),
            pi(2, add(Reg::R3, Reg::R2, Reg::R21)),
            pi(3, add(Reg::R4, Reg::R3, Reg::R21)),
            pi(4, add(Reg::R5, Reg::R4, Reg::R21)),
        ];
        let t = RawTrace::analyze(insts);
        let p = friendly_placement(&t, &geom(), SlotFillOrder::Sequential);
        // First four occupy cluster 0's slots.
        for l in 0..4 {
            assert!(p[l] < 4, "placement {p:?}");
        }
        // The fifth spills to the next cluster's slots.
        assert!(p[4] >= 4 && p[4] < 8, "placement {p:?}");
    }

    #[test]
    fn consumer_follows_producer_not_program_order() {
        // i0 -> cluster 0 slot 0; i1 independent; i2 depends on i0.
        // Slot 1 (cluster 0) should go to i2, not i1.
        let insts = vec![
            pi(0, add(Reg::R1, Reg::R20, Reg::R21)),
            pi(1, add(Reg::R9, Reg::R22, Reg::R23)),
            pi(2, add(Reg::R2, Reg::R1, Reg::R21)),
        ];
        let t = RawTrace::analyze(insts);
        let p = friendly_placement(&t, &geom(), SlotFillOrder::Sequential);
        assert_eq!(p[0], 0);
        assert_eq!(p[2], 1, "dependent instruction should take slot 1");
        assert_eq!(p[1], 2, "independent instruction fills the next slot");
    }

    #[test]
    fn placement_is_always_a_permutation() {
        let insts: Vec<_> = (0..16)
            .map(|i| {
                pi(
                    i,
                    add(
                        Reg::int((i % 8) as u8),
                        Reg::int(((i + 3) % 8) as u8),
                        Reg::int(((i + 5) % 8) as u8),
                    ),
                )
            })
            .collect();
        let t = RawTrace::analyze(insts);
        for order in [SlotFillOrder::Sequential, SlotFillOrder::MiddleFirst] {
            let p = friendly_placement(&t, &geom(), order);
            let mut seen = [false; 16];
            for &s in &p {
                assert!(!seen[s as usize], "duplicate slot in {p:?}");
                seen[s as usize] = true;
            }
        }
    }

    #[test]
    fn middle_first_biases_small_traces_to_central_clusters() {
        let insts: Vec<_> = (0..4)
            .map(|i| pi(i, add(Reg::int(i as u8), Reg::R20, Reg::R21)))
            .collect();
        let t = RawTrace::analyze(insts);
        let p = friendly_placement(&t, &geom(), SlotFillOrder::MiddleFirst);
        let g = geom();
        for &slot in &p {
            let c = g.cluster_of_slot(slot);
            assert!(c == 1 || c == 2, "expected middle cluster, got {c}");
        }
    }
}
