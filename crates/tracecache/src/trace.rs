//! Traces: the fill unit's raw traces and installed trace cache lines.

use crate::{ExecFeedback, ProfileFields, TcLocation};
use ctcp_isa::Instruction;

/// One retired instruction buffered in the fill unit, with the profile it
/// carried through the pipeline and the core's execution feedback.
#[derive(Debug, Clone, Copy)]
pub struct PendingInst {
    /// Global dynamic sequence number.
    pub seq: u64,
    /// Static instruction index in the program.
    pub index: u32,
    /// Static PC.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Instruction,
    /// Profile fields carried with the instruction (possibly updated by
    /// the chaining logic before the trace is finalised).
    pub profile: ProfileFields,
    /// Trace cache location the instruction was fetched from, if any
    /// (used to update its old line's profile fields in place).
    pub tc_loc: Option<TcLocation>,
    /// Execution feedback from the core.
    pub feedback: ExecFeedback,
    /// Dynamic direction, for control transfers (`None` otherwise).
    pub taken: Option<bool>,
}

/// The most instructions one trace holds: logical positions and
/// physical slots are `u8`s.
pub const MAX_TRACE_LEN: usize = 255;

/// A finalised but not-yet-assigned trace: instructions in logical order
/// plus the fill unit's intra-trace dependency analysis. A retire-time
/// cluster assignment strategy turns this into a [`TraceLine`].
#[derive(Debug, Clone)]
pub struct RawTrace {
    /// Instructions in logical (program) order.
    pub insts: Vec<PendingInst>,
    /// For each instruction, the logical position of the intra-trace
    /// producer of RS1/RS2, if the register was last written within this
    /// trace before the consumer.
    pub intra_producers: Vec<[Option<u8>; 2]>,
    /// For each instruction, whether a later instruction of this trace
    /// consumes its destination.
    pub has_intra_consumer: Vec<bool>,
    /// Number of control-transfer instructions in the trace.
    pub branch_count: u8,
}

impl RawTrace {
    /// Builds a raw trace from logical-order instructions, running the
    /// fill unit's intra-trace dependency analysis.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty or longer than [`MAX_TRACE_LEN`].
    pub fn analyze(insts: Vec<PendingInst>) -> Self {
        let mut trace = RawTrace {
            insts,
            intra_producers: Vec::new(),
            has_intra_consumer: Vec::new(),
            branch_count: 0,
        };
        trace.reanalyze();
        trace
    }

    /// Reruns the dependency analysis over `insts`, reusing the analysis
    /// vectors' storage (the fill unit recycles spent traces this way).
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty or longer than [`MAX_TRACE_LEN`].
    pub(crate) fn reanalyze(&mut self) {
        let n = self.insts.len();
        assert!(n > 0 && n <= MAX_TRACE_LEN);
        let mut last_writer: [Option<u8>; ctcp_isa::Reg::NUM] = [None; ctcp_isa::Reg::NUM];
        self.intra_producers.clear();
        self.intra_producers.resize(n, [None; 2]);
        self.has_intra_consumer.clear();
        self.has_intra_consumer.resize(n, false);
        let mut branch_count = 0u8;
        for (i, p) in self.insts.iter().enumerate() {
            if let Some(r) = p.inst.dep_src1() {
                if let Some(w) = last_writer[r.index()] {
                    self.intra_producers[i][0] = Some(w);
                    self.has_intra_consumer[w as usize] = true;
                }
            }
            if let Some(r) = p.inst.dep_src2() {
                if let Some(w) = last_writer[r.index()] {
                    self.intra_producers[i][1] = Some(w);
                    self.has_intra_consumer[w as usize] = true;
                }
            }
            if let Some(d) = p.inst.dest {
                last_writer[d.index()] = Some(i as u8);
            }
            if p.inst.op.is_cti() {
                branch_count += 1;
            }
        }
        self.branch_count = branch_count;
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the trace holds no instructions (never for analysed traces).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// PC of the first (logically oldest) instruction.
    pub fn start_pc(&self) -> u64 {
        self.insts[0].pc
    }

    /// The logical position of the *critical* intra-trace producer of
    /// instruction `i`: the intra-trace producer of the source the core
    /// reported as last-arriving, falling back to either intra-trace
    /// producer if criticality is unknown.
    pub fn critical_intra_producer(&self, i: usize) -> Option<u8> {
        let ip = &self.intra_producers[i];
        if let Some(cs) = self.insts[i].feedback.critical_src {
            if let Some(p) = ip[cs as usize] {
                return Some(p);
            }
        }
        ip[0].or(ip[1])
    }
}

/// One instruction slot of an installed trace cache line.
#[derive(Debug, Clone, Copy)]
pub struct TraceSlot {
    /// Static instruction index in the program.
    pub index: u32,
    /// Static PC.
    pub pc: u64,
    /// The instruction.
    pub inst: Instruction,
    /// Run-time profile fields (updated in place by the feedback loop).
    pub profile: ProfileFields,
    /// Dynamic direction recorded when the trace was built (control
    /// transfers only).
    pub taken: Option<bool>,
}

/// An installed trace cache line: up to `capacity` slots in *physical*
/// order (slot `s` issues to cluster `s / slots_per_cluster`), plus the
/// logical ordering needed to retire in program order.
#[derive(Debug, Clone)]
pub struct TraceLine {
    /// Unique id assigned at install time.
    pub id: u64,
    /// PC of the logically first instruction (the lookup tag).
    pub start_pc: u64,
    /// Physical slots; `None` for empty slots.
    pub slots: Vec<Option<TraceSlot>>,
    /// `logical_to_phys[l]` = physical slot of the `l`-th logical
    /// instruction.
    pub logical_to_phys: Vec<u8>,
}

impl TraceLine {
    /// Builds a line from a raw trace and a physical placement.
    ///
    /// `placement[l]` gives the physical slot of logical instruction `l`;
    /// it must be injective and within `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if the placement is not a valid injection into
    /// `0..capacity`.
    pub fn from_raw(raw: &RawTrace, placement: &[u8], capacity: usize) -> Self {
        let mut line = TraceLine {
            id: 0,
            start_pc: 0,
            slots: Vec::new(),
            logical_to_phys: Vec::new(),
        };
        line.refill(raw, placement, capacity);
        line
    }

    /// Rebuilds this line in place as [`TraceLine::from_raw`] would,
    /// reusing its storage; the id resets to 0 until the next install.
    ///
    /// # Panics
    ///
    /// As [`TraceLine::from_raw`].
    pub(crate) fn refill(&mut self, raw: &RawTrace, placement: &[u8], capacity: usize) {
        assert_eq!(placement.len(), raw.len());
        self.id = 0; // assigned by the cache at install
        self.start_pc = raw.start_pc();
        self.slots.clear();
        self.slots.resize(capacity, None);
        for (l, &p) in placement.iter().enumerate() {
            let p = p as usize;
            assert!(p < capacity, "placement out of range");
            assert!(self.slots[p].is_none(), "placement not injective");
            let src = &raw.insts[l];
            self.slots[p] = Some(TraceSlot {
                index: src.index,
                pc: src.pc,
                inst: src.inst,
                profile: src.profile,
                taken: src.taken,
            });
        }
        self.logical_to_phys.clear();
        self.logical_to_phys.extend_from_slice(placement);
    }

    /// Number of instructions in the line.
    pub fn len(&self) -> usize {
        self.logical_to_phys.len()
    }

    /// True if the line holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.logical_to_phys.is_empty()
    }

    /// Iterates instructions in logical order as
    /// `(physical_slot, &TraceSlot)`.
    pub fn logical_iter(&self) -> impl Iterator<Item = (u8, &TraceSlot)> + '_ {
        self.logical_to_phys.iter().map(move |&p| {
            (
                p,
                self.slots[p as usize]
                    .as_ref()
                    .expect("logical_to_phys points at filled slots"),
            )
        })
    }

    /// The recorded direction of each conditional branch, in logical
    /// order, paired with its PC.
    pub fn branch_path(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.logical_iter().filter_map(|(_, s)| {
            if s.inst.op.is_conditional_branch() {
                Some((s.pc, s.taken.unwrap_or(false)))
            } else {
                None
            }
        })
    }

    /// Identity placement for `n` instructions (baseline: physical order
    /// equals logical order).
    pub fn identity_placement(n: usize) -> Vec<u8> {
        (0..n as u8).collect()
    }

    /// Reorder distance of logical instruction `l`: how far the
    /// assignment strategy moved it from its program-order slot,
    /// `|physical - logical|`. The fill unit's reordering freedom is
    /// what retire-time strategies trade on, so the distribution of
    /// these distances is a direct measure of how aggressive a strategy
    /// was.
    pub fn reorder_distance(&self, l: usize) -> u64 {
        u64::from(self.logical_to_phys[l]).abs_diff(l as u64)
    }

    /// Iterates the reorder distance of every instruction in the line,
    /// in logical order.
    pub fn reorder_distances(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|l| self.reorder_distance(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChainRole;
    use ctcp_isa::{Opcode, Reg};

    fn pi(seq: u64, inst: Instruction, taken: Option<bool>) -> PendingInst {
        PendingInst {
            seq,
            index: seq as u32,
            pc: 0x1000 + 4 * seq,
            inst,
            profile: ProfileFields::default(),
            tc_loc: None,
            feedback: ExecFeedback::default(),
            taken,
        }
    }

    fn add(d: Reg, a: Reg, b: Reg) -> Instruction {
        Instruction::new(Opcode::Add, Some(d), Some(a), Some(b), 0)
    }

    #[test]
    fn intra_trace_dependency_analysis() {
        // i0: r1 = r2 + r3
        // i1: r4 = r1 + r2   (src1 -> i0)
        // i2: r1 = r4 + r4   (src1,src2 -> i1)
        // i3: r5 = r1 + r9   (src1 -> i2, not i0)
        let insts = vec![
            pi(0, add(Reg::R1, Reg::R2, Reg::R3), None),
            pi(1, add(Reg::R4, Reg::R1, Reg::R2), None),
            pi(2, add(Reg::R1, Reg::R4, Reg::R4), None),
            pi(3, add(Reg::R5, Reg::R1, Reg::R9), None),
        ];
        let t = RawTrace::analyze(insts);
        assert_eq!(t.intra_producers[0], [None, None]);
        assert_eq!(t.intra_producers[1], [Some(0), None]);
        assert_eq!(t.intra_producers[2], [Some(1), Some(1)]);
        assert_eq!(t.intra_producers[3], [Some(2), None]);
        assert_eq!(t.has_intra_consumer, vec![true, true, true, false]);
    }

    #[test]
    fn critical_intra_producer_uses_feedback() {
        let mut insts = vec![
            pi(0, add(Reg::R1, Reg::R8, Reg::R9), None),
            pi(1, add(Reg::R2, Reg::R8, Reg::R9), None),
            pi(2, add(Reg::R3, Reg::R1, Reg::R2), None),
        ];
        insts[2].feedback.critical_src = Some(1); // RS2 (r2 from i1)
        let t = RawTrace::analyze(insts);
        assert_eq!(t.critical_intra_producer(2), Some(1));
        // Without feedback, falls back to RS1's producer.
        assert_eq!(t.critical_intra_producer(1), None);
    }

    #[test]
    fn branch_count_counts_ctis() {
        let br = Instruction::new(Opcode::Bne, None, Some(Reg::R1), Some(Reg::R2), 0);
        let insts = vec![
            pi(0, add(Reg::R1, Reg::R2, Reg::R3), None),
            pi(1, br, Some(true)),
            pi(2, add(Reg::R2, Reg::R1, Reg::R1), None),
            pi(3, br, Some(false)),
        ];
        let t = RawTrace::analyze(insts);
        assert_eq!(t.branch_count, 2);
    }

    #[test]
    fn line_round_trips_logical_order() {
        let insts: Vec<_> = (0..4)
            .map(|i| pi(i, add(Reg::R1, Reg::R2, Reg::R3), None))
            .collect();
        let t = RawTrace::analyze(insts);
        // Scramble: logical l -> physical slot.
        let placement = vec![12u8, 0, 7, 3];
        let line = TraceLine::from_raw(&t, &placement, 16);
        let seqs: Vec<u32> = line.logical_iter().map(|(_, s)| s.index).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        let phys: Vec<u8> = line.logical_iter().map(|(p, _)| p).collect();
        assert_eq!(phys, placement);
        assert_eq!(line.len(), 4);
    }

    #[test]
    fn branch_path_reports_conditionals_only() {
        let cond = Instruction::new(Opcode::Blt, None, Some(Reg::R1), Some(Reg::R2), 0);
        let jmp = Instruction::new(Opcode::Jmp, None, None, None, 0);
        let insts = vec![
            pi(0, cond, Some(true)),
            pi(1, jmp, Some(true)),
            pi(2, cond, Some(false)),
        ];
        let t = RawTrace::analyze(insts);
        let line = TraceLine::from_raw(&t, &TraceLine::identity_placement(3), 16);
        let path: Vec<bool> = line.branch_path().map(|(_, d)| d).collect();
        assert_eq!(path, vec![true, false]);
    }

    #[test]
    fn reorder_distance_measures_displacement() {
        let insts: Vec<_> = (0..4)
            .map(|i| pi(i, add(Reg::R1, Reg::R2, Reg::R3), None))
            .collect();
        let t = RawTrace::analyze(insts);
        let line = TraceLine::from_raw(&t, &[12u8, 0, 7, 3], 16);
        let d: Vec<u64> = line.reorder_distances().collect();
        assert_eq!(d, vec![12, 1, 5, 0]);
        // Identity placement never moves anything.
        let line = TraceLine::from_raw(&t, &TraceLine::identity_placement(4), 16);
        assert!(line.reorder_distances().all(|d| d == 0));
    }

    #[test]
    #[should_panic]
    fn non_injective_placement_panics() {
        let insts = vec![
            pi(0, add(Reg::R1, Reg::R2, Reg::R3), None),
            pi(1, add(Reg::R2, Reg::R1, Reg::R3), None),
        ];
        let t = RawTrace::analyze(insts);
        let _ = TraceLine::from_raw(&t, &[5, 5], 16);
    }

    #[test]
    fn profile_fields_flow_into_line() {
        let mut insts = vec![pi(0, add(Reg::R1, Reg::R2, Reg::R3), None)];
        insts[0].profile = ProfileFields {
            role: ChainRole::Leader,
            chain_cluster: Some(3),
        };
        let t = RawTrace::analyze(insts);
        let line = TraceLine::from_raw(&t, &[0], 16);
        let (_, slot) = line.logical_iter().next().unwrap();
        assert_eq!(slot.profile.chain_cluster, Some(3));
        assert_eq!(slot.profile.role, ChainRole::Leader);
    }
}
