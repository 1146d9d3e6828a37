//! The fill unit: trace selection and construction from the retire
//! stream.
//!
//! Trace *selection* follows the classic scheme the paper builds on
//! (Rotenberg et al., Patel et al.): a new trace begins at a fetch
//! address — either the head of a trace-cache line being rebuilt, or a
//! fetch address that missed the trace cache while the fill unit was
//! idle. This alignment is what makes constructed traces start at PCs
//! that fetch will actually request again; free-running segmentation of
//! the retire stream would precess around loops and never hit.

use crate::{PendingInst, RawTrace};

/// How the retired instruction relates to fetch-group boundaries, which
/// drives trace selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceHead {
    /// Not the first instruction of its fetch group.
    None,
    /// First instruction of a group fetched from the trace cache: the
    /// current trace ends here and a rebuild of the line begins.
    TraceCacheLine,
    /// First instruction of a group whose fetch address missed the trace
    /// cache: starts a new trace if the fill unit is idle.
    TraceCacheMiss,
}

/// Fill unit parameters (defaults: 16-instruction, 3-basic-block traces
/// and a short install latency — the paper shows latencies up to 1000
/// cycles do not materially change results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillUnitConfig {
    /// Maximum instructions per trace.
    pub max_insts: usize,
    /// Maximum basic blocks (control transfers) per trace.
    pub max_blocks: usize,
    /// Cycles between trace completion and installation in the trace
    /// cache.
    pub latency: u64,
    /// Also terminate traces at backward taken branches (loop-back
    /// edges), aligning trace families with loop iterations. Without
    /// this, trace boundaries precess around loops and the same static
    /// instruction lands in several overlapping trace families, churning
    /// retire-time cluster assignments.
    pub end_at_backward_branch: bool,
}

impl Default for FillUnitConfig {
    fn default() -> Self {
        FillUnitConfig {
            max_insts: 16,
            max_blocks: 3,
            latency: 3,
            end_at_backward_branch: true,
        }
    }
}

/// Aggregate fill-unit counters, reported as one snapshot so consumers
/// do not stitch together individual accessors.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FillUnitStats {
    /// Traces finalised.
    pub traces_built: u64,
    /// Instructions accepted into traces (the unit idles between trace
    /// heads, so this can be less than retired instructions).
    pub insts_buffered: u64,
}

/// Spent traces the fill unit keeps for reuse: [`FillUnit::push`]
/// emits at most two at a time, and the caller hands each back before
/// the next push.
const SPARE_TRACES: usize = 2;

/// The traces one [`FillUnit::push`] finalised — none, one, or two (a
/// line-boundary flush plus a completion) — held inline. Iterate it to
/// take them, oldest first.
#[derive(Debug, Default)]
pub struct FinishedTraces {
    first: Option<RawTrace>,
    second: Option<RawTrace>,
}

impl FinishedTraces {
    fn add(&mut self, trace: Option<RawTrace>) {
        if self.first.is_none() {
            self.first = trace;
        } else {
            self.second = trace;
        }
    }

    /// True if no trace is left to take.
    pub fn is_empty(&self) -> bool {
        self.first.is_none() && self.second.is_none()
    }
}

impl Iterator for FinishedTraces {
    type Item = RawTrace;

    fn next(&mut self) -> Option<RawTrace> {
        self.first.take().or_else(|| self.second.take())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::from(self.first.is_some()) + usize::from(self.second.is_some());
        (left, Some(left))
    }
}

impl ExactSizeIterator for FinishedTraces {}

/// The fill unit buffers retiring instructions and emits finalised
/// [`RawTrace`]s. A trace ends when it holds `max_insts` instructions,
/// `max_blocks` control transfers, an indirect control transfer (whose
/// target varies), or when the retire stream crosses into a rebuilt
/// trace-cache line. Between traces the unit idles until the next trace
/// head retires.
///
/// Buffers are recycled, not reallocated: the collecting buffer trades
/// places with the instruction vector of a spare trace at every
/// finalisation, and callers return spent traces through
/// [`FillUnit::recycle`], so a steady-state fill unit allocates nothing.
#[derive(Debug)]
pub struct FillUnit {
    config: FillUnitConfig,
    pending: Vec<PendingInst>,
    /// Spent traces whose storage the next finalisations reuse.
    spare: Vec<RawTrace>,
    branches: usize,
    filling: bool,
    traces_built: u64,
    insts_buffered: u64,
}

impl FillUnit {
    /// Creates an idle fill unit.
    ///
    /// # Panics
    ///
    /// Panics if `max_insts` or `max_blocks` is zero.
    pub fn new(config: FillUnitConfig) -> Self {
        assert!(config.max_insts > 0 && config.max_blocks > 0);
        FillUnit {
            config,
            pending: Vec::new(),
            spare: Vec::new(),
            branches: 0,
            filling: false,
            traces_built: 0,
            insts_buffered: 0,
        }
    }

    /// Install latency configured for this fill unit.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    /// Number of traces finalised so far.
    pub fn traces_built(&self) -> u64 {
        self.traces_built
    }

    /// Total instructions accepted into traces so far.
    pub fn insts_buffered(&self) -> u64 {
        self.insts_buffered
    }

    /// Every fill-unit counter in one snapshot.
    pub fn stats(&self) -> FillUnitStats {
        FillUnitStats {
            traces_built: self.traces_built,
            insts_buffered: self.insts_buffered,
        }
    }

    /// Instructions waiting in the partial trace.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True while a trace is being collected.
    pub fn is_filling(&self) -> bool {
        self.filling
    }

    /// Accepts one retired instruction with its trace-head marker;
    /// returns the zero, one, or two traces it finalised (a line-boundary
    /// flush plus a completion) as an inline iterator. Hand each trace
    /// back through [`FillUnit::recycle`] once done with it.
    #[inline]
    pub fn push(&mut self, inst: PendingInst, head: TraceHead) -> FinishedTraces {
        let mut out = FinishedTraces::default();
        match head {
            TraceHead::TraceCacheLine => {
                // Re-align: finish whatever was collecting, rebuild the
                // line from its head.
                out.add(self.finalize());
                self.filling = true;
            }
            TraceHead::TraceCacheMiss => {
                if !self.filling {
                    self.filling = true;
                }
                // Already filling: the trace extends across the group
                // boundary.
            }
            TraceHead::None => {
                if !self.filling {
                    // Idle: not collected into any trace.
                    return out;
                }
            }
        }
        let is_cti = inst.inst.op.is_cti();
        let is_indirect = inst.inst.op.is_indirect();
        let is_backward_taken = self.config.end_at_backward_branch
            && inst.taken == Some(true)
            && inst.inst.op.is_conditional_branch()
            && ctcp_isa::Program::pc_of(inst.inst.imm as usize) <= inst.pc;
        self.insts_buffered += 1;
        self.pending.push(inst);
        if is_cti {
            self.branches += 1;
        }
        if self.pending.len() >= self.config.max_insts
            || self.branches >= self.config.max_blocks
            || is_indirect
            || is_backward_taken
        {
            out.add(self.finalize());
            self.filling = false;
        }
        out
    }

    /// Takes back a trace emitted by [`FillUnit::push`] or
    /// [`FillUnit::flush`] so a later trace reuses its storage.
    pub fn recycle(&mut self, trace: RawTrace) {
        if self.spare.len() < SPARE_TRACES {
            self.spare.push(trace);
        }
    }

    /// Forces the partial trace out (end of simulation).
    pub fn flush(&mut self) -> Option<RawTrace> {
        let t = self.finalize();
        self.filling = false;
        t
    }

    fn finalize(&mut self) -> Option<RawTrace> {
        self.branches = 0;
        if self.pending.is_empty() {
            return None;
        }
        self.traces_built += 1;
        let mut trace = self.spare.pop().unwrap_or_else(|| RawTrace {
            insts: Vec::new(),
            intra_producers: Vec::new(),
            has_intra_consumer: Vec::new(),
            branch_count: 0,
        });
        // The collected instructions move into the trace; the trace's
        // old buffer, cleared, collects the next one.
        std::mem::swap(&mut trace.insts, &mut self.pending);
        self.pending.clear();
        trace.reanalyze();
        Some(trace)
    }
}

impl Default for FillUnit {
    fn default() -> Self {
        FillUnit::new(FillUnitConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecFeedback, ProfileFields};
    use ctcp_isa::{Instruction, Opcode, Reg};

    fn pi(seq: u64, op: Opcode, taken: Option<bool>) -> PendingInst {
        let inst = match op {
            Opcode::Add => Instruction::new(op, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0),
            Opcode::Jr => Instruction::new(op, None, Some(Reg::R1), None, 0),
            // Forward target so the backward-taken-branch trace
            // terminator does not fire in these tests.
            _ => Instruction::new(op, None, Some(Reg::R1), Some(Reg::R2), 500),
        };
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

    #[test]
    fn idle_unit_drops_non_heads() {
        let mut fu = FillUnit::default();
        assert!(fu
            .push(pi(0, Opcode::Add, None), TraceHead::None)
            .is_empty());
        assert_eq!(fu.pending_len(), 0);
        assert!(!fu.is_filling());
    }

    #[test]
    fn miss_head_starts_collection_and_capacity_ends_it() {
        let mut fu = FillUnit::default();
        assert!(fu
            .push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss)
            .is_empty());
        assert!(fu.is_filling());
        for i in 1..15 {
            assert!(fu
                .push(pi(i, Opcode::Add, None), TraceHead::None)
                .is_empty());
        }
        let out: Vec<_> = fu
            .push(pi(15, Opcode::Add, None), TraceHead::None)
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 16);
        assert!(!fu.is_filling());
        assert_eq!(fu.traces_built(), 1);
    }

    #[test]
    fn trace_extends_across_miss_group_boundaries() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        fu.push(pi(1, Opcode::Bne, Some(true)), TraceHead::None);
        // Next group also missed, but the unit keeps filling.
        assert!(fu
            .push(pi(2, Opcode::Add, None), TraceHead::TraceCacheMiss)
            .is_empty());
        assert_eq!(fu.pending_len(), 3);
    }

    #[test]
    fn tc_line_head_flushes_and_realigns() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        fu.push(pi(1, Opcode::Add, None), TraceHead::None);
        // Crossing into a trace-cache group finalises the partial trace
        // and starts collecting the rebuilt line.
        let out: Vec<_> = fu
            .push(pi(2, Opcode::Add, None), TraceHead::TraceCacheLine)
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 2);
        assert!(fu.is_filling());
        assert_eq!(fu.pending_len(), 1);
    }

    #[test]
    fn three_branches_end_a_trace() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        fu.push(pi(1, Opcode::Bne, Some(true)), TraceHead::None);
        fu.push(pi(2, Opcode::Bne, Some(false)), TraceHead::None);
        let out: Vec<_> = fu
            .push(pi(3, Opcode::Bne, Some(true)), TraceHead::None)
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].branch_count, 3);
        assert!(!fu.is_filling());
    }

    #[test]
    fn indirect_ends_a_trace() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        let out: Vec<_> = fu
            .push(pi(1, Opcode::Jr, Some(true)), TraceHead::None)
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 2);
    }

    #[test]
    fn flush_emits_partial_trace_once() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        let t = fu.flush().unwrap();
        assert_eq!(t.len(), 1);
        assert!(fu.flush().is_none());
    }

    #[test]
    fn backward_taken_branch_ends_a_trace() {
        let mut fu = FillUnit::default();
        fu.push(pi(5, Opcode::Add, None), TraceHead::TraceCacheMiss);
        // Taken conditional branch whose target (instruction 0) is behind
        // its own pc: a loop-back edge.
        let mut back = pi(6, Opcode::Bne, Some(true));
        back.inst.imm = 0;
        let out: Vec<_> = fu.push(back, TraceHead::None).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 2);
        assert!(!fu.is_filling());
        // The same branch not taken does not end the trace.
        let mut fu = FillUnit::default();
        fu.push(pi(5, Opcode::Add, None), TraceHead::TraceCacheMiss);
        let mut nt = pi(6, Opcode::Bne, Some(false));
        nt.inst.imm = 0;
        assert!(fu.push(nt, TraceHead::None).is_empty());
    }

    #[test]
    fn recycled_traces_are_reanalysed_from_scratch() {
        let dep = |seq, d, a| {
            let mut p = pi(seq, Opcode::Add, None);
            p.inst = Instruction::new(Opcode::Add, Some(d), Some(a), Some(Reg::R9), 0);
            p
        };
        let mut fu = FillUnit::default();
        // r1 -> r2 -> r3 chain, ended by an indirect jump.
        fu.push(dep(0, Reg::R1, Reg::R8), TraceHead::TraceCacheMiss);
        fu.push(dep(1, Reg::R2, Reg::R1), TraceHead::None);
        fu.push(dep(2, Reg::R3, Reg::R2), TraceHead::None);
        let first: Vec<_> = fu
            .push(pi(3, Opcode::Jr, Some(true)), TraceHead::None)
            .collect();
        assert_eq!(first[0].has_intra_consumer, vec![true, true, false, false]);
        let reused = first[0].intra_producers.as_ptr();
        for t in first {
            fu.recycle(t);
        }
        // An independent pair reuses that storage with a fresh analysis.
        fu.push(dep(4, Reg::R4, Reg::R10), TraceHead::TraceCacheMiss);
        fu.push(dep(5, Reg::R5, Reg::R11), TraceHead::None);
        let second = fu.flush().unwrap();
        assert_eq!(second.len(), 2);
        assert_eq!(second.has_intra_consumer, vec![false, false]);
        assert_eq!(second.intra_producers, vec![[None, None]; 2]);
        assert_eq!(second.branch_count, 0);
        // The second trace is the first one's storage, reused.
        assert_eq!(second.intra_producers.as_ptr(), reused);
    }

    #[test]
    fn branch_count_resets_between_traces() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Bne, Some(true)), TraceHead::TraceCacheMiss);
        fu.push(pi(1, Opcode::Bne, Some(true)), TraceHead::None);
        let out = fu.push(pi(2, Opcode::Bne, Some(true)), TraceHead::None);
        assert_eq!(out.len(), 1);
        // New trace: the branch counter starts fresh.
        fu.push(pi(3, Opcode::Bne, Some(true)), TraceHead::TraceCacheMiss);
        assert!(fu.is_filling());
        assert_eq!(fu.pending_len(), 1);
    }
}
