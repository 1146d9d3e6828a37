//! In-flight instruction state (ROB entries).

use crate::RsClass;
use ctcp_isa::{Instruction, Opcode};
use ctcp_tracecache::{ChainRole, ExecFeedback, ProfileFields, TcLocation};

/// Resolution state of one source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcState {
    /// No register source (or the zero register).
    None,
    /// Value comes from the register file, readable at the given cycle.
    RfReady { at: u64 },
    /// Value comes from an in-flight producer that has not completed.
    Waiting { producer_seq: u64 },
    /// Producer has completed: the raw result exists at `complete` on
    /// `cluster`; consumers add forwarding latency by distance.
    Forwarded {
        producer_seq: u64,
        complete: u64,
        cluster: u8,
        /// Producer fetched in the same trace/fetch group as the consumer.
        same_trace: bool,
    },
}

/// Pipeline stage of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Steered, waiting to be written into a reservation station.
    AwaitDispatch { at: u64 },
    /// In a reservation station, waiting for operands / functional unit.
    InRs,
    /// Executing; result at `complete`.
    Executing { complete: u64 },
    /// Result produced; eligible to retire when it reaches the ROB head.
    Complete { at: u64 },
}

/// One in-flight instruction, from rename to retirement. Lives in one
/// slot of the engine's ROB ring from rename until it retires, and is
/// only ever updated in place.
///
/// Fields are laid out in declaration order (`repr(C)`): what dispatch,
/// wakeup, select and retire read every cycle comes first, so those
/// stages touch the slot's leading cache lines; what only rename writes
/// and retirement copies out comes last.
#[derive(Debug, Clone)]
#[repr(C)]
pub(crate) struct Entry {
    pub seq: u64,
    pub stage: Stage,
    pub srcs: [SrcState; 2],
    /// Index of the last-arriving source, fixed when the last source
    /// resolves and the entry is filed in its ready queue (`None` with
    /// no register sources, or before filing).
    pub critical: Option<u8>,
    /// Assigned cluster.
    pub cluster: u8,
    /// Reservation station within the cluster.
    pub rs: RsClass,
    /// The branch was mispredicted at fetch; its completion redirects the
    /// front-end.
    pub mispredicted: bool,
    /// Head of this entry's wakeup chain in the engine's
    /// [`ConsumerArena`](crate::arena::ConsumerArena): the
    /// `(consumer_seq, src_index)` registrations made at rename for each
    /// in-flight instruction still waiting on this entry's result.
    /// Completion resolves exactly these sources, so no ROB-wide
    /// broadcast is needed. `NIL` when empty; drained (nodes returned to
    /// the slab's free list) when this entry completes.
    pub cons_head: u32,
    /// Tail of the wakeup chain, so registration appends in O(1) and the
    /// drain preserves insertion order.
    pub cons_tail: u32,
    /// Fetch-group id (trace identity for inter/intra-trace decisions).
    pub group: u64,
    pub inst: Instruction,
    /// Cycle the instruction entered a reservation station.
    pub dispatched_at: u64,
    pub mem_addr: Option<u64>,
    /// Cycle execution began.
    pub exec_start: u64,
    /// Execution feedback being accumulated for the fill unit.
    pub feedback: ctcp_tracecache::ExecFeedback,
    pub pc: u64,
    pub index: u32,
    pub taken: Option<bool>,
    pub from_tc: bool,
    pub tc_loc: Option<TcLocation>,
    pub profile: ProfileFields,
    /// Cycle rename accepted the instruction into the window.
    pub renamed_at: u64,
}

impl Entry {
    /// The contents of a never-written ring slot. Never read as an
    /// instruction: the ROB only hands out slots inside its live window.
    pub(crate) const VACANT: Entry = Entry {
        seq: 0,
        pc: 0,
        index: 0,
        inst: Instruction {
            op: Opcode::Nop,
            dest: None,
            src1: None,
            src2: None,
            imm: 0,
        },
        mem_addr: None,
        taken: None,
        group: 0,
        from_tc: false,
        tc_loc: None,
        profile: ProfileFields {
            role: ChainRole::None,
            chain_cluster: None,
        },
        cluster: 0,
        rs: RsClass::Simple0,
        srcs: [SrcState::None, SrcState::None],
        critical: None,
        stage: Stage::InRs,
        mispredicted: false,
        renamed_at: 0,
        dispatched_at: 0,
        exec_start: 0,
        feedback: ExecFeedback {
            executed_cluster: 0,
            src_producers: [None, None],
            critical_src: None,
            critical_forwarded: false,
        },
        cons_head: u32::MAX,
        cons_tail: u32::MAX,
    };

    /// Completion cycle, if complete or executing.
    pub(crate) fn complete_cycle(&self) -> Option<u64> {
        match self.stage {
            Stage::Executing { complete } => Some(complete),
            Stage::Complete { at } => Some(at),
            _ => None,
        }
    }
}
