//! # Trace cache and fill unit for the CTCP simulator
//!
//! Implements the instruction-supply mechanism the paper's contribution
//! lives in (Bhargava & John, ISCA 2003):
//!
//! * a 1K-entry, 2-way, 3-cycle **trace cache** whose lines hold up to 16
//!   instructions spanning up to three basic blocks, in a *physical* order
//!   that may differ from logical (program) order, plus per-instruction
//!   **profile fields** — the 2-bit chain-cluster and 2-bit leader/follower
//!   values the FDRT strategy feeds on (§4.2 of the paper),
//! * the **fill unit**, which snoops the retire stream, segments it into
//!   traces, performs intra-trace dependency analysis, and hands the
//!   resulting [`RawTrace`] to a retire-time cluster-assignment strategy
//!   (implemented in `ctcp-core`) before installation.
//!
//! Physical reordering never changes logical order: every line records the
//! logical position of each slot, and the simulator retires instructions
//! in logical order regardless of slot placement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fill;
mod profile;
mod trace;

pub use cache::{TraceCache, TraceCacheConfig, TraceCacheStats};
pub use fill::{FillUnit, FillUnitConfig, FillUnitStats, FinishedTraces, TraceHead};
pub use profile::{ChainRole, ExecFeedback, ProducerInfo, ProfileFields, TcLocation};
pub use trace::{PendingInst, RawTrace, TraceLine, TraceSlot, MAX_TRACE_LEN};
