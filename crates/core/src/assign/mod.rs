//! Dynamic cluster-assignment strategies (the paper's §2.3 and §4).
//!
//! Two families exist:
//!
//! * **Issue-time** steering is built into the engine
//!   ([`crate::engine::SteeringMode::IssueTime`]): instructions are sent to
//!   the cluster where one of their inputs is generated, at a configurable
//!   extra pipeline latency.
//! * **Retire-time** strategies run in the fill unit: they choose a
//!   *physical placement* of each trace's instructions into issue slots,
//!   so that slot-based steering delivers every instruction to the desired
//!   cluster with zero issue-time latency. This module implements the
//!   baseline (identity), Friendly et al.'s intra-trace reordering, and
//!   the proposed FDRT strategy.

mod baseline;
mod fdrt;
mod friendly;

pub use baseline::baseline_placement;
pub use fdrt::{ChainStore, FdrtAssigner, FdrtConfig, FdrtStats, MapChainStore};
pub(crate) use friendly::friendly_placement_partial;
pub use friendly::{friendly_placement, SlotFillOrder};

use crate::ClusterGeometry;
use ctcp_tracecache::{RawTrace, MAX_TRACE_LEN};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A trace's physical placement, `placement[logical] = slot`, held
/// inline (at most [`MAX_TRACE_LEN`] entries) so retire-time assignment
/// never touches the heap. Derefs to `[u8]`.
#[derive(Clone, Copy)]
pub struct Placement {
    len: u8,
    slots: [u8; MAX_TRACE_LEN],
}

impl Placement {
    /// `n` entries, all slot 0, for a strategy to overwrite.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_TRACE_LEN`].
    pub(crate) fn zeroed(n: usize) -> Self {
        Placement {
            len: u8::try_from(n).expect("trace longer than MAX_TRACE_LEN"),
            slots: [0; MAX_TRACE_LEN],
        }
    }
}

impl Deref for Placement {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.slots[..self.len as usize]
    }
}

impl DerefMut for Placement {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.slots[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Placement {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Placement {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Placement {}

impl PartialEq<Vec<u8>> for Placement {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A retire-time placement strategy: maps each logical instruction of a
/// trace to a physical issue slot.
#[derive(Debug)]
pub enum RetireTimeStrategy {
    /// Physical order = logical order (the base architecture).
    Baseline,
    /// Friendly et al.'s intra-trace dependency reordering.
    Friendly(SlotFillOrder),
    /// The proposed feedback-directed retire-time strategy.
    Fdrt(FdrtAssigner),
}

impl RetireTimeStrategy {
    /// Computes the placement for `trace` (`placement[logical] = slot`,
    /// an inline [`Placement`] that derefs to `[u8]`, so the per-trace
    /// call allocates nothing); FDRT additionally updates chain state
    /// through `store`.
    pub fn assign(
        &mut self,
        trace: &mut RawTrace,
        geom: &ClusterGeometry,
        store: &mut dyn ChainStore,
    ) -> Placement {
        match self {
            RetireTimeStrategy::Baseline => baseline_placement(trace.len()),
            RetireTimeStrategy::Friendly(order) => friendly_placement(trace, geom, *order),
            RetireTimeStrategy::Fdrt(a) => a.assign(trace, geom, store),
        }
    }

    /// FDRT statistics, if this is the FDRT strategy.
    pub fn fdrt_stats(&self) -> Option<&FdrtStats> {
        match self {
            RetireTimeStrategy::Fdrt(a) => Some(a.stats()),
            _ => None,
        }
    }
}
