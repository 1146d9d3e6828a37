//! Per-cluster functional unit pool.

use ctcp_isa::FuType;

/// The functional units of one cluster (Figure 3): two ALUs and one each
/// of MEM, BR, CPX, FP, FP-CPX, FP-MEM. Tracks per-unit busy time so
/// non-pipelined operations (divide, sqrt) block their unit.
#[derive(Debug, Clone)]
pub(crate) struct FuPool {
    /// busy_until[fu_type] per instance: the cycle at which the unit can
    /// accept a new operation. Only the first [`unit_count`] slots of a
    /// type are real units.
    busy: [[u64; MAX_UNITS]; 7],
}

/// The most units of one type a cluster has (its two ALUs).
const MAX_UNITS: usize = 2;

/// Units of `fu` per cluster.
#[inline]
fn unit_count(fu: FuType) -> usize {
    match fu {
        FuType::Alu => 2,
        _ => 1,
    }
}

impl FuPool {
    /// Creates an idle pool with the paper's unit counts.
    pub(crate) fn new() -> Self {
        FuPool {
            busy: [[0; MAX_UNITS]; 7],
        }
    }

    /// Tries to claim a unit of `fu` at `now` for an operation with the
    /// given issue latency (initiation interval). Returns `true` if a
    /// unit was available.
    #[inline]
    pub(crate) fn try_claim(&mut self, fu: FuType, now: u64, issue_latency: u64) -> bool {
        let units = &mut self.busy[fu.index()][..unit_count(fu)];
        if let Some(u) = units.iter_mut().find(|u| **u <= now) {
            *u = now + issue_latency.max(1);
            true
        } else {
            false
        }
    }

    /// True if some unit of `fu` is free at `now` (no claim).
    #[inline]
    pub(crate) fn available(&self, fu: FuType, now: u64) -> bool {
        self.busy[fu.index()][..unit_count(fu)]
            .iter()
            .any(|&u| u <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_alus_one_of_everything_else() {
        let mut p = FuPool::new();
        assert!(p.try_claim(FuType::Alu, 0, 1));
        assert!(p.try_claim(FuType::Alu, 0, 1));
        assert!(!p.try_claim(FuType::Alu, 0, 1));
        assert!(p.try_claim(FuType::Cpx, 0, 1));
        assert!(!p.try_claim(FuType::Cpx, 0, 1));
    }

    #[test]
    fn pipelined_units_free_next_cycle() {
        let mut p = FuPool::new();
        assert!(p.try_claim(FuType::Mem, 0, 1));
        assert!(!p.available(FuType::Mem, 0));
        assert!(p.available(FuType::Mem, 1));
    }

    #[test]
    fn blocking_op_holds_the_unit() {
        let mut p = FuPool::new();
        assert!(p.try_claim(FuType::Cpx, 0, 19)); // integer divide
        assert!(!p.available(FuType::Cpx, 18));
        assert!(p.available(FuType::Cpx, 19));
    }
}
