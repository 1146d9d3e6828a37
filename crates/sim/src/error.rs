//! Structured simulation failures.
//!
//! A healthy simulation ends one of two ways: the instruction budget is
//! reached, or the program drains. Everything else used to be an
//! un-diagnosable hang — a steering or scheduling bug that stops
//! retirement would spin the cycle loop until the generic cycle cap
//! truncated the run into a silently-wrong report. [`SimError`] makes
//! those endings loud and typed: the retire-progress watchdog aborts a
//! wedged pipeline with [`SimError::Livelock`], and exhausting the
//! cycle budget aborts with [`SimError::CycleBudget`]; both carry a
//! [`PipelineDiagnostic`] naming the instruction the machine is stuck
//! behind. [`Simulation::try_run`](crate::Simulation::try_run) returns
//! these; the infallible [`run`](crate::Simulation::run) wrapper turns
//! them into panics for callers that treat any abort as a bug.

use ctcp_core::PipelineDiagnostic;
use std::fmt;

/// Why a simulation aborted instead of finishing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The retire-progress watchdog tripped: no instruction retired for
    /// the configured number of consecutive cycles while work was still
    /// pending — the pipeline is wedged and would never finish.
    Livelock {
        /// Cycles since the last retirement when the watchdog tripped.
        stalled_for: u64,
        /// Pipeline state at trip time.
        diagnostic: PipelineDiagnostic,
    },
    /// The run exceeded its total cycle budget with work still pending.
    /// Unlike [`SimError::Livelock`] the pipeline may be making (slow)
    /// progress; the budget bounds pathological-but-moving runs.
    CycleBudget {
        /// The exhausted cycle budget.
        budget: u64,
        /// The instruction budget the run was aiming for.
        max_insts: u64,
        /// Pipeline state when the budget ran out.
        diagnostic: PipelineDiagnostic,
    },
}

impl SimError {
    /// The pipeline snapshot taken when the run aborted.
    pub fn diagnostic(&self) -> &PipelineDiagnostic {
        match self {
            SimError::Livelock { diagnostic, .. } | SimError::CycleBudget { diagnostic, .. } => {
                diagnostic
            }
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Livelock {
                stalled_for,
                diagnostic,
            } => write!(
                f,
                "livelock: no retirement for {stalled_for} cycles ({diagnostic})"
            ),
            SimError::CycleBudget {
                budget,
                max_insts,
                diagnostic,
            } => write!(
                f,
                "cycle budget exceeded: {budget} cycles without retiring \
                 {max_insts} instructions ({diagnostic})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ctcp_core::PipelineDiagnostic;

    fn diag() -> PipelineDiagnostic {
        PipelineDiagnostic {
            cycle: 1_000,
            retired: 3,
            in_flight: 12,
            head_seq: Some(3),
            head_stage: Some("InRs".into()),
            head_cluster: Some(0),
            head_waits_on: None,
            clusters: vec![],
        }
    }

    #[test]
    fn livelock_names_the_stall_and_the_head() {
        let e = SimError::Livelock {
            stalled_for: 500,
            diagnostic: diag(),
        };
        let s = e.to_string();
        assert!(s.contains("no retirement for 500 cycles"), "{s}");
        assert!(s.contains("rob head seq 3"), "{s}");
        assert_eq!(e.diagnostic().cycle, 1_000);
    }

    #[test]
    fn cycle_budget_names_the_budget() {
        let e = SimError::CycleBudget {
            budget: 9_999,
            max_insts: 100,
            diagnostic: diag(),
        };
        let s = e.to_string();
        assert!(s.contains("9999 cycles"), "{s}");
        assert!(s.contains("100 instructions"), "{s}");
    }
}
