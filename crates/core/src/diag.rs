//! Pipeline-state diagnostics.
//!
//! When the retire-progress watchdog aborts a wedged simulation it
//! needs to say *where* the pipeline stopped, not just that it did. A
//! [`PipelineDiagnostic`] is a cheap, self-contained snapshot of the
//! engine taken at trip time: the head of the reorder buffer (the
//! instruction everything is stuck behind) and the resource it waits
//! on, total in-flight count, and per-cluster queue occupancy. It is plain data with a `Display`
//! rendering so error types can embed and print it without holding any
//! reference into the engine.

use std::fmt;

/// Queue occupancy of one execution cluster at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterOccupancy {
    /// Instructions steered to the cluster but not yet written into a
    /// reservation station.
    pub dispatch: usize,
    /// Residents across all five reservation stations.
    pub stations: usize,
}

/// The resource the head of the reorder buffer is waiting on, in the
/// order the pipeline claims them: a station (and, for a load, a
/// load-queue entry) to dispatch into, then its operands, then a
/// store-buffer entry (stores) and a functional unit to issue on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadWait {
    /// Dispatch: a free slot or write port in its reservation station.
    ReservationStation,
    /// Dispatch of a load: a free load-queue entry.
    LoadQueueEntry,
    /// Issue: a source operand that has not arrived.
    Operands,
    /// Issue of a store: a free store-buffer entry.
    StoreBufferEntry,
    /// Issue: a free functional unit of its type.
    FunctionalUnit,
}

impl fmt::Display for HeadWait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HeadWait::ReservationStation => "reservation station",
            HeadWait::LoadQueueEntry => "load-queue entry",
            HeadWait::Operands => "operands",
            HeadWait::StoreBufferEntry => "store-buffer entry",
            HeadWait::FunctionalUnit => "functional unit",
        })
    }
}

/// A point-in-time snapshot of the engine's macroscopic state, taken by
/// [`Engine::diagnostic`](crate::Engine::diagnostic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineDiagnostic {
    /// Cycle the snapshot was taken.
    pub cycle: u64,
    /// Instructions retired so far.
    pub retired: u64,
    /// In-flight instructions (reorder-buffer residents).
    pub in_flight: usize,
    /// Sequence number of the oldest in-flight instruction — the one
    /// the whole window is waiting on. `None` when the ROB is empty
    /// (the stall is in the front end, not the engine).
    pub head_seq: Option<u64>,
    /// `Debug` rendering of the head instruction's pipeline stage.
    pub head_stage: Option<String>,
    /// Cluster the head instruction was assigned to.
    pub head_cluster: Option<u8>,
    /// The resource the head instruction is waiting on. `None` when the
    /// ROB is empty or the head is still being steered, executing or
    /// complete.
    pub head_waits_on: Option<HeadWait>,
    /// Per-cluster queue occupancy, indexed by cluster id.
    pub clusters: Vec<ClusterOccupancy>,
}

impl fmt::Display for PipelineDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}, {} retired, {} in flight",
            self.cycle, self.retired, self.in_flight
        )?;
        match (self.head_seq, &self.head_stage, self.head_cluster) {
            (Some(seq), Some(stage), Some(cluster)) => {
                write!(f, "; rob head seq {seq} [{stage}] on cluster {cluster}")?;
                if let Some(wait) = self.head_waits_on {
                    write!(f, " blocked on {wait}")?;
                }
            }
            _ => write!(f, "; rob empty (front-end stall)")?,
        }
        write!(f, "; occupancy (dispatch+rs)")?;
        for (i, c) in self.clusters.iter().enumerate() {
            write!(f, " c{i}:{}+{}", c.dispatch, c.stations)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_head_and_occupancy() {
        let d = PipelineDiagnostic {
            cycle: 500,
            retired: 42,
            in_flight: 7,
            head_seq: Some(42),
            head_stage: Some("InRs".into()),
            head_cluster: Some(1),
            head_waits_on: Some(HeadWait::FunctionalUnit),
            clusters: vec![
                ClusterOccupancy {
                    dispatch: 2,
                    stations: 3,
                },
                ClusterOccupancy {
                    dispatch: 0,
                    stations: 2,
                },
            ],
        };
        let s = d.to_string();
        assert!(s.contains("cycle 500"), "{s}");
        assert!(
            s.contains("rob head seq 42 [InRs] on cluster 1 blocked on functional unit"),
            "{s}"
        );
        assert!(s.contains("c0:2+3 c1:0+2"), "{s}");
    }

    #[test]
    fn renders_empty_rob() {
        let d = PipelineDiagnostic {
            cycle: 9,
            retired: 0,
            in_flight: 0,
            head_seq: None,
            head_stage: None,
            head_cluster: None,
            head_waits_on: None,
            clusters: vec![],
        };
        assert!(d.to_string().contains("rob empty"), "{d}");
    }
}
