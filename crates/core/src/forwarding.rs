//! Forwarding statistics: everything Tables 2, 3, 8 and Figure 4 need.

/// Tracks, per static instruction, the last observed forwarding producer
/// of each source register, to measure producer repetition (Table 3).
#[derive(Debug, Default)]
pub struct ProducerHistory {
    /// Indexed by the consumer's static instruction index; grown on
    /// demand up to the program's last consumer.
    last: Vec<[Option<u64>; 2]>,
    /// (same, total) per source, over all forwarded inputs.
    all: [(u64, u64); 2],
    /// (same, total) per source, over critical inter-trace inputs only.
    critical_inter: [(u64, u64); 2],
}

impl ProducerHistory {
    /// Records a forwarded input: the consumer with static instruction
    /// index `consumer` received source `src` (0 = RS1, 1 = RS2) from the
    /// producer at `producer_pc`.
    pub fn record(
        &mut self,
        consumer: u32,
        src: usize,
        producer_pc: u64,
        critical: bool,
        inter_trace: bool,
    ) {
        let i = consumer as usize;
        if i >= self.last.len() {
            self.last.resize(i + 1, [None; 2]);
        }
        let prev = self.last[i][src].replace(producer_pc);
        if let Some(prev) = prev {
            let same = prev == producer_pc;
            self.all[src].1 += 1;
            if same {
                self.all[src].0 += 1;
            }
            if critical && inter_trace {
                self.critical_inter[src].1 += 1;
                if same {
                    self.critical_inter[src].0 += 1;
                }
            }
        }
    }

    /// Fraction of forwarded inputs whose producer repeated, per source
    /// (Table 3 columns "All Input RS1/RS2").
    pub fn repeat_rate_all(&self, src: usize) -> f64 {
        ratio(self.all[src])
    }

    /// Fraction of *critical inter-trace* inputs whose producer repeated
    /// (Table 3 columns "Critical Inter-trace RS1/RS2").
    pub fn repeat_rate_critical_inter(&self, src: usize) -> f64 {
        ratio(self.critical_inter[src])
    }
}

fn ratio((num, den): (u64, u64)) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Aggregate forwarding statistics collected as instructions begin
/// execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct ForwardingStats {
    /// Retired instructions that had at least one register input.
    pub insts_with_inputs: u64,
    /// Critical input came from the register file (Figure 4 "From RF").
    pub crit_from_rf: u64,
    /// Critical input forwarded from the RS1 producer.
    pub crit_from_rs1: u64,
    /// Critical input forwarded from the RS2 producer.
    pub crit_from_rs2: u64,
    /// All source operands satisfied by data forwarding.
    pub forwarded_inputs: u64,
    /// Forwarded operands that were the critical (last-arriving) input.
    pub forwarded_critical: u64,
    /// Critical forwarded operands whose producer was in a different
    /// trace (Table 2, column 2).
    pub critical_inter_trace: u64,
    /// Critical forwarded operands satisfied within the same cluster
    /// (Table 8a).
    pub critical_intra_cluster: u64,
    /// Sum of cluster distances over critical forwarded operands
    /// (Table 8b numerator).
    pub critical_distance_sum: u64,
}

impl ForwardingStats {
    /// Fraction of forwarded dependencies that were critical (Table 2,
    /// column 1).
    pub fn critical_fraction(&self) -> f64 {
        ratio((self.forwarded_critical, self.forwarded_inputs))
    }

    /// Fraction of critical forwarded dependencies that were inter-trace
    /// (Table 2, column 2).
    pub fn inter_trace_fraction(&self) -> f64 {
        ratio((self.critical_inter_trace, self.forwarded_critical))
    }

    /// Fraction of critical forwarded dependencies satisfied
    /// intra-cluster (Table 8a).
    pub fn intra_cluster_fraction(&self) -> f64 {
        ratio((self.critical_intra_cluster, self.forwarded_critical))
    }

    /// Mean cluster distance of critical forwarded data (Table 8b).
    pub fn mean_distance(&self) -> f64 {
        if self.forwarded_critical == 0 {
            0.0
        } else {
            self.critical_distance_sum as f64 / self.forwarded_critical as f64
        }
    }

    /// Critical-input source distribution `(rf, rs1, rs2)` as fractions of
    /// instructions with inputs (Figure 4).
    pub fn critical_source_distribution(&self) -> (f64, f64, f64) {
        let n = self.insts_with_inputs;
        if n == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.crit_from_rf as f64 / n as f64,
            self.crit_from_rs1 as f64 / n as f64,
            self.crit_from_rs2 as f64 / n as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn producer_history_counts_repeats() {
        let mut h = ProducerHistory::default();
        // First observation establishes history, no sample.
        h.record(0x100, 0, 0x50, true, true);
        assert_eq!(h.repeat_rate_all(0), 0.0);
        // Repeat.
        h.record(0x100, 0, 0x50, true, true);
        // Change.
        h.record(0x100, 0, 0x60, true, true);
        assert_eq!(h.repeat_rate_all(0), 0.5);
        assert_eq!(h.repeat_rate_critical_inter(0), 0.5);
        // Non-critical sample doesn't move the critical counters.
        h.record(0x100, 0, 0x60, false, true);
        assert_eq!(h.repeat_rate_critical_inter(0), 0.5);
        assert!(h.repeat_rate_all(0) > 0.5);
    }

    #[test]
    fn sources_tracked_independently() {
        let mut h = ProducerHistory::default();
        h.record(0x100, 0, 0x50, true, false);
        h.record(0x100, 1, 0x54, true, false);
        h.record(0x100, 0, 0x50, true, false);
        assert_eq!(h.repeat_rate_all(0), 1.0);
        assert_eq!(h.repeat_rate_all(1), 0.0); // only one sample -> no pair yet
    }

    #[test]
    fn consumers_keep_separate_histories() {
        let mut h = ProducerHistory::default();
        // Interleaved consumers with different producers: each repeats
        // its own producer, so every sample after the first per consumer
        // is a repeat.
        for _ in 0..2 {
            h.record(7, 0, 0x50, false, false);
            h.record(0, 0, 0x60, false, false);
        }
        assert_eq!(h.repeat_rate_all(0), 1.0);
        assert_eq!(h.last.len(), 8, "table sized to the last consumer");
    }

    #[test]
    fn stats_fractions() {
        let s = ForwardingStats {
            insts_with_inputs: 10,
            crit_from_rf: 4,
            crit_from_rs1: 3,
            crit_from_rs2: 3,
            forwarded_inputs: 12,
            forwarded_critical: 6,
            critical_inter_trace: 2,
            critical_intra_cluster: 3,
            critical_distance_sum: 9,
        };
        assert_eq!(s.critical_fraction(), 0.5);
        assert!((s.inter_trace_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.intra_cluster_fraction(), 0.5);
        assert_eq!(s.mean_distance(), 1.5);
        let (rf, r1, r2) = s.critical_source_distribution();
        assert_eq!((rf, r1, r2), (0.4, 0.3, 0.3));
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = ForwardingStats::default();
        assert_eq!(s.critical_fraction(), 0.0);
        assert_eq!(s.mean_distance(), 0.0);
        assert_eq!(s.critical_source_distribution(), (0.0, 0.0, 0.0));
    }
}
