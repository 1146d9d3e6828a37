//! Typed counters and fixed-bucket histograms.
//!
//! The registry is deliberately closed: every counter and histogram the
//! pipeline can report is an enum variant, so probe call sites are
//! checked at compile time, lookups are array indexing (no hashing in
//! the hot loop), and exporters can enumerate everything without a
//! schema side-channel.

use crate::json::Value;

/// A named monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Simulated cycles elapsed.
    Cycles,
    /// Instructions retired.
    Retired,
    /// Fetch groups delivered to rename (trace cache or icache).
    FetchGroups,
    /// Instructions delivered from the trace cache.
    InstsFromTc,
    /// Instructions delivered from the instruction cache.
    InstsFromIcache,
    /// Traces constructed by the fill unit.
    TracesBuilt,
    /// Instructions packed into constructed traces.
    InstsInTraces,
    /// Conditional branches retired.
    CondBranches,
    /// Conditional branches mispredicted.
    CondMispredicts,
    /// Direction-predictor lookups (including trace-cache multi-branch
    /// lookups that never reach retire).
    PredictorLookups,
    /// Pipeline events recorded into the ring (post-sampling).
    EventsSampled,
    /// Pipeline events overwritten because the ring was full.
    EventsDropped,
    /// Instructions whose execution completed (scheduler completion
    /// events; equals the completion-wheel pops on the event path).
    SchedCompletions,
    /// Source operands resolved by a producer's completion (wakeup
    /// fan-out; one per `Waiting → Forwarded` transition).
    SchedWakeups,
    /// Retire-progress watchdog trips (a simulation aborted with
    /// `SimError::Livelock` instead of spinning forever).
    WatchdogTrips,
    /// Harness jobs whose final outcome was a failure (after retries).
    HarnessJobFailures,
    /// Harness job re-executions after a transient failure.
    HarnessRetries,
    /// Result-store lines quarantined as corrupt at load time.
    StoreQuarantined,
    /// Requests accepted by the sweep service (`ctcp serve`).
    ServeRequests,
    /// Service requests that had to queue behind a running batch.
    ServeQueued,
    /// Sweep cells the service answered from its warm shared cache.
    ServeCacheHits,
    /// Service requests rejected with 503 because the shared cell
    /// queue was at its admission limit.
    ServeRejected,
    /// Queued (not yet running) cells dropped because their request's
    /// client disconnected before they were scheduled.
    ServeCancelledCells,
    /// Journaled requests re-enqueued when the daemon restarted.
    ServeJournalReplayed,
    /// Scheduler workers respawned with a fresh arena after a panic.
    ServeWorkerRespawns,
    /// Cells refused as `CellPoisoned`: their key was quarantined
    /// after repeated panics.
    ServeCellsPoisoned,
    /// Client streams re-attached to a live or journaled request via
    /// a resume token.
    ServeResumedStreams,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 27] = [
        Counter::Cycles,
        Counter::Retired,
        Counter::FetchGroups,
        Counter::InstsFromTc,
        Counter::InstsFromIcache,
        Counter::TracesBuilt,
        Counter::InstsInTraces,
        Counter::CondBranches,
        Counter::CondMispredicts,
        Counter::PredictorLookups,
        Counter::EventsSampled,
        Counter::EventsDropped,
        Counter::SchedCompletions,
        Counter::SchedWakeups,
        Counter::WatchdogTrips,
        Counter::HarnessJobFailures,
        Counter::HarnessRetries,
        Counter::StoreQuarantined,
        Counter::ServeRequests,
        Counter::ServeQueued,
        Counter::ServeCacheHits,
        Counter::ServeRejected,
        Counter::ServeCancelledCells,
        Counter::ServeJournalReplayed,
        Counter::ServeWorkerRespawns,
        Counter::ServeCellsPoisoned,
        Counter::ServeResumedStreams,
    ];

    /// Number of distinct counters.
    pub const COUNT: usize = Counter::ALL.len();

    /// The stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Cycles => "cycles",
            Counter::Retired => "retired",
            Counter::FetchGroups => "fetch_groups",
            Counter::InstsFromTc => "insts_from_tc",
            Counter::InstsFromIcache => "insts_from_icache",
            Counter::TracesBuilt => "traces_built",
            Counter::InstsInTraces => "insts_in_traces",
            Counter::CondBranches => "cond_branches",
            Counter::CondMispredicts => "cond_mispredicts",
            Counter::PredictorLookups => "predictor_lookups",
            Counter::EventsSampled => "events_sampled",
            Counter::EventsDropped => "events_dropped",
            Counter::SchedCompletions => "sched_completions",
            Counter::SchedWakeups => "sched_wakeups",
            Counter::WatchdogTrips => "watchdog_trips",
            Counter::HarnessJobFailures => "harness_job_failures",
            Counter::HarnessRetries => "harness_retries",
            Counter::StoreQuarantined => "store_quarantined",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeQueued => "serve_queued",
            Counter::ServeCacheHits => "serve_cache_hits",
            Counter::ServeRejected => "serve_rejected",
            Counter::ServeCancelledCells => "serve_cancelled_cells",
            Counter::ServeJournalReplayed => "serve_journal_replayed",
            Counter::ServeWorkerRespawns => "serve_worker_respawns",
            Counter::ServeCellsPoisoned => "serve_cells_poisoned",
            Counter::ServeResumedStreams => "serve_resumed_streams",
        }
    }

    fn index(self) -> usize {
        // Variant order matches `ALL`, so the discriminant is the slot.
        self as usize
    }
}

/// A named fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Instructions issued per cluster per cycle (only cycles where the
    /// cluster issued at least one instruction are... no — every tick
    /// samples every cluster, so bucket 0 counts idle cluster-cycles).
    ClusterIssueOccupancy,
    /// Latency in cycles of a critical inter-cluster operand forward.
    ForwardLatency,
    /// Instructions per constructed trace-cache line.
    TraceSize,
    /// Fill-unit reorder distance: |physical slot - program order| for
    /// each instruction placed into a trace line.
    ReorderDistance,
    /// MSHRs in flight, sampled once per cycle.
    MshrOccupancy,
    /// Load-queue entries, sampled once per cycle.
    LoadQueueOccupancy,
    /// Reservation-station residents per cluster, sampled once per
    /// cluster per cycle (all five stations summed).
    RsOccupancy,
}

impl Hist {
    /// Every histogram, in export order.
    pub const ALL: [Hist; 7] = [
        Hist::ClusterIssueOccupancy,
        Hist::ForwardLatency,
        Hist::TraceSize,
        Hist::ReorderDistance,
        Hist::MshrOccupancy,
        Hist::LoadQueueOccupancy,
        Hist::RsOccupancy,
    ];

    /// Number of distinct histograms.
    pub const COUNT: usize = Hist::ALL.len();

    /// The stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Hist::ClusterIssueOccupancy => "cluster_issue_occupancy",
            Hist::ForwardLatency => "forward_latency",
            Hist::TraceSize => "trace_size",
            Hist::ReorderDistance => "reorder_distance",
            Hist::MshrOccupancy => "mshr_occupancy",
            Hist::LoadQueueOccupancy => "load_queue_occupancy",
            Hist::RsOccupancy => "rs_occupancy",
        }
    }

    fn index(self) -> usize {
        // Variant order matches `ALL`, so the discriminant is the slot.
        self as usize
    }
}

/// Bucket count shared by every histogram. Values are clamped into the
/// last bucket, so bucket `i < 32` holds exact value `i` and bucket 32
/// holds everything `>= 32`.
pub const HIST_BUCKETS: usize = 33;

/// A fixed-bucket histogram over small unsigned values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[i]` observations of value `i`; the last bucket clamps.
    pub counts: [u64; HIST_BUCKETS],
    /// Total observations.
    pub total: u64,
    /// Sum of the *unclamped* observed values (for exact means).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; HIST_BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let i = (value as usize).min(HIST_BUCKETS - 1);
        self.counts[i] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Mean of observed values, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `p`-th percentile bucket value (`p` in percent, e.g. 95.0):
    /// the smallest bucket whose cumulative count covers at least
    /// `p/100` of all observations. Returns 0 when empty; values
    /// clamped into the last bucket report `HIST_BUCKETS - 1`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return i as u64;
            }
        }
        (HIST_BUCKETS - 1) as u64
    }

    fn to_value(&self) -> Value {
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        Value::Obj(vec![
            ("total".into(), Value::u64(self.total)),
            ("sum".into(), Value::u64(self.sum)),
            ("p50".into(), Value::u64(self.percentile(50.0))),
            ("p95".into(), Value::u64(self.percentile(95.0))),
            ("p99".into(), Value::u64(self.percentile(99.0))),
            (
                "counts".into(),
                Value::Arr(self.counts[..last].iter().map(|&c| Value::u64(c)).collect()),
            ),
        ])
    }
}

/// The full registry: one slot per [`Counter`] and per [`Hist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    counters: [u64; Counter::COUNT],
    hists: [Histogram; Hist::COUNT],
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            counters: [0; Counter::COUNT],
            hists: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to counter `c`.
    pub fn add(&mut self, c: Counter, delta: u64) {
        self.counters[c.index()] += delta;
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Records one observation into histogram `h`.
    pub fn observe(&mut self, h: Hist, value: u64) {
        self.hists[h.index()].observe(value);
    }

    /// The histogram for `h`.
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h.index()]
    }

    /// Renders the registry as a JSON object with `counters` and
    /// `hists` sub-objects keyed by stable metric names.
    pub fn to_value(&self) -> Value {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Value::u64(self.get(c))))
            .collect();
        let hists = Hist::ALL
            .iter()
            .map(|&h| (h.name().to_string(), self.hist(h).to_value()))
            .collect();
        Value::Obj(vec![
            ("counters".into(), Value::Obj(counters)),
            ("hists".into(), Value::Obj(hists)),
        ])
    }
}

/// Renders one JSONL metrics record for a finished job: the envelope
/// identifies the workload and strategy, the payload is
/// [`Metrics::to_value`].
pub fn metrics_line(workload: &str, strategy: &str, metrics: &Metrics) -> String {
    Value::Obj(vec![
        ("workload".into(), Value::str(workload)),
        ("strategy".into(), Value::str(strategy)),
        ("metrics".into(), metrics.to_value()),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_clamps_into_last_bucket() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(3);
        h.observe(3);
        h.observe(500);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[3], 2);
        assert_eq!(h.counts[HIST_BUCKETS - 1], 1);
        assert_eq!(h.total, 4);
        assert_eq!(h.sum, 506);
        assert!((h.mean() - 126.5).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::default().mean(), 0.0);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(95.0), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn single_bucket_histogram_percentiles_are_that_bucket() {
        let mut h = Histogram::default();
        for _ in 0..7 {
            h.observe(5);
        }
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(95.0), 5);
        assert_eq!(h.percentile(99.0), 5);
    }

    #[test]
    fn saturated_histogram_percentiles_clamp_to_last_bucket() {
        let mut h = Histogram::default();
        for v in [100u64, 200, 5000] {
            h.observe(v);
        }
        let last = (HIST_BUCKETS - 1) as u64;
        assert_eq!(h.percentile(50.0), last);
        assert_eq!(h.percentile(99.0), last);
    }

    #[test]
    fn percentiles_split_a_mixed_distribution() {
        let mut h = Histogram::default();
        // 90 observations of 1, 9 of 10, 1 of 31.
        for _ in 0..90 {
            h.observe(1);
        }
        for _ in 0..9 {
            h.observe(10);
        }
        h.observe(31);
        assert_eq!(h.percentile(50.0), 1);
        assert_eq!(h.percentile(95.0), 10);
        assert_eq!(h.percentile(99.0), 10);
        assert_eq!(h.percentile(100.0), 31);
    }

    #[test]
    fn counters_accumulate_by_name() {
        let mut m = Metrics::new();
        m.add(Counter::Retired, 10);
        m.add(Counter::Retired, 5);
        m.add(Counter::Cycles, 7);
        assert_eq!(m.get(Counter::Retired), 15);
        assert_eq!(m.get(Counter::Cycles), 7);
        assert_eq!(m.get(Counter::TracesBuilt), 0);
    }

    #[test]
    fn export_is_valid_json_with_stable_names() {
        let mut m = Metrics::new();
        m.add(Counter::Retired, 42);
        m.observe(Hist::TraceSize, 12);
        let line = metrics_line("gzip", "fdrt", &m);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("gzip"));
        let counters = v.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("retired").unwrap().as_u64(), Some(42));
        let ts = v
            .get("metrics")
            .unwrap()
            .get("hists")
            .unwrap()
            .get("trace_size")
            .unwrap();
        assert_eq!(ts.get("total").unwrap().as_u64(), Some(1));
        assert_eq!(ts.get("sum").unwrap().as_u64(), Some(12));
        assert_eq!(ts.get("p50").unwrap().as_u64(), Some(12));
        assert_eq!(ts.get("p99").unwrap().as_u64(), Some(12));
        assert_eq!(ts.get("counts").unwrap().as_arr().unwrap().len(), 13);
    }

    #[test]
    fn all_order_matches_discriminants() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i, "{}", h.name());
        }
    }

    #[test]
    fn counter_and_hist_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        let mut names: Vec<&str> = Hist::ALL.iter().map(|h| h.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Hist::COUNT);
    }
}
