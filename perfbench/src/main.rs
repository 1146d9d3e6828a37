//! `ctcp-perfbench`: end-to-end and per-layer benchmark of the CTCP
//! simulator, its sweep harness and its sweep daemon.
//!
//! ```text
//! ctcp-perfbench --workload cold-long|warm-grid|serve-mixed --seed N \
//!     --seconds S --trace 0|1 [--ctcp PATH] [--digests FILE] [--write-digests]
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` alternates
//! untraced and traced stretches of the timed phase, runs the per-layer
//! replay probes, writes the spans as Chrome-trace JSON and prints every
//! per-layer metric. The last stdout line is always one JSON object
//! `{"correct","attempted","failed","metrics"}`; see `README.md` in this
//! directory for the workloads and the metric map.

mod calib;
mod client;
mod library;
mod replay;
mod serve;
mod spans;
mod stats;

use ctcp_telemetry::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed every committed digest was recorded with.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while the benchmark was written, kept back so a
/// later performance claim can be confirmed on unseen inputs.
pub const HELD_OUT_SEED: u64 = 2718;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `ctcp` binary the serve workloads start as a daemon.
    pub ctcp: PathBuf,
    /// Scratch and output directory (`perfbench/out`).
    pub out: PathBuf,
    /// Golden per-cell digests of the default seed.
    pub digests: PathBuf,
    /// Rewrite the digest file from this run instead of checking it.
    pub write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        ctcp: PathBuf::from(".bench_build/release/ctcp"),
        out: PathBuf::from("perfbench/out"),
        digests: PathBuf::from("perfbench/digests.json"),
        write_digests: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--write-digests" {
            a.write_digests = true;
            i += 1;
            continue;
        }
        let v = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad {flag} value {v:?}"))
        };
        match flag {
            "--workload" => a.workload = v,
            "--seed" => a.seed = num(&v)?,
            "--seconds" => a.seconds = num(&v)? as f64,
            "--trace" => a.trace = num(&v)? != 0,
            "--ctcp" => a.ctcp = PathBuf::from(v),
            "--digests" => a.digests = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if a.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (rounds, windows, requests, calls).
    pub samples: usize,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Operations attempted and failed, counted across every check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted: cells, requests and output checks.
    pub attempted: u64,
    /// Failed cells, refused or failed requests and failed checks.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one workload run produced.
pub struct RunOutput {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Every operation and check.
    pub tally: Tally,
    /// Workload-specific facts for the run record.
    pub record: Vec<(String, Value)>,
    /// Human-readable diagnostics (mismatches), printed before the
    /// metrics.
    pub problems: Vec<String>,
}

/// End-to-end samples of one timed phase. Every workload reports the
/// same metrics; see `README.md` for what a request, a hit and a miss
/// are on each.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Set-up times, one per repetition.
    pub setup_s: Vec<f64>,
    /// Simulated M inst/s, one per round or window.
    pub sim_minsts_per_s: Vec<f64>,
    /// Simulated cells/s, one per round or window.
    pub cells_per_s: Vec<f64>,
    /// Completed requests/s, one per round or window.
    pub requests_per_s: Vec<f64>,
    /// Latency of each fully memoized request.
    pub hit_ms: Vec<f64>,
    /// Latency of each request (or cell) that had to simulate.
    pub miss_ms: Vec<f64>,
    /// Peak resident memory of the process under test.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The end-to-end metrics, each with its sample count.
    pub fn metrics(&self) -> Vec<Metric> {
        use stats::{median, percentile};
        vec![
            Metric::new("setup_s", median(&self.setup_s), "s", self.setup_s.len()),
            Metric::new(
                "sim_minsts_per_s",
                median(&self.sim_minsts_per_s),
                "Minst/s",
                self.sim_minsts_per_s.len(),
            ),
            Metric::new(
                "cells_per_s",
                median(&self.cells_per_s),
                "1/s",
                self.cells_per_s.len(),
            ),
            Metric::new(
                "requests_per_s",
                median(&self.requests_per_s),
                "1/s",
                self.requests_per_s.len(),
            ),
            Metric::new(
                "hit_latency_p50_ms",
                median(&self.hit_ms),
                "ms",
                self.hit_ms.len(),
            ),
            Metric::new(
                "hit_latency_p99_ms",
                percentile(&self.hit_ms, 99.0),
                "ms",
                self.hit_ms.len(),
            ),
            Metric::new(
                "miss_latency_p50_ms",
                median(&self.miss_ms),
                "ms",
                self.miss_ms.len(),
            ),
            Metric::new(
                "miss_latency_p90_ms",
                percentile(&self.miss_ms, 90.0),
                "ms",
                self.miss_ms.len(),
            ),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB", 1),
        ]
    }

    /// Traced minus untraced, per timed-phase metric: the cost of the
    /// benchmark's own spans.
    pub fn overhead(traced: &EndToEnd, untraced: &EndToEnd) -> Vec<Metric> {
        let t = traced.metrics();
        let u = untraced.metrics();
        t.iter()
            .zip(&u)
            .filter(|(m, _)| m.name != "setup_s" && m.name != "peak_rss_mb")
            .map(|(t, u)| {
                Metric::new(
                    format!("trace.overhead.{}", t.name),
                    t.value - u.value,
                    t.unit,
                    t.samples.min(u.samples),
                )
            })
            .collect()
    }
}

/// Peak resident set of process `pid` (`"self"` for this one), in MB,
/// from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("cannot create {:?}: {e}", args.out))?;
    match args.workload.as_str() {
        "cold-long" | "warm-grid" => library::run(args),
        "serve-mixed" => serve::run(args),
        other => Err(format!(
            "unknown workload {other:?} (cold-long, warm-grid, serve-mixed)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ctcp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ctcp-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    // After the run, whose peak memory the calibration's table must not
    // raise.
    let calibration = calib::calibrate();
    for p in &out.problems {
        println!("check failed: {p}");
    }
    for m in &out.metrics {
        println!(
            "metric {:<40} {:>14.6} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let error_rate = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ({} failed of {} attempted)",
        out.tally.failed, out.tally.attempted
    );

    let mut record = vec![
        ("workload".into(), Value::str(&args.workload)),
        ("seed".into(), Value::u64(args.seed)),
        ("default_seed".into(), Value::u64(DEFAULT_SEED)),
        ("held_out_seed".into(), Value::u64(HELD_OUT_SEED)),
        ("seconds".into(), Value::f64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        (
            "available_parallelism".into(),
            Value::u64(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        (
            "calibration".into(),
            Value::Obj(vec![
                ("hash_ms".into(), Value::f64(calibration.hash_ms)),
                ("chase_ms".into(), Value::f64(calibration.chase_ms)),
                ("total_ms".into(), Value::f64(calibration.total_ms())),
            ]),
        ),
        (
            "samples".into(),
            Value::Obj(
                out.metrics
                    .iter()
                    .map(|m| (m.name.clone(), Value::u64(m.samples as u64)))
                    .collect(),
            ),
        ),
        ("error_rate".into(), Value::f64(error_rate)),
        ("modelled_caches_start_empty".into(), Value::Bool(true)),
        (
            "model_validation".into(),
            Value::str("unvalidated against hardware; no error figure is given"),
        ),
    ];
    record.extend(out.record);
    let record = Value::Obj(record).render();
    println!("record {record}");
    let log = args.out.join("runs.jsonl");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
    {
        use std::io::Write;
        let _ = writeln!(f, "{record}");
    }

    let correct = out.tally.failed == 0;
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::u64(out.tally.attempted)),
        ("failed".into(), Value::u64(out.tally.failed)),
        (
            "metrics".into(),
            Value::Obj(
                out.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Value::Obj(vec![
                                ("value".into(), Value::f64(m.value)),
                                ("unit".into(), Value::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
