//! `serve-mixed`: a closed loop of two client connections with zero
//! think time against one `ctcp serve` daemon, plus the serve probe the
//! library workloads' traced runs use.
//!
//! Each client deals its requests from a seeded deck of three kinds: a
//! fully memoized sweep from the hit set seeded during set-up (store
//! read path on the connection thread), a fresh sweep whose key is
//! unique per request (admission, journal, scheduler, simulation, store
//! append, stream), or an `analyze` request (the attribution probe,
//! never memoized). Throughputs are per two-second window, reported as
//! the median over windows.
//!
//! The 3:1 ratio of memoized to simulating requests is the old
//! `BENCH_serve` gate's (three memoized grids beside one big sweep), and
//! a sweep is 4 cells, the request the benchmark's specification sized.
//! The rest is assumed, for the reasons `README.md` gives: 10k timed
//! instructions per cell, and one `analyze` in every five simulating
//! requests.

use crate::client::{exchange, Exchange};
use crate::library::scratch_dir;
use crate::replay::{self, sweep_body_for, CellSpec};
use crate::spans::Tracer;
use crate::stats::{mean, median, mix};
use crate::{peak_rss_mb, Args, EndToEnd, Metric, RunOutput, Tally};
use ctcp_harness::SweepSpec;
use ctcp_isa::Program;
use ctcp_sim::{SimReport, Simulation, Strategy, Topology};
use ctcp_telemetry::json::Value;
use ctcp_workload::{Benchmark, Pcg32};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The presets requests draw from (the daemon only knows presets).
const BENCHES: [&str; 6] = ["bzip2", "eon", "gzip", "perlbmk", "twolf", "vpr"];
/// Client connections.
const CLIENTS: usize = 2;
/// Daemon pool workers (`--jobs`): the two cores the load is sized for.
const DAEMON_JOBS: usize = 2;
/// Timed budget of every request's cells (hit set, fresh sweeps,
/// analyses). At the specification's 50k, two workers ran each cell
/// for about 50 ms without a pause and a memoized request waited on the
/// scheduler (medians 1.6 to 2.9 ms across seeds, 0.65 ms at 10k).
const REQ_INSTS: u64 = 10_000;
/// Functional warmup of every sweep's cells: past the presets' start-up
/// code, whose first 10k instructions have no conditional mispredict.
/// The `analyze` body has no warmup field.
const WARMUP: u64 = 50_000;
/// One client's deck: memoized sweeps, fresh sweeps and analyses per
/// cycle, dealt in a seeded order and reshuffled each cycle, so every
/// stretch of the loop carries the same shares.
const DECK: [(Kind, usize); 3] = [(Kind::Hit, 15), (Kind::Fresh, 4), (Kind::Analyze, 1)];
/// Fresh sweeps and analyses re-run directly per run.
const FRESH_CHECKS: usize = 8;
const ANALYZE_CHECKS: usize = 4;
/// Daemon traces fetched after the traced phase.
const TRACE_FETCHES: usize = 80;
/// Set-up repetitions per run (each starts a daemon and seeds the hit
/// set); `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Seconds of the timed phase per throughput window.
const WINDOW_S: f64 = 2.0;
/// A traced run alternates untraced and traced slots of this length, so
/// both see the same host drift and the same daemon state.
const SLOT_S: f64 = 1.0;
/// Interval between `/metrics` polls in a traced phase.
const POLL_EVERY: Duration = Duration::from_millis(250);
/// The same for the serve probe, whose requests are short.
const PROBE_POLL_EVERY: Duration = Duration::from_millis(10);

/// A running `ctcp serve` daemon.
pub struct Daemon {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon over a fresh store in `dir` and waits until it
    /// listens.
    pub fn start(ctcp: &Path, dir: &Path, jobs: usize) -> Result<Daemon, String> {
        let mut child = Command::new(ctcp)
            .args(["serve", "--addr", "127.0.0.1:0", "--log-level", "off"])
            .args(["--jobs", &jobs.to_string(), "--dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {ctcp:?}: {e}"))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped"));
        let (tx, rx) = std::sync::mpsc::channel();
        // Reports the listening address, then keeps reading stdout so
        // the daemon never writes into a closed pipe.
        let drain = std::thread::spawn(move || {
            let mut line = String::new();
            while out.read_line(&mut line).unwrap_or(0) > 0 {
                if let Some((_, a)) = line.trim().split_once("listening on ") {
                    let _ = tx.send(a.to_string());
                    break;
                }
                line.clear();
            }
            let _ = out.read_to_end(&mut Vec::new());
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            Err(_) => Err("daemon never reported a listening address".into()),
        }
    }

    /// The daemon's peak resident memory so far.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Drains and stops the daemon, killing it if it does not exit.
    pub fn stop(mut self) {
        let _ = exchange(&self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.reap();
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Fresh,
    Analyze,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Fresh => "fresh",
            Kind::Analyze => "analyze",
        }
    }
}

/// One request a client sends.
#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    bench: &'static str,
    strategies: Vec<Strategy>,
    clusters: u8,
    insts: u64,
    warmup: u64,
    top: u64,
}

/// Hop latency every analysis body names (the CLI's `--hop`).
const HOP: u64 = 1;

impl Req {
    fn spec(&self) -> CellSpec {
        CellSpec {
            strategies: self.strategies.clone(),
            clusters: self.clusters,
            topology: Topology::Linear,
            insts: self.insts,
            warmup: self.warmup,
            jobs: DAEMON_JOBS,
            cells_per_program: self.jobs(),
        }
    }

    fn path(&self) -> &'static str {
        if self.kind == Kind::Analyze {
            "/analyze"
        } else {
            "/sweep"
        }
    }

    fn body(&self) -> String {
        if self.kind != Kind::Analyze {
            return sweep_body_for(self.bench, &self.spec(), self.insts).render();
        }
        Value::Obj(vec![
            ("bench".into(), Value::str(self.bench)),
            (
                "strategies".into(),
                Value::Arr(vec![Value::str("base"), Value::str("fdrt")]),
            ),
            ("insts".into(), Value::u64(self.insts)),
            ("clusters".into(), Value::u64(self.clusters.into())),
            ("topology".into(), Value::str("linear")),
            ("hop".into(), Value::u64(HOP)),
            ("top".into(), Value::u64(self.top)),
            ("json".into(), Value::Bool(false)),
            ("csv".into(), Value::Bool(false)),
        ])
        .render()
    }

    /// Cells the daemon runs for this request.
    fn jobs(&self) -> usize {
        match self.kind {
            Kind::Analyze => 2,
            _ => 1 + self.strategies.len(),
        }
    }
}

/// Strategies of every sweep request besides the baseline: 4 cells.
fn sweep_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Friendly { middle_bias: false },
        Strategy::Fdrt { pinning: true },
        Strategy::Fdrt { pinning: false },
    ]
}

fn hit_set(seed: u64) -> Vec<Req> {
    BENCHES
        .iter()
        .map(|&bench| Req {
            kind: Kind::Hit,
            bench,
            strategies: sweep_strategies(),
            clusters: 4,
            insts: REQ_INSTS + mix(seed) % 256,
            warmup: WARMUP,
            top: 0,
        })
        .collect()
}

/// Cards dealt in a seeded order, reshuffled whenever they run out.
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut Pcg32) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.index(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// One completed (or failed) exchange.
#[derive(Debug, Clone)]
struct Sample {
    req: Req,
    ex: Option<Exchange>,
    /// Completion, seconds since the phase started.
    end_s: f64,
    /// Sent in a traced slot.
    traced: bool,
}

/// What one timed phase of the closed loop recorded.
#[derive(Default)]
struct Loop {
    samples: Vec<Sample>,
    /// Queue depth from `/metrics`.
    polls: Vec<f64>,
}

fn poll_metrics(addr: &str) -> Option<f64> {
    let ex = exchange(addr, "GET", "/metrics", "").ok()?;
    let gauge = |name: &str| {
        ex.body.lines().find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.trim().parse::<f64>().ok()).flatten()
        })
    };
    gauge("ctcp_queue_depth")
}

/// The daemon's queue depth, polled every `every` from a connection of
/// its own until `stop` is set.
fn poll_queue_depth(addr: &str, every: Duration, stop: &AtomicBool) -> Vec<f64> {
    let mut polls = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        polls.extend(poll_metrics(addr));
        std::thread::sleep(every);
    }
    polls
}

/// Records the client-side phases of one exchange as nested spans.
fn record_exchange(tracer: &Tracer, lane: u64, start_us: f64, kind: &str, ex: &Exchange) {
    if !tracer.on() {
        return;
    }
    let at = |ms: f64| start_us + ms * 1e3;
    let end = at(ex.total_ms);
    tracer.record(format!("request {kind}"), lane, start_us, end);
    tracer.record("serve.connect", lane, start_us, start_us + ex.connect_us);
    if let Some(acc) = ex.accepted_ms {
        tracer.record("serve.admit", lane, start_us + ex.connect_us, at(acc));
        let first = ex.first_progress_ms.unwrap_or(ex.total_ms);
        tracer.record("serve.first_cell", lane, at(acc), at(first));
        tracer.record("serve.stream", lane, at(first), end);
    }
}

/// Whether a request sent `at_s` into a traced phase falls in a traced
/// slot: the odd ones.
fn in_traced_slot(at_s: f64) -> bool {
    (at_s / SLOT_S) as u64 % 2 == 1
}

/// Runs the closed loop for `seconds` with `CLIENTS` connections. With
/// the tracer on, requests sent in odd slots are traced and a separate
/// connection polls `/metrics`.
fn closed_loop(daemon: &Daemon, seed: u64, hits: &[Req], seconds: f64, tracer: &Tracer) -> Loop {
    let addr = daemon.addr.as_str();
    let stop = &AtomicBool::new(false);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (samples, polls) = std::thread::scope(|scope| {
        let poller = tracer
            .on()
            .then(|| scope.spawn(move || poll_queue_depth(addr, POLL_EVERY, stop)));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = Pcg32::seed_from_u64(mix(seed ^ c as u64));
                    let mut kinds = Deck::new(
                        DECK.iter()
                            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                            .collect(),
                    );
                    let mut hit_deck = Deck::new((0..hits.len()).collect());
                    let mut benches = Deck::new(BENCHES.to_vec());
                    let mut samples = Vec::new();
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let req = match kinds.deal(&mut rng) {
                            Kind::Hit => hits[hit_deck.deal(&mut rng)].clone(),
                            // Keys stay unique per request: client c owns
                            // the warmups above WARMUP congruent to
                            // WARMUP + c + 1 modulo CLIENTS.
                            Kind::Fresh => Req {
                                kind: Kind::Fresh,
                                bench: benches.deal(&mut rng),
                                strategies: sweep_strategies(),
                                clusters: 4,
                                insts: REQ_INSTS,
                                warmup: WARMUP + i * CLIENTS as u64 + c as u64 + 1,
                                top: 0,
                            },
                            Kind::Analyze => Req {
                                kind: Kind::Analyze,
                                bench: benches.deal(&mut rng),
                                strategies: vec![
                                    Strategy::Baseline,
                                    Strategy::Fdrt { pinning: true },
                                ],
                                clusters: 4,
                                insts: REQ_INSTS,
                                warmup: 0,
                                top: 8 + c as u64,
                            },
                        };
                        let traced = tracer.on() && in_traced_slot(t0.elapsed().as_secs_f64());
                        let start_us = tracer.now_us();
                        let ex = exchange(addr, "POST", req.path(), &req.body()).ok();
                        if let (true, Some(ex)) = (traced, &ex) {
                            record_exchange(tracer, c as u64 + 1, start_us, req.kind.name(), ex);
                        }
                        samples.push(Sample {
                            req,
                            ex,
                            end_s: t0.elapsed().as_secs_f64(),
                            traced,
                        });
                        i += 1;
                    }
                    samples
                })
            })
            .collect();
        let samples: Vec<Sample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        let polls = poller.map_or_else(Vec::new, |p| p.join().expect("poller thread"));
        (samples, polls)
    });
    let mut all = Loop { samples, polls };
    all.samples.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    all
}

fn result_u64(ex: &Exchange, key: &str) -> Option<u64> {
    ex.result.as_ref()?.get(key)?.as_u64()
}

fn output(ex: &Exchange) -> Option<&str> {
    ex.result.as_ref()?.get("output")?.as_str()
}

/// Structural checks every response gets: a streamed 200, exit code 0,
/// every cell memoized (hits) or simulated (fresh sweeps), one CSV row
/// per requested cell.
fn structurally_ok(s: &Sample) -> bool {
    let Some(ex) = &s.ex else { return false };
    if ex.status != 200 || result_u64(ex, "exit_code") != Some(0) {
        return false;
    }
    let jobs = s.req.jobs() as u64;
    let (hits, simulated) = (result_u64(ex, "cache_hits"), result_u64(ex, "simulated"));
    let rows = output(ex).map_or(0, |o| o.lines().count().saturating_sub(1));
    match s.req.kind {
        Kind::Hit => hits == Some(jobs) && simulated == Some(0) && rows == s.req.strategies.len(),
        Kind::Fresh => hits == Some(0) && simulated == Some(jobs) && rows == s.req.strategies.len(),
        Kind::Analyze => simulated == Some(jobs) && output(ex).is_some_and(|o| !o.is_empty()),
    }
}

/// Consecutive windows of `len` seconds covering `seconds` (at least one).
fn even_windows(seconds: f64, len: f64) -> Vec<(f64, f64)> {
    let n = ((seconds / len).floor() as usize).max(1);
    let len = seconds / n as f64;
    (0..n)
        .map(|k| (k as f64 * len, (k + 1) as f64 * len))
        .collect()
}

/// Latencies of the requests sent traced (or not); throughputs per
/// window, each the work completed in it after its first completion
/// over the time from that completion to its last.
fn end_to_end(l: &Loop, windows: &[(f64, f64)], traced: bool) -> EndToEnd {
    let mut e = EndToEnd::default();
    for s in l.samples.iter().filter(|s| s.traced == traced) {
        let Some(ex) = &s.ex else { continue };
        match s.req.kind {
            Kind::Hit => e.hit_ms.push(ex.total_ms),
            _ => e.miss_ms.push(ex.total_ms),
        }
    }
    for &(from, to) in windows {
        // Samples are sorted by completion.
        let done: Vec<(f64, f64, u64)> = l
            .samples
            .iter()
            .filter(|s| s.end_s >= from && s.end_s < to)
            .filter_map(|s| {
                let simulated = result_u64(s.ex.as_ref()?, "simulated").unwrap_or(0);
                Some((s.end_s, simulated as f64, s.req.insts))
            })
            .collect();
        let (Some(first), Some(last)) = (done.first(), done.last()) else {
            continue;
        };
        let span = last.0 - first.0;
        if span <= 0.0 {
            continue;
        }
        let after = &done[1..];
        e.requests_per_s.push(after.len() as f64 / span);
        e.cells_per_s
            .push(after.iter().map(|d| d.1).sum::<f64>() / span);
        e.sim_minsts_per_s
            .push(after.iter().map(|d| d.1 * d.2 as f64).sum::<f64>() / span / 1e6);
    }
    e
}

/// A daemon span from `GET /trace/<token>`.
struct DSpan {
    name: String,
    ts: f64,
    dur: f64,
}

fn fetch_trace(addr: &str, token: &str) -> Option<Vec<DSpan>> {
    let ex = exchange(addr, "GET", &format!("/trace/{token}"), "").ok()?;
    if ex.status != 200 {
        return None;
    }
    let v = Value::parse(&ex.body).ok()?;
    Some(
        v.as_arr()?
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .filter_map(|e| {
                Some(DSpan {
                    name: e.get("name")?.as_str()?.to_string(),
                    ts: e.get("ts")?.as_f64()?,
                    dur: e.get("dur")?.as_f64()?,
                })
            })
            .collect(),
    )
}

/// Length of the union of `intervals` clipped to `[from, to]`.
fn covered(mut intervals: Vec<(f64, f64)>, from: f64, to: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, from);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(to));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self times of one request's daemon spans, in ms: the `run` envelope
/// opened at admission (charged to `admit`: the instant admit marker has
/// no duration), `queued`, every `cell` and the `stream`.
fn request_self_times(spans: &[DSpan]) -> Option<[f64; 4]> {
    let admit = spans.iter().find(|s| s.name == "admit")?;
    let run = spans.iter().find(|s| s.name.starts_with("run "))?;
    let queued = spans.iter().find(|s| s.name == "queued");
    let cells: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.name.starts_with("cell "))
        .map(|s| (s.ts, s.ts + s.dur))
        .collect();
    let streams: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.name == "stream")
        .map(|s| (s.ts, s.ts + s.dur))
        .collect();
    // The exporter serialises one lane, so the envelope's true start is
    // the admit marker's (the first span on the service lane).
    let (start, end) = (admit.ts, admit.ts + run.dur);
    let q = queued.map_or(0.0, |q| q.dur);
    let mut children: Vec<(f64, f64)> = cells.clone();
    children.extend(&streams);
    children.push((start, start + q));
    let run_self = run.dur - covered(children, start, end);
    let cell_self: f64 = cells.iter().map(|(s, e)| e - s).sum();
    let stream_self: f64 = streams
        .iter()
        .map(|&(s, e)| (e - s) - covered(cells.clone(), s, e))
        .sum();
    Some([run_self / 1e3, q / 1e3, cell_self / 1e3, stream_self / 1e3])
}

/// The serve-layer metrics from client timings, daemon traces and
/// `/metrics` polls. Worker busy time is the summed cell time the
/// daemon streamed back (`took_s`) over `jobs` workers for `wall_s`.
fn serve_layer_metrics(
    samples: &[Sample],
    traces: &[Vec<DSpan>],
    polls: &[f64],
    jobs: usize,
    wall_s: f64,
) -> Vec<Metric> {
    let ex: Vec<&Exchange> = samples.iter().filter_map(|s| s.ex.as_ref()).collect();
    let pick = |f: &dyn Fn(&Exchange) -> Option<f64>| -> Vec<f64> {
        ex.iter().filter_map(|e| f(e)).collect()
    };
    let connect = pick(&|e| Some(e.connect_us));
    let admit = pick(&|e| e.accepted_ms);
    let first = pick(&|e| Some(e.first_progress_ms? - e.accepted_ms?));
    let tail = pick(&|e| Some(e.total_ms - e.last_progress_ms?));
    let selfs: Vec<[f64; 4]> = traces
        .iter()
        .filter_map(|t| request_self_times(t))
        .collect();
    let col = |i: usize| -> Vec<f64> { selfs.iter().map(|s| s[i]).collect() };
    vec![
        Metric::new("serve.connect_us", median(&connect), "us", connect.len()),
        Metric::new("serve.admit_ms", median(&admit), "ms", admit.len()),
        Metric::new("serve.first_cell_ms", median(&first), "ms", first.len()),
        Metric::new("serve.stream_tail_ms", median(&tail), "ms", tail.len()),
        Metric::new("serve.span.admit_ms", mean(&col(0)), "ms", selfs.len()),
        Metric::new("serve.span.queued_ms", mean(&col(1)), "ms", selfs.len()),
        Metric::new("serve.span.cell_ms", mean(&col(2)), "ms", selfs.len()),
        Metric::new("serve.span.stream_ms", mean(&col(3)), "ms", selfs.len()),
        Metric::new(
            "serve.queue_depth_max",
            polls.iter().copied().fold(0.0, f64::max),
            "count",
            polls.len(),
        ),
        Metric::new(
            "serve.worker_busy_frac",
            ex.iter().map(|e| e.cells_busy_s).sum::<f64>() / (jobs as f64 * wall_s),
            "ratio",
            ex.len(),
        ),
    ]
}

/// Daemon spans of an even sample of the fresh sweeps. The daemon keys
/// spans by body token, and only fresh sweeps have a body (so a token)
/// of their own: hit and analysis bodies repeat.
fn fetch_traces(addr: &str, samples: &[Sample]) -> Vec<Vec<DSpan>> {
    let tokens: Vec<&str> = samples
        .iter()
        .filter(|s| s.req.kind == Kind::Fresh)
        .filter_map(|s| s.ex.as_ref()?.token.as_deref())
        .collect();
    let step = (tokens.len() / TRACE_FETCHES).max(1);
    tokens
        .iter()
        .step_by(step)
        .filter_map(|t| fetch_trace(addr, t))
        .collect()
}

/// The CSV a sweep request must answer, from direct simulation of each
/// cell outside the harness and the daemon.
fn expected_csv(req: &Req, program: &Program) -> Result<(String, Vec<SimReport>), String> {
    let plan = SweepSpec {
        benches: vec![req.bench.to_string()],
        strategies: req.strategies.clone(),
        clusters: vec![req.clusters],
        topologies: vec![Topology::Linear],
        insts: req.insts,
        warmup: req.warmup,
    }
    .expand()
    .map_err(|e| e.to_string())?;
    let reports = plan
        .jobs
        .iter()
        .map(|(_, cfg)| {
            Simulation::builder(program)
                .config(*cfg)
                .build()
                .map_err(|e| e.to_string())?
                .try_run()
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = String::from("bench,clusters,topology,strategy,ipc,speedup\n");
    for c in &plan.cells {
        let (r, base) = (&reports[c.job], &reports[c.base_job]);
        out.push_str(&format!(
            "{},{},{},{},{:.4},{:.4}\n",
            c.bench,
            c.clusters,
            replay::topology_flag(c.topology),
            r.strategy,
            r.ipc,
            r.speedup_over(base)
        ));
    }
    Ok((out, reports))
}

/// The text an analysis must answer, from the one-shot CLI library.
fn expected_analysis(req: &Req) -> Result<String, String> {
    let argv = [
        "analyze".to_string(),
        req.bench.into(),
        "--strategies".into(),
        "base,fdrt".into(),
        "--insts".into(),
        req.insts.to_string(),
        "--clusters".into(),
        req.clusters.to_string(),
        "--topology".into(),
        "linear".into(),
        "--hop".into(),
        HOP.to_string(),
        "--top".into(),
        req.top.to_string(),
    ];
    let cli = ctcp_cli::Cli::parse(argv).map_err(|e| e.to_string())?;
    ctcp_cli::execute_outcome(&cli)
        .map(|o| o.output)
        .map_err(|e| e.to_string())
}

/// Checks every sample: structure always, outputs against direct runs
/// for the whole hit set and a spread sample of the rest. Returns the
/// direct-run reports (the source of the simulated rates).
fn verify(
    samples: &[Sample],
    hits: &[Req],
    programs: &HashMap<&str, Program>,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Vec<SimReport> {
    let mut reports = Vec::new();
    let mut hit_text = HashMap::new();
    for h in hits {
        match expected_csv(h, &programs[h.bench]) {
            Ok((text, r)) => {
                hit_text.insert(h.bench, text);
                reports.extend(r);
            }
            Err(e) => problems.push(format!("direct run of hit {}: {e}", h.bench)),
        }
    }
    let every = |kind: Kind, n: usize| {
        let of_kind: Vec<usize> = (0..samples.len())
            .filter(|&i| samples[i].req.kind == kind)
            .collect();
        let step = (of_kind.len() / n.max(1)).max(1);
        of_kind
            .into_iter()
            .step_by(step)
            .take(n)
            .collect::<Vec<_>>()
    };
    let fresh = every(Kind::Fresh, FRESH_CHECKS);
    let analyze = every(Kind::Analyze, ANALYZE_CHECKS);
    for (i, s) in samples.iter().enumerate() {
        let ok = structurally_ok(s);
        tally.check(ok);
        if !ok {
            problems.push(format!(
                "{} request {} failed or answered malformed",
                s.req.kind.name(),
                s.req.bench
            ));
            continue;
        }
        let got = s.ex.as_ref().and_then(output).unwrap_or("");
        let expected = match s.req.kind {
            Kind::Hit => hit_text.get(s.req.bench).cloned(),
            Kind::Fresh if fresh.contains(&i) => expected_csv(&s.req, &programs[s.req.bench])
                .ok()
                .map(|(text, r)| {
                    reports.extend(r);
                    text
                }),
            Kind::Analyze if analyze.contains(&i) => expected_analysis(&s.req).ok(),
            _ => continue,
        };
        let same = expected.as_deref() == Some(got);
        tally.check(same);
        if !same {
            problems.push(format!(
                "{} response for {} differs from a direct library run",
                s.req.kind.name(),
                s.req.bench
            ));
        }
    }
    reports
}

/// Starts a daemon over a fresh store and seeds the memoized hit set.
fn setup_once(args: &Args, dir: &Path, hits: &[Req]) -> Result<Daemon, String> {
    let daemon = Daemon::start(&args.ctcp, dir, DAEMON_JOBS)?;
    for h in hits {
        let ex = exchange(&daemon.addr, "POST", h.path(), &h.body()).map_err(|e| e.to_string())?;
        if ex.status != 200 || result_u64(&ex, "simulated") != Some(h.jobs() as u64) {
            return Err(format!("seeding the hit set failed for {}", h.bench));
        }
    }
    Ok(daemon)
}

/// The daemon's peak resident memory after one fresh sweep and one
/// analysis, sent one at a time. Under the closed loop the peak climbs in
/// steps as the requests' per-instruction buffers land in different
/// allocator arenas (with 50k-instruction cells: 12 MB steps, 38 to
/// 67 MB at the same request count across seeds), so a figure read there
/// measures how requests happened to overlap; one request of each
/// simulating kind in a fixed order measures what serving them costs.
fn memory_probe(daemon: &Daemon, seed: u64) -> Result<f64, String> {
    let fresh = Req {
        kind: Kind::Fresh,
        bench: BENCHES[(mix(seed) % BENCHES.len() as u64) as usize],
        strategies: sweep_strategies(),
        // No loop request nor the hit set runs at 2 clusters.
        clusters: 2,
        insts: REQ_INSTS,
        warmup: WARMUP,
        top: 0,
    };
    let analyze = Req {
        kind: Kind::Analyze,
        strategies: vec![Strategy::Baseline, Strategy::Fdrt { pinning: true }],
        clusters: 4,
        top: 8,
        ..fresh.clone()
    };
    for req in [fresh, analyze] {
        let ex = exchange(&daemon.addr, "POST", req.path(), &req.body()).ok();
        let sample = Sample {
            req,
            ex,
            end_s: 0.0,
            traced: false,
        };
        if !structurally_ok(&sample) {
            return Err(format!(
                "the memory probe's {} request failed",
                sample.req.kind.name()
            ));
        }
    }
    Ok(daemon.peak_rss_mb())
}

/// Runs `serve-mixed`.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let tracer = Tracer::new(args.trace);
    let hits = hit_set(args.seed);
    let mut dirs = Vec::new();
    let mut setup_s = Vec::new();
    let mut rss_mb = Vec::new();
    let mut daemon = None;
    let mut programs = HashMap::new();
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let dir = scratch_dir(args, "store");
        dirs.push(dir.clone());
        let t = Instant::now();
        programs = BENCHES
            .iter()
            .map(|&b| {
                let p = tracer.span(&format!("workload.program {b}"), 0, || {
                    Benchmark::by_name(b).expect("preset").program()
                });
                (b, p)
            })
            .collect();
        let d = tracer.span("setup", 0, || setup_once(args, &dir, &hits))?;
        setup_s.push(t.elapsed().as_secs_f64());
        rss_mb.push(memory_probe(&d, args.seed)?);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let l = closed_loop(&daemon, args.seed, &hits, args.seconds, &tracer);
    let metrics = if args.trace {
        // Even slots untraced, odd slots traced.
        let (untraced, traced): (Vec<_>, Vec<_>) = even_windows(args.seconds, SLOT_S)
            .into_iter()
            .partition(|&(from, _)| !in_traced_slot(from));
        EndToEnd::overhead(
            &end_to_end(&l, &traced, true),
            &end_to_end(&l, &untraced, false),
        )
    } else {
        let mut e = end_to_end(&l, &even_windows(args.seconds, WINDOW_S), false);
        e.setup_s = setup_s.clone();
        e.peak_rss_mb = median(&rss_mb);
        e.metrics()
    };
    let traces = if args.trace {
        fetch_traces(&daemon.addr, &l.samples)
    } else {
        Vec::new()
    };
    Daemon::stop(daemon);
    let samples = &l.samples;

    let reports = verify(samples, &hits, &programs, &mut tally, &mut problems);
    let count = |k: Kind| samples.iter().filter(|s| s.req.kind == k).count();
    let total = samples.len().max(1) as f64;
    let mut record = vec![
        (
            "request_shares".into(),
            Value::Obj(vec![
                ("hit".into(), Value::f64(count(Kind::Hit) as f64 / total)),
                (
                    "fresh_sweep".into(),
                    Value::f64(count(Kind::Fresh) as f64 / total),
                ),
                (
                    "analyze".into(),
                    Value::f64(count(Kind::Analyze) as f64 / total),
                ),
            ]),
        ),
        ("requests".into(), Value::u64(samples.len() as u64)),
        (
            "failed_requests".into(),
            Value::u64(samples.iter().filter(|s| !structurally_ok(s)).count() as u64),
        ),
        (
            "setup_s_samples".into(),
            Value::Arr(setup_s.iter().map(|&x| Value::f64(x)).collect()),
        ),
        (
            "peak_rss_mb_samples".into(),
            Value::Arr(rss_mb.iter().map(|&x| Value::f64(x)).collect()),
        ),
        ("clients".into(), Value::u64(CLIENTS as u64)),
        ("daemon_jobs".into(), Value::u64(DAEMON_JOBS as u64)),
    ];

    let mut metrics = metrics;
    if args.trace {
        let prog_gen: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.layer() == "workload.program")
            .map(|s| s.dur_us / 1e3)
            .collect();
        metrics.push(Metric::new(
            "workload.program_gen_ms",
            mean(&prog_gen),
            "ms",
            prog_gen.len(),
        ));
        let fresh_spec = Req {
            kind: Kind::Fresh,
            bench: "gzip",
            strategies: sweep_strategies(),
            clusters: 4,
            insts: REQ_INSTS,
            warmup: WARMUP,
            top: 0,
        }
        .spec();
        let replay_programs: Vec<(String, Arc<Program>)> = BENCHES
            .iter()
            .map(|&b| (b.to_string(), Arc::new(programs[b].clone())))
            .collect();
        metrics.extend(replay::probes(
            &replay_programs,
            &fresh_spec,
            &reports,
            &args.out,
            &tracer,
        ));
        let cells: u64 = samples
            .iter()
            .filter(|s| s.req.kind != Kind::Analyze)
            .map(|s| s.req.jobs() as u64)
            .sum();
        let memo: u64 = samples
            .iter()
            .filter_map(|s| result_u64(s.ex.as_ref()?, "cache_hits"))
            .sum();
        metrics.push(Metric::new(
            "harness.store_hit_ratio",
            memo as f64 / cells.max(1) as f64,
            "ratio",
            cells as usize,
        ));
        metrics.extend(serve_layer_metrics(
            samples,
            &traces,
            &l.polls,
            DAEMON_JOBS,
            args.seconds,
        ));
        record.push((
            "trace_file".into(),
            Value::str(&replay::write_trace(args, &tracer)?),
        ));
        record.push(("layer_self_ms".into(), replay::layer_table(&tracer)));
        record.push(("daemon_traces".into(), Value::u64(traces.len() as u64)));
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(RunOutput {
        metrics,
        tally,
        record,
        problems,
    })
}

/// What the serve probe of a library workload's traced run produced.
pub struct ProbeOut {
    /// The serve-layer metrics.
    pub metrics: Vec<Metric>,
    /// Its checks.
    pub tally: Tally,
    /// Failed checks.
    pub problems: Vec<String>,
}

/// Replays a library workload's cell shape through a daemon: fresh
/// sweeps of the workload's presets, each followed by the same sweep
/// again (memoized), over one connection for about a second and a half,
/// while a second connection polls the queue depth.
pub fn probe(
    args: &Args,
    benches: &[&str],
    spec: &CellSpec,
    tracer: &Tracer,
) -> Result<ProbeOut, String> {
    let dir = scratch_dir(args, "probe");
    let daemon = Daemon::start(&args.ctcp, &dir, spec.jobs.min(DAEMON_JOBS))?;
    let t0 = Instant::now();
    let mut samples = Vec::new();
    let mut traces = Vec::new();
    let mut k = 0u64;
    let stop = AtomicBool::new(false);
    let polls = std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll_queue_depth(&daemon.addr, PROBE_POLL_EVERY, &stop));
        while samples.len() < 8 || t0.elapsed() < Duration::from_millis(1500) {
            let bench = BENCHES
                .iter()
                .copied()
                .find(|b| *b == benches[k as usize % benches.len()])
                .unwrap_or("gzip");
            let fresh = Req {
                kind: Kind::Fresh,
                bench,
                strategies: spec.strategies.clone(),
                clusters: spec.clusters,
                insts: spec.insts.min(20_000) + k,
                warmup: spec.warmup,
                top: 0,
            };
            let hit = Req {
                kind: Kind::Hit,
                ..fresh.clone()
            };
            for req in [fresh, hit] {
                let start_us = tracer.now_us();
                let ex = exchange(&daemon.addr, "POST", req.path(), &req.body()).ok();
                if let Some(ex) = &ex {
                    record_exchange(tracer, 1, start_us, req.kind.name(), ex);
                    // Before the hit re-asks the same body, whose spans the
                    // daemon would file under the same token.
                    if req.kind == Kind::Fresh {
                        traces.extend(
                            ex.token
                                .as_deref()
                                .and_then(|t| fetch_trace(&daemon.addr, t)),
                        );
                    }
                }
                samples.push(Sample {
                    req,
                    ex,
                    end_s: t0.elapsed().as_secs_f64(),
                    traced: true,
                });
            }
            k += 1;
        }
        stop.store(true, Ordering::Relaxed);
        poller.join().expect("poller thread")
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Daemon::stop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    for s in &samples {
        let ok = structurally_ok(s);
        tally.check(ok);
        if !ok {
            problems.push(format!(
                "serve probe: {} request for {} failed",
                s.req.kind.name(),
                s.req.bench
            ));
        }
    }
    Ok(ProbeOut {
        metrics: serve_layer_metrics(
            &samples,
            &traces,
            &polls,
            spec.jobs.min(DAEMON_JOBS),
            wall_s,
        ),
        tally,
        problems,
    })
}
