//! Per-layer replay probes, run only by the traced run.
//!
//! Host cost per layer is measured from the caller's side: the
//! workload's own programs and cell shapes are fed to each crate's
//! public API (`Checkpoint::capture`, `SimBuilder::build`,
//! `Simulation::try_run`, the predictor, the engine, the fill unit, the
//! retire-time assigners, the trace cache, the data memory, the store,
//! the journal, the wire and HTTP parsers) inside spans, and each span
//! is divided by the work it did. The matching simulated rates are read
//! from the workload's own `SimReport.metrics`. Replay streams start at
//! the program entry.

use crate::spans::{self, Tracer};
use crate::stats::{mean, median};
use crate::{Args, Metric};
use ctcp_core::assign::RetireTimeStrategy;
use ctcp_core::{Engine, FetchedInst, RetiredInst, SteeringMode, TickResult};
use ctcp_frontend::{BranchPredictor, HybridPredictor};
use ctcp_harness::{Harness, Job, Journal, ResultStore, SweepSpec};
use ctcp_isa::{DynInst, Executor, Opcode, Program};
use ctcp_memory::{AccessKind, DataMemory};
use ctcp_sim::{BatchRunner, Checkpoint, SimConfig, SimReport, Simulation, Strategy, Topology};
use ctcp_telemetry::json::Value;
use ctcp_telemetry::{Probe, Recorder, RecorderConfig};
use ctcp_tracecache::{FillUnit, PendingInst, RawTrace, TraceCache, TraceHead, TraceLine};
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Dynamic instructions per replayed program.
const REPLAY_INSTS: usize = 40_000;
/// Programs the replay samples from the workload.
const REPLAY_PROGRAMS: usize = 2;
/// Cap on the timed budget of a replayed cell.
const RUN_INSTS_CAP: u64 = 50_000;

/// The cell shape a workload runs; replay builds its configurations
/// from it.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Strategies besides the baseline.
    pub strategies: Vec<Strategy>,
    /// Cluster count of the replayed cells.
    pub clusters: u8,
    /// Topology of the replayed cells.
    pub topology: Topology,
    /// Timed instructions per cell.
    pub insts: u64,
    /// Functional warmup per cell.
    pub warmup: u64,
    /// Workers (or daemon jobs) the workload uses.
    pub jobs: usize,
    /// Cells each program contributes to one sweep.
    pub cells_per_program: usize,
}

impl CellSpec {
    /// The full simulator configuration of one cell.
    pub fn config(&self, strategy: Strategy, insts: u64) -> SimConfig {
        SweepSpec {
            insts,
            warmup: self.warmup,
            ..SweepSpec::default()
        }
        .cell_config(strategy, self.clusters, self.topology)
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Renders a strategy family for metric names.
fn family(s: Strategy) -> &'static str {
    match s {
        Strategy::Baseline => "baseline",
        Strategy::Friendly { .. } => "friendly",
        _ => "fdrt",
    }
}

/// Fetch groups as the instruction-cache path forms them: up to the
/// machine width, ending after a taken control transfer.
fn fetch_groups(stream: &[DynInst], width: usize) -> Vec<Vec<FetchedInst>> {
    let mut groups: Vec<Vec<FetchedInst>> = Vec::new();
    let mut cur: Vec<FetchedInst> = Vec::new();
    for d in stream {
        cur.push(FetchedInst {
            seq: d.seq,
            pc: d.pc,
            index: d.index,
            inst: d.inst,
            mem_addr: d.mem_addr,
            taken: d.branch.map(|b| b.taken),
            slot: cur.len() as u8,
            group: groups.len() as u64,
            from_tc: false,
            tc_loc: None,
            profile: Default::default(),
            mispredicted: false,
        });
        if cur.len() == width || d.taken() || d.op() == Opcode::Halt {
            groups.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        groups.push(cur);
    }
    groups
}

/// Drives the engine alone over pre-formed groups (perfect front end).
/// Returns retired instructions and cycles ticked.
fn engine_replay(cfg: &SimConfig, groups: &[Vec<FetchedInst>]) -> (Vec<RetiredInst>, u64) {
    let mut engine = Engine::new(cfg.engine, SteeringMode::Slot);
    let mut result = TickResult::default();
    let mut retired = Vec::new();
    let mut next = 0;
    let mut now = 0u64;
    let cap = 64 * REPLAY_INSTS as u64;
    while (next < groups.len() || engine.in_flight() > 0) && now < cap {
        now += 1;
        if next < groups.len() && engine.can_accept(groups[next].len()) {
            engine.accept(&groups[next], now);
            next += 1;
        }
        engine.tick_into(now, &mut result);
        retired.append(&mut result.retired);
        result.redirects.clear();
    }
    (retired, now)
}

fn fill_replay(cfg: &SimConfig, retired: &[RetiredInst]) -> Vec<RawTrace> {
    let mut fill_cfg = cfg.fill;
    fill_cfg.max_insts = cfg.engine.geometry.total_slots();
    fill_cfg.max_blocks = cfg.trace_cache.max_blocks;
    let mut fill = FillUnit::new(fill_cfg);
    let mut raws = Vec::new();
    let mut last_group = None;
    for r in retired {
        let head = if last_group != Some(r.group) {
            TraceHead::TraceCacheMiss
        } else {
            TraceHead::None
        };
        last_group = Some(r.group);
        raws.extend(fill.push(
            PendingInst {
                seq: r.seq,
                index: r.index,
                pc: r.pc,
                inst: r.inst,
                profile: r.profile,
                tc_loc: r.tc_loc,
                feedback: r.feedback,
                taken: r.taken,
            },
            head,
        ));
    }
    raws
}

/// Component replay over one program's dynamic stream. Returns, per
/// metric name, (summed seconds, summed work units).
fn components(
    program: &Program,
    spec: &CellSpec,
    tracer: &Tracer,
    acc: &mut std::collections::BTreeMap<&'static str, (f64, f64)>,
) {
    let mut add = |k: &'static str, s: f64, n: usize| {
        let e = acc.entry(k).or_default();
        e.0 += s;
        e.1 += n as f64;
    };
    let cfg = spec.config(Strategy::Fdrt { pinning: true }, REPLAY_INSTS as u64);
    let stream: Vec<DynInst> = Executor::new(program).take(REPLAY_INSTS).collect();
    let slots = cfg.engine.geometry.total_slots();

    let mut predictor = HybridPredictor::new(cfg.predictor);
    let branches: Vec<(u64, bool)> = stream
        .iter()
        .filter(|d| d.op().is_conditional_branch())
        .map(|d| (d.pc, d.taken()))
        .collect();
    let t = Instant::now();
    tracer.span("frontend.predict", 0, || {
        for &(pc, taken) in &branches {
            std::hint::black_box(predictor.predict(pc));
            predictor.update(pc, taken);
            predictor.update_history(taken);
        }
    });
    add("frontend.predict_ns", secs(t), branches.len());

    let groups = fetch_groups(&stream, slots);
    let t = Instant::now();
    let (retired, cycles) = tracer.span("core.tick", 0, || engine_replay(&cfg, &groups));
    add("core.tick_ns_per_cycle", secs(t), cycles as usize);

    let t = Instant::now();
    let raws = tracer.span("tracecache.fill", 0, || fill_replay(&cfg, &retired));
    add("tracecache.fill_ns_per_inst", secs(t), retired.len());

    let mut tc_cfg = cfg.trace_cache;
    tc_cfg.line_capacity = slots;
    let mut filled = None;
    for (name, strategy) in [
        (
            "core.assign_us_per_trace.friendly",
            Strategy::Friendly { middle_bias: false },
        ),
        (
            "core.assign_us_per_trace.fdrt",
            Strategy::Fdrt { pinning: true },
        ),
    ] {
        let mut rts: RetireTimeStrategy = strategy.retire_time();
        let mut tc = TraceCache::new(tc_cfg);
        let mut took = 0.0;
        tracer.span(&format!("core.assign {}", family(strategy)), 0, || {
            for raw in &raws {
                let mut raw = raw.clone();
                let t = Instant::now();
                let placement = rts.assign(&mut raw, &cfg.engine.geometry, &mut tc);
                took += secs(t);
                tc.install(TraceLine::from_raw(&raw, &placement, slots));
            }
        });
        add(name, took, raws.len());
        filled = Some(tc);
    }

    let mut tc = filled.expect("assign replay ran");
    let heads: Vec<u64> = groups.iter().map(|g| g[0].pc).collect();
    let t = Instant::now();
    tracer.span("tracecache.lookup", 0, || {
        for &pc in &heads {
            std::hint::black_box(tc.lookup(pc, |bpc| predictor.predict(bpc)).map(|l| l.id));
        }
    });
    add("tracecache.lookup_ns", secs(t), heads.len());

    let mut mem = DataMemory::new(cfg.engine.memory);
    let accesses: Vec<(AccessKind, u64)> = stream
        .iter()
        .filter_map(|d| {
            let addr = d.mem_addr?;
            Some(if d.op().is_store() {
                (AccessKind::Store, addr)
            } else {
                (AccessKind::Load, addr)
            })
        })
        .collect();
    let t = Instant::now();
    tracer.span("memory.access", 0, || {
        for (now, &(kind, addr)) in accesses.iter().enumerate() {
            std::hint::black_box(mem.access(kind, addr, now as u64));
        }
    });
    add("memory.access_ns", secs(t), accesses.len());
}

/// Times `SimBuilder::build` and `Simulation::try_run` for one cell,
/// resuming from `ck` when the workload warms up.
fn build_and_run(
    program: &Program,
    cfg: SimConfig,
    ck: Option<&Checkpoint<'_>>,
    probe: Option<Rc<dyn Probe>>,
) -> (f64, f64, SimReport) {
    let mut b = Simulation::builder(program).config(cfg);
    if let Some(ck) = ck {
        b = b.resume_from(ck);
    }
    if let Some(p) = probe {
        b = b.probe(p);
    }
    let t = Instant::now();
    let sim = b.build().expect("workload configurations are valid");
    let build = secs(t);
    let t = Instant::now();
    let report = sim.try_run().expect("workload cells run to completion");
    (build, secs(t), report)
}

fn sum_rate(
    reports: &[SimReport],
    num: impl Fn(&SimReport) -> u64,
    den: impl Fn(&SimReport) -> u64,
) -> f64 {
    let n: u64 = reports.iter().map(&num).sum();
    let d: u64 = reports.iter().map(&den).sum();
    n as f64 / d.max(1) as f64
}

/// Every replay probe; `reports` are the workload's own timed-phase
/// reports, the source of the simulated rates.
pub fn probes(
    programs: &[(String, Arc<Program>)],
    spec: &CellSpec,
    reports: &[SimReport],
    scratch: &Path,
    tracer: &Tracer,
) -> Vec<Metric> {
    tracer.span("replay", 0, || {
        probes_inner(programs, spec, reports, scratch, tracer)
    })
}

fn probes_inner(
    programs: &[(String, Arc<Program>)],
    spec: &CellSpec,
    reports: &[SimReport],
    scratch: &Path,
    tracer: &Tracer,
) -> Vec<Metric> {
    let sample = &programs[..programs.len().min(REPLAY_PROGRAMS)];
    let mut out = Vec::new();

    // isa: fast-forward cost charged to each timed instruction — the
    // harness captures one checkpoint per program per worker.
    let mut ff = Vec::new();
    let mut checkpoints = Vec::new();
    for (_, p) in sample {
        let t = Instant::now();
        let ck = tracer.span("isa.capture", 0, || Checkpoint::capture(p, spec.warmup));
        let timed = (spec.cells_per_program as u64 * spec.insts) as f64;
        ff.push(secs(t) * 1e9 * spec.jobs as f64 / timed);
        checkpoints.push(ck);
    }
    out.push(Metric::new(
        "isa.fastforward_ns_per_inst",
        mean(&ff),
        "ns/inst",
        ff.len(),
    ));

    // sim: build and run per strategy family.
    let insts = spec.insts.min(RUN_INSTS_CAP);
    let reps = (20_000 / insts).clamp(1, 10);
    let mut builds = Vec::new();
    let mut run_ns = std::collections::BTreeMap::<&str, Vec<f64>>::new();
    for ((_, p), ck) in sample.iter().zip(&checkpoints) {
        let ck = (spec.warmup > 0).then_some(ck);
        for s in [
            Strategy::Baseline,
            Strategy::Friendly { middle_bias: false },
            Strategy::Fdrt { pinning: true },
        ] {
            for _ in 0..reps {
                let (b, r, rep) = tracer.span(&format!("sim.run {}", family(s)), 0, || {
                    build_and_run(p, spec.config(s, insts), ck, None)
                });
                builds.push(b * 1e6);
                run_ns
                    .entry(family(s))
                    .or_default()
                    .push(r * 1e9 / rep.instructions.max(1) as f64);
            }
        }
    }
    out.push(Metric::new(
        "sim.build_us",
        median(&builds),
        "us",
        builds.len(),
    ));
    for f in ["baseline", "friendly", "fdrt"] {
        let xs = &run_ns[f];
        out.push(Metric::new(
            format!("sim.run_ns_per_inst.{f}"),
            median(xs),
            "ns/inst",
            xs.len(),
        ));
    }
    out.push(Metric::new(
        "sim.fdrt_over_baseline_x",
        median(&run_ns["fdrt"]) / median(&run_ns["baseline"]),
        "x",
        run_ns["fdrt"].len(),
    ));

    // telemetry: the attribution probe's cost on the same cell.
    let (_, p) = &sample[0];
    let ck = (spec.warmup > 0).then_some(&checkpoints[0]);
    let cfg = spec.config(Strategy::Fdrt { pinning: true }, insts);
    let mut ratios = Vec::new();
    for _ in 0..reps.max(3) {
        let (_, plain, _) = tracer.span("sim.run fdrt", 0, || build_and_run(p, cfg, ck, None));
        let recorder: Rc<dyn Probe> = Rc::new(Recorder::new(RecorderConfig {
            collect_attrib: true,
            ..RecorderConfig::metrics_only()
        }));
        let (_, probed, _) = tracer.span("telemetry.attrib", 0, || {
            build_and_run(p, cfg, ck, Some(recorder))
        });
        ratios.push(probed / plain);
    }
    out.push(Metric::new(
        "telemetry.attrib_overhead_x",
        median(&ratios),
        "x",
        ratios.len(),
    ));

    // Components, over each sampled program's own stream.
    let mut acc = std::collections::BTreeMap::new();
    for (_, p) in sample {
        components(p, spec, tracer, &mut acc);
    }
    for (name, (s, n)) in &acc {
        let (scale, unit) = match *name {
            n if n.starts_with("core.assign") => (1e6, "us"),
            "tracecache.fill_ns_per_inst" => (1e9, "ns/inst"),
            _ => (1e9, "ns"),
        };
        out.push(Metric::new(
            *name,
            s * scale / n.max(1.0),
            unit,
            *n as usize,
        ));
    }
    out.push(Metric::new(
        "frontend.cond_mispredict_rate",
        sum_rate(
            reports,
            |r| r.metrics.cond_mispredicts,
            |r| r.metrics.cond_branches,
        ),
        "ratio",
        reports.len(),
    ));
    out.push(Metric::new(
        "tracecache.tc_inst_fraction",
        sum_rate(
            reports,
            |r| r.metrics.insts_from_tc,
            |r| r.metrics.insts_from_tc + r.metrics.insts_from_icache,
        ),
        "ratio",
        reports.len(),
    ));
    out.push(Metric::new(
        "core.ipc",
        sum_rate(reports, |r| r.instructions, |r| r.cycles),
        "inst/cycle",
        reports.len(),
    ));
    out.push(Metric::new(
        "memory.l1d_miss_rate",
        sum_rate(
            reports,
            |r| r.metrics.l1d.misses,
            |r| r.metrics.l1d.accesses(),
        ),
        "ratio",
        reports.len(),
    ));

    out.extend(harness_probes(sample, spec, reports, scratch, tracer));
    out.extend(wire_probes(spec, tracer));
    out
}

/// Harness per-cell overhead, store put/get and journal appends.
fn harness_probes(
    sample: &[(String, Arc<Program>)],
    spec: &CellSpec,
    reports: &[SimReport],
    scratch: &Path,
    tracer: &Tracer,
) -> Vec<Metric> {
    // Per-cell overhead: many tiny, distinct cells (so the harness's
    // own work is not lost in simulation time), harness vs a direct
    // `BatchRunner` loop, alternating, medians.
    let tiny = &SweepSpec {
        warmup: 0,
        ..SweepSpec::default()
    };
    let jobs: Vec<Job> = sample
        .iter()
        .flat_map(|(name, p)| {
            [
                Strategy::Baseline,
                Strategy::Friendly { middle_bias: false },
                Strategy::Fdrt { pinning: true },
            ]
            .into_iter()
            .flat_map(move |s| {
                (0..10).map(move |i| {
                    let mut cfg = tiny.cell_config(s, spec.clusters, spec.topology);
                    cfg.max_insts = 500 + i;
                    Job::new(name.clone(), Arc::clone(p), cfg)
                })
            })
        })
        .collect();
    let mut direct = Vec::new();
    let mut harnessed = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        tracer.span("sim.batch_runner", 0, || {
            let mut runner = BatchRunner::new();
            for j in &jobs {
                let _ = runner.try_run(Simulation::builder(&j.program).config(j.config));
            }
        });
        direct.push(secs(t));
        let t = Instant::now();
        tracer.span("harness.try_run overhead", 0, || {
            Harness::new().jobs(1).progress(false).try_run(&jobs)
        });
        harnessed.push(secs(t));
    }
    let mut out = vec![Metric::new(
        "harness.cell_overhead_us",
        (median(&harnessed) - median(&direct)) * 1e6 / jobs.len() as f64,
        "us",
        jobs.len() * direct.len(),
    )];

    let dir = scratch.join(format!("tmp-replay-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(store) = ResultStore::open(&dir) {
        let mut puts = Vec::new();
        let mut gets = Vec::new();
        let sample: Vec<&SimReport> = reports.iter().cycle().take(200).collect();
        tracer.span("harness.store_put", 0, || {
            for (k, r) in sample.iter().enumerate() {
                let t = Instant::now();
                let _ = store.put(k as u64 + 1, "replay", r);
                puts.push(secs(t) * 1e6);
            }
        });
        tracer.span("harness.store_get", 0, || {
            for k in 0..sample.len() {
                let t = Instant::now();
                std::hint::black_box(store.get(k as u64 + 1));
                gets.push(secs(t) * 1e6);
            }
        });
        out.push(Metric::new(
            "harness.store_put_us",
            median(&puts),
            "us",
            puts.len(),
        ));
        out.push(Metric::new(
            "harness.store_get_us",
            median(&gets),
            "us",
            gets.len(),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch.join(format!("tmp-replay-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    if let Ok(journal) = Journal::open(&dir) {
        let mut calls = Vec::new();
        let body = sweep_body_for("gzip", spec, 1).render();
        tracer.span("harness.journal", 0, || {
            for req in 0..50u64 {
                let token = format!("{req:016x}");
                let t = Instant::now();
                let _ = journal.admit(&token, "sweep", &body);
                calls.push(secs(t) * 1e6);
                for cell in 0..4 {
                    let t = Instant::now();
                    let _ = journal.mark_cell(&token, req * 4 + cell);
                    calls.push(secs(t) * 1e6);
                }
                let t = Instant::now();
                let _ = journal.finish(&token, 0);
                calls.push(secs(t) * 1e6);
            }
        });
        out.push(Metric::new(
            "harness.journal_append_us",
            median(&calls),
            "us",
            calls.len(),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn strategy_flag(s: Strategy) -> &'static str {
    match s {
        Strategy::Baseline => "base",
        Strategy::IssueTime { latency: 0 } => "issue0",
        Strategy::IssueTime { .. } => "issue4",
        Strategy::Friendly { middle_bias: false } => "friendly",
        Strategy::Friendly { middle_bias: true } => "friendly-mid",
        Strategy::Fdrt { pinning: true } => "fdrt",
        Strategy::Fdrt { pinning: false } => "fdrt-nopin",
        Strategy::FdrtIntraOnly => "fdrt-intra",
    }
}

/// The CLI and CSV spelling of a topology.
pub fn topology_flag(t: Topology) -> &'static str {
    match t {
        Topology::Linear => "linear",
        Topology::Ring => "ring",
        Topology::FullyConnected => "full",
    }
}

/// A `POST /sweep` body for `bench` in the cell shape `spec`, in the
/// field layout `ctcp client sweep` sends.
pub fn sweep_body_for(bench: &str, spec: &CellSpec, insts: u64) -> Value {
    let mut fields = vec![
        ("benches".into(), Value::Arr(vec![Value::str(bench)])),
        (
            "strategies".into(),
            Value::Arr(
                spec.strategies
                    .iter()
                    .map(|&s| Value::str(strategy_flag(s)))
                    .collect(),
            ),
        ),
        (
            "clusters".into(),
            Value::Arr(vec![Value::u64(spec.clusters.into())]),
        ),
        (
            "topologies".into(),
            Value::Arr(vec![Value::str(topology_flag(spec.topology))]),
        ),
        ("insts".into(), Value::u64(insts)),
        ("csv".into(), Value::Bool(true)),
        ("attrib".into(), Value::Bool(false)),
    ];
    if spec.warmup != 0 {
        fields.push(("warmup".into(), Value::u64(spec.warmup)));
    }
    Value::Obj(fields)
}

/// Decodes a sweep body the way the daemon validates one: JSON parse,
/// the CLI's own flag parsers, then the grid expansion.
pub fn decode_sweep_body(text: &str) -> Result<usize, String> {
    let v = Value::parse(text)?;
    let list = |k: &str| -> Vec<String> {
        v.get(k)
            .and_then(Value::as_arr)
            .map(|a| {
                a.iter()
                    .map(|x| x.as_str().map_or_else(|| x.render(), str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut argv = vec![
        "sweep".to_string(),
        "--benches".into(),
        list("benches").join(","),
        "--strategies".into(),
        list("strategies").join(","),
        "--clusters".into(),
        list("clusters").join(","),
        "--topology".into(),
        list("topologies").join(","),
        "--insts".into(),
        v.get("insts")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            .to_string(),
    ];
    if let Some(w) = v.get("warmup").and_then(Value::as_u64) {
        argv.push("--warmup".into());
        argv.push(w.to_string());
    }
    let cli = ctcp_cli::Cli::parse(argv).map_err(|e| e.to_string())?;
    match cli.command {
        ctcp_cli::Command::Sweep(a) => a
            .spec
            .expand()
            .map(|p| p.jobs.len())
            .map_err(|e| e.to_string()),
        _ => Err("not a sweep".into()),
    }
}

/// Wire codec round trip and HTTP request parsing.
fn wire_probes(spec: &CellSpec, tracer: &Tracer) -> Vec<Metric> {
    const N: usize = 300;
    let t = Instant::now();
    tracer.span("cli.wire", 0, || {
        for i in 0..N {
            let text = sweep_body_for("gzip", spec, 10_000 + i as u64).render();
            std::hint::black_box(decode_sweep_body(&text).expect("own bodies decode"));
        }
    });
    let wire = secs(t) * 1e6 / N as f64;

    let body = sweep_body_for("gzip", spec, 10_000).render();
    let raw = format!(
        "POST /sweep HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let t = Instant::now();
    tracer.span("serve.http_parse", 0, || {
        for _ in 0..N {
            let mut r = std::io::Cursor::new(raw.as_bytes());
            std::hint::black_box(ctcp_serve::http::read_request(&mut r).expect("well-formed"));
        }
    });
    let http = secs(t) * 1e6 / N as f64;
    vec![
        Metric::new("cli.wire_roundtrip_us", wire, "us", N),
        Metric::new("serve.http_parse_us", http, "us", N),
    ]
}

/// Writes the traced run's spans as Chrome-trace JSON; returns the path.
pub fn write_trace(args: &Args, tracer: &Tracer) -> Result<String, String> {
    let path = args
        .out
        .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let lanes = [
        (0, "benchmark".to_string()),
        (1, "client 0".to_string()),
        (2, "client 1".to_string()),
    ];
    std::fs::write(&path, spans::chrome_trace(&tracer.spans(), &lanes))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(path.display().to_string())
}

/// Total and self milliseconds per layer, for the run record.
pub fn layer_table(tracer: &Tracer) -> Value {
    Value::Obj(
        spans::self_times(&tracer.spans())
            .into_iter()
            .map(|(layer, t)| {
                (
                    layer,
                    Value::Obj(vec![
                        ("count".into(), Value::u64(t.count)),
                        ("total_ms".into(), Value::f64(t.total_ms)),
                        ("self_ms".into(), Value::f64(t.self_ms)),
                    ]),
                )
            })
            .collect(),
    )
}
