//! The two library workloads, driven through `ctcp-harness` the way a
//! one-shot sweep is: `cold-long` (long timed cells, no warmup, no
//! store) and `warm-grid` (a wide grid of short cells behind a long
//! functional warmup, a fresh store per sweep). Both run two workers:
//! with one, `cold-long`'s per-round rate followed the load on the
//! idle second core of a 2-core host (run medians of one seed 20%
//! apart, against 3% with two).
//!
//! A run repeats *rounds* until the timed phase is over. Each round is
//! one miss request (the sweep, every cell simulated) followed by a
//! burst of hit requests (the memoized hit set, re-asked whole from a
//! side store seeded during set-up). Throughputs are per round, reported
//! as the median over rounds.

use crate::replay::{self, CellSpec};
use crate::spans::Tracer;
use crate::stats::{fnv64, mix};
use crate::{peak_rss_mb, Args, EndToEnd, Metric, RunOutput, Tally, DEFAULT_SEED};
use ctcp_harness::{Harness, Job, JobOutcome, ProgressSink, ResultStore, SweepSpec};
use ctcp_isa::Program;
use ctcp_sim::{SimReport, Simulation, Strategy, Topology};
use ctcp_telemetry::json::Value;
use ctcp_workload::Benchmark;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// One library workload's grid and request shape.
pub struct LibWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Benchmark presets whose programs form the grid.
    pub benches: Vec<&'static str>,
    /// Strategies besides the baseline every geometry gets.
    pub strategies: Vec<Strategy>,
    /// Cluster counts.
    pub clusters: Vec<u8>,
    /// Interconnect topologies.
    pub topologies: Vec<Topology>,
    /// Timed instructions per cell.
    pub insts: u64,
    /// Functional warmup per cell (architectural state only).
    pub warmup: u64,
    /// Harness workers.
    pub jobs: usize,
    /// Hit requests after each round's sweep.
    pub hit_burst: usize,
    /// The memoized hit set is the grid of the first `hit_benches`
    /// presets at `hit_insts` timed instructions (and the workload's
    /// warmup), simulated into a side store during set-up.
    pub hit_benches: usize,
    /// Timed budget of the hit set's cells.
    pub hit_insts: u64,
    /// Each sweep writes a fresh, empty store; otherwise it runs
    /// storeless.
    pub store: bool,
    /// Cells re-simulated directly per checked round.
    pub direct_checks: usize,
}

impl LibWorkload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<LibWorkload> {
        match name {
            "cold-long" => Some(LibWorkload {
                name: "cold-long",
                benches: vec!["bzip2", "eon", "gzip", "perlbmk", "twolf", "vpr"],
                strategies: vec![
                    Strategy::Friendly { middle_bias: false },
                    Strategy::Fdrt { pinning: true },
                ],
                clusters: vec![4],
                topologies: vec![Topology::Linear],
                insts: 100_000,
                warmup: 0,
                jobs: 2,
                hit_burst: 300,
                hit_benches: 6,
                hit_insts: 2_000,
                store: false,
                direct_checks: 3,
            }),
            "warm-grid" => Some(LibWorkload {
                name: "warm-grid",
                benches: vec!["gzip", "twolf", "vpr", "perlbmk"],
                strategies: vec![
                    Strategy::IssueTime { latency: 0 },
                    Strategy::IssueTime { latency: 4 },
                    Strategy::Friendly { middle_bias: false },
                    Strategy::Friendly { middle_bias: true },
                    Strategy::Fdrt { pinning: true },
                    Strategy::Fdrt { pinning: false },
                    Strategy::FdrtIntraOnly,
                ],
                clusters: vec![2, 4],
                topologies: vec![Topology::Linear, Topology::Ring, Topology::FullyConnected],
                insts: 2_000,
                warmup: 1_000_000,
                jobs: 2,
                hit_burst: 30,
                hit_benches: 1,
                hit_insts: 2_000,
                store: true,
                direct_checks: 4,
            }),
            _ => None,
        }
    }

    /// The workload with its budgets moved by the seed: up to 1% more
    /// timed instructions, and up to 4095 more warmup instructions when
    /// it warms up at all. Same programs and grid, different simulated
    /// stretch, nearly the same work.
    pub fn seeded(mut self, seed: u64) -> LibWorkload {
        let r = mix(seed);
        self.insts += r % (self.insts / 100 + 1);
        if self.warmup > 0 {
            self.warmup += (r >> 10) % 4096;
        }
        self
    }

    fn spec(&self, benches: &[&str], insts: u64, warmup: u64) -> SweepSpec {
        SweepSpec {
            benches: benches.iter().map(|b| b.to_string()).collect(),
            strategies: self.strategies.clone(),
            clusters: self.clusters.clone(),
            topologies: self.topologies.clone(),
            insts,
            warmup,
        }
    }

    /// The sweep's jobs over this run's programs, in the order every
    /// surface expands a grid.
    fn jobs_for(&self, programs: &Programs, benches: &[&str], insts: u64, warmup: u64) -> Vec<Job> {
        let plan = self
            .spec(benches, insts, warmup)
            .expand()
            .expect("workload grids are valid");
        plan.jobs
            .iter()
            .map(|(bench, cfg)| Job::new(bench.clone(), Arc::clone(&programs[bench]), *cfg))
            .collect()
    }

    /// Cell shapes the replay probes and the serve probe use.
    fn cell_spec(&self) -> CellSpec {
        CellSpec {
            strategies: self.strategies.clone(),
            clusters: self.clusters[self.clusters.len() - 1],
            topology: self.topologies[0],
            insts: self.insts,
            warmup: self.warmup,
            jobs: self.jobs,
            cells_per_program: (1 + self.strategies.len())
                * self.clusters.len()
                * self.topologies.len(),
        }
    }
}

/// Preset name → program.
pub type Programs = HashMap<String, Arc<Program>>;

/// Generates each preset's program. The programs are the presets'
/// own, so every seed simulates the same code; the seed moves the
/// instruction budgets instead (see [`LibWorkload::seeded`]).
pub fn preset_programs(benches: &[&str], tracer: &Tracer) -> Programs {
    benches
        .iter()
        .map(|&b| {
            let bench = Benchmark::by_name(b).expect("known preset");
            let program = tracer.span(&format!("workload.program {b}"), 0, || bench.program());
            (b.to_string(), Arc::new(program))
        })
        .collect()
}

/// Collects the wall time of every finished cell.
#[derive(Default)]
struct CellTimes(Vec<f64>);

impl ProgressSink for CellTimes {
    fn batch_start(&mut self, _total: usize) {}
    fn cell_done(&mut self, _done: usize, _workload: &str, took: Duration) {
        self.0.push(took.as_secs_f64() * 1e3);
    }
    fn batch_end(&mut self) {}
}

/// Everything one set-up produces.
struct Setup {
    programs: Programs,
    /// The side store holding the memoized hit set.
    hit_store: ResultStore,
    /// The memoized hit set; every hit request re-asks all of it.
    hit_jobs: Vec<Job>,
    /// `warm-grid`: the fresh store the next sweep writes.
    next_store: Option<(ResultStore, PathBuf)>,
}

/// A fresh, empty scratch directory under the output directory, unique
/// within this process.
pub fn scratch_dir(args: &Args, what: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = args.out.join(format!(
        "tmp-{}-{}-{what}-{n}",
        args.workload,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &Path) -> Result<ResultStore, String> {
    ResultStore::open(dir).map_err(|e| format!("cannot open store {dir:?}: {e}"))
}

fn setup(
    w: &LibWorkload,
    args: &Args,
    tracer: &Tracer,
    dirs: &mut Vec<PathBuf>,
) -> Result<Setup, String> {
    let programs = preset_programs(&w.benches, tracer);
    let dir = scratch_dir(args, "hits");
    dirs.push(dir.clone());
    let hit_store = tracer.span("harness.store_open", 0, || open_store(&dir))?;
    let hit_jobs = w.jobs_for(
        &programs,
        &w.benches[..w.hit_benches],
        w.hit_insts,
        w.warmup,
    );
    let mut h = Harness::new()
        .jobs(w.jobs)
        .progress(false)
        .with_store(hit_store.clone());
    let outs = tracer.span("harness.try_run seed-hits", 0, || h.try_run(&hit_jobs));
    if outs.iter().any(|o| o.report().is_none()) {
        return Err("seeding the memoized hit set failed".into());
    }
    let next_store = if w.store {
        let dir = scratch_dir(args, "store");
        dirs.push(dir.clone());
        let store = tracer.span("harness.store_open", 0, || open_store(&dir))?;
        Some((store, dir))
    } else {
        None
    };
    Ok(Setup {
        programs,
        hit_jobs,
        hit_store,
        next_store,
    })
}

/// One round's sweep, kept for the output checks.
struct Round {
    jobs: Vec<Job>,
    reports: Vec<Option<SimReport>>,
}

/// What a timed phase measured.
#[derive(Default)]
struct Phase {
    /// Untraced rounds.
    e2e: EndToEnd,
    /// Traced rounds, when the phase alternates.
    traced: EndToEnd,
    tally: Tally,
    rounds: Vec<Round>,
    failed_cells: u64,
    retries: u64,
    store_lookups: u64,
    store_hits: u64,
    reports: Vec<SimReport>,
}

fn digest(report: &SimReport) -> String {
    format!("{:016x}", fnv64(format!("{report:?}").as_bytes()))
}

/// Runs rounds until `seconds` have passed (at least one round). With
/// the tracer on, rounds alternate untraced and traced, so both halves
/// see the same host drift and the same process state.
fn timed_phase(
    w: &LibWorkload,
    args: &Args,
    s: &mut Setup,
    seconds: f64,
    tracer: &Tracer,
    dirs: &mut Vec<PathBuf>,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut hit_harness = Harness::new()
        .jobs(w.jobs)
        .progress(false)
        .with_store(s.hit_store.clone());
    let untraced = Tracer::new(false);
    for round in 0.. {
        let traced = tracer.on() && round % 2 == 1;
        let tracer = if traced { tracer } else { &untraced };
        // Every round asks the same grid; the store workload gives each
        // round a fresh store, so its sweep still simulates every cell.
        let jobs = w.jobs_for(&s.programs, &w.benches, w.insts, w.warmup);
        let store = s.next_store.take();
        let mut harness = Harness::new().jobs(w.jobs).progress(false);
        if let Some((st, _)) = &store {
            harness = harness.with_store(st.clone());
        }
        let mut times = CellTimes::default();
        let t = Instant::now();
        let outs = tracer.span("harness.try_run sweep", 0, || {
            harness.try_run_with_progress(&jobs, &mut times)
        });
        let miss_wall = t.elapsed().as_secs_f64();
        let batch = harness.last_batch();
        p.store_lookups += if store.is_some() {
            jobs.len() as u64
        } else {
            0
        };
        p.store_hits += batch.store_hits as u64;
        let mut insts = 0u64;
        for o in &outs {
            p.tally.check(o.report().is_some());
            match o {
                JobOutcome::Ok(r) => insts += r.instructions,
                JobOutcome::Failed(f) => {
                    p.failed_cells += 1;
                    p.retries += u64::from(f.retries);
                }
                JobOutcome::Skipped { .. } => p.failed_cells += 1,
            }
        }
        let e = if traced { &mut p.traced } else { &mut p.e2e };
        e.miss_ms.extend(times.0);

        // The hit burst: memoized requests through the same harness
        // path, every cell answered from the side store.
        let t_hits = Instant::now();
        let mut hit_ms = Vec::with_capacity(w.hit_burst);
        for _ in 0..w.hit_burst {
            let req = &s.hit_jobs;
            let t = Instant::now();
            let hit_outs = tracer.span("harness.try_run hit", 0, || hit_harness.try_run(req));
            hit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let hits = hit_harness.last_batch().store_hits;
            p.store_lookups += req.len() as u64;
            p.store_hits += hits as u64;
            p.tally
                .check(hits == req.len() && hit_outs.iter().all(|o| o.report().is_some()));
        }
        let hit_wall = t_hits.elapsed().as_secs_f64();

        let simulated = batch.simulated as f64;
        let e = if traced { &mut p.traced } else { &mut p.e2e };
        e.hit_ms.extend(hit_ms);
        e.cells_per_s.push(simulated / miss_wall);
        e.sim_minsts_per_s.push(insts as f64 / miss_wall / 1e6);
        e.requests_per_s
            .push((1 + w.hit_burst) as f64 / (miss_wall + hit_wall));
        p.rounds.push(Round {
            reports: outs.iter().map(|o| o.report().cloned()).collect(),
            jobs,
        });
        // Keep the first and the latest rounds for the output checks.
        if p.rounds.len() > 2 {
            p.rounds.remove(1);
        }
        drop(harness);
        if let Some((st, dir)) = store {
            drop(st);
            let _ = std::fs::remove_dir_all(&dir);
        }
        if w.store {
            // The next sweep's fresh store, opened outside the timing.
            let dir = scratch_dir(args, "store");
            dirs.push(dir.clone());
            s.next_store = Some((open_store(&dir)?, dir));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if let Some(first) = p.rounds.first() {
        p.reports = first.reports.iter().flatten().cloned().collect();
    }
    Ok(p)
}

/// The committed per-cell digests of the default seed's first round.
fn golden(args: &Args) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(&args.digests).ok()?;
    let doc = Value::parse(&text).ok()?;
    let entry = doc.get(&args.workload)?;
    entry
        .get("cells")?
        .as_arr()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect()
}

fn write_golden(args: &Args, w: &LibWorkload, digests: &[String]) -> Result<(), String> {
    let mut entries = std::fs::read_to_string(&args.digests)
        .ok()
        .and_then(|t| Value::parse(&t).ok())
        .and_then(|v| match v {
            Value::Obj(fields) => Some(fields),
            _ => None,
        })
        .unwrap_or_default();
    entries.retain(|(k, _)| k != w.name);
    entries.push((
        w.name.to_string(),
        Value::Obj(vec![
            ("seed".into(), Value::u64(args.seed)),
            ("insts".into(), Value::u64(w.insts)),
            ("warmup".into(), Value::u64(w.warmup)),
            (
                "cells".into(),
                Value::Arr(digests.iter().map(|d| Value::str(d)).collect()),
            ),
        ]),
    ));
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut text = Value::Obj(entries).render();
    text.push('\n');
    std::fs::write(&args.digests, text).map_err(|e| format!("cannot write digests: {e}"))
}

/// Compares `digests` with the committed list, one check per cell.
pub fn check_golden(
    golden: Option<&[String]>,
    digests: &[String],
    tally: &mut Tally,
    problems: &mut Vec<String>,
) {
    let Some(golden) = golden else {
        tally.check(false);
        problems.push("no committed digest for this workload".into());
        return;
    };
    if golden.len() != digests.len() {
        tally.check(false);
        problems.push(format!(
            "digest count {} differs from the committed {}",
            digests.len(),
            golden.len()
        ));
        return;
    }
    for (i, (d, g)) in digests.iter().zip(golden).enumerate() {
        tally.check(d == g);
        if d != g {
            problems.push(format!(
                "cell {i}: digest {d} differs from the committed {g}"
            ));
        }
    }
}

/// Output checks: committed digests (default seed), rerun determinism
/// and direct re-simulation of sampled cells
/// outside the harness.
fn verify(
    w: &LibWorkload,
    args: &Args,
    rounds: &[&Round],
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let Some(first) = rounds.first() else {
        return Ok(());
    };
    let first_digests: Vec<String> = first
        .reports
        .iter()
        .map(|r| r.as_ref().map_or_else(|| "failed".to_string(), digest))
        .collect();
    if args.seed == DEFAULT_SEED {
        if args.write_digests {
            write_golden(args, w, &first_digests)?;
        } else {
            check_golden(golden(args).as_deref(), &first_digests, tally, problems);
        }
    }
    for round in rounds {
        {
            // Reruns of one grid must repeat bit for bit.
            for (i, r) in round.reports.iter().enumerate() {
                let same = r.as_ref().map(digest).as_ref() == Some(&first_digests[i]);
                tally.check(same);
                if !same {
                    problems.push(format!("cell {i} changed between identical rounds"));
                }
            }
        }
        let n = round.jobs.len();
        for k in 0..w.direct_checks {
            let i = (mix(args.seed ^ (k as u64) << 20) % n as u64) as usize;
            let job = &round.jobs[i];
            let direct = Simulation::builder(&job.program)
                .config(job.config)
                .build()
                .map_err(|e| e.to_string())
                .and_then(|s| s.try_run().map_err(|e| e.to_string()));
            let same = match (&direct, &round.reports[i]) {
                (Ok(d), Some(r)) => digest(d) == digest(r),
                _ => false,
            };
            tally.check(same);
            if !same {
                problems.push(format!(
                    "cell {i} ({} {}) differs from a direct run",
                    job.workload,
                    job.config.strategy.name()
                ));
            }
        }
    }
    Ok(())
}

/// Runs a library workload.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let w = LibWorkload::named(&args.workload)
        .expect("dispatched by name")
        .seeded(args.seed);
    let tracer = Tracer::new(args.trace);
    let mut dirs = Vec::new();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let made = tracer.span("setup", 0, || setup(&w, args, &tracer, &mut dirs))?;
        setup_s.push(t.elapsed().as_secs_f64());
        s = Some(made);
    }
    let mut s = s.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut record = Vec::new();
    let mut phase = timed_phase(&w, args, &mut s, args.seconds, &tracer, &mut dirs)?;
    let rounds: Vec<&Round> = phase.rounds.iter().collect();
    verify(&w, args, &rounds, &mut tally, &mut problems)?;
    tally.add(phase.tally);
    record.push((
        "rounds".into(),
        Value::u64((phase.e2e.cells_per_s.len() + phase.traced.cells_per_s.len()) as u64),
    ));
    record.push(("cells_failed".into(), Value::u64(phase.failed_cells)));
    record.push(("cell_retries".into(), Value::u64(phase.retries)));
    let result = if args.trace {
        let mut metrics = EndToEnd::overhead(&phase.traced, &phase.e2e);
        let prog_gen: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|sp| sp.layer() == "workload.program")
            .map(|sp| sp.dur_us / 1e3)
            .collect();
        metrics.push(Metric::new(
            "workload.program_gen_ms",
            crate::stats::mean(&prog_gen),
            "ms",
            prog_gen.len(),
        ));
        let programs: Vec<(String, Arc<Program>)> = w
            .benches
            .iter()
            .map(|b| (b.to_string(), Arc::clone(&s.programs[*b])))
            .collect();
        metrics.extend(replay::probes(
            &programs,
            &w.cell_spec(),
            &phase.reports,
            &args.out,
            &tracer,
        ));
        metrics.push(Metric::new(
            "harness.store_hit_ratio",
            phase.store_hits as f64 / phase.store_lookups.max(1) as f64,
            "ratio",
            phase.store_lookups as usize,
        ));
        let probe = crate::serve::probe(args, &w.benches, &w.cell_spec(), &tracer)?;
        tally.add(probe.tally);
        problems.extend(probe.problems);
        metrics.extend(probe.metrics);
        record.push((
            "trace_file".into(),
            Value::str(&replay::write_trace(args, &tracer)?),
        ));
        record.push(("layer_self_ms".into(), replay::layer_table(&tracer)));
        metrics
    } else {
        record.push((
            "setup_s_samples".into(),
            Value::Arr(setup_s.iter().map(|&x| Value::f64(x)).collect()),
        ));
        phase.e2e.setup_s = setup_s;
        phase.e2e.peak_rss_mb = peak_rss_mb("self");
        phase.e2e.metrics()
    };
    drop(s);
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    record.push((
        "workload_shape".into(),
        Value::Obj(vec![
            (
                "benches".into(),
                Value::Arr(w.benches.iter().map(|b| Value::str(b)).collect()),
            ),
            (
                "cells_per_sweep".into(),
                Value::u64(
                    w.spec(&w.benches, w.insts, w.warmup)
                        .expand()
                        .map_or(0, |p| p.jobs.len() as u64),
                ),
            ),
            ("insts".into(), Value::u64(w.insts)),
            ("warmup_architectural_only".into(), Value::u64(w.warmup)),
            ("jobs".into(), Value::u64(w.jobs as u64)),
            (
                "hit_requests_per_round".into(),
                Value::u64(w.hit_burst as u64),
            ),
        ]),
    ));
    Ok(RunOutput {
        metrics: result,
        tally,
        record,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_digest_is_caught() {
        let golden = vec![
            "00000000000000aa".to_string(),
            "00000000000000bb".to_string(),
        ];
        let mut tally = Tally::default();
        let mut problems = Vec::new();
        check_golden(Some(&golden), &golden, &mut tally, &mut problems);
        assert_eq!((tally.attempted, tally.failed), (2, 0));

        let mut corrupted = golden.clone();
        corrupted[1] = "00000000000000bc".into();
        let mut tally = Tally::default();
        check_golden(Some(&corrupted), &golden, &mut tally, &mut problems);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(problems.len(), 1);

        let mut tally = Tally::default();
        check_golden(None, &golden, &mut tally, &mut problems);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn seeds_move_the_budgets_only() {
        let a = LibWorkload::named("warm-grid").unwrap().seeded(1);
        let b = LibWorkload::named("warm-grid").unwrap().seeded(2);
        let again = LibWorkload::named("warm-grid").unwrap().seeded(1);
        assert_eq!((a.insts, a.warmup), (again.insts, again.warmup));
        assert_ne!((a.insts, a.warmup), (b.insts, b.warmup));
        assert!(a.warmup >= 1_000_000 && a.warmup < 1_004_096);
        assert_eq!(LibWorkload::named("cold-long").unwrap().seeded(7).warmup, 0);
    }
}
