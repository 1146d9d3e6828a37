//! End-to-end properties of the experiment harness over real
//! benchmarks: parallel execution must be invisible in the output, and
//! the memoizing result store must make a second identical run free.

use ctcp::harness::{CellScheduler, Harness, Job, ResultStore};
use ctcp::sim::{SimConfig, SimReport, Simulation, Strategy};
use ctcp::workload::Benchmark;
use std::path::PathBuf;
use std::sync::Arc;

const INSTS: u64 = 8_000;

/// The grid both tests sweep: two benchmarks × three strategies.
fn grid() -> Vec<Job> {
    let mut jobs = Vec::new();
    for name in ["gzip", "twolf"] {
        let bench = Benchmark::by_name(name).expect("preset exists");
        let program = Arc::new(bench.program());
        for strategy in [
            Strategy::Baseline,
            Strategy::IssueTime { latency: 4 },
            Strategy::Fdrt { pinning: true },
        ] {
            let config = SimConfig {
                strategy,
                max_insts: INSTS,
                ..SimConfig::default()
            };
            jobs.push(Job::new(name, Arc::clone(&program), config));
        }
    }
    jobs
}

/// Renders reports the way an experiment table would: every numeric
/// field participates, so any divergence between runs is caught.
fn table(jobs: &[Job], reports: &[SimReport]) -> String {
    jobs.iter()
        .zip(reports)
        .map(|(j, r)| {
            format!(
                "{} {} cycles={} ipc={:.6} tc={:.6} intra={:.6} dist={:.6}\n",
                j.workload,
                r.strategy,
                r.cycles,
                r.ipc,
                r.tc_inst_fraction(),
                r.metrics.fwd.intra_cluster_fraction(),
                r.metrics.fwd.mean_distance()
            )
        })
        .collect()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctcp-e2e-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn tables_are_byte_identical_across_job_counts() {
    let jobs = grid();
    let serial = Harness::new().jobs(1).progress(false).run(&jobs);
    let parallel = Harness::new().jobs(8).progress(false).run(&jobs);
    assert_eq!(table(&jobs, &serial), table(&jobs, &parallel));
}

#[test]
fn warm_store_resume_hits_every_cell() {
    let dir = scratch_dir("resume");
    let jobs = grid();

    let mut cold = Harness::new()
        .jobs(4)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    let cold_table = table(&jobs, &cold.run(&jobs));
    let cold_stats = cold.last_batch();
    assert_eq!(cold_stats.simulated, jobs.len());
    assert_eq!(cold_stats.store_hits, 0);
    let store = cold.store_stats().unwrap();
    assert_eq!(store.puts, jobs.len() as u64);

    // A fresh harness (fresh process, as far as the store can tell)
    // must answer the whole grid from disk and simulate nothing.
    let mut warm = Harness::new()
        .jobs(4)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    let warm_table = table(&jobs, &warm.run(&jobs));
    let warm_stats = warm.last_batch();
    assert_eq!(warm_stats.simulated, 0);
    assert_eq!(warm_stats.store_hits, jobs.len());
    let store = warm.store_stats().unwrap();
    assert_eq!(store.hits, jobs.len() as u64);
    assert_eq!(store.puts, 0);

    assert_eq!(cold_table, warm_table);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partial_store_resumes_only_whats_missing() {
    let dir = scratch_dir("partial");
    let jobs = grid();

    // Simulate an interrupted sweep: only the first half was stored.
    let mut first = Harness::new()
        .jobs(2)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    first.run(&jobs[..3]);

    let mut resumed = Harness::new()
        .jobs(2)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    let reports = resumed.run(&jobs);
    assert_eq!(resumed.last_batch().store_hits, 3);
    assert_eq!(resumed.last_batch().simulated, 3);
    assert_eq!(reports.len(), jobs.len());

    // The resumed table equals a from-scratch serial run.
    let scratch = Harness::new().jobs(1).progress(false).run(&jobs);
    assert_eq!(table(&jobs, &reports), table(&jobs, &scratch));
    std::fs::remove_dir_all(&dir).ok();
}

/// One request whose cells switch between two programs in runs of one
/// and two, every cell a distinct strategy, all sharing one budget.
/// gzip and twolf retire identically for their first ~8k instructions,
/// so budgets must reach past that for a mixed-up program to show.
fn interleaved(warmup: u64, insts: u64) -> Vec<Job> {
    let gzip = Arc::new(Benchmark::by_name("gzip").unwrap().program());
    let twolf = Arc::new(Benchmark::by_name("twolf").unwrap().program());
    let cells = [
        ("gzip", Strategy::Baseline),
        ("twolf", Strategy::Baseline),
        ("twolf", Strategy::IssueTime { latency: 4 }),
        ("gzip", Strategy::Friendly { middle_bias: false }),
        ("gzip", Strategy::Fdrt { pinning: true }),
        ("twolf", Strategy::Fdrt { pinning: true }),
        ("gzip", Strategy::FdrtIntraOnly),
    ];
    cells
        .iter()
        .map(|&(name, strategy)| {
            let program = if name == "gzip" { &gzip } else { &twolf };
            let config = SimConfig {
                strategy,
                max_insts: insts,
                warmup_insts: warmup,
                ..SimConfig::default()
            };
            Job::new(name, Arc::clone(program), config)
        })
        .collect()
}

fn assert_direct(jobs: &[Job], reports: &[SimReport], how: &str) {
    assert_eq!(reports.len(), jobs.len());
    for (job, report) in jobs.iter().zip(reports) {
        let direct = Simulation::builder(&job.program)
            .config(job.config)
            .build()
            .unwrap()
            .try_run()
            .unwrap();
        assert_eq!(
            report.to_json(),
            direct.to_json(),
            "{how}: {}/{} (warmup {}) diverged from a direct run",
            job.workload,
            report.strategy,
            job.config.warmup_insts
        );
    }
}

#[test]
fn program_switches_rebind_the_runner_without_changing_a_byte() {
    // Workers keep one runner bound to a program across consecutive
    // cells and rebind it when the program changes; checkpoint reuse,
    // rebinding and arena carry-over must all be invisible.
    let requests = [interleaved(0, 20_000), interleaved(20_000, 3_000)];
    for jobs in &requests {
        for workers in [1, 2] {
            let reports = Harness::new().jobs(workers).progress(false).run(jobs);
            assert_direct(jobs, &reports, &format!("jobs({workers})"));
        }
    }
    // Both requests at once on one shared pool: their cells interleave
    // on the workers, so programs switch between requests too.
    let sched = CellScheduler::start(2, 0);
    std::thread::scope(|scope| {
        for jobs in &requests {
            let sched = sched.clone();
            scope.spawn(move || {
                let mut h = Harness::new().progress(false).with_scheduler(sched);
                assert_direct(jobs, &h.run(jobs), "shared scheduler");
            });
        }
    });
    sched.shutdown();
}
