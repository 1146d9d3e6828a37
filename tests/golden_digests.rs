//! Golden digests: the committed fingerprint of the engine's observable
//! output.
//!
//! Every cell below runs one simulation with a metrics-only recorder
//! attached and hashes what a user or a cache could ever see of it: the
//! serialized `SimReport` and the recorder's full `Metrics` (every
//! counter and every histogram bucket). The digests are committed in
//! `tests/golden_digests.txt`, one line per cell, so any change to the
//! timing model, the scheduler or the probes surfaces as a named diff
//! line.
//!
//! The cells are a covering design rather than the full product:
//!
//! - cold (no warmup, [`COLD_INSTS`] timed instructions): every strategy
//!   on gzip and twolf at the paper's 4-cluster linear machine (the cells
//!   the scan-scheduler oracle used to compare), plus one cell for each
//!   other focus benchmark in another geometry;
//! - warmed ([`WARMUP`] fast-forwarded, then [`WARM_INSTS`] timed):
//!   every strategy in every geometry ({2,4,8} clusters × linear, ring,
//!   fully connected), the benchmark rotating over the six focus presets.
//!
//! Cell configurations come from `SweepSpec::cell_config`, so the corpus
//! exercises the same front-end scaling as `ctcp sweep`.
//!
//! When a behaviour change is intended, the failing test writes the
//! recomputed corpus next to the test binaries and prints its path;
//! review the named diff lines, then copy that file over
//! `tests/golden_digests.txt`.

use ctcp::harness::SweepSpec;
use ctcp::sim::{Checkpoint, Simulation, Strategy, Topology};
use ctcp::telemetry::{Probe, Recorder, RecorderConfig};
use ctcp::workload::Benchmark;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The committed corpus.
const CORPUS: &str = include_str!("golden_digests.txt");

/// Header of the corpus file (comment lines, ignored when comparing).
const HEADER: &str = "\
# Golden digests of the engine's observable output; checked by tests/golden_digests.rs.
# One cell per line: bench strategy clusters topology insts warmup digest.
# digest = FNV-1a 64 over SimReport::to_json(), a newline, and the JSON of a
# metrics-only recorder's Metrics. Regenerate by copying the file the failing
# test writes (its path is in the failure message).
";

/// Timed instructions of a cold cell. Shorter cold cells collapse: the
/// presets behave alike early on, so strategies share digests.
const COLD_INSTS: u64 = 20_000;
/// Functional warmup of a warmed cell.
const WARMUP: u64 = 50_000;
/// Timed instructions of a warmed cell.
const WARM_INSTS: u64 = 2_000;

const STRATEGIES: [Strategy; 8] = [
    Strategy::Baseline,
    Strategy::IssueTime { latency: 0 },
    Strategy::IssueTime { latency: 4 },
    Strategy::Friendly { middle_bias: false },
    Strategy::Friendly { middle_bias: true },
    Strategy::Fdrt { pinning: true },
    Strategy::Fdrt { pinning: false },
    Strategy::FdrtIntraOnly,
];

const TOPOLOGIES: [Topology; 3] = [Topology::Linear, Topology::Ring, Topology::FullyConnected];

const FOCUS: [&str; 6] = ["bzip2", "eon", "gzip", "perlbmk", "twolf", "vpr"];

/// One corpus cell.
struct Cell {
    bench: &'static str,
    strategy: Strategy,
    clusters: u8,
    topology: Topology,
    insts: u64,
    warmup: u64,
}

fn topology_name(t: Topology) -> &'static str {
    match t {
        Topology::Linear => "linear",
        Topology::Ring => "ring",
        Topology::FullyConnected => "full",
    }
}

/// Every geometry of the sweep grid, in a fixed order.
fn geometries() -> impl Iterator<Item = (u8, Topology)> {
    [2u8, 4, 8]
        .into_iter()
        .flat_map(|c| TOPOLOGIES.into_iter().map(move |t| (c, t)))
}

/// The covering design described in the module docs.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in ["gzip", "twolf"] {
        for strategy in STRATEGIES {
            cells.push(Cell {
                bench,
                strategy,
                clusters: 4,
                topology: Topology::Linear,
                insts: COLD_INSTS,
                warmup: 0,
            });
        }
    }
    let cold_others = [
        ("bzip2", STRATEGIES[5], 8, Topology::Ring),
        ("eon", STRATEGIES[3], 2, Topology::Linear),
        ("perlbmk", STRATEGIES[2], 8, Topology::FullyConnected),
        ("vpr", STRATEGIES[7], 4, Topology::Ring),
    ];
    for (bench, strategy, clusters, topology) in cold_others {
        cells.push(Cell {
            bench,
            strategy,
            clusters,
            topology,
            insts: COLD_INSTS,
            warmup: 0,
        });
    }
    for (gi, (clusters, topology)) in geometries().enumerate() {
        for (si, strategy) in STRATEGIES.into_iter().enumerate() {
            cells.push(Cell {
                bench: FOCUS[(si + gi) % FOCUS.len()],
                strategy,
                clusters,
                topology,
                insts: WARM_INSTS,
                warmup: WARMUP,
            });
        }
    }
    cells
}

/// FNV-1a 64 over `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs every cell and renders the corpus, header included.
fn compute_corpus() -> String {
    let programs: BTreeMap<&str, _> = FOCUS
        .iter()
        .map(|&b| (b, Benchmark::by_name(b).expect("focus preset").program()))
        .collect();
    let checkpoints: BTreeMap<&str, Checkpoint<'_>> = programs
        .iter()
        .map(|(&b, p)| (b, Checkpoint::capture(p, WARMUP)))
        .collect();
    let mut out = String::from(HEADER);
    for cell in cells() {
        let spec = SweepSpec {
            insts: cell.insts,
            warmup: cell.warmup,
            ..SweepSpec::default()
        };
        let config = spec.cell_config(cell.strategy, cell.clusters, cell.topology);
        let recorder = Rc::new(Recorder::new(RecorderConfig::metrics_only()));
        let mut builder = Simulation::builder(&programs[cell.bench])
            .config(config)
            .probe(Rc::clone(&recorder) as Rc<dyn Probe>);
        if cell.warmup > 0 {
            builder = builder.resume_from(&checkpoints[cell.bench]);
        }
        let report = builder.build().expect("valid sweep geometry").run();
        let metrics = recorder.metrics().to_value().render();
        let digest = fnv1a(&format!("{}\n{metrics}", report.to_json()));
        out.push_str(&format!(
            "{} {} {} {} {} {} {digest:016x}\n",
            cell.bench,
            cell.strategy.name(),
            cell.clusters,
            topology_name(cell.topology),
            cell.insts,
            cell.warmup,
        ));
    }
    out
}

/// Cell lines keyed by everything but the digest.
fn by_cell(corpus: &str) -> BTreeMap<String, String> {
    corpus
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (cell, digest) = l.rsplit_once(' ').unwrap_or((l, ""));
            (cell.to_string(), digest.to_string())
        })
        .collect()
}

#[test]
fn engine_output_matches_the_committed_corpus() {
    let computed = compute_corpus();
    let want = by_cell(CORPUS);
    let got = by_cell(&computed);
    let mut diffs = Vec::new();
    for (cell, digest) in &want {
        match got.get(cell) {
            None => diffs.push(format!("missing cell: {cell}")),
            Some(d) if d != digest => diffs.push(format!("changed: {cell}: {digest} -> {d}")),
            Some(_) => {}
        }
    }
    for cell in got.keys().filter(|c| !want.contains_key(*c)) {
        diffs.push(format!("extra cell: {cell}"));
    }
    if !diffs.is_empty() {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_digests.txt");
        std::fs::write(&path, &computed).expect("write the recomputed corpus");
        panic!(
            "{} of {} golden cells differ:\n{}\nrecomputed corpus written to {}",
            diffs.len(),
            got.len().max(want.len()),
            diffs.join("\n"),
            path.display()
        );
    }
}

#[test]
fn the_covering_design_covers_the_grid() {
    let cells = cells();
    for strategy in STRATEGIES {
        for (clusters, topology) in geometries() {
            assert!(
                cells.iter().any(|c| c.strategy == strategy
                    && c.clusters == clusters
                    && c.topology == topology),
                "{} missing at {clusters}/{}",
                strategy.name(),
                topology_name(topology)
            );
        }
    }
    for bench in FOCUS {
        assert!(cells.iter().any(|c| c.bench == bench && c.warmup == 0));
        assert!(cells.iter().any(|c| c.bench == bench && c.warmup > 0));
    }
    assert!(cells.iter().all(|c| c.warmup > 0 || c.insts >= COLD_INSTS));
}
