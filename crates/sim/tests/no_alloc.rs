//! Whole-simulation allocation audit: once its pools and scratch buffers
//! have grown, the `Simulation` cycle loop — fetch, delivery, engine
//! tick, retire, fill unit, retire-time assignment and trace install —
//! must not touch the heap.
//!
//! Runs are deterministic, so the audit measures *marginal* allocations:
//! a cell of `LONG` instructions minus the same cell at `SHORT`
//! instructions, divided by the difference. Build, warm-up growth and
//! the final report cancel out; only per-instruction work remains.

use ctcp_sim::{Simulation, Strategy};
use ctcp_workload::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation (and reallocation) passing through the
/// global allocator; frees are not interesting here.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SHORT: u64 = 20_000;
const LONG: u64 = 40_000;
/// Allowed marginal allocations per simulated instruction.
const BOUND: f64 = 0.02;

/// Allocations made while building and running one cell.
fn allocs_of(program: &ctcp_isa::Program, strategy: Strategy, insts: u64) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = Simulation::builder(program)
        .strategy(strategy)
        .max_insts(insts)
        .build()
        .expect("valid configuration")
        .run();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(report.instructions, insts, "cell must run its full budget");
    after - before
}

// One test function: the counter is process-global, so a second test
// running on a parallel thread would leak its allocations into this one.
#[test]
fn steady_state_simulation_does_not_allocate() {
    let strategies = [
        Strategy::Baseline,
        Strategy::IssueTime { latency: 4 },
        Strategy::Friendly { middle_bias: false },
        Strategy::Friendly { middle_bias: true },
        Strategy::Fdrt { pinning: true },
    ];
    let mut failures = Vec::new();
    for bench in ["gzip", "twolf"] {
        let program = Benchmark::by_name(bench)
            .expect("suite benchmark")
            .program();
        for strategy in strategies {
            let short = allocs_of(&program, strategy, SHORT);
            let long = allocs_of(&program, strategy, LONG);
            let per_inst = long.saturating_sub(short) as f64 / (LONG - SHORT) as f64;
            eprintln!(
                "{bench:>6} {:<14} {short:>7} / {long:>7} allocs -> {per_inst:.4} per inst",
                strategy.name()
            );
            if per_inst > BOUND {
                failures.push(format!("{bench}/{}: {per_inst:.4}", strategy.name()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "marginal allocations per instruction above {BOUND}: {failures:?}"
    );
}
