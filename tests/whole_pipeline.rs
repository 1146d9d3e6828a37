//! Whole-pipeline integration tests: invariants that must hold across
//! the fetch → execute → retire → fill loop, for every strategy.

use ctcp::isa::{Executor, ProgramBuilder, Reg};
use ctcp::sim::{SimConfig, SimReport, Simulation, Strategy};
use ctcp::workload::Benchmark;

const ALL_STRATEGIES: [Strategy; 7] = [
    Strategy::Baseline,
    Strategy::IssueTime { latency: 0 },
    Strategy::IssueTime { latency: 4 },
    Strategy::Friendly { middle_bias: false },
    Strategy::Friendly { middle_bias: true },
    Strategy::Fdrt { pinning: true },
    Strategy::Fdrt { pinning: false },
];

/// Local shim over the builder API with the old free-function shape.
fn run_with_strategy(p: &ctcp::isa::Program, strategy: Strategy, max_insts: u64) -> SimReport {
    Simulation::builder(p)
        .strategy(strategy)
        .max_insts(max_insts)
        .build()
        .expect("valid default geometry")
        .run()
}

/// A small program mixing arithmetic, memory, calls, and loops.
fn mixed_program() -> ctcp::isa::Program {
    let mut b = ProgramBuilder::new();
    let func = b.label();
    b.movi(Reg::R1, 0);
    b.movi(Reg::R2, 400);
    b.movi(Reg::R10, 0x8000);
    let top = b.here();
    b.call(func);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.bind(func);
    b.slli(Reg::R3, Reg::R1, 3);
    b.add(Reg::R3, Reg::R3, Reg::R10);
    b.ld(Reg::R4, Reg::R3, 0);
    b.add(Reg::R4, Reg::R4, Reg::R1);
    b.st(Reg::R4, Reg::R3, 0);
    b.mul(Reg::R5, Reg::R4, Reg::R1);
    b.ret();
    b.build()
}

#[test]
fn every_strategy_retires_the_whole_program() {
    let p = mixed_program();
    let expected = Executor::new(&p).count() as u64;
    for s in ALL_STRATEGIES {
        let r = run_with_strategy(&p, s, u64::MAX / 2);
        assert_eq!(
            r.instructions,
            expected,
            "{} lost or duplicated instructions",
            s.name()
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let p = mixed_program();
    for s in [Strategy::Baseline, Strategy::Fdrt { pinning: true }] {
        let a = run_with_strategy(&p, s, 10_000);
        let b = run_with_strategy(&p, s, 10_000);
        assert_eq!(a.cycles, b.cycles, "{}", s.name());
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.metrics.insts_from_tc, b.metrics.insts_from_tc);
        assert_eq!(a.metrics.cond_mispredicts, b.metrics.cond_mispredicts);
    }
}

#[test]
fn ipc_stays_within_machine_width() {
    let p = mixed_program();
    for s in ALL_STRATEGIES {
        let r = run_with_strategy(&p, s, 20_000);
        assert!(r.ipc > 0.05, "{} ipc {:.3} absurdly low", s.name(), r.ipc);
        assert!(r.ipc <= 16.0, "{} ipc {:.3} beyond width", s.name(), r.ipc);
    }
}

#[test]
fn trace_cache_dominates_steady_state_loops() {
    let p = mixed_program();
    let r = run_with_strategy(&p, Strategy::Baseline, 4_000);
    assert!(
        r.tc_inst_fraction() > 0.6,
        "tc fraction only {:.2}",
        r.tc_inst_fraction()
    );
    assert!(r.avg_trace_size() >= 4.0);
}

#[test]
fn mispredictable_branches_cost_cycles() {
    // Same loop body; one version branches on an lcg bit (hard), the
    // other on a constant condition (easy).
    let build = |hard: bool| {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 0);
        b.movi(Reg::R2, 3_000);
        b.movi(Reg::R9, 12345);
        let top = b.here();
        b.slli(Reg::R3, Reg::R9, 13);
        b.xor(Reg::R9, Reg::R9, Reg::R3);
        b.srli(Reg::R3, Reg::R9, 7);
        b.xor(Reg::R9, Reg::R9, Reg::R3);
        let skip = b.label();
        if hard {
            b.andi(Reg::R4, Reg::R9, 1);
        } else {
            b.movi(Reg::R4, 0);
        }
        b.bne(Reg::R4, Reg::ZERO, skip);
        b.addi(Reg::R5, Reg::R5, 1);
        b.bind(skip);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.build()
    };
    let easy = build(false);
    let hard = build(true);
    let re = run_with_strategy(&easy, Strategy::Baseline, 1_000_000);
    let rh = run_with_strategy(&hard, Strategy::Baseline, 1_000_000);
    assert!(
        re.mispredict_rate() < 0.02,
        "easy {:.3}",
        re.mispredict_rate()
    );
    assert!(
        rh.mispredict_rate() > 0.2,
        "hard {:.3}",
        rh.mispredict_rate()
    );
    assert!(rh.ipc < re.ipc, "mispredictions should cost throughput");
}

#[test]
fn fdrt_improves_forwarding_locality_on_focus_benchmarks() {
    for b in Benchmark::spec_focus() {
        let p = b.program();
        let base = run_with_strategy(&p, Strategy::Baseline, 40_000);
        let fdrt = run_with_strategy(&p, Strategy::Fdrt { pinning: true }, 40_000);
        assert!(
            fdrt.metrics.fwd.intra_cluster_fraction() > base.metrics.fwd.intra_cluster_fraction(),
            "{}: fdrt {:.3} <= base {:.3}",
            b.name,
            fdrt.metrics.fwd.intra_cluster_fraction(),
            base.metrics.fwd.intra_cluster_fraction()
        );
        assert!(
            fdrt.metrics.fwd.mean_distance() < base.metrics.fwd.mean_distance(),
            "{}: fdrt distance {:.3} >= base {:.3}",
            b.name,
            fdrt.metrics.fwd.mean_distance(),
            base.metrics.fwd.mean_distance()
        );
    }
}

#[test]
fn pinning_reduces_chain_migration() {
    for b in Benchmark::spec_focus() {
        let p = b.program();
        let pin = run_with_strategy(&p, Strategy::Fdrt { pinning: true }, 60_000);
        let nopin = run_with_strategy(&p, Strategy::Fdrt { pinning: false }, 60_000);
        let sp = pin.metrics.fdrt.expect("stats");
        let sn = nopin.metrics.fdrt.expect("stats");
        assert!(
            sp.chain_migration_rate() < sn.chain_migration_rate(),
            "{}: pin {:.3} >= nopin {:.3}",
            b.name,
            sp.chain_migration_rate(),
            sn.chain_migration_rate()
        );
    }
}

#[test]
fn ideal_wide_machine_beats_narrow_machine() {
    // A 16-wide clustered machine can lose to an 8-wide one because its
    // forwarding distances triple — the communication/width trade-off
    // clustering papers revolve around. But with forwarding latency
    // idealised away, the wide machine must win.
    let bench = Benchmark::by_name("gzip").unwrap();
    let p = bench.program();
    let mut wide_ideal = SimConfig {
        strategy: Strategy::Baseline,
        max_insts: 40_000,
        ..SimConfig::default()
    };
    wide_ideal.engine.overrides.no_forward_latency = true;
    let wide = Simulation::builder(&p)
        .config(wide_ideal)
        .build()
        .unwrap()
        .run();

    let mut narrow_cfg = SimConfig {
        strategy: Strategy::Baseline,
        max_insts: 40_000,
        ..SimConfig::default()
    };
    narrow_cfg.engine.geometry.clusters = 2;
    narrow_cfg.engine.rename_width = 8;
    narrow_cfg.engine.retire_width = 8;
    narrow_cfg.engine.rob_entries = 64;
    let narrow = Simulation::builder(&p)
        .config(narrow_cfg)
        .build()
        .unwrap()
        .run();
    assert!(
        narrow.ipc < wide.ipc,
        "8-wide {:.3} should lose to an ideal 16-wide {:.3}",
        narrow.ipc,
        wide.ipc
    );
}

#[test]
fn zero_hop_latency_is_an_upper_bound() {
    let bench = Benchmark::by_name("twolf").unwrap();
    let p = bench.program();
    for s in [Strategy::Baseline, Strategy::Fdrt { pinning: true }] {
        let real = run_with_strategy(&p, s, 40_000);
        let mut c = SimConfig {
            strategy: s,
            max_insts: 40_000,
            ..SimConfig::default()
        };
        c.engine.overrides.no_forward_latency = true;
        let ideal = Simulation::builder(&p).config(c).build().unwrap().run();
        assert!(
            ideal.cycles <= real.cycles,
            "{}: ideal {} > real {}",
            s.name(),
            ideal.cycles,
            real.cycles
        );
    }
}

#[test]
fn all_suite_benchmarks_simulate_cleanly() {
    for b in Benchmark::spec_all()
        .into_iter()
        .chain(Benchmark::mediabench())
    {
        let p = b.program();
        let r = run_with_strategy(&p, Strategy::Fdrt { pinning: true }, 8_000);
        assert_eq!(r.instructions, 8_000, "{} truncated", b.name);
        assert!(r.ipc > 0.05, "{} ipc {:.3}", b.name, r.ipc);
    }
}

/// `ctcp sweep --benches mcf --strategies base --clusters 8 --insts 20000`
/// livelocks: the ROB head is a load whose cluster's stations are empty,
/// but younger loads dispatched from other clusters hold every
/// load-queue entry. The watchdog's message must name that resource,
/// not only the head's stage.
#[test]
fn livelock_message_names_the_resource_the_head_waits_on() {
    use ctcp::harness::SweepSpec;
    use ctcp::sim::{HeadWait, SimError, Topology};

    let program = Benchmark::by_name("mcf").expect("preset").program();
    let cfg = SweepSpec {
        insts: 20_000,
        ..SweepSpec::default()
    }
    .cell_config(Strategy::Baseline, 8, Topology::Linear);
    let err = Simulation::builder(&program)
        .config(cfg)
        .watchdog_stall_limit(5_000)
        .build()
        .expect("valid 8-cluster geometry")
        .try_run()
        .expect_err("the 8-cluster mcf cell livelocks on the load queue");
    let message = err.to_string();
    let SimError::Livelock { diagnostic, .. } = err else {
        panic!("expected a livelock, got: {message}");
    };
    assert_eq!(
        diagnostic.head_waits_on,
        Some(HeadWait::LoadQueueEntry),
        "{message}"
    );
    assert!(message.contains("AwaitDispatch"), "{message}");
    assert!(message.contains("blocked on load-queue entry"), "{message}");
}
