//! Self-timed microbenchmarks of the simulator's hot components.
//!
//! The workspace builds offline, so this is a plain `harness = false`
//! binary rather than a Criterion bench: each case runs a warmup pass
//! and then reports the best-of-N wall time. Run with `cargo bench
//! --bench microbench`.

use ctcp_core::{Engine, EngineConfig, FetchedInst, SteeringMode, TickResult};
use ctcp_frontend::{BranchPredictor, HybridPredictor};
use ctcp_isa::{Executor, Instruction, Opcode, Reg};
use ctcp_memory::{AccessKind, DataMemory, MemoryConfig};
use ctcp_sim::{SimConfig, Simulation, Strategy};
use ctcp_tracecache::{ProfileFields, TraceCache, TraceCacheConfig};
use ctcp_workload::Benchmark;
use std::time::Instant;

/// Runs `f` `reps` times (after one warmup) and prints the fastest rep.
fn bench(name: &str, reps: u32, mut f: impl FnMut() -> u64) {
    let mut sink = f(); // warmup; keep the result alive
    let mut best = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        sink = sink.wrapping_add(f());
        let dt = t0.elapsed();
        best = Some(best.map_or(dt, |b: std::time::Duration| b.min(dt)));
    }
    println!(
        "{name:<32} {:>10.3} ms  (best of {reps}, sink {})",
        best.unwrap().as_secs_f64() * 1e3,
        sink & 1
    );
}

fn fetched(seq: u64, group: u64, slot: usize, inst: Instruction) -> FetchedInst {
    FetchedInst {
        seq,
        pc: 0x1000 + seq * 4,
        index: seq as u32,
        inst,
        mem_addr: None,
        taken: None,
        slot: slot as u8,
        group,
        from_tc: false,
        tc_loc: None,
        profile: ProfileFields::default(),
        mispredicted: false,
    }
}

/// Times `cycles` engine ticks under a synthetic fetch stream.
fn sched_bench(name: &str, cycles: u64, make: impl Fn(usize) -> Instruction + Copy) {
    bench(name, 5, || {
        let mut engine = Engine::new(EngineConfig::default(), SteeringMode::Slot);
        let mut out = TickResult::default();
        let (mut seq, mut group) = (0u64, 0u64);
        let mut retired = 0u64;
        for now in 0..cycles {
            if engine.can_accept(16) {
                let g: [FetchedInst; 16] =
                    std::array::from_fn(|i| fetched(seq + i as u64, group, i, make(i)));
                engine.accept(&g, now);
                seq += 16;
                group += 1;
            }
            engine.tick_into(now, &mut out);
            retired += out.retired.len() as u64;
        }
        retired
    });
}

fn main() {
    let program = Benchmark::by_name("gzip").unwrap().program();

    bench("executor_10k_insts", 10, || {
        let ex = Executor::new(&program);
        ex.take(10_000).count() as u64
    });

    bench("hybrid_predictor_10k_updates", 10, || {
        let mut p = HybridPredictor::default();
        let mut agree = 0u64;
        for i in 0..10_000u64 {
            let pc = 0x1000 + (i % 64) * 4;
            let taken = (i / (1 + pc % 7)) % 2 == 0;
            if p.predict(pc) == taken {
                agree += 1;
            }
            p.update(pc, taken);
        }
        agree
    });

    bench("dcache_10k_accesses", 10, || {
        let mut m = DataMemory::new(MemoryConfig::default());
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_add(
                m.access(AccessKind::Load, (i * 72) % (1 << 18), i)
                    .ready_cycle,
            );
        }
        acc
    });

    bench("trace_cache_lookup_miss", 10, || {
        let mut tc = TraceCache::new(TraceCacheConfig::default());
        let mut hits = 0u64;
        for i in 0..100_000u64 {
            if tc.lookup(0x1000 + (i % 4096) * 4, |_| true).is_some() {
                hits += 1;
            }
        }
        hits
    });

    // Scheduler microbenches: synthetic fetch streams, each isolating
    // one cost of the event-driven scheduler.

    // ROB pressure: long-latency producers keep the window full; the
    // indexed path touches only the instructions that change state.
    sched_bench("sched_rob_pressure_20k", 20_000, |i| {
        if i == 0 {
            Instruction::new(Opcode::Div, Some(Reg::int(0)), Some(Reg::int(1)), None, 0)
        } else {
            Instruction::new(
                Opcode::Add,
                Some(Reg::int((i % 8) as u8)),
                Some(Reg::int(0)),
                None,
                0,
            )
        }
    });

    // Wakeup fan-out: fifteen consumers per group all wait on one div,
    // stressing the wakeup-list drain.
    sched_bench("sched_wakeup_fanout_20k", 20_000, |i| {
        if i == 0 {
            Instruction::new(Opcode::Div, Some(Reg::int(7)), Some(Reg::int(1)), None, 0)
        } else {
            Instruction::new(
                Opcode::Add,
                Some(Reg::int((i % 4) as u8)),
                Some(Reg::int(7)),
                Some(Reg::int(7)),
                0,
            )
        }
    });

    // Completion pop: independent ops with mixed latencies spread
    // completions across cycles, stressing the completion wheel.
    sched_bench("sched_completion_pop_20k", 20_000, |i| {
        let op = match i % 3 {
            0 => Opcode::Add,
            1 => Opcode::Mul,
            _ => Opcode::Div,
        };
        Instruction::new(op, Some(Reg::int((i % 8) as u8)), None, None, 0)
    });

    for strategy in [Strategy::Baseline, Strategy::Fdrt { pinning: true }] {
        bench(&format!("simulate_20k[{}]", strategy.name()), 3, || {
            let cfg = SimConfig {
                strategy,
                max_insts: 20_000,
                ..SimConfig::default()
            };
            Simulation::builder(&program)
                .config(cfg)
                .build()
                .unwrap()
                .run()
                .cycles
        });
    }
}
