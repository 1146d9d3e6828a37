//! The cycle loop: fetch → deliver → execute → retire → fill.

use crate::builder::SimBuilder;
use crate::report::{MetricsSnapshot, SimReport};
use crate::stream::InstStream;
use crate::{SimConfig, SimError};
use ctcp_core::assign::RetireTimeStrategy;
use ctcp_core::{Engine, EngineArena, FetchedInst, TickResult};
use ctcp_frontend::{BranchPredictor, Btb, HybridPredictor, ICache, ReturnAddressStack};
use ctcp_isa::{DynInst, Executor, Opcode, Program};
use ctcp_telemetry::{Counter, Hist, Probe, RetireSlotKind};
use ctcp_tracecache::{
    FillUnit, PendingInst, RawTrace, TcLocation, TraceCache, TraceHead, TraceLine, TraceSlot,
};
use std::collections::VecDeque;
use std::rc::Rc;

/// Maximum fetch groups buffered between fetch and rename.
const DELIVERY_DEPTH: usize = 8;

/// Default retire-progress watchdog threshold: a simulation that goes
/// this many consecutive cycles without retiring a single instruction
/// (while work is still pending) is declared livelocked. Even the
/// deepest legitimate stall in this model — a chain of memory misses
/// behind a mispredicted branch — resolves within a few hundred cycles,
/// so five orders of magnitude of headroom keeps false trips impossible
/// while still aborting a wedged pipeline in well under a second.
pub const DEFAULT_WATCHDOG_STALL_LIMIT: u64 = 100_000;

/// A configured simulation of one program. Create with
/// [`Simulation::builder`], run to completion with [`Simulation::run`].
pub struct Simulation<'p> {
    cfg: SimConfig,
    stream: InstStream<'p>,
    /// Instructions consumed by the warmup fast-forward. The engine
    /// requires sequence numbers dense from 0, so fetch renumbers the
    /// stream's absolute `seq` by this base for the timed phase.
    seq_base: u64,
    predictor: HybridPredictor,
    btb: Btb,
    ras: ReturnAddressStack,
    icache: ICache,
    tc: TraceCache,
    fill: FillUnit,
    engine: Engine,
    retire_strategy: RetireTimeStrategy,
    /// Reused across cycles so `Engine::tick_into` never allocates.
    tick_buf: TickResult,
    /// Fetch groups waiting for rename, with the cycle each is due.
    delivery: VecDeque<(u64, Vec<FetchedInst>)>,
    /// Emptied group buffers: fetch takes one, delivery returns it once
    /// the engine has accepted the group.
    spare_groups: Vec<Vec<FetchedInst>>,
    /// Scratch holding a trace-cache hit's slots in logical order while
    /// fetch walks them (reused every hit).
    hit_slots: Vec<(u8, TraceSlot)>,
    installs: VecDeque<(u64, TraceLine)>,
    now: u64,
    fetch_resume: u64,
    waiting_redirect: Option<u64>,
    group_ctr: u64,
    // telemetry
    probe: Rc<dyn Probe>,
    probe_on: bool,
    // robustness
    watchdog_stall: u64,
    cycle_budget: Option<u64>,
    /// Cached at construction: the `stall-retire` fail point was armed.
    stall_retire_fp: bool,
    // statistics
    insts_from_tc: u64,
    insts_from_icache: u64,
    cond_branches: u64,
    cond_mispredicts: u64,
    indirect_mispredicts: u64,
    retired: u64,
    last_group: Option<(u64, bool)>,
}

impl<'p> Simulation<'p> {
    /// Starts a validating, fluent builder over `program` — the
    /// recommended way to construct a simulation.
    pub fn builder(program: &'p Program) -> SimBuilder<'p> {
        SimBuilder::new(program)
    }

    /// Constructs the simulation from a validated builder. Only
    /// [`SimBuilder::build`] calls this.
    ///
    /// The warmup phase runs here: either by fast-forwarding the fresh
    /// stream (pure functional execution, no timing state touched) or by
    /// adopting a pre-captured [`Checkpoint`](crate::Checkpoint) clone,
    /// which is bit-identical because fast-forward is deterministic in
    /// the program and the instruction count.
    pub(crate) fn from_builder(b: SimBuilder<'p>) -> Self {
        let cfg = b.cfg.normalized();
        let mut engine = Engine::with_arena(
            cfg.engine,
            cfg.strategy.steering_mode(),
            b.arena.unwrap_or_default(),
        );
        let probe = b
            .probe
            .unwrap_or_else(|| Rc::new(ctcp_telemetry::NullProbe));
        engine.set_probe(Rc::clone(&probe));
        let probe_on = probe.enabled();
        let (stream, seq_base) = match b.resume {
            Some(ck) => {
                debug_assert_eq!(
                    ck.requested, cfg.warmup_insts,
                    "resume_from keeps the config and checkpoint in lockstep"
                );
                (ck.stream, ck.skipped)
            }
            None => {
                let mut stream = InstStream::new(Executor::new(b.program));
                let skipped = stream.fast_forward(cfg.warmup_insts);
                (stream, skipped)
            }
        };
        Simulation {
            stream,
            seq_base,
            predictor: HybridPredictor::new(cfg.predictor),
            btb: Btb::new(cfg.btb),
            ras: ReturnAddressStack::new(cfg.ras_depth),
            icache: ICache::new(cfg.icache),
            tc: TraceCache::new(cfg.trace_cache),
            fill: FillUnit::new(cfg.fill),
            engine,
            retire_strategy: cfg.strategy.retire_time(),
            tick_buf: TickResult::default(),
            delivery: VecDeque::new(),
            spare_groups: Vec::new(),
            hit_slots: Vec::new(),
            installs: VecDeque::new(),
            now: 0,
            fetch_resume: 0,
            waiting_redirect: None,
            group_ctr: 0,
            probe,
            probe_on,
            watchdog_stall: b.watchdog_stall.unwrap_or(DEFAULT_WATCHDOG_STALL_LIMIT),
            cycle_budget: b.cycle_budget,
            stall_retire_fp: ctcp_telemetry::failpoint::is_active("stall-retire"),
            insts_from_tc: 0,
            insts_from_icache: 0,
            cond_branches: 0,
            cond_mispredicts: 0,
            indirect_mispredicts: 0,
            retired: 0,
            last_group: None,
            cfg,
        }
    }

    /// Runs to completion (instruction budget reached or program drained)
    /// and reports.
    ///
    /// # Panics
    ///
    /// Panics if the run aborts — the watchdog trips or the cycle budget
    /// is exhausted. Callers that want to handle aborts as data (the
    /// sweep harness does, so one wedged cell cannot take down a batch)
    /// use [`Simulation::try_run`] instead.
    pub fn run(self) -> SimReport {
        self.try_run()
            .unwrap_or_else(|e| panic!("simulation aborted: {e}"))
    }

    /// Runs to completion and reports, or returns a typed [`SimError`]
    /// when the run cannot finish.
    ///
    /// Two guards watch the cycle loop:
    ///
    /// * a **retire-progress watchdog** — no instruction retired for
    ///   [`DEFAULT_WATCHDOG_STALL_LIMIT`] consecutive cycles (override
    ///   via [`SimBuilder::watchdog_stall_limit`]) while work is still
    ///   pending aborts with [`SimError::Livelock`];
    /// * a **total cycle budget** — by default `max_insts * 400 +
    ///   2_000_000` cycles (override via [`SimBuilder::cycle_budget`]);
    ///   exceeding it aborts with [`SimError::CycleBudget`] instead of
    ///   silently truncating the run into a misleading report.
    ///
    /// Both errors carry a [`ctcp_core::PipelineDiagnostic`] naming the
    /// instruction the machine stopped behind, and both bump the
    /// `watchdog_trips` telemetry counter when a probe is attached.
    ///
    /// # Errors
    ///
    /// [`SimError::Livelock`] or [`SimError::CycleBudget`], as above.
    pub fn try_run(mut self) -> Result<SimReport, SimError> {
        self.run_loop()?;
        Ok(self.finish())
    }

    /// Like [`try_run`](Self::try_run), but also harvests the engine's
    /// recyclable storage so a [`BatchRunner`](crate::BatchRunner) can
    /// seed the next cell with warm allocations — on the error path too.
    pub(crate) fn try_run_reclaiming(mut self) -> (Result<SimReport, SimError>, EngineArena) {
        match self.run_loop() {
            Ok(()) => {
                let (report, arena) = self.finish_reclaiming();
                (Ok(report), arena)
            }
            Err(e) => (Err(e), self.engine.into_arena()),
        }
    }

    fn run_loop(&mut self) -> Result<(), SimError> {
        // Generous safety bound: nothing sensible needs more cycles.
        let cycle_cap = self.cycle_budget.unwrap_or_else(|| {
            self.cfg
                .max_insts
                .saturating_mul(400)
                .saturating_add(2_000_000)
        });
        let stall_limit = self.watchdog_stall;
        let mut last_progress = 0u64;
        let mut last_retired = 0u64;
        while self.retired < self.cfg.max_insts && self.now < cycle_cap {
            self.step();
            if self.pipeline_empty() {
                break;
            }
            if self.retired > last_retired {
                last_retired = self.retired;
                last_progress = self.now;
            } else if stall_limit > 0 && self.now - last_progress >= stall_limit {
                if self.probe_on {
                    self.probe.counter(Counter::WatchdogTrips, 1);
                }
                return Err(SimError::Livelock {
                    stalled_for: self.now - last_progress,
                    diagnostic: self.engine.diagnostic(self.now),
                });
            }
        }
        if self.retired < self.cfg.max_insts && !self.pipeline_empty() {
            if self.probe_on {
                self.probe.counter(Counter::WatchdogTrips, 1);
            }
            return Err(SimError::CycleBudget {
                budget: cycle_cap,
                max_insts: self.cfg.max_insts,
                diagnostic: self.engine.diagnostic(self.now),
            });
        }
        Ok(())
    }

    fn pipeline_empty(&mut self) -> bool {
        self.stream.is_exhausted() && self.delivery.is_empty() && self.engine.in_flight() == 0
    }

    fn step(&mut self) {
        self.now += 1;
        let now = self.now;

        // 1. Trace installs that have cleared the fill-unit latency.
        while self.installs.front().is_some_and(|(at, _)| *at <= now) {
            let (_, line) = self.installs.pop_front().expect("checked front");
            self.tc.install(line);
        }

        // 2. Fetch one group.
        if self.waiting_redirect.is_none()
            && now >= self.fetch_resume
            && self.delivery.len() < DELIVERY_DEPTH
        {
            self.fetch(now);
        }

        // 3. Deliver the oldest group to rename if the engine has room.
        if let Some((at, group)) = self.delivery.front() {
            if *at <= now && self.engine.can_accept(group.len()) {
                let (_, mut group) = self.delivery.pop_front().expect("checked front");
                self.engine.accept(&group, now);
                group.clear();
                self.spare_groups.push(group);
            }
        }

        // 4. Execute one cycle into the reused buffer (no per-cycle
        // allocation; taken locally to keep the borrow checker happy
        // around the fill-unit calls below).
        let awaiting_redirect = self.waiting_redirect.is_some();
        let mut result = std::mem::take(&mut self.tick_buf);
        self.engine.tick_into(now, &mut result);

        // Cycle accounting: every retire slot this cycle is either used
        // or charged to one blame bucket — the engine classifies a
        // non-empty ROB by what its head waits on; an empty ROB is the
        // front end's fault (squash refetch vs fetch starvation).
        if self.probe_on {
            let width = self.cfg.engine.retire_width as u64;
            let used = result.retired.len() as u64;
            let stalled = width.saturating_sub(used);
            let stall = if stalled == 0 {
                RetireSlotKind::Base
            } else {
                self.engine.head_blame(now).unwrap_or(if awaiting_redirect {
                    RetireSlotKind::BranchMispredict
                } else {
                    RetireSlotKind::FetchMiss
                })
            };
            self.probe.retire_slots(now, used, stalled, stall);
        }

        // 5. Resume fetch once the awaited mispredicted branch resolves.
        if let Some(seq) = self.waiting_redirect {
            if result.redirects.contains(&seq) {
                self.waiting_redirect = None;
                self.fetch_resume = now + 1;
            }
        }

        // Fault injection: the `stall-retire` fail point swallows this
        // cycle's retirements, freezing retire progress so the watchdog
        // path can be exercised end-to-end.
        if self.stall_retire_fp {
            result.retired.clear();
        }

        // 6. Retire: feed the fill unit. (The predictor is trained at
        // fetch, where the correct-path model already knows the outcome
        // and the gshare history register still matches the prediction's
        // index — equivalent to retire-time training with a checkpointed
        // history.)
        for r in result.retired.drain(..) {
            let pending = PendingInst {
                seq: r.seq,
                index: r.index,
                pc: r.pc,
                inst: r.inst,
                profile: r.profile,
                tc_loc: r.tc_loc,
                feedback: r.feedback,
                taken: r.taken,
            };
            // Trace selection: traces begin at fetch-group heads — a
            // trace-cache line being rebuilt, or a fetch address that
            // missed the trace cache — so constructed traces start at
            // PCs fetch will request again.
            let head = if self.last_group.map(|(g, _)| g) != Some(r.group) {
                if r.from_tc {
                    TraceHead::TraceCacheLine
                } else {
                    TraceHead::TraceCacheMiss
                }
            } else {
                TraceHead::None
            };
            self.last_group = Some((r.group, r.from_tc));
            for raw in self.fill.push(pending, head) {
                self.build_and_install(raw, now);
            }
            self.retired += 1;
            if self.retired >= self.cfg.max_insts {
                break;
            }
        }
        // The drain clears the buffer (even on a budget-truncated break)
        // while its capacity survives for the next cycle.
        self.tick_buf = result;
    }

    /// Runs retire-time assignment on a finalised trace and schedules its
    /// installation. The line reuses a displaced line's storage and the
    /// spent trace goes back to the fill unit, so nothing is allocated.
    fn build_and_install(&mut self, mut raw: RawTrace, now: u64) {
        let placement =
            self.retire_strategy
                .assign(&mut raw, &self.cfg.engine.geometry, &mut self.tc);
        let line = self.tc.new_line(&raw, &placement);
        if self.probe_on {
            self.probe.observe(Hist::TraceSize, raw.len() as u64);
            for d in line.reorder_distances() {
                self.probe.observe(Hist::ReorderDistance, d);
            }
        }
        self.installs.push_back((now + self.fill.latency(), line));
        self.fill.recycle(raw);
    }

    /// Predicts one fetched control transfer. Returns `true` when the
    /// front-end mispredicts it (direction or target).
    fn predict_cti(&mut self, d: &DynInst) -> bool {
        let Some(br) = d.branch else { return false };
        match d.op() {
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge => {
                self.cond_branches += 1;
                let p = self.predictor.predict(d.pc);
                self.predictor.update(d.pc, br.taken);
                self.predictor.update_history(br.taken);
                let mis = p != br.taken;
                if mis {
                    self.cond_mispredicts += 1;
                }
                if self.probe_on {
                    self.probe.counter(Counter::CondBranches, 1);
                    if mis {
                        self.probe.counter(Counter::CondMispredicts, 1);
                    }
                }
                mis
            }
            Opcode::Jmp => false,
            Opcode::Call => {
                self.ras.push(d.pc + 4);
                false
            }
            Opcode::Ret => {
                let predicted = self.ras.pop();
                if predicted != Some(br.target) {
                    self.indirect_mispredicts += 1;
                    true
                } else {
                    false
                }
            }
            Opcode::Jr => {
                let predicted = self.btb.lookup(d.pc);
                self.btb.update(d.pc, br.target);
                if predicted != Some(br.target) {
                    self.indirect_mispredicts += 1;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    fn fetch(&mut self, now: u64) {
        let Some(d0) = self.stream.peek(0) else {
            return;
        };
        let pc = d0.pc;

        // Trace cache lookup with multiple-branch prediction; a hit's
        // slots are copied out in logical order so the walk below can
        // consume the stream while the line stays in the cache.
        let predictor = &self.predictor;
        let mut slots = std::mem::take(&mut self.hit_slots);
        slots.clear();
        let hit_line = self
            .tc
            .lookup(pc, |bpc| predictor.predict(bpc))
            .map(|line| {
                slots.extend(line.logical_iter().map(|(p, s)| (p, *s)));
                line.id
            });

        let fetch_width = self.cfg.engine.geometry.total_slots();
        let group_id = self.group_ctr;
        self.group_ctr += 1;
        let mut group = self
            .spare_groups
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(fetch_width));
        let mut mispredicted_seq: Option<u64> = None;

        let (latency, from_tc) = match hit_line {
            Some(line_id) => {
                for &(phys, slot) in &slots {
                    let matches = self.stream.peek(0).is_some_and(|d| d.pc == slot.pc);
                    if !matches {
                        break;
                    }
                    let d = self.stream.pop().expect("peeked");
                    let seq = d.seq - self.seq_base;
                    let mis = self.predict_cti(&d);
                    group.push(FetchedInst {
                        seq,
                        pc: d.pc,
                        index: d.index,
                        inst: d.inst,
                        mem_addr: d.mem_addr,
                        taken: d.branch.map(|b| b.taken),
                        slot: phys,
                        group: group_id,
                        from_tc: true,
                        tc_loc: Some(TcLocation {
                            line_id,
                            slot: phys,
                        }),
                        profile: slot.profile,
                        mispredicted: mis,
                    });
                    if mis {
                        mispredicted_seq = Some(seq);
                        break;
                    }
                }
                self.insts_from_tc += group.len() as u64;
                (self.cfg.trace_cache.access_latency, true)
            }
            None => {
                // Conventional fetch: sequential instructions up to the
                // first taken (or mispredicted) control transfer.
                let lat = self.icache.fetch(pc);
                while group.len() < fetch_width {
                    let Some(d) = self.stream.peek(0) else { break };
                    // Contiguity: a second cache line is allowed, but a
                    // taken transfer always ends the group below, so this
                    // simply consumes the fall-through path.
                    let d = *d;
                    self.stream.pop();
                    let seq = d.seq - self.seq_base;
                    let mis = self.predict_cti(&d);
                    let taken = d.taken();
                    group.push(FetchedInst {
                        seq,
                        pc: d.pc,
                        index: d.index,
                        inst: d.inst,
                        mem_addr: d.mem_addr,
                        taken: d.branch.map(|b| b.taken),
                        slot: group.len() as u8,
                        group: group_id,
                        from_tc: false,
                        tc_loc: None,
                        profile: Default::default(),
                        mispredicted: mis,
                    });
                    if mis {
                        mispredicted_seq = Some(seq);
                        break;
                    }
                    if taken || d.op() == Opcode::Halt {
                        break;
                    }
                }
                self.insts_from_icache += group.len() as u64;
                // An instruction-cache miss stalls fetch for its duration.
                if lat > self.cfg.icache.hit_latency {
                    self.fetch_resume = now + lat;
                }
                (lat, false)
            }
        };

        self.hit_slots = slots;
        if group.is_empty() {
            self.spare_groups.push(group);
            return;
        }
        if self.probe_on {
            let src = if from_tc {
                Counter::InstsFromTc
            } else {
                Counter::InstsFromIcache
            };
            self.probe.counter(src, group.len() as u64);
            self.probe.fetch_group(now, pc, group.len() as u32, from_tc);
        }
        if let Some(seq) = mispredicted_seq {
            self.waiting_redirect = Some(seq);
        }
        let deliver_at = now + latency + self.cfg.decode_stages;
        self.delivery.push_back((deliver_at, group));
    }

    fn finish(self) -> SimReport {
        self.finish_reclaiming().0
    }

    fn finish_reclaiming(mut self) -> (SimReport, EngineArena) {
        // Flush the partial trace so trace-size statistics are complete.
        let _ = self.fill.flush();
        let em = self.engine.metrics();
        let fill_stats = self.fill.stats();
        if self.probe_on {
            // Whole-run reconciliation counters: emitted once so an
            // exported metrics dump can be cross-checked against the
            // report (`ctcp trace --check` does exactly that).
            self.probe
                .counter(Counter::TracesBuilt, fill_stats.traces_built);
            self.probe
                .counter(Counter::InstsInTraces, fill_stats.insts_buffered);
            self.probe
                .counter(Counter::PredictorLookups, self.predictor.lookups());
        }
        let fdrt = self.retire_strategy.fdrt_stats().copied();
        let cycles = self.now.max(1);
        let report = SimReport {
            strategy: self.cfg.strategy.name(),
            cycles,
            instructions: self.retired,
            ipc: self.retired as f64 / cycles as f64,
            metrics: MetricsSnapshot {
                insts_from_tc: self.insts_from_tc,
                insts_from_icache: self.insts_from_icache,
                traces_built: fill_stats.traces_built,
                insts_in_traces: fill_stats.insts_buffered,
                cond_branches: self.cond_branches,
                cond_mispredicts: self.cond_mispredicts,
                indirect_mispredicts: self.indirect_mispredicts,
                fwd: em.fwd,
                repeat_all: em.repeat_all,
                repeat_critical_inter: em.repeat_critical_inter,
                fdrt,
                engine: em.stats,
                trace_cache: self.tc.stats(),
                l1d: em.l1d,
                icache: self.icache.stats(),
            },
            attrib: None,
        };
        (report, self.engine.into_arena())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use ctcp_isa::{ProgramBuilder, Reg};

    fn loop_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 0);
        b.movi(Reg::R2, iters);
        let top = b.here();
        b.addi(Reg::R3, Reg::R1, 5);
        b.add(Reg::R4, Reg::R3, Reg::R3);
        b.xor(Reg::R5, Reg::R4, Reg::R3);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.build()
    }

    fn run(p: &Program, strategy: Strategy, max_insts: u64) -> SimReport {
        Simulation::builder(p)
            .strategy(strategy)
            .max_insts(max_insts)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn tiny_program_completes() {
        let p = loop_program(100);
        let r = run(&p, Strategy::Baseline, 10_000);
        // 2 setup + 100 * 5 + 1 halt = 503 instructions.
        assert_eq!(r.instructions, 503);
        assert!(r.cycles > 0);
        assert!(r.ipc > 0.2, "ipc={}", r.ipc);
    }

    #[test]
    fn instruction_budget_truncates() {
        let p = loop_program(1_000_000);
        let r = run(&p, Strategy::Baseline, 5_000);
        assert_eq!(r.instructions, 5_000);
    }

    #[test]
    fn cycle_budget_exhaustion_is_a_typed_error() {
        // 200 cycles is nowhere near enough to retire a million
        // instructions, so the budget guard must fire — with the budget
        // and target in the error, not a silently truncated report.
        let p = loop_program(1_000_000);
        let err = Simulation::builder(&p)
            .max_insts(1_000_000)
            .cycle_budget(200)
            .build()
            .unwrap()
            .try_run()
            .expect_err("budget must be exhausted");
        match err {
            crate::SimError::CycleBudget {
                budget,
                max_insts,
                ref diagnostic,
            } => {
                assert_eq!(budget, 200);
                assert_eq!(max_insts, 1_000_000);
                assert_eq!(diagnostic.cycle, 200);
                assert!(diagnostic.in_flight > 0);
            }
            other => panic!("expected CycleBudget, got {other:?}"),
        }
    }

    #[test]
    fn trace_cache_warms_up_on_a_loop() {
        let p = loop_program(5_000);
        let r = run(&p, Strategy::Baseline, 20_000);
        assert!(
            r.tc_inst_fraction() > 0.5,
            "tc fraction {}",
            r.tc_inst_fraction()
        );
        assert!(r.metrics.trace_cache.hits > 100);
        assert!(r.avg_trace_size() > 4.0);
    }

    #[test]
    fn predictable_loop_has_low_mispredict_rate() {
        let p = loop_program(5_000);
        let r = run(&p, Strategy::Baseline, 20_000);
        assert!(
            r.mispredict_rate() < 0.05,
            "mispredict rate {}",
            r.mispredict_rate()
        );
    }

    #[test]
    fn all_strategies_run_the_same_instructions() {
        let p = loop_program(2_000);
        let n = ctcp_isa::Executor::new(&p).count() as u64;
        for strategy in [
            Strategy::Baseline,
            Strategy::IssueTime { latency: 0 },
            Strategy::IssueTime { latency: 4 },
            Strategy::Friendly { middle_bias: false },
            Strategy::Fdrt { pinning: true },
            Strategy::Fdrt { pinning: false },
        ] {
            let r = run(&p, strategy, 1_000_000);
            assert_eq!(r.instructions, n, "{}", strategy.name());
        }
    }

    #[test]
    fn fdrt_reports_stats() {
        let p = loop_program(3_000);
        let r = run(&p, Strategy::Fdrt { pinning: true }, 15_000);
        let stats = r.metrics.fdrt.expect("fdrt stats present");
        let total: u64 = stats.options.iter().sum::<u64>() + stats.skipped;
        assert!(total > 1_000);
        let base = run(&p, Strategy::Baseline, 15_000);
        assert!(base.metrics.fdrt.is_none());
    }
}
