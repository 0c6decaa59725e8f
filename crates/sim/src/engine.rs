//! The discrete-event multi-core engine.
//!
//! Executes a [`Program`] on a simulated machine: the deterministic
//! [`EventScheduler`] wakes worker cores in `(tick, worker id)` order, the
//! runtime scheduler hands ready task instances to idle workers, and a
//! [`ModeController`] decides per task instance whether it runs through
//! the detailed core model or is fast-forwarded at a prescribed IPC. Mode
//! switching therefore happens exactly at task boundaries, matching the
//! paper's mechanism; tasks that started before a global mode transition
//! simply finish in the mode they started in.
//!
//! Detailed cores advance in bounded time chunks (causal skew on shared
//! state never exceeds one chunk) on the machine's **base clock**: a core
//! in a group with clock divider `d` runs its pipeline in core-local
//! cycles and wakes only on multiples of `d` (see the
//! [`event`](crate::event) module docs for the conversion rules). A
//! homogeneous machine is one implicit divider-1 group, where all
//! conversions are identities — results are bit-identical to the
//! pre-event lockstep engine (pinned by `tests/block_equivalence.rs`).
//!
//! The engine is single-threaded and fully deterministic: event ties
//! break on worker id, schedulers are deterministic, and all randomness
//! (trace content, mispredictions, noise) is derived from per-instance
//! seeds.
//!
//! Detailed tasks consume their instruction stream through the batched
//! block pipeline: a [`TraceProvider`] hands each task a
//! [`TraceSource`] (procedural by default, recorded via
//! [`RecordedTraces`](crate::traces::RecordedTraces)), the worker refills
//! a structure-of-arrays [`InstBlock`], and [`RobCore::execute_block`]
//! walks it. Chunk boundaries are enforced per instruction inside the
//! block walk, so simulated timing is bit-identical for every block
//! capacity (pinned by `tests/block_equivalence.rs`).

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use taskpoint_runtime::{FifoScheduler, Program, ReadySet, Scheduler, TaskInstanceId, WorkerId};
use taskpoint_stats::percentile::percentile_sorted_by;
use taskpoint_stats::rng::{mix_seed, Xoshiro256pp};
use taskpoint_telemetry::{NopSink, SimEvent, Sink, Telemetry};
use taskpoint_trace::{InstBlock, MemRegion, TraceSource, BLOCK_CAPACITY};

use crate::burst::burst_duration;
use crate::config::{CoreGroupConfig, MachineConfig, MAX_WORKERS};
use crate::core_model::{RobCore, TaskParams};
use crate::core_model::{
    NUM_STALLS, STALL_CONTENTION, STALL_DEP, STALL_DRAM, STALL_L1, STALL_L2, STALL_MSHR, STALL_ROB,
};
use crate::event::EventScheduler;
use crate::hierarchy::MemorySystem;
use crate::mode::{ExecMode, ModeController, TaskStart};
use crate::noise::NoiseModel;
use crate::report::{CycleAccount, GroupStats, LatencyPercentiles, SimMode, SimResult, TaskReport};
use crate::traces::{ProceduralTraces, TraceProvider};

/// Domain-separation constant for per-task pipeline randomness (branch and
/// dependency draws), mixed with the trace seed so detailed replays are
/// identical in every run and mode.
pub(crate) const PIPELINE_RNG_SALT: u64 = 0xC0DE_0001;

/// A configured simulation, ready to [`run`](Simulation::run).
pub struct Simulation<'p> {
    program: &'p Program,
    machine: MachineConfig,
    workers: u32,
    scheduler: Box<dyn Scheduler>,
    noise: Option<NoiseModel>,
    collect_reports: bool,
    traces: Box<dyn TraceProvider>,
    block_capacity: usize,
    telemetry: Telemetry,
}

/// Builder for [`Simulation`]: holds the simulation with its defaults
/// filled in; [`build`](SimulationBuilder::build) validates it.
pub struct SimulationBuilder<'p> {
    sim: Simulation<'p>,
}

impl<'p> Simulation<'p> {
    /// Starts building a simulation of `program` on `machine`.
    pub fn builder(program: &'p Program, machine: MachineConfig) -> SimulationBuilder<'p> {
        SimulationBuilder {
            sim: Simulation {
                program,
                machine,
                workers: 1,
                scheduler: Box::new(FifoScheduler::new()),
                noise: None,
                collect_reports: false,
                traces: Box::new(ProceduralTraces),
                block_capacity: BLOCK_CAPACITY,
                telemetry: Telemetry::disabled(),
            },
        }
    }

    /// The program this simulation runs.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The telemetry handle attached to this simulation (disabled unless
    /// [`SimulationBuilder::telemetry`] installed one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs the simulation to completion under `controller` and returns the
    /// result. Consumes the simulation (caches and clocks are single-use).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler loses tasks (tasks pending but none ready or
    /// running — impossible with the provided schedulers) or the controller
    /// returns an invalid fast-forward IPC.
    pub fn run<C: ModeController>(self, controller: &mut C) -> SimResult {
        // Monomorphize the whole engine per sink: the common disabled case
        // runs with [`NopSink`], whose inlined empty methods compile the
        // instrumentation out of the hot path entirely.
        if self.telemetry.is_recording() {
            let sink = self.telemetry.clone();
            self.run_impl(controller, sink)
        } else {
            self.run_impl(controller, NopSink)
        }
    }

    fn run_impl<C: ModeController, S: Sink>(self, controller: &mut C, sink: S) -> SimResult {
        let Simulation {
            program,
            machine,
            workers: num_workers,
            scheduler,
            noise,
            collect_reports,
            traces,
            block_capacity,
            telemetry: _,
        } = self;
        let wall_start = Instant::now();
        let mut mem = MemorySystem::new(&machine, num_workers);
        prewarm_memory(&mut mem, program, machine.line_size);
        // A homogeneous machine is one implicit divider-1 group `all`.
        let implicit;
        let groups = if machine.core_groups.is_empty() {
            implicit = [CoreGroupConfig {
                name: "all".to_string(),
                cores: num_workers,
                clock_divider: 1,
                core: None,
            }];
            &implicit[..]
        } else {
            &machine.core_groups[..]
        };
        // Worker ids are assigned in the listed group order (group 0 gets
        // the lowest ids, so the idle policy "lowest id first" prefers the
        // leading — big — group).
        let mut workers = Vec::with_capacity(num_workers as usize);
        for (gi, g) in groups.iter().enumerate() {
            for _ in 0..g.cores {
                let mut core = RobCore::new(g.core.as_ref().unwrap_or(&machine.core));
                core.set_clock_divider(g.clock_divider as u64);
                workers.push(Worker {
                    core,
                    group: gi as u32,
                    local_time: 0,
                    running: None,
                    spare_block: None,
                });
            }
        }
        let mut engine = Engine {
            program,
            mem,
            workers,
            chunk_cycles: machine.chunk_cycles,
            scheduler,
            ready_set: program.graph().ready_set(),
            ready_at: vec![0; program.num_instances()],
            sched: EventScheduler::new(),
            idle: (0..num_workers).rev().collect(),
            running_count: 0,
            noise,
            collect_reports,
            traces,
            block_capacity,
            stats: RunStats::default(),
            reports: Vec::new(),
            group_stats: groups
                .iter()
                .map(|g| GroupStats {
                    name: g.name.clone(),
                    cores: g.cores,
                    clock_divider: g.clock_divider,
                    detailed_tasks: 0,
                    fast_tasks: 0,
                    instructions: 0,
                    busy_ticks: 0,
                })
                .collect(),
            cycle_accounts: groups
                .iter()
                .map(|g| CycleAccount {
                    name: g.name.clone(),
                    cores: g.cores,
                    ..CycleAccount::default()
                })
                .collect(),
            latencies: Vec::new(),
            sink,
        };
        if engine.sink.enabled() {
            for ty in program.types() {
                engine
                    .sink
                    .event(SimEvent::TypeDecl { id: ty.id().0, name: ty.name().to_string() });
            }
        }
        let setup_seconds = wall_start.elapsed().as_secs_f64();
        for root in program.graph().roots() {
            engine.scheduler.task_ready(root);
        }
        engine.assign_ready_tasks(controller, 0);
        engine.event_loop(controller);

        assert!(
            engine.ready_set.all_done(),
            "simulation stalled with {} tasks pending (scheduler lost tasks?)",
            engine.ready_set.pending()
        );
        // Only configured groups are reported: homogeneous results (and
        // their records) carry no `groups`, while the cycle accounts keep
        // the implicit `all` group.
        if machine.core_groups.is_empty() {
            engine.group_stats.clear();
        }
        engine.finalize_cycle_accounts();
        engine.emit_final_counters();
        let task_latency = engine.latency_percentiles();

        SimResult {
            total_cycles: engine.stats.max_end,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            setup_seconds,
            detailed_tasks: engine.stats.detailed_tasks,
            fast_tasks: engine.stats.fast_tasks,
            detailed_instructions: engine.stats.detailed_instructions,
            fast_instructions: engine.stats.fast_instructions,
            reports: engine.reports,
            invalidations: engine.mem.invalidations(),
            dram_accesses: engine.mem.dram_accesses(),
            private_cache: (0..engine.mem.private_levels())
                .map(|l| engine.mem.private_stats(l))
                .collect(),
            shared_cache: (0..engine.mem.shared_levels())
                .map(|l| engine.mem.shared_stats(l))
                .collect(),
            workers: num_workers,
            groups: engine.group_stats,
            cycle_accounts: engine.cycle_accounts,
            task_latency,
        }
    }
}

/// Live state of a run (separated from `Simulation` so borrows stay local).
struct Engine<'p, S: Sink> {
    program: &'p Program,
    mem: MemorySystem,
    /// Worker cores, indexed by worker id.
    workers: Vec<Worker>,
    /// The machine's [`MachineConfig::chunk_cycles`].
    chunk_cycles: u64,
    scheduler: Box<dyn Scheduler>,
    ready_set: ReadySet,
    /// Earliest start cycle of each task: the maximum completion time of
    /// its predecessors. Completions are processed in *event* order, which
    /// can differ from end-time order when a task's commit tail extends
    /// past its final chunk — without this, a successor could start before
    /// a predecessor's actual end.
    ready_at: Vec<u64>,
    sched: EventScheduler,
    /// Idle worker ids, kept sorted descending so `pop` yields lowest id.
    idle: Vec<u32>,
    running_count: u32,
    noise: Option<NoiseModel>,
    collect_reports: bool,
    traces: Box<dyn TraceProvider>,
    block_capacity: usize,
    stats: RunStats,
    reports: Vec<TaskReport>,
    /// Per-group accumulators, in machine group order (the implicit `all`
    /// group on homogeneous machines, dropped before the result).
    group_stats: Vec<GroupStats>,
    /// Cycle-accounting buckets, in machine group order (the implicit
    /// `all` group on homogeneous machines). Global base-clock ticks.
    cycle_accounts: Vec<CycleAccount>,
    /// Duration of every completed task, for exact latency percentiles
    /// (one u64 per task — always on, unlike `reports`).
    latencies: Vec<u64>,
    /// Telemetry receiver — [`NopSink`] unless the simulation was built
    /// with a recording [`Telemetry`] handle.
    sink: S,
}

impl<'p, S: Sink> Engine<'p, S> {
    fn event_loop<C: ModeController>(&mut self, controller: &mut C) {
        while let Some((t, w)) = self.sched.pop() {
            self.sink.counter("scheduler.pops", w, 1);
            let step = self.workers[w as usize].advance(
                w,
                t,
                self.chunk_cycles,
                &mut self.mem,
                self.program,
                self.noise.as_ref(),
            );
            match step {
                Step::Wake(next) => self.sched.schedule(next, w),
                // Completion effects run synchronously, inside this event:
                // deferring them to a same-tick follow-up event would batch
                // completions and change observable concurrency values.
                Step::Done(report) => self.complete(report, controller),
            }
        }
    }

    /// Records a completed task, releases its worker and assigns any newly
    /// ready work.
    fn complete<C: ModeController>(&mut self, report: TaskReport, controller: &mut C) {
        let w = report.worker.0;
        match report.mode {
            SimMode::Detailed => {
                self.stats.detailed_tasks += 1;
                self.stats.detailed_instructions += report.instructions;
            }
            SimMode::Fast => {
                self.stats.fast_tasks += 1;
                self.stats.fast_instructions += report.instructions;
            }
        }
        self.stats.max_end = self.stats.max_end.max(report.end);
        self.sink.event(SimEvent::TaskFinished {
            start: report.start,
            end: report.end,
            worker: w,
            task: u64::from(report.task.0),
            type_id: report.type_id.0,
            detailed: report.mode == SimMode::Detailed,
            instructions: report.instructions,
            concurrency: report.concurrency,
        });
        let gs = &mut self.group_stats[self.workers[w as usize].group as usize];
        match report.mode {
            SimMode::Detailed => gs.detailed_tasks += 1,
            SimMode::Fast => gs.fast_tasks += 1,
        }
        gs.instructions += report.instructions;
        gs.busy_ticks += report.end - report.start;
        self.account_task(&report);
        self.latencies.push(report.end - report.start);
        self.sink.observe("task.latency", 0, report.end - report.start);
        self.running_count -= 1;
        controller.on_task_complete(&report);
        if self.collect_reports {
            self.reports.push(report);
        }
        for &succ in self.program.graph().successors(report.task) {
            let r = &mut self.ready_at[succ.index()];
            *r = (*r).max(report.end);
        }
        let scheduler = &mut self.scheduler;
        self.ready_set.complete(self.program.graph(), report.task, |t| scheduler.task_ready(t));
        self.workers[w as usize].local_time = report.end;
        // `idle` is sorted descending; `w` is not in it.
        let at = self.idle.partition_point(|&i| i > w);
        self.idle.insert(at, w);
        self.assign_ready_tasks(controller, report.end);
    }

    /// Hands ready tasks to idle workers (lowest id first), starting them
    /// no earlier than `now`.
    fn assign_ready_tasks<C: ModeController>(&mut self, controller: &mut C, now: u64) {
        while self.scheduler.ready_count() > 0 {
            let Some(w) = self.idle.pop() else { break };
            let Some(task) = self.scheduler.pick(WorkerId(w)) else {
                self.idle.push(w);
                break;
            };
            let total_workers = self.workers.len() as u32;
            let worker = &mut self.workers[w as usize];
            let start = worker.local_time.max(now).max(self.ready_at[task.index()]);
            let inst = self.program.instance(task);
            self.running_count += 1;
            let ctx = TaskStart {
                task,
                type_id: inst.type_id(),
                instructions: inst.instructions(),
                worker: WorkerId(w),
                time: start,
                concurrency: self.running_count,
                total_workers,
            };
            let mode = controller.mode_for_task(&ctx);
            self.sink.event(SimEvent::TaskAssigned {
                tick: start,
                worker: w,
                task: u64::from(task.0),
                type_id: inst.type_id().0,
                detailed: matches!(mode, ExecMode::Detailed),
            });
            let divider = worker.core.clock_divider();
            let wake = match mode {
                ExecMode::Detailed => {
                    let spec = self.program.spec(task);
                    // The pipeline clock lives on the core-local grid: the
                    // first local cycle at or after the global start.
                    // Divider 1 (homogeneous) makes this the identity.
                    let local_start = start.div_ceil(divider);
                    worker.core.reset(local_start);
                    let block = worker
                        .spare_block
                        .take()
                        .unwrap_or_else(|| InstBlock::with_capacity(self.block_capacity));
                    worker.running = Some(Running::Detailed(DetailedTask {
                        task,
                        source: self.traces.source(task, &spec),
                        block,
                        cursor: 0,
                        data_rng: Xoshiro256pp::seed_from_u64(mix_seed(&[
                            spec.seed(),
                            PIPELINE_RNG_SALT,
                        ])),
                        code_rng: Xoshiro256pp::seed_from_u64(mix_seed(&[
                            spec.code_seed(),
                            PIPELINE_RNG_SALT,
                        ])),
                        params: TaskParams {
                            branch_mispredict_rate: spec.branch_mispredict_rate(),
                            dependency_rate: spec.dependency_rate(),
                        },
                        start,
                        executed: 0,
                        concurrency: self.running_count,
                    }));
                    local_start * divider
                }
                ExecMode::Fast { ipc } => {
                    // A slower clock stretches the burst on the global
                    // timeline by the divider.
                    worker.running =
                        Some(Running::Burst { task, start, concurrency: self.running_count });
                    start + burst_duration(inst.instructions(), ipc) * divider
                }
            };
            self.sched.schedule(wake, w);
        }
        self.sink.event(SimEvent::QueueDepth {
            tick: now,
            ready: self.scheduler.ready_count() as u64,
            running: self.running_count,
        });
        self.sink.observe("sched.ready_depth", 0, self.scheduler.ready_count() as u64);
    }

    /// Folds one finished task into its group's [`CycleAccount`].
    ///
    /// Detailed tasks are attributed from the core's always-on stall
    /// counters with a *clamped walk*: the noise model (and the one-cycle
    /// duration floor) can scale a task's wall duration away from the
    /// modeled pipeline time, so each stall category takes at most what
    /// remains of the task's actual `end - start` budget — memory-side
    /// categories first (they are the rarest and most meaningful), with
    /// `issue` absorbing the remainder. The sum over categories therefore
    /// equals the busy time *exactly*, which is what makes the
    /// sums-to-total invariant on [`CycleAccount`] hold unconditionally.
    fn account_task(&mut self, report: &TaskReport) {
        let w = report.worker.0 as usize;
        let busy = report.end - report.start;
        let g = self.workers[w].group as usize;
        match report.mode {
            SimMode::Fast => self.cycle_accounts[g].fast_fwd += busy,
            SimMode::Detailed => {
                let stalls: [u64; NUM_STALLS] = self.workers[w].core.stall_global_ticks();
                let acct = &mut self.cycle_accounts[g];
                let mut remaining = busy;
                let take = |cat: usize, remaining: &mut u64| -> u64 {
                    let v = stalls[cat].min(*remaining);
                    *remaining -= v;
                    v
                };
                acct.dep_wait += take(STALL_DEP, &mut remaining);
                acct.mshr_full += take(STALL_MSHR, &mut remaining);
                acct.contention += take(STALL_CONTENTION, &mut remaining);
                acct.dram_wait += take(STALL_DRAM, &mut remaining);
                acct.l2_wait += take(STALL_L2, &mut remaining);
                acct.l1_wait += take(STALL_L1, &mut remaining);
                acct.rob_full += take(STALL_ROB, &mut remaining);
                acct.issue += remaining;
            }
        }
    }

    /// Closes the books after the event loop: whatever part of
    /// `total_cycles × cores` each group did not spend busy is idle time,
    /// making every account sum exactly to the machine's capacity.
    fn finalize_cycle_accounts(&mut self) {
        let total = self.stats.max_end;
        for acct in &mut self.cycle_accounts {
            acct.idle = (total * acct.cores as u64).saturating_sub(acct.busy());
        }
    }

    /// Exact task-latency percentiles over every completed task. Sorts the
    /// durations in place and converts only the ranks read: `u64 → f64`
    /// preserves order, so this equals sorting the converted values.
    fn latency_percentiles(&mut self) -> LatencyPercentiles {
        if self.latencies.is_empty() {
            return LatencyPercentiles::default();
        }
        self.latencies.sort_unstable();
        let sorted = &self.latencies;
        let at = |p| percentile_sorted_by(sorted.len(), p, |i| sorted[i] as f64);
        LatencyPercentiles {
            count: sorted.len() as u64,
            p50: at(50.0),
            p99: at(99.0),
            p999: at(99.9),
        }
    }

    /// Emits the end-of-run counter snapshot: memory-system totals,
    /// per-level cache hits/misses, per-group busy ticks and instructions.
    fn emit_final_counters(&mut self) {
        if !self.sink.enabled() {
            return;
        }
        self.sink.counter("mem.dram_accesses", 0, self.mem.dram_accesses());
        self.sink.counter("mem.invalidations", 0, self.mem.invalidations());
        self.sink.counter("mem.prefetches", 0, self.mem.prefetches());
        self.sink.counter("mem.queue_delay_cycles", 0, self.mem.queue_delay_cycles());
        self.sink.counter("mem.contended_accesses", 0, self.mem.contended_accesses());
        for l in 0..self.mem.private_levels() {
            let s = self.mem.private_stats(l);
            self.sink.counter("mem.private_hits", l as u32, s.hits);
            self.sink.counter("mem.private_misses", l as u32, s.misses);
        }
        for l in 0..self.mem.shared_levels() {
            let s = self.mem.shared_stats(l);
            self.sink.counter("mem.shared_hits", l as u32, s.hits);
            self.sink.counter("mem.shared_misses", l as u32, s.misses);
        }
        for (g, gs) in self.group_stats.iter().enumerate() {
            self.sink.counter("group.busy_ticks", g as u32, gs.busy_ticks);
            self.sink.counter("group.instructions", g as u32, gs.instructions);
        }
        for (g, acct) in self.cycle_accounts.iter().enumerate() {
            let g = g as u32;
            self.sink.counter("cycles.issue", g, acct.issue);
            self.sink.counter("cycles.rob_full", g, acct.rob_full);
            self.sink.counter("cycles.dep_wait", g, acct.dep_wait);
            self.sink.counter("cycles.l1_wait", g, acct.l1_wait);
            self.sink.counter("cycles.l2_wait", g, acct.l2_wait);
            self.sink.counter("cycles.dram_wait", g, acct.dram_wait);
            self.sink.counter("cycles.mshr_full", g, acct.mshr_full);
            self.sink.counter("cycles.contention", g, acct.contention);
            self.sink.counter("cycles.fast_fwd", g, acct.fast_fwd);
            self.sink.counter("cycles.idle", g, acct.idle);
        }
        self.sink.observe_hist("mem.access_latency", 0, self.mem.access_latency_histogram());
    }
}

/// Models the application's initialization phase: trace-driven simulation
/// begins after the program's data structures were allocated and filled, so
/// the *shared* last-level cache holds the most recently initialized data
/// (bounded by its capacity — LRU keeps the tail of the walk, and data
/// beyond capacity simply stays in DRAM as it would in reality). Private
/// caches stay cold; heating those is exactly what TaskPoint's warmup
/// phase is for.
fn prewarm_memory(mem: &mut MemorySystem, program: &Program, line_size: u32) {
    let capacity = mem.last_level_capacity_lines();
    if capacity == 0 {
        return;
    }
    // The init walk touches the program's distinct regions in
    // `data_regions` order, each from its lowest line to its highest. That
    // list runs from the newest instance to the oldest, so the region whose
    // newest use is the *earliest* instance is the walk's last touch and
    // wins a set conflict. Deduplicating regions keeps tiled programs,
    // which annotate the same block in thousands of instances, from
    // spending the budget on LRU churn.
    let regions = program.data_regions();
    let shift = line_size.trailing_zeros();
    // All-or-nothing: if the program's distinct data exceeds the last
    // level, partial prewarming would split instances of one task type into
    // a fast (resident) and a slow (DRAM) class that does not exist in
    // reality — real init leaves *every* task's data equally (non-)resident.
    // When the data does not fit, nothing is prewarmed and every instance
    // pays the same DRAM first-touch costs. Lines that several regions
    // share count once per region.
    let total_lines: u64 =
        regions.iter().map(|r| line_span(r, shift)).map(|l| l.end - l.start).sum();
    if total_lines > capacity as u64 {
        return;
    }
    mem.prewarm_shared(&first_touch_runs(regions, shift));
}

/// The lines of `region` at `1 << shift`-byte lines (`region` non-empty).
fn line_span(region: &MemRegion, shift: u32) -> Range<u64> {
    (region.base >> shift)..((region.end() - 1) >> shift) + 1
}

/// The lines that walking `regions` in order (each region's lines
/// ascending) touches, as disjoint runs, the most recently touched first.
///
/// Taken newest first, a line's first appearance is its last touch: each
/// region, from the last to the first, contributes its line span minus
/// every line a later region already covered, the pieces highest first.
/// `covered` holds the union of the spans seen so far as disjoint,
/// non-touching `start → end` intervals, so each region costs a few
/// `O(log R)` map operations.
pub(crate) fn first_touch_runs(regions: &[MemRegion], shift: u32) -> Vec<Range<u64>> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut runs = Vec::new();
    for span in regions.iter().rev().map(|r| line_span(r, shift)) {
        let (mut lo, mut hi, mut top) = (span.start, span.end, span.end);
        // Covered intervals that overlap or touch the span, highest first:
        // the gap above each is new, and each merges into the span.
        while let Some((&start, &end)) = covered.range(..=span.end).next_back() {
            if end < span.start {
                break;
            }
            if end.max(span.start) < top {
                runs.push(end.max(span.start)..top);
            }
            top = top.min(start);
            (lo, hi) = (lo.min(start), hi.max(end));
            covered.remove(&start);
        }
        if span.start < top {
            runs.push(span.start..top);
        }
        covered.insert(lo, hi);
    }
    runs
}

/// Per-run counters.
#[derive(Debug, Default)]
struct RunStats {
    detailed_tasks: u64,
    fast_tasks: u64,
    detailed_instructions: u64,
    fast_instructions: u64,
    max_end: u64,
}

/// One worker core: the pipeline model, its group and the task it runs.
struct Worker {
    /// The pipeline model; also the single source of the group's clock
    /// divider.
    core: RobCore,
    /// Index into the machine's groups (0, the implicit `all` group, on
    /// homogeneous machines).
    group: u32,
    /// End of the worker's last task on the global timeline: its next task
    /// starts no earlier.
    local_time: u64,
    running: Option<Running>,
    /// Cleared instruction block recycled across this worker's detailed
    /// tasks.
    spare_block: Option<InstBlock>,
}

/// What a worker core is currently doing.
///
/// `Detailed` dwarfs `Burst` (it carries the trace source, the refill
/// block and two RNGs), but there is exactly one `Running` per worker, so
/// boxing it would only add a pointer chase on the hot path.
#[allow(clippy::large_enum_variant)]
enum Running {
    Detailed(DetailedTask),
    /// A fast-forwarded task; its single event fires at its end.
    Burst {
        task: TaskInstanceId,
        start: u64,
        concurrency: u32,
    },
}

/// A task running through the detailed core model, advanced in place one
/// bounded chunk per event.
struct DetailedTask {
    task: TaskInstanceId,
    /// Producer of the task's instruction stream (procedural or recorded,
    /// via the simulation's [`TraceProvider`]).
    source: Box<dyn TraceSource>,
    /// The current batch of instructions, consumed from `cursor`.
    block: InstBlock,
    cursor: usize,
    data_rng: Xoshiro256pp,
    code_rng: Xoshiro256pp,
    params: TaskParams,
    start: u64,
    executed: u64,
    concurrency: u32,
}

/// What one event did to a worker: its task continues at a later global
/// tick, or it finished (a worker runs one task at a time, so an event
/// completes at most one).
enum Step {
    Wake(u64),
    Done(TaskReport),
}

impl Worker {
    /// Advances the running task of worker `id` at global tick `now`: one
    /// bounded chunk of detailed execution, or the end of a burst.
    fn advance(
        &mut self,
        id: u32,
        now: u64,
        chunk_cycles: u64,
        mem: &mut MemorySystem,
        program: &Program,
        noise: Option<&NoiseModel>,
    ) -> Step {
        if let Some(Running::Detailed(t)) = &mut self.running {
            let divider = self.core.clock_divider();
            // Events for this core fire only on multiples of its divider,
            // so the local-cycle conversion is exact.
            let chunk_end = self.core.dispatch_cycle().max(now / divider) + chunk_cycles;
            // Batched consumption: refill the SoA block from the trace
            // source, then let the core model walk it. The chunk boundary
            // is enforced inside `execute_block`, so timing is
            // bit-identical to per-instruction execution for any block
            // capacity. The loop only falls through once the stream is
            // exhausted.
            loop {
                if self.core.dispatch_cycle() >= chunk_end {
                    return Step::Wake(self.core.dispatch_cycle() * divider);
                }
                if t.cursor == t.block.len() {
                    if t.source.fill(&mut t.block) == 0 {
                        break;
                    }
                    t.cursor = 0;
                }
                let n = self.core.execute_block(
                    id,
                    &t.block,
                    t.cursor,
                    chunk_end,
                    t.params,
                    mem,
                    &mut t.data_rng,
                    &mut t.code_rng,
                );
                t.cursor += n;
                t.executed += n as u64;
            }
        }
        let report = match self.running.take().expect("scheduled worker runs a task") {
            Running::Detailed(mut t) => {
                // Park the block for the worker's next detailed task
                // (refill allocations are per worker, not per task).
                t.block.clear();
                self.spare_block = Some(t.block);
                let inst = program.instance(t.task);
                TaskReport {
                    task: t.task,
                    type_id: inst.type_id(),
                    worker: WorkerId(id),
                    start: t.start,
                    end: detailed_end(&self.core, t.start, noise, inst.seed()),
                    instructions: t.executed,
                    mode: SimMode::Detailed,
                    concurrency: t.concurrency,
                }
            }
            Running::Burst { task, start, concurrency } => {
                let inst = program.instance(task);
                TaskReport {
                    task,
                    type_id: inst.type_id(),
                    worker: WorkerId(id),
                    start,
                    end: now,
                    instructions: inst.instructions(),
                    mode: SimMode::Fast,
                    concurrency,
                }
            }
        };
        Step::Done(report)
    }
}

/// End time of a finished detailed task on the global timeline: the final
/// commit, floored to one cycle after start, with the noise model's
/// per-task duration factor applied when present.
fn detailed_end(core: &RobCore, start: u64, noise: Option<&NoiseModel>, task_seed: u64) -> u64 {
    let raw_end = (core.last_commit() * core.clock_divider()).max(start + 1);
    match noise {
        Some(n) => {
            let f = n.factor(task_seed);
            let dur = ((raw_end - start) as f64 * f).round() as u64;
            start + dur.max(1)
        }
        None => raw_end,
    }
}

impl<'p> SimulationBuilder<'p> {
    /// Sets the number of simulated worker threads (default 1, max
    /// [`MAX_WORKERS`]). For a heterogeneous machine this must equal the
    /// sum of its group sizes.
    pub fn workers(mut self, n: u32) -> Self {
        self.sim.workers = n;
        self
    }

    /// Installs a scheduler (default: [`FifoScheduler`]).
    pub fn scheduler(mut self, s: Box<dyn Scheduler>) -> Self {
        self.sim.scheduler = s;
        self
    }

    /// Enables the system-noise model ("native execution" stand-in).
    pub fn noise(mut self, n: NoiseModel) -> Self {
        self.sim.noise = Some(n);
        self
    }

    /// Collects per-task reports into the result (needed by the variation
    /// figures; costs memory proportional to the instance count).
    pub fn collect_reports(mut self, yes: bool) -> Self {
        self.sim.collect_reports = yes;
        self
    }

    /// Installs a trace provider (default: [`struct@ProceduralTraces`], which
    /// regenerates every stream from its
    /// [`TraceSpec`](taskpoint_trace::TraceSpec)). Pass a
    /// [`RecordedTraces`](crate::traces::RecordedTraces) bundle to drive
    /// the simulation from pre-recorded streams.
    pub fn traces(mut self, provider: Box<dyn TraceProvider>) -> Self {
        self.sim.traces = provider;
        self
    }

    /// Attaches a telemetry handle. A recording handle makes the run emit
    /// tick-stamped schedule events, fidelity decisions and end-of-run
    /// counters into it; the default disabled handle monomorphizes the
    /// engine over [`NopSink`], compiling the instrumentation out
    /// entirely (golden results are pinned bit-identical either way).
    pub fn telemetry(mut self, t: Telemetry) -> Self {
        self.sim.telemetry = t;
        self
    }

    /// Accepts only `n == 1`: detailed execution is sequential. Kept so
    /// that existing `.detail_threads(1)` callers still build; it stores
    /// nothing and goes away when the repository benchmark is next revised.
    ///
    /// # Panics
    ///
    /// Panics if `n != 1`.
    pub fn detail_threads(self, n: usize) -> Self {
        assert_eq!(n, 1, "detailed execution is sequential; detail_threads must be 1");
        self
    }

    /// Sets the instruction-block capacity of the detailed pipeline
    /// (default [`BLOCK_CAPACITY`]). Simulated timing is independent of
    /// this value — it only trades refill overhead against block
    /// footprint. Capacity 1 degenerates to per-instruction execution
    /// (useful for equivalence testing).
    ///
    /// # Panics
    ///
    /// Panics (at [`build`](SimulationBuilder::build)) if `capacity` is 0.
    pub fn block_capacity(mut self, capacity: usize) -> Self {
        self.sim.block_capacity = capacity;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the worker count is 0 or exceeds [`MAX_WORKERS`], the
    /// block capacity is 0, the machine configuration is invalid, or a
    /// heterogeneous machine's group sizes do not sum to the worker count.
    pub fn build(self) -> Simulation<'p> {
        let sim = self.sim;
        assert!((1..=MAX_WORKERS).contains(&sim.workers), "1..={MAX_WORKERS} workers");
        assert!(sim.block_capacity >= 1, "instruction block needs capacity >= 1");
        sim.machine.validate();
        if let Some(total) = sim.machine.total_group_cores() {
            assert_eq!(
                total, sim.workers,
                "core groups define {total} cores but the simulation has {} workers",
                sim.workers
            );
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{DetailedOnly, FixedIpc};
    use taskpoint_runtime::RegionAccess;
    use taskpoint_trace::{MemRegion, TraceSpec};

    /// `n` independent tasks of `instrs` instructions each.
    fn independent_program(n: u64, instrs: u64) -> Program {
        let mut b = Program::builder("indep");
        let ty = b.add_type("work");
        for i in 0..n {
            b.add_task(ty, TraceSpec::synthetic(i, instrs), &[]);
        }
        b.build()
    }

    /// A serial chain: task i writes region i, reads region i-1.
    fn chain_program(n: u64, instrs: u64) -> Program {
        let mut b = Program::builder("chain");
        let ty = b.add_type("link");
        for i in 0..n {
            let mut acc = vec![RegionAccess::output(MemRegion::new(0x100_0000 + i * 64, 64))];
            if i > 0 {
                acc.push(RegionAccess::input(MemRegion::new(0x100_0000 + (i - 1) * 64, 64)));
            }
            b.add_task(ty, TraceSpec::synthetic(i, instrs), &acc);
        }
        b.build()
    }

    /// Two regions in one set of a one-way last level: the walk touches
    /// `data_regions` newest instance first, so the earliest instance's
    /// data is touched last and stays resident.
    #[test]
    fn earliest_instance_data_wins_a_prewarm_set_conflict() {
        let mut machine = MachineConfig::tiny_test();
        let llc = machine.caches.last_mut().unwrap();
        llc.associativity = 1;
        let sets = llc.size_bytes / 64;
        let (early, late) = (MemRegion::new(0, 64), MemRegion::new(sets * 64, 64));
        let mut b = Program::builder("conflict");
        let ty = b.add_type("t");
        for footprint in [early, late] {
            let spec = TraceSpec::builder().instructions(10).footprint(footprint).build();
            b.add_task(ty, spec, &[]);
        }
        let program = b.build();
        assert_eq!(program.data_regions(), &[late, early]);
        let mut mem = MemorySystem::new(&machine, 1);
        prewarm_memory(&mut mem, &program, machine.line_size);
        assert!(!mem.access(0, early.base, false, 0).dram, "earliest instance resident");
        assert!(mem.access(0, late.base, false, 0).dram, "latest instance evicted");
    }

    #[test]
    fn detailed_run_executes_every_task() {
        let p = independent_program(20, 500);
        let sim = Simulation::builder(&p, MachineConfig::tiny_test()).workers(4).build();
        let r = sim.run(&mut DetailedOnly);
        assert_eq!(r.detailed_tasks, 20);
        assert_eq!(r.fast_tasks, 0);
        assert_eq!(r.detailed_instructions, 20 * 500);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn fast_run_matches_burst_arithmetic() {
        let p = independent_program(8, 1000);
        let sim = Simulation::builder(&p, MachineConfig::tiny_test()).workers(8).build();
        let r = sim.run(&mut FixedIpc(2.0));
        // All 8 run concurrently from t=0, each 1000/2 = 500 cycles.
        assert_eq!(r.total_cycles, 500);
        assert_eq!(r.fast_tasks, 8);
        assert_eq!(r.detail_fraction(), 0.0);
    }

    #[test]
    fn serial_chain_cannot_overlap() {
        let p = chain_program(10, 100);
        let sim = Simulation::builder(&p, MachineConfig::tiny_test()).workers(4).build();
        let r = sim.run(&mut FixedIpc(1.0));
        // Each task takes exactly 100 cycles and they serialize: >= 1000.
        assert_eq!(r.total_cycles, 1000);
    }

    #[test]
    fn more_workers_do_not_slow_down_independent_work() {
        let p = independent_program(32, 400);
        let one = Simulation::builder(&p, MachineConfig::tiny_test()).workers(1).build();
        let eight = Simulation::builder(&p, MachineConfig::tiny_test()).workers(8).build();
        let t1 = one.run(&mut FixedIpc(1.0)).total_cycles;
        let t8 = eight.run(&mut FixedIpc(1.0)).total_cycles;
        assert_eq!(t1, 32 * 400);
        assert_eq!(t8, 4 * 400, "perfect speedup for equal burst tasks");
    }

    #[test]
    fn determinism_across_runs() {
        let p = independent_program(16, 800);
        let run = || {
            Simulation::builder(&p, MachineConfig::tiny_test())
                .workers(4)
                .collect_reports(true)
                .build()
                .run(&mut DetailedOnly)
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.reports, b.reports);
    }

    #[test]
    fn schedule_respects_dependences() {
        let p = chain_program(12, 200);
        let sim = Simulation::builder(&p, MachineConfig::tiny_test())
            .workers(4)
            .collect_reports(true)
            .build();
        let r = sim.run(&mut DetailedOnly);
        // Completion order must be the chain order and no task may start
        // before its predecessor ends.
        let mut by_task: Vec<&TaskReport> = r.reports.iter().collect();
        by_task.sort_by_key(|t| t.task);
        for pair in by_task.windows(2) {
            assert!(
                pair[1].start >= pair[0].end,
                "task {} started at {} before {} ended at {}",
                pair[1].task,
                pair[1].start,
                pair[0].task,
                pair[0].end
            );
        }
    }

    #[test]
    fn reports_collected_only_on_request() {
        let p = independent_program(4, 100);
        let without =
            Simulation::builder(&p, MachineConfig::tiny_test()).build().run(&mut DetailedOnly);
        assert!(without.reports.is_empty());
        let with = Simulation::builder(&p, MachineConfig::tiny_test())
            .collect_reports(true)
            .build()
            .run(&mut DetailedOnly);
        assert_eq!(with.reports.len(), 4);
    }

    #[test]
    fn concurrency_is_tracked() {
        let p = independent_program(8, 300);
        let r = Simulation::builder(&p, MachineConfig::tiny_test())
            .workers(4)
            .collect_reports(true)
            .build()
            .run(&mut FixedIpc(1.0));
        // First four tasks start together: concurrency ramps 1..=4.
        let mut first_wave: Vec<u32> =
            r.reports.iter().filter(|t| t.start == 0).map(|t| t.concurrency).collect();
        first_wave.sort_unstable();
        assert_eq!(first_wave, vec![1, 2, 3, 4]);
    }

    #[test]
    fn noise_changes_durations_deterministically() {
        let p = independent_program(10, 500);
        let noisy = |seed| {
            Simulation::builder(&p, MachineConfig::tiny_test())
                .workers(2)
                .noise(NoiseModel::native_execution(seed))
                .collect_reports(true)
                .build()
                .run(&mut DetailedOnly)
        };
        let clean = Simulation::builder(&p, MachineConfig::tiny_test())
            .workers(2)
            .collect_reports(true)
            .build()
            .run(&mut DetailedOnly);
        let a = noisy(1);
        let b = noisy(1);
        assert_eq!(a.total_cycles, b.total_cycles, "noise is seeded");
        let durations_differ =
            a.reports.iter().zip(clean.reports.iter()).any(|(x, y)| x.cycles() != y.cycles());
        assert!(durations_differ, "noise must perturb at least one task");
    }

    #[test]
    fn mixed_mode_controller_splits_work() {
        struct EveryOther(bool);
        impl ModeController for EveryOther {
            fn mode_for_task(&mut self, _s: &TaskStart) -> ExecMode {
                self.0 = !self.0;
                if self.0 {
                    ExecMode::Detailed
                } else {
                    ExecMode::Fast { ipc: 1.0 }
                }
            }
        }
        let p = independent_program(10, 200);
        let r = Simulation::builder(&p, MachineConfig::tiny_test())
            .workers(2)
            .build()
            .run(&mut EveryOther(false));
        assert_eq!(r.detailed_tasks, 5);
        assert_eq!(r.fast_tasks, 5);
        assert!((r.detail_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "1..=64 workers")]
    fn zero_workers_rejected() {
        let p = independent_program(1, 1);
        let _ = Simulation::builder(&p, MachineConfig::tiny_test()).workers(0).build();
    }

    #[test]
    #[should_panic(expected = "core groups define 4 cores")]
    fn group_worker_mismatch_rejected() {
        let p = independent_program(1, 1);
        let _ = Simulation::builder(&p, MachineConfig::big_little(2, 2)).workers(3).build();
    }

    #[test]
    fn homogeneous_runs_report_no_groups() {
        let p = independent_program(4, 200);
        let r = Simulation::builder(&p, MachineConfig::tiny_test())
            .workers(2)
            .build()
            .run(&mut DetailedOnly);
        assert!(r.groups.is_empty());
    }

    #[test]
    fn heterogeneous_groups_split_the_work() {
        let p = independent_program(32, 600);
        let r = Simulation::builder(&p, MachineConfig::big_little(2, 2))
            .workers(4)
            .collect_reports(true)
            .build()
            .run(&mut DetailedOnly);
        assert_eq!(r.groups.len(), 2);
        let (big, little) = (&r.groups[0], &r.groups[1]);
        assert_eq!(big.name, "big");
        assert_eq!(little.name, "little");
        assert_eq!(big.detailed_tasks + little.detailed_tasks, 32);
        assert!(big.detailed_tasks > 0 && little.detailed_tasks > 0);
        // Little cores: half clock, narrower pipeline — on identical
        // independent tasks they must be measurably slower per task.
        let avg = |g: &GroupStats| g.busy_ticks as f64 / g.detailed_tasks as f64;
        assert!(avg(little) > 1.5 * avg(big), "little avg {} vs big avg {}", avg(little), avg(big));
        // Group accounting covers exactly the reported tasks.
        let ticks: u64 = r.reports.iter().map(|t| t.cycles()).sum();
        assert_eq!(big.busy_ticks + little.busy_ticks, ticks);
    }

    #[test]
    fn heterogeneous_runs_are_deterministic() {
        let p = independent_program(24, 500);
        let run = || {
            Simulation::builder(&p, MachineConfig::big_little(1, 3))
                .workers(4)
                .collect_reports(true)
                .build()
                .run(&mut DetailedOnly)
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.groups, b.groups);
    }

    #[test]
    fn divider_only_group_slows_the_machine_down() {
        // Same pipeline everywhere; the only difference is the clock.
        let p = independent_program(16, 800);
        let base = MachineConfig::tiny_test();
        let mut divided = base.clone();
        divided.core_groups = vec![crate::config::CoreGroupConfig {
            name: "half".to_string(),
            cores: 2,
            clock_divider: 2,
            core: None,
        }];
        divided.name = "tiny-half-clock".to_string();
        let fast = Simulation::builder(&p, base).workers(2).build().run(&mut DetailedOnly);
        let slow = Simulation::builder(&p, divided).workers(2).build().run(&mut DetailedOnly);
        assert!(
            slow.total_cycles > fast.total_cycles,
            "half clock cannot be faster: {} vs {}",
            slow.total_cycles,
            fast.total_cycles
        );
        assert_eq!(slow.detailed_instructions, fast.detailed_instructions);
    }

    #[test]
    fn burst_mode_respects_the_clock_divider() {
        let p = independent_program(4, 1000);
        let mut m = MachineConfig::tiny_test();
        m.core_groups = vec![crate::config::CoreGroupConfig {
            name: "half".to_string(),
            cores: 4,
            clock_divider: 2,
            core: None,
        }];
        let r = Simulation::builder(&p, m).workers(4).build().run(&mut FixedIpc(2.0));
        // 1000 instr at IPC 2 = 500 local cycles = 1000 global ticks.
        assert_eq!(r.total_cycles, 1000);
        assert_eq!(r.groups[0].fast_tasks, 4);
    }
}
