//! The benchmark's only contact with the program.
//!
//! Every call into the workspace crates goes through this file, so an API
//! change in the program (a new run entry point, a removed builder knob)
//! touches the benchmark in one place. The rest of the benchmark sees cell
//! lists, prepared runs, deterministic outcomes and timing splits.
//!
//! Inputs the program would otherwise read from the environment are passed
//! explicitly here: one detail thread, the scale and seed, the executor
//! width and the store path.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use taskpoint::{SamplingPolicy, TaskPointConfig, TaskPointController};
use taskpoint_accuracy::{AdaptiveController, StratifiedController};
use taskpoint_campaign::{
    Campaign, CellKind, CellOutcome, Context, Executor, ResultStore, StoredCell, Sweep,
    STRATIFIED_BUDGETS, STRATIFIED_PILOT,
};
use taskpoint_runtime::{FifoScheduler, Program, Scheduler, TaskInstanceId, WorkerId};
use taskpoint_trace::{InstBlock, TraceSource, TraceSpec};
use taskpoint_workloads::{Benchmark, ScaleConfig};
use tasksim::{
    DetailedOnly, ExecMode, MachineConfig, MemorySystem, ModeController, NoiseModel,
    ProceduralTraces, RecordedTraces, SimResult, Simulation, TaskReport, TaskStart, TraceProvider,
};

use crate::spans::{Boundary, LayerClock, RunSplit};

pub use taskpoint_campaign::CellSpec;

/// The repository's default workload seed.
pub fn default_seed() -> u64 {
    ScaleConfig::new().seed
}

/// The workspace code fingerprint the program was built with.
pub fn code_fingerprint() -> &'static str {
    taskpoint_campaign::code_fingerprint()
}

fn full_scale(seed: u64) -> ScaleConfig {
    ScaleConfig { seed, ..ScaleConfig::new() }
}

fn quick_scale(seed: u64) -> ScaleConfig {
    ScaleConfig { seed, ..ScaleConfig::quick() }
}

/// Programs per cell of the `sampled` workload, each from its own seed
/// derived from `--seed`. How much detailed work lazy sampling does depends
/// on the program (freqmine's varies by a third between seeds): with two
/// programs per cell the detailed instructions of a pass still spread 11%
/// across ten seeds, and the fastest pass followed them (correlation 0.81).
/// Six programs per cell average that variance down.
const SAMPLED_SEEDS_PER_CELL: u64 = 6;

/// Programs per cell of the `reference` workload, whose work per program
/// barely varies between seeds.
const REFERENCE_SEEDS_PER_CELL: u64 = 2;

/// Seeds must stay below this: campaign records store the seed as a JSON
/// number, which holds integers exactly only up to 2^53.
pub const SEED_LIMIT: u64 = 1 << 53;

/// The `count` seeds of one run: `seed` itself, then seeds derived from it,
/// all below [`SEED_LIMIT`] when `seed` is.
fn derived_seeds(seed: u64, count: u64) -> impl Iterator<Item = u64> {
    (0..count).map(move |k| seed ^ (k << 40))
}

/// Cells of the `sampled` workload: lazy TaskPoint at full scale on the
/// high-performance machine with 8 workers, on four programs that load
/// different parts of a sampled run, plus one adaptive and one stratified
/// cell so the accuracy controllers run while timed.
pub fn sampled_specs(seed: u64) -> Vec<CellSpec> {
    let machine = MachineConfig::high_performance();
    let lazy = TaskPointConfig::lazy();
    let mut specs = Vec::new();
    for scale in derived_seeds(seed, SAMPLED_SEEDS_PER_CELL).map(full_scale) {
        for bench in [Benchmark::Cholesky, Benchmark::Vecop, Benchmark::Freqmine, Benchmark::Nbody]
        {
            specs.push(CellSpec::sampled(bench, scale, machine.clone(), 8, lazy));
        }
        for config in [
            TaskPointConfig::adaptive(0.05),
            TaskPointConfig::stratified(STRATIFIED_PILOT, STRATIFIED_BUDGETS[0]),
        ] {
            specs.push(CellSpec::sampled(Benchmark::Cholesky, scale, machine.clone(), 8, config));
        }
    }
    specs
}

/// Instruction factor of the `reference` workload. At full scale one pass
/// takes about 2 s on a 2-core host, too long for many passes in one run;
/// 0.15 keeps sparse-matrix-vector-multiplication's data (24 bytes per
/// instruction, about 35 MB) well above the 21 MB last-level cache, so it
/// still prewarms nothing and misses to DRAM.
const REFERENCE_INSTR_FACTOR: f64 = 0.15;

/// Cells of the `reference` workload: detailed-only runs on the
/// high-performance machine with 8 workers, at [`REFERENCE_INSTR_FACTOR`].
pub fn reference_specs(seed: u64) -> Vec<CellSpec> {
    let machine = MachineConfig::high_performance();
    let mut specs = Vec::new();
    for seed in derived_seeds(seed, REFERENCE_SEEDS_PER_CELL) {
        let scale = ScaleConfig { instr_factor: REFERENCE_INSTR_FACTOR, seed };
        for bench in [Benchmark::Cholesky, Benchmark::Spmv] {
            specs.push(CellSpec::reference(bench, scale, machine.clone(), 8));
        }
    }
    specs
}

/// Benchmarks of the `campaign` workload: the kernels of the `adaptive`
/// and `hetero` sweeps. External (ingested) workloads are always kept.
const CAMPAIGN_BENCHES: [Benchmark; 2] = [Benchmark::Cholesky, Benchmark::Spmv];

/// Cells of the `campaign` workload: the quick-scale `all`, `adaptive`,
/// `ingested` and `hetero` sweeps, restricted to [`CAMPAIGN_BENCHES`] and
/// the external workloads so one cold pass takes about a second.
pub fn campaign_specs(seed: u64) -> Vec<CellSpec> {
    let scale = quick_scale(seed);
    [Sweep::All, Sweep::Adaptive, Sweep::Ingested, Sweep::Hetero]
        .into_iter()
        .flat_map(|sweep| sweep.specs(scale))
        .filter(|s| {
            matches!(s.bench, Benchmark::External(_)) || CAMPAIGN_BENCHES.contains(&s.bench)
        })
        .collect()
}

/// Short display label of a cell: its benchmark and, for sampled cells,
/// the policy (`cholesky/lazy`), else the kind (`spmv/reference`).
fn cell_label(spec: &CellSpec) -> String {
    let what = match &spec.kind {
        CellKind::Sampled { config } => match config.policy {
            SamplingPolicy::Lazy => "lazy",
            SamplingPolicy::Periodic { .. } => "periodic",
            SamplingPolicy::Adaptive { .. } => "adaptive",
            SamplingPolicy::Stratified { .. } => "stratified",
        },
        kind => kind.tag(),
    };
    format!("{}/{what}", spec.bench.name())
}

/// Which benchmark layer a cell's mode controller belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControllerLayer {
    /// `TaskPointController`, or the `DetailedOnly` baseline of detailed
    /// runs.
    Core,
    /// The adaptive and stratified controllers.
    Accuracy,
}

/// A simulation ready to run: its cell, program and trace provider.
pub struct Prepared {
    /// Display label.
    pub label: String,
    /// The cell's content hash.
    pub hash: String,
    spec: CellSpec,
    program: Arc<Program>,
    bundle: Option<Arc<RecordedTraces>>,
}

impl Prepared {
    /// Task instances in the program.
    pub fn instances(&self) -> u64 {
        self.program.num_instances() as u64
    }

    /// Dynamic instructions in the program.
    pub fn instructions(&self) -> u64 {
        self.program.total_instructions()
    }

    /// The layer of the cell's controller.
    fn layer(&self) -> ControllerLayer {
        match &self.spec.kind {
            CellKind::Sampled { config }
                if config.policy.is_adaptive() || config.policy.is_stratified() =>
            {
                ControllerLayer::Accuracy
            }
            _ => ControllerLayer::Core,
        }
    }
}

/// Program generation over one cell list.
#[derive(Debug, Clone, Copy, Default)]
pub struct Generated {
    /// Host time in `Benchmark::generate` (and, for ingested workloads,
    /// building the recorded-stream bundle).
    pub generate_ns: u64,
    /// Task instances over the distinct programs.
    pub instances: u64,
    /// Dynamic instructions over the distinct programs.
    pub instructions: u64,
}

type ProgramKey = (Benchmark, u64, u64);

/// Generates the programs of `specs` and returns one prepared simulation per
/// distinct cell. With `with_references`, the reference run behind every
/// sampled cell is added too, so the list is every simulation a cold
/// campaign pass over `specs` performs.
pub fn prepare(specs: &[CellSpec], with_references: bool) -> (Vec<Prepared>, Generated) {
    let mut sims: Vec<CellSpec> = Vec::new();
    let mut seen = BTreeSet::new();
    for spec in specs {
        let deps = if with_references { spec.reference_spec() } else { None };
        for s in deps.into_iter().chain(std::iter::once(spec.clone())) {
            if seen.insert(s.hash_hex()) {
                sims.push(s);
            }
        }
    }
    let mut programs: HashMap<ProgramKey, (Arc<Program>, Option<Arc<RecordedTraces>>)> =
        HashMap::new();
    let mut gen = Generated::default();
    let mut prepared = Vec::with_capacity(sims.len());
    for spec in sims {
        let key = (spec.bench, spec.scale.instr_factor.to_bits(), spec.scale.seed);
        let (program, bundle) = programs
            .entry(key)
            .or_insert_with(|| {
                let t = Instant::now();
                let program = spec.bench.generate(&spec.scale);
                let bundle = match spec.bench {
                    Benchmark::External(w) => {
                        Some(Arc::new(RecordedTraces::from_ingested(&w.ingest())))
                    }
                    _ => None,
                };
                gen.generate_ns += t.elapsed().as_nanos() as u64;
                gen.instances += program.num_instances() as u64;
                gen.instructions += program.total_instructions();
                (Arc::new(program), bundle)
            })
            .clone();
        let mut label = cell_label(&spec);
        let repeats = prepared.iter().filter(|p: &&Prepared| p.label.starts_with(&label)).count();
        if repeats > 0 {
            label = format!("{label}#{repeats}");
        }
        prepared.push(Prepared { label, hash: spec.hash_hex(), spec, program, bundle });
    }
    (prepared, gen)
}

/// The deterministic result of one simulation: everything a timed run must
/// reproduce exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated cycles.
    pub total_cycles: u64,
    /// Task instances simulated in detail.
    pub detailed_tasks: u64,
    /// Task instances fast-forwarded.
    pub fast_tasks: u64,
    /// Instructions simulated in detail.
    pub detailed_instructions: u64,
    /// Instructions fast-forwarded.
    pub fast_instructions: u64,
    /// L1 accesses over all cores.
    pub l1_accesses: u64,
    /// L1 misses over all cores.
    pub l1_misses: u64,
    /// Last-level cache accesses.
    pub llc_accesses: u64,
    /// Last-level cache misses.
    pub llc_misses: u64,
    /// Accesses that reached DRAM.
    pub dram_accesses: u64,
    /// Coherence invalidations.
    pub invalidations: u64,
    /// Resamples of a `TaskPointController` (0 for other controllers).
    pub resamples: u64,
}

impl Outcome {
    fn from_result(r: &SimResult, resamples: u64) -> Self {
        let level =
            |l: Option<&tasksim::LevelStats>| l.map_or((0, 0), |s| (s.hits + s.misses, s.misses));
        let (l1_accesses, l1_misses) = level(r.private_cache.first());
        let (llc_accesses, llc_misses) = level(r.shared_cache.last());
        Self {
            total_cycles: r.total_cycles,
            detailed_tasks: r.detailed_tasks,
            fast_tasks: r.fast_tasks,
            detailed_instructions: r.detailed_instructions,
            fast_instructions: r.fast_instructions,
            l1_accesses,
            l1_misses,
            llc_accesses,
            llc_misses,
            dram_accesses: r.dram_accesses,
            invalidations: r.invalidations,
            resamples,
        }
    }
}

/// Runs one prepared simulation, single-threaded, with telemetry off. With
/// a clock, the controller, trace provider and scheduler are wrapped in
/// timing shims and the run's host-time split is returned as well.
pub fn simulate(p: &Prepared, clock: Option<&Rc<LayerClock>>) -> (Outcome, Option<RunSplit>) {
    match &p.spec.kind {
        CellKind::Reference | CellKind::Variation { .. } => {
            let (r, split) = run_engine(p, &mut DetailedOnly, clock);
            (Outcome::from_result(&r, 0), split)
        }
        CellKind::Sampled { config } if config.policy.is_adaptive() => {
            let cfg = config.adaptive_config().expect("adaptive policy has an adaptive config");
            let (r, split) = run_engine(p, &mut AdaptiveController::new(cfg), clock);
            (Outcome::from_result(&r, 0), split)
        }
        CellKind::Sampled { config } if config.policy.is_stratified() => {
            let cfg =
                config.stratified_config().expect("stratified policy has a stratified config");
            let mut ctl = StratifiedController::new(cfg);
            ctl.prime(p.program.instances().iter().map(|i| (i.type_id(), i.instructions())));
            let (r, split) = run_engine(p, &mut ctl, clock);
            (Outcome::from_result(&r, 0), split)
        }
        CellKind::Sampled { config } => {
            let mut ctl = TaskPointController::new(*config);
            let (r, split) = run_engine(p, &mut ctl, clock);
            let resamples = ctl.into_stats().resamples.len() as u64;
            (Outcome::from_result(&r, resamples), split)
        }
        other => panic!("the benchmark has no {} cells", other.tag()),
    }
}

fn run_engine<C: ModeController>(
    p: &Prepared,
    controller: &mut C,
    clock: Option<&Rc<LayerClock>>,
) -> (SimResult, Option<RunSplit>) {
    let spec = &p.spec;
    let mut builder = Simulation::builder(&p.program, spec.machine.clone())
        .workers(spec.workers)
        .detail_threads(1);
    if let CellKind::Variation { noise_seed } = spec.kind {
        builder = builder.collect_reports(true);
        if let Some(seed) = noise_seed {
            builder = builder.noise(NoiseModel::native_execution(seed));
        }
    }
    let traces: Box<dyn TraceProvider> = match &p.bundle {
        Some(bundle) => Box::new(bundle.as_ref().clone()),
        None => Box::new(ProceduralTraces),
    };
    let Some(clock) = clock else {
        return (builder.traces(traces).build().run(controller), None);
    };
    let t = clock.now();
    black_box(MemorySystem::new(&spec.machine, spec.workers));
    let memsys_new_ns = clock.now() - t;
    let sim = builder
        .traces(Box::new(TimedTraces { inner: traces, clock: clock.clone() }))
        .scheduler(Box::new(TimedScheduler { inner: FifoScheduler::new(), clock: clock.clone() }))
        .build();
    let mut timed = TimedController { inner: controller, clock: clock.clone(), layer: p.layer() };
    let start = clock.now();
    let result = sim.run(&mut timed);
    let end = clock.now();
    (result, Some(clock.split(start, end, memsys_new_ns)))
}

/// Times a mode controller's decisions and observations.
struct TimedController<'a, C> {
    inner: &'a mut C,
    clock: Rc<LayerClock>,
    layer: ControllerLayer,
}

impl<C: ModeController> ModeController for TimedController<'_, C> {
    fn mode_for_task(&mut self, start: &TaskStart) -> ExecMode {
        let inner = &mut *self.inner;
        let boundary = match self.layer {
            ControllerLayer::Core => Boundary::CoreDecide,
            ControllerLayer::Accuracy => Boundary::AccuracyDecide,
        };
        let mode = self.clock.time(boundary, || inner.mode_for_task(start));
        let detailed = mode == ExecMode::Detailed;
        self.clock.count(|c| match self.layer {
            ControllerLayer::Core if detailed => c.core_detailed += 1,
            ControllerLayer::Core => c.core_fast += 1,
            ControllerLayer::Accuracy if detailed => c.accuracy_detailed += 1,
            ControllerLayer::Accuracy => {}
        });
        mode
    }

    fn on_task_complete(&mut self, report: &TaskReport) {
        let inner = &mut *self.inner;
        let boundary = match self.layer {
            ControllerLayer::Core => Boundary::CoreObserve,
            ControllerLayer::Accuracy => Boundary::AccuracyObserve,
        };
        self.clock.time(boundary, || inner.on_task_complete(report));
    }
}

/// Hands out timing wrappers around the inner provider's trace sources.
struct TimedTraces {
    inner: Box<dyn TraceProvider>,
    clock: Rc<LayerClock>,
}

impl TraceProvider for TimedTraces {
    fn source(&self, task: TaskInstanceId, spec: &TraceSpec) -> Box<dyn TraceSource> {
        self.clock.count(|c| c.sources += 1);
        Box::new(TimedSource { inner: self.inner.source(task, spec), clock: self.clock.clone() })
    }
}

struct TimedSource {
    inner: Box<dyn TraceSource>,
    clock: Rc<LayerClock>,
}

impl TraceSource for TimedSource {
    fn fill(&mut self, block: &mut InstBlock) -> usize {
        let inner = &mut self.inner;
        let n = self.clock.time(Boundary::Fill, || inner.fill(block));
        self.clock.count(|c| c.fill_instructions += n as u64);
        n
    }
}

/// Times the scheduler's `task_ready` and `pick`. `ready_count` is a field
/// read that the engine polls in its hottest loop, so it is forwarded
/// untimed.
struct TimedScheduler {
    inner: FifoScheduler,
    clock: Rc<LayerClock>,
}

impl Scheduler for TimedScheduler {
    fn task_ready(&mut self, task: TaskInstanceId) {
        let inner = &mut self.inner;
        self.clock.time(Boundary::Sched, || inner.task_ready(task));
        let ready = self.inner.ready_count() as u64;
        self.clock.count(|c| c.ready_peak = c.ready_peak.max(ready));
    }

    fn pick(&mut self, worker: WorkerId) -> Option<TaskInstanceId> {
        let inner = &mut self.inner;
        let task = self.clock.time(Boundary::Sched, || inner.pick(worker));
        if task.is_some() {
            self.clock.count(|c| c.picks += 1);
        }
        task
    }

    fn ready_count(&self) -> usize {
        self.inner.ready_count()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One untraced pass of `Campaign::run` over a persistent store.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The canonical JSONL.
    pub jsonl: String,
    /// Cells simulated by this pass.
    pub computed: usize,
    /// Cells served from the store or deduplicated in memory.
    pub cached: usize,
    /// Host wall time of `Campaign::run`.
    pub wall_ns: u64,
    /// Simulated instructions of each benchmark's program, from the records.
    pub instructions_by_bench: BTreeMap<String, u64>,
}

/// Runs every cell through a fresh `Campaign` (fresh in-memory context) on
/// the store at `store_root`, with an executor of `workers` threads.
pub fn campaign_pass(specs: &[CellSpec], store_root: &Path, workers: usize) -> Pass {
    let campaign = Campaign::new(ResultStore::at(store_root), Executor::new(workers));
    let t = Instant::now();
    let report = campaign.run(specs);
    let wall_ns = t.elapsed().as_nanos() as u64;
    Pass {
        jsonl: report.jsonl(),
        computed: report.computed,
        cached: report.cached,
        wall_ns,
        instructions_by_bench: instructions_by_bench(&report.outcomes),
    }
}

fn instructions_by_bench(outcomes: &[CellOutcome]) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    for o in outcomes {
        let m = &o.record.metrics;
        let n = match (m.as_reference(), m.as_eval()) {
            (Some(r), _) => r.instructions,
            (_, Some(e)) => e.detailed_instructions + e.fast_instructions,
            _ => continue,
        };
        map.insert(o.record.bench.clone(), n);
    }
    map
}

/// Instructions simulated by a cold pass over `specs`: every distinct
/// simulation, including the references behind sampled cells, simulates
/// its whole program. `None` if a benchmark's program size is unknown.
pub fn cold_pass_instructions(specs: &[CellSpec], by_bench: &BTreeMap<String, u64>) -> Option<u64> {
    let mut seen = BTreeSet::new();
    let mut total = 0;
    for spec in specs {
        for s in spec.reference_spec().into_iter().chain(std::iter::once(spec.clone())) {
            if seen.insert(s.hash_hex()) {
                total += by_bench.get(s.bench.name())?;
            }
        }
    }
    Some(total)
}

/// Host time of one cell inside a traced campaign pass.
#[derive(Debug, Clone)]
pub struct CellTime {
    /// The cell's kind tag.
    pub kind: &'static str,
    /// Time in `Context::compute`.
    pub ns: u64,
}

/// The campaign layer, measured around direct calls.
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    /// Per-cell `Context::compute` time of the cold pass.
    pub cold: Vec<CellTime>,
    /// Wall time of the cold pass.
    pub cold_wall_ns: u64,
    /// Wall time of the warm pass (every cell a store hit).
    pub warm_wall_ns: u64,
    /// Executor width.
    pub workers: usize,
    /// Canonical JSONL of the cold pass.
    pub jsonl: String,
    /// Canonical JSONL of the warm pass.
    pub warm_jsonl: String,
    /// Cells the cold pass simulated.
    pub computed: u64,
    /// Cells the cold pass did not simulate (duplicates).
    pub cached: u64,
    /// Cells the warm pass served from the store.
    pub warm_cached: u64,
    /// `StoredCell::to_json` over every distinct cell.
    pub json_encode_ns: u64,
    /// `ResultStore::save` over every distinct cell.
    pub store_save_ns: u64,
    /// `ResultStore::load` over every distinct cell.
    pub store_load_ns: u64,
    /// `StoredCell::from_json` over every distinct cell.
    pub json_parse_ns: u64,
    /// Cells that did not round-trip through the store unchanged.
    pub round_trip_failures: u64,
    /// Absolute cycle error of every sampled cell, in percent.
    pub error_pct: Vec<f64>,
    /// Simulated cycles by cell hash (reference and sampled cells).
    pub cycles_by_hash: BTreeMap<String, u64>,
}

/// Runs every cell through `Context::compute` on `executor`, timing each
/// call: a cold pass into a fresh store at `store_root`, a warm pass over
/// the same store with a fresh context, then the store and JSON calls one
/// by one against a second store at `scratch_root`.
pub fn traced_campaign(
    specs: &[CellSpec],
    store_root: &Path,
    scratch_root: &Path,
    workers: usize,
) -> CampaignTrace {
    let store = ResultStore::at(store_root);
    let executor = Executor::new(workers);
    let timed_pass = || {
        let ctx = Context::new();
        let t = Instant::now();
        let cells = executor.run(specs, |_, spec| {
            let t = Instant::now();
            let outcome = ctx.compute(&store, spec);
            (outcome, t.elapsed().as_nanos() as u64)
        });
        (cells, t.elapsed().as_nanos() as u64)
    };
    let jsonl = |cells: &[(CellOutcome, u64)]| -> String {
        cells.iter().map(|(o, _)| o.record.to_json() + "\n").collect()
    };
    let (cold, cold_wall_ns) = timed_pass();
    let (warm, warm_wall_ns) = timed_pass();
    let mut trace = CampaignTrace {
        cold: cold.iter().map(|(o, ns)| CellTime { kind: o.spec.kind.tag(), ns: *ns }).collect(),
        cold_wall_ns,
        warm_wall_ns,
        workers: executor.workers(),
        jsonl: jsonl(&cold),
        warm_jsonl: jsonl(&warm),
        computed: cold.iter().filter(|(o, _)| !o.cached).count() as u64,
        cached: cold.iter().filter(|(o, _)| o.cached).count() as u64,
        warm_cached: warm.iter().filter(|(o, _)| o.cached).count() as u64,
        ..CampaignTrace::default()
    };
    let scratch = ResultStore::at(scratch_root);
    let mut done = BTreeSet::new();
    for (o, _) in &cold {
        let m = &o.record.metrics;
        if let Some(r) = m.as_reference() {
            trace.cycles_by_hash.insert(o.record.cell.clone(), r.total_cycles);
        }
        if let Some(e) = m.as_eval() {
            trace.cycles_by_hash.insert(o.record.cell.clone(), e.predicted_cycles);
            trace.error_pct.push(e.error_percent.abs());
        }
        if !done.insert(o.record.cell.clone()) {
            continue;
        }
        let cell = StoredCell { record: o.record.clone(), timing: o.timing.clone() };
        let t = Instant::now();
        let text = black_box(cell.to_json());
        trace.json_encode_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        scratch.save(&o.record.cell, &cell);
        trace.store_save_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let loaded = scratch.load(&o.record.cell);
        trace.store_load_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let parsed = StoredCell::from_json(&text);
        trace.json_parse_ns += t.elapsed().as_nanos() as u64;
        if loaded.as_ref() != Some(&cell) || parsed.ok().as_ref() != Some(&cell) {
            trace.round_trip_failures += 1;
        }
    }
    trace
}

/// `specs` preceded by the distinct references its sampled cells compare
/// against.
pub fn references_first(specs: &[CellSpec]) -> Vec<CellSpec> {
    let mut seen = BTreeSet::new();
    let refs = specs.iter().filter_map(CellSpec::reference_spec);
    refs.filter(|r| seen.insert(r.hash_hex())).chain(specs.iter().cloned()).collect()
}

/// Times building the cell list of one workload.
pub fn time_spec_build(build: fn(u64) -> Vec<CellSpec>, seed: u64) -> u64 {
    let t = Instant::now();
    black_box(build(seed));
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three timing wrappers must not change a single simulated bit:
    /// a traced run of every controller kind equals the untraced one.
    #[test]
    fn wrappers_leave_quick_scale_results_bit_identical() {
        let scale = quick_scale(default_seed());
        let machine = MachineConfig::high_performance();
        let specs = vec![
            CellSpec::reference(Benchmark::Cholesky, scale, machine.clone(), 8),
            CellSpec::sampled(
                Benchmark::Cholesky,
                scale,
                machine.clone(),
                8,
                TaskPointConfig::lazy(),
            ),
            CellSpec::sampled(
                Benchmark::Spmv,
                scale,
                machine.clone(),
                4,
                TaskPointConfig::adaptive(0.05),
            ),
            CellSpec::sampled(
                Benchmark::Spmv,
                scale,
                machine,
                4,
                TaskPointConfig::stratified(4, 64),
            ),
        ];
        let (prepared, _) = prepare(&specs, false);
        for p in &prepared {
            let (plain, none) = simulate(p, None);
            assert!(none.is_none());
            let clock = Rc::new(LayerClock::new());
            let (traced, split) = simulate(p, Some(&clock));
            assert_eq!(plain, traced, "{}", p.label);
            let split = split.expect("a traced run returns its split");
            assert_eq!(split.counts.picks, p.instances(), "{}", p.label);
            assert_eq!(split.counts.fill_instructions, traced.detailed_instructions, "{}", p.label);
        }
    }

    #[test]
    fn campaign_cold_pass_counts_hidden_references() {
        let specs = vec![CellSpec::sampled(
            Benchmark::Spmv,
            quick_scale(default_seed()),
            MachineConfig::low_power(),
            2,
            TaskPointConfig::lazy(),
        )];
        let (prepared, gen) = prepare(&specs, true);
        assert_eq!(prepared.len(), 2, "the sampled cell and its reference");
        let by_bench = BTreeMap::from([(Benchmark::Spmv.name().to_string(), gen.instructions)]);
        assert_eq!(cold_pass_instructions(&specs, &by_bench), Some(2 * gen.instructions));
    }
}
