//! Shared computation context: programs and detailed references computed
//! once per process and shared across cells (and across executor threads).
//!
//! Generated programs and full-detail reference runs are the expensive
//! shared inputs of a sweep: every sampled cell of Figs. 7–10 compares
//! against the reference of its `(benchmark, machine, threads)` cell, and
//! several figures share benchmarks. The context keys both by content
//! (program: benchmark + scale; reference: the reference cell's hash) and
//! guards each slot with a [`OnceLock`], so under a parallel executor only
//! one worker computes a given unit while the others block on it —
//! never duplicating a multi-second detailed run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use taskpoint::{
    AccuracyReport, ExperimentOutcome, ResampleCause, RunOutcome, SamplingPolicy, TaskPointConfig,
};
use taskpoint_runtime::Program;
use taskpoint_stats::{normalize_by_group, BoxplotStats};
use taskpoint_workloads::{Benchmark, ExternalWorkload, ScaleConfig};
use tasksim::{
    DetailedOnly, NoiseModel, ProceduralTraces, RecordedTraces, SimResult, Simulation,
    SimulationBuilder, Telemetry, TraceProvider,
};

use crate::record::{
    CellMetrics, CellOutcome, CellRecord, CellTiming, EvalMetrics, ExploreMetrics, GroupMetric,
    PerfProfile, RefMetrics, StoredCell, VariationMetrics,
};
use crate::spec::{CellKind, CellSpec};
use crate::store::ResultStore;

/// Program cache key: benchmark + scale (by bit pattern).
type ProgramKey = (Benchmark, u64, u64);

fn program_key(bench: Benchmark, scale: &ScaleConfig) -> ProgramKey {
    (bench, scale.instr_factor.to_bits(), scale.seed)
}

/// A computed (or cache-loaded) reference unit.
#[derive(Debug, Clone)]
pub struct ReferenceEntry {
    /// The reference result (reports stripped; cache-loaded entries are
    /// reconstructed summaries carrying cycles, counts and wall time).
    pub result: Arc<SimResult>,
    /// The persisted form.
    pub stored: StoredCell,
    /// Whether it came from the store.
    pub cached: bool,
}

/// Shared per-process computation state.
///
/// Every expensive unit — program, reference, and each non-reference cell
/// — sits behind a per-key [`OnceLock`], so duplicate specs in one batch
/// (e.g. a Fig. 6 config that coincides with a Fig. 7/9 cell inside
/// `Sweep::All`) are simulated once and never race on the store.
#[derive(Debug, Default)]
pub struct Context {
    programs: Mutex<HashMap<ProgramKey, Arc<OnceLock<Arc<Program>>>>>,
    references: Mutex<HashMap<String, Arc<OnceLock<ReferenceEntry>>>>,
    cells: Mutex<HashMap<String, Arc<OnceLock<StoredCell>>>>,
    /// Recorded-stream bundles of external (ingested) workloads, shared
    /// like programs: the fixture is parsed and packaged once per process.
    bundles: Mutex<HashMap<ExternalWorkload, Arc<OnceLock<Arc<RecordedTraces>>>>>,
}

fn strip_reports(mut result: SimResult) -> SimResult {
    result.reports = Vec::new();
    result
}

/// Rebuilds a summary `SimResult` from a cached reference record — enough
/// for [`ExperimentOutcome::compare`] (cycles + wall time) and for callers
/// inspecting task counts.
fn reference_result_from_stored(stored: &StoredCell, workers: u32) -> SimResult {
    let m = stored.record.metrics.as_reference().expect("reference record");
    // The record persists latency percentiles; the stub rebuilds the
    // summary struct (count = completed tasks).
    let task_latency = tasksim::LatencyPercentiles {
        count: m.detailed_tasks,
        p50: m.perf.lat_p50,
        p99: m.perf.lat_p99,
        p999: m.perf.lat_p999,
    };
    let groups = m
        .groups
        .as_deref()
        .unwrap_or_default()
        .iter()
        .map(|g| tasksim::GroupStats {
            name: g.name.clone(),
            cores: g.cores,
            clock_divider: g.clock_divider,
            detailed_tasks: g.detailed_tasks,
            fast_tasks: 0,
            instructions: g.instructions,
            busy_ticks: g.busy_ticks,
        })
        .collect();
    SimResult {
        total_cycles: m.total_cycles,
        wall_seconds: stored.timing.wall_seconds,
        setup_seconds: stored.timing.setup_seconds.unwrap_or(0.0),
        detailed_tasks: m.detailed_tasks,
        fast_tasks: 0,
        detailed_instructions: m.instructions,
        fast_instructions: 0,
        reports: Vec::new(),
        invalidations: 0,
        dram_accesses: 0,
        private_cache: Vec::new(),
        shared_cache: Vec::new(),
        workers,
        groups,
        // Stall attribution is not reconstructible from the flat summed
        // keys; the stub carries no accounts (callers treat that as "no
        // accounting data").
        cycle_accounts: Vec::new(),
        task_latency,
    }
}

/// The per-group metrics a reference result persists: `None` for
/// homogeneous machines (the record then omits the key entirely).
fn group_metrics(result: &SimResult) -> Option<Vec<GroupMetric>> {
    if result.groups.is_empty() {
        return None;
    }
    Some(
        result
            .groups
            .iter()
            .map(|g| GroupMetric {
                name: g.name.clone(),
                cores: g.cores,
                clock_divider: g.clock_divider,
                detailed_tasks: g.detailed_tasks,
                instructions: g.instructions,
                busy_ticks: g.busy_ticks,
            })
            .collect(),
    )
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (generating on first use) the benchmark's program at the
    /// given scale.
    pub fn program(&self, bench: Benchmark, scale: &ScaleConfig) -> Arc<Program> {
        let slot = {
            let mut map = self.programs.lock().expect("program map poisoned");
            map.entry(program_key(bench, scale)).or_default().clone()
        };
        slot.get_or_init(|| Arc::new(bench.generate(scale))).clone()
    }

    /// Returns (ingesting on first use) the recorded-stream bundle of an
    /// external workload's fixture trace.
    pub fn bundle(&self, workload: ExternalWorkload) -> Arc<RecordedTraces> {
        let slot = {
            let mut map = self.bundles.lock().expect("bundle map poisoned");
            map.entry(workload).or_default().clone()
        };
        slot.get_or_init(|| Arc::new(RecordedTraces::from_ingested(&workload.ingest()))).clone()
    }

    /// The trace provider a cell's detailed streams come from: the
    /// ingested bundle for external benchmarks (their fallback specs are
    /// placeholders), the procedural generator for everything else.
    /// Cloning the bundle shares the `Arc`-backed streams, not the bytes.
    fn provider(&self, bench: Benchmark) -> Box<dyn TraceProvider> {
        match bench {
            Benchmark::External(w) => Box::new(self.bundle(w).as_ref().clone()),
            _ => Box::new(ProceduralTraces),
        }
    }

    /// A simulation of `program` on the cell's machine and workers, reading
    /// its streams from the cell's trace provider and recording into
    /// `telemetry`.
    fn simulation<'p>(
        &self,
        program: &'p Program,
        spec: &CellSpec,
        telemetry: &Telemetry,
    ) -> SimulationBuilder<'p> {
        Simulation::builder(program, spec.machine.clone())
            .workers(spec.workers)
            .traces(self.provider(spec.bench))
            .telemetry(telemetry.clone())
    }

    /// Returns (computing or cache-loading on first use) the reference
    /// entry for a reference cell spec. `cached` in the entry is true iff
    /// it was served from the persistent store.
    pub fn reference_entry(&self, store: &ResultStore, spec: &CellSpec) -> ReferenceEntry {
        self.reference_entry_observed(store, spec, &Telemetry::disabled())
    }

    /// Like [`Context::reference_entry`], recording the reference run into
    /// `telemetry` when this call performs the simulation. Cache hits (in
    /// memory or on disk) record nothing — there is no run to observe.
    pub fn reference_entry_observed(
        &self,
        store: &ResultStore,
        spec: &CellSpec,
        telemetry: &Telemetry,
    ) -> ReferenceEntry {
        debug_assert!(matches!(spec.kind, CellKind::Reference));
        let hash = spec.hash_hex();
        let slot = {
            let mut map = self.references.lock().expect("reference map poisoned");
            map.entry(hash.clone()).or_default().clone()
        };
        let entry = slot.get_or_init(|| {
            if let Some(stored) = store.load(&hash) {
                let result = Arc::new(reference_result_from_stored(&stored, spec.workers));
                return ReferenceEntry { result, stored, cached: true };
            }
            let program = self.program(spec.bench, &spec.scale);
            let result = strip_reports(
                self.simulation(&program, spec, telemetry).build().run(&mut DetailedOnly),
            );
            let metrics = CellMetrics::Reference(RefMetrics {
                total_cycles: result.total_cycles,
                detailed_tasks: result.detailed_tasks,
                instructions: result.total_instructions(),
                groups: group_metrics(&result),
                perf: PerfProfile::from_result(&result),
            });
            let stored = StoredCell {
                record: CellRecord::new(&hash, spec, metrics),
                timing: CellTiming::new(&result, None),
            };
            store.save(&hash, &stored);
            ReferenceEntry { result: Arc::new(result), stored, cached: false }
        });
        entry.clone()
    }

    /// Convenience: the reference `SimResult` for a cell (shared, reports
    /// stripped).
    pub fn reference(
        &self,
        store: &ResultStore,
        bench: Benchmark,
        scale: ScaleConfig,
        machine: tasksim::MachineConfig,
        workers: u32,
    ) -> Arc<SimResult> {
        let spec = CellSpec::reference(bench, scale, machine, workers);
        self.reference_entry(store, &spec).result
    }

    /// Computes (or loads) one cell. `cached` in the returned outcome is
    /// true whenever the process did not simulate it — served from the
    /// store, or deduplicated against a concurrent/earlier identical spec.
    ///
    /// For reference cells the flag deliberately reflects the *store*, not
    /// which call won the in-memory init: a sampled cell that races ahead
    /// of its reference's own spec computes the reference as a dependency,
    /// and which thread wins that race is scheduling noise — counting it
    /// as a cache hit would make `CampaignReport::computed` depend on
    /// thread timing.
    pub fn compute(&self, store: &ResultStore, spec: &CellSpec) -> CellOutcome {
        self.compute_observed(store, spec, &Telemetry::disabled())
    }

    /// Like [`Context::compute`], recording the cell's own simulation into
    /// `telemetry` when this call performs it. Cache hits record nothing,
    /// and dependency work (a sampled cell computing its reference) stays
    /// unobserved so each cell's event stream describes exactly one run.
    pub fn compute_observed(
        &self,
        store: &ResultStore,
        spec: &CellSpec,
        telemetry: &Telemetry,
    ) -> CellOutcome {
        let hash = spec.hash_hex();
        if let CellKind::Reference = spec.kind {
            let entry = self.reference_entry_observed(store, spec, telemetry);
            return CellOutcome {
                spec: spec.clone(),
                record: entry.stored.record.clone(),
                timing: entry.stored.timing.clone(),
                cached: entry.cached,
            };
        }
        let slot = {
            let mut map = self.cells.lock().expect("cell map poisoned");
            map.entry(hash.clone()).or_default().clone()
        };
        let mut ran_sim = false;
        let stored = slot.get_or_init(|| {
            if let Some(stored) = store.load(&hash) {
                return stored;
            }
            ran_sim = true;
            let stored = self.simulate_cell(store, spec, &hash, telemetry);
            store.save(&hash, &stored);
            stored
        });
        CellOutcome {
            spec: spec.clone(),
            record: stored.record.clone(),
            timing: stored.timing.clone(),
            cached: !ran_sim,
        }
    }

    /// Runs the simulation behind one non-reference cell. `telemetry`
    /// observes the cell's own run; dependency references stay unobserved.
    fn simulate_cell(
        &self,
        store: &ResultStore,
        spec: &CellSpec,
        hash: &str,
        telemetry: &Telemetry,
    ) -> StoredCell {
        match &spec.kind {
            CellKind::Reference => unreachable!("reference cells go through reference_entry"),
            CellKind::Sampled { config } => self.eval_cell(store, spec, hash, telemetry, *config),
            CellKind::Variation { noise_seed } => {
                let program = self.program(spec.bench, &spec.scale);
                let mut builder = self.simulation(&program, spec, telemetry).collect_reports(true);
                if let Some(seed) = noise_seed {
                    builder = builder.noise(NoiseModel::native_execution(*seed));
                }
                let result = builder.build().run(&mut DetailedOnly);
                let samples: Vec<(u32, f64)> = result
                    .reports
                    .iter()
                    .filter(|r| r.instructions > 0)
                    .map(|r| (r.type_id.0, r.ipc()))
                    .collect();
                let deviations = normalize_by_group(samples);
                let stats = BoxplotStats::from_samples(&deviations)
                    .expect("variation cell produced no IPC samples");
                let metrics = CellMetrics::Variation(VariationMetrics::from_boxplot(&stats));
                StoredCell {
                    record: CellRecord::new(hash, spec, metrics),
                    timing: CellTiming::new(&result, None),
                }
            }
            CellKind::Explore { config } => {
                let program = self.program(spec.bench, &spec.scale);
                let RunOutcome { result: sampled, stats, .. } =
                    taskpoint::run(self.simulation(&program, spec, telemetry).build(), *config);
                let metrics = CellMetrics::Explore(ExploreMetrics {
                    predicted_cycles: sampled.total_cycles,
                    detail_fraction: sampled.detail_fraction(),
                    detailed_tasks: sampled.detailed_tasks,
                    fast_tasks: sampled.fast_tasks,
                    detailed_instructions: sampled.detailed_instructions,
                    fast_instructions: sampled.fast_instructions,
                    resamples: stats.resamples.len() as u64,
                });
                StoredCell {
                    record: CellRecord::new(hash, spec, metrics),
                    timing: CellTiming::new(&sampled, None),
                }
            }
        }
    }

    /// Runs a sampled cell and compares it against its detailed reference
    /// (computed unobserved if it is not cached yet).
    fn eval_cell(
        &self,
        store: &ResultStore,
        spec: &CellSpec,
        hash: &str,
        telemetry: &Telemetry,
        config: TaskPointConfig,
    ) -> StoredCell {
        let program = self.program(spec.bench, &spec.scale);
        let reference =
            self.reference_entry(store, &spec.reference_spec().expect("eval cell has reference"));
        let RunOutcome { result: sampled, stats, accuracy } =
            taskpoint::run(self.simulation(&program, spec, telemetry).build(), config);
        let accuracy = accuracy.as_ref();
        let outcome = ExperimentOutcome::compare(&sampled, &reference.result);
        // Adaptive cells persist their CI target, stratified cells the
        // configured pilot/budget alongside the realized allocation, and
        // both their confidence level; other cells omit the keys.
        let (ci_target, ci_confidence, strat_pilot, strat_budget) = match config.policy {
            SamplingPolicy::Adaptive { target_ci, confidence, .. } => {
                (Some(target_ci), Some(confidence.level()), None, None)
            }
            SamplingPolicy::Stratified { pilot_samples, budget, confidence } => {
                (None, Some(confidence.level()), Some(pilot_samples), Some(budget))
            }
            SamplingPolicy::Lazy | SamplingPolicy::Periodic { .. } => (None, None, None, None),
        };
        let metrics = CellMetrics::Eval(Box::new(EvalMetrics {
            error_percent: outcome.error_percent,
            predicted_cycles: outcome.predicted_cycles,
            reference_cycles: outcome.reference_cycles,
            detail_fraction: outcome.detail_fraction,
            detailed_tasks: sampled.detailed_tasks,
            fast_tasks: sampled.fast_tasks,
            detailed_instructions: sampled.detailed_instructions,
            fast_instructions: sampled.fast_instructions,
            resamples: stats.resamples.len() as u64,
            resamples_policy: stats.resamples_by(ResampleCause::Policy) as u64,
            resamples_new_type: stats.resamples_by(ResampleCause::NewTaskType) as u64,
            resamples_concurrency: stats.resamples_by(ResampleCause::ConcurrencyChange) as u64,
            resamples_empty: stats.resamples_by(ResampleCause::EmptyHistories) as u64,
            ci_target,
            ci_confidence,
            ci_max: accuracy.and_then(AccuracyReport::max_rel_ci),
            ci_mean: accuracy.and_then(AccuracyReport::mean_rel_ci),
            ci_units: accuracy.map(|a| a.units() as u64),
            ci_converged: accuracy.map(|a| a.converged_units() as u64),
            strat_pilot,
            strat_budget,
            strat_allocated: accuracy.and_then(|a| a.allocated),
            strat_reopened: accuracy.map(|a| a.reopened_bands() as u64),
            perf: PerfProfile::from_result(&sampled),
        }));
        StoredCell {
            record: CellRecord::new(hash, spec, metrics),
            timing: CellTiming::new(&sampled, Some(&reference.result)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint::TaskPointConfig;
    use tasksim::MachineConfig;

    fn quick() -> ScaleConfig {
        ScaleConfig::quick()
    }

    #[test]
    fn programs_are_shared() {
        let ctx = Context::new();
        let a = ctx.program(Benchmark::Spmv, &quick());
        let b = ctx.program(Benchmark::Spmv, &quick());
        assert!(Arc::ptr_eq(&a, &b));
        let other_scale = ScaleConfig { seed: 1, ..quick() };
        let c = ctx.program(Benchmark::Spmv, &other_scale);
        assert!(!Arc::ptr_eq(&a, &c), "different scale, different program");
    }

    #[test]
    fn references_are_shared_and_report_free() {
        let ctx = Context::new();
        let store = ResultStore::disabled();
        let machine = MachineConfig::tiny_test();
        let a = ctx.reference(&store, Benchmark::Spmv, quick(), machine.clone(), 2);
        let b = ctx.reference(&store, Benchmark::Spmv, quick(), machine, 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.reports.is_empty());
        assert!(a.total_cycles > 0);
    }

    #[test]
    fn sampled_cell_reuses_in_memory_reference() {
        let ctx = Context::new();
        let store = ResultStore::disabled();
        let machine = MachineConfig::tiny_test();
        let reference = ctx.reference(&store, Benchmark::Spmv, quick(), machine.clone(), 2);
        let spec = CellSpec::sampled(Benchmark::Spmv, quick(), machine, 2, TaskPointConfig::lazy());
        let outcome = ctx.compute(&store, &spec);
        assert!(!outcome.cached);
        let m = outcome.record.metrics.as_eval().unwrap();
        assert_eq!(m.reference_cycles, reference.total_cycles);
        assert!(m.error_percent.is_finite());
        assert_eq!(
            m.resamples,
            m.resamples_policy + m.resamples_new_type + m.resamples_concurrency + m.resamples_empty
        );
    }

    #[test]
    fn adaptive_cells_record_configured_and_achieved_ci() {
        let ctx = Context::new();
        let store = ResultStore::disabled();
        let machine = MachineConfig::tiny_test();
        let spec = CellSpec::sampled(
            Benchmark::Spmv,
            quick(),
            machine.clone(),
            2,
            TaskPointConfig::adaptive(0.1),
        );
        let outcome = ctx.compute(&store, &spec);
        let m = outcome.record.metrics.as_eval().unwrap();
        assert_eq!(m.ci_target, Some(0.1));
        assert_eq!(m.ci_confidence, Some(0.95));
        let units = m.ci_units.expect("adaptive cells record unit counts");
        assert!(units >= 1);
        assert!(m.ci_converged.unwrap() <= units);
        assert!(m.error_percent.is_finite());
        // Non-adaptive cells keep the CI fields empty.
        let lazy = ctx.compute(
            &store,
            &CellSpec::sampled(Benchmark::Spmv, quick(), machine, 2, TaskPointConfig::lazy()),
        );
        let lm = lazy.record.metrics.as_eval().unwrap();
        assert_eq!(lm.ci_target, None);
        assert_eq!(lm.ci_units, None);
        // The adaptive record round-trips through the store encoding.
        let stored = StoredCell { record: outcome.record.clone(), timing: outcome.timing.clone() };
        assert_eq!(StoredCell::from_json(&stored.to_json()).unwrap(), stored);
    }

    #[test]
    fn stratified_cells_record_budget_and_allocation() {
        let ctx = Context::new();
        let store = ResultStore::disabled();
        let machine = MachineConfig::tiny_test();
        let spec = CellSpec::sampled(
            Benchmark::Spmv,
            quick(),
            machine,
            2,
            TaskPointConfig::stratified(4, 64),
        );
        let outcome = ctx.compute(&store, &spec);
        let m = outcome.record.metrics.as_eval().unwrap();
        assert_eq!(m.strat_pilot, Some(4));
        assert_eq!(m.strat_budget, Some(64));
        let allocated = m.strat_allocated.expect("pilot completed, allocation ran");
        assert!(allocated <= 64, "allocation {allocated} within budget");
        assert_eq!(m.strat_reopened, Some(0), "quick spmv has no concurrency ramp");
        // Budget-driven policy: no CI target, but a confidence level for
        // the reported per-stratum intervals.
        assert_eq!(m.ci_target, None);
        assert_eq!(m.ci_confidence, Some(0.95));
        assert!(m.ci_units.unwrap() >= 1);
        assert!(m.error_percent.is_finite());
        // The stratified record round-trips through the store encoding.
        let stored = StoredCell { record: outcome.record.clone(), timing: outcome.timing.clone() };
        assert_eq!(StoredCell::from_json(&stored.to_json()).unwrap(), stored);
    }

    #[test]
    fn explore_cells_simulate_without_a_reference() {
        let ctx = Context::new();
        let store = ResultStore::disabled();
        let spec = CellSpec::explore(
            Benchmark::Spmv,
            quick(),
            MachineConfig::tiny_test(),
            2,
            TaskPointConfig::lazy(),
        );
        assert!(spec.reference_spec().is_none());
        let outcome = ctx.compute(&store, &spec);
        let m = outcome.record.metrics.as_explore().expect("explore metrics");
        assert!(m.predicted_cycles > 0);
        assert!(m.detail_fraction > 0.0 && m.detail_fraction < 1.0);
        assert_eq!(outcome.record.kind, "explore");
        // Throughput is advisory but must be present for a run that
        // executed detailed instructions.
        assert!(outcome.timing.detailed_instr_per_sec.unwrap() > 0.0);
        // And the whole thing round-trips through the store encoding.
        let stored = StoredCell { record: outcome.record.clone(), timing: outcome.timing.clone() };
        assert_eq!(StoredCell::from_json(&stored.to_json()).unwrap(), stored);
    }

    #[test]
    fn external_cells_simulate_from_the_ingested_bundle() {
        let ctx = Context::new();
        let store = ResultStore::disabled();
        let machine = MachineConfig::tiny_test();
        let bench = Benchmark::External(ExternalWorkload::DagMini);
        let scale = quick();
        // Reference counts every recorded instruction in detail.
        let reference = ctx.reference(&store, bench, scale, machine.clone(), 2);
        let trace = ExternalWorkload::DagMini.ingest();
        assert_eq!(reference.detailed_instructions, trace.total_instructions());
        // The sampled cell compares against that reference and
        // fast-forwards part of the 48 instances.
        let spec = CellSpec::sampled(bench, scale, machine, 2, TaskPointConfig::lazy());
        let outcome = ctx.compute(&store, &spec);
        let m = outcome.record.metrics.as_eval().unwrap();
        assert_eq!(m.reference_cycles, reference.total_cycles);
        assert!(m.error_percent.is_finite());
        assert!(m.fast_tasks > 0, "sampling fast-forwards some ingested instances");
        assert_eq!(m.detailed_tasks + m.fast_tasks, 48);
        // Determinism: recomputing through a fresh context is bit-identical.
        let ctx2 = Context::new();
        let again = ctx2.compute(&ResultStore::disabled(), &spec);
        assert_eq!(again.record.to_json(), outcome.record.to_json());
    }

    #[test]
    fn bundles_are_shared_per_process() {
        let ctx = Context::new();
        let a = ctx.bundle(ExternalWorkload::PipelineMini);
        let b = ctx.bundle(ExternalWorkload::PipelineMini);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 40);
    }

    #[test]
    fn stored_reference_round_trips_through_stub() {
        let ctx = Context::new();
        let store = ResultStore::disabled();
        let machine = MachineConfig::tiny_test();
        let spec = CellSpec::reference(Benchmark::Reduction, quick(), machine.clone(), 2);
        let entry = ctx.reference_entry(&store, &spec);
        let stub = reference_result_from_stored(&entry.stored, spec.workers);
        assert_eq!(stub.total_cycles, entry.result.total_cycles);
        assert_eq!(stub.detailed_tasks, entry.result.detailed_tasks);
        assert_eq!(stub.workers, 2);
        assert!(stub.groups.is_empty(), "homogeneous stub has no groups");
    }

    #[test]
    fn heterogeneous_reference_persists_per_group_metrics() {
        let ctx = Context::new();
        let store = ResultStore::disabled();
        let machine = MachineConfig::big_little(2, 2);
        let spec = CellSpec::reference(Benchmark::Cholesky, quick(), machine, 4);
        let entry = ctx.reference_entry(&store, &spec);
        // The live result carries groups, the record persists them, and
        // the stub reconstructs them.
        assert_eq!(entry.result.groups.len(), 2);
        let m = entry.stored.record.metrics.as_reference().unwrap();
        let groups = m.groups.as_ref().expect("hetero record stores groups");
        assert_eq!(groups[0].name, "big");
        assert_eq!(groups[1].name, "little");
        assert_eq!(groups[1].clock_divider, 2);
        // Little cores on a half clock must accumulate measurably
        // different busy time than big cores (the issue's acceptance
        // criterion at the campaign layer).
        assert_ne!(groups[0].busy_ticks, groups[1].busy_ticks);
        let stub = reference_result_from_stored(&entry.stored, spec.workers);
        assert_eq!(stub.groups.len(), 2);
        assert_eq!(stub.groups[0].detailed_tasks, groups[0].detailed_tasks);
        // And the record's canonical JSON round-trips bit-identically.
        let text = entry.stored.to_json();
        assert!(text.contains("\"groups\":[{\"name\":\"big\""));
        assert_eq!(StoredCell::from_json(&text).unwrap(), entry.stored);
    }
}
