//! Result records: what a campaign stores, caches and emits per cell.
//!
//! A record is split in two on purpose:
//!
//! * [`CellRecord`] — the *canonical* part. Every field is a deterministic
//!   function of the cell spec (cycle counts, task/instruction counts,
//!   cycle-derived error percentages, boxplot statistics). Its canonical
//!   JSON encoding is byte-identical across runs, platforms and executor
//!   worker counts; the determinism guarantee and the JSONL artefacts are
//!   stated over these bytes.
//! * [`CellTiming`] — the *advisory* part. Host wall-clock seconds and the
//!   wall-clock speedup derived from them. Inherently noisy, therefore kept
//!   out of the canonical bytes; cached timings are the measurements of the
//!   run that originally computed the cell.

use taskpoint::ExperimentOutcome;
use taskpoint_stats::BoxplotStats;
use taskpoint_workloads::ScaleConfig;

use crate::json::{Object, ParseError, Value};
use crate::spec::CellSpec;

/// Deterministic per-core-group metrics of a heterogeneous cell, in the
/// machine's group order.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMetric {
    /// Group name from the machine description.
    pub name: String,
    /// Cores in the group.
    pub cores: u32,
    /// The group's clock divider.
    pub clock_divider: u32,
    /// Task instances the group executed in detail.
    pub detailed_tasks: u64,
    /// Instructions the group executed.
    pub instructions: u64,
    /// Base-clock ticks the group's cores spent running tasks.
    pub busy_ticks: u64,
}

/// Deterministic metrics of a reference (full-detail) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RefMetrics {
    /// Simulated execution time in cycles.
    pub total_cycles: u64,
    /// Task instances simulated (all of them, in detail).
    pub detailed_tasks: u64,
    /// Dynamic instructions simulated.
    pub instructions: u64,
    /// Per-core-group metrics — present exactly for heterogeneous
    /// machines (same pattern as the adaptive-only `ci_*` fields:
    /// homogeneous records do not carry the key at all).
    pub groups: Option<Vec<GroupMetric>>,
    /// Task-latency percentiles and stall attribution (record format v5).
    pub perf: PerfProfile,
}

/// Task-latency percentiles and machine-wide stall attribution of one
/// simulated run — the record-format-v5 extension of the JSONL schema.
///
/// Latencies are simulated base-clock cycles per task instance; stall
/// fields are global base-clock core-ticks summed across all core groups,
/// in the fixed taxonomy of `tasksim`'s cycle accounting. Every record
/// that carries metrics of a run carries every key below.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerfProfile {
    /// Median task latency (cycles).
    pub lat_p50: f64,
    /// 99th-percentile task latency (cycles).
    pub lat_p99: f64,
    /// 99.9th-percentile task latency (cycles).
    pub lat_p999: f64,
    /// Ticks stalled on a full reorder buffer behind a compute op.
    pub stall_rob_full: u64,
    /// Ticks stalled on serialized dependencies (div/fence/mispredict).
    pub stall_dep_wait: u64,
    /// Ticks stalled on L1-hit load latency at the ROB head.
    pub stall_l1_wait: u64,
    /// Ticks stalled on shared-cache load latency at the ROB head.
    pub stall_l2_wait: u64,
    /// Ticks stalled on DRAM load latency at the ROB head.
    pub stall_dram_wait: u64,
    /// Ticks stalled acquiring an MSHR for an outstanding miss.
    pub stall_mshr_full: u64,
    /// Ticks stalled behind bank/channel service queues.
    pub stall_contention: u64,
    /// Ticks cores sat idle with no ready task assigned.
    pub stall_idle: u64,
}

impl PerfProfile {
    /// Builds the profile from a simulation result: percentiles straight
    /// from the engine, stall categories summed across core groups.
    pub fn from_result(result: &tasksim::SimResult) -> Self {
        let mut p = PerfProfile {
            lat_p50: result.task_latency.p50,
            lat_p99: result.task_latency.p99,
            lat_p999: result.task_latency.p999,
            stall_rob_full: 0,
            stall_dep_wait: 0,
            stall_l1_wait: 0,
            stall_l2_wait: 0,
            stall_dram_wait: 0,
            stall_mshr_full: 0,
            stall_contention: 0,
            stall_idle: 0,
        };
        for a in &result.cycle_accounts {
            p.stall_rob_full += a.rob_full;
            p.stall_dep_wait += a.dep_wait;
            p.stall_l1_wait += a.l1_wait;
            p.stall_l2_wait += a.l2_wait;
            p.stall_dram_wait += a.dram_wait;
            p.stall_mshr_full += a.mshr_full;
            p.stall_contention += a.contention;
            p.stall_idle += a.idle;
        }
        p
    }
}

/// Deterministic metrics of a sampled (or clustered) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalMetrics {
    /// Absolute percent error of predicted vs reference cycles.
    pub error_percent: f64,
    /// Predicted total cycles (sampled run).
    pub predicted_cycles: u64,
    /// Reference total cycles.
    pub reference_cycles: u64,
    /// Fraction of instructions simulated in detail.
    pub detail_fraction: f64,
    /// Instances simulated in detail.
    pub detailed_tasks: u64,
    /// Instances fast-forwarded.
    pub fast_tasks: u64,
    /// Instructions simulated in detail.
    pub detailed_instructions: u64,
    /// Instructions fast-forwarded.
    pub fast_instructions: u64,
    /// Total resamples triggered.
    pub resamples: u64,
    /// Resamples triggered by the periodic policy.
    pub resamples_policy: u64,
    /// Resamples triggered by new task types.
    pub resamples_new_type: u64,
    /// Resamples triggered by concurrency changes.
    pub resamples_concurrency: u64,
    /// Resamples triggered by empty histories.
    pub resamples_empty: u64,
    /// `(type, size-class)` clusters formed (clustered cells only).
    pub clusters: Option<u64>,
    /// Configured relative-CI target (adaptive cells only).
    pub ci_target: Option<f64>,
    /// Configured confidence level as a fraction, e.g. `0.95` (adaptive
    /// cells only).
    pub ci_confidence: Option<f64>,
    /// Largest achieved per-cluster relative CI half-width at the end of
    /// the run (adaptive cells with ≥ 2 samples in some cluster).
    pub ci_max: Option<f64>,
    /// Mean achieved per-cluster relative CI half-width (same condition).
    pub ci_mean: Option<f64>,
    /// Sampling units observed by the adaptive controller.
    pub ci_units: Option<u64>,
    /// Units that converged (stopped sampling) by CI or cutoff.
    pub ci_converged: Option<u64>,
    /// Configured pilot samples per stratum (stratified cells only).
    pub strat_pilot: Option<u64>,
    /// Configured total detailed budget (stratified cells only).
    pub strat_budget: Option<u64>,
    /// Detailed instances Neyman-allocated after the pilot phase, summed
    /// across strata (stratified cells only).
    pub strat_allocated: Option<u64>,
    /// `(cluster, concurrency-band)` re-openings triggered by sustained
    /// parallelism shifts (adaptive and stratified cells).
    pub strat_reopened: Option<u64>,
    /// Task-latency percentiles and stall attribution of the sampled run
    /// itself (record format v5).
    pub perf: PerfProfile,
}

/// Deterministic metrics of a variation cell: per-type-normalized IPC
/// deviation boxplot (percent).
#[derive(Debug, Clone, PartialEq)]
pub struct VariationMetrics {
    /// 5th percentile.
    pub p5: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Smallest deviation.
    pub min: f64,
    /// Largest deviation.
    pub max: f64,
    /// Number of task-instance samples.
    pub samples: u64,
}

impl VariationMetrics {
    /// Builds from boxplot statistics.
    pub fn from_boxplot(b: &BoxplotStats) -> Self {
        Self {
            p5: b.p5,
            q1: b.q1,
            median: b.median,
            q3: b.q3,
            p95: b.p95,
            min: b.min,
            max: b.max,
            samples: b.count as u64,
        }
    }

    /// The larger of |p5| and |p95| — the paper's "within ±5%" criterion.
    pub fn whisker_halfwidth(&self) -> f64 {
        self.p95.abs().max(self.p5.abs())
    }
}

/// Deterministic metrics of an exploration cell: a sampled run with no
/// reference comparison (design-space sweeps rank designs by predicted
/// cycles; running a detailed reference per candidate would defeat the
/// point of sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreMetrics {
    /// Predicted total cycles — the design-ranking criterion.
    pub predicted_cycles: u64,
    /// Fraction of instructions simulated in detail.
    pub detail_fraction: f64,
    /// Instances simulated in detail.
    pub detailed_tasks: u64,
    /// Instances fast-forwarded.
    pub fast_tasks: u64,
    /// Instructions simulated in detail.
    pub detailed_instructions: u64,
    /// Instructions fast-forwarded.
    pub fast_instructions: u64,
    /// Total resamples triggered.
    pub resamples: u64,
}

/// Kind-specific deterministic metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum CellMetrics {
    /// Metrics of a reference cell.
    Reference(RefMetrics),
    /// Metrics of a sampled or clustered cell (boxed: the eval payload
    /// dwarfs the other variants).
    Eval(Box<EvalMetrics>),
    /// Metrics of a variation cell.
    Variation(VariationMetrics),
    /// Metrics of an exploration cell.
    Explore(ExploreMetrics),
}

impl CellMetrics {
    /// The eval metrics, if this is a sampled/clustered cell.
    pub fn as_eval(&self) -> Option<&EvalMetrics> {
        match self {
            CellMetrics::Eval(m) => Some(m),
            _ => None,
        }
    }

    /// The variation metrics, if this is a variation cell.
    pub fn as_variation(&self) -> Option<&VariationMetrics> {
        match self {
            CellMetrics::Variation(m) => Some(m),
            _ => None,
        }
    }

    /// The reference metrics, if this is a reference cell.
    pub fn as_reference(&self) -> Option<&RefMetrics> {
        match self {
            CellMetrics::Reference(m) => Some(m),
            _ => None,
        }
    }

    /// The exploration metrics, if this is an explore cell.
    pub fn as_explore(&self) -> Option<&ExploreMetrics> {
        match self {
            CellMetrics::Explore(m) => Some(m),
            _ => None,
        }
    }
}

/// The canonical (deterministic) record of one computed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's content hash (32 hex chars).
    pub cell: String,
    /// Benchmark name.
    pub bench: String,
    /// Machine name.
    pub machine: String,
    /// Simulated worker threads.
    pub workers: u32,
    /// Workload scale.
    pub scale: ScaleConfig,
    /// Kind tag (`reference`/`sampled`/`clustered`/`variation`).
    pub kind: String,
    /// Deterministic metrics.
    pub metrics: CellMetrics,
}

/// The advisory (wall-clock) side of a computed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// Host seconds of this cell's own simulation.
    pub wall_seconds: f64,
    /// Host seconds of the reference run it was compared against (sampled
    /// and clustered cells only).
    pub reference_wall_seconds: Option<f64>,
    /// Wall-clock speedup over the reference (sampled/clustered only).
    pub speedup: Option<f64>,
    /// Detailed-mode simulation throughput of this cell's own run, in
    /// instructions per host second — the figure of merit of the batched
    /// trace pipeline. `None` when no detailed instructions ran.
    pub detailed_instr_per_sec: Option<f64>,
}

/// A computed (or cache-loaded) cell: spec + record + timing.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The spec that produced this outcome.
    pub spec: CellSpec,
    /// Canonical record.
    pub record: CellRecord,
    /// Advisory timing (from the run that originally computed the cell).
    pub timing: CellTiming,
    /// Whether the result was served from the store without simulating.
    pub cached: bool,
}

impl CellOutcome {
    /// Reconstructs the evaluation outcome the bench layer works with.
    /// Returns `None` for reference/variation cells.
    pub fn experiment_outcome(&self) -> Option<ExperimentOutcome> {
        let m = self.record.metrics.as_eval()?;
        Some(ExperimentOutcome {
            error_percent: m.error_percent,
            speedup: self.timing.speedup.unwrap_or(0.0),
            predicted_cycles: m.predicted_cycles,
            reference_cycles: m.reference_cycles,
            sampled_wall_seconds: self.timing.wall_seconds,
            reference_wall_seconds: self.timing.reference_wall_seconds.unwrap_or(0.0),
            detail_fraction: m.detail_fraction,
        })
    }
}

fn scale_json(scale: &ScaleConfig) -> Value {
    let mut o = Object::new();
    o.set("instr_factor", Value::Num(scale.instr_factor));
    o.set("seed", Value::Num(scale.seed as f64));
    Value::Obj(o)
}

fn perf_json(o: &mut Object, p: &PerfProfile) {
    o.set("lat_p50", Value::Num(p.lat_p50));
    o.set("lat_p99", Value::Num(p.lat_p99));
    o.set("lat_p999", Value::Num(p.lat_p999));
    for (key, value) in [
        ("stall_rob_full", p.stall_rob_full),
        ("stall_dep_wait", p.stall_dep_wait),
        ("stall_l1_wait", p.stall_l1_wait),
        ("stall_l2_wait", p.stall_l2_wait),
        ("stall_dram_wait", p.stall_dram_wait),
        ("stall_mshr_full", p.stall_mshr_full),
        ("stall_contention", p.stall_contention),
        ("stall_idle", p.stall_idle),
    ] {
        o.set(key, Value::Num(value as f64));
    }
}

fn metrics_json(metrics: &CellMetrics) -> Value {
    let mut o = Object::new();
    match metrics {
        CellMetrics::Reference(m) => {
            o.set("total_cycles", Value::Num(m.total_cycles as f64));
            o.set("detailed_tasks", Value::Num(m.detailed_tasks as f64));
            o.set("instructions", Value::Num(m.instructions as f64));
            if let Some(groups) = &m.groups {
                let arr = groups
                    .iter()
                    .map(|g| {
                        let mut go = Object::new();
                        go.set("name", Value::Str(g.name.clone()));
                        go.set("cores", Value::Num(g.cores as f64));
                        go.set("clock_divider", Value::Num(g.clock_divider as f64));
                        go.set("detailed_tasks", Value::Num(g.detailed_tasks as f64));
                        go.set("instructions", Value::Num(g.instructions as f64));
                        go.set("busy_ticks", Value::Num(g.busy_ticks as f64));
                        Value::Obj(go)
                    })
                    .collect();
                o.set("groups", Value::Arr(arr));
            }
            perf_json(&mut o, &m.perf);
        }
        CellMetrics::Eval(m) => {
            o.set("error_percent", Value::Num(m.error_percent));
            o.set("predicted_cycles", Value::Num(m.predicted_cycles as f64));
            o.set("reference_cycles", Value::Num(m.reference_cycles as f64));
            o.set("detail_fraction", Value::Num(m.detail_fraction));
            o.set("detailed_tasks", Value::Num(m.detailed_tasks as f64));
            o.set("fast_tasks", Value::Num(m.fast_tasks as f64));
            o.set("detailed_instructions", Value::Num(m.detailed_instructions as f64));
            o.set("fast_instructions", Value::Num(m.fast_instructions as f64));
            o.set("resamples", Value::Num(m.resamples as f64));
            o.set("resamples_policy", Value::Num(m.resamples_policy as f64));
            o.set("resamples_new_type", Value::Num(m.resamples_new_type as f64));
            o.set("resamples_concurrency", Value::Num(m.resamples_concurrency as f64));
            o.set("resamples_empty", Value::Num(m.resamples_empty as f64));
            if let Some(c) = m.clusters {
                o.set("clusters", Value::Num(c as f64));
            }
            for (key, value) in [
                ("ci_target", m.ci_target),
                ("ci_confidence", m.ci_confidence),
                ("ci_max", m.ci_max),
                ("ci_mean", m.ci_mean),
            ] {
                if let Some(v) = value {
                    o.set(key, Value::Num(v));
                }
            }
            for (key, value) in [
                ("ci_units", m.ci_units),
                ("ci_converged", m.ci_converged),
                ("strat_pilot", m.strat_pilot),
                ("strat_budget", m.strat_budget),
                ("strat_allocated", m.strat_allocated),
                ("strat_reopened", m.strat_reopened),
            ] {
                if let Some(v) = value {
                    o.set(key, Value::Num(v as f64));
                }
            }
            perf_json(&mut o, &m.perf);
        }
        CellMetrics::Variation(m) => {
            o.set("p5", Value::Num(m.p5));
            o.set("q1", Value::Num(m.q1));
            o.set("median", Value::Num(m.median));
            o.set("q3", Value::Num(m.q3));
            o.set("p95", Value::Num(m.p95));
            o.set("min", Value::Num(m.min));
            o.set("max", Value::Num(m.max));
            o.set("samples", Value::Num(m.samples as f64));
        }
        CellMetrics::Explore(m) => {
            o.set("predicted_cycles", Value::Num(m.predicted_cycles as f64));
            o.set("detail_fraction", Value::Num(m.detail_fraction));
            o.set("detailed_tasks", Value::Num(m.detailed_tasks as f64));
            o.set("fast_tasks", Value::Num(m.fast_tasks as f64));
            o.set("detailed_instructions", Value::Num(m.detailed_instructions as f64));
            o.set("fast_instructions", Value::Num(m.fast_instructions as f64));
            o.set("resamples", Value::Num(m.resamples as f64));
        }
    }
    Value::Obj(o)
}

impl CellRecord {
    /// The canonical JSON encoding — the bytes the determinism guarantee
    /// covers (and one line of the emitted JSONL artefact).
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        o.set("cell", Value::Str(self.cell.clone()));
        o.set("bench", Value::Str(self.bench.clone()));
        o.set("machine", Value::Str(self.machine.clone()));
        o.set("workers", Value::Num(self.workers as f64));
        o.set("scale", scale_json(&self.scale));
        o.set("kind", Value::Str(self.kind.clone()));
        o.set("metrics", metrics_json(&self.metrics));
        Value::Obj(o).to_json()
    }
}

/// A corrupt or incompatible store entry.
#[derive(Debug)]
pub enum RecordError {
    /// The JSON did not parse.
    Parse(ParseError),
    /// The JSON parsed but is missing or mistypes a field.
    Shape(String),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Parse(e) => write!(f, "{e}"),
            RecordError::Shape(s) => write!(f, "malformed record: {s}"),
        }
    }
}

impl std::error::Error for RecordError {}

fn shape(field: &str) -> RecordError {
    RecordError::Shape(format!("missing or mistyped field {field:?}"))
}

fn parse_groups(o: &Object) -> Result<Option<Vec<GroupMetric>>, RecordError> {
    let Some(v) = o.get("groups") else { return Ok(None) };
    let Value::Arr(items) = v else {
        return Err(RecordError::Shape("groups is not an array".to_string()));
    };
    let mut groups = Vec::with_capacity(items.len());
    for item in items {
        let Value::Obj(g) = item else {
            return Err(RecordError::Shape("group entry is not an object".to_string()));
        };
        groups.push(GroupMetric {
            name: g.str("name").ok_or_else(|| shape("groups.name"))?.to_string(),
            cores: g.u64("cores").ok_or_else(|| shape("groups.cores"))? as u32,
            clock_divider: g.u64("clock_divider").ok_or_else(|| shape("groups.clock_divider"))?
                as u32,
            detailed_tasks: g
                .u64("detailed_tasks")
                .ok_or_else(|| shape("groups.detailed_tasks"))?,
            instructions: g.u64("instructions").ok_or_else(|| shape("groups.instructions"))?,
            busy_ticks: g.u64("busy_ticks").ok_or_else(|| shape("groups.busy_ticks"))?,
        });
    }
    Ok(Some(groups))
}

fn parse_perf(o: &Object) -> Result<PerfProfile, RecordError> {
    Ok(PerfProfile {
        lat_p50: o.num("lat_p50").ok_or_else(|| shape("lat_p50"))?,
        lat_p99: o.num("lat_p99").ok_or_else(|| shape("lat_p99"))?,
        lat_p999: o.num("lat_p999").ok_or_else(|| shape("lat_p999"))?,
        stall_rob_full: o.u64("stall_rob_full").ok_or_else(|| shape("stall_rob_full"))?,
        stall_dep_wait: o.u64("stall_dep_wait").ok_or_else(|| shape("stall_dep_wait"))?,
        stall_l1_wait: o.u64("stall_l1_wait").ok_or_else(|| shape("stall_l1_wait"))?,
        stall_l2_wait: o.u64("stall_l2_wait").ok_or_else(|| shape("stall_l2_wait"))?,
        stall_dram_wait: o.u64("stall_dram_wait").ok_or_else(|| shape("stall_dram_wait"))?,
        stall_mshr_full: o.u64("stall_mshr_full").ok_or_else(|| shape("stall_mshr_full"))?,
        stall_contention: o.u64("stall_contention").ok_or_else(|| shape("stall_contention"))?,
        stall_idle: o.u64("stall_idle").ok_or_else(|| shape("stall_idle"))?,
    })
}

fn parse_metrics(kind: &str, o: &Object) -> Result<CellMetrics, RecordError> {
    match kind {
        "reference" => Ok(CellMetrics::Reference(RefMetrics {
            total_cycles: o.u64("total_cycles").ok_or_else(|| shape("total_cycles"))?,
            detailed_tasks: o.u64("detailed_tasks").ok_or_else(|| shape("detailed_tasks"))?,
            instructions: o.u64("instructions").ok_or_else(|| shape("instructions"))?,
            groups: parse_groups(o)?,
            perf: parse_perf(o)?,
        })),
        "sampled" | "clustered" => Ok(CellMetrics::Eval(Box::new(EvalMetrics {
            error_percent: o.num("error_percent").ok_or_else(|| shape("error_percent"))?,
            predicted_cycles: o.u64("predicted_cycles").ok_or_else(|| shape("predicted_cycles"))?,
            reference_cycles: o.u64("reference_cycles").ok_or_else(|| shape("reference_cycles"))?,
            detail_fraction: o.num("detail_fraction").ok_or_else(|| shape("detail_fraction"))?,
            detailed_tasks: o.u64("detailed_tasks").ok_or_else(|| shape("detailed_tasks"))?,
            fast_tasks: o.u64("fast_tasks").ok_or_else(|| shape("fast_tasks"))?,
            detailed_instructions: o
                .u64("detailed_instructions")
                .ok_or_else(|| shape("detailed_instructions"))?,
            fast_instructions: o
                .u64("fast_instructions")
                .ok_or_else(|| shape("fast_instructions"))?,
            resamples: o.u64("resamples").ok_or_else(|| shape("resamples"))?,
            resamples_policy: o.u64("resamples_policy").ok_or_else(|| shape("resamples_policy"))?,
            resamples_new_type: o
                .u64("resamples_new_type")
                .ok_or_else(|| shape("resamples_new_type"))?,
            resamples_concurrency: o
                .u64("resamples_concurrency")
                .ok_or_else(|| shape("resamples_concurrency"))?,
            resamples_empty: o.u64("resamples_empty").ok_or_else(|| shape("resamples_empty"))?,
            clusters: o.u64("clusters"),
            ci_target: o.num("ci_target"),
            ci_confidence: o.num("ci_confidence"),
            ci_max: o.num("ci_max"),
            ci_mean: o.num("ci_mean"),
            ci_units: o.u64("ci_units"),
            ci_converged: o.u64("ci_converged"),
            strat_pilot: o.u64("strat_pilot"),
            strat_budget: o.u64("strat_budget"),
            strat_allocated: o.u64("strat_allocated"),
            strat_reopened: o.u64("strat_reopened"),
            perf: parse_perf(o)?,
        }))),
        "explore" => Ok(CellMetrics::Explore(ExploreMetrics {
            predicted_cycles: o.u64("predicted_cycles").ok_or_else(|| shape("predicted_cycles"))?,
            detail_fraction: o.num("detail_fraction").ok_or_else(|| shape("detail_fraction"))?,
            detailed_tasks: o.u64("detailed_tasks").ok_or_else(|| shape("detailed_tasks"))?,
            fast_tasks: o.u64("fast_tasks").ok_or_else(|| shape("fast_tasks"))?,
            detailed_instructions: o
                .u64("detailed_instructions")
                .ok_or_else(|| shape("detailed_instructions"))?,
            fast_instructions: o
                .u64("fast_instructions")
                .ok_or_else(|| shape("fast_instructions"))?,
            resamples: o.u64("resamples").ok_or_else(|| shape("resamples"))?,
        })),
        "variation" => Ok(CellMetrics::Variation(VariationMetrics {
            p5: o.num("p5").ok_or_else(|| shape("p5"))?,
            q1: o.num("q1").ok_or_else(|| shape("q1"))?,
            median: o.num("median").ok_or_else(|| shape("median"))?,
            q3: o.num("q3").ok_or_else(|| shape("q3"))?,
            p95: o.num("p95").ok_or_else(|| shape("p95"))?,
            min: o.num("min").ok_or_else(|| shape("min"))?,
            max: o.num("max").ok_or_else(|| shape("max"))?,
            samples: o.u64("samples").ok_or_else(|| shape("samples"))?,
        })),
        other => Err(RecordError::Shape(format!("unknown kind {other:?}"))),
    }
}

/// One store entry: record + timing, as persisted in a cache file.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCell {
    /// Canonical record.
    pub record: CellRecord,
    /// Timing measured by the run that computed the cell.
    pub timing: CellTiming,
}

impl StoredCell {
    /// Serializes the store-file content.
    pub fn to_json(&self) -> String {
        let record =
            Value::parse(&self.record.to_json()).expect("canonical record encodes valid JSON");
        let mut timing = Object::new();
        timing.set("wall_seconds", Value::Num(self.timing.wall_seconds));
        if let Some(w) = self.timing.reference_wall_seconds {
            timing.set("reference_wall_seconds", Value::Num(w));
        }
        if let Some(s) = self.timing.speedup {
            timing.set("speedup", Value::Num(s));
        }
        if let Some(t) = self.timing.detailed_instr_per_sec {
            timing.set("detailed_instr_per_sec", Value::Num(t));
        }
        let mut o = Object::new();
        o.set("record", record);
        o.set("timing", Value::Obj(timing));
        Value::Obj(o).to_json()
    }

    /// Parses a store-file content.
    pub fn from_json(text: &str) -> Result<Self, RecordError> {
        let v = Value::parse(text).map_err(RecordError::Parse)?;
        let Value::Obj(top) = v else {
            return Err(RecordError::Shape("top level is not an object".to_string()));
        };
        let r = top.obj("record").ok_or_else(|| shape("record"))?;
        let scale = r.obj("scale").ok_or_else(|| shape("scale"))?;
        let kind = r.str("kind").ok_or_else(|| shape("kind"))?.to_string();
        let metrics_obj = r.obj("metrics").ok_or_else(|| shape("metrics"))?;
        let record = CellRecord {
            cell: r.str("cell").ok_or_else(|| shape("cell"))?.to_string(),
            bench: r.str("bench").ok_or_else(|| shape("bench"))?.to_string(),
            machine: r.str("machine").ok_or_else(|| shape("machine"))?.to_string(),
            workers: r.u64("workers").ok_or_else(|| shape("workers"))? as u32,
            scale: ScaleConfig {
                instr_factor: scale.num("instr_factor").ok_or_else(|| shape("instr_factor"))?,
                seed: scale.u64("seed").ok_or_else(|| shape("seed"))?,
            },
            metrics: parse_metrics(&kind, metrics_obj)?,
            kind,
        };
        let t = top.obj("timing").ok_or_else(|| shape("timing"))?;
        let timing = CellTiming {
            wall_seconds: t.num("wall_seconds").ok_or_else(|| shape("wall_seconds"))?,
            reference_wall_seconds: t.num("reference_wall_seconds"),
            speedup: t.num("speedup"),
            detailed_instr_per_sec: t.num("detailed_instr_per_sec"),
        };
        Ok(StoredCell { record, timing })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_record() -> CellRecord {
        CellRecord {
            cell: "ab".repeat(16),
            bench: "spmv".to_string(),
            machine: "low-power".to_string(),
            workers: 4,
            scale: ScaleConfig::quick(),
            kind: "sampled".to_string(),
            metrics: CellMetrics::Eval(Box::new(EvalMetrics {
                error_percent: 3.25,
                predicted_cycles: 1020,
                reference_cycles: 1000,
                detail_fraction: 0.125,
                detailed_tasks: 47,
                fast_tasks: 977,
                detailed_instructions: 400,
                fast_instructions: 600,
                resamples: 3,
                resamples_policy: 1,
                resamples_new_type: 1,
                resamples_concurrency: 1,
                resamples_empty: 0,
                clusters: None,
                ci_target: None,
                ci_confidence: None,
                ci_max: None,
                ci_mean: None,
                ci_units: None,
                ci_converged: None,
                strat_pilot: None,
                strat_budget: None,
                strat_allocated: None,
                strat_reopened: None,
                perf: sample_perf(),
            })),
        }
    }

    const PERF_KEYS: [&str; 11] = [
        "lat_p50",
        "lat_p99",
        "lat_p999",
        "stall_rob_full",
        "stall_dep_wait",
        "stall_l1_wait",
        "stall_l2_wait",
        "stall_dram_wait",
        "stall_mshr_full",
        "stall_contention",
        "stall_idle",
    ];

    fn sample_perf() -> PerfProfile {
        PerfProfile {
            lat_p50: 120.0,
            lat_p99: 900.5,
            lat_p999: 1800.0,
            stall_rob_full: 11,
            stall_dep_wait: 22,
            stall_l1_wait: 33,
            stall_l2_wait: 44,
            stall_dram_wait: 55,
            stall_mshr_full: 6,
            stall_contention: 7,
            stall_idle: 88,
        }
    }

    #[test]
    fn record_json_is_canonical_and_parses_back() {
        let r = eval_record();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"cell\":\"abab"));
        assert!(a.contains("\"error_percent\":3.25"));
        assert!(!a.contains(' '), "canonical form has no whitespace");
    }

    #[test]
    fn stored_cell_round_trips() {
        let stored = StoredCell {
            record: eval_record(),
            timing: CellTiming {
                wall_seconds: 0.05,
                reference_wall_seconds: Some(0.93),
                speedup: Some(18.6),
                detailed_instr_per_sec: Some(2.9e7),
            },
        };
        let text = stored.to_json();
        let back = StoredCell::from_json(&text).unwrap();
        assert_eq!(back, stored);
    }

    #[test]
    fn reference_and_variation_round_trip() {
        for (kind, metrics) in [
            (
                "reference",
                CellMetrics::Reference(RefMetrics {
                    total_cycles: 8_536_967,
                    detailed_tasks: 1024,
                    instructions: 9_700_000,
                    groups: None,
                    perf: sample_perf(),
                }),
            ),
            (
                "variation",
                CellMetrics::Variation(VariationMetrics {
                    p5: -4.5,
                    q1: -1.0,
                    median: 0.0,
                    q3: 1.0,
                    p95: 4.5,
                    min: -9.0,
                    max: 8.0,
                    samples: 16384,
                }),
            ),
            (
                "explore",
                CellMetrics::Explore(ExploreMetrics {
                    predicted_cycles: 123_456,
                    detail_fraction: 0.04,
                    detailed_tasks: 12,
                    fast_tasks: 1000,
                    detailed_instructions: 4000,
                    fast_instructions: 96_000,
                    resamples: 2,
                }),
            ),
        ] {
            let stored = StoredCell {
                record: CellRecord { kind: kind.to_string(), metrics, ..eval_record() },
                timing: CellTiming {
                    wall_seconds: 1.5,
                    reference_wall_seconds: None,
                    speedup: None,
                    detailed_instr_per_sec: None,
                },
            };
            let back = StoredCell::from_json(&stored.to_json()).unwrap();
            assert_eq!(back, stored, "{kind}");
        }
    }

    #[test]
    fn adaptive_ci_fields_round_trip() {
        let mut record = eval_record();
        let CellMetrics::Eval(ref mut m) = record.metrics else { unreachable!() };
        m.ci_target = Some(0.05);
        m.ci_confidence = Some(0.95);
        m.ci_max = Some(0.041);
        m.ci_mean = Some(0.017);
        m.ci_units = Some(6);
        m.ci_converged = Some(6);
        let stored = StoredCell {
            record,
            timing: CellTiming {
                wall_seconds: 0.2,
                reference_wall_seconds: Some(1.0),
                speedup: Some(5.0),
                detailed_instr_per_sec: None,
            },
        };
        let text = stored.to_json();
        assert!(text.contains("\"ci_target\":0.05"));
        assert!(text.contains("\"ci_converged\":6"));
        let back = StoredCell::from_json(&text).unwrap();
        assert_eq!(back, stored);
    }

    #[test]
    fn stratified_fields_round_trip() {
        let mut record = eval_record();
        let CellMetrics::Eval(ref mut m) = record.metrics else { unreachable!() };
        m.ci_confidence = Some(0.95);
        m.strat_pilot = Some(4);
        m.strat_budget = Some(256);
        m.strat_allocated = Some(198);
        m.strat_reopened = Some(2);
        let stored = StoredCell {
            record,
            timing: CellTiming {
                wall_seconds: 0.2,
                reference_wall_seconds: Some(1.0),
                speedup: Some(5.0),
                detailed_instr_per_sec: None,
            },
        };
        let text = stored.to_json();
        assert!(text.contains("\"strat_pilot\":4"));
        assert!(text.contains("\"strat_budget\":256"));
        assert!(text.contains("\"strat_allocated\":198"));
        assert!(text.contains("\"strat_reopened\":2"));
        // Budget-driven policy: no CI target key at all.
        assert!(!text.contains("ci_target"));
        let back = StoredCell::from_json(&text).unwrap();
        assert_eq!(back, stored);
        // Non-stratified records must not carry the keys at all.
        assert!(!eval_record().to_json().contains("strat_"));
    }

    #[test]
    fn heterogeneous_group_metrics_round_trip() {
        let groups = vec![
            GroupMetric {
                name: "big".to_string(),
                cores: 2,
                clock_divider: 1,
                detailed_tasks: 700,
                instructions: 7_000_000,
                busy_ticks: 4_100_000,
            },
            GroupMetric {
                name: "little".to_string(),
                cores: 2,
                clock_divider: 2,
                detailed_tasks: 324,
                instructions: 2_700_000,
                busy_ticks: 3_900_000,
            },
        ];
        let stored = StoredCell {
            record: CellRecord {
                kind: "reference".to_string(),
                metrics: CellMetrics::Reference(RefMetrics {
                    total_cycles: 5_000_000,
                    detailed_tasks: 1024,
                    instructions: 9_700_000,
                    groups: Some(groups),
                    perf: sample_perf(),
                }),
                ..eval_record()
            },
            timing: CellTiming {
                wall_seconds: 1.0,
                reference_wall_seconds: None,
                speedup: None,
                detailed_instr_per_sec: None,
            },
        };
        let text = stored.to_json();
        // The exact JSONL shape the hetero CI grep pins.
        assert!(text.contains("\"groups\":[{\"name\":\"big\""), "{text}");
        assert!(text.contains("\"clock_divider\":2"));
        let back = StoredCell::from_json(&text).unwrap();
        assert_eq!(back, stored);
        // Homogeneous records must not carry the key at all.
        let homogeneous = StoredCell {
            record: CellRecord {
                kind: "reference".to_string(),
                metrics: CellMetrics::Reference(RefMetrics {
                    total_cycles: 1,
                    detailed_tasks: 1,
                    instructions: 1,
                    groups: None,
                    perf: sample_perf(),
                }),
                ..eval_record()
            },
            timing: stored.timing.clone(),
        };
        assert!(!homogeneous.to_json().contains("groups"));
    }

    #[test]
    fn perf_profile_fields_round_trip() {
        let stored = StoredCell {
            record: eval_record(),
            timing: CellTiming {
                wall_seconds: 0.2,
                reference_wall_seconds: Some(1.0),
                speedup: Some(5.0),
                detailed_instr_per_sec: None,
            },
        };
        let text = stored.to_json();
        // The exact flat keys the CI smoke greps out of the JSONL.
        assert!(text.contains("\"lat_p50\":120"), "{text}");
        assert!(text.contains("\"lat_p99\":900.5"));
        assert!(text.contains("\"lat_p999\":1800"));
        assert!(text.contains("\"stall_rob_full\":11"));
        assert!(text.contains("\"stall_dram_wait\":55"));
        assert!(text.contains("\"stall_idle\":88"));
        let back = StoredCell::from_json(&text).unwrap();
        assert_eq!(back, stored);
        // A record without the block is rejected, and so is a
        // half-written one: neither is defaulted.
        let mut stripped = text.clone();
        for key in PERF_KEYS {
            let start = stripped.find(&format!(",\"{key}\":")).expect("perf key present");
            let end = start + 1 + stripped[start + 1..].find([',', '}']).unwrap();
            stripped.replace_range(start..end, "");
        }
        assert!(!stripped.contains("lat_p") && !stripped.contains("stall_"), "{stripped}");
        assert!(StoredCell::from_json(&stripped).is_err());
        let truncated = text.replace(",\"stall_idle\":88", "");
        assert!(StoredCell::from_json(&truncated).is_err());
    }

    #[test]
    fn variation_whisker_halfwidth() {
        let m = VariationMetrics {
            p5: -6.0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
            p95: 4.0,
            min: -7.0,
            max: 5.0,
            samples: 3,
        };
        assert_eq!(m.whisker_halfwidth(), 6.0);
    }

    #[test]
    fn malformed_entries_are_rejected_not_panicked() {
        assert!(StoredCell::from_json("not json").is_err());
        assert!(StoredCell::from_json("{}").is_err());
        assert!(StoredCell::from_json("{\"record\":{},\"timing\":{}}").is_err());
        let mut good = StoredCell {
            record: eval_record(),
            timing: CellTiming {
                wall_seconds: 1.0,
                reference_wall_seconds: None,
                speedup: None,
                detailed_instr_per_sec: None,
            },
        }
        .to_json();
        good = good.replace("\"error_percent\":3.25", "\"error_percent\":\"three\"");
        assert!(StoredCell::from_json(&good).is_err());
    }

    #[test]
    fn experiment_outcome_reconstruction() {
        let outcome = CellOutcome {
            spec: crate::spec::CellSpec::sampled(
                taskpoint_workloads::Benchmark::Spmv,
                ScaleConfig::quick(),
                tasksim::MachineConfig::low_power(),
                4,
                taskpoint::TaskPointConfig::lazy(),
            ),
            record: eval_record(),
            timing: CellTiming {
                wall_seconds: 0.5,
                reference_wall_seconds: Some(10.0),
                speedup: Some(20.0),
                detailed_instr_per_sec: None,
            },
            cached: false,
        };
        let o = outcome.experiment_outcome().unwrap();
        assert_eq!(o.predicted_cycles, 1020);
        assert_eq!(o.speedup, 20.0);
        assert_eq!(o.reference_wall_seconds, 10.0);
    }
}
