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
//!
//! # The schema
//!
//! Every record struct in this module is declared in a field table (the
//! private `record_tables!` macro): its field list is the only statement
//! of its JSON keys. The table yields the struct, a writer that puts each
//! field under its own name in declaration order, and a reader that
//! returns [`RecordError`] for a missing or mistyped key. How one value
//! goes in and out is fixed per type: numbers and strings as JSON
//! scalars (a `u32` that does not fit is rejected, not truncated),
//! `Option`s by leaving the key out when `None`, group lists as arrays of
//! objects, [`PerfProfile`] flattened into its parent and every other
//! table as a nested object. A new key is therefore one field line; a
//! stored entry that lacks a required key fails to parse, and the cell is
//! recomputed.

use taskpoint::ExperimentOutcome;
use taskpoint_stats::BoxplotStats;
use taskpoint_workloads::ScaleConfig;
use tasksim::SimResult;

use crate::json::{Object, ParseError, Value};
use crate::spec::CellSpec;

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

fn shape(key: &str) -> RecordError {
    RecordError::Shape(format!("missing or mistyped field {key:?}"))
}

/// How one value goes into, and comes back out of, a JSON object under
/// its key.
trait Field: Sized {
    fn put(&self, o: &mut Object, key: &str);
    fn take(o: &Object, key: &str) -> Result<Self, RecordError>;
}

impl Field for u64 {
    fn put(&self, o: &mut Object, key: &str) {
        o.set(key, Value::Num(*self as f64));
    }
    fn take(o: &Object, key: &str) -> Result<Self, RecordError> {
        o.u64(key).ok_or_else(|| shape(key))
    }
}

impl Field for u32 {
    fn put(&self, o: &mut Object, key: &str) {
        u64::from(*self).put(o, key);
    }
    fn take(o: &Object, key: &str) -> Result<Self, RecordError> {
        u32::try_from(u64::take(o, key)?).map_err(|_| shape(key))
    }
}

impl Field for f64 {
    fn put(&self, o: &mut Object, key: &str) {
        o.set(key, Value::Num(*self));
    }
    fn take(o: &Object, key: &str) -> Result<Self, RecordError> {
        o.num(key).ok_or_else(|| shape(key))
    }
}

impl Field for String {
    fn put(&self, o: &mut Object, key: &str) {
        o.set(key, Value::Str(self.clone()));
    }
    fn take(o: &Object, key: &str) -> Result<Self, RecordError> {
        o.str(key).map(str::to_string).ok_or_else(|| shape(key))
    }
}

/// `None` leaves the key out. A `null` reads as `None` too: the writer
/// emits `null` for a non-finite number.
impl<T: Field> Field for Option<T> {
    fn put(&self, o: &mut Object, key: &str) {
        if let Some(v) = self {
            v.put(o, key);
        }
    }
    fn take(o: &Object, key: &str) -> Result<Self, RecordError> {
        match o.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(_) => T::take(o, key).map(Some),
        }
    }
}

impl<T: Table> Field for Vec<T> {
    fn put(&self, o: &mut Object, key: &str) {
        o.set(key, Value::Arr(self.iter().map(Table::to_value).collect()));
    }
    fn take(o: &Object, key: &str) -> Result<Self, RecordError> {
        let Some(Value::Arr(items)) = o.get(key) else { return Err(shape(key)) };
        items
            .iter()
            .map(|item| match item {
                Value::Obj(t) => T::read_fields(t),
                _ => Err(shape(key)),
            })
            .collect()
    }
}

/// The fields of one record struct, written onto and read back from one
/// JSON object in declaration order. Implemented by `record_tables!`.
pub(crate) trait Table: Sized {
    /// Puts every field under its own name.
    fn write_fields(&self, o: &mut Object);

    /// Reads every field back.
    fn read_fields(o: &Object) -> Result<Self, RecordError>;

    /// The fields as one JSON object.
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        self.write_fields(&mut o);
        Value::Obj(o)
    }
}

/// Declares record structs, one field table each. Per struct it emits the
/// struct and its [`Table`] impl, keyed by field name, plus a [`Field`]
/// impl: a struct marked `#[flatten]` (first, before its docs) writes its
/// fields into the parent object, every other one nests them under its
/// field's key. `impl Name { field: Type, ... }` states the table of a
/// struct defined elsewhere.
macro_rules! record_tables {
    () => {};
    (@fields $name:ident { $( $field:ident: $ty:ty, )* }) => {
        impl Table for $name {
            fn write_fields(&self, o: &mut Object) {
                $( Field::put(&self.$field, o, stringify!($field)); )*
            }
            fn read_fields(o: &Object) -> Result<Self, RecordError> {
                Ok(Self { $( $field: <$ty as Field>::take(o, stringify!($field))?, )* })
            }
        }
    };
    (@nested $name:ident) => {
        impl Field for $name {
            fn put(&self, o: &mut Object, key: &str) {
                o.set(key, self.to_value());
            }
            fn take(o: &Object, key: &str) -> Result<Self, RecordError> {
                Self::read_fields(o.obj(key).ok_or_else(|| shape(key))?)
            }
        }
    };
    (impl $name:ident { $( $field:ident: $ty:ty, )* } $($rest:tt)*) => {
        record_tables!(@fields $name { $( $field: $ty, )* });
        record_tables!(@nested $name);
        record_tables!($($rest)*);
    };
    (
        #[flatten]
        $(#[$meta:meta])*
        pub struct $name:ident { $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )* }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        pub struct $name { $( $(#[$fmeta])* pub $field: $ty, )* }
        record_tables!(@fields $name { $( $field: $ty, )* });
        impl Field for $name {
            fn put(&self, o: &mut Object, _key: &str) {
                self.write_fields(o);
            }
            fn take(o: &Object, _key: &str) -> Result<Self, RecordError> {
                Self::read_fields(o)
            }
        }
        record_tables!($($rest)*);
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )* }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        pub struct $name { $( $(#[$fmeta])* pub $field: $ty, )* }
        record_tables!(@fields $name { $( $field: $ty, )* });
        record_tables!(@nested $name);
        record_tables!($($rest)*);
    };
}

record_tables! {
    // Defined in the workloads crate; a record nests it under `scale`.
    impl ScaleConfig {
        instr_factor: f64,
        seed: u64,
    }

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

    #[flatten]
    /// Task-latency percentiles and machine-wide stall attribution of one
    /// simulated run — the record-format-v5 extension of the JSONL schema.
    ///
    /// Latencies are simulated base-clock cycles per task instance; stall
    /// fields are global base-clock core-ticks summed across all core groups,
    /// in the fixed taxonomy of `tasksim`'s cycle accounting. Every record
    /// that carries metrics of a run carries every key below, flat in its
    /// metrics object.
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

    /// Deterministic metrics of a sampled cell.
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
        /// Kind tag (`reference`/`sampled`/`variation`/`explore`).
        pub kind: String,
        /// Deterministic metrics, shaped by `kind`.
        pub metrics: CellMetrics,
    }

    /// The advisory (wall-clock) side of a computed cell.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CellTiming {
        /// Host seconds of this cell's own simulation.
        pub wall_seconds: f64,
        /// The part of `wall_seconds` before the simulation handed out its
        /// first task (memory system, last-level prewarm, cores). `None`
        /// when a stored entry lacks the key.
        pub setup_seconds: Option<f64>,
        /// Host seconds of the reference run it was compared against
        /// (sampled cells only).
        pub reference_wall_seconds: Option<f64>,
        /// Wall-clock speedup over the reference (sampled cells only).
        pub speedup: Option<f64>,
        /// Detailed-mode simulation throughput of this cell's own run, in
        /// instructions per host second — the figure of merit of the batched
        /// trace pipeline. `None` when no detailed instructions ran.
        pub detailed_instr_per_sec: Option<f64>,
    }

    /// One store entry: record + timing, as persisted in a cache file.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StoredCell {
        /// Canonical record.
        pub record: CellRecord,
        /// Timing measured by the run that computed the cell.
        pub timing: CellTiming,
    }
}

impl PerfProfile {
    /// Builds the profile from a simulation result: percentiles straight
    /// from the engine, stall categories summed across core groups.
    pub fn from_result(result: &SimResult) -> Self {
        let mut p = PerfProfile {
            lat_p50: result.task_latency.p50,
            lat_p99: result.task_latency.p99,
            lat_p999: result.task_latency.p999,
            ..PerfProfile::default()
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

/// Kind-specific deterministic metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum CellMetrics {
    /// Metrics of a reference cell.
    Reference(RefMetrics),
    /// Metrics of a sampled cell (boxed: the eval payload
    /// dwarfs the other variants).
    Eval(Box<EvalMetrics>),
    /// Metrics of a variation cell.
    Variation(VariationMetrics),
    /// Metrics of an exploration cell.
    Explore(ExploreMetrics),
}

impl CellMetrics {
    /// The eval metrics, if this is a sampled cell.
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

/// The metrics object is the one value whose shape is not fixed: it
/// follows the record's kind tag, read from the same parent object.
impl Field for CellMetrics {
    fn put(&self, o: &mut Object, key: &str) {
        match self {
            CellMetrics::Reference(m) => m.put(o, key),
            CellMetrics::Eval(m) => m.put(o, key),
            CellMetrics::Variation(m) => m.put(o, key),
            CellMetrics::Explore(m) => m.put(o, key),
        }
    }
    fn take(o: &Object, key: &str) -> Result<Self, RecordError> {
        Ok(match String::take(o, "kind")?.as_str() {
            "reference" => CellMetrics::Reference(Field::take(o, key)?),
            "sampled" => CellMetrics::Eval(Box::new(Field::take(o, key)?)),
            "variation" => CellMetrics::Variation(Field::take(o, key)?),
            "explore" => CellMetrics::Explore(Field::take(o, key)?),
            other => return Err(RecordError::Shape(format!("unknown kind {other:?}"))),
        })
    }
}

impl CellRecord {
    /// The record of the cell `spec`, whose content hash is `cell`.
    pub fn new(cell: &str, spec: &CellSpec, metrics: CellMetrics) -> Self {
        Self {
            cell: cell.to_string(),
            bench: spec.bench.name().to_string(),
            machine: spec.machine.name.clone(),
            workers: spec.workers,
            scale: spec.scale,
            kind: spec.kind.tag().to_string(),
            metrics,
        }
    }

    /// The canonical JSON encoding — the bytes the determinism guarantee
    /// covers (and one line of the emitted JSONL artefact).
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

impl CellTiming {
    /// The timing of `run`, compared against the wall time of `reference`
    /// when the cell has one.
    pub fn new(run: &SimResult, reference: Option<&SimResult>) -> Self {
        let compared = reference.map(|r| ExperimentOutcome::compare(run, r));
        Self {
            wall_seconds: run.wall_seconds,
            setup_seconds: Some(run.setup_seconds),
            reference_wall_seconds: compared.as_ref().map(|c| c.reference_wall_seconds),
            speedup: compared.map(|c| c.speedup),
            detailed_instr_per_sec: run.detailed_instr_per_sec(),
        }
    }
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

impl StoredCell {
    /// Serializes the store-file content.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a store-file content.
    pub fn from_json(text: &str) -> Result<Self, RecordError> {
        match Value::parse(text).map_err(RecordError::Parse)? {
            Value::Obj(top) => Self::read_fields(&top),
            _ => Err(RecordError::Shape("top level is not an object".to_string())),
        }
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

    /// The timing of a cell with no reference and no detailed instructions.
    fn timing(wall_seconds: f64) -> CellTiming {
        CellTiming {
            wall_seconds,
            setup_seconds: None,
            reference_wall_seconds: None,
            speedup: None,
            detailed_instr_per_sec: None,
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
                setup_seconds: Some(0.01),
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
                timing: timing(1.5),
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
                setup_seconds: Some(0.01),
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
                setup_seconds: Some(0.01),
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
        let stored = StoredCell { record: heterogeneous_record(), timing: timing(1.0) };
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
                setup_seconds: Some(0.01),
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
        let mut good = StoredCell { record: eval_record(), timing: timing(1.0) }.to_json();
        good = good.replace("\"error_percent\":3.25", "\"error_percent\":\"three\"");
        assert!(StoredCell::from_json(&good).is_err());
    }

    #[test]
    fn u32_fields_reject_values_beyond_32_bits() {
        let text = StoredCell { record: eval_record(), timing: timing(1.0) }.to_json();
        // 2^32 + 2 used to load as `workers: 2`.
        let wide = text.replace("\"workers\":4", "\"workers\":4294967298");
        assert!(matches!(StoredCell::from_json(&wide), Err(RecordError::Shape(_))), "{wide}");
        let edge = text.replace("\"workers\":4", "\"workers\":4294967295");
        assert_eq!(StoredCell::from_json(&edge).unwrap().record.workers, u32::MAX);
        let hetero = StoredCell { record: heterogeneous_record(), timing: timing(1.0) }.to_json();
        for (key, value) in [("cores", 2), ("clock_divider", 1)] {
            let wide = hetero.replacen(
                &format!("\"{key}\":{value}"),
                &format!("\"{key}\":{}", (1u64 << 32) + value),
                1,
            );
            assert_ne!(wide, hetero);
            assert!(matches!(StoredCell::from_json(&wide), Err(RecordError::Shape(_))), "{key}");
        }
    }

    fn heterogeneous_record() -> CellRecord {
        let group = |name: &str, clock_divider| GroupMetric {
            name: name.to_string(),
            cores: 2,
            clock_divider,
            detailed_tasks: 512,
            instructions: 4_000_000,
            busy_ticks: 3_000_000,
        };
        CellRecord {
            kind: "reference".to_string(),
            metrics: CellMetrics::Reference(RefMetrics {
                total_cycles: 5_000_000,
                detailed_tasks: 1024,
                instructions: 8_000_000,
                groups: Some(vec![group("big", 1), group("little", 2)]),
                perf: sample_perf(),
            }),
            ..eval_record()
        }
    }

    /// Every variant of `v` with exactly one object key removed, anywhere
    /// in the tree, labelled with the dotted path of the removed key.
    fn without_each_key(v: &Value) -> Vec<(String, Value)> {
        match v {
            Value::Obj(o) => {
                let mut out = Vec::new();
                for key in o.keys() {
                    let mut rest = Object::new();
                    for k in o.keys().filter(|k| *k != key) {
                        rest.set(k, o.get(k).unwrap().clone());
                    }
                    out.push((key.to_string(), Value::Obj(rest)));
                    for (path, inner) in without_each_key(o.get(key).unwrap()) {
                        let mut copy = o.clone();
                        copy.set(key, inner);
                        out.push((format!("{key}.{path}"), Value::Obj(copy)));
                    }
                }
                out
            }
            Value::Arr(items) => (0..items.len())
                .flat_map(|i| {
                    without_each_key(&items[i]).into_iter().map(move |(path, inner)| {
                        let mut copy = items.clone();
                        copy[i] = inner;
                        (format!("{i}.{path}"), Value::Arr(copy))
                    })
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The keys a record may lack; every other key is required.
    const OPTIONAL_KEYS: [&str; 15] = [
        "groups",
        "ci_target",
        "ci_confidence",
        "ci_max",
        "ci_mean",
        "ci_units",
        "ci_converged",
        "strat_pilot",
        "strat_budget",
        "strat_allocated",
        "strat_reopened",
        "setup_seconds",
        "reference_wall_seconds",
        "speedup",
        "detailed_instr_per_sec",
    ];

    #[test]
    fn required_keys_are_required_and_optional_keys_read_as_none() {
        let mut sampled = eval_record();
        let CellMetrics::Eval(ref mut m) = sampled.metrics else { unreachable!() };
        m.ci_target = Some(0.05);
        m.ci_confidence = Some(0.95);
        m.ci_max = Some(0.04);
        m.ci_mean = Some(0.02);
        m.ci_units = Some(6);
        m.ci_converged = Some(5);
        m.strat_pilot = Some(4);
        m.strat_budget = Some(64);
        m.strat_allocated = Some(44);
        m.strat_reopened = Some(1);
        let variation = CellRecord {
            kind: "variation".to_string(),
            metrics: CellMetrics::Variation(VariationMetrics {
                p5: -4.5,
                q1: -1.0,
                median: 0.0,
                q3: 1.0,
                p95: 4.5,
                min: -9.0,
                max: 8.0,
                samples: 64,
            }),
            ..eval_record()
        };
        let explore = CellRecord {
            kind: "explore".to_string(),
            metrics: CellMetrics::Explore(ExploreMetrics {
                predicted_cycles: 1000,
                detail_fraction: 0.25,
                detailed_tasks: 2,
                fast_tasks: 6,
                detailed_instructions: 200,
                fast_instructions: 600,
                resamples: 1,
            }),
            ..eval_record()
        };
        let timing = CellTiming {
            wall_seconds: 0.5,
            setup_seconds: Some(0.01),
            reference_wall_seconds: Some(2.0),
            speedup: Some(4.0),
            detailed_instr_per_sec: Some(1.5e7),
        };
        let mut optional_seen = std::collections::BTreeSet::new();
        for record in [heterogeneous_record(), sampled, variation, explore] {
            let kind = record.kind.clone();
            let full = StoredCell { record, timing: timing.clone() }.to_json();
            for (path, stripped) in without_each_key(&Value::parse(&full).unwrap()) {
                let text = stripped.to_json();
                let key = path.rsplit('.').next().unwrap();
                match StoredCell::from_json(&text) {
                    Ok(back) => {
                        assert!(
                            OPTIONAL_KEYS.contains(&key),
                            "{kind}: required {path} not required"
                        );
                        // Absent on the way in, absent (None) on the way out.
                        assert_eq!(back.to_json(), text, "{kind}: {path}");
                        optional_seen.insert(key.to_string());
                    }
                    Err(_) => {
                        assert!(!OPTIONAL_KEYS.contains(&key), "{kind}: optional {path} rejected")
                    }
                }
            }
        }
        assert_eq!(optional_seen.len(), OPTIONAL_KEYS.len(), "every optional key exercised");
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
                setup_seconds: Some(0.01),
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
