//! The campaign driver: specs in, ordered outcomes out.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use taskpoint_runtime::Program;
use taskpoint_telemetry::{ProfileSpan, TelemetryReport};
use taskpoint_workloads::{Benchmark, ScaleConfig};
use tasksim::{MachineConfig, SimResult, Telemetry};

use crate::context::Context;
use crate::executor::Executor;
use crate::record::CellOutcome;
use crate::spec::CellSpec;
use crate::store::ResultStore;

/// A sweep-execution engine: a result store, a worker pool and the shared
/// in-memory caches, bundled.
#[derive(Debug)]
pub struct Campaign {
    store: ResultStore,
    executor: Executor,
    ctx: Context,
    telemetry_dir: Option<PathBuf>,
}

/// The outcome of one [`Campaign::run`].
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-cell outcomes, in spec order.
    pub outcomes: Vec<CellOutcome>,
    /// Cells actually simulated by this run.
    pub computed: usize,
    /// Cells served from the store.
    pub cached: usize,
    /// Wall time of the whole batch in seconds.
    pub wall_seconds: f64,
}

impl Campaign {
    /// Creates a campaign over an explicit store and executor.
    pub fn new(store: ResultStore, executor: Executor) -> Self {
        Self { store, executor, ctx: Context::new(), telemetry_dir: None }
    }

    /// Enables per-cell telemetry export: every cell this campaign
    /// *simulates* (cache hits have no run to observe) records its full
    /// event stream and writes `<cell>.trace.json` (Chrome trace-event
    /// JSON) plus `<cell>.tptrace` (the ingestable text timeline) under
    /// `dir`, and the batch writes a `profile.trace.json` of wall-clock
    /// cell spans.
    pub fn with_telemetry_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.telemetry_dir = Some(dir.into());
        self
    }

    /// The telemetry export directory, if enabled.
    pub fn telemetry_dir(&self) -> Option<&Path> {
        self.telemetry_dir.as_deref()
    }

    /// A campaign with no persistence — in-memory sharing only. The right
    /// choice for test binaries that want reference reuse without
    /// touching `results/`.
    pub fn in_memory() -> Self {
        Self::new(ResultStore::disabled(), Executor::from_env())
    }

    /// Runs every cell, fanning out across the executor's workers, and
    /// returns outcomes **in spec order** — byte-identical output
    /// regardless of worker count.
    pub fn run(&self, specs: &[CellSpec]) -> CampaignReport {
        self.run_labeled("campaign", specs)
    }

    /// Like [`Campaign::run`], tagging live progress with `label`.
    ///
    /// When the store persists, a `progress.json` snapshot in the store
    /// root is rewritten atomically as cells start and finish — total,
    /// computed, cached, in-flight, and a rolling detailed-simulation
    /// throughput over the last few computed cells — so `campaign status`
    /// can introspect a batch while it runs.
    pub fn run_labeled(&self, label: &str, specs: &[CellSpec]) -> CampaignReport {
        let started = Instant::now();
        let progress = self
            .store
            .root()
            .map(|root| ProgressTracker::new(root.join("progress.json"), label, specs.len()));
        let profile: Mutex<Vec<ProfileSpan>> = Mutex::new(Vec::new());
        let outcomes = self.executor.run(specs, |index, spec| {
            if let Some(p) = &progress {
                p.started();
            }
            let t0 = started.elapsed();
            let telemetry = if self.telemetry_dir.is_some() {
                Telemetry::recording()
            } else {
                Telemetry::disabled()
            };
            let outcome = self.ctx.compute_observed(&self.store, spec, &telemetry);
            if let Some(dir) = &self.telemetry_dir {
                if let Some(report) = telemetry.take_report() {
                    export_cell_traces(dir, &outcome.record.cell, &report);
                }
                let dur = started.elapsed().saturating_sub(t0);
                // The span's tid is the cell's spec index: deterministic,
                // and in Perfetto it lines each cell up on its own lane.
                profile.lock().expect("profile spans poisoned").push(ProfileSpan {
                    name: if outcome.cached { "cell.cached" } else { "cell.computed" }.to_string(),
                    key: format!("{}:{}", outcome.record.bench, outcome.record.cell),
                    worker: index as u32,
                    wall_start_us: t0.as_micros() as u64,
                    wall_dur_us: (dur.as_micros() as u64).max(1),
                });
            }
            if let Some(p) = &progress {
                p.finished(outcome.cached, outcome.timing.detailed_instr_per_sec);
            }
            outcome
        });
        if let Some(dir) = &self.telemetry_dir {
            let mut spans = std::mem::take(&mut *profile.lock().expect("profile spans poisoned"));
            spans.sort_by(|a, b| (a.wall_start_us, &a.key).cmp(&(b.wall_start_us, &b.key)));
            write_profile_trace(dir, spans);
        }
        let cached = outcomes.iter().filter(|o| o.cached).count();
        CampaignReport {
            computed: outcomes.len() - cached,
            cached,
            outcomes,
            wall_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// The benchmark's program (generated once per scale and shared).
    pub fn program(&self, bench: Benchmark, scale: &ScaleConfig) -> Arc<Program> {
        self.ctx.program(bench, scale)
    }

    /// The full-detail reference for a cell (computed or cache-loaded
    /// once, then shared; reports stripped).
    pub fn reference(
        &self,
        bench: Benchmark,
        scale: ScaleConfig,
        machine: MachineConfig,
        workers: u32,
    ) -> Arc<SimResult> {
        self.ctx.reference(&self.store, bench, scale, machine, workers)
    }
}

/// Writes a cell's recorded telemetry next to its siblings under `dir`.
/// Export failures warn and continue — telemetry is an observer, never a
/// correctness dependency of the batch.
fn export_cell_traces(dir: &Path, cell: &str, report: &TelemetryReport) {
    if report.events.is_empty() && report.counters.is_empty() {
        return; // cache hit or empty cell: nothing ran, nothing to export
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create telemetry dir {}: {e}", dir.display());
        return;
    }
    let chrome = dir.join(format!("{cell}.trace.json"));
    if let Err(e) = std::fs::write(&chrome, report.chrome_trace_json()) {
        eprintln!("warning: cannot write {}: {e}", chrome.display());
    }
    let prom = dir.join(format!("{cell}.prom"));
    if let Err(e) = std::fs::write(&prom, report.text_exposition()) {
        eprintln!("warning: cannot write {}: {e}", prom.display());
    }
    // A stream with no finished tasks (counters only) has no timeline; the
    // Chrome trace above still carries the counters.
    if let Ok(text) = report.tptrace_timeline() {
        let path = dir.join(format!("{cell}.tptrace"));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

/// Writes the batch's wall-clock cell spans as a profile-only Chrome trace.
fn write_profile_trace(dir: &Path, spans: Vec<ProfileSpan>) {
    if spans.is_empty() {
        return;
    }
    let report = TelemetryReport { profile: spans, ..TelemetryReport::default() };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create telemetry dir {}: {e}", dir.display());
        return;
    }
    let path = dir.join("profile.trace.json");
    if let Err(e) = std::fs::write(&path, report.chrome_trace_json()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// How many of the freshest computed-cell throughputs feed the rolling
/// Minstr/s shown by `campaign status`.
const ROLLING_THROUGHPUT_WINDOW: usize = 10;

/// Live batch progress, rewritten atomically into the store root as cells
/// start and finish.
#[derive(Debug)]
struct ProgressTracker {
    path: PathBuf,
    label: String,
    total: usize,
    state: Mutex<ProgressState>,
}

#[derive(Debug, Default)]
struct ProgressState {
    computed: usize,
    cached: usize,
    in_flight: usize,
    /// Detailed instructions/second of the last few computed cells.
    recent_ips: VecDeque<f64>,
}

impl ProgressTracker {
    fn new(path: PathBuf, label: &str, total: usize) -> Self {
        let tracker = Self {
            path,
            label: label.to_string(),
            total,
            state: Mutex::new(ProgressState::default()),
        };
        tracker.write(&tracker.state.lock().expect("progress poisoned"));
        tracker
    }

    fn started(&self) {
        let mut st = self.state.lock().expect("progress poisoned");
        st.in_flight += 1;
        self.write(&st);
    }

    fn finished(&self, cached: bool, instr_per_sec: Option<f64>) {
        let mut st = self.state.lock().expect("progress poisoned");
        st.in_flight = st.in_flight.saturating_sub(1);
        if cached {
            st.cached += 1;
        } else {
            st.computed += 1;
            if let Some(ips) = instr_per_sec.filter(|v| v.is_finite() && *v > 0.0) {
                if st.recent_ips.len() == ROLLING_THROUGHPUT_WINDOW {
                    st.recent_ips.pop_front();
                }
                st.recent_ips.push_back(ips);
            }
        }
        self.write(&st);
    }

    /// Serializes a snapshot and publishes it with a temp-file rename, so
    /// a concurrent `campaign status` never reads a torn file. Failures
    /// are silent: progress is advisory.
    fn write(&self, st: &ProgressState) {
        use crate::json::{Object, Value};
        let mut o = Object::new();
        o.set("label", Value::Str(self.label.clone()));
        o.set("total", Value::Num(self.total as f64));
        o.set("computed", Value::Num(st.computed as f64));
        o.set("cached", Value::Num(st.cached as f64));
        o.set("in_flight", Value::Num(st.in_flight as f64));
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        o.set("updated_unix", Value::Num(unix as f64));
        if !st.recent_ips.is_empty() {
            let mean = st.recent_ips.iter().sum::<f64>() / st.recent_ips.len() as f64;
            o.set("rolling_minstr_per_sec", Value::Num(mean / 1e6));
        }
        let text = format!("{}\n", Value::Obj(o).to_json());
        let tmp = self.path.with_extension(format!("tmp.{}", std::process::id()));
        let publish = || -> std::io::Result<()> {
            if let Some(parent) = self.path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&tmp, text.as_bytes())?;
            std::fs::rename(&tmp, &self.path)
        };
        if publish().is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// A parsed `progress.json` snapshot (see [`Campaign::run_labeled`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// The batch label (`<sweep>.<scale>` from the CLI).
    pub label: String,
    /// Cells in the batch.
    pub total: u64,
    /// Cells simulated so far.
    pub computed: u64,
    /// Cells served from the store so far.
    pub cached: u64,
    /// Cells currently being simulated.
    pub in_flight: u64,
    /// Unix timestamp of the last update.
    pub updated_unix: u64,
    /// Mean detailed-simulation throughput (Minstr/s) over the last few
    /// computed cells, if any have finished.
    pub rolling_minstr_per_sec: Option<f64>,
}

impl ProgressSnapshot {
    /// Reads and parses `<store root>/progress.json`. `None` if the file
    /// is absent or unreadable (no batch has run here yet).
    pub fn read(store_root: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(store_root.join("progress.json")).ok()?;
        let crate::json::Value::Obj(obj) = crate::json::Value::parse(&text).ok()? else {
            return None;
        };
        Some(Self {
            label: obj.str("label")?.to_string(),
            total: obj.u64("total")?,
            computed: obj.u64("computed")?,
            cached: obj.u64("cached")?,
            in_flight: obj.u64("in_flight")?,
            updated_unix: obj.u64("updated_unix")?,
            rolling_minstr_per_sec: obj.num("rolling_minstr_per_sec"),
        })
    }
}

impl CampaignReport {
    /// The canonical JSONL artefact: one record per line, spec order,
    /// newline-terminated. These bytes are the determinism guarantee.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&o.record.to_json());
            out.push('\n');
        }
        out
    }

    /// The advisory timing sidecar: one line per cell, spec order. Not
    /// deterministic (host wall clock) and therefore emitted separately.
    pub fn timings_jsonl(&self) -> String {
        use crate::json::{Object, Value};
        use crate::record::Table;
        let mut out = String::new();
        for o in &self.outcomes {
            let mut t = Object::new();
            t.set("cell", Value::Str(o.record.cell.clone()));
            t.set("cached", Value::Bool(o.cached));
            o.timing.write_fields(&mut t);
            out.push_str(&Value::Obj(t).to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the canonical JSONL (and the timing sidecar next to it, as
    /// `<stem>.timings.jsonl`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.jsonl())?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("campaign");
        let sidecar = path.with_file_name(format!("{stem}.timings.jsonl"));
        std::fs::write(sidecar, self.timings_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint::TaskPointConfig;

    fn tiny_specs() -> Vec<CellSpec> {
        let scale = ScaleConfig::quick();
        let machine = MachineConfig::tiny_test();
        vec![
            CellSpec::reference(Benchmark::Spmv, scale, machine.clone(), 2),
            CellSpec::sampled(Benchmark::Spmv, scale, machine.clone(), 2, TaskPointConfig::lazy()),
            CellSpec::sampled(Benchmark::Spmv, scale, machine, 2, TaskPointConfig::periodic()),
        ]
    }

    #[test]
    fn outcomes_come_back_in_spec_order() {
        let campaign = Campaign::new(ResultStore::disabled(), Executor::new(4));
        let specs = tiny_specs();
        let report = campaign.run(&specs);
        assert_eq!(report.outcomes.len(), specs.len());
        for (spec, outcome) in specs.iter().zip(&report.outcomes) {
            assert_eq!(outcome.record.cell, spec.hash_hex());
        }
        assert_eq!(report.computed, 3);
        assert_eq!(report.cached, 0);
        // Three lines, kinds in order.
        let jsonl = report.jsonl();
        let kinds: Vec<&str> = jsonl
            .lines()
            .map(|l| if l.contains("\"kind\":\"reference\"") { "r" } else { "s" })
            .collect();
        assert_eq!(kinds, vec!["r", "s", "s"]);
    }

    #[test]
    fn sampled_cells_share_one_reference_with_the_reference_cell() {
        // All three cells need the same detailed run; the context must
        // compute it exactly once even under a parallel executor. Equality
        // of reference_cycles across records is the observable.
        let campaign = Campaign::new(ResultStore::disabled(), Executor::new(3));
        let report = campaign.run(&tiny_specs());
        let ref_cycles = report.outcomes[0].record.metrics.as_reference().unwrap().total_cycles;
        for o in &report.outcomes[1..] {
            assert_eq!(o.record.metrics.as_eval().unwrap().reference_cycles, ref_cycles);
        }
    }

    #[test]
    fn duplicate_specs_in_one_batch_simulate_once() {
        // Sweep::All genuinely contains coinciding cells (e.g. a Fig. 6
        // history config equal to lazy()); they must dedup against the
        // in-flight guard, not race or re-simulate.
        let scale = ScaleConfig::quick();
        let machine = MachineConfig::tiny_test();
        let spec = CellSpec::sampled(Benchmark::Spmv, scale, machine, 2, TaskPointConfig::lazy());
        let specs = vec![spec.clone(), spec.clone(), spec];
        let campaign = Campaign::new(ResultStore::disabled(), Executor::new(3));
        let report = campaign.run(&specs);
        assert_eq!(report.computed, 1, "one simulation for three identical specs");
        assert_eq!(report.cached, 2);
        let jsonl = report.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], lines[1]);
        assert_eq!(lines[1], lines[2]);
    }

    #[test]
    fn telemetry_dir_exports_traces_progress_and_profile() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-stores")
            .join(format!("telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tdir = dir.join("telemetry");
        // Sequential executor: the reference cell runs before the sampled
        // cells that depend on it, so its own spec does the simulating and
        // every cell exports a trace.
        let campaign = Campaign::new(ResultStore::at(dir.join("store")), Executor::new(1))
            .with_telemetry_dir(&tdir);
        let specs = tiny_specs();
        let report = campaign.run_labeled("test.quick", &specs);
        assert_eq!(report.computed, 3);
        for o in &report.outcomes {
            assert!(tdir.join(format!("{}.trace.json", o.record.cell)).is_file());
            assert!(tdir.join(format!("{}.tptrace", o.record.cell)).is_file());
        }
        assert!(tdir.join("profile.trace.json").is_file());
        let snap = ProgressSnapshot::read(&dir.join("store")).expect("progress.json written");
        assert_eq!(snap.label, "test.quick");
        assert_eq!(snap.total, 3);
        assert_eq!(snap.computed, 3);
        assert_eq!(snap.cached, 0);
        assert_eq!(snap.in_flight, 0);
        assert!(snap.rolling_minstr_per_sec.unwrap() > 0.0);
        // Recording must not perturb the canonical records: an unobserved
        // in-memory run of the same specs produces identical JSONL.
        let plain = Campaign::new(ResultStore::disabled(), Executor::new(1)).run(&specs);
        assert_eq!(plain.jsonl(), report.jsonl());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timings_sidecar_has_one_line_per_cell() {
        let campaign = Campaign::new(ResultStore::disabled(), Executor::new(2));
        let report = campaign.run(&tiny_specs());
        assert_eq!(report.timings_jsonl().lines().count(), 3);
        for line in report.timings_jsonl().lines() {
            assert!(line.contains("\"wall_seconds\":"));
        }
    }
}
