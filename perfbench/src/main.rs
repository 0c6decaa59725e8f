//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload <sampled|reference|campaign> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload as a closed loop: a single client, the
//! next pass over the workload's fixed run list starts when the previous
//! one returns. It prints every end-to-end metric (or, with `--trace 1`,
//! every per-layer metric) by name and unit, then, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Every timed run is checked against an untimed
//! check run; a mismatch counts as a failed run and the exit code is 1.
//!
//! Why each workload and metric exists, and which end-to-end metric each
//! per-layer metric should move, is recorded in `perfbench/design.json`.

mod adapter;
mod affinity;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use adapter::{CampaignTrace, Outcome, Prepared};
use spans::{Boundary, LayerClock, RunSplit, Span, SpanLog};
use stats::median;

const USAGE: &str =
    "usage: perfbench --workload <sampled|reference|campaign> [--seed N] [--seconds S] [--trace 0|1]";

/// Environment variables the program would read; the benchmark passes each
/// of these inputs explicitly instead.
const PINNED_ENV: [&str; 4] =
    ["TASKPOINT_DETAIL_THREADS", "TASKPOINT_SCALE", "TASKPOINT_JOBS", "TASKPOINT_CAMPAIGN_DIR"];

/// Set-ups of a `sampled` or `reference` run, spread over it; `setup_s` is
/// their median.
const SETUP_REPS: usize = 15;

/// Set-ups of a `campaign` run (each a cold and a warm pass), and program
/// generations of a traced run; `setup_s` and the traced set-up times are
/// their medians.
const SHORT_SETUP_REPS: usize = 5;

/// Fewest timed iterations of a run, so `iter_ms.tail` always exists.
const MIN_ITERS: usize = 20;

/// Fewest traced and untraced passes of a traced run.
const MIN_TRACED_PASSES: usize = 3;

/// Where the benchmark keeps its span logs and temporary stores, relative
/// to the working directory.
const WORK_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sampled,
    Reference,
    Campaign,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "sampled" => Some(Workload::Sampled),
            "reference" => Some(Workload::Reference),
            "campaign" => Some(Workload::Campaign),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Sampled => "sampled",
            Workload::Reference => "reference",
            Workload::Campaign => "campaign",
        }
    }

    fn specs(self) -> fn(u64) -> Vec<adapter::CellSpec> {
        match self {
            Workload::Sampled => adapter::sampled_specs,
            Workload::Reference => adapter::reference_specs,
            Workload::Campaign => adapter::campaign_specs,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = adapter::default_seed();
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .ok()
                    .filter(|&s| s < adapter::SEED_LIMIT)
                    .ok_or(format!("bad --seed {value:?}: an integer below 2^53"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for var in PINNED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: clearing {var}; the benchmark passes this input explicitly");
            std::env::remove_var(var);
        }
    }
    let code = match run(&args) {
        Ok(report) => {
            report.print();
            i32::from(report.failed > 0)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// A temporary directory under [`WORK_DIR`], removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> std::io::Result<Self> {
        let path = Path::new(WORK_DIR).join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
}

/// What one benchmark process prints.
struct Report {
    header: String,
    notes: Vec<String>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn print(&self) {
        println!("{}", self.header);
        for note in &self.notes {
            println!("  {note}");
        }
        for m in &self.metrics {
            println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{:<36} {:>16.6} ratio ({} of {} runs failed their output check)",
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Counts checks of timed runs against the check run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} commit={} fingerprint={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        git_commit(),
        adapter::code_fingerprint()
    );
    let tmp = TempDir::new().map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let mut checks = Checks::default();
    let (metrics, mut notes) = if args.trace {
        traced(args, nproc, &tmp, &mut checks)?
    } else if args.workload == Workload::Campaign {
        campaign_timed(args, nproc, &tmp, &mut checks)?
    } else {
        direct_timed(args, &mut checks)?
    };
    notes.extend(checks.notes);
    Ok(Report { header, notes, metrics, attempted: checks.attempted, failed: checks.failed })
}

/// The commit of the checkout, read from `.git` in the working directory
/// (a source export has none).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "none".to_string() };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r).map(|s| s.trim().to_string()).unwrap_or_else(|| {
            read("packed-refs")
                .and_then(|p| {
                    p.lines().find(|l| l.ends_with(r)).map(|l| l[..l.len().min(40)].to_string())
                })
                .unwrap_or_else(|| "unknown".to_string())
        }),
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// End-to-end measurements of one untraced run.
#[derive(Debug, Default)]
struct EndToEnd {
    setup_s: f64,
    /// Host wall time of every timed iteration, in ms.
    iters_ms: Vec<f64>,
    /// The gated iteration time, in ms: for `sampled` and `reference` the
    /// sum over the run list of each simulation's fastest run, for
    /// `campaign` the fastest iteration.
    best_ms: f64,
    /// Host time of the workload's simulations within `best_ms` (the
    /// fastest cold pass for `campaign`), in ms.
    work_ms: f64,
    /// Simulated instructions in `work_ms`.
    instructions: f64,
    /// Cells in `work_ms`.
    cells: f64,
    peak_rss_mb: f64,
}

/// Every end-to-end metric, in `BENCHMARK.json` order.
///
/// The gated times are best cases. Interference on a shared host only ever
/// slows a run, and it comes and goes from one pass to the next: on a
/// 2-vCPU host one pass over the run list of `reference` ranged from 434 to
/// 737 ms within one run, so neither the median nor the fastest whole pass
/// repeats between runs. Each simulation is therefore timed alone and its
/// fastest run kept; a calm stretch as long as one simulation is enough to
/// catch it. The median and tail of whole passes are printed beside the
/// metrics (see [`distribution_note`]).
fn end_to_end_metrics(e: &EndToEnd) -> Vec<Metric> {
    let work_s = e.work_ms / 1e3;
    vec![
        metric("setup_s", "s", e.setup_s),
        metric("pass_ms.best", "ms", e.best_ms),
        metric("minstr_per_s", "Minstr/s", ratio(e.instructions / 1e6, work_s)),
        metric("cells_per_s", "cells/s", ratio(e.cells, work_s)),
        metric("peak_rss_mb", "MB", e.peak_rss_mb),
    ]
}

/// The median and tail of the iteration times, with the tail's percentile
/// and the sample count.
fn distribution_note(iters_ms: &[f64]) -> String {
    let (min, p50) = (stats::min(iters_ms), median(iters_ms));
    match stats::tail(iters_ms) {
        Some(t) => format!(
            "iter_ms.min {min:.3} ms; iter_ms.p50 {p50:.3} ms; iter_ms.tail {:.3} ms = p{:.1} of {} iterations ({} beyond it)",
            t.value,
            t.percentile,
            t.samples,
            stats::TAIL_MARGIN
        ),
        None => format!(
            "iter_ms.min {min:.3} ms; iter_ms.p50 {p50:.3} ms; only {} iterations, no tail",
            iters_ms.len()
        ),
    }
}

/// Runs every prepared simulation once, untraced.
fn direct_pass(prepared: &[Prepared]) -> Vec<Outcome> {
    prepared.iter().map(|p| std::hint::black_box(adapter::simulate(p, None).0)).collect()
}

/// Checks the invariants of one pass: every task and instruction simulated
/// exactly once, in detail or fast-forwarded.
fn check_invariants(prepared: &[Prepared], outcomes: &[Outcome], checks: &mut Checks) {
    for (p, o) in prepared.iter().zip(outcomes) {
        checks.check(
            o.detailed_tasks + o.fast_tasks == p.instances()
                && o.detailed_instructions + o.fast_instructions == p.instructions()
                && o.total_cycles > 0,
            || format!("{}: tasks or instructions not conserved: {o:?}", p.label),
        );
    }
}

/// One set-up of a direct workload: build its run list and generate its
/// programs. Returns the prepared runs and the host time it took, in s.
fn direct_build(args: &Args, with_references: bool) -> (Vec<Prepared>, adapter::Generated, f64) {
    let t = Instant::now();
    let specs = args.workload.specs()(args.seed);
    let (prepared, gen) = adapter::prepare(&specs, with_references);
    (prepared, gen, t.elapsed().as_secs_f64())
}

/// Set-up of a direct workload: one build, then one untimed check pass
/// whose outcomes every later run must reproduce. Returns the prepared
/// runs, the check pass's outcomes and the build's host time, in s.
fn direct_setup(
    args: &Args,
    with_references: bool,
    checks: &mut Checks,
) -> (Vec<Prepared>, adapter::Generated, Vec<Outcome>, f64) {
    let (prepared, gen, secs) = direct_build(args, with_references);
    let expected = direct_pass(&prepared);
    check_invariants(&prepared, &expected, checks);
    (prepared, gen, expected, secs)
}

/// Replaces `prepared` with a fresh build of the same run list, checks the
/// programs came out the same, and returns the build's host time, in s.
/// The old programs are dropped first, so peak memory holds one copy.
fn direct_rebuild(args: &Args, prepared: &mut Vec<Prepared>, checks: &mut Checks) -> f64 {
    let shape = |p: &Prepared| (p.label.clone(), p.instances(), p.instructions());
    let before: Vec<_> = prepared.drain(..).map(|p| shape(&p)).collect();
    let (again, _, secs) = direct_build(args, false);
    checks.check(again.iter().map(shape).eq(before), || {
        "a rebuilt run list differs from the first".to_string()
    });
    *prepared = again;
    secs
}

/// The untimed-check, timed-loop run of `sampled` and `reference`.
fn direct_timed(args: &Args, checks: &mut Checks) -> Result<(Vec<Metric>, Vec<String>), String> {
    let (mut prepared, _, expected, first) = direct_setup(args, false, checks);
    let mut setups = vec![first];
    let mut iters_ms = Vec::new();
    let mut cell_ms = vec![Vec::new(); prepared.len()];
    let rotation = affinity::Rotation::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || iters_ms.len() < MIN_ITERS {
        // Set-ups are spread over the run so that their median, like the
        // fastest runs, sees the whole run's range of host speed.
        let due = args.seconds * setups.len() as f64 / SETUP_REPS as f64;
        if setups.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            setups.push(direct_rebuild(args, &mut prepared, checks));
        }
        let n = iters_ms.len();
        if let Some(r) = &rotation {
            r.pin(n);
        }
        let pass = Instant::now();
        for ((p, e), times) in prepared.iter().zip(&expected).zip(&mut cell_ms) {
            let t = Instant::now();
            let o = std::hint::black_box(adapter::simulate(p, None).0);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            checks.check(&o == e, || format!("{}: timed pass {n} differs from check run", p.label));
        }
        iters_ms.push(pass.elapsed().as_secs_f64() * 1e3);
    }
    let pinning = match &rotation {
        Some(r) => format!("timed passes rotated over CPUs {:?}", r.cpus()),
        None => "CPU mask unreadable: timed passes ran where the scheduler put them".to_string(),
    };
    drop(rotation);
    while setups.len() < SETUP_REPS {
        setups.push(direct_rebuild(args, &mut prepared, checks));
    }
    let best_ms: f64 = cell_ms.iter().map(|t| stats::min(t)).sum();
    let e = EndToEnd {
        setup_s: median(&setups),
        best_ms,
        work_ms: best_ms,
        instructions: prepared.iter().map(|p| p.instructions() as f64).sum(),
        cells: prepared.len() as f64,
        peak_rss_mb: peak_rss_mb()?,
        iters_ms,
    };
    let notes = vec![
        format!(
            "cells: {}",
            prepared.iter().map(|p| p.label.as_str()).collect::<Vec<_>>().join(", ")
        ),
        distribution_note(&e.iters_ms),
        pinning,
    ];
    Ok((end_to_end_metrics(&e), notes))
}

/// A cold pass into a fresh store followed by a warm pass over it.
fn campaign_iteration(
    specs: &[adapter::CellSpec],
    store: &Path,
    nproc: usize,
) -> (adapter::Pass, adapter::Pass) {
    let _ = std::fs::remove_dir_all(store);
    let cold = adapter::campaign_pass(specs, store, nproc);
    let warm = adapter::campaign_pass(specs, store, nproc);
    let _ = std::fs::remove_dir_all(store);
    (cold, warm)
}

fn check_campaign_iteration(
    cold: &adapter::Pass,
    warm: &adapter::Pass,
    expected: &str,
    cells: usize,
    checks: &mut Checks,
) {
    checks.check(cold.jsonl == expected, || "cold pass JSONL differs from the check pass".into());
    checks.check(warm.jsonl == expected && warm.cached == cells, || {
        format!("warm pass differs from the cold pass or missed the store ({} hits)", warm.cached)
    });
}

/// The untimed-check, timed-loop run of `campaign`.
fn campaign_timed(
    args: &Args,
    nproc: usize,
    tmp: &TempDir,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let store = tmp.path("store");
    let mut setups = Vec::new();
    let mut check = None;
    for _ in 0..SHORT_SETUP_REPS {
        let t = Instant::now();
        let specs = adapter::campaign_specs(args.seed);
        let (cold, warm) = campaign_iteration(&specs, &store, nproc);
        setups.push(t.elapsed().as_secs_f64());
        match &check {
            None => {
                check_campaign_iteration(&cold, &warm, &cold.jsonl, specs.len(), checks);
                check = Some((specs, cold));
            }
            Some((specs, first)) => {
                check_campaign_iteration(&cold, &warm, &first.jsonl, specs.len(), checks)
            }
        }
    }
    let (specs, first) = check.expect("at least one set-up pass");
    let instructions = adapter::cold_pass_instructions(&specs, &first.instructions_by_bench)
        .ok_or("a benchmark's program size is missing from the records")?;
    let (mut iters_ms, mut cold_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || iters_ms.len() < MIN_ITERS {
        let (cold, warm) = campaign_iteration(&specs, &store, nproc);
        iters_ms.push(ms(cold.wall_ns + warm.wall_ns));
        cold_ms.push(ms(cold.wall_ns));
        check_campaign_iteration(&cold, &warm, &first.jsonl, specs.len(), checks);
    }
    let e = EndToEnd {
        setup_s: median(&setups),
        best_ms: stats::min(&iters_ms),
        work_ms: stats::min(&cold_ms),
        iters_ms,
        instructions: instructions as f64,
        cells: specs.len() as f64,
        peak_rss_mb: peak_rss_mb()?,
    };
    let notes = vec![
        format!(
            "{} cells ({} simulated, {} deduplicated) on {nproc} executor workers",
            specs.len(),
            first.computed,
            first.cached
        ),
        distribution_note(&e.iters_ms),
    ];
    Ok((end_to_end_metrics(&e), notes))
}

/// One traced pass, summed over its cells.
#[derive(Debug, Clone, Copy, Default)]
struct PassSplit {
    wall_ns: u64,
    run_ns: u64,
    memsys_new_ns: u64,
    setup_ns: u64,
    loop_self_ns: u64,
    finalize_ns: u64,
    boundary_ns: [u64; 6],
}

impl PassSplit {
    fn add(&mut self, s: &RunSplit) {
        self.run_ns += s.run_ns;
        self.memsys_new_ns += s.memsys_new_ns;
        self.setup_ns += s.setup_ns;
        self.loop_self_ns += s.loop_self_ns();
        self.finalize_ns += s.finalize_ns;
        for b in Boundary::ALL {
            self.boundary_ns[b as usize] += s.at(b).ns;
        }
    }

    /// Host time of the pass without the separately timed memory-system
    /// constructions, comparable with an untraced pass.
    fn comparable_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.memsys_new_ns)
    }
}

/// Everything a traced run measures.
#[derive(Debug, Default)]
struct Layers {
    generate_ms: f64,
    generated: adapter::Generated,
    passes: Vec<PassSplit>,
    untraced_ms: Vec<f64>,
    outcomes: Vec<Outcome>,
    splits: Vec<RunSplit>,
    spec_ms: f64,
    campaign: CampaignTrace,
}

impl Layers {
    fn med(&self, f: impl Fn(&PassSplit) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }

    fn sum(&self, f: impl Fn(&Outcome) -> u64) -> f64 {
        self.outcomes.iter().map(f).sum::<u64>() as f64
    }

    fn count(&self, f: impl Fn(&RunSplit) -> u64) -> f64 {
        self.splits.iter().map(f).sum::<u64>() as f64
    }

    fn boundary_ms(&self, b: Boundary) -> f64 {
        self.med(|p| ms(p.boundary_ns[b as usize]))
    }

    fn cell_ms(&self, kind: &str) -> (f64, f64) {
        let v: Vec<f64> =
            self.campaign.cold.iter().filter(|c| c.kind == kind).map(|c| ms(c.ns)).collect();
        (median(&v), v.iter().fold(0.0, |a, b| a + b))
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
fn per_layer_metrics(l: &Layers) -> Vec<Metric> {
    let detailed = l.sum(|o| o.detailed_instructions);
    let fill = l.count(|s| s.counts.fill_instructions);
    let c = &l.campaign;
    let (ref_p50, ref_sum) = l.cell_ms("reference");
    let (sam_p50, sam_sum) = l.cell_ms("sampled");
    let cold_busy: u64 = c.cold.iter().map(|x| x.ns).sum();
    let err = &c.error_pct;
    let traced = l.med(|p| p.comparable_ns() as f64);
    let untraced = median(&l.untraced_ms) * 1e6;
    vec![
        metric("workloads.generate_ms", "ms", l.generate_ms),
        metric("workloads.instances", "count", l.generated.instances as f64),
        metric("workloads.instructions", "count", l.generated.instructions as f64),
        metric("sim.memsys_new_ms", "ms", l.med(|p| ms(p.memsys_new_ns))),
        metric("sim.setup_ms", "ms", l.med(|p| ms(p.setup_ns))),
        metric("sim.prewarm_ms", "ms", l.med(|p| ms(p.setup_ns.saturating_sub(p.memsys_new_ns)))),
        metric("sim.setup_share", "ratio", l.med(|p| ratio(p.setup_ns as f64, p.run_ns as f64))),
        metric("sim.loop_self_ms", "ms", l.med(|p| ms(p.loop_self_ns))),
        metric(
            "sim.ns_per_detailed_instr",
            "ns",
            l.med(|p| ratio(p.loop_self_ns as f64, detailed)),
        ),
        metric("sim.finalize_ms", "ms", l.med(|p| ms(p.finalize_ns))),
        metric("sim.total_cycles", "count", l.sum(|o| o.total_cycles)),
        metric("sim.detailed_instructions", "count", detailed),
        metric("sim.fast_instructions", "count", l.sum(|o| o.fast_instructions)),
        metric("sim.detailed_tasks", "count", l.sum(|o| o.detailed_tasks)),
        metric("sim.fast_tasks", "count", l.sum(|o| o.fast_tasks)),
        metric("sim.l1_accesses", "count", l.sum(|o| o.l1_accesses)),
        metric("sim.l1_misses", "count", l.sum(|o| o.l1_misses)),
        metric("sim.llc_accesses", "count", l.sum(|o| o.llc_accesses)),
        metric("sim.llc_misses", "count", l.sum(|o| o.llc_misses)),
        metric("sim.dram_accesses", "count", l.sum(|o| o.dram_accesses)),
        metric("sim.invalidations", "count", l.sum(|o| o.invalidations)),
        metric("trace.fill_ms", "ms", l.boundary_ms(Boundary::Fill)),
        metric("trace.ns_per_instr", "ns", ratio(l.boundary_ms(Boundary::Fill) * 1e6, fill)),
        metric("trace.fill_calls", "count", l.count(|s| s.at(Boundary::Fill).calls)),
        metric("trace.instructions", "count", fill),
        metric("trace.sources", "count", l.count(|s| s.counts.sources)),
        metric("runtime.sched_ms", "ms", l.boundary_ms(Boundary::Sched)),
        metric("runtime.picks", "count", l.count(|s| s.counts.picks)),
        metric(
            "runtime.ready_peak",
            "count",
            l.splits.iter().map(|s| s.counts.ready_peak).max().unwrap_or(0) as f64,
        ),
        metric("core.decide_ms", "ms", l.boundary_ms(Boundary::CoreDecide)),
        metric("core.observe_ms", "ms", l.boundary_ms(Boundary::CoreObserve)),
        metric("core.detailed_decisions", "count", l.count(|s| s.counts.core_detailed)),
        metric("core.fast_decisions", "count", l.count(|s| s.counts.core_fast)),
        metric("core.resamples", "count", l.sum(|o| o.resamples)),
        metric("accuracy.decide_ms", "ms", l.boundary_ms(Boundary::AccuracyDecide)),
        metric("accuracy.observe_ms", "ms", l.boundary_ms(Boundary::AccuracyObserve)),
        metric("accuracy.detailed_decisions", "count", l.count(|s| s.counts.accuracy_detailed)),
        metric("accuracy.error_pct.mean", "%", ratio(err.iter().sum(), err.len() as f64)),
        metric("accuracy.error_pct.max", "%", err.iter().copied().fold(0.0, f64::max)),
        metric("campaign.spec_ms", "ms", l.spec_ms),
        metric("campaign.cell_ms.reference.p50", "ms", ref_p50),
        metric("campaign.cell_ms.reference.sum", "ms", ref_sum),
        metric("campaign.cell_ms.sampled.p50", "ms", sam_p50),
        metric("campaign.cell_ms.sampled.sum", "ms", sam_sum),
        metric(
            "campaign.executor_utilization",
            "ratio",
            ratio(cold_busy as f64, (c.workers as u64 * c.cold_wall_ns) as f64),
        ),
        metric("campaign.json_encode_ms", "ms", ms(c.json_encode_ns)),
        metric("campaign.store_save_ms", "ms", ms(c.store_save_ns)),
        metric("campaign.store_load_ms", "ms", ms(c.store_load_ns)),
        metric("campaign.json_parse_ms", "ms", ms(c.json_parse_ns)),
        metric(
            "campaign.warm_cells_per_s",
            "cells/s",
            ratio(c.cold.len() as f64, c.warm_wall_ns as f64 / 1e9),
        ),
        metric("campaign.cells_computed", "count", c.computed as f64),
        metric("campaign.cells_cached", "count", c.cached as f64),
        metric("campaign.jsonl_bytes", "bytes", c.jsonl.len() as f64),
        metric("bench.trace_overhead", "ratio", ratio(traced - untraced, untraced)),
    ]
}

/// One traced direct pass: every prepared simulation with the wrappers on.
fn traced_pass(
    prepared: &[Prepared],
    log: &mut SpanLog,
    pass: usize,
) -> (PassSplit, Vec<Outcome>, Vec<RunSplit>) {
    let pass_span = log.open(format!("pass.{pass}"), None);
    let mut split = PassSplit::default();
    let mut outcomes = Vec::with_capacity(prepared.len());
    let mut splits = Vec::with_capacity(prepared.len());
    for p in prepared {
        let start = log.now();
        let clock = Rc::new(LayerClock::new());
        let (outcome, run) = adapter::simulate(p, Some(&clock));
        let run = run.expect("a traced run returns its split");
        log.push(Span {
            name: format!("sim.run {}", p.label),
            parent: Some(pass_span),
            start_ns: start,
            end_ns: log.now(),
            boundaries: Some(run),
        });
        split.add(&run);
        outcomes.push(outcome);
        splits.push(run);
    }
    log.close(pass_span);
    (split, outcomes, splits)
}

/// The traced run: per-layer metrics of the workload's own cells.
///
/// 1. Program generation, timed directly.
/// 2. Untraced and traced passes over every simulation the workload
///    performs, interleaved for `--seconds`: the traced passes give the
///    engine layers (`sim`, `trace`, `runtime`, `core`, `accuracy`), the
///    pair gives the tracing overhead.
/// 3. One traced campaign pass over the same cells (cold, then warm), plus
///    direct store and JSON calls: the `campaign` layer and sampling error.
fn traced(
    args: &Args,
    nproc: usize,
    tmp: &TempDir,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut log = SpanLog::new();
    let build = args.workload.specs();
    let with_references = args.workload == Workload::Campaign;
    let (prepared, generated, expected, _) = direct_setup(args, with_references, checks);
    let mut layers = Layers { generated, ..Layers::default() };
    let gen: Vec<f64> = (0..SHORT_SETUP_REPS)
        .map(|_| ms(adapter::prepare(&build(args.seed), with_references).1.generate_ns))
        .collect();
    layers.generate_ms = median(&gen);
    let spec: Vec<f64> =
        (0..SHORT_SETUP_REPS).map(|_| ms(adapter::time_spec_build(build, args.seed))).collect();
    layers.spec_ms = median(&spec);

    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed().as_secs_f64() < args.seconds || pass < MIN_TRACED_PASSES {
        let t = Instant::now();
        direct_pass(&prepared);
        layers.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let (mut split, outcomes, splits) = traced_pass(&prepared, &mut log, pass);
        split.wall_ns = t.elapsed().as_nanos() as u64;
        for ((p, o), e) in prepared.iter().zip(&outcomes).zip(&expected) {
            checks.check(o == e, || format!("{}: traced run differs from untraced run", p.label));
        }
        if pass == 0 {
            layers.outcomes = outcomes;
            layers.splits = splits;
        } else {
            let same = splits.iter().zip(&layers.splits).all(|(a, b)| {
                a.counts == b.counts
                    && Boundary::ALL.iter().all(|&x| a.at(x).calls == b.at(x).calls)
            });
            checks
                .check(same, || format!("traced pass {pass}: boundary counts differ from pass 0"));
        }
        layers.passes.push(split);
        pass += 1;
    }

    // The campaign workload runs its cells as users do; the others list
    // their references first so `campaign.cell_ms.sampled` times sampled
    // cells rather than the references they depend on.
    let specs = match args.workload {
        Workload::Campaign => build(args.seed),
        _ => adapter::references_first(&build(args.seed)),
    };
    let campaign_span = log.open("campaign.traced", None);
    let trace = adapter::traced_campaign(
        &specs,
        &tmp.path("traced-store"),
        &tmp.path("scratch-store"),
        nproc,
    );
    log.close(campaign_span);
    checks
        .check(trace.warm_jsonl == trace.jsonl && trace.warm_cached == specs.len() as u64, || {
            "traced warm pass differs from the cold pass or missed the store".into()
        });
    checks.check(trace.round_trip_failures == 0, || {
        format!("{} cells did not round-trip through the store", trace.round_trip_failures)
    });
    for (p, o) in prepared.iter().zip(&expected) {
        if let Some(&cycles) = trace.cycles_by_hash.get(&p.hash) {
            checks.check(cycles == o.total_cycles, || {
                format!(
                    "{}: campaign record has {cycles} cycles, direct run {}",
                    p.label, o.total_cycles
                )
            });
        }
    }
    if args.workload == Workload::Campaign {
        let _ = std::fs::remove_dir_all(tmp.path("check-store"));
        let untraced = adapter::campaign_pass(&specs, &tmp.path("check-store"), nproc);
        checks.check(untraced.jsonl == trace.jsonl, || {
            "traced campaign pass JSONL differs from Campaign::run".into()
        });
    }
    layers.campaign = trace;

    let mut notes = vec![format!(
        "{} traced and {} untraced passes over {} simulations",
        layers.passes.len(),
        layers.untraced_ms.len(),
        prepared.len()
    )];
    if args.workload != Workload::Campaign {
        notes.extend(cell_split_table(&prepared, &log));
    }
    let spans_path =
        Path::new(WORK_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed));
    match std::fs::write(
        &spans_path,
        log.to_jsonl(&format!("{}-{}", args.workload.name(), std::process::id())),
    ) {
        Ok(()) => notes.push(format!("spans written to {}", spans_path.display())),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    Ok((per_layer_metrics(&layers), notes))
}

/// The median host-time split of each cell over the traced passes.
fn cell_split_table(prepared: &[Prepared], log: &SpanLog) -> Vec<String> {
    let mut rows = vec![format!(
        "{:<44} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "cell", "run_ms", "setup", "loop", "fill", "sched", "ctl", "final"
    )];
    for p in prepared {
        let runs: Vec<RunSplit> = log.runs(&format!("sim.run {}", p.label));
        let share = |f: &dyn Fn(&RunSplit) -> u64| {
            100.0
                * median(
                    &runs.iter().map(|r| ratio(f(r) as f64, r.run_ns as f64)).collect::<Vec<_>>(),
                )
        };
        let ctl = |r: &RunSplit| {
            [
                Boundary::CoreDecide,
                Boundary::CoreObserve,
                Boundary::AccuracyDecide,
                Boundary::AccuracyObserve,
            ]
            .iter()
            .map(|&b| r.at(b).ns)
            .sum()
        };
        rows.push(format!(
            "{:<44} {:>9.3} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            p.label,
            median(&runs.iter().map(|r| ms(r.run_ns)).collect::<Vec<_>>()),
            share(&|r| r.setup_ns),
            share(&|r| r.loop_self_ns()),
            share(&|r| r.at(Boundary::Fill).ns),
            share(&|r| r.at(Boundary::Sched).ns),
            share(&ctl),
            share(&|r| r.finalize_ns),
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| -> Option<String> {
            let rest = &entry[entry.find(&format!("\"{key}\""))? + key.len() + 2..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name").expect("name"), field(e, "unit").expect("unit")))
            .collect()
    }

    fn printed(metrics: Vec<Metric>) -> Vec<(String, String)> {
        metrics.into_iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        assert_eq!(printed(end_to_end_metrics(&EndToEnd::default())), declared("end_to_end"));
        assert_eq!(printed(per_layer_metrics(&Layers::default())), declared("per_layer"));
    }

    #[test]
    fn design_record_covers_every_metric_and_workload() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("design.json");
        let design = std::fs::read_to_string(path).expect("perfbench/design.json");
        for (name, _) in declared("end_to_end").into_iter().chain(declared("per_layer")) {
            assert!(design.contains(&format!("\"{name}\"")), "design.json lacks {name}");
        }
        for w in [Workload::Sampled, Workload::Reference, Workload::Campaign] {
            assert!(
                design.contains(&format!("\"{}\"", w.name())),
                "design.json lacks {}",
                w.name()
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            ["--workload", "campaign", "--seed", "7", "--seconds", "3", "--trace", "1"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Campaign, 7, 3.0, true));
        let d = parse_args(["--workload", "sampled"].map(String::from).into_iter()).unwrap();
        assert_eq!(d.seed, 0x7A5C_901E, "the repository's default seed");
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--workload", "sampled", "--trace", "2"],
            &[],
        ] {
            assert!(parse_args(bad.iter().map(|s| s.to_string())).is_err(), "{bad:?}");
        }
    }
}
