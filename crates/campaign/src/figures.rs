//! The paper's tables and figures as plain text, rendered from a sweep's
//! outcomes by [`Sweep::render`].
//!
//! Every row takes its labels (benchmark, thread count, policy, machine)
//! from its cell's spec, never from the cell's position in the sweep, so
//! a reordered spec generator cannot mislabel a row.

use taskpoint::SamplingPolicy;
use taskpoint_stats::ErrorSummary;
use taskpoint_workloads::Benchmark;
use tasksim::MachineConfig;

use crate::campaign::CampaignReport;
use crate::record::{CellMetrics, CellOutcome, EvalMetrics, RefMetrics};
use crate::spec::CellKind;
use crate::sweeps::{sensitivity_configs, Sweep, SweepPart, ALL_MEMBERS};

impl Sweep {
    /// Renders the sweep's table from `report`, the outcome of running
    /// exactly [`Sweep::specs`]: a `== heading ==` line, the table and a
    /// blank line. `table1` renders Table II before Table I. `all` renders
    /// each member sweep from its slice of the report, then the headline
    /// comparison of lazy and periodic sampling at 64 threads against the
    /// paper's abstract.
    ///
    /// `None` for the sweeps without a table: `smoke`, `design-space` and
    /// `ingested` (and `all` over an empty report).
    ///
    /// # Panics
    ///
    /// Panics if `report` does not hold the cells of this sweep.
    pub fn render(self, report: &CampaignReport) -> Option<String> {
        render(self, &report.outcomes)
    }
}

fn render(sweep: Sweep, outcomes: &[CellOutcome]) -> Option<String> {
    let (heading, table) = match sweep {
        Sweep::Smoke | Sweep::DesignSpace | Sweep::Ingested => return None,
        Sweep::All => return render_all(outcomes),
        Sweep::Table1 => {
            let table2 = section("Table II: architectural parameters", &table2());
            return Some(
                table2 + &section("Table I: task-based parallel benchmarks", &table1(outcomes)),
            );
        }
        Sweep::Fig1 => (
            "Fig. 1: IPC variation across task instances, native execution (noise model), 8 threads",
            variation(outcomes),
        ),
        Sweep::Fig5 => (
            "Fig. 5: IPC variation across task instances, simulation, 8 threads",
            variation(outcomes),
        ),
        Sweep::Fig6a => ("Fig. 6a: warmup sweep (W)", sensitivity(SweepPart::Warmup, outcomes)),
        Sweep::Fig6b => ("Fig. 6b: history sweep (H)", sensitivity(SweepPart::History, outcomes)),
        Sweep::Fig6c => ("Fig. 6c: period sweep (P)", sensitivity(SweepPart::Period, outcomes)),
        Sweep::Fig7 => (
            "Fig. 7: periodic sampling; high-performance architecture; P = 250",
            error_speedup(outcomes),
        ),
        Sweep::Fig8 => (
            "Fig. 8: periodic sampling; low-power architecture; P = 250",
            error_speedup(outcomes),
        ),
        Sweep::Fig9 => {
            ("Fig. 9: lazy sampling; high-performance architecture", error_speedup(outcomes))
        }
        Sweep::Fig10 => ("Fig. 10: lazy sampling; low-power architecture", error_speedup(outcomes)),
        Sweep::Adaptive => (
            "Adaptive sampling: error/speedup frontier (confidence-driven CI targets)",
            adaptive(outcomes),
        ),
        Sweep::Hetero => (
            "Heterogeneous big.LITTLE: reference vs lazy sampling vs homogeneous baseline",
            hetero(outcomes),
        ),
    };
    Some(section(heading, &table))
}

fn section(heading: &str, table: &Table) -> String {
    format!("== {heading} ==\n{}\n", table.render())
}

/// Every member's tables from its slice of `all`, then the headline
/// comparison (abstract: lazy at 64 threads, average error 1.8%, maximum
/// 15.0%, average speedup 19.1x).
fn render_all(outcomes: &[CellOutcome]) -> Option<String> {
    let scale = outcomes.first()?.spec.scale;
    let mut text = String::new();
    let (mut lazy64, mut periodic64) = (ErrorSummary::default(), ErrorSummary::default());
    let mut rest = outcomes;
    for member in ALL_MEMBERS {
        let (slice, tail) = rest.split_at(member.specs(scale).len());
        rest = tail;
        text += &render(member, slice).expect("every member of `all` has a table");
        let at_64 = || summary(slice.iter().filter(|o| o.spec.workers == 64));
        match member {
            Sweep::Fig9 => lazy64 = at_64(),
            Sweep::Fig7 => periodic64 = at_64(),
            _ => {}
        }
    }
    text += &format!(
        "== Headline comparison against the paper ==\n\
         lazy @64t:     avg error {:.2}% (paper 1.8%), max error {:.1}% (paper 15.0%), avg speedup {:.1}x (paper 19.1x)\n\
         periodic @64t: avg error {:.2}%, max error {:.1}%, avg speedup {:.1}x (paper 15.8x)\n\n",
        lazy64.mean_error_percent,
        lazy64.max_error_percent,
        lazy64.mean_speedup,
        periodic64.mean_error_percent,
        periodic64.max_error_percent,
        periodic64.mean_speedup,
    );
    Some(text)
}

/// Error/speedup figures (Figs. 7–10): one row per benchmark with its
/// error and speedup at every thread count, then the per-thread-count
/// averages (the paper's "average" bar group).
fn error_speedup(outcomes: &[CellOutcome]) -> Table {
    let threads = distinct(outcomes, |o| o.spec.workers);
    let mut table = Table::new(
        ["benchmark".to_string()]
            .into_iter()
            .chain(threads.iter().map(|t| format!("err%@{t}t")))
            .chain(threads.iter().map(|t| format!("spdup@{t}t"))),
    );
    for bench in distinct(outcomes, |o| o.spec.bench) {
        let cell = |t: u32| find(outcomes, bench, t);
        table.row(
            [bench.name().to_string()]
                .into_iter()
                .chain(threads.iter().map(|&t| num(eval(cell(t)).error_percent, 2)))
                .chain(threads.iter().map(|&t| num(speedup(cell(t)), 1))),
        );
    }
    let averages: Vec<ErrorSummary> =
        threads.iter().map(|&t| summary(outcomes.iter().filter(|o| o.spec.workers == t))).collect();
    table.row(
        ["average".to_string()]
            .into_iter()
            .chain(averages.iter().map(|s| num(s.mean_error_percent, 2)))
            .chain(averages.iter().map(|s| num(s.mean_speedup, 1))),
    );
    table
}

/// Variation figures (Figs. 1 and 5): per-type normalized IPC boxplots
/// of a detailed 8-thread run, one row per benchmark.
fn variation(outcomes: &[CellOutcome]) -> Table {
    let mut table = Table::new([
        "benchmark",
        "p5%",
        "q1%",
        "median%",
        "q3%",
        "p95%",
        "min%",
        "max%",
        "within±5%",
    ]);
    for o in outcomes {
        let stats = o.record.metrics.as_variation().expect("a variation cell");
        table.row([
            o.spec.bench.name().to_string(),
            num(stats.p5, 1),
            num(stats.q1, 1),
            num(stats.median, 1),
            num(stats.q3, 1),
            num(stats.p95, 1),
            num(stats.min, 1),
            num(stats.max, 1),
            (if stats.whisker_halfwidth() <= 5.0 { "yes" } else { "no" }).to_string(),
        ]);
    }
    table
}

/// One part of the Fig. 6 sensitivity analysis: per parameter value, the
/// error and speedup averaged over the cells that ran its configuration.
fn sensitivity(part: SweepPart, outcomes: &[CellOutcome]) -> Table {
    let label = match part {
        SweepPart::Warmup => "W",
        SweepPart::History => "H",
        SweepPart::Period => "P",
    };
    let mut table = Table::new([label, "avg error %", "avg speedup"]);
    for (name, config) in sensitivity_configs(part) {
        let kind = CellKind::Sampled { config };
        let s = summary(outcomes.iter().filter(|o| o.spec.kind == kind));
        table.row([name, num(s.mean_error_percent, 2), num(s.mean_speedup, 1)]);
    }
    table
}

/// The adaptive accuracy frontier: one row per cell. Reading down a
/// workload's rows traces the error/speedup frontier; the `ci max` and
/// `converged` columns show the per-cluster confidence the adaptive and
/// stratified cells certified.
fn adaptive(outcomes: &[CellOutcome]) -> Table {
    let mut table = Table::new([
        "workload",
        "policy",
        "err%",
        "detail%",
        "detailed",
        "speedup",
        "ci max",
        "converged",
    ]);
    for o in outcomes {
        let labels = [o.spec.bench.name().to_string(), policy(&o.spec.kind)];
        let columns = match &o.record.metrics {
            CellMetrics::Reference(r) => [
                num(0.0, 2),
                num(100.0, 1),
                r.detailed_tasks.to_string(),
                num(1.0, 1),
                dash(),
                dash(),
            ],
            CellMetrics::Eval(m) => [
                num(m.error_percent, 2),
                num(100.0 * m.detail_fraction, 1),
                m.detailed_tasks.to_string(),
                num(speedup(o), 1),
                m.ci_max.map(|ci| num(ci, 3)).unwrap_or_else(dash),
                match (m.ci_converged, m.ci_units) {
                    (Some(c), Some(u)) => format!("{c}/{u}"),
                    _ => dash(),
                },
            ],
            _ => panic!("the adaptive frontier has reference and sampled cells only"),
        };
        table.row(labels.into_iter().chain(columns));
    }
    table
}

/// The heterogeneous comparison: one row per cell. A big.LITTLE
/// reference shows its per-group IPC split (little cores run at clock
/// divider 2, so their IPC is per core-local cycle); a homogeneous
/// reference is the baseline and shows only its cycles.
fn hetero(outcomes: &[CellOutcome]) -> Table {
    let mut table = Table::new([
        "workload",
        "machine",
        "policy",
        "cycles",
        "err%",
        "speedup",
        "big ipc",
        "little ipc",
    ]);
    for o in outcomes {
        let machine = &o.spec.machine;
        let labels = [
            o.spec.bench.name().to_string(),
            machine_label(machine).to_string(),
            policy(&o.spec.kind),
        ];
        let columns = match &o.record.metrics {
            CellMetrics::Reference(r) if machine.is_heterogeneous() => [
                r.total_cycles.to_string(),
                num(0.0, 2),
                num(1.0, 1),
                group_ipc(r, "big"),
                group_ipc(r, "little"),
            ],
            CellMetrics::Reference(r) => {
                [r.total_cycles.to_string(), dash(), dash(), dash(), dash()]
            }
            CellMetrics::Eval(m) => [
                m.predicted_cycles.to_string(),
                num(m.error_percent, 2),
                num(speedup(o), 1),
                dash(),
                dash(),
            ],
            _ => panic!("the hetero comparison has reference and sampled cells only"),
        };
        table.row(labels.into_iter().chain(columns));
    }
    table
}

/// Table I: the benchmark inventory with measured detailed-simulation
/// wall times at 1 and 64 threads.
fn table1(outcomes: &[CellOutcome]) -> Table {
    let mut table =
        Table::new(["benchmark", "types", "instances", "sim 1t [s]", "sim 64t [s]", "property"]);
    for bench in distinct(outcomes, |o| o.spec.bench) {
        let info = bench.info();
        table.row([
            info.name.to_string(),
            info.task_types.to_string(),
            info.task_instances.to_string(),
            num(find(outcomes, bench, 1).timing.wall_seconds, 2),
            num(find(outcomes, bench, 64).timing.wall_seconds, 2),
            info.property.to_string(),
        ]);
    }
    table
}

/// Table II: the two machine configurations.
fn table2() -> Table {
    let hp = MachineConfig::high_performance();
    let lp = MachineConfig::low_power();
    let mut table = Table::new(["parameter", "high-perf.", "low-power"]);
    table.row([
        "reorder-buffer size".to_string(),
        hp.core.rob_size.to_string(),
        lp.core.rob_size.to_string(),
    ]);
    table.row([
        "issue width".to_string(),
        hp.core.issue_width.to_string(),
        lp.core.issue_width.to_string(),
    ]);
    table.row([
        "commit rate".to_string(),
        hp.core.commit_width.to_string(),
        lp.core.commit_width.to_string(),
    ]);
    table.row([
        "cache line size".to_string(),
        format!("{} B", hp.line_size),
        format!("{} B", lp.line_size),
    ]);
    let cache_desc = |m: &MachineConfig, name: &str| {
        m.caches
            .iter()
            .find(|c| c.name == name)
            .map(|c| {
                format!(
                    "{} kB {} {} cyc {}-way",
                    c.size_bytes / 1024,
                    if c.shared { "shared" } else { "private" },
                    c.latency,
                    c.associativity
                )
            })
            .unwrap_or_else(|| "none".to_string())
    };
    for level in ["L1", "L2", "L3"] {
        table.row([format!("{level} cache"), cache_desc(&hp, level), cache_desc(&lp, level)]);
    }
    table
}

/// The distinct values of `key` over `outcomes`, in order of first
/// appearance.
fn distinct<K: PartialEq>(outcomes: &[CellOutcome], key: impl Fn(&CellOutcome) -> K) -> Vec<K> {
    let mut keys = Vec::new();
    for o in outcomes {
        let k = key(o);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// The cell of `bench` at `workers` threads.
fn find(outcomes: &[CellOutcome], bench: Benchmark, workers: u32) -> &CellOutcome {
    outcomes
        .iter()
        .find(|o| o.spec.bench == bench && o.spec.workers == workers)
        .unwrap_or_else(|| panic!("no {} cell at {workers} threads", bench.name()))
}

fn eval(o: &CellOutcome) -> &EvalMetrics {
    o.record.metrics.as_eval().expect("a sampled cell")
}

fn speedup(o: &CellOutcome) -> f64 {
    o.timing.speedup.unwrap_or(0.0)
}

/// Error and speedup aggregated over sampled cells.
fn summary<'a>(outcomes: impl Iterator<Item = &'a CellOutcome>) -> ErrorSummary {
    let runs: Vec<(f64, f64)> = outcomes.map(|o| (eval(o).error_percent, speedup(o))).collect();
    ErrorSummary::from_runs(&runs)
}

/// The policy column of a cell: `reference`, `lazy`, `periodic`,
/// `adaptive ±5%@95` or `stratified 4p/256b`.
fn policy(kind: &CellKind) -> String {
    let CellKind::Sampled { config } = kind else {
        return kind.tag().to_string();
    };
    match config.policy {
        SamplingPolicy::Lazy => "lazy".to_string(),
        SamplingPolicy::Periodic { .. } => "periodic".to_string(),
        SamplingPolicy::Adaptive { target_ci, confidence, .. } => {
            format!("adaptive ±{:.0}%@{}", 100.0 * target_ci, confidence.tag())
        }
        SamplingPolicy::Stratified { pilot_samples, budget, .. } => {
            format!("stratified {pilot_samples}p/{budget}b")
        }
    }
}

/// The machine column of the hetero comparison.
fn machine_label(machine: &MachineConfig) -> &str {
    match machine.name.as_str() {
        "high-performance" => "high-perf",
        _ if machine.is_heterogeneous() => "big.LITTLE",
        name => name,
    }
}

/// A core group's IPC over its busy cycles, in the group's own clock.
fn group_ipc(r: &RefMetrics, name: &str) -> String {
    r.groups
        .as_deref()
        .unwrap_or_default()
        .iter()
        .find(|g| g.name == name)
        .map(|g| {
            let busy_cycles = g.busy_ticks / g.clock_divider as u64;
            num(g.instructions as f64 / busy_cycles.max(1) as f64, 2)
        })
        .unwrap_or_else(dash)
}

fn dash() -> String {
    "-".to_string()
}

/// Formats a float with the given number of decimals.
fn num(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// A fixed-width text table with a header row.
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The header, a rule and the rows; numeric-looking cells align
    /// right, text aligns left.
    fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let numeric = cell.chars().next().is_some_and(|c| c.is_ascii_digit() || c == '-')
                    && cell.chars().all(|c| c.is_ascii_digit() || ".-+x%".contains(c));
                if numeric {
                    line.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, CellSpec, Executor, ResultStore};
    use taskpoint::TaskPointConfig;
    use taskpoint_workloads::ScaleConfig;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["bench", "err%", "speedup"]);
        t.row(["spmv", "1.25", "76.2"]);
        t.row(["a-very-long-name", "0.5", "9.1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bench"));
        assert!(lines[2].starts_with("spmv"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(1.256, 2), "1.26");
        assert_eq!(num(19.0, 1), "19.0");
    }

    #[test]
    fn table2_matches_paper() {
        let t = table2();
        let s = t.render();
        assert!(s.contains("168"));
        assert!(s.contains("40"));
        assert!(s.contains("20480 kB shared"));
        assert!(s.contains("none"));
    }

    #[test]
    fn sweeps_without_a_table_render_none() {
        let campaign = Campaign::new(ResultStore::disabled(), Executor::new(1));
        let empty = campaign.run(&[]);
        for sweep in [Sweep::Smoke, Sweep::DesignSpace, Sweep::Ingested, Sweep::All] {
            assert_eq!(sweep.render(&empty), None, "{}", sweep.name());
        }
    }

    /// Whitespace-separated columns of the table's data rows (every
    /// hetero label is one word).
    fn data_rows(text: &str) -> Vec<Vec<String>> {
        text.lines()
            .skip(3) // heading, header, rule
            .take_while(|l| !l.is_empty())
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect()
    }

    #[test]
    fn hetero_table_at_quick_scale() {
        let campaign = Campaign::new(ResultStore::disabled(), Executor::new(2));
        let mut report = campaign.run(&Sweep::Hetero.specs(ScaleConfig::quick()));
        let text = Sweep::Hetero.render(&report).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "== Heterogeneous big.LITTLE: reference vs lazy sampling vs homogeneous baseline =="
        );
        let header: Vec<&str> =
            lines[1].split("  ").map(str::trim).filter(|c| !c.is_empty()).collect();
        assert_eq!(
            header,
            ["workload", "machine", "policy", "cycles", "err%", "speedup", "big ipc", "little ipc"]
        );
        // Every column but the wall-clock speedup (index 5).
        let spmv = "sparse-matrix-vector-multiplication";
        let expected: [[&str; 7]; 6] = [
            ["cholesky", "big.LITTLE", "reference", "1233215", "0.00", "0.38", "0.42"],
            ["cholesky", "big.LITTLE", "lazy", "1391019", "12.80", "-", "-"],
            ["cholesky", "high-perf", "reference", "282965", "-", "-", "-"],
            [spmv, "big.LITTLE", "reference", "757094", "0.00", "0.19", "0.26"],
            [spmv, "big.LITTLE", "lazy", "901646", "19.09", "-", "-"],
            [spmv, "high-perf", "reference", "138804", "-", "-", "-"],
        ];
        let rows = data_rows(&text);
        assert_eq!(rows.len(), expected.len());
        for (row, want) in rows.iter().zip(expected) {
            let mut got: Vec<&str> = row.iter().map(String::as_str).collect();
            got.remove(5);
            assert_eq!(got, want);
        }
        // Labels follow the specs: the reversed report renders the same
        // rows in reverse order.
        report.outcomes.reverse();
        let mut reversed = data_rows(&Sweep::Hetero.render(&report).unwrap());
        reversed.reverse();
        assert_eq!(reversed, rows);
    }

    #[test]
    fn error_speedup_rows_follow_their_specs() {
        // A bench-major 2 x 2 figure, rendered as emitted and with its
        // cells reordered thread-major: same table.
        let scale = ScaleConfig::quick();
        let machine = MachineConfig::low_power();
        let mut specs = Vec::new();
        for bench in [Benchmark::Spmv, Benchmark::Reduction] {
            for t in [1, 2] {
                specs.push(CellSpec::sampled(
                    bench,
                    scale,
                    machine.clone(),
                    t,
                    TaskPointConfig::lazy(),
                ));
            }
        }
        let campaign = Campaign::new(ResultStore::disabled(), Executor::new(2));
        let report = campaign.run(&specs);
        let table = error_speedup(&report.outcomes).render();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + 3);
        assert!(lines[0].starts_with("benchmark"));
        assert!(lines[0].contains("err%@1t") && lines[0].contains("spdup@2t"));
        assert!(lines[2].starts_with(Benchmark::Spmv.name()));
        assert!(lines[3].starts_with(Benchmark::Reduction.name()));
        assert!(lines[4].starts_with("average"));
        let spmv_at_2 = format!("{:.2}", eval(&report.outcomes[1]).error_percent);
        assert_eq!(lines[2].split_whitespace().nth(2), Some(spmv_at_2.as_str()));

        let o = &report.outcomes;
        let thread_major = [o[0].clone(), o[2].clone(), o[1].clone(), o[3].clone()];
        assert_eq!(error_speedup(&thread_major).render(), table);
    }
}
