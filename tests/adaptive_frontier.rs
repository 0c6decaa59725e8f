//! Integration tests of the adaptive accuracy subsystem: the
//! confidence-driven policy against the fixed-budget policies, end to end
//! through workload generation, simulation and the campaign layer.

use std::sync::{Arc, OnceLock};

use taskpoint_repro::campaign::{Campaign, CellSpec};
use taskpoint_repro::runtime::Program;
use taskpoint_repro::sim::{MachineConfig, SimResult, Simulation};
use taskpoint_repro::taskpoint::{self, AccuracyReport, TaskPointConfig};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn quick() -> ScaleConfig {
    ScaleConfig::quick()
}

/// The process-wide campaign: shared program + reference caches.
fn campaign() -> &'static Campaign {
    static CAMPAIGN: OnceLock<Campaign> = OnceLock::new();
    CAMPAIGN.get_or_init(Campaign::in_memory)
}

fn reference(bench: Benchmark, machine: MachineConfig, workers: u32) -> Arc<SimResult> {
    campaign().reference(bench, quick(), machine, workers)
}

/// One sampled run of `program` and, for the adaptive and stratified
/// policies, its accuracy report.
fn run(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
) -> (SimResult, Option<AccuracyReport>) {
    let sim = Simulation::builder(program, machine).workers(workers).build();
    let outcome = taskpoint::run(sim, config);
    (outcome.result, outcome.accuracy)
}

fn cycles_error_percent(sampled: &SimResult, reference: &SimResult) -> f64 {
    100.0
        * ((sampled.total_cycles as f64 - reference.total_cycles as f64)
            / reference.total_cycles as f64)
            .abs()
}

/// The acceptance criterion of the accuracy subsystem: on a kernel
/// workload, the adaptive policy at a mid CI target must spend *strictly
/// fewer* detailed instances than the paper's periodic policy while
/// keeping the cycles error within the configured target.
#[test]
fn adaptive_mid_target_beats_periodic_budget_within_target_error() {
    let bench = Benchmark::Cholesky;
    let machine = MachineConfig::high_performance();
    let workers = 4;
    let target = 0.05; // the mid entry of ADAPTIVE_TARGETS
    let r = reference(bench, machine.clone(), workers);
    let program = campaign().program(bench, &quick());

    let (periodic, _) = run(&program, machine.clone(), workers, TaskPointConfig::periodic());
    let (adaptive, accuracy) = run(&program, machine, workers, TaskPointConfig::adaptive(target));
    let accuracy = accuracy.expect("adaptive runs report accuracy");

    assert!(
        adaptive.detailed_tasks < periodic.detailed_tasks,
        "adaptive must spend fewer detailed instances: {} vs periodic's {}",
        adaptive.detailed_tasks,
        periodic.detailed_tasks
    );
    let err = cycles_error_percent(&adaptive, &r);
    assert!(
        err <= 100.0 * target,
        "adaptive cycles error {err:.2}% exceeds the {:.0}% target",
        100.0 * target
    );
    // Every converged cluster ended within the target (or was a rare
    // forced cluster, of which cholesky at this scale has none).
    assert!(accuracy.converged_units() >= 1);
    for c in &accuracy.clusters {
        if c.converged && !c.forced {
            if let Some(ci) = c.rel_ci {
                assert!(ci <= target + 1e-12, "unit {}: rel CI {ci} > {target}", c.unit);
            }
        }
    }
}

/// Tightening the target must never reduce detailed coverage, and the
/// error at the tightest target should not exceed the loosest target's
/// error band (the frontier is traded, not random). The stratified policy
/// traces the same frontier through its budget dial: bigger budgets never
/// sample less either.
#[test]
fn frontier_is_monotone_in_detail_spend() {
    let bench = Benchmark::Spmv;
    let machine = MachineConfig::low_power();
    let workers = 4;
    let program = campaign().program(bench, &quick());
    let mut detailed = Vec::new();
    for target in [0.10, 0.05, 0.02] {
        let (result, _) =
            run(&program, machine.clone(), workers, TaskPointConfig::adaptive(target));
        detailed.push(result.detailed_tasks);
    }
    assert!(
        detailed.windows(2).all(|w| w[0] <= w[1]),
        "tighter CI targets must not sample less: {detailed:?}"
    );
    let mut stratified = Vec::new();
    for budget in [16u64, 64, 256] {
        let (result, _) =
            run(&program, machine.clone(), workers, TaskPointConfig::stratified(4, budget));
        stratified.push(result.detailed_tasks);
    }
    assert!(
        stratified.windows(2).all(|w| w[0] <= w[1]),
        "bigger stratified budgets must not sample less: {stratified:?}"
    );
}

/// The head-to-head acceptance row of the stratified policy: at matched
/// detailed-instance spend on the adaptive acceptance cell
/// (cholesky / high-performance / 4 workers), two-phase stratified
/// sampling reaches a cycles error no worse than adaptive at the 5% CI
/// target. Neyman allocation spends the same budget where the pilot saw
/// variance instead of where convergence happened to stall.
#[test]
fn stratified_matches_adaptive_error_at_matched_detail_spend() {
    let bench = Benchmark::Cholesky;
    let machine = MachineConfig::high_performance();
    let workers = 4;
    let r = reference(bench, machine.clone(), workers);
    let program = campaign().program(bench, &quick());

    let (adaptive, _) = run(&program, machine.clone(), workers, TaskPointConfig::adaptive(0.05));
    let adaptive_err = cycles_error_percent(&adaptive, &r);

    // Matched spend: start the stratified budget at the adaptive run's
    // detailed spend; warmup, pilot stragglers and band re-opening ride
    // on top of the budget, so if the first try overshoots, charge the
    // measured overhead against the budget and re-run once.
    let mut budget = adaptive.detailed_tasks;
    let (mut stratified, mut accuracy) =
        run(&program, machine.clone(), workers, TaskPointConfig::stratified(4, budget));
    if stratified.detailed_tasks > adaptive.detailed_tasks {
        budget = budget.saturating_sub(stratified.detailed_tasks - adaptive.detailed_tasks).max(8);
        (stratified, accuracy) =
            run(&program, machine, workers, TaskPointConfig::stratified(4, budget));
    }
    let accuracy = accuracy.expect("stratified runs report accuracy");
    let stratified_err = cycles_error_percent(&stratified, &r);

    assert!(
        stratified.detailed_tasks <= adaptive.detailed_tasks,
        "not a matched comparison: stratified spent {} detailed vs adaptive's {}",
        stratified.detailed_tasks,
        adaptive.detailed_tasks
    );
    assert!(
        stratified_err <= adaptive_err,
        "stratified at matched spend (budget {budget}) must not lose the head-to-head: \
         {stratified_err:.3}% vs adaptive@5%'s {adaptive_err:.3}%"
    );
    assert_eq!(accuracy.allocated.map(|a| a > 0), Some(true), "the Neyman allocation fired");
}

/// The `adaptive` campaign sweep end to end at quick scale: every cell
/// computes, adaptive cells carry CI fields, stratified cells carry the
/// pilot/budget/allocation fields (and no CI target), and the emitted
/// JSONL is deterministic across worker counts.
#[test]
fn adaptive_sweep_emits_ci_fields_deterministically() {
    use taskpoint_repro::campaign::{adaptive_specs, Executor, ResultStore};
    let specs: Vec<CellSpec> = adaptive_specs(quick());
    assert_eq!(specs.len(), 32);
    // Keep the in-process sweep small: the two external workloads (the
    // kernels are covered by the direct-run tests above, and CI runs the
    // full sweep through the campaign CLI).
    let external: Vec<CellSpec> =
        specs.into_iter().filter(|s| s.bench.name().starts_with("external-")).collect();
    assert_eq!(external.len(), 16);
    let a = Campaign::new(ResultStore::disabled(), Executor::new(1)).run(&external);
    let b = Campaign::new(ResultStore::disabled(), Executor::new(4)).run(&external);
    assert_eq!(a.jsonl(), b.jsonl(), "canonical JSONL must not depend on worker count");
    let mut adaptive_cells = 0;
    let mut stratified_cells = 0;
    for outcome in &a.outcomes {
        if let Some(m) = outcome.record.metrics.as_eval() {
            if let Some(target) = m.ci_target {
                adaptive_cells += 1;
                assert!(m.ci_confidence == Some(0.95));
                assert!(m.ci_units.unwrap() >= 1);
                assert!(outcome.record.to_json().contains("\"ci_target\":"));
                assert!(target > 0.0);
            }
            if let Some(budget) = m.strat_budget {
                stratified_cells += 1;
                assert!(m.ci_target.is_none(), "budget-driven cells have no CI target");
                assert!(m.ci_confidence == Some(0.95));
                assert_eq!(m.strat_pilot, Some(taskpoint_repro::campaign::STRATIFIED_PILOT));
                assert!(
                    m.strat_allocated.unwrap() <= budget,
                    "allocation exceeds the budget: {m:?}"
                );
                let json = outcome.record.to_json();
                assert!(json.contains("\"strat_budget\":"), "{json}");
                assert!(json.contains("\"strat_reopened\":"), "{json}");
            }
        }
    }
    assert_eq!(adaptive_cells, 6, "3 CI targets x 2 external workloads");
    assert_eq!(stratified_cells, 4, "2 budgets x 2 external workloads");
}
