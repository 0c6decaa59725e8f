//! Work count of the shared kind columns.
//!
//! All instances of a task type execute the same kind sequence, so a
//! simulation draws each `(code_seed, mix)` column once, as far as its
//! longest detailed instance reaches, and every detailed instance copies
//! its kinds from it. This file pins that with the process-wide counter
//! `KindColumn::kinds_drawn()`: the kinds a run draws equal the sum over
//! its columns of the longest instance run in detail, not the sum over
//! all detailed instances.
//!
//! It deliberately contains a single `#[test]`: integration tests in one
//! binary run concurrently in one process, and any other test drawing
//! kinds would race the counter deltas measured here.

use taskpoint_repro::runtime::Program;
use taskpoint_repro::sim::{
    DetailedOnly, MachineConfig, ModeController, SimMode, SimResult, Simulation,
};
use taskpoint_repro::taskpoint::{TaskPointConfig, TaskPointController};
use taskpoint_repro::trace::{InstructionMix, KindColumn};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

/// Runs `program` on the high-performance machine with 8 workers, with task
/// reports on; returns the result and the number of kinds the run drew.
fn run_counting<C: ModeController>(program: &Program, controller: &mut C) -> (SimResult, u64) {
    let before = KindColumn::kinds_drawn();
    let result = Simulation::builder(program, MachineConfig::high_performance())
        .workers(8)
        .collect_reports(true)
        .build()
        .run(controller);
    (result, KindColumn::kinds_drawn() - before)
}

/// Sum over the run's `(code_seed, mix)` columns of the longest instance
/// it simulated in detail, and the number of such columns.
fn longest_detailed_per_column(program: &Program, result: &SimResult) -> (u64, usize) {
    let mut columns: Vec<(u64, InstructionMix, u64)> = Vec::new();
    for report in result.reports.iter().filter(|r| r.mode == SimMode::Detailed) {
        let spec = program.spec(report.task);
        let (seed, mix) = (spec.code_seed(), spec.mix());
        match columns.iter_mut().find(|c| c.0 == seed && c.1 == *mix) {
            Some(column) => column.2 = column.2.max(spec.instructions()),
            None => columns.push((seed, mix.clone(), spec.instructions())),
        }
    }
    (columns.iter().map(|c| c.2).sum(), columns.len())
}

#[test]
fn runs_draw_each_columns_kinds_once() {
    // Lazy sampling at full scale: freqmine's detailed instances are few
    // but long, and several run the same code.
    let freqmine = Benchmark::Freqmine.generate(&ScaleConfig::new());
    let (result, drawn) =
        run_counting(&freqmine, &mut TaskPointController::new(TaskPointConfig::lazy()));
    let (longest, columns) = longest_detailed_per_column(&freqmine, &result);
    assert!((1..=3).contains(&columns), "freqmine runs {columns} kind columns in detail");
    assert_eq!(
        drawn, longest,
        "lazy freqmine must draw its longest detailed instance per column, no more"
    );
    assert!(
        2 * drawn < result.detailed_instructions,
        "lazy freqmine drew {drawn} kinds for {} detailed instructions",
        result.detailed_instructions
    );

    // A detailed-only run takes the same bound over every instance.
    let cholesky = Benchmark::Cholesky.generate(&ScaleConfig::quick());
    let (result, drawn) = run_counting(&cholesky, &mut DetailedOnly);
    let (longest, _) = longest_detailed_per_column(&cholesky, &result);
    assert_eq!(result.detailed_tasks as usize, cholesky.num_instances());
    assert_eq!(drawn, longest, "cholesky reference must draw its longest instance per column");
    assert!(100 * drawn < result.detailed_instructions);
}
