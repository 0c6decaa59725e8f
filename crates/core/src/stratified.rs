//! Two-phase stratified sampling entry points.
//!
//! These wire the [`StratifiedController`] from `taskpoint-accuracy` into
//! the same run/evaluate shapes as the other policies: a pilot phase per
//! `(type, size-class)` stratum estimates the IPC variance, then the
//! remaining detailed budget is Neyman-allocated proportional to stratum
//! size × stddev (see
//! [`neyman_allocate`](taskpoint_accuracy::neyman_allocate)), and
//! converged strata stay concurrency-banded — a sustained parallelism
//! shift re-opens them. Where the adaptive policy turns the CI *target*
//! into a dial, the stratified policy turns the detailed *budget* into
//! one: the error/speedup frontier is traced by the budget directly,
//! which makes it the natural head-to-head baseline at matched detail
//! spend.
//!
//! The controller is primed with the program's instance list before the
//! run, so stratum ids and sizes are fixed in instance-creation order and
//! the resulting [`AccuracyReport`] is identical across worker counts.

use taskpoint_accuracy::{AccuracyReport, StratifiedController};
use taskpoint_runtime::Program;
use tasksim::{MachineConfig, SimResult, Simulation, Telemetry, TraceProvider};

use crate::config::TaskPointConfig;
use crate::controller::SamplingStats;

/// Folds a stratified run's telemetry into the common [`SamplingStats`]
/// shape (no global phases or resamples).
fn sampling_stats(stats: taskpoint_accuracy::AdaptiveStats) -> SamplingStats {
    SamplingStats {
        phase_log: Vec::new(),
        resamples: Vec::new(),
        valid_samples: stats.valid_samples,
        fast_tasks: stats.fast_tasks,
        detailed_tasks: stats.detailed_tasks,
    }
}

fn stratified_config(config: &TaskPointConfig) -> taskpoint_accuracy::StratifiedConfig {
    config
        .stratified_config()
        .expect("run_stratified requires a TaskPointConfig with SamplingPolicy::Stratified")
}

/// Runs a two-phase stratified sampled simulation.
///
/// `config.policy` must be
/// [`SamplingPolicy::Stratified`](crate::SamplingPolicy::Stratified).
/// Returns the simulation result, the controller telemetry in the common
/// [`SamplingStats`] shape, and the per-stratum [`AccuracyReport`]
/// (units are dense `(type, size-class)` ids in instance-creation order).
///
/// # Panics
///
/// Panics if the policy is not stratified or the configuration is
/// invalid.
///
/// # Example
///
/// ```
/// use taskpoint::{run_stratified, TaskPointConfig};
/// use taskpoint_workloads::{Benchmark, ScaleConfig};
/// use tasksim::MachineConfig;
///
/// let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
/// let (result, stats, accuracy) =
///     run_stratified(&program, MachineConfig::low_power(), 2, TaskPointConfig::stratified(4, 64));
/// assert!(stats.fast_tasks > 0);
/// assert!(accuracy.units() >= 1);
/// assert!(result.total_cycles > 0);
/// ```
pub fn run_stratified(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
) -> (SimResult, SamplingStats, AccuracyReport) {
    run_stratified_traced(program, machine, workers, config, Box::new(tasksim::ProceduralTraces))
}

/// Like [`run_stratified`], with an explicit [`TraceProvider`] for the
/// detailed instruction streams (see
/// [`run_reference_traced`](crate::run_reference_traced)).
pub fn run_stratified_traced(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    traces: Box<dyn TraceProvider>,
) -> (SimResult, SamplingStats, AccuracyReport) {
    run_stratified_observed(program, machine, workers, config, traces, Telemetry::disabled())
}

/// Like [`run_stratified_traced`], with a [`Telemetry`] handle threaded
/// through both the engine and the controller (pilot samples, Neyman
/// allocations, convergence and band re-opening all emit fidelity
/// events).
pub fn run_stratified_observed(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    traces: Box<dyn TraceProvider>,
    telemetry: Telemetry,
) -> (SimResult, SamplingStats, AccuracyReport) {
    let mut controller =
        StratifiedController::new(stratified_config(&config)).with_telemetry(telemetry.clone());
    controller.prime(program.instances().iter().map(|i| (i.type_id(), i.instructions())));
    let result = Simulation::builder(program, machine)
        .workers(workers)
        .traces(traces)
        .telemetry(telemetry)
        .build()
        .run(&mut controller);
    let (stats, report) = controller.into_parts();
    (result, sampling_stats(stats), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{run_reference, run_sampled};
    use taskpoint_workloads::{Benchmark, ScaleConfig};

    fn program() -> Program {
        Benchmark::Spmv.generate(&ScaleConfig::quick())
    }

    #[test]
    fn stratified_run_produces_an_accuracy_report() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let (result, stats, report) =
            run_stratified(&p, machine, 2, TaskPointConfig::stratified(4, 64));
        assert!(result.total_cycles > 0);
        assert_eq!(stats.detailed_tasks + stats.fast_tasks, p.num_instances() as u64);
        assert!(stats.fast_tasks > 0, "a bounded budget must fast-forward something");
        assert!(report.units() >= 1);
        assert!(report.converged_units() >= 1);
        assert!(matches!(report.config, taskpoint_accuracy::PolicyConfig::Stratified(_)));
        assert_eq!(report.config.target_ci(), None, "budget-driven policy has no CI target");
    }

    #[test]
    fn bigger_budgets_never_sample_less() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let mut prev = 0u64;
        for budget in [16u64, 64, 256] {
            let (result, _, _) =
                run_stratified(&p, machine.clone(), 2, TaskPointConfig::stratified(4, budget));
            assert!(
                result.detailed_tasks >= prev,
                "budget {budget}: {} detailed < smaller budget's {prev}",
                result.detailed_tasks
            );
            prev = result.detailed_tasks;
        }
    }

    #[test]
    fn stratified_is_deterministic() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let config = TaskPointConfig::stratified(4, 48);
        let (a, _, ra) = run_stratified(&p, machine.clone(), 2, config);
        let (b, _, rb) = run_stratified(&p, machine, 2, config);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.detailed_tasks, b.detailed_tasks);
        assert_eq!(ra.clusters, rb.clusters);
    }

    #[test]
    fn run_sampled_dispatches_stratified_policy() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let config = TaskPointConfig::stratified(4, 48);
        let (via_dispatch, _) = run_sampled(&p, machine.clone(), 2, config);
        let (direct, _, _) = run_stratified(&p, machine, 2, config);
        assert_eq!(via_dispatch.total_cycles, direct.total_cycles);
        assert_eq!(via_dispatch.detailed_tasks, direct.detailed_tasks);
    }

    #[test]
    fn stratified_error_stays_reasonable_against_reference() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let reference = run_reference(&p, machine.clone(), 2);
        let (sampled, _, _) = run_stratified(&p, machine, 2, TaskPointConfig::stratified(4, 64));
        let err = 100.0
            * ((sampled.total_cycles as f64 - reference.total_cycles as f64)
                / reference.total_cycles as f64)
                .abs();
        assert!(err < 50.0, "stratified quick-scale smoke band: {err:.1}%");
    }

    #[test]
    #[should_panic(expected = "SamplingPolicy::Stratified")]
    fn non_stratified_config_rejected() {
        let p = program();
        run_stratified(&p, MachineConfig::tiny_test(), 2, TaskPointConfig::lazy());
    }
}
