//! Confidence-driven adaptive sampling entry points.
//!
//! These wire the [`AdaptiveController`]
//! from `taskpoint-accuracy` into the same run/evaluate shapes as the
//! fixed-budget policies, and additionally surface the per-cluster
//! [`AccuracyReport`] — the configured-vs-achieved confidence picture the
//! campaign layer persists. Sweeping the CI target traces an
//! **error/speedup frontier**: loose targets stop sampling early (fast,
//! less certain), tight targets keep clusters detailed until their mean
//! IPC is pinned down (slower, certified).

use taskpoint_accuracy::{AccuracyReport, AdaptiveController, ClusteredAdaptiveController};
use taskpoint_runtime::Program;
use tasksim::{MachineConfig, SimResult, Simulation, Telemetry, TraceProvider};

use crate::config::TaskPointConfig;
use crate::controller::SamplingStats;

/// Folds an adaptive run's telemetry into the common [`SamplingStats`]
/// shape (the adaptive controller has no global phases or resamples; those
/// logs stay empty).
fn sampling_stats(stats: taskpoint_accuracy::AdaptiveStats) -> SamplingStats {
    SamplingStats {
        phase_log: Vec::new(),
        resamples: Vec::new(),
        valid_samples: stats.valid_samples,
        fast_tasks: stats.fast_tasks,
        detailed_tasks: stats.detailed_tasks,
    }
}

fn adaptive_config(config: &TaskPointConfig) -> taskpoint_accuracy::AdaptiveConfig {
    config
        .adaptive_config()
        .expect("run_adaptive requires a TaskPointConfig with SamplingPolicy::Adaptive")
}

/// Runs a confidence-driven adaptive sampled simulation.
///
/// `config.policy` must be [`SamplingPolicy::Adaptive`](crate::SamplingPolicy::Adaptive).
/// Returns the simulation result, the controller telemetry in the common
/// [`SamplingStats`] shape, and the per-cluster [`AccuracyReport`].
///
/// # Panics
///
/// Panics if the policy is not adaptive or the configuration is invalid.
///
/// # Example
///
/// ```
/// use taskpoint::{run_adaptive, TaskPointConfig};
/// use taskpoint_workloads::{Benchmark, ScaleConfig};
/// use tasksim::MachineConfig;
///
/// let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
/// let (result, stats, accuracy) =
///     run_adaptive(&program, MachineConfig::low_power(), 2, TaskPointConfig::adaptive(0.05));
/// assert!(stats.fast_tasks > 0);
/// assert!(accuracy.units() >= 1);
/// assert!(result.total_cycles > 0);
/// ```
pub fn run_adaptive(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
) -> (SimResult, SamplingStats, AccuracyReport) {
    run_adaptive_traced(program, machine, workers, config, Box::new(tasksim::ProceduralTraces))
}

/// Like [`run_adaptive`], with an explicit [`TraceProvider`] for the
/// detailed instruction streams (see
/// [`run_reference_traced`](crate::run_reference_traced)).
pub fn run_adaptive_traced(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    traces: Box<dyn TraceProvider>,
) -> (SimResult, SamplingStats, AccuracyReport) {
    run_adaptive_observed(program, machine, workers, config, traces, Telemetry::disabled())
}

/// Like [`run_adaptive_traced`], with a [`Telemetry`] handle threaded
/// through both the engine (schedule events, counters) and the adaptive
/// controller (per-cluster fidelity decisions). Pass
/// [`Telemetry::disabled`] for the uninstrumented fast path.
pub fn run_adaptive_observed(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    traces: Box<dyn TraceProvider>,
    telemetry: Telemetry,
) -> (SimResult, SamplingStats, AccuracyReport) {
    let mut controller =
        AdaptiveController::new(adaptive_config(&config)).with_telemetry(telemetry.clone());
    let result = Simulation::builder(program, machine)
        .workers(workers)
        .traces(traces)
        .telemetry(telemetry)
        .build()
        .run(&mut controller);
    let (stats, report) = controller.into_parts();
    (result, sampling_stats(stats), report)
}

/// Adaptive sampling over `(type, size-class)` clusters: the
/// confidence-driven counterpart of [`run_clustered`](crate::run_clustered).
/// Returns the number of clusters formed alongside the accuracy report
/// (whose units are virtual cluster ids).
pub fn run_clustered_adaptive(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    granularity: u32,
) -> (SimResult, SamplingStats, AccuracyReport, usize) {
    run_clustered_adaptive_traced(
        program,
        machine,
        workers,
        config,
        granularity,
        Box::new(tasksim::ProceduralTraces),
    )
}

/// Like [`run_clustered_adaptive`], with an explicit [`TraceProvider`].
pub fn run_clustered_adaptive_traced(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    granularity: u32,
    traces: Box<dyn TraceProvider>,
) -> (SimResult, SamplingStats, AccuracyReport, usize) {
    run_clustered_adaptive_observed(
        program,
        machine,
        workers,
        config,
        granularity,
        traces,
        Telemetry::disabled(),
    )
}

/// Like [`run_clustered_adaptive_traced`], with a [`Telemetry`] handle
/// (fidelity events carry virtual cluster unit ids).
#[allow(clippy::too_many_arguments)]
pub fn run_clustered_adaptive_observed(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    granularity: u32,
    traces: Box<dyn TraceProvider>,
    telemetry: Telemetry,
) -> (SimResult, SamplingStats, AccuracyReport, usize) {
    let mut controller = ClusteredAdaptiveController::new(adaptive_config(&config), granularity);
    controller.set_telemetry(telemetry.clone());
    let result = Simulation::builder(program, machine)
        .workers(workers)
        .traces(traces)
        .telemetry(telemetry)
        .build()
        .run(&mut controller);
    let clusters = controller.num_clusters();
    let (stats, report) = controller.into_parts();
    (result, sampling_stats(stats), report, clusters)
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
    fn adaptive_run_produces_an_accuracy_report() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let (result, stats, report) = run_adaptive(&p, machine, 2, TaskPointConfig::adaptive(0.1));
        assert!(result.total_cycles > 0);
        assert_eq!(stats.detailed_tasks + stats.fast_tasks, p.num_instances() as u64);
        assert!(stats.fast_tasks > 0, "a loose target must fast-forward something");
        assert!(report.units() >= 1);
        assert!(report.converged_units() >= 1);
        for c in &report.clusters {
            assert!(c.samples >= 1 || !c.converged || c.forced);
            if c.converged && !c.forced && c.samples >= 2 {
                // Converged via CI: its interval met the target (or the
                // degenerate waiver; target here is positive).
                assert!(c.rel_ci.unwrap() <= 0.1 + 1e-12, "unit {} ci {:?}", c.unit, c.rel_ci);
            }
        }
    }

    #[test]
    fn tighter_targets_never_sample_less() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let mut prev = 0u64;
        for target in [0.2, 0.05, 0.01] {
            let (result, _, _) =
                run_adaptive(&p, machine.clone(), 2, TaskPointConfig::adaptive(target));
            assert!(
                result.detailed_tasks >= prev,
                "target {target}: {} detailed < looser target's {prev}",
                result.detailed_tasks
            );
            prev = result.detailed_tasks;
        }
    }

    #[test]
    fn adaptive_is_deterministic() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let (a, _, ra) = run_adaptive(&p, machine.clone(), 2, TaskPointConfig::adaptive(0.05));
        let (b, _, rb) = run_adaptive(&p, machine, 2, TaskPointConfig::adaptive(0.05));
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.detailed_tasks, b.detailed_tasks);
        assert_eq!(ra.clusters, rb.clusters);
    }

    #[test]
    fn run_sampled_dispatches_adaptive_policy() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let config = TaskPointConfig::adaptive(0.05);
        let (via_dispatch, _) = run_sampled(&p, machine.clone(), 2, config);
        let (direct, _, _) = run_adaptive(&p, machine, 2, config);
        assert_eq!(via_dispatch.total_cycles, direct.total_cycles);
        assert_eq!(via_dispatch.detailed_tasks, direct.detailed_tasks);
    }

    #[test]
    fn clustered_adaptive_runs_and_counts_clusters() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let (result, stats, report, clusters) =
            run_clustered_adaptive(&p, machine, 2, TaskPointConfig::adaptive(0.1), 1);
        assert!(result.total_cycles > 0);
        assert!(clusters >= 1);
        assert_eq!(report.units(), clusters);
        assert_eq!(stats.detailed_tasks + stats.fast_tasks, p.num_instances() as u64);
    }

    #[test]
    fn run_clustered_dispatches_adaptive_policy() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let config = TaskPointConfig::adaptive(0.1);
        let (via_dispatch, _, dispatch_clusters) =
            crate::clustered::run_clustered(&p, machine.clone(), 2, config, 1);
        let (direct, _, _, direct_clusters) = run_clustered_adaptive(&p, machine, 2, config, 1);
        assert_eq!(via_dispatch.total_cycles, direct.total_cycles);
        assert_eq!(via_dispatch.detailed_tasks, direct.detailed_tasks);
        assert_eq!(dispatch_clusters, direct_clusters);
    }

    #[test]
    fn adaptive_error_stays_reasonable_against_reference() {
        let p = program();
        let machine = MachineConfig::tiny_test();
        let reference = run_reference(&p, machine.clone(), 2);
        let (sampled, _, _) = run_adaptive(&p, machine, 2, TaskPointConfig::adaptive(0.05));
        let err = 100.0
            * ((sampled.total_cycles as f64 - reference.total_cycles as f64)
                / reference.total_cycles as f64)
                .abs();
        assert!(err < 50.0, "adaptive quick-scale smoke band: {err:.1}%");
    }

    #[test]
    #[should_panic(expected = "SamplingPolicy::Adaptive")]
    fn non_adaptive_config_rejected() {
        let p = program();
        run_adaptive(&p, MachineConfig::tiny_test(), 2, TaskPointConfig::lazy());
    }
}
