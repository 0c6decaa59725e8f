//! High-level entry points: run a program sampled, detailed, or both.

use taskpoint_runtime::Program;
use tasksim::{DetailedOnly, MachineConfig, SimResult, Simulation, Telemetry, TraceProvider};

use crate::config::TaskPointConfig;
use crate::controller::{SamplingStats, TaskPointController};
use crate::metrics::ExperimentOutcome;

/// Runs the full detailed reference simulation (every task instance through
/// the cycle-level model).
///
/// # Example
///
/// ```
/// use taskpoint::run_reference;
/// use taskpoint_workloads::{Benchmark, ScaleConfig};
/// use tasksim::MachineConfig;
///
/// let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
/// let result = run_reference(&program, MachineConfig::low_power(), 2);
/// assert_eq!(result.detailed_tasks as usize, program.num_instances());
/// ```
pub fn run_reference(program: &Program, machine: MachineConfig, workers: u32) -> SimResult {
    run_reference_traced(program, machine, workers, Box::new(tasksim::ProceduralTraces))
}

/// Like [`run_reference`], with an explicit [`TraceProvider`] for the
/// detailed instruction streams — required for programs converted from
/// externally ingested traces, whose streams live in a
/// [`RecordedTraces`](tasksim::RecordedTraces) bundle rather than in
/// procedural specs.
pub fn run_reference_traced(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    traces: Box<dyn TraceProvider>,
) -> SimResult {
    run_reference_observed(program, machine, workers, traces, Telemetry::disabled())
}

/// Like [`run_reference_traced`], with a [`Telemetry`] handle attached to
/// the engine: a recording handle captures the full detailed schedule
/// (assignments, completions, queue depths) and end-of-run counters.
pub fn run_reference_observed(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    traces: Box<dyn TraceProvider>,
    telemetry: Telemetry,
) -> SimResult {
    Simulation::builder(program, machine)
        .workers(workers)
        .traces(traces)
        .telemetry(telemetry)
        .build()
        .run(&mut DetailedOnly)
}

/// Runs a TaskPoint sampled simulation; returns the simulation result and
/// the controller's telemetry.
pub fn run_sampled(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
) -> (SimResult, SamplingStats) {
    run_sampled_traced(program, machine, workers, config, Box::new(tasksim::ProceduralTraces))
}

/// Like [`run_sampled`], with an explicit [`TraceProvider`] for the
/// detailed instruction streams (see [`run_reference_traced`]).
///
/// Dispatches on `config.policy`: the lazy and periodic policies run the
/// base [`TaskPointController`]; [`SamplingPolicy::Adaptive`](crate::SamplingPolicy::Adaptive)
/// runs the confidence-driven controller (use
/// [`run_adaptive_traced`](crate::run_adaptive_traced) directly to also
/// get the per-cluster accuracy report).
pub fn run_sampled_traced(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    traces: Box<dyn TraceProvider>,
) -> (SimResult, SamplingStats) {
    run_sampled_observed(program, machine, workers, config, traces, Telemetry::disabled())
}

/// Like [`run_sampled_traced`], with a [`Telemetry`] handle attached to
/// the engine (and, for adaptive policies, to the controller's fidelity
/// decisions too).
pub fn run_sampled_observed(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    traces: Box<dyn TraceProvider>,
    telemetry: Telemetry,
) -> (SimResult, SamplingStats) {
    if config.policy.is_adaptive() {
        let (result, stats, _) = crate::adaptive::run_adaptive_observed(
            program, machine, workers, config, traces, telemetry,
        );
        return (result, stats);
    }
    if config.policy.is_stratified() {
        let (result, stats, _) = crate::stratified::run_stratified_observed(
            program, machine, workers, config, traces, telemetry,
        );
        return (result, stats);
    }
    let mut controller = TaskPointController::new(config);
    let result = Simulation::builder(program, machine)
        .workers(workers)
        .traces(traces)
        .telemetry(telemetry)
        .build()
        .run(&mut controller);
    (result, controller.into_stats())
}

/// Runs both a sampled simulation and (or against a provided) detailed
/// reference and reports error and speedup — one cell of the paper's
/// Figs. 7–10.
pub fn evaluate(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
    reference: Option<&SimResult>,
) -> (ExperimentOutcome, SamplingStats) {
    let (sampled, stats) = run_sampled(program, machine.clone(), workers, config);
    let outcome = match reference {
        Some(r) => ExperimentOutcome::compare(&sampled, r),
        None => {
            let r = run_reference(program, machine, workers);
            ExperimentOutcome::compare(&sampled, &r)
        }
    };
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint_trace::TraceSpec;

    /// Identically shaped compute-bound tasks with private cache-resident
    /// footprints: per-instance IPC variance is tiny, so the per-type mean
    /// is an excellent predictor. (Memory-bound workloads on a saturated
    /// machine are deliberately *not* used here — their steady-state
    /// contention differs from the sampling interval, which is exactly the
    /// bias the evaluation figures quantify.)
    fn uniform_program(n: u64) -> Program {
        let mut b = Program::builder("uniform");
        let ty = b.add_type("work");
        for i in 0..n {
            let trace = TraceSpec::builder()
                .seed(i)
                .instructions(2000)
                .mix(taskpoint_trace::InstructionMix::compute_bound())
                .pattern(taskpoint_trace::AccessPattern::sequential(8))
                .footprint(taskpoint_trace::MemRegion::new(0x1000_0000 + i * 8192, 4096))
                .build();
            b.add_task(ty, trace, vec![]);
        }
        b.build()
    }

    #[test]
    fn sampled_run_is_accurate_on_uniform_work() {
        let p = uniform_program(400);
        let machine = MachineConfig::high_performance();
        let reference = run_reference(&p, machine.clone(), 4);
        let (outcome, stats) = evaluate(&p, machine, 4, TaskPointConfig::lazy(), Some(&reference));
        // Identical-shape tasks: the per-type mean IPC predicts every
        // instance almost perfectly.
        assert!(outcome.error_percent < 3.0, "uniform workload error {}%", outcome.error_percent);
        assert!(stats.fast_tasks > 300, "most tasks fast-forwarded");
        assert!(outcome.detail_fraction < 0.25);
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let p = uniform_program(100);
        let machine = MachineConfig::tiny_test();
        let (a, _) = run_sampled(&p, machine.clone(), 2, TaskPointConfig::lazy());
        let (b, _) = run_sampled(&p, machine, 2, TaskPointConfig::lazy());
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.detailed_tasks, b.detailed_tasks);
    }

    #[test]
    fn traced_runs_replay_identically_to_procedural() {
        use tasksim::RecordedTraces;
        let p = uniform_program(60);
        let machine = MachineConfig::tiny_test();
        let bundle = RecordedTraces::record_program(&p);
        let procedural = run_reference(&p, machine.clone(), 2);
        let replayed = run_reference_traced(&p, machine.clone(), 2, Box::new(bundle.clone()));
        assert_eq!(replayed.total_cycles, procedural.total_cycles);
        let (a, _) = run_sampled(&p, machine.clone(), 2, TaskPointConfig::lazy());
        let (b, _) = run_sampled_traced(&p, machine, 2, TaskPointConfig::lazy(), Box::new(bundle));
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.detailed_tasks, b.detailed_tasks);
    }

    #[test]
    fn reference_simulates_everything_in_detail() {
        let p = uniform_program(50);
        let r = run_reference(&p, MachineConfig::tiny_test(), 2);
        assert_eq!(r.detailed_tasks, 50);
        assert_eq!(r.fast_tasks, 0);
    }

    #[test]
    fn sampling_works_on_heterogeneous_machines() {
        // The whole sampling path — reference, sampled, comparison — must
        // run unchanged on a big.LITTLE machine, with per-group stats in
        // both results.
        let p = uniform_program(200);
        let machine = MachineConfig::big_little(2, 2);
        let reference = run_reference(&p, machine.clone(), 4);
        assert_eq!(reference.groups.len(), 2);
        assert_eq!(
            reference.groups[0].detailed_tasks + reference.groups[1].detailed_tasks,
            reference.detailed_tasks
        );
        let (outcome, stats) = evaluate(&p, machine, 4, TaskPointConfig::lazy(), Some(&reference));
        assert!(outcome.error_percent.is_finite());
        assert!(stats.fast_tasks > 0, "sampling must fast-forward on hetero machines too");
        // Per-type IPC differs across groups, so sampling error is larger
        // than on a homogeneous machine — but it must stay bounded for
        // identically shaped tasks.
        assert!(outcome.error_percent < 60.0, "hetero error {}%", outcome.error_percent);
    }
}
