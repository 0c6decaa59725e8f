//! The one sampled-simulation entry point: [`run`] picks the controller
//! for a [`TaskPointConfig`] and drives a configured [`Simulation`] with it.
//!
//! A detailed reference run needs no entry point of its own: it is
//! `Simulation::builder(..).build().run(&mut DetailedOnly)`, and
//! [`ExperimentOutcome::compare`](crate::ExperimentOutcome::compare) sets a
//! sampled run against it.

use taskpoint_accuracy::{
    AccuracyReport, AdaptiveController, SamplingPolicy, StratifiedController, TaskPointConfig,
};
use tasksim::{SimResult, Simulation};

use crate::controller::{SamplingStats, TaskPointController};

/// What one sampled [`run`] produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The simulation result (predicted cycles, detail split, caches).
    pub result: SimResult,
    /// The controller's telemetry (adaptive and stratified runs have no
    /// global phases or resamples; those logs stay empty).
    pub stats: SamplingStats,
    /// The per-cluster accuracy report of the adaptive and stratified
    /// policies; `None` for lazy and periodic sampling.
    pub accuracy: Option<AccuracyReport>,
}

/// Runs `sim` under the TaskPoint controller that `config` selects.
///
/// This is the only place that dispatches on the policy:
///
/// | policy | controller |
/// |---|---|
/// | lazy, periodic | [`TaskPointController`] |
/// | adaptive | [`AdaptiveController`] |
/// | stratified | [`StratifiedController`] (octave `(type, size-class)` strata) |
///
/// The adaptive and stratified controllers share the simulation's
/// telemetry handle, so their fidelity decisions land in the same event
/// stream as the schedule. The stratified controller is primed with the
/// simulation's program, so its strata are fixed in instance-creation
/// order and its report is identical at any worker count.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`TaskPointConfig::validated`]).
///
/// # Example
///
/// ```
/// use taskpoint::{run, ExperimentOutcome, TaskPointConfig};
/// use taskpoint_workloads::{Benchmark, ScaleConfig};
/// use tasksim::{DetailedOnly, MachineConfig, Simulation};
///
/// let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
/// let machine = MachineConfig::low_power();
/// let reference =
///     Simulation::builder(&program, machine.clone()).workers(2).build().run(&mut DetailedOnly);
/// let sim = Simulation::builder(&program, machine).workers(2).build();
/// let sampled = run(sim, TaskPointConfig::adaptive(0.05));
/// assert!(sampled.stats.fast_tasks > 0);
/// assert!(sampled.accuracy.unwrap().units() >= 1);
/// let outcome = ExperimentOutcome::compare(&sampled.result, &reference);
/// assert!(outcome.detail_fraction < 1.0);
/// ```
pub fn run(sim: Simulation<'_>, config: TaskPointConfig) -> RunOutcome {
    let telemetry = sim.telemetry().clone();
    let (result, (stats, report)) = match config.policy {
        SamplingPolicy::Adaptive { .. } => {
            let mut controller = AdaptiveController::new(config).with_telemetry(telemetry);
            (sim.run(&mut controller), controller.into_parts())
        }
        SamplingPolicy::Stratified { .. } => {
            let mut controller = StratifiedController::new(config).with_telemetry(telemetry);
            controller
                .prime(sim.program().instances().iter().map(|i| (i.type_id(), i.instructions())));
            (sim.run(&mut controller), controller.into_parts())
        }
        SamplingPolicy::Lazy | SamplingPolicy::Periodic { .. } => {
            // The paper's controller, which keeps phase and resample logs
            // but no accuracy report.
            let mut controller = TaskPointController::new(config);
            let result = sim.run(&mut controller);
            return RunOutcome { result, stats: controller.into_stats(), accuracy: None };
        }
    };
    RunOutcome { result, stats, accuracy: Some(report) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExperimentOutcome;
    use taskpoint_runtime::Program;
    use taskpoint_trace::TraceSpec;
    use taskpoint_workloads::{Benchmark, ScaleConfig};
    use tasksim::{DetailedOnly, MachineConfig, ModeController, RecordedTraces};

    fn sim(p: &Program, machine: MachineConfig, workers: u32) -> Simulation<'_> {
        Simulation::builder(p, machine).workers(workers).build()
    }

    fn detailed_reference(p: &Program, machine: MachineConfig, workers: u32) -> SimResult {
        sim(p, machine, workers).run(&mut DetailedOnly)
    }

    fn run_direct<C: ModeController>(p: &Program, controller: &mut C) -> SimResult {
        sim(p, MachineConfig::tiny_test(), 2).run(controller)
    }

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
            b.add_task(ty, trace, &[]);
        }
        b.build()
    }

    fn spmv() -> Program {
        Benchmark::Spmv.generate(&ScaleConfig::quick())
    }

    fn error_percent(sampled: &SimResult, reference: &SimResult) -> f64 {
        100.0
            * ((sampled.total_cycles as f64 - reference.total_cycles as f64)
                / reference.total_cycles as f64)
                .abs()
    }

    #[test]
    fn sampled_run_is_accurate_on_uniform_work() {
        let p = uniform_program(400);
        let machine = MachineConfig::high_performance();
        let reference = detailed_reference(&p, machine.clone(), 4);
        let sampled = run(sim(&p, machine, 4), TaskPointConfig::lazy());
        let (outcome, stats) =
            (ExperimentOutcome::compare(&sampled.result, &reference), sampled.stats);
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
        let a = run(sim(&p, machine.clone(), 2), TaskPointConfig::lazy()).result;
        let b = run(sim(&p, machine, 2), TaskPointConfig::lazy()).result;
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.detailed_tasks, b.detailed_tasks);
    }

    #[test]
    fn traced_runs_replay_identically_to_procedural() {
        let p = uniform_program(60);
        let machine = MachineConfig::tiny_test();
        let bundle = RecordedTraces::record_program(&p);
        let replay = |bundle: RecordedTraces| {
            Simulation::builder(&p, machine.clone()).workers(2).traces(Box::new(bundle)).build()
        };
        let procedural = detailed_reference(&p, machine.clone(), 2);
        let replayed = replay(bundle.clone()).run(&mut DetailedOnly);
        assert_eq!(replayed.total_cycles, procedural.total_cycles);
        let a = run(sim(&p, machine.clone(), 2), TaskPointConfig::lazy()).result;
        let b = run(replay(bundle), TaskPointConfig::lazy()).result;
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.detailed_tasks, b.detailed_tasks);
    }

    #[test]
    fn reference_simulates_everything_in_detail() {
        let p = uniform_program(50);
        let r = detailed_reference(&p, MachineConfig::tiny_test(), 2);
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
        let reference = detailed_reference(&p, machine.clone(), 4);
        assert_eq!(reference.groups.len(), 2);
        assert_eq!(
            reference.groups[0].detailed_tasks + reference.groups[1].detailed_tasks,
            reference.detailed_tasks
        );
        let sampled = run(sim(&p, machine, 4), TaskPointConfig::lazy());
        let (outcome, stats) =
            (ExperimentOutcome::compare(&sampled.result, &reference), sampled.stats);
        assert!(outcome.error_percent.is_finite());
        assert!(stats.fast_tasks > 0, "sampling must fast-forward on hetero machines too");
        // Per-type IPC differs across groups, so sampling error is larger
        // than on a homogeneous machine — but it must stay bounded for
        // identically shaped tasks.
        assert!(outcome.error_percent < 60.0, "hetero error {}%", outcome.error_percent);
    }

    // --- dispatch: `run` against the same controller driven directly ---

    #[test]
    fn run_dispatches_lazy_and_periodic_policies() {
        let p = spmv();
        for config in [TaskPointConfig::lazy(), TaskPointConfig::periodic()] {
            let via_dispatch = run(sim(&p, MachineConfig::tiny_test(), 2), config);
            let mut controller = TaskPointController::new(config);
            let direct = run_direct(&p, &mut controller);
            assert_eq!(via_dispatch.result.total_cycles, direct.total_cycles);
            assert_eq!(via_dispatch.result.detailed_tasks, direct.detailed_tasks);
            assert_eq!(via_dispatch.stats.resamples, controller.stats().resamples);
            assert!(via_dispatch.accuracy.is_none());
        }
    }

    #[test]
    fn run_dispatches_adaptive_policy() {
        let p = spmv();
        let config = TaskPointConfig::adaptive(0.05);
        let via_dispatch = run(sim(&p, MachineConfig::tiny_test(), 2), config);
        let mut controller = AdaptiveController::new(config);
        let direct = run_direct(&p, &mut controller);
        assert_eq!(via_dispatch.result.total_cycles, direct.total_cycles);
        assert_eq!(via_dispatch.result.detailed_tasks, direct.detailed_tasks);
        assert_eq!(via_dispatch.accuracy.unwrap().clusters, controller.report().clusters);
    }

    #[test]
    fn run_dispatches_stratified_policy() {
        let p = spmv();
        let config = TaskPointConfig::stratified(4, 48);
        let via_dispatch = run(sim(&p, MachineConfig::tiny_test(), 2), config);
        let mut controller = StratifiedController::new(config);
        controller.prime(p.instances().iter().map(|i| (i.type_id(), i.instructions())));
        let direct = run_direct(&p, &mut controller);
        assert_eq!(via_dispatch.result.total_cycles, direct.total_cycles);
        assert_eq!(via_dispatch.result.detailed_tasks, direct.detailed_tasks);
        assert_eq!(via_dispatch.accuracy.unwrap().clusters, controller.report().clusters);
    }

    #[test]
    #[should_panic(expected = "H must be positive")]
    fn run_rejects_an_adaptive_config_with_zero_history() {
        let p = uniform_program(10);
        run(
            sim(&p, MachineConfig::tiny_test(), 2),
            TaskPointConfig::adaptive(0.05).with_history(0),
        );
    }

    // --- adaptive policy ---

    #[test]
    fn adaptive_run_produces_an_accuracy_report() {
        let p = spmv();
        let machine = MachineConfig::tiny_test();
        let outcome = run(sim(&p, machine, 2), TaskPointConfig::adaptive(0.1));
        let (result, stats, report) = (outcome.result, outcome.stats, outcome.accuracy.unwrap());
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
        let p = spmv();
        let machine = MachineConfig::tiny_test();
        let mut prev = 0u64;
        for target in [0.2, 0.05, 0.01] {
            let result = run(sim(&p, machine.clone(), 2), TaskPointConfig::adaptive(target)).result;
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
        let p = spmv();
        let machine = MachineConfig::tiny_test();
        let a = run(sim(&p, machine.clone(), 2), TaskPointConfig::adaptive(0.05));
        let b = run(sim(&p, machine, 2), TaskPointConfig::adaptive(0.05));
        assert_eq!(a.result.total_cycles, b.result.total_cycles);
        assert_eq!(a.result.detailed_tasks, b.result.detailed_tasks);
        assert_eq!(a.accuracy.unwrap().clusters, b.accuracy.unwrap().clusters);
    }

    #[test]
    fn adaptive_error_stays_reasonable_against_reference() {
        let p = spmv();
        let machine = MachineConfig::tiny_test();
        let reference = detailed_reference(&p, machine.clone(), 2);
        let sampled = run(sim(&p, machine, 2), TaskPointConfig::adaptive(0.05)).result;
        let err = error_percent(&sampled, &reference);
        assert!(err < 50.0, "adaptive quick-scale smoke band: {err:.1}%");
    }

    // --- stratified policy ---

    #[test]
    fn stratified_run_produces_an_accuracy_report() {
        let p = spmv();
        let machine = MachineConfig::tiny_test();
        let outcome = run(sim(&p, machine, 2), TaskPointConfig::stratified(4, 64));
        let (result, stats, report) = (outcome.result, outcome.stats, outcome.accuracy.unwrap());
        assert!(result.total_cycles > 0);
        assert_eq!(stats.detailed_tasks + stats.fast_tasks, p.num_instances() as u64);
        assert!(stats.fast_tasks > 0, "a bounded budget must fast-forward something");
        assert!(report.units() >= 1);
        assert!(report.converged_units() >= 1);
    }

    #[test]
    fn bigger_budgets_never_sample_less() {
        let p = spmv();
        let machine = MachineConfig::tiny_test();
        let mut prev = 0u64;
        for budget in [16u64, 64, 256] {
            let config = TaskPointConfig::stratified(4, budget);
            let result = run(sim(&p, machine.clone(), 2), config).result;
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
        let p = spmv();
        let machine = MachineConfig::tiny_test();
        let config = TaskPointConfig::stratified(4, 48);
        let a = run(sim(&p, machine.clone(), 2), config);
        let b = run(sim(&p, machine, 2), config);
        assert_eq!(a.result.total_cycles, b.result.total_cycles);
        assert_eq!(a.result.detailed_tasks, b.result.detailed_tasks);
        assert_eq!(a.accuracy.unwrap().clusters, b.accuracy.unwrap().clusters);
    }

    #[test]
    fn stratified_error_stays_reasonable_against_reference() {
        let p = spmv();
        let machine = MachineConfig::tiny_test();
        let reference = detailed_reference(&p, machine.clone(), 2);
        let sampled = run(sim(&p, machine, 2), TaskPointConfig::stratified(4, 64)).result;
        let err = error_percent(&sampled, &reference);
        assert!(err < 50.0, "stratified quick-scale smoke band: {err:.1}%");
    }
}
