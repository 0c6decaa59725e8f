//! Integration tests spanning all crates: workload generation → runtime
//! scheduling → detailed/sampled simulation → metrics.
//!
//! All detailed *reference* runs go through one process-wide [`Campaign`]
//! (in-memory store), so each (benchmark, machine, threads) reference is
//! simulated exactly once no matter how many assertions consume it — the
//! suite-wide sweeps below share their 19×2 references instead of
//! re-simulating per test, which is what kept this binary's debug
//! wall-clock high before the campaign subsystem existed.

use std::sync::{Arc, OnceLock};

use taskpoint_repro::campaign::Campaign;
use taskpoint_repro::runtime::Program;
use taskpoint_repro::sim::{DetailedOnly, MachineConfig, SimMode, SimResult, Simulation};
use taskpoint_repro::taskpoint::{
    self, ExperimentOutcome, SamplingPolicy, SamplingStats, TaskPointConfig,
};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn quick() -> ScaleConfig {
    ScaleConfig::quick()
}

/// The process-wide campaign: shared program + reference caches.
fn campaign() -> &'static Campaign {
    static CAMPAIGN: OnceLock<Campaign> = OnceLock::new();
    CAMPAIGN.get_or_init(Campaign::in_memory)
}

/// One sampled run of `program` through `taskpoint::run`.
fn sample(
    program: &Program,
    machine: MachineConfig,
    workers: u32,
    config: TaskPointConfig,
) -> (SimResult, SamplingStats) {
    let sim = Simulation::builder(program, machine).workers(workers).build();
    let outcome = taskpoint::run(sim, config);
    (outcome.result, outcome.stats)
}

/// A shared full-detail reference (computed once per cell, then reused
/// by every test in this binary).
fn reference(bench: Benchmark, machine: MachineConfig, workers: u32) -> Arc<SimResult> {
    campaign().reference(bench, quick(), machine, workers)
}

#[test]
fn every_benchmark_runs_detailed_on_both_machines() {
    // Smoke coverage of all 19 generators through the full detailed
    // pipeline at quick scale. Worker count 4 on purpose: the suite-band
    // test below evaluates against the same 4-thread references, so the
    // campaign computes each exactly once for both tests.
    for bench in Benchmark::ALL {
        let program = campaign().program(bench, &quick());
        for machine in [MachineConfig::high_performance(), MachineConfig::low_power()] {
            let r = reference(bench, machine, 4);
            assert_eq!(
                r.detailed_tasks as usize,
                program.num_instances(),
                "{bench}: all instances must run detailed"
            );
            assert!(r.total_cycles > 0, "{bench}: zero-cycle run");
        }
    }
}

#[test]
fn sampled_prediction_is_reasonable_across_suite() {
    // At quick scale the sampled run must stay within a loose band of the
    // detailed reference for every benchmark (full-scale accuracy is the
    // subject of the figure harness, not unit tests). References come
    // from the shared campaign cache.
    for bench in Benchmark::ALL {
        let program = campaign().program(bench, &quick());
        let r = reference(bench, MachineConfig::high_performance(), 4);
        let (sampled, _) =
            sample(&program, MachineConfig::high_performance(), 4, TaskPointConfig::lazy());
        let outcome = ExperimentOutcome::compare(&sampled, &r);
        // Quick scale shrinks tasks ~20x, so startup transients weigh far
        // more than at evaluation scale; the band here is a smoke check
        // (full-scale accuracy is validated by the figure harness).
        assert!(
            outcome.error_percent < 90.0,
            "{bench}: error {:.1}% out of band",
            outcome.error_percent
        );
    }
}

#[test]
fn sampled_run_fast_forwards_most_instances() {
    let program = campaign().program(Benchmark::Matmul, &quick());
    let (result, stats) =
        sample(&program, MachineConfig::high_performance(), 8, TaskPointConfig::lazy());
    assert!(
        stats.fast_tasks as f64 > 0.9 * program.num_instances() as f64,
        "only {} of {} fast",
        stats.fast_tasks,
        program.num_instances()
    );
    assert!(result.detail_fraction() < 0.2);
}

#[test]
fn periodic_resamples_more_and_simulates_more_detail_than_lazy() {
    let program = campaign().program(Benchmark::Vecop, &quick());
    let machine = MachineConfig::high_performance();
    let (lazy, lazy_stats) = sample(&program, machine.clone(), 8, TaskPointConfig::lazy());
    let config = TaskPointConfig::periodic().with_policy(SamplingPolicy::Periodic { period: 50 });
    let (periodic, periodic_stats) = sample(&program, machine, 8, config);
    assert!(periodic_stats.resamples.len() > lazy_stats.resamples.len());
    assert!(periodic.detailed_instructions > lazy.detailed_instructions);
}

#[test]
fn periodic_equals_lazy_when_period_exceeds_program() {
    // The paper: "If the number of task instances of a program is too small
    // ... periodic sampling is equivalent to lazy sampling."
    let program = campaign().program(Benchmark::Spmv, &quick()); // 1,024 instances
    let machine = MachineConfig::high_performance();
    let big_p =
        TaskPointConfig::periodic().with_policy(SamplingPolicy::Periodic { period: 1_000_000 });
    let (periodic, _) = sample(&program, machine.clone(), 8, big_p);
    let (lazy, _) = sample(&program, machine, 8, TaskPointConfig::lazy());
    assert_eq!(periodic.total_cycles, lazy.total_cycles);
    assert_eq!(periodic.detailed_tasks, lazy.detailed_tasks);
}

#[test]
fn sampled_and_reference_are_deterministic_end_to_end() {
    let program = campaign().program(Benchmark::Reduction, &quick());
    let machine = MachineConfig::low_power();
    let a =
        Simulation::builder(&program, machine.clone()).workers(4).build().run(&mut DetailedOnly);
    let b = reference(Benchmark::Reduction, machine.clone(), 4);
    assert_eq!(a.total_cycles, b.total_cycles, "fresh run equals shared reference");
    let (s1, st1) = sample(&program, machine.clone(), 4, TaskPointConfig::periodic());
    let (s2, st2) = sample(&program, machine, 4, TaskPointConfig::periodic());
    assert_eq!(s1.total_cycles, s2.total_cycles);
    assert_eq!(st1.resamples, st2.resamples);
    assert_eq!(st1.phase_log, st2.phase_log);
}

#[test]
fn schedule_validity_no_task_starts_before_predecessors_end() {
    let program = campaign().program(Benchmark::Cholesky, &quick());
    let result = Simulation::builder(&program, MachineConfig::low_power())
        .workers(8)
        .collect_reports(true)
        .build()
        .run(&mut DetailedOnly);
    let mut end_of = vec![0u64; program.num_instances()];
    for r in &result.reports {
        end_of[r.task.index()] = r.end;
    }
    for r in &result.reports {
        for pred in program.graph().predecessors(r.task) {
            assert!(
                r.start >= end_of[pred.index()],
                "task {} started at {} before predecessor {} ended at {}",
                r.task,
                r.start,
                pred,
                end_of[pred.index()]
            );
        }
    }
}

#[test]
fn mixed_mode_schedule_is_also_valid() {
    let program = campaign().program(Benchmark::Stencil3d, &quick());
    let mut controller =
        taskpoint_repro::taskpoint::TaskPointController::new(TaskPointConfig::periodic());
    let result = Simulation::builder(&program, MachineConfig::low_power())
        .workers(4)
        .collect_reports(true)
        .build()
        .run(&mut controller);
    let mut end_of = vec![0u64; program.num_instances()];
    for r in &result.reports {
        end_of[r.task.index()] = r.end;
    }
    let mut detailed = 0u64;
    let mut fast = 0u64;
    for r in &result.reports {
        match r.mode {
            SimMode::Detailed => detailed += 1,
            SimMode::Fast => fast += 1,
        }
        for pred in program.graph().predecessors(r.task) {
            assert!(r.start >= end_of[pred.index()]);
        }
    }
    assert!(detailed > 0 && fast > 0, "both modes must appear");
}

#[test]
fn more_threads_never_increase_total_work_error_catastrophically() {
    // Thread-count sensitivity smoke: sampled accuracy holds from 1..=8
    // threads on one benchmark. The 4-thread low-power reference is the
    // same campaign cell the suite-wide detailed test uses.
    let program = campaign().program(Benchmark::Histogram, &quick());
    for threads in [1u32, 2, 4, 8] {
        let r = reference(Benchmark::Histogram, MachineConfig::low_power(), threads);
        let (sampled, _) =
            sample(&program, MachineConfig::low_power(), threads, TaskPointConfig::periodic());
        let outcome = ExperimentOutcome::compare(&sampled, &r);
        assert!(outcome.error_percent < 60.0, "{threads} threads: {:.1}%", outcome.error_percent);
    }
}

#[test]
fn noise_model_produces_fig1_style_spread() {
    use taskpoint_repro::sim::NoiseModel;
    use taskpoint_repro::stats::{normalize_by_group, BoxplotStats};
    let program = campaign().program(Benchmark::Swaptions, &quick());
    let result = Simulation::builder(&program, MachineConfig::high_performance())
        .workers(8)
        .noise(NoiseModel::native_execution(42))
        .collect_reports(true)
        .build()
        .run(&mut DetailedOnly);
    let devs = normalize_by_group(result.reports.iter().map(|r| (r.type_id.0, r.ipc())));
    let stats = BoxplotStats::from_samples(&devs).unwrap();
    // Noise must induce nonzero but bounded spread on a regular benchmark.
    assert!(stats.whisker_halfwidth() > 0.5, "noise too weak: {stats:?}");
    assert!(stats.whisker_halfwidth() < 25.0, "noise too strong: {stats:?}");
}
