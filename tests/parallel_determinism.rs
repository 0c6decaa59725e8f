//! Bit-identity of the speculative parallel detail layer.
//!
//! `SimulationBuilder::detail_threads(n)` may change how fast the detailed
//! mode executes, never what it computes. The contract under test:
//!
//! 1. **Identical results** — every deterministic field of a `SimResult`
//!    (per-task reports included) is identical at any thread count, on
//!    homogeneous and big.LITTLE machines, under full-detail and adaptive
//!    controllers. Only `wall_seconds` and the host-side
//!    `parallel_epochs` accounting may differ.
//! 2. **The layer actually engages** — on an eligible machine with a
//!    dependency-closed frontier, multi-threaded runs commit at least one
//!    speculative epoch (otherwise this whole file would pass vacuously).
//! 3. **Fallbacks stay sequential** — contention-dominated machines
//!    (single slow DRAM channel) and telemetry-recording runs never
//!    speculate.
//! 4. **Speculation really is concurrent** — wave members observably
//!    overlap on distinct host threads (the blocking-work scaling probe).
//! 5. **Campaign identity is unaffected** — `CellSpec` hashes and the
//!    `TASKPOINT_DETAIL_THREADS` override never leak into result content.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use taskpoint_repro::accuracy::{AdaptiveConfig, AdaptiveController};
use taskpoint_repro::runtime::{AccessMode, Program, RegionAccess, TaskInstanceId};
use taskpoint_repro::sim::{
    DetailedOnly, MachineConfig, ModeController, ProceduralTraces, SimResult, Simulation,
    Telemetry, TraceProvider,
};
use taskpoint_repro::taskpoint::{TaskPointConfig, TaskPointController};
use taskpoint_repro::trace::{AccessPattern, InstructionMix, MemRegion, TraceSource, TraceSpec};

/// A layered fork–join program: `layers` barriers of `width` mutually
/// independent tasks, every task of layer `k+1` reading what *all* of
/// layer `k` wrote. Each frontier is dependency-closed — exactly the
/// epoch shape the parallel layer speculates on — and footprints are
/// disjoint so waves can validate and commit.
fn barrier_program(width: u32, layers: u32, instructions: u64, seed: u64) -> Program {
    let mut b = Program::builder("barrier");
    let ty = b.add_type("work");
    let out_region = |layer: u32, i: u32| {
        MemRegion::new(0x6000_0000 + (u64::from(layer * width + i)) * 0x10_0000, 4096)
    };
    for layer in 0..layers {
        for i in 0..width {
            let trace = TraceSpec::builder()
                .seed(seed ^ (u64::from(layer * width + i) << 8))
                .code_seed(seed.rotate_left(17))
                .instructions(instructions)
                .mix(InstructionMix::compute_bound())
                .pattern(AccessPattern::sequential(8))
                .footprint(out_region(layer, i))
                .build();
            let mut accesses = vec![RegionAccess::new(out_region(layer, i), AccessMode::Out)];
            if layer > 0 {
                for p in 0..width {
                    accesses.push(RegionAccess::new(out_region(layer - 1, p), AccessMode::In));
                }
            }
            b.add_task(ty, trace, accesses);
        }
    }
    b.build()
}

fn run<C: ModeController>(
    program: &Program,
    machine: &MachineConfig,
    workers: u32,
    threads: usize,
    controller: &mut C,
) -> SimResult {
    Simulation::builder(program, machine.clone())
        .workers(workers)
        .detail_threads(threads)
        // The barrier programs use short tasks to keep the suite fast;
        // lower the speculation floor accordingly.
        .parallel_min_task_instructions(500)
        .collect_reports(true)
        .build()
        .run(controller)
}

/// Everything deterministic in a `SimResult` — the full contract, not just
/// aggregates. `wall_seconds` and `parallel_epochs` are host-side
/// execution metadata and legitimately differ.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "{what}: total_cycles");
    assert_eq!(a.detailed_tasks, b.detailed_tasks, "{what}: detailed_tasks");
    assert_eq!(a.fast_tasks, b.fast_tasks, "{what}: fast_tasks");
    assert_eq!(a.detailed_instructions, b.detailed_instructions, "{what}: detailed_instructions");
    assert_eq!(a.fast_instructions, b.fast_instructions, "{what}: fast_instructions");
    assert_eq!(a.invalidations, b.invalidations, "{what}: invalidations");
    assert_eq!(a.dram_accesses, b.dram_accesses, "{what}: dram_accesses");
    assert_eq!(a.private_cache, b.private_cache, "{what}: private cache stats");
    assert_eq!(a.shared_cache, b.shared_cache, "{what}: shared cache stats");
    assert_eq!(a.groups, b.groups, "{what}: per-group stats");
    assert_eq!(a.workers, b.workers, "{what}: workers");
    assert_eq!(a.reports, b.reports, "{what}: per-task reports");
}

#[test]
fn thread_count_never_changes_results_and_epochs_commit() {
    let machines = [
        ("tiny", MachineConfig::tiny_test()),
        ("hp", MachineConfig::high_performance()),
        ("big_little", MachineConfig::big_little(2, 2)),
    ];
    let mut committed_somewhere = false;
    for (name, machine) in &machines {
        let program = barrier_program(4, 3, 3_000, 0xA5A5);
        let baseline = run(&program, machine, 4, 1, &mut DetailedOnly);
        assert_eq!(
            baseline.parallel_epochs,
            Default::default(),
            "{name}: a single-threaded run never speculates"
        );
        for threads in [2usize, 4, 8] {
            let got = run(&program, machine, 4, threads, &mut DetailedOnly);
            assert_identical(&got, &baseline, &format!("{name}/{threads} threads"));
            committed_somewhere |= got.parallel_epochs.committed > 0;
        }
    }
    assert!(
        committed_somewhere,
        "no machine committed a single epoch — the layer is not engaging and \
         every identity assertion above was vacuous"
    );
}

#[test]
fn contention_sensitive_machines_fall_back_to_sequential() {
    // low_power: one DRAM channel with a 16-cycle service time — the
    // static fallback rule keeps it on the exact sequential interleaving.
    let program = barrier_program(4, 2, 3_000, 0x17);
    let machine = MachineConfig::low_power();
    let baseline = run(&program, &machine, 4, 1, &mut DetailedOnly);
    let threaded = run(&program, &machine, 4, 8, &mut DetailedOnly);
    assert_identical(&threaded, &baseline, "low_power/8 threads");
    assert_eq!(
        threaded.parallel_epochs,
        Default::default(),
        "ineligible machine must not attempt speculation"
    );
}

#[test]
fn adaptive_and_lazy_policies_are_thread_count_invariant() {
    let program = barrier_program(4, 4, 3_000, 0xBEEF);
    for (name, machine) in
        [("tiny", MachineConfig::tiny_test()), ("big_little", MachineConfig::big_little(2, 2))]
    {
        let adaptive_at = |threads: usize| {
            let mut c = AdaptiveController::new(AdaptiveConfig::new(0.1));
            run(&program, &machine, 4, threads, &mut c)
        };
        let lazy_at = |threads: usize| {
            let mut c = TaskPointController::new(TaskPointConfig::lazy());
            run(&program, &machine, 4, threads, &mut c)
        };
        let adaptive_base = adaptive_at(1);
        let lazy_base = lazy_at(1);
        for threads in [2usize, 4] {
            assert_identical(
                &adaptive_at(threads),
                &adaptive_base,
                &format!("{name}/adaptive/{threads} threads"),
            );
            assert_identical(
                &lazy_at(threads),
                &lazy_base,
                &format!("{name}/lazy/{threads} threads"),
            );
        }
    }
}

#[test]
fn telemetry_checksums_are_identical_and_recording_stays_sequential() {
    let program = barrier_program(4, 3, 3_000, 0x51);
    let machine = MachineConfig::tiny_test();
    let observed = |threads: usize| {
        let telemetry = Telemetry::recording();
        let result = Simulation::builder(&program, machine.clone())
            .workers(4)
            .detail_threads(threads)
            .parallel_min_task_instructions(500)
            .collect_reports(true)
            .telemetry(telemetry.clone())
            .build()
            .run(&mut DetailedOnly);
        (result, telemetry.take_report().expect("recording handle yields a report"))
    };
    let (base_result, base_report) = observed(1);
    for threads in [2usize, 4, 8] {
        let (result, report) = observed(threads);
        assert_identical(&result, &base_result, &format!("telemetry/{threads} threads"));
        assert_eq!(
            report.fnv64(),
            base_report.fnv64(),
            "{threads} threads: telemetry checksum drifted"
        );
        assert_eq!(
            report.canonical_text(),
            base_report.canonical_text(),
            "{threads} threads: canonical telemetry must be byte-identical"
        );
        // Telemetry pins per-event streams; recording runs must not take
        // the committed fast path (which skips chunk-level events).
        assert_eq!(
            result.parallel_epochs,
            Default::default(),
            "{threads} threads: recording run speculated"
        );
    }
}

/// A `TraceSource` whose first refill waits (bounded) until another wave
/// member's refill is also in flight, recording whether the overlap
/// happened — observable proof that speculative executions run on
/// distinct host threads rather than being serialized.
struct BlockingSource {
    inner: Box<dyn TraceSource + Send>,
    state: Arc<OverlapProbe>,
    waited: bool,
}

struct OverlapProbe {
    in_flight: AtomicUsize,
    peak: AtomicUsize,
}

impl TraceSource for BlockingSource {
    fn fill(&mut self, block: &mut taskpoint_repro::trace::InstBlock) -> usize {
        if !self.waited {
            self.waited = true;
            let now = self.state.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.state.peak.fetch_max(now, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.state.in_flight.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(50));
            }
            self.state
                .peak
                .fetch_max(self.state.in_flight.load(Ordering::SeqCst), Ordering::SeqCst);
            self.state.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        self.inner.fill(block)
    }
}

struct BlockingProvider {
    inner: ProceduralTraces,
    state: Arc<OverlapProbe>,
}

impl TraceProvider for BlockingProvider {
    fn source(&self, task: TaskInstanceId, spec: &TraceSpec) -> Box<dyn TraceSource> {
        self.inner.source(task, spec)
    }

    fn source_send(
        &self,
        task: TaskInstanceId,
        spec: &TraceSpec,
    ) -> Option<Box<dyn TraceSource + Send>> {
        Some(Box::new(BlockingSource {
            inner: self.inner.source_send(task, spec)?,
            state: Arc::clone(&self.state),
            waited: false,
        }))
    }
}

#[test]
fn speculative_wave_members_overlap_on_host_threads() {
    let program = barrier_program(2, 2, 3_000, 0x99);
    let machine = MachineConfig::tiny_test();
    let state =
        Arc::new(OverlapProbe { in_flight: AtomicUsize::new(0), peak: AtomicUsize::new(0) });
    let result = Simulation::builder(&program, machine.clone())
        .workers(2)
        .detail_threads(2)
        .parallel_min_task_instructions(500)
        .collect_reports(true)
        .traces(Box::new(BlockingProvider { inner: ProceduralTraces, state: Arc::clone(&state) }))
        .build()
        .run(&mut DetailedOnly);
    assert!(
        result.parallel_epochs.committed >= 1,
        "wave must commit for the probe to mean anything"
    );
    assert_eq!(
        state.peak.load(Ordering::SeqCst),
        2,
        "two wave members never overlapped — speculation is not actually parallel"
    );
    // And blocking inside the speculative refill changed nothing.
    let plain = run(&program, &machine, 2, 1, &mut DetailedOnly);
    assert_identical(&result, &plain, "blocking probe vs sequential");
}

/// `TASKPOINT_DETAIL_THREADS` reaches the high-level entry points, is
/// validated, and never changes simulated content or campaign identity.
/// (All env manipulation lives in this single test: integration tests in
/// one binary share the process environment.)
#[test]
fn env_override_is_validated_and_invisible_to_results_and_spec_hashes() {
    use taskpoint_repro::campaign::CellSpec;
    use taskpoint_repro::sim::detail_threads_from_env;
    use taskpoint_repro::taskpoint::run_reference;
    use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

    let spec = || {
        CellSpec::sampled(
            Benchmark::Spmv,
            ScaleConfig::quick(),
            MachineConfig::tiny_test(),
            4,
            TaskPointConfig::lazy(),
        )
    };
    std::env::remove_var("TASKPOINT_DETAIL_THREADS");
    assert_eq!(detail_threads_from_env(), 1, "unset defaults to sequential");
    let hash_unset = spec().hash_hex();
    let program = barrier_program(4, 2, 3_000, 0x44);
    let result_unset = run_reference(&program, MachineConfig::tiny_test(), 4);

    std::env::set_var("TASKPOINT_DETAIL_THREADS", "4");
    assert_eq!(detail_threads_from_env(), 4);
    // The hash is a *content* address: two runs of the same spec at
    // different host parallelism must share a result-store record.
    assert_eq!(spec().hash_hex(), hash_unset, "detail_threads leaked into the spec hash");
    let result_env = run_reference(&program, MachineConfig::tiny_test(), 4);
    assert_identical(&result_env, &result_unset, "env-threaded reference run");
    std::env::remove_var("TASKPOINT_DETAIL_THREADS");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fork–join shapes, machines and thread counts: the threaded
    /// engine reproduces the sequential engine bit for bit, reports
    /// included.
    #[test]
    fn any_thread_count_is_bit_identical(
        width in 2u32..5,
        layers in 1u32..4,
        instructions in 1_000u64..4_001,
        seed in any::<u64>(),
        machine_idx in 0usize..3,
        thread_idx in 0usize..4,
    ) {
        // Heterogeneous machines pin cores == workers, so size the
        // big.LITTLE variant to the generated width.
        let machines = [
            MachineConfig::tiny_test(),
            MachineConfig::high_performance(),
            MachineConfig::big_little(width.div_ceil(2), width / 2),
        ];
        let machine = &machines[machine_idx];
        let threads = [2usize, 3, 4, 8][thread_idx];
        let program = barrier_program(width, layers, instructions, seed);
        let baseline = run(&program, machine, width, 1, &mut DetailedOnly);
        let got = run(&program, machine, width, threads, &mut DetailedOnly);
        assert_identical(&got, &baseline, &format!("w{width} l{layers} m{machine_idx} t{threads}"));
    }
}
