//! Equivalence guarantees of the batched instruction-block pipeline.
//!
//! The refactor from per-instruction iteration to SoA blocks must not
//! change a single simulated bit. Three independent pins enforce that:
//!
//! 1. **Golden streams** — FNV checksums of encoded trace streams captured
//!    from the pre-refactor per-instruction generator. Any change to the
//!    (now batched and pattern-specialized) generator that alters one
//!    instruction changes the checksum.
//! 2. **Golden simulation results** — cycle counts of a benchmark ×
//!    machine × worker grid captured from the pre-refactor engine. The
//!    block engine must reproduce them exactly.
//! 3. **Capacity invariance** — block capacity 1 degenerates to
//!    per-instruction execution; results must be bit-identical to the
//!    default capacity (and an odd one that never divides task lengths).

use taskpoint_repro::sim::{DetailedOnly, MachineConfig, RecordedTraces, SimResult, Simulation};
use taskpoint_repro::trace::{encode, AccessPattern, InstructionMix, MemRegion, TraceSpec};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pre-refactor golden checksums (captured from the per-instruction
/// `TraceIter` before the block pipeline existed).
#[test]
fn trace_streams_match_pre_refactor_goldens() {
    let cases: [(&str, TraceSpec, u64, usize); 4] = [
        ("balanced-seq", TraceSpec::synthetic(42, 10_000), 0x2b3301bf3f257e08, 39646),
        (
            "membound-random",
            TraceSpec::builder()
                .seed(7)
                .code_seed(3)
                .instructions(10_000)
                .mix(InstructionMix::memory_bound())
                .pattern(AccessPattern::Random)
                .footprint(MemRegion::new(0x2000_0000, 1 << 18))
                .build(),
            0x6c1a8e6d9ae3067b,
            55702,
        ),
        (
            "atomic-gather",
            TraceSpec::builder()
                .seed(11)
                .code_seed(5)
                .instructions(10_000)
                .mix(InstructionMix::atomic_heavy())
                .pattern(AccessPattern::Gather { hot_probability: 0.8, hot_fraction: 0.1 })
                .footprint(MemRegion::new(0x3000_0000, 1 << 16))
                .shared(MemRegion::new(0x4000_0000, 4096))
                .build(),
            0x7649d7c2491151c7,
            51049,
        ),
        (
            "irregular-chase",
            TraceSpec::builder()
                .seed(13)
                .code_seed(9)
                .instructions(10_000)
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::PointerChase)
                .footprint(MemRegion::new(0x5000_0000, 1 << 17))
                .build(),
            0xe3a9b05a1f3b31c4,
            44659,
        ),
    ];
    for (name, spec, checksum, len) in cases {
        let bytes = encode::encode(spec.iter());
        assert_eq!(bytes.len(), len, "{name}: encoded length drifted");
        assert_eq!(fnv(bytes.as_ref()), checksum, "{name}: stream content drifted");
    }
}

fn run_detailed(
    program: &taskpoint_repro::runtime::Program,
    machine: &MachineConfig,
    workers: u32,
    block_capacity: usize,
) -> SimResult {
    Simulation::builder(program, machine.clone())
        .workers(workers)
        .collect_reports(true)
        .block_capacity(block_capacity)
        .build()
        .run(&mut DetailedOnly)
}

/// Everything deterministic in a `SimResult` (wall time excluded).
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
    assert_eq!(a.reports, b.reports, "{what}: per-task reports");
}

/// Pre-refactor golden cycle counts over the spec × machine grid
/// (captured from the per-instruction engine before the block pipeline
/// existed): (benchmark, machine index, workers) →
/// (total_cycles, detailed_tasks, detailed_instructions, invalidations,
/// dram_accesses).
#[test]
fn simulation_results_match_pre_refactor_goldens() {
    /// (benchmark, machine index, workers, total_cycles, detailed_tasks,
    /// detailed_instructions, invalidations, dram_accesses)
    type GoldenCell = (Benchmark, usize, u32, u64, u64, u64, u64, u64);
    let machines =
        [MachineConfig::tiny_test(), MachineConfig::low_power(), MachineConfig::high_performance()];
    #[rustfmt::skip]
    let goldens: [GoldenCell; 18] = [
        (Benchmark::Spmv, 0, 1, 2_141_380, 1024, 482_733, 0, 105_561),
        (Benchmark::Spmv, 0, 4, 607_471, 1024, 482_733, 0, 133_351),
        (Benchmark::Spmv, 1, 1, 3_493_799, 1024, 482_733, 0, 104_502),
        (Benchmark::Spmv, 1, 4, 856_727, 1024, 482_733, 0, 104_502),
        (Benchmark::Spmv, 2, 1, 564_192, 1024, 482_733, 0, 0),
        (Benchmark::Spmv, 2, 4, 138_804, 1024, 482_733, 0, 0),
        (Benchmark::Histogram, 0, 1, 4_684_583, 16_384, 1_105_980, 0, 90_725),
        (Benchmark::Histogram, 0, 4, 1_259_849, 16_384, 1_105_980, 60_875, 90_702),
        (Benchmark::Histogram, 1, 1, 3_436_373, 16_384, 1_105_980, 0, 33_314),
        (Benchmark::Histogram, 1, 4, 973_261, 16_384, 1_105_980, 60_938, 33_314),
        (Benchmark::Histogram, 2, 1, 3_693_382, 16_384, 1_105_980, 0, 33_314),
        (Benchmark::Histogram, 2, 4, 924_852, 16_384, 1_105_980, 61_006, 33_314),
        (Benchmark::Freqmine, 0, 1, 4_727_018, 1932, 1_044_146, 0, 126_298),
        (Benchmark::Freqmine, 0, 4, 921_717, 1932, 1_044_146, 185_358, 80_658),
        (Benchmark::Freqmine, 1, 1, 1_353_827, 1932, 1_044_146, 0, 334),
        (Benchmark::Freqmine, 1, 4, 397_557, 1932, 1_044_146, 73_347, 334),
        (Benchmark::Freqmine, 2, 1, 1_058_451, 1932, 1_044_146, 0, 0),
        (Benchmark::Freqmine, 2, 4, 352_943, 1932, 1_044_146, 75_266, 0),
    ];
    let scale = ScaleConfig::quick();
    let mut programs: std::collections::HashMap<Benchmark, taskpoint_repro::runtime::Program> =
        std::collections::HashMap::new();
    for (bench, machine_idx, workers, cycles, tasks, instrs, invalidations, dram) in goldens {
        let program = programs.entry(bench).or_insert_with(|| bench.generate(&scale));
        let machine = &machines[machine_idx];
        let r = Simulation::builder(program, machine.clone())
            .workers(workers)
            .build()
            .run(&mut DetailedOnly);
        let what = format!("{bench}/{}/{workers}t", machine.name);
        assert_eq!(r.total_cycles, cycles, "{what}: total_cycles");
        assert_eq!(r.detailed_tasks, tasks, "{what}: detailed_tasks");
        assert_eq!(r.detailed_instructions, instrs, "{what}: detailed_instructions");
        assert_eq!(r.invalidations, invalidations, "{what}: invalidations");
        assert_eq!(r.dram_accesses, dram, "{what}: dram_accesses");
    }
}

/// FNV checksum over the complete collected report stream: every field of
/// every [`TaskReport`](taskpoint_repro::sim::TaskReport) in completion
/// order. Far stricter than the aggregate grid above — a single shifted
/// start cycle, worker assignment or concurrency value changes the sum.
fn report_checksum(r: &SimResult) -> u64 {
    let mut bytes = Vec::new();
    for t in &r.reports {
        bytes.extend_from_slice(&t.task.index().to_le_bytes());
        bytes.extend_from_slice(&t.type_id.0.to_le_bytes());
        bytes.extend_from_slice(&t.worker.0.to_le_bytes());
        bytes.extend_from_slice(&t.start.to_le_bytes());
        bytes.extend_from_slice(&t.end.to_le_bytes());
        bytes.extend_from_slice(&t.instructions.to_le_bytes());
        bytes.extend_from_slice(&t.concurrency.to_le_bytes());
    }
    fnv(&bytes)
}

/// Golden grid extension captured from the chunked lockstep engine
/// immediately before the discrete-event refactor: a Cholesky benchmark
/// grid over all three homogeneous machines. The event engine must
/// reproduce every cell exactly — heterogeneity changes what the
/// simulator *can* model, not what it *does* model.
#[test]
fn event_engine_preserves_pre_refactor_cholesky_goldens() {
    /// (benchmark, machine index, workers, total_cycles, detailed_tasks,
    /// detailed_instructions, invalidations, dram_accesses)
    type GoldenCell = (Benchmark, usize, u32, u64, u64, u64, u64, u64);
    let machines =
        [MachineConfig::tiny_test(), MachineConfig::low_power(), MachineConfig::high_performance()];
    #[rustfmt::skip]
    let goldens: [GoldenCell; 6] = [
        (Benchmark::Cholesky, 0, 1, 3_325_737, 19_600, 1_449_669, 0, 36_874),
        (Benchmark::Cholesky, 0, 4, 833_204, 19_600, 1_449_669, 1574, 36_875),
        (Benchmark::Cholesky, 1, 1, 6_272_562, 19_600, 1_449_669, 0, 34_152),
        (Benchmark::Cholesky, 1, 4, 1_571_907, 19_600, 1_449_669, 1547, 34_149),
        (Benchmark::Cholesky, 2, 1, 1_119_812, 19_600, 1_449_669, 0, 0),
        (Benchmark::Cholesky, 2, 4, 282_965, 19_600, 1_449_669, 1596, 0),
    ];
    let program = Benchmark::Cholesky.generate(&ScaleConfig::quick());
    for (bench, machine_idx, workers, cycles, tasks, instrs, invalidations, dram) in goldens {
        let machine = &machines[machine_idx];
        let r = Simulation::builder(&program, machine.clone())
            .workers(workers)
            .build()
            .run(&mut DetailedOnly);
        let what = format!("{bench}/{}/{workers}t", machine.name);
        assert_eq!(r.total_cycles, cycles, "{what}: total_cycles");
        assert_eq!(r.detailed_tasks, tasks, "{what}: detailed_tasks");
        assert_eq!(r.detailed_instructions, instrs, "{what}: detailed_instructions");
        assert_eq!(r.invalidations, invalidations, "{what}: invalidations");
        assert_eq!(r.dram_accesses, dram, "{what}: dram_accesses");
    }
}

/// Report-stream checksums captured from the chunked lockstep engine
/// immediately before the discrete-event refactor. These pin the *entire*
/// per-task timeline (start/end/worker/concurrency of every instance),
/// so any reordering introduced by the event scheduler — even one that
/// leaves aggregate counters intact — fails here.
#[test]
fn event_engine_preserves_pre_refactor_report_streams() {
    let machines =
        [MachineConfig::tiny_test(), MachineConfig::low_power(), MachineConfig::high_performance()];
    #[rustfmt::skip]
    let goldens: [(Benchmark, usize, u32, u64, u64); 4] = [
        (Benchmark::Spmv,      0, 2, 0x3c4185bc0aa688c2, 1_107_927),
        (Benchmark::Cholesky,  1, 4, 0x2d227659ca7aee93, 1_571_907),
        (Benchmark::Histogram, 2, 4, 0xa451b8c889862bb0, 924_852),
        (Benchmark::Freqmine,  0, 1, 0x489d418a2adf1071, 4_727_018),
    ];
    let scale = ScaleConfig::quick();
    for (bench, machine_idx, workers, checksum, cycles) in goldens {
        let program = bench.generate(&scale);
        let r = Simulation::builder(&program, machines[machine_idx].clone())
            .workers(workers)
            .collect_reports(true)
            .build()
            .run(&mut DetailedOnly);
        let what = format!("{bench}/{}/{workers}t", machines[machine_idx].name);
        assert_eq!(r.total_cycles, cycles, "{what}: total_cycles");
        assert_eq!(report_checksum(&r), checksum, "{what}: report stream drifted");
    }
}

/// Block capacity 1 degenerates to per-instruction execution; results of
/// every capacity must coincide bit for bit (chunk boundaries are
/// enforced per instruction, not per block).
#[test]
fn block_capacity_does_not_affect_simulated_timing() {
    let scale = ScaleConfig::quick();
    let cases = [
        (Benchmark::Spmv, MachineConfig::tiny_test(), 1u32),
        (Benchmark::Spmv, MachineConfig::tiny_test(), 4),
        (Benchmark::Spmv, MachineConfig::low_power(), 4),
        (Benchmark::Histogram, MachineConfig::tiny_test(), 4),
    ];
    for (bench, machine, workers) in cases {
        let program = bench.generate(&scale);
        let reference = run_detailed(&program, &machine, workers, 1);
        for capacity in [7usize, 256] {
            let got = run_detailed(&program, &machine, workers, capacity);
            assert_identical(
                &got,
                &reference,
                &format!("{bench}/{}/{workers}t capacity {capacity}", machine.name),
            );
        }
    }
}

/// Attaching telemetry — disabled *or* recording — must not move a single
/// simulated bit: the golden Cholesky cell still reproduces exactly, and
/// the recording run's result is identical to the unobserved run's,
/// per-task reports included. (The observer only watches; the no-op sink
/// compiles to nothing and the recording sink only copies events out.)
#[test]
fn telemetry_does_not_perturb_golden_results() {
    use taskpoint_repro::sim::Telemetry;
    let program = Benchmark::Cholesky.generate(&ScaleConfig::quick());
    let machine = MachineConfig::tiny_test();
    let plain = run_detailed(&program, &machine, 4, 256);
    assert_eq!(plain.total_cycles, 833_204, "golden cell (pre-telemetry capture)");
    for telemetry in [Telemetry::disabled(), Telemetry::recording()] {
        let recording = telemetry.is_recording();
        let observed = Simulation::builder(&program, machine.clone())
            .workers(4)
            .collect_reports(true)
            .telemetry(telemetry.clone())
            .build()
            .run(&mut DetailedOnly);
        assert_identical(&observed, &plain, if recording { "recording" } else { "disabled" });
        let report = telemetry.take_report();
        assert_eq!(report.is_some(), recording);
        if let Some(report) = report {
            assert!(!report.events.is_empty(), "recording run captured events");
        }
    }
}

/// The always-on cycle accounting is observation, not perturbation: on
/// every golden cell the per-group `CycleAccount` taxonomy sums exactly
/// to total core ticks (busy + idle = total_cycles × cores), while the
/// golden cycle counts themselves stay untouched (asserted against the
/// same pre-refactor grid as `simulation_results_match_pre_refactor_goldens`).
#[test]
fn cycle_accounting_sums_to_total_on_golden_cells() {
    let machines =
        [MachineConfig::tiny_test(), MachineConfig::low_power(), MachineConfig::high_performance()];
    // Golden cycle counts from the pre-refactor grid above (one cell per
    // benchmark × machine at both worker counts), plus a heterogeneous
    // machine where accounting must split per group.
    #[rustfmt::skip]
    let goldens: [(Benchmark, usize, u32, u64); 6] = [
        (Benchmark::Spmv,      0, 1, 2_141_380),
        (Benchmark::Spmv,      2, 4,   138_804),
        (Benchmark::Histogram, 1, 1, 3_436_373),
        (Benchmark::Histogram, 2, 4,   924_852),
        (Benchmark::Freqmine,  0, 4,   921_717),
        (Benchmark::Freqmine,  1, 1, 1_353_827),
    ];
    let scale = ScaleConfig::quick();
    for (bench, machine_idx, workers, cycles) in goldens {
        let program = bench.generate(&scale);
        let machine = &machines[machine_idx];
        let r = run_detailed(&program, machine, workers, 256);
        let what = format!("{bench}/{}/{workers}t", machine.name);
        assert_eq!(r.total_cycles, cycles, "{what}: golden cycles moved");
        assert!(!r.cycle_accounts.is_empty(), "{what}: accounting always on");
        let mut cores = 0u32;
        for acct in &r.cycle_accounts {
            assert_eq!(
                acct.total(),
                r.total_cycles * acct.cores as u64,
                "{what}[{}]: taxonomy must sum to busy+idle ticks",
                acct.name
            );
            assert_eq!(acct.busy(), acct.total() - acct.idle, "{what}[{}]: busy", acct.name);
            cores += acct.cores;
        }
        assert_eq!(cores, workers, "{what}: account groups cover every core");
        // Percentiles are always on too: every detailed task contributed.
        assert_eq!(r.task_latency.count, r.detailed_tasks + r.fast_tasks, "{what}: latency count");
        assert!(r.task_latency.p50 <= r.task_latency.p99, "{what}: p50<=p99");
        assert!(r.task_latency.p99 <= r.task_latency.p999, "{what}: p99<=p999");
    }
    // Heterogeneous: one account per core group, same invariant.
    let program = Benchmark::Cholesky.generate(&scale);
    let machine = MachineConfig::big_little(2, 2);
    let r = run_detailed(&program, &machine, 4, 256);
    assert_eq!(r.cycle_accounts.len(), 2, "one account per hetero group");
    assert_eq!(r.cycle_accounts[0].name, "big");
    assert_eq!(r.cycle_accounts[1].name, "little");
    for acct in &r.cycle_accounts {
        assert_eq!(
            acct.total(),
            r.total_cycles * acct.cores as u64,
            "hetero[{}]: taxonomy must sum to busy+idle ticks",
            acct.name
        );
    }
}

/// A simulation driven by recorded traces (binary `encode` format through
/// `RecordedTraces`) reproduces the procedural run bit for bit.
#[test]
fn recorded_traces_reproduce_the_procedural_run() {
    let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
    let machine = MachineConfig::tiny_test();
    let recorded = RecordedTraces::record_program(&program);
    recorded.verify_against(&program).expect("recording matches program");
    let procedural = run_detailed(&program, &machine, 2, 256);
    let replayed = Simulation::builder(&program, machine)
        .workers(2)
        .collect_reports(true)
        .traces(Box::new(recorded))
        .build()
        .run(&mut DetailedOnly);
    assert_identical(&replayed, &procedural, "recorded vs procedural");
}

/// Full-scale lazy-sampled goldens on the high-performance machine with 8
/// workers, captured from the engine that prewarmed the last level by
/// replaying every line through `access` and recomputed the distinct data
/// regions on every run. Cholesky and n-body fit the last level (prewarm
/// does its full work: every shared-level access hits), vector-operation
/// does not (nothing is prewarmed, every shared access misses). The cells
/// pin cycles, task and instruction counts, per-level cache counters and
/// the task-latency percentiles.
#[test]
fn full_scale_sampled_runs_match_goldens() {
    use taskpoint_repro::taskpoint::{TaskPointConfig, TaskPointController};
    struct Golden {
        bench: Benchmark,
        cycles: u64,
        /// (detailed tasks, fast tasks, detailed instructions, fast instructions)
        work: (u64, u64, u64, u64),
        invalidations: u64,
        dram: u64,
        /// (hits, misses) of each private level, then of each shared level.
        private: [(u64, u64); 2],
        shared: [(u64, u64); 1],
        /// (count, p50, p99, p999) task latency in cycles.
        latency: (u64, f64, f64, f64),
    }
    #[rustfmt::skip]
    let goldens = [
        Golden {
            bench: Benchmark::Cholesky, cycles: 2_038_907,
            work: (104, 19_496, 146_702, 28_845_745), invalidations: 0, dram: 0,
            private: [(22_650, 1627), (0, 1627)], shared: [(1627, 0)],
            latency: (19_600, 836.0, 849.0, 849.0),
        },
        Golden {
            bench: Benchmark::Vecop, cycles: 4_581_780,
            work: (46, 16_354, 68_540, 24_367_460), invalidations: 0, dram: 2209,
            private: [(32_199, 2209), (0, 2209)], shared: [(0, 2209)],
            latency: (16_400, 2235.0, 2235.0, 2235.0),
        },
        Golden {
            bench: Benchmark::Nbody, cycles: 3_138_890,
            work: (128, 24_872, 101_160, 23_898_201), invalidations: 161, dram: 0,
            private: [(25_270, 11_918), (22, 11_896)], shared: [(11_896, 0)],
            latency: (25_000, 931.5, 1854.0, 1856.0),
        },
    ];
    let counters = |levels: &[taskpoint_repro::sim::LevelStats]| -> Vec<(u64, u64)> {
        levels.iter().map(|s| (s.hits, s.misses)).collect()
    };
    for g in goldens {
        let program = g.bench.generate(&ScaleConfig::new());
        let r = Simulation::builder(&program, MachineConfig::high_performance())
            .workers(8)
            .build()
            .run(&mut TaskPointController::new(TaskPointConfig::lazy()));
        let what = format!("{}/full/high-perf/8t lazy", g.bench);
        assert_eq!(r.total_cycles, g.cycles, "{what}: total_cycles");
        let work = (r.detailed_tasks, r.fast_tasks, r.detailed_instructions, r.fast_instructions);
        assert_eq!(work, g.work, "{what}: task and instruction counts");
        assert_eq!(r.invalidations, g.invalidations, "{what}: invalidations");
        assert_eq!(r.dram_accesses, g.dram, "{what}: dram_accesses");
        assert_eq!(counters(&r.private_cache), g.private, "{what}: private cache counters");
        assert_eq!(counters(&r.shared_cache), g.shared, "{what}: shared cache counters");
        let l = &r.task_latency;
        assert_eq!((l.count, l.p50, l.p99, l.p999), g.latency, "{what}: latency percentiles");
    }
}
