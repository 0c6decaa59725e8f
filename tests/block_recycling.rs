//! Allocation discipline of the detailed hot path's instruction blocks.
//!
//! The engine keeps one `InstBlock` per worker and recycles it across
//! task boundaries (`Worker::spare_block`): a finished task's
//! block is cleared and handed to the worker's next detailed task. This
//! file pins that discipline with the process-wide construction counter
//! `InstBlock::blocks_allocated()`.
//!
//! It deliberately contains a single `#[test]`: integration tests in one
//! binary run concurrently in one process, and any other test allocating
//! blocks would race the counter deltas measured here.

use taskpoint_repro::runtime::Program;
use taskpoint_repro::sim::{DetailedOnly, MachineConfig, SimResult, Simulation};
use taskpoint_repro::trace::{InstBlock, TraceSpec};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn wide_program(tasks: u64) -> Program {
    let mut b = Program::builder("wide");
    let ty = b.add_type("work");
    for i in 0..tasks {
        b.add_task(ty, TraceSpec::synthetic(i, 2_000), &[]);
    }
    b.build()
}

fn run_counting(program: &Program, workers: u32) -> (SimResult, u64) {
    let before = InstBlock::blocks_allocated();
    let result = Simulation::builder(program, MachineConfig::tiny_test())
        .workers(workers)
        .build()
        .run(&mut DetailedOnly);
    (result, InstBlock::blocks_allocated() - before)
}

#[test]
fn workers_recycle_one_block_across_all_task_boundaries() {
    // Exactly one block per worker, no matter how many tasks cross each
    // worker — every boundary reuses the spare.
    let wide = wide_program(64);
    for workers in [1u32, 2, 4] {
        for round in 0..2 {
            let (result, allocated) = run_counting(&wide, workers);
            assert_eq!(result.detailed_tasks, 64);
            assert_eq!(
                allocated,
                u64::from(workers),
                "{workers} workers, round {round}: the engine must allocate \
                 exactly one block per worker and recycle it"
            );
        }
    }

    // A benchmark with a dependency DAG takes the same bound — recycling
    // must not depend on the program shape.
    let cholesky = Benchmark::Cholesky.generate(&ScaleConfig::quick());
    let (result, allocated) = run_counting(&cholesky, 4);
    assert!(result.detailed_tasks > 1_000);
    assert_eq!(allocated, 4, "cholesky/4 workers: one block per worker");
}
