//! Building and sampling a custom task-based program with the public API.
//!
//! Models a small producer/consumer pipeline that is *not* part of the
//! paper's suite: a "decode" stage fans out into parallel "filter" tasks
//! which a "merge" stage folds back, per frame. Shows how to declare task
//! types, region dependences and per-type trace characteristics, then runs
//! TaskPoint on it.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use taskpoint_repro::runtime::{Program, RegionAccess};
use taskpoint_repro::sim::{DetailedOnly, MachineConfig, Simulation};
use taskpoint_repro::taskpoint::{self, TaskPointConfig};
use taskpoint_repro::trace::{AccessPattern, InstructionMix, TraceSpec};
use taskpoint_repro::workloads::AddressAllocator;

fn main() {
    const FRAMES: u64 = 300;
    const FILTERS: u64 = 12;

    let mut b = Program::builder("video-pipeline");
    let decode_ty = b.add_type("decode");
    let filter_ty = b.add_type("filter");
    let merge_ty = b.add_type("merge");
    let mut alloc = AddressAllocator::new();

    for frame in 0..FRAMES {
        let raw = alloc.alloc_lines(64 * 1024);
        let decode_trace = TraceSpec::builder()
            .seed(frame * 101)
            .code_seed(1)
            .instructions(2_000)
            .mix(InstructionMix::irregular_int())
            .pattern(AccessPattern::sequential(16))
            .footprint(raw)
            .branch_mispredict_rate(0.03)
            .build();
        b.add_task(decode_ty, decode_trace, &[RegionAccess::output(raw)]);

        let mut tiles = Vec::new();
        for f in 0..FILTERS {
            let tile = alloc.alloc_lines(16 * 1024);
            let filter_trace = TraceSpec::builder()
                .seed(frame * 101 + f + 1)
                .code_seed(2)
                .instructions(1_200)
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::strided(128, 2))
                .footprint(tile)
                .build();
            b.add_task(
                filter_ty,
                filter_trace,
                &[RegionAccess::input(raw), RegionAccess::output(tile)],
            );
            tiles.push(tile);
        }

        let out = alloc.alloc_lines(8 * 1024);
        let mut accesses = vec![RegionAccess::output(out)];
        accesses.extend(tiles.iter().map(|&t| RegionAccess::input(t)));
        let merge_trace = TraceSpec::builder()
            .seed(frame * 101 + 99)
            .code_seed(3)
            .instructions(800)
            .mix(InstructionMix::memory_bound())
            .pattern(AccessPattern::sequential(8))
            .footprint(out)
            .build();
        b.add_task(merge_ty, merge_trace, &accesses);
    }
    let program = b.build();
    println!(
        "{}: {} types, {} instances, DAG depth {}",
        program.name(),
        program.num_types(),
        program.num_instances(),
        program.graph().critical_path_len()
    );

    let machine = MachineConfig::low_power();
    let sim = || Simulation::builder(&program, machine.clone()).workers(4).build();
    let reference = sim().run(&mut DetailedOnly);
    let taskpoint::RunOutcome { result: sampled, stats, .. } =
        taskpoint::run(sim(), TaskPointConfig::periodic());
    let error = 100.0
        * ((sampled.total_cycles as f64 - reference.total_cycles as f64)
            / reference.total_cycles as f64)
            .abs();
    println!(
        "reference {} cycles | sampled {} cycles | error {error:.2}% | speedup {:.1}x",
        reference.total_cycles,
        sampled.total_cycles,
        reference.wall_seconds / sampled.wall_seconds
    );
    println!(
        "sampling: {} detailed, {} fast, {} resamples",
        stats.detailed_tasks,
        stats.fast_tasks,
        stats.resamples.len()
    );
}
