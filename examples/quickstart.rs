//! Quickstart: sampled simulation of one benchmark in a dozen lines.
//!
//! Runs the sparse-matrix-vector kernel on the paper's high-performance
//! machine with 8 simulated threads, once in full detail and once with
//! TaskPoint's lazy sampling, and compares the two.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use taskpoint_repro::sim::{DetailedOnly, MachineConfig, Simulation};
use taskpoint_repro::taskpoint::{self, TaskPointConfig};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn main() {
    // 1. Generate a task-based program (1,024 row-block tasks, Table I).
    let program = Benchmark::Spmv.generate(&ScaleConfig::new());
    println!(
        "program: {} — {} task types, {} task instances, {:.1}M instructions",
        program.name(),
        program.num_types(),
        program.num_instances(),
        program.total_instructions() as f64 / 1e6
    );

    let machine = MachineConfig::high_performance();

    // 2. Full detailed reference simulation (every instruction through the
    //    ROB-occupancy core model and the cache hierarchy).
    let reference =
        Simulation::builder(&program, machine.clone()).workers(8).build().run(&mut DetailedOnly);
    println!(
        "reference: {} cycles in {:.2}s of host time",
        reference.total_cycles, reference.wall_seconds
    );

    // 3. TaskPoint sampled simulation (lazy policy: sample once, then
    //    fast-forward every instance at its task type's mean IPC).
    let sim = Simulation::builder(&program, machine).workers(8).build();
    let taskpoint::RunOutcome { result: sampled, stats, .. } =
        taskpoint::run(sim, TaskPointConfig::lazy());
    println!(
        "sampled:   {} cycles in {:.2}s of host time ({} detailed / {} fast tasks)",
        sampled.total_cycles, sampled.wall_seconds, stats.detailed_tasks, stats.fast_tasks
    );

    // 4. The two numbers the paper reports per benchmark.
    let error = 100.0
        * ((sampled.total_cycles as f64 - reference.total_cycles as f64)
            / reference.total_cycles as f64)
            .abs();
    let speedup = reference.wall_seconds / sampled.wall_seconds;
    println!("error {error:.2}%  speedup {speedup:.1}x");
}
