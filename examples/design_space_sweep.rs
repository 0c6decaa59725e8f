//! Design-space exploration — the use case the paper recommends lazy
//! sampling for ("evaluations requiring a large number of simulations,
//! e.g. during the early phase of design space exploration").
//!
//! Sweeps L2 size and ROB size of the high-performance machine across a
//! 3×3 grid and ranks the designs by simulated execution time of the
//! cholesky benchmark — all with sampled simulation, so the whole grid
//! costs about as much as one detailed run.
//!
//! ```sh
//! cargo run --release --example design_space_sweep
//! ```

use taskpoint_repro::sim::{MachineConfig, Simulation};
use taskpoint_repro::taskpoint::{self, TaskPointConfig};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn main() {
    let program = Benchmark::Cholesky.generate(&ScaleConfig::new());
    let workers = 8;

    let mut results: Vec<(String, u64, f64)> = Vec::new();
    let mut total_wall = 0.0;
    for rob in [64u32, 168, 256] {
        for l2_kb in [512u64, 2048, 4096] {
            let mut machine = MachineConfig::high_performance();
            machine.core.rob_size = rob;
            machine.caches[1].size_bytes = l2_kb * 1024;
            machine.name = format!("rob{rob}-l2_{l2_kb}k");
            let sim = Simulation::builder(&program, machine.clone()).workers(workers).build();
            let result = taskpoint::run(sim, TaskPointConfig::lazy()).result;
            total_wall += result.wall_seconds;
            results.push((machine.name, result.total_cycles, result.wall_seconds));
        }
    }

    results.sort_by_key(|r| r.1);
    println!("design ranking for {} @{workers} threads (best first):", program.name());
    for (i, (name, cycles, wall)) in results.iter().enumerate() {
        println!("  {:>2}. {name:<16} {cycles:>12} cycles   (simulated in {wall:.2}s)", i + 1);
    }
    println!("\nwhole 9-point design space explored in {total_wall:.2}s of host time");

    // Sanity expectations: bigger ROB and bigger L2 should not hurt.
    let best = &results[0].0;
    assert!(
        best.contains("rob256") || best.contains("rob168"),
        "a large-ROB design should win, got {best}"
    );
}
