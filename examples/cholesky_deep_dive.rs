//! Deep dive into one workload: what TaskPoint actually does during a
//! sampled simulation of the 48-tile blocked Cholesky factorization.
//!
//! Prints the task-type inventory, the DAG shape, the controller's phase
//! transitions, per-type sample counts and the final accuracy — a guided
//! tour of the methodology on the paper's most classical dependence
//! structure (potrf/trsm/syrk/gemm).
//!
//! ```sh
//! cargo run --release --example cholesky_deep_dive
//! ```

use taskpoint_repro::sim::{DetailedOnly, MachineConfig, Simulation};
use taskpoint_repro::taskpoint::{self, TaskPointConfig};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn main() {
    let program = Benchmark::Cholesky.generate(&ScaleConfig::new());
    let graph = program.graph();

    println!("== workload structure ==");
    let per_type = program.instances_per_type();
    let instr_per_type = program.instructions_per_type();
    for ty in program.types() {
        let i = ty.id().0 as usize;
        println!(
            "  {:<6} {:>6} instances, {:>5.1}M instructions",
            ty.name(),
            per_type[i],
            instr_per_type[i] as f64 / 1e6
        );
    }
    println!(
        "  DAG: {} edges, critical path {} tasks deep",
        graph.edge_count(),
        graph.critical_path_len()
    );

    let machine = MachineConfig::high_performance();
    let workers = 16;

    println!("\n== detailed reference ({workers} threads) ==");
    let sim = || Simulation::builder(&program, machine.clone()).workers(workers).build();
    let reference = sim().run(&mut DetailedOnly);
    println!(
        "  {} cycles, {:.2}s host time, {} DRAM fetches, {} invalidations",
        reference.total_cycles,
        reference.wall_seconds,
        reference.dram_accesses,
        reference.invalidations
    );

    println!("\n== TaskPoint sampled run (periodic, P=250) ==");
    let taskpoint::RunOutcome { result: sampled, stats, .. } =
        taskpoint::run(sim(), TaskPointConfig::periodic());
    println!(
        "  {} cycles, {:.2}s host time, {:.2}% of instructions in detail",
        sampled.total_cycles,
        sampled.wall_seconds,
        100.0 * sampled.detail_fraction()
    );
    println!("  phase transitions (first 10):");
    for (time, phase) in stats.phase_log.iter().take(10) {
        println!("    cycle {time:>9}: {phase:?}");
    }
    println!("  resamples: {}", stats.resamples.len());
    println!("  valid samples measured per type:");
    let mut per_type: Vec<(u32, u64)> = stats.valid_samples.iter().map(|(&t, &n)| (t, n)).collect();
    per_type.sort_unstable();
    for (ty, n) in per_type {
        println!("    {:<6} {n}", program.types()[ty as usize].name());
    }

    let error = 100.0
        * ((sampled.total_cycles as f64 - reference.total_cycles as f64)
            / reference.total_cycles as f64)
            .abs();
    println!("\nerror {error:.2}%  speedup {:.1}x", reference.wall_seconds / sampled.wall_seconds);
}
