//! Heterogeneous big.LITTLE simulation — mixed-frequency core groups on
//! the discrete-event engine.
//!
//! Builds the big-little preset (2 big out-of-order cores at full clock
//! plus 2 in-order-ish little cores at clock divider 2, sharing the L2),
//! runs cholesky in full detail, prints the per-group cycle/IPC split
//! from `SimResult::groups`, then shows that TaskPoint sampling works
//! unchanged on the heterogeneous machine.
//!
//! ```sh
//! cargo run --release --example heterogeneous
//! ```

use taskpoint_repro::sim::{DetailedOnly, MachineConfig, Simulation};
use taskpoint_repro::taskpoint::{self, ExperimentOutcome, TaskPointConfig};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn main() {
    let program = Benchmark::Cholesky.generate(&ScaleConfig::quick());
    let machine = MachineConfig::big_little(2, 2);
    let workers = machine.total_group_cores().expect("big.LITTLE preset defines core groups");

    let sim = || Simulation::builder(&program, machine.clone()).workers(workers).build();
    let reference = sim().run(&mut DetailedOnly);
    println!(
        "{} on {} ({} workers): {} cycles, {} tasks in detail\n",
        program.name(),
        machine.name,
        workers,
        reference.total_cycles,
        reference.detailed_tasks
    );

    // The per-group split: busy cycles are core-local (the little group's
    // base-clock busy ticks divided by its clock divider), so IPC is
    // comparable across groups running at different frequencies.
    println!(
        "{:<8} {:>5} {:>8} {:>6} {:>12} {:>12} {:>6}",
        "group", "cores", "divider", "tasks", "instructions", "busy cycles", "ipc"
    );
    for g in &reference.groups {
        println!(
            "{:<8} {:>5} {:>8} {:>6} {:>12} {:>12} {:>6.2}",
            g.name,
            g.cores,
            g.clock_divider,
            g.detailed_tasks,
            g.instructions,
            g.busy_core_cycles(),
            g.ipc()
        );
    }

    // Sampling works unchanged on heterogeneous machines: the controller
    // samples per task type and fast-forwards wherever instances land.
    println!();
    for (label, config) in
        [("lazy", TaskPointConfig::lazy()), ("adaptive ci=5%", TaskPointConfig::adaptive(0.05))]
    {
        let sampled = taskpoint::run(sim(), config);
        let (outcome, stats) =
            (ExperimentOutcome::compare(&sampled.result, &reference), sampled.stats);
        println!(
            "{:<14} error {:>6.2}%  speedup {:>5.1}x  detail {:>5.1}%  fast tasks {}",
            label,
            outcome.error_percent,
            outcome.speedup,
            100.0 * outcome.detail_fraction,
            stats.fast_tasks
        );
    }

    println!("\nExpected shape: each little-core cycle costs 2 base-clock ticks, so the");
    println!("little group finishes fewer tasks per unit time and the scheduler's");
    println!("idle-core preference pushes most work onto the big cores. (Per *local*");
    println!("cycle the little group can even look better: memory latency halves in");
    println!("core-local cycles at divider 2.)");
}
