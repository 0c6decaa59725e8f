//! Periodic vs lazy sampling — the paper's §V-C comparison on a single
//! benchmark, across sampling periods.
//!
//! Shows the trade-off the paper summarizes as "lazy sampling achieves much
//! greater speedup than periodic sampling at a comparable error": sweeps
//! P ∈ {10, 50, 250, 1000, ∞} on the n-body kernel and prints error,
//! speedup and detail fraction for each.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use taskpoint_repro::sim::{DetailedOnly, MachineConfig, Simulation};
use taskpoint_repro::taskpoint::{self, ExperimentOutcome, SamplingPolicy, TaskPointConfig};
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn main() {
    let program = Benchmark::Nbody.generate(&ScaleConfig::new());
    let machine = MachineConfig::high_performance();
    let workers = 16;

    let sim = || Simulation::builder(&program, machine.clone()).workers(workers).build();
    let reference = sim().run(&mut DetailedOnly);
    println!(
        "{} @{workers} threads: reference {} cycles ({:.2}s)\n",
        program.name(),
        reference.total_cycles,
        reference.wall_seconds
    );
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10}",
        "policy", "error%", "speedup", "detail%", "resamples"
    );

    let mut configs: Vec<(String, TaskPointConfig)> = [10u64, 50, 250, 1000]
        .into_iter()
        .map(|p| {
            (
                format!("P={p}"),
                TaskPointConfig::periodic().with_policy(SamplingPolicy::Periodic { period: p }),
            )
        })
        .collect();
    configs.push(("lazy".to_string(), TaskPointConfig::lazy()));
    // The confidence-driven policy at three CI targets: the error/speedup
    // frontier the accuracy subsystem adds on top of the paper's policies.
    for target in [0.10, 0.05, 0.02] {
        configs.push((format!("ci={:.0}%", 100.0 * target), TaskPointConfig::adaptive(target)));
    }

    for (name, config) in configs {
        let sampled = taskpoint::run(sim(), config);
        let (outcome, stats) =
            (ExperimentOutcome::compare(&sampled.result, &reference), sampled.stats);
        println!(
            "{:<10} {:>8.2} {:>9.1}x {:>9.2}% {:>10}",
            name,
            outcome.error_percent,
            outcome.speedup,
            100.0 * outcome.detail_fraction,
            stats.resamples.len()
        );
    }
    println!("\nExpected shape (paper Fig. 6c): error and speedup both grow with P;");
    println!("lazy (P=inf) maximizes speedup at comparable error.");
}
