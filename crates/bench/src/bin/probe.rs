//! Quick end-to-end probe: one benchmark, both policies, plus the
//! detailed-mode instructions/sec throughput of the reference run.
//! Used during development to sanity-check accuracy, speedup and host
//! simulation speed.
//!
//! ```text
//! probe [BENCH] [WORKERS] [--runs N] [--quick]
//! ```
//!
//! Throughput is measured over `--runs` (default 3) *fresh* reference
//! simulations — never a cached timing — and reported as min/median/max,
//! because single-run wall-clock on a shared host scatters by tens of
//! percent. To measure or compare host performance, use the repository
//! benchmark (`perfbench/`, run by the `BENCHMARK.json` command).

use taskpoint::TaskPointConfig;
use taskpoint_bench::{Harness, RunScale};
use taskpoint_stats::percentile;
use taskpoint_workloads::Benchmark;
use tasksim::{DetailedOnly, MachineConfig, Simulation};

struct ProbeArgs {
    bench: Benchmark,
    workers: u32,
    runs: usize,
}

fn parse_args() -> ProbeArgs {
    let mut parsed = ProbeArgs { bench: Benchmark::Cholesky, workers: 8, runs: 3 };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = 0;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(v) => v.clone(),
            None => {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            }
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {} // consumed by RunScale::from_env_and_args
            "--runs" => {
                let v = value(&args, &mut i, "--runs");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => parsed.runs = n,
                    _ => {
                        eprintln!("error: --runs needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            other if !other.starts_with("--") => {
                match positional {
                    0 => match Benchmark::by_name(other) {
                        Some(b) => parsed.bench = b,
                        None => {
                            eprintln!("error: unknown benchmark {other:?}");
                            std::process::exit(2);
                        }
                    },
                    1 => match other.parse::<u32>() {
                        Ok(w) if w > 0 => parsed.workers = w,
                        _ => {
                            eprintln!("error: WORKERS needs a positive integer, got {other:?}");
                            std::process::exit(2);
                        }
                    },
                    _ => {
                        eprintln!("error: unexpected argument {other:?}");
                        std::process::exit(2);
                    }
                }
                positional += 1;
            }
            other => {
                eprintln!("error: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    parsed
}

fn main() {
    let ProbeArgs { bench, workers, runs } = parse_args();
    let scale = RunScale::from_env_or_exit();
    let h = Harness::new(scale.scale_config());
    let machine = MachineConfig::high_performance();
    let t0 = std::time::Instant::now();
    let program = h.program(bench);

    // Fresh, uncached reference runs: the first doubles as the displayed
    // reference; the batch feeds the throughput spread.
    let mut throughputs_minstr: Vec<f64> = Vec::with_capacity(runs);
    let mut reference = None;
    for _ in 0..runs {
        let result = Simulation::builder(&program, machine.clone())
            .workers(workers)
            .build()
            .run(&mut DetailedOnly);
        if let Some(ips) = result.detailed_instr_per_sec() {
            throughputs_minstr.push(ips / 1e6);
        }
        reference.get_or_insert(result);
    }
    let reference = reference.expect("at least one reference run");
    println!(
        "{bench} @{workers}t reference: {} cycles, {:.2}s wall, {} tasks, {:.1}M instr",
        reference.total_cycles,
        reference.wall_seconds,
        reference.detailed_tasks,
        reference.total_instructions() as f64 / 1e6
    );
    if let Some(median) = percentile(&throughputs_minstr, 50.0) {
        let min = throughputs_minstr.iter().copied().fold(f64::INFINITY, f64::min);
        let max = throughputs_minstr.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  detailed-mode throughput: min {min:.2} / median {median:.2} / max {max:.2} \
             Minstr/s over {} runs",
            throughputs_minstr.len()
        );
    } else {
        println!("  detailed-mode throughput: n/a");
    }

    for (name, cfg) in
        [("lazy", TaskPointConfig::lazy()), ("periodic", TaskPointConfig::periodic())]
    {
        let cell = h.cell(bench, &machine, workers, cfg);
        println!(
            "  {name:<9} err {:6.2}%  speedup {:8.1}x  detail {:5.2}%  resamples {}{}",
            cell.outcome.error_percent,
            cell.outcome.speedup,
            100.0 * cell.outcome.detail_fraction,
            cell.metrics.resamples,
            if cell.cached { "  (cached)" } else { "" }
        );
        println!(
            "            causes: policy {} newtype {} conc {} empty {}",
            cell.metrics.resamples_policy,
            cell.metrics.resamples_new_type,
            cell.metrics.resamples_concurrency,
            cell.metrics.resamples_empty
        );
    }
    println!("total probe time {:.1}s", t0.elapsed().as_secs_f64());
}
