//! Criterion micro-benchmarks of the two simulation modes — the source of
//! TaskPoint's speedup: detailed mode costs per *instruction*, burst mode
//! costs per *task*.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use taskpoint_runtime::Program;
use taskpoint_trace::TraceSpec;
use tasksim::{DetailedOnly, FixedIpc, MachineConfig, Simulation};

fn program(tasks: u64, instrs: u64) -> Program {
    let mut b = Program::builder("bench");
    let ty = b.add_type("work");
    for i in 0..tasks {
        b.add_task(ty, TraceSpec::synthetic(i, instrs), &[]);
    }
    b.build()
}

fn detailed_mode(c: &mut Criterion) {
    let mut g = c.benchmark_group("detailed_mode");
    g.sample_size(10);
    for &instrs in &[500u64, 2000] {
        let p = program(64, instrs);
        g.throughput(Throughput::Elements(64 * instrs));
        g.bench_with_input(BenchmarkId::new("instructions", instrs), &p, |b, p| {
            b.iter(|| {
                Simulation::builder(p, MachineConfig::high_performance())
                    .workers(4)
                    .build()
                    .run(&mut DetailedOnly)
                    .total_cycles
            })
        });
    }
    g.finish();
}

fn burst_mode(c: &mut Criterion) {
    let mut g = c.benchmark_group("burst_mode");
    g.sample_size(20);
    for &tasks in &[1_000u64, 10_000] {
        let p = program(tasks, 2000);
        g.throughput(Throughput::Elements(tasks));
        g.bench_with_input(BenchmarkId::new("tasks", tasks), &p, |b, p| {
            b.iter(|| {
                Simulation::builder(p, MachineConfig::high_performance())
                    .workers(4)
                    .build()
                    .run(&mut FixedIpc(2.0))
                    .total_cycles
            })
        });
    }
    g.finish();
}

fn sampling_controller_overhead(c: &mut Criterion) {
    use taskpoint::{TaskPointConfig, TaskPointController};
    let p = program(10_000, 2000);
    let mut g = c.benchmark_group("taskpoint_controller");
    g.sample_size(10);
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("lazy_sampled_run", |b| {
        b.iter(|| {
            let mut controller = TaskPointController::new(TaskPointConfig::lazy());
            Simulation::builder(&p, MachineConfig::high_performance())
                .workers(4)
                .build()
                .run(&mut controller)
                .total_cycles
        })
    });
    g.finish();
}

criterion_group!(benches, detailed_mode, burst_mode, sampling_controller_overhead);
criterion_main!(benches);
