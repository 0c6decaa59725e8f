//! Concurrency-aware cluster re-opening, end to end through the engine.
//!
//! Both accuracy controllers keep per-concurrency-band moments and re-open
//! a converged cluster when the live concurrency shifts into a band whose
//! interval misses the target (the adaptive analogue of the paper's
//! Fig. 4a concurrency-change trigger). The contract pinned here:
//!
//! 1. A program whose parallelism *ramps* — a serial chain followed by
//!    wide barrier layers — triggers at least one `ClusterReopened` per
//!    shifted band, for the adaptive and the stratified controller alike.
//! 2. A *constant-concurrency* program (the chain alone) triggers zero
//!    re-opens: band re-opening must never fire spuriously.
//! 3. Telemetry accounting balances: per cluster the fidelity stream
//!    alternates `converged` / `reopened`, so the event counts satisfy
//!    `converged == reopened + #(clusters ending converged, not forced)`,
//!    and the `reopened` line count equals the end-of-run report's
//!    re-opened band tally.

use taskpoint_repro::accuracy::{
    concurrency_band, AdaptiveController, StratifiedController, TaskPointConfig,
};
use taskpoint_repro::runtime::{AccessMode, Program, RegionAccess};
use taskpoint_repro::sim::{MachineConfig, ModeController, SimResult, Simulation, Telemetry};
use taskpoint_repro::trace::{AccessPattern, InstructionMix, MemRegion, TraceSpec};

/// A layered fork–join program with a *per-layer* width: layer `k` holds
/// `widths[k]` mutually independent tasks, and every task of layer `k+1`
/// reads what all of layer `k` wrote. The per-layer width lets the live
/// concurrency be ramped mid-program: a prefix of width-1 layers
/// is a serial chain (concurrency pinned at 1), a suffix of width-`w`
/// layers sweeps assignment-time concurrency through `1..=w`.
fn ramp_program(widths: &[u32], instructions: u64, seed: u64) -> Program {
    let mut b = Program::builder("ramp");
    let ty = b.add_type("work");
    let region = |slot: u32| MemRegion::new(0x6000_0000 + u64::from(slot) * 0x10_0000, 4096);
    let mut slot = 0u32;
    let mut prev_layer: Vec<u32> = Vec::new();
    for &width in widths {
        let mut this_layer = Vec::with_capacity(width as usize);
        for _ in 0..width {
            let trace = TraceSpec::builder()
                .seed(seed ^ (u64::from(slot) << 8))
                .code_seed(seed.rotate_left(17))
                .instructions(instructions)
                .mix(InstructionMix::compute_bound())
                .pattern(AccessPattern::sequential(8))
                .footprint(region(slot))
                .build();
            let mut accesses = vec![RegionAccess::new(region(slot), AccessMode::Out)];
            for &p in &prev_layer {
                accesses.push(RegionAccess::new(region(p), AccessMode::In));
            }
            b.add_task(ty, trace, &accesses);
            this_layer.push(slot);
            slot += 1;
        }
        prev_layer = this_layer;
    }
    b.build()
}

/// A serial chain followed by wide barrier layers: concurrency holds at 1,
/// then repeatedly sweeps `1..=4` (bands 0, 1 and 2).
fn ramp_widths() -> Vec<u32> {
    let mut widths = vec![1u32; 10];
    widths.extend([4u32; 8]);
    widths
}

fn run<C: ModeController>(program: &Program, workers: u32, controller: &mut C) -> SimResult {
    Simulation::builder(program, MachineConfig::tiny_test())
        .workers(workers)
        .build()
        .run(controller)
}

fn fidelity_lines(telemetry: &Telemetry, action: &str) -> usize {
    let text = telemetry.take_report().expect("recording handle yields a report").canonical_text();
    text.lines().filter(|l| l.contains(&format!("action={action}"))).count()
}

/// All four fidelity-accounting counts of one observed run.
struct FidelityCounts {
    converged: usize,
    reopened: usize,
    rare: usize,
}

fn fidelity_counts(telemetry: &Telemetry) -> FidelityCounts {
    let text = telemetry.take_report().expect("recording handle yields a report").canonical_text();
    let count = |action: &str| {
        let needle = format!("action={action}");
        text.lines().filter(|l| l.split_whitespace().any(|field| field == needle)).count()
    };
    FidelityCounts {
        converged: count("converged"),
        reopened: count("reopened"),
        rare: count("rare-converged"),
    }
}

#[test]
fn concurrency_ramp_reopens_adaptive_clusters_once_per_shifted_band() {
    let program = ramp_program(&ramp_widths(), 3_000, 0xC0FFEE);
    let telemetry = Telemetry::recording();
    let mut controller = AdaptiveController::new(TaskPointConfig::adaptive(0.1).with_warmup(0))
        .with_telemetry(telemetry.clone());
    let result = run(&program, 4, &mut controller);
    let (_, accuracy) = controller.into_parts();

    // The chain converged the single cluster at band 0; the width-4
    // layers sweep assignment-time concurrency through 1..=4, shifting
    // into bands 1 (concurrency 2–3) and 2 (concurrency 4) — each must
    // re-open the cluster exactly once.
    assert!(result.fast_tasks > 0, "the cluster must converge for re-opening to be testable");
    assert_eq!(accuracy.reopened_bands(), 2, "one re-open per shifted band (bands 1 and 2)");
    assert!(!accuracy.clusters.iter().any(|c| c.forced), "nothing rare in a single-cluster ramp");

    let cluster = &accuracy.clusters[0];
    let reopened: Vec<u32> = cluster.bands.iter().filter(|b| b.reopened).map(|b| b.band).collect();
    assert_eq!(reopened, vec![1, 2], "exactly the bands the ramp shifted into");
    assert!(
        cluster.bands.iter().any(|b| b.band == 0 && !b.reopened),
        "the chain's own band never re-opens"
    );
    assert_eq!(concurrency_band(1), 0);
    assert_eq!(concurrency_band(2), 1);
    assert_eq!(concurrency_band(4), 2);

    // Telemetry accounting: the fidelity stream alternates converged /
    // reopened per cluster, so the totals balance against the end state.
    let counts = fidelity_counts(&telemetry);
    assert_eq!(counts.reopened, accuracy.reopened_bands());
    assert_eq!(counts.rare, 0);
    let ending_converged = accuracy.clusters.iter().filter(|c| c.converged && !c.forced).count();
    assert_eq!(
        counts.converged,
        counts.reopened + ending_converged,
        "every re-open must be matched by a re-convergence"
    );
}

#[test]
fn constant_concurrency_never_reopens_adaptive_clusters() {
    // The chain alone: concurrency is pinned at 1 for the whole run.
    let program = ramp_program(&[1u32; 18], 3_000, 0xC0FFEE);
    let telemetry = Telemetry::recording();
    let mut controller = AdaptiveController::new(TaskPointConfig::adaptive(0.1).with_warmup(0))
        .with_telemetry(telemetry.clone());
    let result = run(&program, 4, &mut controller);
    let (_, accuracy) = controller.into_parts();

    assert!(result.fast_tasks > 0, "the cluster must converge for the zero to be meaningful");
    assert_eq!(accuracy.reopened_bands(), 0, "constant concurrency must never trigger a re-open");
    assert_eq!(fidelity_lines(&telemetry, "reopened"), 0);
}

#[test]
fn concurrency_ramp_reopens_stratified_strata() {
    let program = ramp_program(&ramp_widths(), 3_000, 0xC0FFEE);
    let telemetry = Telemetry::recording();
    let mut controller =
        StratifiedController::new(TaskPointConfig::stratified(4, 10).with_warmup(0))
            .with_telemetry(telemetry.clone());
    controller.prime(program.instances().iter().map(|i| (i.type_id(), i.instructions())));
    let result = run(&program, 4, &mut controller);
    let (_, accuracy) = controller.into_parts();

    assert!(result.fast_tasks > 0, "the stratum must converge for re-opening to be testable");
    assert!(accuracy.reopened_bands() >= 1, "the ramp must re-open the converged stratum");
    assert!(
        accuracy.clusters[0].bands.iter().any(|b| b.reopened && b.band > 0),
        "the re-opened band is one the ramp shifted into"
    );

    let counts = fidelity_counts(&telemetry);
    assert_eq!(counts.reopened, accuracy.reopened_bands());
    assert_eq!(counts.rare, 0, "the stratified controller has no rare-cluster cutoff");
    let ending_converged = accuracy.clusters.iter().filter(|c| c.converged).count();
    assert_eq!(counts.converged, counts.reopened + ending_converged);
}

#[test]
fn constant_concurrency_never_reopens_stratified_strata() {
    let program = ramp_program(&[1u32; 18], 3_000, 0xC0FFEE);
    let telemetry = Telemetry::recording();
    let mut controller =
        StratifiedController::new(TaskPointConfig::stratified(4, 10).with_warmup(0))
            .with_telemetry(telemetry.clone());
    controller.prime(program.instances().iter().map(|i| (i.type_id(), i.instructions())));
    let result = run(&program, 4, &mut controller);
    let (_, accuracy) = controller.into_parts();

    assert!(result.fast_tasks > 0, "the stratum must converge for the zero to be meaningful");
    assert_eq!(accuracy.reopened_bands(), 0);
    assert_eq!(fidelity_lines(&telemetry, "reopened"), 0);
}
