//! Named sweeps: the paper's evaluation matrix as cell-spec generators.
//!
//! Each sweep is the cell list behind one table or figure (or the CI smoke
//! set); `campaign run` runs it and prints its table ([`Sweep::render`]).

use taskpoint::{SamplingPolicy, TaskPointConfig};
use taskpoint_workloads::{Benchmark, ExternalWorkload, ScaleConfig};
use tasksim::{CoreGroupConfig, MachineConfig};

use crate::spec::CellSpec;

/// Threads used by the high-performance-machine figures (7 and 9).
const HIGH_PERF_THREADS: [u32; 4] = [8, 16, 32, 64];
/// Threads used by the low-power-machine figures (8 and 10).
const LOW_POWER_THREADS: [u32; 4] = [1, 2, 4, 8];
/// Threads used by the Fig. 6 sensitivity analysis.
const SENSITIVITY_THREADS: [u32; 2] = [32, 64];
/// Noise seed of the Fig. 1 "native execution" stand-in.
const FIG1_NOISE_SEED: u64 = 0xF161;

/// Which parameter Fig. 6 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepPart {
    /// Fig. 6a: warmup size W (H=10, P=∞).
    Warmup,
    /// Fig. 6b: history size H (W=min(2,H), P=∞).
    History,
    /// Fig. 6c: sampling period P (W=2, H=4).
    Period,
}

/// The labelled controller configurations of one Fig. 6 part.
pub(crate) fn sensitivity_configs(part: SweepPart) -> Vec<(String, TaskPointConfig)> {
    match part {
        SweepPart::Warmup => (0..=10u64)
            .map(|w| (w.to_string(), TaskPointConfig::lazy().with_warmup(w).with_history(10)))
            .collect(),
        SweepPart::History => (1..=10usize)
            // W clamped to H: the paper's fixed W=2 is out of range for
            // the H=1 point now that configs validate `warmup <= history`.
            .map(|h| {
                (
                    h.to_string(),
                    TaskPointConfig::lazy().with_history(h).with_warmup(2.min(h as u64)),
                )
            })
            .collect(),
        SweepPart::Period => [10u64, 25, 50, 100, 250, 500, 1000]
            .into_iter()
            .map(|p| {
                (
                    p.to_string(),
                    TaskPointConfig::periodic().with_policy(SamplingPolicy::Periodic { period: p }),
                )
            })
            .collect(),
    }
}

/// Sampled cells of one error/speedup figure: every benchmark × every
/// thread count under `config` on `machine`.
fn error_speedup_specs(
    scale: ScaleConfig,
    machine: &MachineConfig,
    threads: &[u32],
    config: TaskPointConfig,
) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for bench in Benchmark::ALL {
        for &t in threads {
            specs.push(CellSpec::sampled(bench, scale, machine.clone(), t, config));
        }
    }
    specs
}

/// Sampled cells of one Fig. 6 part: every labelled config × the
/// sensitivity benchmarks × 32/64 threads, grouped by config.
fn sensitivity_specs(scale: ScaleConfig, part: SweepPart) -> Vec<CellSpec> {
    let machine = MachineConfig::high_performance();
    let mut specs = Vec::new();
    for (_, config) in sensitivity_configs(part) {
        for bench in Benchmark::SENSITIVITY_SET {
            for &t in &SENSITIVITY_THREADS {
                specs.push(CellSpec::sampled(bench, scale, machine.clone(), t, config));
            }
        }
    }
    specs
}

/// Variation cells (Figs. 1 and 5): every benchmark at 8 threads on
/// `machine`, with or without the noise model.
fn variation_specs(
    scale: ScaleConfig,
    machine: &MachineConfig,
    noise_seed: Option<u64>,
) -> Vec<CellSpec> {
    Benchmark::ALL
        .into_iter()
        .map(|bench| CellSpec {
            bench,
            scale,
            machine: machine.clone(),
            workers: 8,
            kind: crate::spec::CellKind::Variation { noise_seed },
        })
        .collect()
}

/// ROB sizes of the custom-machine design-space grid.
const DESIGN_SPACE_ROBS: [u32; 3] = [64, 168, 256];
/// L2 sizes (KiB) of the custom-machine design-space grid.
const DESIGN_SPACE_L2_KB: [u64; 3] = [512, 2048, 4096];

/// Exploration cells of the custom-machine design-space sweep: a 3×3
/// ROB × L2 grid of variants of the high-performance machine, each taken
/// both homogeneous and as a big.LITTLE split (4 big cores at full clock
/// plus 4 little cores at divider 2 sharing the grid point's L2), each
/// running cholesky at 8 threads under lazy sampling. No reference cells
/// — ranking designs cheaply is the entire point (the full machine config
/// is content-hashed, so every variant gets its own cache entry).
fn design_space_specs(scale: ScaleConfig) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for rob in DESIGN_SPACE_ROBS {
        for l2_kb in DESIGN_SPACE_L2_KB {
            let mut machine = MachineConfig::high_performance();
            machine.core.rob_size = rob;
            machine.caches[1].size_bytes = l2_kb * 1024;
            machine.name = format!("rob{rob}-l2_{l2_kb}k");
            let mut split = machine.clone();
            split.name = format!("rob{rob}-l2_{l2_kb}k-biglittle");
            split.core_groups = vec![
                CoreGroupConfig { name: "big".into(), cores: 4, clock_divider: 1, core: None },
                CoreGroupConfig { name: "little".into(), cores: 4, clock_divider: 2, core: None },
            ];
            for variant in [machine, split] {
                specs.push(CellSpec::explore(
                    Benchmark::Cholesky,
                    scale,
                    variant,
                    8,
                    TaskPointConfig::lazy(),
                ));
            }
        }
    }
    specs
}

/// Kernel workloads of the `hetero` sweep.
const HETERO_KERNELS: [Benchmark; 2] = [Benchmark::Cholesky, Benchmark::Spmv];

/// Simulated worker count of the `hetero` sweep (2 big + 2 little cores).
const HETERO_WORKERS: u32 = 4;

/// Cells of the `hetero` sweep: for each kernel, a full-detail reference
/// and a lazy-sampled run on the big.LITTLE machine, plus a homogeneous
/// high-performance reference at the same worker count as the baseline.
/// The heterogeneous cells carry per-group metrics in their JSONL
/// records; the homogeneous baseline proves the same record shape stays
/// group-free.
fn hetero_specs(scale: ScaleConfig) -> Vec<CellSpec> {
    let hetero = MachineConfig::big_little(2, 2);
    let baseline = MachineConfig::high_performance();
    let mut specs = Vec::new();
    for bench in HETERO_KERNELS {
        specs.push(CellSpec::reference(bench, scale, hetero.clone(), HETERO_WORKERS));
        specs.push(CellSpec::sampled(
            bench,
            scale,
            hetero.clone(),
            HETERO_WORKERS,
            TaskPointConfig::lazy(),
        ));
        specs.push(CellSpec::reference(bench, scale, baseline.clone(), HETERO_WORKERS));
    }
    specs
}

/// Simulated worker counts of the `ingested` sweep.
const INGESTED_WORKERS: u32 = 2;

/// Cells of the `ingested` sweep: for every external (fixture-trace)
/// workload, a full-detail reference plus lazy- and periodic-sampled runs
/// compared against it — the same sampled-vs-reference shape as the paper
/// figures, but over *ingested* traces replayed from the
/// `RecordedTraces` bundle instead of procedural streams.
///
/// External workloads replay fixed recordings, so `scale` only keys the
/// cache entries; it does not change the simulated work.
fn ingested_specs(scale: ScaleConfig) -> Vec<CellSpec> {
    let machine = MachineConfig::low_power();
    let mut specs = Vec::new();
    for workload in ExternalWorkload::ALL {
        let bench = Benchmark::External(workload);
        specs.push(CellSpec::reference(bench, scale, machine.clone(), INGESTED_WORKERS));
        for config in [TaskPointConfig::lazy(), TaskPointConfig::periodic()] {
            specs.push(CellSpec::sampled(bench, scale, machine.clone(), INGESTED_WORKERS, config));
        }
    }
    specs
}

/// Relative-CI targets of the `adaptive` sweep, loose → tight. Each
/// target is one operating point of the error/speedup frontier.
pub const ADAPTIVE_TARGETS: [f64; 3] = [0.10, 0.05, 0.02];

/// Pilot samples per stratum of the `adaptive` sweep's stratified cells.
pub const STRATIFIED_PILOT: u64 = 4;

/// Detailed budgets of the `adaptive` sweep's stratified cells, small →
/// large. Each budget is one operating point of the frontier, head to
/// head against the CI-target cells at comparable detail spend.
pub const STRATIFIED_BUDGETS: [u64; 2] = [64, 256];

/// Kernel workloads of the `adaptive` sweep.
const ADAPTIVE_KERNELS: [Benchmark; 2] = [Benchmark::Spmv, Benchmark::Cholesky];

/// Simulated worker count of the `adaptive` sweep's kernel cells.
const ADAPTIVE_WORKERS: u32 = 4;

/// The benchmark/worker pairs the `adaptive` sweep covers: the kernel set
/// plus every external (ingested fixture) workload. External cells use
/// [`INGESTED_WORKERS`] so their reference/lazy/periodic cells coincide —
/// and share cache entries — with the `ingested` sweep.
fn adaptive_workloads() -> Vec<(Benchmark, u32)> {
    let mut workloads: Vec<(Benchmark, u32)> =
        ADAPTIVE_KERNELS.into_iter().map(|b| (b, ADAPTIVE_WORKERS)).collect();
    workloads.extend(ExternalWorkload::ALL.map(|w| (Benchmark::External(w), INGESTED_WORKERS)));
    workloads
}

/// Cells of the `adaptive` sweep: for every workload, a full-detail
/// reference plus lazy, periodic, three confidence-driven cells (one per
/// [`ADAPTIVE_TARGETS`] entry) and two budget-driven stratified cells
/// (one per [`STRATIFIED_BUDGETS`] entry) compared against it. The
/// emitted JSONL is the error/speedup **frontier**: each policy column
/// trades detailed instances (→ wall clock) against cycles error; the
/// adaptive cells record their configured vs achieved per-cluster CI and
/// the stratified cells their pilot/budget/allocation split — the
/// head-to-head at matched detail spend.
pub fn adaptive_specs(scale: ScaleConfig) -> Vec<CellSpec> {
    let machine = MachineConfig::low_power();
    let mut specs = Vec::new();
    for (bench, workers) in adaptive_workloads() {
        specs.push(CellSpec::reference(bench, scale, machine.clone(), workers));
        let mut configs = vec![TaskPointConfig::lazy(), TaskPointConfig::periodic()];
        configs.extend(ADAPTIVE_TARGETS.map(TaskPointConfig::adaptive));
        configs
            .extend(STRATIFIED_BUDGETS.map(|b| TaskPointConfig::stratified(STRATIFIED_PILOT, b)));
        for config in configs {
            specs.push(CellSpec::sampled(bench, scale, machine.clone(), workers, config));
        }
    }
    specs
}

/// Reference cells of Table I: every benchmark at 1 and 64 threads on the
/// high-performance machine.
fn table1_specs(scale: ScaleConfig) -> Vec<CellSpec> {
    let machine = MachineConfig::high_performance();
    let mut specs = Vec::new();
    for bench in Benchmark::ALL {
        for t in [1u32, 64] {
            specs.push(CellSpec::reference(bench, scale, machine.clone(), t));
        }
    }
    specs
}

/// A named sweep the CLI can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// A small CI set: three kernels × two thread counts, lazy sampling,
    /// low-power machine, plus one variation cell.
    Smoke,
    /// Table I reference runs.
    Table1,
    /// Fig. 1 (variation, noise model).
    Fig1,
    /// Fig. 5 (variation, clean simulation).
    Fig5,
    /// Fig. 6a (warmup sweep).
    Fig6a,
    /// Fig. 6b (history sweep).
    Fig6b,
    /// Fig. 6c (period sweep).
    Fig6c,
    /// Fig. 7 (periodic, high-performance).
    Fig7,
    /// Fig. 8 (periodic, low-power).
    Fig8,
    /// Fig. 9 (lazy, high-performance).
    Fig9,
    /// Fig. 10 (lazy, low-power).
    Fig10,
    /// Custom-machine design-space exploration (ROB × L2 grid, each point
    /// homogeneous and big.LITTLE-split; explore cells, no references).
    DesignSpace,
    /// Heterogeneous big.LITTLE cells: reference + lazy-sampled per
    /// kernel, with a homogeneous reference baseline.
    Hetero,
    /// Sampled-vs-reference cells over the external (ingested
    /// fixture-trace) workloads.
    Ingested,
    /// The error/speedup frontier: reference vs lazy vs periodic vs three
    /// adaptive CI targets over kernels + external workloads.
    Adaptive,
    /// Every table and figure sweep (excludes `smoke`, `design-space`,
    /// `hetero`, `ingested` and `adaptive`).
    All,
}

impl Sweep {
    /// Every named sweep, in CLI listing order.
    pub const ALL: [Sweep; 16] = [
        Sweep::Smoke,
        Sweep::Table1,
        Sweep::Fig1,
        Sweep::Fig5,
        Sweep::Fig6a,
        Sweep::Fig6b,
        Sweep::Fig6c,
        Sweep::Fig7,
        Sweep::Fig8,
        Sweep::Fig9,
        Sweep::Fig10,
        Sweep::DesignSpace,
        Sweep::Hetero,
        Sweep::Ingested,
        Sweep::Adaptive,
        Sweep::All,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Sweep::Smoke => "smoke",
            Sweep::Table1 => "table1",
            Sweep::Fig1 => "fig1",
            Sweep::Fig5 => "fig5",
            Sweep::Fig6a => "fig6a",
            Sweep::Fig6b => "fig6b",
            Sweep::Fig6c => "fig6c",
            Sweep::Fig7 => "fig7",
            Sweep::Fig8 => "fig8",
            Sweep::Fig9 => "fig9",
            Sweep::Fig10 => "fig10",
            Sweep::DesignSpace => "design-space",
            Sweep::Hetero => "hetero",
            Sweep::Ingested => "ingested",
            Sweep::Adaptive => "adaptive",
            Sweep::All => "all",
        }
    }

    /// What the sweep covers.
    pub fn description(self) -> &'static str {
        match self {
            Sweep::Smoke => "CI smoke set: 3 kernels x 2 thread counts, lazy, low-power",
            Sweep::Table1 => "Table I reference runs (1 and 64 threads, high-performance)",
            Sweep::Fig1 => "Fig. 1 IPC variation, native-execution noise model, 8 threads",
            Sweep::Fig5 => "Fig. 5 IPC variation, simulation, 8 threads",
            Sweep::Fig6a => "Fig. 6a warmup sensitivity (W = 0..10)",
            Sweep::Fig6b => "Fig. 6b history sensitivity (H = 1..10)",
            Sweep::Fig6c => "Fig. 6c period sensitivity (P = 10..1000)",
            Sweep::Fig7 => "Fig. 7 periodic sampling, high-performance",
            Sweep::Fig8 => "Fig. 8 periodic sampling, low-power",
            Sweep::Fig9 => "Fig. 9 lazy sampling, high-performance",
            Sweep::Fig10 => "Fig. 10 lazy sampling, low-power",
            Sweep::DesignSpace => {
                "custom-machine DSE: 3x3 ROB x L2 grid x {homo, big.LITTLE}, cholesky, lazy"
            }
            Sweep::Hetero => {
                "big.LITTLE machine: reference + lazy per kernel, vs homogeneous baseline"
            }
            Sweep::Ingested => "external fixture traces: reference + lazy/periodic sampled cells",
            Sweep::Adaptive => {
                "error/speedup frontier: lazy vs periodic vs 3 adaptive CI targets vs 2 \
                 stratified budgets, low-power"
            }
            Sweep::All => {
                "every table and figure sweep (excludes smoke, design-space, hetero, ingested, adaptive)"
            }
        }
    }

    /// Looks a sweep up by CLI name.
    pub fn by_name(name: &str) -> Option<Sweep> {
        Sweep::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The sweep's cell list at the given scale, in emission order.
    pub fn specs(self, scale: ScaleConfig) -> Vec<CellSpec> {
        match self {
            Sweep::Smoke => {
                let machine = MachineConfig::low_power();
                let mut specs = Vec::new();
                for bench in [Benchmark::Spmv, Benchmark::Reduction, Benchmark::Histogram] {
                    for t in [2u32, 4] {
                        specs.push(CellSpec::sampled(
                            bench,
                            scale,
                            machine.clone(),
                            t,
                            TaskPointConfig::lazy(),
                        ));
                    }
                }
                specs.push(CellSpec {
                    bench: Benchmark::Spmv,
                    scale,
                    machine: MachineConfig::high_performance(),
                    workers: 8,
                    kind: crate::spec::CellKind::Variation { noise_seed: None },
                });
                specs
            }
            Sweep::Table1 => table1_specs(scale),
            Sweep::Fig1 => {
                variation_specs(scale, &MachineConfig::high_performance(), Some(FIG1_NOISE_SEED))
            }
            Sweep::Fig5 => variation_specs(scale, &MachineConfig::high_performance(), None),
            Sweep::Fig6a => sensitivity_specs(scale, SweepPart::Warmup),
            Sweep::Fig6b => sensitivity_specs(scale, SweepPart::History),
            Sweep::Fig6c => sensitivity_specs(scale, SweepPart::Period),
            Sweep::Fig7 => error_speedup_specs(
                scale,
                &MachineConfig::high_performance(),
                &HIGH_PERF_THREADS,
                TaskPointConfig::periodic(),
            ),
            Sweep::Fig8 => error_speedup_specs(
                scale,
                &MachineConfig::low_power(),
                &LOW_POWER_THREADS,
                TaskPointConfig::periodic(),
            ),
            Sweep::Fig9 => error_speedup_specs(
                scale,
                &MachineConfig::high_performance(),
                &HIGH_PERF_THREADS,
                TaskPointConfig::lazy(),
            ),
            Sweep::Fig10 => error_speedup_specs(
                scale,
                &MachineConfig::low_power(),
                &LOW_POWER_THREADS,
                TaskPointConfig::lazy(),
            ),
            Sweep::DesignSpace => design_space_specs(scale),
            Sweep::Hetero => hetero_specs(scale),
            Sweep::Ingested => ingested_specs(scale),
            Sweep::Adaptive => adaptive_specs(scale),
            Sweep::All => ALL_MEMBERS.into_iter().flat_map(|s| s.specs(scale)).collect(),
        }
    }
}

/// The sweeps [`Sweep::All`] concatenates, in order: every paper table and
/// figure. `smoke` is a CI subset of them; `design-space`, `hetero`,
/// `ingested` and `adaptive` are not paper tables or figures.
pub(crate) const ALL_MEMBERS: [Sweep; 10] = [
    Sweep::Table1,
    Sweep::Fig1,
    Sweep::Fig5,
    Sweep::Fig6a,
    Sweep::Fig6b,
    Sweep::Fig6c,
    Sweep::Fig7,
    Sweep::Fig8,
    Sweep::Fig9,
    Sweep::Fig10,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in Sweep::ALL {
            assert_eq!(Sweep::by_name(s.name()), Some(s));
            assert!(!s.description().is_empty());
        }
        assert_eq!(Sweep::by_name("fig99"), None);
    }

    #[test]
    fn figure_sweep_sizes_match_the_paper_matrix() {
        let scale = ScaleConfig::quick();
        assert_eq!(Sweep::Fig7.specs(scale).len(), 19 * 4);
        assert_eq!(Sweep::Fig8.specs(scale).len(), 19 * 4);
        assert_eq!(Sweep::Fig6a.specs(scale).len(), 11 * 5 * 2);
        assert_eq!(Sweep::Fig6b.specs(scale).len(), 10 * 5 * 2);
        assert_eq!(Sweep::Fig6c.specs(scale).len(), 7 * 5 * 2);
        assert_eq!(Sweep::Table1.specs(scale).len(), 19 * 2);
        assert_eq!(Sweep::Fig1.specs(scale).len(), 19);
        assert_eq!(Sweep::Smoke.specs(scale).len(), 7);
        // 3x3 ROB x L2 grid, each point homogeneous + big.LITTLE-split.
        assert_eq!(Sweep::DesignSpace.specs(scale).len(), 9 * 2);
        // 2 kernels x (hetero reference + hetero lazy + homogeneous ref).
        assert_eq!(Sweep::Hetero.specs(scale).len(), 2 * 3);
        assert_eq!(Sweep::Ingested.specs(scale).len(), 2 * 3);
        // (2 kernels + 2 external) x (reference + lazy + periodic + 3 CI
        // targets + 2 stratified budgets).
        assert_eq!(Sweep::Adaptive.specs(scale).len(), 4 * 8);
    }

    #[test]
    fn adaptive_sweep_shares_cells_with_the_ingested_sweep() {
        // The external reference/lazy/periodic cells must hash identically
        // to the ingested sweep's, so CI runs hit the shared cache.
        let scale = ScaleConfig::quick();
        let ingested: std::collections::HashSet<String> =
            Sweep::Ingested.specs(scale).iter().map(CellSpec::hash_hex).collect();
        let shared = Sweep::Adaptive
            .specs(scale)
            .iter()
            .filter(|s| ingested.contains(&s.hash_hex()))
            .count();
        assert_eq!(shared, 6, "2 external workloads x (reference + lazy + periodic)");
    }

    #[test]
    fn all_is_the_union_of_the_evaluation_sweeps() {
        let scale = ScaleConfig::quick();
        let all = Sweep::All.specs(scale);
        let sum: usize = Sweep::ALL
            .into_iter()
            .filter(|s| {
                !matches!(
                    s,
                    Sweep::All
                        | Sweep::Smoke
                        | Sweep::DesignSpace
                        | Sweep::Hetero
                        | Sweep::Ingested
                        | Sweep::Adaptive
                )
            })
            .map(|s| s.specs(scale).len())
            .sum();
        assert_eq!(all.len(), sum);
    }

    #[test]
    fn specs_within_a_sweep_have_unique_hashes() {
        let scale = ScaleConfig::quick();
        for sweep in [
            Sweep::Smoke,
            Sweep::Fig7,
            Sweep::Fig6a,
            Sweep::Table1,
            Sweep::Fig1,
            Sweep::DesignSpace,
            Sweep::Hetero,
            Sweep::Ingested,
            Sweep::Adaptive,
        ] {
            let specs = sweep.specs(scale);
            let hashes: std::collections::HashSet<String> =
                specs.iter().map(CellSpec::hash_hex).collect();
            assert_eq!(hashes.len(), specs.len(), "{}", sweep.name());
        }
    }
}
