//! The nine numeric kernels of Table I (top block).
//!
//! Every generator reproduces its kernel's Table I row exactly — task-type
//! count, task-instance count — and its "Properties" column qualitatively:
//! access pattern, instruction mix, dependence structure and the degree of
//! per-instance imbalance. Structural randomness (e.g. spmv's row lengths)
//! uses a *fixed* structural seed so instance counts never depend on the
//! user's seed; per-instance trace content derives from
//! [`ScaleConfig::instance_seeds`].

use crate::info::{BenchClass, WorkloadInfo};
use crate::layout::AddressAllocator;
use crate::scale::ScaleConfig;
use taskpoint_runtime::{Program, RegionAccess};
use taskpoint_stats::rng::Xoshiro256pp;
use taskpoint_trace::{AccessPattern, InstKind, InstructionMix, MemRegion, TraceSpec};

/// 2d-convolution: 16,384 independent tiles, strided row accesses.
pub mod conv2d {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "2d-convolution",
        class: BenchClass::Kernel,
        task_types: 1,
        task_instances: 16384,
        property: "Kernel: strided memory accesses",
    };

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let ty = b.add_type("conv_tile");
        let mut alloc = AddressAllocator::new();
        let mut srng = Xoshiro256pp::seed_from_u64(0x2DC0);
        for i in 0..INFO.task_instances as u64 {
            let input = alloc.alloc_lines(32 * 1024);
            let output = alloc.alloc_lines(8 * 1024);
            let jitter = 1.0 + (srng.next_f64() - 0.5) * 0.04;
            let trace = TraceSpec::builder()
                .seed(seeds.of(0, i))
                .instructions(scale.instructions(1450.0 * jitter))
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::strided(256, 4))
                .footprint(input)
                .branch_mispredict_rate(0.01)
                .dependency_rate(0.10)
                .build();
            b.add_task(ty, trace, &[RegionAccess::output(output)]);
        }
        b.build()
    }
}

/// 3d-stencil: 1,637 tiles × 10 time steps with neighbour dependences.
pub mod stencil3d {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "3d-stencil",
        class: BenchClass::Kernel,
        task_types: 1,
        task_instances: 16370,
        property: "Kernel: strided memory accesses",
    };

    const TILES: usize = 1637;
    const STEPS: usize = 10;

    /// Generates the workload. Double-buffered like a real stencil code:
    /// each step reads three neighbouring tiles of the previous step's
    /// buffer and writes its tile of the other buffer, so tiles within a
    /// step are independent while steps form a wavefront.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let ty = b.add_type("stencil_step");
        let mut alloc = AddressAllocator::new();
        let buf_a = alloc.alloc_array(TILES, 48 * 1024);
        let buf_b = alloc.alloc_array(TILES, 48 * 1024);
        let mut srng = Xoshiro256pp::seed_from_u64(0x3D57);
        let mut idx = 0u64;
        for step in 0..STEPS {
            let (read, write): (&[_], &[_]) =
                if step % 2 == 0 { (&buf_a, &buf_b) } else { (&buf_b, &buf_a) };
            for t in 0..TILES {
                let left = read[(t + TILES - 1) % TILES];
                let right = read[(t + 1) % TILES];
                let jitter = 1.0 + (srng.next_f64() - 0.5) * 0.03;
                let trace = TraceSpec::builder()
                    .seed(seeds.of(0, idx))
                    .instructions(scale.instructions(1500.0 * jitter))
                    .mix(InstructionMix::balanced())
                    .pattern(AccessPattern::Stencil { planes: 3, plane_stride: 16 * 1024 })
                    .footprint(read[t])
                    .branch_mispredict_rate(0.008)
                    .dependency_rate(0.12)
                    .build();
                b.add_task(
                    ty,
                    trace,
                    &[
                        RegionAccess::input(read[t]),
                        RegionAccess::input(left),
                        RegionAccess::input(right),
                        RegionAccess::output(write[t]),
                    ],
                );
                idx += 1;
            }
        }
        b.build()
    }
}

/// atomic-monte-carlo-dynamics: embarrassingly parallel compute tasks with a
/// shared atomic accumulator.
pub mod monte_carlo {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "atomic-monte-carlo-dynamics",
        class: BenchClass::Kernel,
        task_types: 1,
        task_instances: 16384,
        property: "Kernel: embarrassingly parallel",
    };

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let ty = b.add_type("mc_paths");
        let mut alloc = AddressAllocator::new();
        let accumulator = alloc.alloc_lines(64);
        let mut srng = Xoshiro256pp::seed_from_u64(0xA7C0);
        let mix = InstructionMix::from_weights(&[
            (InstKind::IntAlu, 0.20),
            (InstKind::FpAlu, 0.26),
            (InstKind::FpMul, 0.30),
            (InstKind::FpDiv, 0.02),
            (InstKind::Load, 0.11),
            (InstKind::Store, 0.04),
            (InstKind::Branch, 0.06),
            (InstKind::Atomic, 0.01),
        ]);
        for i in 0..INFO.task_instances as u64 {
            let state = alloc.alloc_lines(4 * 1024);
            // Monte-Carlo path counts vary slightly per task.
            let jitter = (1.0 + srng.next_normal(0.0, 0.05)).max(0.5);
            let trace = TraceSpec::builder()
                .seed(seeds.of(0, i))
                .instructions(scale.instructions(1400.0 * jitter))
                .mix(mix.clone())
                .pattern(AccessPattern::sequential(8))
                .footprint(state)
                .shared(accumulator)
                .branch_mispredict_rate(0.015)
                .dependency_rate(0.12)
                .build();
            b.add_task(ty, trace, &[]);
        }
        b.build()
    }
}

/// dense-matrix-multiplication: 26³ = 17,576 tiled GEMM tasks chained over
/// the k dimension.
pub mod matmul {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "dense-matrix-multiplication",
        class: BenchClass::Kernel,
        task_types: 1,
        task_instances: 17576,
        property: "Kernel: high data reuse, compute bound",
    };

    const N: usize = 26;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let ty = b.add_type("gemm");
        let mut alloc = AddressAllocator::new();
        let c_tiles = alloc.alloc_array(N * N, 8 * 1024);
        let mut srng = Xoshiro256pp::seed_from_u64(0xD6E5);
        let mut idx = 0u64;
        for _k in 0..N {
            for i in 0..N {
                for j in 0..N {
                    let jitter = 1.0 + (srng.next_f64() - 0.5) * 0.02;
                    let trace = TraceSpec::builder()
                        .seed(seeds.of(0, idx))
                        .instructions(scale.instructions(1550.0 * jitter))
                        .mix(InstructionMix::compute_bound())
                        .pattern(AccessPattern::sequential(8))
                        .footprint(c_tiles[i * N + j])
                        .branch_mispredict_rate(0.005)
                        .dependency_rate(0.10)
                        .build();
                    b.add_task(ty, trace, &[RegionAccess::inout(c_tiles[i * N + j])]);
                    idx += 1;
                }
            }
        }
        b.build()
    }
}

/// histogram: independent scatter tasks hammering shared bins with atomics.
pub mod histogram {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "histogram",
        class: BenchClass::Kernel,
        task_types: 1,
        task_instances: 16384,
        property: "Kernel: atomic operations",
    };

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let ty = b.add_type("hist_chunk");
        let mut alloc = AddressAllocator::new();
        let bins = alloc.alloc_lines(32 * 1024);
        let mut srng = Xoshiro256pp::seed_from_u64(0x4157);
        for i in 0..INFO.task_instances as u64 {
            let chunk = alloc.alloc_lines(64 * 1024);
            let jitter = 1.0 + (srng.next_f64() - 0.5) * 0.03;
            let trace = TraceSpec::builder()
                .seed(seeds.of(0, i))
                .instructions(scale.instructions(1350.0 * jitter))
                .mix(InstructionMix::atomic_heavy())
                .pattern(AccessPattern::sequential(8))
                .footprint(chunk)
                .shared(bins)
                .branch_mispredict_rate(0.02)
                .dependency_rate(0.15)
                .build();
            b.add_task(ty, trace, &[]);
        }
        b.build()
    }
}

/// n-body: 100 steps × 125 blocks of force-computation + position-update
/// tasks with neighbour (cell-list) dependences.
pub mod nbody {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "n-body",
        class: BenchClass::Kernel,
        task_types: 2,
        task_instances: 25000,
        property: "Kernel: irregular memory accesses",
    };

    const BLOCKS: usize = 125;
    const STEPS: usize = 100;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let force_ty = b.add_type("compute_forces");
        let update_ty = b.add_type("update_positions");
        let mut alloc = AddressAllocator::new();
        let pos = alloc.alloc_array(BLOCKS, 32 * 1024);
        let frc = alloc.alloc_array(BLOCKS, 16 * 1024);
        let mut srng = Xoshiro256pp::seed_from_u64(0xB0D1);
        let mut force_idx = 0u64;
        let mut update_idx = 0u64;
        for _step in 0..STEPS {
            for t in 0..BLOCKS {
                let left = pos[(t + BLOCKS - 1) % BLOCKS];
                let right = pos[(t + 1) % BLOCKS];
                let jitter = 1.0 + (srng.next_f64() - 0.5) * 0.06;
                let trace = TraceSpec::builder()
                    .seed(seeds.of(0, force_idx))
                    .instructions(scale.instructions(1600.0 * jitter))
                    .mix(InstructionMix::balanced())
                    .pattern(AccessPattern::Gather { hot_probability: 0.6, hot_fraction: 0.2 })
                    .footprint(pos[t])
                    .branch_mispredict_rate(0.03)
                    .dependency_rate(0.20)
                    .build();
                b.add_task(
                    force_ty,
                    trace,
                    &[
                        RegionAccess::input(pos[t]),
                        RegionAccess::input(left),
                        RegionAccess::input(right),
                        RegionAccess::output(frc[t]),
                    ],
                );
                force_idx += 1;
            }
            for t in 0..BLOCKS {
                let trace = TraceSpec::builder()
                    .seed(seeds.of(1, update_idx))
                    .instructions(scale.instructions(320.0))
                    .mix(InstructionMix::memory_bound())
                    .pattern(AccessPattern::sequential(8))
                    .footprint(pos[t])
                    .branch_mispredict_rate(0.01)
                    .dependency_rate(0.12)
                    .build();
                b.add_task(
                    update_ty,
                    trace,
                    &[RegionAccess::input(frc[t]), RegionAccess::inout(pos[t])],
                );
                update_idx += 1;
            }
        }
        b.build()
    }
}

/// reduction: binary tree over 8,192 leaf chunks; parallelism collapses
/// towards the root (the paper's "parallelism decreases over time").
pub mod reduction {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "reduction",
        class: BenchClass::Kernel,
        task_types: 2,
        task_instances: 16384,
        property: "Kernel: parallelism decreases over time",
    };

    const LEAVES: usize = 8192;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let leaf_ty = b.add_type("partial_sum");
        let combine_ty = b.add_type("combine");
        let mut alloc = AddressAllocator::new();
        let mut srng = Xoshiro256pp::seed_from_u64(0x4EDC);
        // Leaves.
        let mut frontier: Vec<MemRegion> = Vec::with_capacity(LEAVES);
        for i in 0..LEAVES as u64 {
            let chunk = alloc.alloc_lines(64 * 1024);
            let cell = alloc.alloc_lines(64);
            let jitter = 1.0 + (srng.next_f64() - 0.5) * 0.03;
            let trace = TraceSpec::builder()
                .seed(seeds.of(0, i))
                .instructions(scale.instructions(1200.0 * jitter))
                .mix(InstructionMix::memory_bound())
                .pattern(AccessPattern::sequential(8))
                .footprint(chunk)
                .branch_mispredict_rate(0.005)
                .dependency_rate(0.10)
                .build();
            b.add_task(leaf_ty, trace, &[RegionAccess::output(cell)]);
            frontier.push(cell);
        }
        // Tree of combines.
        let mut combine_idx = 0u64;
        while frontier.len() > 1 {
            let mut next = Vec::with_capacity(frontier.len() / 2);
            for pair in frontier.chunks(2) {
                if pair.len() == 1 {
                    next.push(pair[0]);
                    continue;
                }
                let out = alloc.alloc_lines(64);
                let trace = TraceSpec::builder()
                    .seed(seeds.of(1, combine_idx))
                    .instructions(scale.instructions(400.0))
                    .mix(InstructionMix::balanced())
                    .pattern(AccessPattern::sequential(8))
                    .footprint(out)
                    .branch_mispredict_rate(0.005)
                    .dependency_rate(0.15)
                    .build();
                b.add_task(
                    combine_ty,
                    trace,
                    &[
                        RegionAccess::input(pair[0]),
                        RegionAccess::input(pair[1]),
                        RegionAccess::output(out),
                    ],
                );
                combine_idx += 1;
                next.push(out);
            }
            frontier = next;
        }
        // Final write-out of the root (an 8,192nd instance of `combine`,
        // bringing the total to exactly 16,384).
        let result = alloc.alloc_lines(64);
        let trace = TraceSpec::builder()
            .seed(seeds.of(1, combine_idx))
            .instructions(scale.instructions(120.0))
            .mix(InstructionMix::balanced())
            .pattern(AccessPattern::sequential(8))
            .footprint(result)
            .build();
        b.add_task(
            combine_ty,
            trace,
            &[RegionAccess::input(frontier[0]), RegionAccess::output(result)],
        );
        b.build()
    }
}

/// sparse-matrix-vector-multiplication: 1,024 row blocks with heavy-tailed
/// nnz counts — the paper's load-imbalance, memory-bound kernel.
pub mod spmv {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "sparse-matrix-vector-multiplication",
        class: BenchClass::Kernel,
        task_types: 1,
        task_instances: 1024,
        property: "Kernel: load imbalance, memory bound",
    };

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let ty = b.add_type("spmv_rows");
        let mut alloc = AddressAllocator::new();
        let mut srng = Xoshiro256pp::seed_from_u64(0x59A7);
        for i in 0..INFO.task_instances as u64 {
            // Row-block nnz is log-uniform over a 16x range: load imbalance
            // and per-instance miss-rate differences (input dependence).
            let nnz_factor = srng.next_log_uniform(0.25, 4.0);
            let instrs = scale.instructions(7000.0 * nnz_factor);
            let footprint_len = ((instrs as f64 * 24.0) as u64).clamp(4 * 1024, 4 * 1024 * 1024);
            let rows = alloc.alloc_lines(footprint_len);
            let y_block = alloc.alloc_lines(4 * 1024);
            let trace = TraceSpec::builder()
                .seed(seeds.of(0, i))
                .instructions(instrs)
                .mix(InstructionMix::memory_bound())
                .pattern(AccessPattern::Gather { hot_probability: 0.4, hot_fraction: 0.05 })
                .footprint(rows)
                .branch_mispredict_rate(0.02)
                .dependency_rate(0.18)
                .build();
            b.add_task(ty, trace, &[RegionAccess::output(y_block)]);
        }
        b.build()
    }
}

/// vector-operation: perfectly regular streaming kernel, memory bound.
pub mod vecop {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "vector-operation",
        class: BenchClass::Kernel,
        task_types: 1,
        task_instances: 16400,
        property: "Kernel: regular, memory bound",
    };

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let ty = b.add_type("vec_chunk");
        let mut alloc = AddressAllocator::new();
        for i in 0..INFO.task_instances as u64 {
            let chunk = alloc.alloc_lines(256 * 1024);
            let trace = TraceSpec::builder()
                .seed(seeds.of(0, i))
                .instructions(scale.instructions(1490.0))
                .mix(InstructionMix::memory_bound())
                .pattern(AccessPattern::sequential(8))
                .footprint(chunk)
                .branch_mispredict_rate(0.003)
                .dependency_rate(0.08)
                .build();
            b.add_task(ty, trace, &[RegionAccess::inout(chunk)]);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(info: WorkloadInfo, p: &Program) {
        assert_eq!(p.num_types(), info.task_types, "{}: type count", info.name);
        assert_eq!(p.num_instances(), info.task_instances, "{}: instance count", info.name);
        assert_eq!(p.name(), info.name);
    }

    #[test]
    fn conv2d_matches_table1_and_is_independent() {
        let p = conv2d::generate(&ScaleConfig::quick());
        check(conv2d::INFO, &p);
        assert_eq!(p.graph().edge_count(), 0, "conv tiles are independent");
    }

    #[test]
    fn stencil_matches_table1_and_has_wavefront_deps() {
        let p = stencil3d::generate(&ScaleConfig::quick());
        check(stencil3d::INFO, &p);
        assert!(p.graph().edge_count() > 0);
        // Critical path spans the time steps.
        assert!(p.graph().critical_path_len() >= 10);
    }

    #[test]
    fn monte_carlo_matches_table1() {
        let p = monte_carlo::generate(&ScaleConfig::quick());
        check(monte_carlo::INFO, &p);
        assert_eq!(p.graph().edge_count(), 0, "embarrassingly parallel");
    }

    #[test]
    fn matmul_is_26_cubed_with_k_chains() {
        let p = matmul::generate(&ScaleConfig::quick());
        check(matmul::INFO, &p);
        assert_eq!(p.num_instances(), 26 * 26 * 26);
        // Each C tile is a 26-long inout chain.
        assert_eq!(p.graph().critical_path_len(), 26);
    }

    #[test]
    fn histogram_matches_table1() {
        let p = histogram::generate(&ScaleConfig::quick());
        check(histogram::INFO, &p);
        // Atomics must target the shared bins.
        assert!(!p.instances()[0].shared().is_empty());
    }

    #[test]
    fn nbody_types_alternate_per_step() {
        let p = nbody::generate(&ScaleConfig::quick());
        check(nbody::INFO, &p);
        let per_type = p.instances_per_type();
        assert_eq!(per_type, vec![12500, 12500]);
        // 100 steps of force->update chains.
        assert!(p.graph().critical_path_len() >= 200);
    }

    #[test]
    fn reduction_tree_structure() {
        let p = reduction::generate(&ScaleConfig::quick());
        check(reduction::INFO, &p);
        let per_type = p.instances_per_type();
        assert_eq!(per_type, vec![8192, 8192]);
        // Tree depth: leaf + 13 combine levels + final write.
        assert!(p.graph().critical_path_len() >= 14);
    }

    #[test]
    fn spmv_has_load_imbalance() {
        let p = spmv::generate(&ScaleConfig::new());
        check(spmv::INFO, &p);
        let sizes: Vec<u64> = p.instances().iter().map(|i| i.instructions()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max as f64 / min as f64 > 8.0, "imbalance {max}/{min}");
    }

    #[test]
    fn vecop_is_perfectly_regular() {
        let p = vecop::generate(&ScaleConfig::new());
        check(vecop::INFO, &p);
        let first = p.instances()[0].instructions();
        assert!(p.instances().iter().all(|i| i.instructions() == first));
    }

    #[test]
    fn structure_is_independent_of_user_seed() {
        let a = spmv::generate(&ScaleConfig { seed: 1, ..ScaleConfig::quick() });
        let b = spmv::generate(&ScaleConfig { seed: 2, ..ScaleConfig::quick() });
        // Same structure (instruction counts are structural for spmv) ...
        let sa: Vec<u64> = a.instances().iter().map(|i| i.instructions()).collect();
        let sb: Vec<u64> = b.instances().iter().map(|i| i.instructions()).collect();
        assert_eq!(sa, sb);
        // ... but different trace content seeds.
        assert_ne!(a.instances()[0].seed(), b.instances()[0].seed());
    }
}
