//! The four HPC applications of Table I (middle block):
//! checkSparseLU, cholesky, kmeans and knn.

use crate::info::{BenchClass, WorkloadInfo};
use crate::layout::AddressAllocator;
use crate::scale::ScaleConfig;
use taskpoint_runtime::{Program, RegionAccess};
use taskpoint_stats::rng::Xoshiro256pp;
use taskpoint_trace::{AccessPattern, InstructionMix, MemRegion, TraceSpec};

/// checkSparseLU: tiled sparse LU factorization with fill-in, followed by a
/// verification sweep — 11 task types, 22,058 instances.
pub mod sparselu {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "checkSparseLU",
        class: BenchClass::Application,
        task_types: 11,
        task_instances: 22058,
        property: "Decomposition of large, sparse matrices",
    };

    /// Tiles per matrix dimension.
    const N: usize = 36;
    /// Initial block fill probability.
    const FILL: f64 = 0.40;
    /// Fixed structural seed: the sparsity pattern (and therefore the task
    /// counts) never depends on the user's seed.
    const STRUCT_SEED: u64 = 0x51;

    /// The symbolic factorization: which blocks exist initially, and the
    /// exact operation sequence including fill-in allocations.
    struct Structure {
        initial: Vec<bool>,
        ops: Vec<Op>,
        final_nonnull: Vec<bool>,
    }

    enum Op {
        Lu0(usize),
        Fwd(usize, usize),
        Bdiv(usize, usize),
        /// `(i, j, k, needs_alloc)`
        Bmod(usize, usize, usize, bool),
    }

    fn symbolic() -> Structure {
        let mut rng = Xoshiro256pp::seed_from_u64(STRUCT_SEED);
        let mut nn = vec![false; N * N];
        for i in 0..N {
            for j in 0..N {
                // Diagonal always present; off-diagonal with prob FILL.
                nn[i * N + j] = i == j || rng.next_f64() < FILL;
            }
        }
        let initial = nn.clone();
        let mut ops = Vec::new();
        for k in 0..N {
            ops.push(Op::Lu0(k));
            for j in (k + 1)..N {
                if nn[k * N + j] {
                    ops.push(Op::Fwd(k, j));
                }
            }
            for i in (k + 1)..N {
                if nn[i * N + k] {
                    ops.push(Op::Bdiv(i, k));
                }
            }
            for i in (k + 1)..N {
                if !nn[i * N + k] {
                    continue;
                }
                for j in (k + 1)..N {
                    if !nn[k * N + j] {
                        continue;
                    }
                    let fill = !nn[i * N + j];
                    if fill {
                        nn[i * N + j] = true;
                    }
                    ops.push(Op::Bmod(i, j, k, fill));
                }
            }
        }
        Structure { initial, ops, final_nonnull: nn }
    }

    /// Generates the workload.
    ///
    /// # Panics
    ///
    /// Panics if the structural constants would overflow the Table I
    /// instance count (checked by tests).
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let s = symbolic();
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let genmat_ty = b.add_type("genmat");
        let alloc_ty = b.add_type("alloc_blk");
        let init_ty = b.add_type("init_blk");
        let lu0_ty = b.add_type("lu0");
        let fwd_ty = b.add_type("fwd");
        let bdiv_ty = b.add_type("bdiv");
        let bmod_ty = b.add_type("bmod");
        let copy_ty = b.add_type("copy_blk");
        let check_ty = b.add_type("check_blk");
        let diff_ty = b.add_type("diff_norm");
        let fin_ty = b.add_type("finalize");

        let mut alloc = AddressAllocator::new();
        let descriptor = alloc.alloc_lines(4 * 1024);
        let blocks: Vec<MemRegion> = (0..N * N).map(|_| alloc.alloc_lines(128 * 1024)).collect();
        let mut srng = Xoshiro256pp::seed_from_u64(STRUCT_SEED ^ 0xABCD);
        let mut counters = [0u64; 11];
        let seed = |ty: u32, c: &mut [u64; 11]| {
            let v = seeds.of(ty, c[ty as usize]);
            c[ty as usize] += 1;
            v
        };

        // Base task total, to size the allocation-pool padding.
        let init_count = s.initial.iter().filter(|&&x| x).count();
        let final_count = s.final_nonnull.iter().filter(|&&x| x).count();
        let base = 1 // genmat
            + init_count
            + s.ops.len()
            + s.ops.iter().filter(|o| matches!(o, Op::Bmod(_, _, _, true))).count()
            + 2 * final_count // copy + check
            + N // diff_norm per row
            + 1; // finalize
        assert!(
            base <= INFO.task_instances,
            "structure produced {base} tasks, exceeding Table I's {}",
            INFO.task_instances
        );
        let padding = INFO.task_instances - base;

        // genmat
        let t = TraceSpec::builder()
            .seed(seed(0, &mut counters))
            .instructions(scale.instructions(900.0))
            .mix(InstructionMix::irregular_int())
            .pattern(AccessPattern::sequential(8))
            .footprint(descriptor)
            .build();
        b.add_task(genmat_ty, t, &[RegionAccess::output(descriptor)]);

        // Allocation pool (padding): independent pre-allocations, exactly
        // like the real benchmark's per-block `allocate_clean_block` tasks.
        for _ in 0..padding {
            let scratch = alloc.alloc_lines(2 * 1024);
            let t = TraceSpec::builder()
                .seed(seed(1, &mut counters))
                .instructions(scale.instructions(80.0))
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::sequential(8))
                .footprint(scratch)
                .build();
            b.add_task(alloc_ty, t, &[]);
        }

        // init_blk for initially non-null blocks.
        for i in 0..N {
            for j in 0..N {
                if s.initial[i * N + j] {
                    let t = TraceSpec::builder()
                        .seed(seed(2, &mut counters))
                        .instructions(scale.instructions(400.0))
                        .mix(InstructionMix::memory_bound())
                        .pattern(AccessPattern::sequential(8))
                        .footprint(blocks[i * N + j])
                        .build();
                    b.add_task(
                        init_ty,
                        t,
                        &[RegionAccess::input(descriptor), RegionAccess::output(blocks[i * N + j])],
                    );
                }
            }
        }

        // Factorization following the symbolic op sequence.
        for op in &s.ops {
            match *op {
                Op::Lu0(k) => {
                    let t = TraceSpec::builder()
                        .seed(seed(3, &mut counters))
                        .instructions(scale.instructions(1400.0))
                        .mix(InstructionMix::balanced())
                        .pattern(AccessPattern::sequential(8))
                        .footprint(blocks[k * N + k])
                        .branch_mispredict_rate(0.03)
                        .dependency_rate(0.25)
                        .build();
                    b.add_task(lu0_ty, t, &[RegionAccess::inout(blocks[k * N + k])]);
                }
                Op::Fwd(k, j) => {
                    let jit = 1.0 + (srng.next_f64() - 0.5) * 0.4;
                    let t = TraceSpec::builder()
                        .seed(seed(4, &mut counters))
                        .instructions(scale.instructions(1300.0 * jit))
                        .mix(InstructionMix::balanced())
                        .pattern(AccessPattern::sequential(8))
                        .footprint(blocks[k * N + j])
                        .branch_mispredict_rate(0.03)
                        .dependency_rate(0.22)
                        .build();
                    b.add_task(
                        fwd_ty,
                        t,
                        &[
                            RegionAccess::input(blocks[k * N + k]),
                            RegionAccess::inout(blocks[k * N + j]),
                        ],
                    );
                }
                Op::Bdiv(i, k) => {
                    let jit = 1.0 + (srng.next_f64() - 0.5) * 0.4;
                    let t = TraceSpec::builder()
                        .seed(seed(5, &mut counters))
                        .instructions(scale.instructions(1300.0 * jit))
                        .mix(InstructionMix::balanced())
                        .pattern(AccessPattern::sequential(8))
                        .footprint(blocks[i * N + k])
                        .branch_mispredict_rate(0.03)
                        .dependency_rate(0.22)
                        .build();
                    b.add_task(
                        bdiv_ty,
                        t,
                        &[
                            RegionAccess::input(blocks[k * N + k]),
                            RegionAccess::inout(blocks[i * N + k]),
                        ],
                    );
                }
                Op::Bmod(i, j, k, fill) => {
                    if fill {
                        let t = TraceSpec::builder()
                            .seed(seed(1, &mut counters))
                            .instructions(scale.instructions(80.0))
                            .mix(InstructionMix::irregular_int())
                            .pattern(AccessPattern::sequential(8))
                            .footprint(blocks[i * N + j])
                            .build();
                        b.add_task(alloc_ty, t, &[RegionAccess::output(blocks[i * N + j])]);
                    }
                    // Input dependence: block density varies 4.4x in
                    // *instruction count* (load imbalance the fast-forward
                    // formula absorbs via I_i); the access geometry is the
                    // type's code and stays fixed, keeping the per-type IPC
                    // spread in the band the paper reports.
                    let density = srng.next_log_uniform(0.5, 2.2);
                    let t = TraceSpec::builder()
                        .seed(seed(6, &mut counters))
                        .instructions(scale.instructions(1500.0 * density))
                        .mix(InstructionMix::balanced())
                        .pattern(AccessPattern::sequential(8))
                        .footprint(blocks[i * N + j])
                        .branch_mispredict_rate(0.04)
                        .dependency_rate(0.25)
                        .build();
                    b.add_task(
                        bmod_ty,
                        t,
                        &[
                            RegionAccess::input(blocks[i * N + k]),
                            RegionAccess::input(blocks[k * N + j]),
                            RegionAccess::inout(blocks[i * N + j]),
                        ],
                    );
                }
            }
        }

        // Verification sweep: copy every final block, check it, reduce per
        // row, finalize.
        let mut copies: Vec<Option<MemRegion>> = vec![None; N * N];
        let mut cells: Vec<Option<MemRegion>> = vec![None; N * N];
        for i in 0..N {
            for j in 0..N {
                if !s.final_nonnull[i * N + j] {
                    continue;
                }
                let copy = alloc.alloc_lines(32 * 1024);
                let t = TraceSpec::builder()
                    .seed(seed(7, &mut counters))
                    .instructions(scale.instructions(600.0))
                    .mix(InstructionMix::memory_bound())
                    .pattern(AccessPattern::sequential(8))
                    .footprint(copy)
                    .build();
                b.add_task(
                    copy_ty,
                    t,
                    &[RegionAccess::input(blocks[i * N + j]), RegionAccess::output(copy)],
                );
                copies[i * N + j] = Some(copy);
                let cell = alloc.alloc_lines(64);
                let t = TraceSpec::builder()
                    .seed(seed(8, &mut counters))
                    .instructions(scale.instructions(550.0))
                    .mix(InstructionMix::memory_bound())
                    .pattern(AccessPattern::sequential(8))
                    .footprint(copy)
                    .build();
                b.add_task(check_ty, t, &[RegionAccess::input(copy), RegionAccess::output(cell)]);
                cells[i * N + j] = Some(cell);
            }
        }
        let mut norms = Vec::with_capacity(N);
        for i in 0..N {
            let norm = alloc.alloc_lines(64);
            let mut acc = vec![RegionAccess::output(norm)];
            for j in 0..N {
                if let Some(cell) = cells[i * N + j] {
                    acc.push(RegionAccess::input(cell));
                }
            }
            let t = TraceSpec::builder()
                .seed(seed(9, &mut counters))
                .instructions(scale.instructions(300.0))
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::sequential(8))
                .footprint(norm)
                .build();
            b.add_task(diff_ty, t, &acc);
            norms.push(norm);
        }
        let result = alloc.alloc_lines(64);
        let mut acc = vec![RegionAccess::output(result)];
        acc.extend(norms.iter().map(|&n| RegionAccess::input(n)));
        let t = TraceSpec::builder()
            .seed(seed(10, &mut counters))
            .instructions(scale.instructions(200.0))
            .mix(InstructionMix::balanced())
            .pattern(AccessPattern::sequential(8))
            .footprint(result)
            .build();
        b.add_task(fin_ty, t, &acc);

        b.build()
    }
}

/// cholesky: 48-tile blocked Cholesky factorization — exactly the classic
/// potrf/trsm/syrk/gemm DAG, 4 types, 19,600 instances.
pub mod cholesky {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "cholesky",
        class: BenchClass::Application,
        task_types: 4,
        task_instances: 19600,
        property: "Decomposition of Hermitian positive-definite matrices",
    };

    /// Tiles per dimension: 48 + C(48,2)*2 + C(48,3) = 19,600.
    pub const N: usize = 48;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let potrf_ty = b.add_type("potrf");
        let trsm_ty = b.add_type("trsm");
        let syrk_ty = b.add_type("syrk");
        let gemm_ty = b.add_type("gemm");
        let mut alloc = AddressAllocator::new();
        // Lower-triangular tile storage.
        let mut tiles = vec![MemRegion::empty(); N * N];
        for i in 0..N {
            for j in 0..=i {
                tiles[i * N + j] = alloc.alloc_lines(16 * 1024);
            }
        }
        let mut srng = Xoshiro256pp::seed_from_u64(0xC401E);
        let mut counters = [0u64; 4];
        let mk = |scale: &ScaleConfig,
                  ty: u32,
                  c: &mut [u64; 4],
                  base: f64,
                  fp: MemRegion,
                  srng: &mut Xoshiro256pp| {
            let jit = 1.0 + (srng.next_f64() - 0.5) * 0.03;
            let s = seeds.of(ty, c[ty as usize]);
            c[ty as usize] += 1;
            TraceSpec::builder()
                .seed(s)
                .instructions(scale.instructions(base * jit))
                .mix(InstructionMix::compute_bound())
                .pattern(AccessPattern::sequential(8))
                .footprint(fp)
                .branch_mispredict_rate(0.008)
                .dependency_rate(0.12)
                .build()
        };
        for k in 0..N {
            let kk = tiles[k * N + k];
            let t = mk(scale, 0, &mut counters, 1200.0, kk, &mut srng);
            b.add_task(potrf_ty, t, &[RegionAccess::inout(kk)]);
            for i in (k + 1)..N {
                let ik = tiles[i * N + k];
                let t = mk(scale, 1, &mut counters, 1350.0, ik, &mut srng);
                b.add_task(trsm_ty, t, &[RegionAccess::input(kk), RegionAccess::inout(ik)]);
            }
            for i in (k + 1)..N {
                let ik = tiles[i * N + k];
                let ii = tiles[i * N + i];
                let t = mk(scale, 2, &mut counters, 1300.0, ii, &mut srng);
                b.add_task(syrk_ty, t, &[RegionAccess::input(ik), RegionAccess::inout(ii)]);
                for j in (k + 1)..i {
                    let jk = tiles[j * N + k];
                    let ij = tiles[i * N + j];
                    let t = mk(scale, 3, &mut counters, 1500.0, ij, &mut srng);
                    b.add_task(
                        gemm_ty,
                        t,
                        &[
                            RegionAccess::input(ik),
                            RegionAccess::input(jk),
                            RegionAccess::inout(ij),
                        ],
                    );
                }
            }
        }
        b.build()
    }
}

/// kmeans: Lloyd's algorithm — 6 task types over iterations of
/// assign/reduce/update/convergence plus initialization, 16,337 instances.
pub mod kmeans {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "kmeans",
        class: BenchClass::Application,
        task_types: 6,
        task_instances: 16337,
        property: "Clustering based on Lloyd's algorithm",
    };

    const BLOCKS: usize = 127;
    const ITERS: usize = 63;
    /// Extra init_points instances (chunked input loading) so the total
    /// matches Table I exactly: 1 + (127+81) + 63*(127+127+1+1) = 16,337.
    const EXTRA_INIT: usize = 81;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let init_ctr_ty = b.add_type("init_centroids");
        let init_pts_ty = b.add_type("init_points");
        let assign_ty = b.add_type("assign");
        let partial_ty = b.add_type("partial_reduce");
        let update_ty = b.add_type("update_centroids");
        let conv_ty = b.add_type("check_convergence");
        let mut alloc = AddressAllocator::new();
        let centroids = alloc.alloc_lines(16 * 1024);
        let conv_flag = alloc.alloc_lines(64);
        let points: Vec<MemRegion> = alloc.alloc_array(BLOCKS, 128 * 1024);
        let labels: Vec<MemRegion> = alloc.alloc_array(BLOCKS, 8 * 1024);
        let partials: Vec<MemRegion> = alloc.alloc_array(BLOCKS, 4 * 1024);
        let mut counters = [0u64; 6];
        let seed = |ty: u32, c: &mut [u64; 6]| {
            let v = seeds.of(ty, c[ty as usize]);
            c[ty as usize] += 1;
            v
        };

        let t = TraceSpec::builder()
            .seed(seed(0, &mut counters))
            .instructions(scale.instructions(500.0))
            .mix(InstructionMix::balanced())
            .pattern(AccessPattern::sequential(8))
            .footprint(centroids)
            .build();
        b.add_task(init_ctr_ty, t, &[RegionAccess::output(centroids)]);

        for i in 0..(BLOCKS + EXTRA_INIT) {
            let fp = points[i % BLOCKS];
            let t = TraceSpec::builder()
                .seed(seed(1, &mut counters))
                .instructions(scale.instructions(700.0))
                .mix(InstructionMix::memory_bound())
                .pattern(AccessPattern::sequential(8))
                .footprint(fp)
                .build();
            // Only the first BLOCKS loads own a block outright; extras are
            // chunked readers of the same input (in-only, no deps created).
            let out = [RegionAccess::output(fp)];
            b.add_task(init_pts_ty, t, if i < BLOCKS { &out } else { &[] });
        }

        for _it in 0..ITERS {
            for bl in 0..BLOCKS {
                let t = TraceSpec::builder()
                    .seed(seed(2, &mut counters))
                    .instructions(scale.instructions(1500.0))
                    .mix(InstructionMix::balanced())
                    .pattern(AccessPattern::sequential(8))
                    .footprint(points[bl])
                    .branch_mispredict_rate(0.025)
                    .dependency_rate(0.15)
                    .build();
                b.add_task(
                    assign_ty,
                    t,
                    &[
                        RegionAccess::input(points[bl]),
                        RegionAccess::input(centroids),
                        RegionAccess::output(labels[bl]),
                    ],
                );
            }
            for bl in 0..BLOCKS {
                let t = TraceSpec::builder()
                    .seed(seed(3, &mut counters))
                    .instructions(scale.instructions(600.0))
                    .mix(InstructionMix::balanced())
                    .pattern(AccessPattern::sequential(8))
                    .footprint(partials[bl])
                    .build();
                b.add_task(
                    partial_ty,
                    t,
                    &[RegionAccess::input(labels[bl]), RegionAccess::output(partials[bl])],
                );
            }
            let mut acc = vec![RegionAccess::inout(centroids)];
            acc.extend(partials.iter().map(|&p| RegionAccess::input(p)));
            let t = TraceSpec::builder()
                .seed(seed(4, &mut counters))
                .instructions(scale.instructions(900.0))
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::sequential(8))
                .footprint(centroids)
                .build();
            b.add_task(update_ty, t, &acc);
            let t = TraceSpec::builder()
                .seed(seed(5, &mut counters))
                .instructions(scale.instructions(150.0))
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::sequential(8))
                .footprint(conv_flag)
                .build();
            b.add_task(
                conv_ty,
                t,
                &[RegionAccess::input(centroids), RegionAccess::inout(conv_flag)],
            );
        }
        b.build()
    }
}

/// knn: 800 queries × (22 distance blocks + 1 k-select merge) = 18,400
/// instances, 2 types.
pub mod knn {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "knn",
        class: BenchClass::Application,
        task_types: 2,
        task_instances: 18400,
        property: "Instance-based machine learning algorithm",
    };

    const QUERIES: usize = 800;
    const BLOCKS: usize = 22;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let dist_ty = b.add_type("distances");
        let merge_ty = b.add_type("kselect");
        let mut alloc = AddressAllocator::new();
        let train: Vec<MemRegion> = alloc.alloc_array(BLOCKS, 512 * 1024);
        let mut srng = Xoshiro256pp::seed_from_u64(0x4A11);
        let mut dist_idx = 0u64;
        for q in 0..QUERIES {
            let mut scratch = Vec::with_capacity(BLOCKS);
            for &block in train.iter() {
                let out = alloc.alloc_lines(4 * 1024);
                let jit = 1.0 + (srng.next_f64() - 0.5) * 0.04;
                let t = TraceSpec::builder()
                    .seed(seeds.of(0, dist_idx))
                    .instructions(scale.instructions(1250.0 * jit))
                    .mix(InstructionMix::balanced())
                    .pattern(AccessPattern::sequential(16))
                    .footprint(block)
                    .branch_mispredict_rate(0.012)
                    .dependency_rate(0.12)
                    .build();
                b.add_task(dist_ty, t, &[RegionAccess::output(out)]);
                scratch.push(out);
                dist_idx += 1;
            }
            let result = alloc.alloc_lines(1024);
            let mut acc = vec![RegionAccess::output(result)];
            acc.extend(scratch.iter().map(|&s| RegionAccess::input(s)));
            let t = TraceSpec::builder()
                .seed(seeds.of(1, q as u64))
                .instructions(scale.instructions(650.0))
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::Random)
                .footprint(result)
                .branch_mispredict_rate(0.04)
                .dependency_rate(0.25)
                .build();
            b.add_task(merge_ty, t, &acc);
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
    }

    #[test]
    fn sparselu_matches_table1() {
        let p = sparselu::generate(&ScaleConfig::quick());
        check(sparselu::INFO, &p);
        // bmod must dominate the factorization work.
        let instr = p.instructions_per_type();
        let bmod_idx = p.types().iter().position(|t| t.name() == "bmod").unwrap();
        let total: u64 = instr.iter().sum();
        assert!(instr[bmod_idx] as f64 / total as f64 > 0.5, "bmod share too small");
    }

    #[test]
    fn sparselu_has_wide_size_spread() {
        let p = sparselu::generate(&ScaleConfig::new());
        let bmod_idx = p.types().iter().position(|t| t.name() == "bmod").unwrap() as u32;
        let sizes: Vec<u64> = p
            .instances()
            .iter()
            .filter(|i| i.type_id().0 == bmod_idx)
            .map(|i| i.instructions())
            .collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(max / min > 3.0, "bmod spread {max}/{min}");
    }

    #[test]
    fn cholesky_is_exactly_the_48_tile_dag() {
        let p = cholesky::generate(&ScaleConfig::quick());
        check(cholesky::INFO, &p);
        let n = cholesky::N;
        let per_type = p.instances_per_type();
        assert_eq!(per_type[0], n); // potrf
        assert_eq!(per_type[1], n * (n - 1) / 2); // trsm
        assert_eq!(per_type[2], n * (n - 1) / 2); // syrk
        assert_eq!(per_type[3], n * (n - 1) * (n - 2) / 6); // gemm

        // potrf(k+1) transitively depends on potrf(k): critical path spans k.
        assert!(p.graph().critical_path_len() >= n);
    }

    #[test]
    fn kmeans_matches_table1() {
        let p = kmeans::generate(&ScaleConfig::quick());
        check(kmeans::INFO, &p);
        // Iterations serialize through the centroids region.
        assert!(p.graph().critical_path_len() >= 63 * 2);
    }

    #[test]
    fn knn_matches_table1() {
        let p = knn::generate(&ScaleConfig::quick());
        check(knn::INFO, &p);
        let per_type = p.instances_per_type();
        assert_eq!(per_type, vec![17600, 800]);
        // merges wait for their 22 distance tasks but queries are parallel.
        assert_eq!(p.graph().critical_path_len(), 2);
    }
}
