//! The six task-based PARSEC ports of Table I (bottom block):
//! blackscholes, bodytrack, canneal, dedup, freqmine and swaptions.
//!
//! dedup and freqmine deliberately reproduce the pathologies the paper
//! analyzes: dedup's dominant task type covers 99.9% of the dynamic
//! instructions with input-dependent instance sizes spanning 3.5–25.1
//! size units; freqmine's dominant type covers ~93% with instance sizes
//! spanning more than four orders of magnitude and divergent control flow
//! (the nested-if construct the paper found in the source).

use crate::info::{BenchClass, WorkloadInfo};
use crate::layout::AddressAllocator;
use crate::scale::ScaleConfig;
use taskpoint_runtime::{Program, RegionAccess};
use taskpoint_stats::rng::Xoshiro256pp;
use taskpoint_trace::{AccessPattern, InstructionMix, MemRegion, TraceSpec};

/// blackscholes: 50 frames × (489 pricing blocks + 1 aggregate) = 24,500.
pub mod blackscholes {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "blackscholes",
        class: BenchClass::Parsec,
        task_types: 2,
        task_instances: 24500,
        property: "Option price calculation",
    };

    const FRAMES: usize = 50;
    const BLOCKS: usize = 489;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let price_ty = b.add_type("price_options");
        let agg_ty = b.add_type("aggregate");
        let mut alloc = AddressAllocator::new();
        let mut srng = Xoshiro256pp::seed_from_u64(0xB5C0);
        let mut price_idx = 0u64;
        for f in 0..FRAMES {
            let mut outs = Vec::with_capacity(BLOCKS);
            for _bl in 0..BLOCKS {
                let options = alloc.alloc_lines(16 * 1024);
                let out = alloc.alloc_lines(2 * 1024);
                let jit = 1.0 + (srng.next_f64() - 0.5) * 0.03;
                let t = TraceSpec::builder()
                    .seed(seeds.of(0, price_idx))
                    .instructions(scale.instructions(1000.0 * jit))
                    .mix(InstructionMix::compute_bound())
                    .pattern(AccessPattern::sequential(8))
                    .footprint(options)
                    .branch_mispredict_rate(0.006)
                    .dependency_rate(0.10)
                    .build();
                b.add_task(price_ty, t, &[RegionAccess::output(out)]);
                outs.push(out);
                price_idx += 1;
            }
            let result = alloc.alloc_lines(1024);
            let mut acc = vec![RegionAccess::output(result)];
            acc.extend(outs.iter().map(|&o| RegionAccess::input(o)));
            let t = TraceSpec::builder()
                .seed(seeds.of(1, f as u64))
                .instructions(scale.instructions(500.0))
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::sequential(8))
                .footprint(result)
                .build();
            b.add_task(agg_ty, t, &acc);
        }
        b.build()
    }
}

/// bodytrack: 61 frames through a 7-stage per-frame pipeline (plus a few
/// warm-up instances of the first stage) = 21,439 instances.
pub mod bodytrack {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "bodytrack",
        class: BenchClass::Parsec,
        task_types: 7,
        task_instances: 21439,
        property: "Human body tracking with multiple cameras",
    };

    const FRAMES: usize = 61;
    /// Blocks per stage within a frame.
    const STAGE_BLOCKS: [usize; 7] = [80, 80, 80, 60, 30, 20, 1];
    /// Extra first-stage instances (camera warm-up frames) to land exactly
    /// on Table I: 61 * 351 + 28 = 21,439.
    const EXTRA_STAGE1: usize = 28;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let names = [
            "edge_detect",
            "gauss_smooth",
            "gradient",
            "likelihood",
            "resample",
            "update_model",
            "anneal_step",
        ];
        let types: Vec<_> = names.iter().map(|n| b.add_type(*n)).collect();
        let mut alloc = AddressAllocator::new();
        let model_state = alloc.alloc_lines(64 * 1024);
        let mut srng = Xoshiro256pp::seed_from_u64(0xB0D7);
        let mut counters = [0u64; 7];
        let bases = [1100.0, 900.0, 950.0, 1400.0, 700.0, 800.0, 1200.0];

        // Warm-up stage-1 instances (independent).
        for _ in 0..EXTRA_STAGE1 {
            let fp = alloc.alloc_lines(32 * 1024);
            let t = TraceSpec::builder()
                .seed(seeds.of(0, counters[0]))
                .instructions(scale.instructions(bases[0]))
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::strided(128, 2))
                .footprint(fp)
                .build();
            counters[0] += 1;
            b.add_task(types[0], t, &[]);
        }

        for _f in 0..FRAMES {
            let mut prev_outs: Vec<MemRegion> = vec![model_state];
            for (s, &blocks) in STAGE_BLOCKS.iter().enumerate() {
                let mut outs = Vec::with_capacity(blocks);
                for bl in 0..blocks {
                    let fp = alloc.alloc_lines(32 * 1024);
                    let out = alloc.alloc_lines(4 * 1024);
                    let jit = 1.0 + (srng.next_f64() - 0.5) * 0.08;
                    let t = TraceSpec::builder()
                        .seed(seeds.of(s as u32, counters[s]))
                        .instructions(scale.instructions(bases[s] * jit))
                        .mix(if s >= 3 {
                            InstructionMix::irregular_int()
                        } else {
                            InstructionMix::balanced()
                        })
                        .pattern(if s >= 3 {
                            AccessPattern::Random
                        } else {
                            AccessPattern::strided(128, 2)
                        })
                        .footprint(fp)
                        .branch_mispredict_rate(if s >= 3 { 0.035 } else { 0.01 })
                        .dependency_rate(0.18)
                        .build();
                    counters[s] += 1;
                    // Each block reads 1-2 outputs of the previous stage.
                    let src = bl * prev_outs.len() / blocks.max(1);
                    let acc = [
                        RegionAccess::output(out),
                        RegionAccess::input(prev_outs[src % prev_outs.len()]),
                        RegionAccess::inout(model_state),
                    ];
                    // Only the per-frame anneal step (the last stage)
                    // updates the tracking model, serializing frames.
                    let is_last_stage = s == STAGE_BLOCKS.len() - 1;
                    b.add_task(types[s], t, &acc[..if is_last_stage { 3 } else { 2 }]);
                    outs.push(out);
                }
                prev_outs = outs;
            }
        }
        b.build()
    }
}

/// canneal: 16,384 independent swap batches over one big shared netlist —
/// random remote accesses, cache unfriendly.
pub mod canneal {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "canneal",
        class: BenchClass::Parsec,
        task_types: 1,
        task_instances: 16384,
        property: "Cache-aware simulated annealing",
    };

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let ty = b.add_type("swap_batch");
        let mut alloc = AddressAllocator::new();
        // One netlist shared by every task: random accesses to it from all
        // cores produce the coherence traffic canneal is famous for.
        let netlist = alloc.alloc_lines(8 * 1024 * 1024);
        let locks = alloc.alloc_lines(4 * 1024);
        let mix = InstructionMix::from_weights(&[
            (taskpoint_trace::InstKind::IntAlu, 0.36),
            (taskpoint_trace::InstKind::Load, 0.28),
            (taskpoint_trace::InstKind::Store, 0.08),
            (taskpoint_trace::InstKind::Branch, 0.16),
            (taskpoint_trace::InstKind::Atomic, 0.02),
            (taskpoint_trace::InstKind::FpAlu, 0.10),
        ]);
        let mut srng = Xoshiro256pp::seed_from_u64(0xCA77);
        for i in 0..INFO.task_instances as u64 {
            let jit = 1.0 + (srng.next_f64() - 0.5) * 0.05;
            let t = TraceSpec::builder()
                .seed(seeds.of(0, i))
                .instructions(scale.instructions(1450.0 * jit))
                .mix(mix.clone())
                .pattern(AccessPattern::Random)
                .footprint(netlist)
                .shared(locks)
                .branch_mispredict_rate(0.04)
                .dependency_rate(0.25)
                .build();
            b.add_task(ty, t, &[]);
        }
        b.build()
    }
}

/// dedup: 3,934 segments through the chunk → hash → compress → write
/// pipeline (+2 warm-up chunk tasks) = 15,738; compress carries 99.9% of
/// the instructions with a 7× input-dependent size spread.
pub mod dedup {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "dedup",
        class: BenchClass::Parsec,
        task_types: 4,
        task_instances: 15738,
        property: "Deduplication: combination of global and local compression",
    };

    const SEGMENTS: usize = 3934;
    const EXTRA_CHUNK: usize = 2;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let chunk_ty = b.add_type("chunk");
        let hash_ty = b.add_type("hash_dedup");
        let compress_ty = b.add_type("compress");
        let write_ty = b.add_type("write_out");
        let mut alloc = AddressAllocator::new();
        let output_file = alloc.alloc_lines(64 * 1024);
        let mut srng = Xoshiro256pp::seed_from_u64(0xDED0);
        let mut counters = [0u64; 4];
        let seed = |ty: u32, c: &mut [u64; 4]| {
            let v = seeds.of(ty, c[ty as usize]);
            c[ty as usize] += 1;
            v
        };

        for _ in 0..EXTRA_CHUNK {
            let fp = alloc.alloc_lines(8 * 1024);
            let t = TraceSpec::builder()
                .seed(seed(0, &mut counters))
                .instructions(scale.instructions(4.0))
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::sequential(8))
                .footprint(fp)
                .build();
            b.add_task(chunk_ty, t, &[]);
        }

        for _s in 0..SEGMENTS {
            let seg = alloc.alloc_lines(16 * 1024);
            let hashed = alloc.alloc_lines(4 * 1024);
            let compressed = alloc.alloc_lines(16 * 1024);
            // chunk
            let t = TraceSpec::builder()
                .seed(seed(0, &mut counters))
                .instructions(scale.instructions(4.0))
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::sequential(8))
                .footprint(seg)
                .build();
            b.add_task(chunk_ty, t, &[RegionAccess::output(seg)]);
            // hash / global dedup
            let t = TraceSpec::builder()
                .seed(seed(1, &mut counters))
                .instructions(scale.instructions(5.0))
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::Random)
                .footprint(seg)
                .build();
            b.add_task(hash_ty, t, &[RegionAccess::input(seg), RegionAccess::output(hashed)]);
            // compress: the dominant, input-dependent stage. Size spread is
            // uniform over [350, 2510] — a 7.2x ratio matching the paper's
            // 3.5M..25.1M instruction range scaled down.
            let size = 350.0 + srng.next_f64() * (2510.0 - 350.0);
            let instrs = scale.instructions(size);
            // Footprint tracks the chunk's compressibility: bigger chunks
            // stream more data and miss more — input-dependent IPC.
            let window = ((instrs as f64 * 40.0) as u64).clamp(4 * 1024, 2 * 1024 * 1024);
            let window_fp = alloc.alloc_lines(window);
            let t = TraceSpec::builder()
                .seed(seed(2, &mut counters))
                .instructions(instrs)
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::Gather { hot_probability: 0.55, hot_fraction: 0.08 })
                .footprint(window_fp)
                .branch_mispredict_rate(0.05)
                .dependency_rate(0.30)
                .build();
            b.add_task(
                compress_ty,
                t,
                &[RegionAccess::input(hashed), RegionAccess::output(compressed)],
            );
            // ordered write-out (serializes the pipeline tail)
            let t = TraceSpec::builder()
                .seed(seed(3, &mut counters))
                .instructions(scale.instructions(3.0))
                .mix(InstructionMix::memory_bound())
                .pattern(AccessPattern::sequential(8))
                .footprint(output_file)
                .build();
            b.add_task(
                write_ty,
                t,
                &[RegionAccess::input(compressed), RegionAccess::inout(output_file)],
            );
        }
        b.build()
    }
}

/// freqmine: FP-growth — 1,932 instances across 7 types; the mining type
/// holds ~93% of the instructions with sizes spanning 4+ orders of
/// magnitude and divergent control flow.
pub mod freqmine {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "freqmine",
        class: BenchClass::Parsec,
        task_types: 7,
        task_instances: 1932,
        property: "Frequent Pattern Growth method for Frequent Item Mining",
    };

    const INSERT_BATCHES: usize = 50;
    const SORTS: usize = 25;
    const BUILDS: usize = 25;
    const MINES: usize = 1800;
    const PRUNES: usize = 25;
    const AGGS: usize = 6;

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let header_ty = b.add_type("build_header");
        let insert_ty = b.add_type("insert_batch");
        let sort_ty = b.add_type("sort_items");
        let build_ty = b.add_type("build_tree");
        let mine_ty = b.add_type("mine_subtree");
        let prune_ty = b.add_type("prune");
        let agg_ty = b.add_type("aggregate");
        let mut alloc = AddressAllocator::new();
        let header = alloc.alloc_lines(64 * 1024);
        let tree = alloc.alloc_lines(4 * 1024 * 1024);
        let mut srng = Xoshiro256pp::seed_from_u64(0xF4E9);

        // build_header (1)
        let t = TraceSpec::builder()
            .seed(seeds.of(0, 0))
            .instructions(scale.instructions(800.0))
            .mix(InstructionMix::irregular_int())
            .pattern(AccessPattern::sequential(8))
            .footprint(header)
            .build();
        b.add_task(header_ty, t, &[RegionAccess::output(header)]);

        // insert batches (50) — all inout the tree: a serial build chain.
        for i in 0..INSERT_BATCHES as u64 {
            let t = TraceSpec::builder()
                .seed(seeds.of(1, i))
                .instructions(scale.instructions(600.0))
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::PointerChase)
                .footprint(tree)
                .branch_mispredict_rate(0.05)
                .dependency_rate(0.30)
                .build();
            b.add_task(insert_ty, t, &[RegionAccess::input(header), RegionAccess::inout(tree)]);
        }
        // sort_items (25)
        let mut sort_outs = Vec::new();
        for i in 0..SORTS as u64 {
            let out = alloc.alloc_lines(16 * 1024);
            let t = TraceSpec::builder()
                .seed(seeds.of(2, i))
                .instructions(scale.instructions(500.0))
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::Random)
                .footprint(out)
                .build();
            b.add_task(sort_ty, t, &[RegionAccess::input(tree), RegionAccess::output(out)]);
            sort_outs.push(out);
        }
        // build_tree (25) — refine the tree from sorted batches.
        for i in 0..BUILDS as u64 {
            let t = TraceSpec::builder()
                .seed(seeds.of(3, i))
                .instructions(scale.instructions(700.0))
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::PointerChase)
                .footprint(tree)
                .branch_mispredict_rate(0.05)
                .dependency_rate(0.30)
                .build();
            b.add_task(
                build_ty,
                t,
                &[
                    RegionAccess::input(sort_outs[i as usize % sort_outs.len()]),
                    RegionAccess::inout(tree),
                ],
            );
        }
        // mine_subtree (1800): THE dominant type. Log-uniform sizes over
        // 4.5 decades — the scaled version of the paper's 490..11,000,000
        // instruction range — plus heavy control-flow divergence. Every
        // mine task chases pointers through the SAME FP-tree (that is what
        // FP-growth does): short mines walk a hot prefix of the shared
        // chain, deep mines reach cold regions, giving the moderate
        // size-correlated IPC spread of the paper's Fig. 5 while the
        // 4-decade *length* imbalance stays in the instruction counts.
        let mut mine_outs = Vec::new();
        for i in 0..MINES as u64 {
            let size = srng.next_log_uniform(4.9, 110_000.0);
            let instrs = scale.instructions(size);
            let out = alloc.alloc_lines(1024);
            let t = TraceSpec::builder()
                .seed(seeds.of(4, i))
                .instructions(instrs)
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::PointerChase)
                .footprint(tree)
                .branch_mispredict_rate(0.08)
                .dependency_rate(0.35)
                .build();
            b.add_task(mine_ty, t, &[RegionAccess::input(tree), RegionAccess::output(out)]);
            mine_outs.push(out);
        }
        // prune (25)
        let mut prune_outs = Vec::new();
        for i in 0..PRUNES as u64 {
            let out = alloc.alloc_lines(4 * 1024);
            let mut acc = vec![RegionAccess::output(out)];
            // Each prune funnels a slice of mine outputs.
            let lo = i as usize * MINES / PRUNES;
            let hi = (i as usize + 1) * MINES / PRUNES;
            acc.extend(mine_outs[lo..hi].iter().map(|&m| RegionAccess::input(m)));
            let t = TraceSpec::builder()
                .seed(seeds.of(5, i))
                .instructions(scale.instructions(400.0))
                .mix(InstructionMix::irregular_int())
                .pattern(AccessPattern::Random)
                .footprint(out)
                .build();
            b.add_task(prune_ty, t, &acc);
            prune_outs.push(out);
        }
        // aggregate (6)
        for i in 0..AGGS as u64 {
            let out = alloc.alloc_lines(1024);
            let mut acc = vec![RegionAccess::output(out)];
            let lo = i as usize * PRUNES / AGGS;
            let hi = (i as usize + 1) * PRUNES / AGGS;
            acc.extend(prune_outs[lo..hi].iter().map(|&p| RegionAccess::input(p)));
            let t = TraceSpec::builder()
                .seed(seeds.of(6, i))
                .instructions(scale.instructions(300.0))
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::sequential(8))
                .footprint(out)
                .build();
            b.add_task(agg_ty, t, &acc);
        }
        b.build()
    }
}

/// swaptions: 16,384 independent Monte-Carlo pricing tasks — the most
/// regular PARSEC member.
pub mod swaptions {
    use super::*;

    /// Table I row.
    pub const INFO: WorkloadInfo = WorkloadInfo {
        name: "swaptions",
        class: BenchClass::Parsec,
        task_types: 1,
        task_instances: 16384,
        property: "Monte-Carlo simulation to calculate swaption prices",
    };

    /// Generates the workload.
    pub fn generate(scale: &ScaleConfig) -> Program {
        let seeds = scale.instance_seeds(INFO.name);
        let mut b = Program::with_capacity(INFO.name, INFO.task_instances);
        let ty = b.add_type("price_swaption");
        let mut alloc = AddressAllocator::new();
        let mut srng = Xoshiro256pp::seed_from_u64(0x50AF);
        for i in 0..INFO.task_instances as u64 {
            let fp = alloc.alloc_lines(2 * 1024);
            let jit = 1.0 + (srng.next_f64() - 0.5) * 0.01;
            let t = TraceSpec::builder()
                .seed(seeds.of(0, i))
                .instructions(scale.instructions(1790.0 * jit))
                .mix(InstructionMix::compute_bound())
                .pattern(AccessPattern::sequential(8))
                .footprint(fp)
                .branch_mispredict_rate(0.005)
                .dependency_rate(0.10)
                .build();
            b.add_task(ty, t, &[]);
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
    fn blackscholes_matches_table1() {
        let p = blackscholes::generate(&ScaleConfig::quick());
        check(blackscholes::INFO, &p);
        assert_eq!(p.instances_per_type(), vec![24450, 50]);
    }

    #[test]
    fn bodytrack_matches_table1() {
        let p = bodytrack::generate(&ScaleConfig::quick());
        check(bodytrack::INFO, &p);
        // Frames serialize through the model state.
        assert!(p.graph().critical_path_len() >= 61);
    }

    #[test]
    fn canneal_shares_one_netlist() {
        let p = canneal::generate(&ScaleConfig::quick());
        check(canneal::INFO, &p);
        let a = p.instances()[0].footprint();
        let z = p.instances()[16383].footprint();
        assert_eq!(a, z, "all swap batches walk the same netlist");
    }

    #[test]
    fn dedup_dominant_type_has_999_permille_of_instructions() {
        let p = dedup::generate(&ScaleConfig::new());
        check(dedup::INFO, &p);
        let per_type = p.instructions_per_type();
        let total: u64 = per_type.iter().sum();
        let compress_idx = p.types().iter().position(|t| t.name() == "compress").unwrap();
        let share = per_type[compress_idx] as f64 / total as f64;
        assert!(share > 0.99, "compress share {share}");
        // 7x size spread inside the dominant type.
        let sizes: Vec<u64> = p
            .instances()
            .iter()
            .filter(|i| i.type_id().0 == compress_idx as u32)
            .map(|i| i.instructions())
            .collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(max / min > 5.0, "spread {max}/{min}");
    }

    #[test]
    fn freqmine_dominant_type_matches_paper_pathology() {
        let p = freqmine::generate(&ScaleConfig::new());
        check(freqmine::INFO, &p);
        let per_type = p.instructions_per_type();
        let total: u64 = per_type.iter().sum();
        let mine_idx = p.types().iter().position(|t| t.name() == "mine_subtree").unwrap();
        let share = per_type[mine_idx] as f64 / total as f64;
        assert!(share > 0.85, "mine share {share} (paper: 93%)");
        let sizes: Vec<u64> = p
            .instances()
            .iter()
            .filter(|i| i.type_id().0 == mine_idx as u32)
            .map(|i| i.instructions())
            .collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(max / min > 1000.0, "4-decade size spread, got {max}/{min}");
    }

    #[test]
    fn swaptions_is_regular() {
        let p = swaptions::generate(&ScaleConfig::new());
        check(swaptions::INFO, &p);
        let sizes: Vec<u64> = p.instances().iter().map(|i| i.instructions()).collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(max / min < 1.05, "swaptions must be near-uniform");
        assert_eq!(p.graph().edge_count(), 0);
    }

    #[test]
    fn dedup_write_stage_serializes() {
        let p = dedup::generate(&ScaleConfig::quick());
        // The inout(output_file) chain makes the critical path at least as
        // long as the number of segments.
        assert!(p.graph().critical_path_len() >= 3934);
    }
}
