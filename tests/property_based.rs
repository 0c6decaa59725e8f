//! Property-based tests (proptest) on core data structures and invariants.

use proptest::prelude::*;
use taskpoint_repro::runtime::{Program, RegionAccess, TaskInstanceId};
use taskpoint_repro::sim::burst_duration;
use taskpoint_repro::stats::{percentile, BoxplotStats, Summary};
use taskpoint_repro::taskpoint::SampleHistory;
use taskpoint_repro::trace::{AccessPattern, InstructionMix, MemRegion, TraceSpec};

proptest! {
    // ---- stats ----

    #[test]
    fn summary_mean_within_min_max(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s: Summary = xs.iter().copied().collect();
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    #[test]
    fn percentiles_are_monotone(xs in prop::collection::vec(-1e3f64..1e3, 1..100),
                                 a in 0.0f64..100.0, b in 0.0f64..100.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let pa = percentile(&xs, lo).unwrap();
        let pb = percentile(&xs, hi).unwrap();
        prop_assert!(pa <= pb + 1e-9);
    }

    #[test]
    fn boxplot_fields_are_ordered(xs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let b = BoxplotStats::from_samples(&xs).unwrap();
        prop_assert!(b.min <= b.p5 && b.p5 <= b.q1 && b.q1 <= b.median);
        prop_assert!(b.median <= b.q3 && b.q3 <= b.p95 && b.p95 <= b.max);
    }

    // ---- burst arithmetic ----

    #[test]
    fn burst_duration_bounds(instructions in 0u64..10_000_000, ipc in 0.01f64..8.0) {
        let d = burst_duration(instructions, ipc);
        prop_assert!(d >= 1);
        // d == ceil(I/ipc) (within fp tolerance)
        let exact = instructions as f64 / ipc;
        prop_assert!((d as f64) + 1e-6 >= exact);
        prop_assert!((d as f64) - 1.0 <= exact + 1.0);
    }

    #[test]
    fn burst_duration_monotone_in_instructions(i1 in 0u64..1_000_000, delta in 0u64..1_000_000,
                                               ipc in 0.01f64..8.0) {
        prop_assert!(burst_duration(i1 + delta, ipc) >= burst_duration(i1, ipc));
    }

    // ---- sample history ----

    #[test]
    fn history_mean_is_bounded_by_samples(cap in 1usize..16,
                                          xs in prop::collection::vec(0.01f64..10.0, 1..64)) {
        let mut h = SampleHistory::new(cap);
        for &x in &xs {
            h.push(x);
        }
        let kept: Vec<f64> = xs.iter().rev().take(cap).copied().collect();
        let lo = kept.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = kept.iter().cloned().fold(0.0f64, f64::max);
        let mean = h.mean_ipc().unwrap();
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        prop_assert_eq!(h.len(), xs.len().min(cap));
    }

    // ---- memory regions ----

    #[test]
    fn region_split_tiles_exactly(base in 0u64..1_000_000, len in 1u64..1_000_000,
                                  n in 1u64..32) {
        let r = MemRegion::new(base, len);
        let parts = r.split(n);
        prop_assert_eq!(parts.len(), n as usize);
        prop_assert_eq!(parts[0].base, r.base);
        prop_assert_eq!(parts.last().unwrap().end(), r.end());
        let total: u64 = parts.iter().map(|p| p.len).sum();
        prop_assert_eq!(total, r.len);
        for w in parts.windows(2) {
            prop_assert_eq!(w[0].end(), w[1].base);
        }
    }

    // ---- traces ----

    #[test]
    fn trace_replay_is_identical_and_exact_length(seed in any::<u64>(), n in 0u64..3000) {
        let spec = TraceSpec::builder()
            .seed(seed)
            .instructions(n)
            .mix(InstructionMix::balanced())
            .pattern(AccessPattern::Random)
            .footprint(MemRegion::new(0x10_0000, 1 << 14))
            .build();
        let a: Vec<_> = spec.iter().collect();
        let b: Vec<_> = spec.iter().collect();
        prop_assert_eq!(a.len() as u64, n);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn block_fill_matches_iterator_for_any_capacity(seed in any::<u64>(), n in 0u64..3000,
                                                    capacity in 1usize..400) {
        use taskpoint_repro::trace::{InstBlock, Instruction, TraceSource};
        let spec = TraceSpec::builder()
            .seed(seed)
            .code_seed(seed ^ 0xABCD)
            .instructions(n)
            .mix(InstructionMix::balanced())
            .pattern(AccessPattern::strided(64, 3))
            .footprint(MemRegion::new(0x20_0000, 1 << 15))
            .build();
        let mut source = spec.source();
        let mut block = InstBlock::with_capacity(capacity);
        let mut batched: Vec<Instruction> = Vec::new();
        loop {
            let filled = source.fill(&mut block);
            if filled == 0 {
                break;
            }
            prop_assert!(filled <= capacity);
            batched.extend(block.iter());
        }
        let one_by_one: Vec<Instruction> = spec.iter().collect();
        prop_assert_eq!(batched, one_by_one);
    }

    #[test]
    fn instblock_streams_round_trip_through_codec(seed in any::<u64>(), n in 0u64..2500,
                                                  capacity in 1usize..300) {
        use taskpoint_repro::trace::{encode, InstBlock, RecordedTrace, TraceSource};
        let spec = TraceSpec::builder()
            .seed(seed)
            .instructions(n)
            .mix(InstructionMix::memory_bound())
            .pattern(AccessPattern::Random)
            .footprint(MemRegion::new(0x40_0000, 1 << 14))
            .build();
        // Encode block by block, then replay the byte stream through the
        // RecordedTrace source: the round trip must reproduce the exact
        // instruction sequence and the exact encoded bytes.
        let mut source = spec.source();
        let mut block = InstBlock::with_capacity(capacity);
        let mut bytes: Vec<u8> = Vec::new();
        while source.fill(&mut block) > 0 {
            bytes.extend_from_slice(encode::encode(block.iter()).as_ref());
        }
        let decoded = encode::decode(bytes.clone().into()).unwrap();
        let original: Vec<_> = spec.iter().collect();
        prop_assert_eq!(&decoded, &original);
        let mut replay = RecordedTrace::new(bytes.clone().into()).unwrap();
        prop_assert_eq!(replay.instructions(), n);
        let mut replayed = Vec::new();
        let mut rblock = InstBlock::with_capacity(97);
        while replay.fill(&mut rblock) > 0 {
            replayed.extend(rblock.iter());
        }
        prop_assert_eq!(&replayed, &original);
        let re_encoded = encode::encode(replayed);
        prop_assert_eq!(re_encoded.as_ref(), &bytes[..]);
    }

    #[test]
    fn trace_addresses_stay_in_footprint(seed in any::<u64>(), n in 1u64..2000,
                                         base in 1u64..1_000_000u64) {
        let footprint = MemRegion::new(base * 64, 1 << 13);
        let spec = TraceSpec::builder()
            .seed(seed)
            .instructions(n)
            .mix(InstructionMix::memory_bound())
            .pattern(AccessPattern::Gather { hot_probability: 0.7, hot_fraction: 0.25 })
            .footprint(footprint)
            .build();
        for inst in spec.iter() {
            if inst.kind.is_memory() {
                prop_assert!(footprint.contains(inst.addr));
            }
        }
    }

    // ---- dependence graph ----

    #[test]
    fn dependence_graph_edges_point_backwards(tasks in prop::collection::vec(0u8..8, 1..80)) {
        // Random chains over 8 regions: every predecessor must have a
        // smaller creation index (acyclicity by construction).
        let mut b = Program::builder("prop");
        let ty = b.add_type("t");
        for (i, &r) in tasks.iter().enumerate() {
            let region = MemRegion::new(0x1000 * (r as u64 + 1), 0x100);
            b.add_task(
                ty,
                TraceSpec::synthetic(i as u64, 1),
                &[RegionAccess::inout(region)],
            );
        }
        let p = b.build();
        for i in 0..p.num_instances() as u32 {
            for pred in p.graph().predecessors(TaskInstanceId(i)) {
                prop_assert!(pred.0 < i);
            }
        }
        // Topological execution must drain the whole graph.
        let mut rs = p.graph().ready_set();
        let mut queue: Vec<TaskInstanceId> = p.graph().roots();
        let mut done = 0;
        while let Some(t) = queue.pop() {
            rs.complete(p.graph(), t, |ready| queue.push(ready));
            done += 1;
        }
        prop_assert_eq!(done, p.num_instances());
        prop_assert!(rs.all_done());
    }

    #[test]
    fn csr_graph_matches_brute_force_analysis(
        tasks in prop::collection::vec(prop::collection::vec((0u8..6, 0u8..3), 0..5), 1..60)
    ) {
        // Random annotations over 6 regions: tasks with no annotations,
        // regions repeated within one task, in/out/inout and read-only
        // regions.
        let access = |&(r, m): &(u8, u8)| {
            let region = MemRegion::new(0x1000 * (r as u64 + 1), 0x100);
            match m {
                0 => RegionAccess::input(region),
                1 => RegionAccess::output(region),
                _ => RegionAccess::inout(region),
            }
        };
        let mut b = Program::builder("prop");
        let ty = b.add_type("t");
        for (i, accesses) in tasks.iter().enumerate() {
            let accesses: Vec<RegionAccess> = accesses.iter().map(access).collect();
            b.add_task(ty, TraceSpec::synthetic(i as u64, 1), &accesses);
        }
        let p = b.build();
        let g = p.graph();

        // O(n²) reference: every access, in program order, depends on the
        // last earlier write of its region (if it reads or writes) and on
        // every read-only access since that write (if it writes).
        let flat: Vec<(usize, RegionAccess)> = tasks
            .iter()
            .enumerate()
            .flat_map(|(i, accesses)| accesses.iter().map(move |a| (i, access(a))))
            .collect();
        let mut expected = vec![Vec::new(); tasks.len()];
        for (at, &(task, acc)) in flat.iter().enumerate() {
            let earlier = &flat[..at];
            let last_write = earlier
                .iter()
                .rposition(|(_, e)| e.region == acc.region && e.mode.writes());
            let deps = &mut expected[task];
            if let Some(w) = last_write {
                deps.push(earlier[w].0);
            }
            if acc.mode.writes() {
                let since = last_write.map_or(0, |w| w + 1);
                deps.extend(
                    earlier[since..]
                        .iter()
                        .filter(|(_, e)| e.region == acc.region && !e.mode.writes())
                        .map(|(t, _)| *t),
                );
            }
        }
        for (task, deps) in expected.iter_mut().enumerate() {
            deps.retain(|&d| d != task);
            deps.sort_unstable();
            deps.dedup();
            let got: Vec<usize> =
                g.predecessors(TaskInstanceId(task as u32)).iter().map(|p| p.index()).collect();
            prop_assert_eq!(&got, deps);
        }

        // Successor lists are the ascending transpose of the predecessors.
        let mut successors = 0;
        for i in 0..p.num_instances() {
            let succs = g.successors(TaskInstanceId(i as u32));
            prop_assert!(succs.windows(2).all(|w| w[0] < w[1]), "t{i} successors not ascending");
            for s in succs {
                prop_assert!(g.predecessors(*s).contains(&TaskInstanceId(i as u32)));
            }
            successors += succs.len();
        }
        prop_assert_eq!(successors, g.edge_count());

        // The ready set counts each task's predecessors: completing tasks
        // in id order readies a task exactly when its last predecessor
        // completes (roots are ready from the start).
        let mut rs = g.ready_set();
        let mut readied_by: Vec<Option<usize>> = vec![None; p.num_instances()];
        for i in 0..p.num_instances() {
            let id = TaskInstanceId(i as u32);
            prop_assert_eq!(rs.is_ready(id), g.predecessors(id).is_empty());
        }
        for i in 0..p.num_instances() {
            rs.complete(g, TaskInstanceId(i as u32), |t| readied_by[t.index()] = Some(i));
        }
        for (i, by) in readied_by.iter().enumerate() {
            let last_pred = g.predecessors(TaskInstanceId(i as u32)).last().map(|p| p.index());
            prop_assert_eq!(*by, last_pred);
        }
        prop_assert!(rs.all_done());
    }

    #[test]
    fn inout_chain_graph_is_a_path(n in 1usize..60) {
        let mut b = Program::builder("chain");
        let ty = b.add_type("t");
        let region = MemRegion::new(0x8000, 0x40);
        for i in 0..n {
            b.add_task(ty, TraceSpec::synthetic(i as u64, 1), &[RegionAccess::inout(region)]);
        }
        let p = b.build();
        prop_assert_eq!(p.graph().critical_path_len(), n);
        prop_assert_eq!(p.graph().edge_count(), n - 1);
    }
}

proptest! {
    // ---- (type, size-class) sampling units (paper §V-B future work) ----

    #[test]
    fn clustered_remapping_is_dense_stable_and_injective(
        xs in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        use std::collections::HashMap;
        use taskpoint_repro::runtime::TaskTypeId;
        use taskpoint_repro::taskpoint::ClusterMap;

        let mut c = ClusterMap::default();
        let mut model: HashMap<(u32, u32), u32> = HashMap::new();
        for &x in &xs {
            let ty = (x % 5) as u32;
            let instructions = x >> 3;
            let class = c.size_class(instructions);
            let vid = c.unit(TaskTypeId(ty), instructions).0;
            // Stable within a run: re-asking never reassigns.
            prop_assert_eq!(c.unit(TaskTypeId(ty), instructions).0, vid);
            match model.get(&(ty, class)) {
                Some(&expected) => prop_assert_eq!(vid, expected),
                None => {
                    model.insert((ty, class), vid);
                }
            }
        }
        // Injective across distinct (type, size-class) pairs.
        let mut vids: Vec<u32> = model.values().copied().collect();
        vids.sort_unstable();
        vids.dedup();
        prop_assert_eq!(vids.len(), model.len());
        // Dense: ids are exactly 0..num_clusters, in first-encounter order.
        prop_assert_eq!(c.num_clusters(), model.len());
        prop_assert_eq!(vids, (0..model.len() as u32).collect::<Vec<u32>>());
    }

    #[test]
    fn clustered_same_band_shares_a_unit_and_types_split(
        exp in 0u32..40,
        ty in 0u32..8,
    ) {
        use taskpoint_repro::runtime::TaskTypeId;
        use taskpoint_repro::taskpoint::ClusterMap;

        let mut c = ClusterMap::default();
        // Lowest and highest instruction counts of one octave: both in
        // size class `exp`.
        let lo = 1u64 << exp;
        let hi = lo | (lo - 1);
        let a = c.unit(TaskTypeId(ty), lo);
        let b = c.unit(TaskTypeId(ty), hi);
        prop_assert_eq!(a, b);
        prop_assert_eq!(c.size_class(lo), exp);
        // A different task type never shares the unit, even at the same
        // instruction count.
        let other = c.unit(TaskTypeId(ty + 100), lo);
        prop_assert_ne!(a, other);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // ---- simulation-level properties (fewer cases; each runs a sim) ----

    #[test]
    fn burst_sim_time_scales_inversely_with_ipc(tasks in 2u64..20, instrs in 100u64..2000) {
        use taskpoint_repro::runtime::Program;
        use taskpoint_repro::sim::{FixedIpc, MachineConfig, Simulation};
        let mut b = Program::builder("scale");
        let ty = b.add_type("t");
        for i in 0..tasks {
            b.add_task(ty, TraceSpec::synthetic(i, instrs), &[]);
        }
        let p = b.build();
        let run = |ipc: f64| {
            Simulation::builder(&p, MachineConfig::tiny_test())
                .workers(1)
                .build()
                .run(&mut FixedIpc(ipc))
                .total_cycles
        };
        let slow = run(1.0);
        let fast = run(2.0);
        prop_assert_eq!(slow, tasks * instrs);
        // Halving duration per task (ceil rounding makes it exact here).
        prop_assert_eq!(fast, tasks * instrs.div_ceil(2));
    }

    #[test]
    fn detailed_makespan_decreases_or_holds_with_more_workers(tasks in 8u64..24) {
        use taskpoint_repro::sim::{DetailedOnly, MachineConfig, Simulation};
        let mut b = Program::builder("scal");
        let ty = b.add_type("t");
        for i in 0..tasks {
            b.add_task(ty, TraceSpec::synthetic(i, 400), &[]);
        }
        let p = b.build();
        let run = |w: u32| {
            Simulation::builder(&p, MachineConfig::tiny_test())
                .workers(w)
                .build()
                .run(&mut DetailedOnly)
                .total_cycles
        };
        let one = run(1);
        let four = run(4);
        // Independent equal tasks: more workers cannot hurt by more than
        // contention effects; allow 25% slack for shared-resource delays.
        prop_assert!(four as f64 <= one as f64 * 1.25);
    }
}
