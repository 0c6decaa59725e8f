//! Statistical property suite of the two-phase stratified sampling policy.
//!
//! The pure Neyman allocator is pinned by randomized invariants —
//! allocations conserve the budget *exactly* under integer rounding,
//! raising one stratum's variance never costs it samples, zero-variance
//! strata stay at the floor — and the end-to-end policy is pinned through
//! the engine: `pilot_samples == budget` degenerates to a pilot-only run,
//! a serial program spends warmup + budget detailed instances to the
//! instance, and the resulting campaign records are byte-identical
//! across executor worker counts.

use proptest::prelude::*;
use taskpoint_repro::accuracy::{neyman_allocate, Stratum};
use taskpoint_repro::runtime::{AccessMode, Program, RegionAccess};
use taskpoint_repro::sim::{MachineConfig, SimResult, Simulation};
use taskpoint_repro::taskpoint::{self, AccuracyReport, TaskPointConfig};
use taskpoint_repro::trace::{AccessPattern, InstructionMix, MemRegion, TraceSpec};

/// SplitMix64 — derives per-task variation from a proptest seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A serial chain of `len` tasks cycling through `ntypes` task types.
/// Dependencies pin the concurrency at 1 (band 0 only, so band
/// re-opening never perturbs the budget arithmetic), and instruction
/// counts vary within one octave — one `(type, size-class)` stratum per
/// type, with genuine IPC variance.
fn chain_program(len: u32, ntypes: u32, seed: u64) -> Program {
    let mut b = Program::builder("chain");
    let types: Vec<_> = (0..ntypes).map(|t| b.add_type(format!("work{t}"))).collect();
    let region = |i: u32| MemRegion::new(0x6000_0000 + u64::from(i) * 0x10_0000, 4096);
    for i in 0..len {
        // 2048..=3547: a single octave size class.
        let instructions = 2048 + mix(seed ^ u64::from(i)) % 1500;
        let trace = TraceSpec::builder()
            .seed(seed ^ (u64::from(i) << 8))
            .code_seed(mix(seed ^ u64::from(i)).rotate_left(17))
            .instructions(instructions)
            .mix(InstructionMix::compute_bound())
            .pattern(AccessPattern::sequential(8))
            .footprint(region(i))
            .build();
        let mut accesses = vec![RegionAccess::new(region(i), AccessMode::Out)];
        if i > 0 {
            accesses.push(RegionAccess::new(region(i - 1), AccessMode::In));
        }
        b.add_task(types[(i % ntypes) as usize], trace, &accesses);
    }
    b.build()
}

/// One stratified run of `program` on one worker of the test machine.
fn stratified_run(program: &Program, config: TaskPointConfig) -> (SimResult, AccuracyReport) {
    let sim = Simulation::builder(program, MachineConfig::tiny_test()).build();
    let outcome = taskpoint::run(sim, config);
    (outcome.result, outcome.accuracy.expect("stratified runs report accuracy"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With any positive-variance strata, integer rounding conserves the
    /// budget *exactly* — never one sample over or under — and every
    /// stratum keeps at least the floor whenever the floors are funded.
    #[test]
    fn allocations_sum_exactly_to_the_budget(
        raw in prop::collection::vec((1u64..500, 0.001f64..10.0), 1..8),
        budget in 0u64..4000,
        floor in 0u64..5,
    ) {
        let strata: Vec<Stratum> =
            raw.iter().map(|&(size, std_dev)| Stratum { size, std_dev }).collect();
        let alloc = neyman_allocate(budget, &strata, floor);
        prop_assert_eq!(alloc.len(), strata.len());
        prop_assert_eq!(alloc.iter().sum::<u64>(), budget);
        if budget >= floor * strata.len() as u64 {
            prop_assert!(alloc.iter().all(|&a| a >= floor), "{alloc:?} below floor {floor}");
        }
    }

    /// Raising one stratum's pilot stddev at fixed size (all else equal)
    /// never decreases that stratum's allocation.
    #[test]
    fn allocation_is_monotone_in_one_stratum_stddev(
        raw in prop::collection::vec((1u64..500, 0.001f64..10.0), 1..8),
        which in 0usize..8,
        factor in 0.1f64..5.0,
        budget in 0u64..4000,
        floor in 0u64..5,
    ) {
        let base: Vec<Stratum> =
            raw.iter().map(|&(size, std_dev)| Stratum { size, std_dev }).collect();
        let j = which % base.len();
        let mut raised = base.clone();
        raised[j].std_dev *= 1.0 + factor;
        let before = neyman_allocate(budget, &base, floor);
        let after = neyman_allocate(budget, &raised, floor);
        prop_assert!(
            after[j] >= before[j],
            "raising stratum {j}'s stddev cost it samples: {after:?} vs {before:?} ({base:?})"
        );
        prop_assert_eq!(after.iter().sum::<u64>(), budget);
    }

    /// A stratum with no usable variance signal — zero, negative or
    /// non-finite stddev — receives exactly the floor, nothing more.
    #[test]
    fn zero_variance_strata_get_exactly_the_floor(
        raw in prop::collection::vec((1u64..500, 0.001f64..10.0), 2..8),
        which in 0usize..8,
        kind in 0u8..3,
        budget in 0u64..4000,
        floor in 0u64..5,
    ) {
        let mut strata: Vec<Stratum> =
            raw.iter().map(|&(size, std_dev)| Stratum { size, std_dev }).collect();
        let j = which % strata.len();
        strata[j].std_dev = match kind {
            0 => 0.0,
            1 => f64::NAN,
            _ => -2.5,
        };
        let budget = budget.max(floor * strata.len() as u64);
        let alloc = neyman_allocate(budget, &strata, floor);
        prop_assert_eq!(alloc[j], floor);
        prop_assert_eq!(alloc.iter().sum::<u64>(), budget);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `pilot_samples == budget` degenerates to a pilot-only run: the
    /// Neyman allocation fires with nothing left to hand out, every
    /// stratum converges on its pilot, and the detailed spend is exactly
    /// warmup + one pilot per stratum.
    #[test]
    fn budget_equal_to_pilot_degenerates_to_a_pilot_only_run(
        pilot in 2u64..6,
        ntypes in 1u32..3,
        seed in any::<u64>(),
    ) {
        let len = (2 + 2 * u64::from(ntypes) * pilot + 12) as u32;
        let program = chain_program(len, ntypes, seed);
        let (result, report) = stratified_run(&program, TaskPointConfig::stratified(pilot, pilot));
        prop_assert_eq!(report.allocated, Some(0));
        prop_assert_eq!(report.units(), ntypes as usize);
        prop_assert_eq!(report.converged_units(), report.units());
        // One worker, serial chain: W = 2 warmup completions, then the
        // round-robin type cycle meets every stratum's quota after
        // exactly `ntypes * pilot` detailed completions.
        prop_assert_eq!(result.detailed_tasks, 2 + u64::from(ntypes) * pilot);
        prop_assert_eq!(result.fast_tasks, u64::from(len) - result.detailed_tasks);
    }

    /// End-to-end budget conservation: on a serial two-type chain the
    /// detailed spend is exactly `warmup + budget` — the pilot overrun is
    /// impossible (quotas interleave), the Neyman extras sum to the
    /// remainder, and band re-opening cannot trigger at concurrency 1.
    #[test]
    fn detailed_spend_is_exactly_warmup_plus_budget(
        pilot in 2u64..6,
        extra in 0u64..30,
        seed in any::<u64>(),
    ) {
        let budget = 2 * pilot + extra;
        let len = (2 * budget + 8) as u32;
        let program = chain_program(len, 2, seed);
        let (result, report) = stratified_run(&program, TaskPointConfig::stratified(pilot, budget));
        prop_assert_eq!(report.allocated, Some(extra));
        prop_assert_eq!(result.detailed_tasks, 2 + budget);
        prop_assert_eq!(report.converged_units(), report.units());
        prop_assert_eq!(report.reopened_bands(), 0);
    }
}

/// The canonical campaign record of a stratified cell is byte-identical
/// across executor worker counts, and carries the stratified JSONL
/// fields.
#[test]
fn stratified_campaign_records_are_identical_across_worker_counts() {
    use taskpoint_repro::campaign::{Campaign, CellSpec, Executor, ResultStore};
    use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

    let specs = vec![
        CellSpec::sampled(
            Benchmark::Spmv,
            ScaleConfig::quick(),
            MachineConfig::tiny_test(),
            2,
            TaskPointConfig::stratified(4, 64),
        ),
        CellSpec::sampled(
            Benchmark::Spmv,
            ScaleConfig::quick(),
            MachineConfig::tiny_test(),
            2,
            TaskPointConfig::stratified(4, 256),
        ),
    ];
    let a = Campaign::new(ResultStore::disabled(), Executor::new(1)).run(&specs);
    let b = Campaign::new(ResultStore::disabled(), Executor::new(4)).run(&specs);
    assert_eq!(a.jsonl(), b.jsonl(), "canonical JSONL must not depend on worker count");
    for outcome in &a.outcomes {
        let json = outcome.record.to_json();
        assert!(json.contains("\"strat_pilot\":4"), "{json}");
        assert!(json.contains("\"strat_budget\":"), "{json}");
        assert!(json.contains("\"strat_allocated\":"), "{json}");
        assert!(!json.contains("\"ci_target\":"), "budget-driven cells have no CI target");
    }
}
