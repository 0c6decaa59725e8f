//! The program's code table: `ProgramBuilder::add_task` splits each trace
//! spec into a per-program code and per-instance data, and
//! `Program::spec` puts the two back together.
//!
//! Codes are compared bit for bit, so `-0.0` and `0.0` rates are two
//! codes, and the table is keyed by code, never by task type.

use std::collections::HashSet;

use proptest::prelude::*;
use taskpoint_runtime::{Program, TaskInstanceId};
use taskpoint_trace::{AccessPattern, InstKind, InstructionMix, MemRegion, TraceSpec};

const RATES: [f64; 4] = [0.0, -0.0, 0.02, 0.5];
const CODE_SEEDS: [u64; 3] = [0, 7, u64::MAX];

fn mixes() -> [InstructionMix; 3] {
    [
        InstructionMix::balanced(),
        InstructionMix::memory_bound(),
        InstructionMix::from_weights(&[(InstKind::IntAlu, 1.0)]),
    ]
}

fn patterns() -> [AccessPattern; 5] {
    [
        AccessPattern::sequential(8),
        AccessPattern::strided(64, 2),
        AccessPattern::Random,
        AccessPattern::Gather { hot_probability: 0.0, hot_fraction: 0.5 },
        AccessPattern::Gather { hot_probability: -0.0, hot_fraction: 0.5 },
    ]
}

/// The code part of a spec, floats as bits.
fn code_bits(spec: &TraceSpec) -> (u64, [u64; 11], [u64; 3], u64, u64) {
    (
        spec.code_seed(),
        spec.mix().cumulative_bits(),
        spec.pattern().bits(),
        spec.branch_mispredict_rate().to_bits(),
        spec.dependency_rate().to_bits(),
    )
}

/// Every field of a spec, floats as bits.
#[allow(clippy::type_complexity)]
fn spec_bits(
    spec: &TraceSpec,
) -> ((u64, [u64; 11], [u64; 3], u64, u64), u64, u64, MemRegion, MemRegion) {
    (code_bits(spec), spec.seed(), spec.instructions(), spec.footprint(), spec.shared())
}

proptest! {
    #[test]
    fn specs_round_trip_bitwise_and_codes_are_interned_once(
        tasks in prop::collection::vec(
            ((0usize..3, 0usize..3, 0usize..5), (0usize..3, 0usize..4, 0usize..4), (any::<u64>(), 0u64..1000)),
            1..200,
        ),
    ) {
        let (mixes, patterns) = (mixes(), patterns());
        let mut b = Program::builder("random-specs");
        let types: Vec<_> = (0..3).map(|i| b.add_type(format!("t{i}"))).collect();
        let mut added = Vec::new();
        for &((ty, mix, pattern), (code_seed, branch, dependency), (seed, instructions)) in &tasks {
            let spec = TraceSpec::builder()
                .seed(seed)
                .code_seed(CODE_SEEDS[code_seed])
                .instructions(instructions)
                .mix(mixes[mix].clone())
                .pattern(patterns[pattern])
                .footprint(MemRegion::new(seed >> 16 << 12, 4096))
                .shared(if seed % 2 == 0 { MemRegion::empty() } else { MemRegion::new(64, 64) })
                .branch_mispredict_rate(RATES[branch])
                .dependency_rate(RATES[dependency])
                .build();
            b.add_task(types[ty], spec.clone(), &[]);
            added.push(spec);
        }
        // Every declared type needs an instance.
        for &ty in &types {
            b.add_task(ty, added[0].clone(), &[]);
            added.push(added[0].clone());
        }
        let program = b.build();
        for (i, spec) in added.iter().enumerate() {
            let id = TaskInstanceId(i as u32);
            prop_assert_eq!(spec_bits(&program.spec(id)), spec_bits(spec));
        }
        let distinct: HashSet<_> = added.iter().map(code_bits).collect();
        prop_assert_eq!(program.num_codes(), distinct.len());
    }
}

#[test]
fn negative_zero_rates_are_their_own_code() {
    let spec = |rate: f64| {
        let footprint = MemRegion::new(0x1000, 4096);
        TraceSpec::builder().instructions(10).footprint(footprint).dependency_rate(rate).build()
    };
    let mut b = Program::builder("signed-zero");
    let t = b.add_type("t");
    for rate in [0.0, -0.0, 0.0, -0.0] {
        b.add_task(t, spec(rate), &[]);
    }
    let program = b.build();
    assert_eq!(program.num_codes(), 2);
    for (i, negative) in [false, true, false, true].into_iter().enumerate() {
        let rate = program.spec(TaskInstanceId(i as u32)).dependency_rate();
        assert_eq!(rate.is_sign_negative(), negative);
    }
}

#[test]
fn types_with_equal_code_share_one_entry() {
    let spec = TraceSpec::synthetic(3, 100);
    let mut b = Program::builder("shared-code");
    for name in ["potrf", "trsm", "syrk", "gemm"] {
        let t = b.add_type(name);
        b.add_task(t, spec.clone(), &[]);
    }
    assert_eq!(b.build().num_codes(), 1);
}
