//! Scheduler-determinism properties for the discrete-event engine.
//!
//! The bit-identity guarantee of the event refactor rests on one
//! invariant: the [`EventScheduler`]'s pop order is a pure function of
//! the scheduled multiset — `(tick, worker id)` ascending — and does not
//! depend on insertion order. These properties pin that invariant
//! directly, complementing the golden-grid equivalence tests in
//! `block_equivalence.rs`.

use proptest::prelude::*;
use taskpoint_repro::sim::EventScheduler;

/// Pops every pending event, in scheduler order.
fn drain(sched: &mut EventScheduler) -> Vec<(u64, u32)> {
    std::iter::from_fn(|| sched.pop()).collect()
}

/// Fills a scheduler from an event list.
fn filled(events: &[(u64, u32)]) -> EventScheduler {
    let mut sched = EventScheduler::new();
    for &(tick, id) in events {
        sched.schedule(tick, id);
    }
    sched
}

/// Deterministic Fisher–Yates permutation of an event list (SplitMix64
/// stream seeded by the property input, so cases reproduce exactly).
fn shuffled(events: &[(u64, u32)], seed: u64) -> Vec<(u64, u32)> {
    let mut v = events.to_vec();
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

proptest! {
    #[test]
    fn pop_order_is_the_sorted_multiset(
        events in prop::collection::vec((0u64..50, 0u32..8), 0..64),
    ) {
        let popped = drain(&mut filled(&events));
        let mut expected = events.clone();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    #[test]
    fn pop_order_is_invariant_under_insertion_order(
        events in prop::collection::vec((0u64..50, 0u32..8), 0..64),
        seed in any::<u64>(),
    ) {
        let baseline = drain(&mut filled(&events));
        let permuted = shuffled(&events, seed);
        prop_assert_eq!(drain(&mut filled(&permuted)), baseline.clone());
        let mut reversed = events.clone();
        reversed.reverse();
        prop_assert_eq!(drain(&mut filled(&reversed)), baseline);
    }

    #[test]
    fn interleaved_pops_respect_the_global_order(
        first in prop::collection::vec((0u64..40, 0u32..8), 1..32),
        second in prop::collection::vec((0u64..40, 0u32..8), 1..32),
    ) {
        // Draining after a partial fill + refill still pops the merged
        // multiset in order from the point of the refill: the scheduler
        // holds no hidden state beyond the pending set.
        let mut sched = filled(&first);
        let head = sched.pop();
        for &(tick, id) in &second {
            sched.schedule(tick, id);
        }
        let rest = drain(&mut sched);
        let mut expected: Vec<(u64, u32)> = first.clone();
        expected.sort_unstable();
        prop_assert_eq!(head, Some(expected[0]));
        expected.remove(0);
        expected.extend(&second);
        expected.sort_unstable();
        prop_assert_eq!(rest, expected);
    }
}
