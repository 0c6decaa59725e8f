//! The deterministic event scheduler of the discrete-event engine.
//!
//! The engine keeps one pending wake-up per busy worker core in an
//! [`EventScheduler`]: a min-heap of `(tick, worker id)` pairs. Ties break
//! on the worker id, **not** insertion order: the pop sequence is a pure
//! function of the scheduled set, so results are reproducible and
//! independent of the order wake-ups were scheduled in (pinned by
//! `tests/event_determinism.rs`). The memory hierarchy and the noise
//! model keep no clock of their own: a core advances them synchronously,
//! from inside its accesses and at task completion, which keeps every
//! cache access and every noise draw on the exact cycle it had in the
//! lockstep engine.
//!
//! # Time base
//!
//! The scheduler's `u64` tick is the **base clock** of the machine: the
//! cycle counter of a clock-divider-1 core. A core in a group with
//! divider `d` runs its pipeline in *core-local* cycles and converts at
//! the core boundary — local cycle `c` occurs at global tick `c · d`, and
//! a global latency of `l` ticks costs the core `ceil(l / d)` local
//! cycles. Every core therefore reschedules itself only on multiples of
//! its own divider, and for `d = 1` all conversions are exact identities
//! (the bit-identity gate of `tests/block_equivalence.rs` rests on this).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deterministic min-heap of scheduled worker wake-ups.
///
/// Pops strictly in `(tick, worker id)` order: earliest tick first, lowest
/// worker id on ties. Because the order is a total function of the *set*
/// of scheduled pairs, insertion order cannot influence results.
#[derive(Debug, Default)]
pub struct EventScheduler {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl EventScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules worker `worker` to run at `tick`.
    pub fn schedule(&mut self, tick: u64, worker: u32) {
        self.heap.push(Reverse((tick, worker)));
    }

    /// Removes and returns the earliest `(tick, worker)` event, ties broken
    /// by worker id.
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        self.heap.pop().map(|Reverse(event)| event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_tick_order() {
        let mut s = EventScheduler::new();
        s.schedule(30, 0);
        s.schedule(10, 1);
        s.schedule(20, 2);
        assert_eq!(s.pop(), Some((10, 1)));
        assert_eq!(s.pop(), Some((20, 2)));
        assert_eq!(s.pop(), Some((30, 0)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn ties_break_on_worker_id() {
        let mut s = EventScheduler::new();
        // Insert in descending id order: the pop order must not care.
        for id in (0..8u32).rev() {
            s.schedule(42, id);
        }
        for id in 0..8u32 {
            assert_eq!(s.pop(), Some((42, id)));
        }
    }

    #[test]
    fn insertion_order_is_behavior_neutral() {
        let events = [(5u64, 3u32), (5, 1), (2, 7), (9, 0), (2, 2)];
        let drain = |order: &mut dyn Iterator<Item = &(u64, u32)>| {
            let mut s = EventScheduler::new();
            for &(t, id) in order {
                s.schedule(t, id);
            }
            std::iter::from_fn(|| s.pop()).collect::<Vec<_>>()
        };
        let forward = drain(&mut events.iter());
        let backward = drain(&mut events.iter().rev());
        assert_eq!(forward, backward);
        assert_eq!(forward[0], (2, 2), "lowest tick, lowest id first");
    }
}
