//! The discrete-event component scheduler.
//!
//! The engine used to be a lockstep loop over an anonymous worker heap;
//! this module factors the time base out into three named pieces so
//! heterogeneous machines (mixed clocks, asymmetric cores) fit without
//! special cases:
//!
//! * [`Component`] — anything that owns simulated state and advances in
//!   time. *Active* components (worker cores) report when they next need
//!   to run via [`Component::next_tick`]; *passive* components (the
//!   memory hierarchy, the noise model) return `None` and are advanced
//!   synchronously by the active component that touches them, which keeps
//!   every cache access and every noise draw on the exact cycle it had in
//!   the lockstep engine.
//! * [`EventScheduler`] — a deterministic min-heap of `(tick, component)`
//!   pairs. Ties break on the stable [`ComponentId`], **not** insertion
//!   order: the pop sequence is a pure function of the scheduled set, so
//!   results are reproducible and independent of heap capacity or the
//!   order components were registered in (pinned by
//!   `tests/event_determinism.rs`).
//! * [`EventCtx`] — what a component may see while ticking: the global
//!   time, the shared memory fabric, the program and the noise model. A
//!   component hands the task a tick completed back through the context;
//!   the engine processes it *synchronously, in the same event* —
//!   deferring it to a same-tick follow-up event would batch completions
//!   and change observable concurrency values.
//!
//! # Time base
//!
//! The scheduler's `u64` tick is the **base clock** of the machine: the
//! cycle counter of a clock-divider-1 core. A core in a group with
//! divider `d` runs its pipeline in *core-local* cycles and converts at
//! the component boundary — local cycle `c` occurs at global tick
//! `c · d`, and a global latency of `l` ticks costs the core
//! `ceil(l / d)` local cycles. Every component therefore reschedules
//! itself only on multiples of its own divider, and for `d = 1` all
//! conversions are exact identities (the bit-identity gate of
//! `tests/block_equivalence.rs` rests on this).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use taskpoint_runtime::Program;

use crate::hierarchy::MemorySystem;
use crate::noise::NoiseModel;
use crate::report::TaskReport;

/// Stable identity of a component within one simulation.
///
/// Ids are dense (`0..n`, assigned at engine construction, worker cores
/// first) and never reused, so they double as the deterministic
/// tie-breaker of the [`EventScheduler`]: of two components scheduled for
/// the same tick, the lower id runs first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

impl ComponentId {
    /// The id as a dense vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// A simulated hardware component driven by the [`EventScheduler`].
pub trait Component {
    /// Short human-readable kind ("core", "memory-hierarchy", ...).
    fn name(&self) -> &str;

    /// The next global tick this component needs to run at, or `None` if
    /// it is idle (or passive — advanced synchronously by others). The
    /// engine polls this after construction and after every
    /// [`tick`](Component::tick) and (re-)schedules accordingly, so a
    /// component never schedules itself directly.
    fn next_tick(&self) -> Option<u64>;

    /// Advances the component to `ctx.now()`. Completed tasks are
    /// reported through [`EventCtx::complete`]; the follow-up wake time is
    /// whatever [`next_tick`](Component::next_tick) returns afterwards.
    fn tick(&mut self, ctx: &mut EventCtx<'_>);
}

/// Everything a component may touch while ticking.
///
/// Carries disjoint borrows of the engine's shared state so a component
/// (itself borrowed mutably from the engine's component table) can still
/// reach the memory fabric — the classic split-borrow, resolved here
/// instead of at every call site.
pub struct EventCtx<'a> {
    now: u64,
    id: ComponentId,
    /// The shared cache hierarchy and DRAM — a passive [`Component`]
    /// advanced synchronously by core accesses.
    pub mem: &'a mut MemorySystem,
    /// The program being executed (task instances, types, traces).
    pub program: &'a Program,
    /// The system-noise model, if enabled — a passive [`Component`]
    /// consulted at task completion.
    pub noise: Option<&'a NoiseModel>,
    /// The task this tick completed: a core runs one task at a time, so a
    /// tick finishes at most one.
    completion: Option<TaskReport>,
}

impl<'a> EventCtx<'a> {
    /// Builds the context for one event.
    pub fn new(
        now: u64,
        id: ComponentId,
        mem: &'a mut MemorySystem,
        program: &'a Program,
        noise: Option<&'a NoiseModel>,
    ) -> Self {
        Self { now, id, mem, program, noise, completion: None }
    }

    /// The global tick this event fires at.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The component being ticked.
    pub fn component(&self) -> ComponentId {
        self.id
    }

    /// Reports the task this tick completed. The engine processes it
    /// synchronously after the tick — completion effects (successor
    /// readiness, worker release, re-assignment) happen before any other
    /// event fires.
    ///
    /// # Panics
    ///
    /// Panics if the tick already reported a completion.
    pub fn complete(&mut self, report: TaskReport) {
        assert!(self.completion.is_none(), "a tick completes at most one task");
        self.completion = Some(report);
    }

    /// Consumes the context, yielding the task the tick completed, if any.
    pub fn into_completion(self) -> Option<TaskReport> {
        self.completion
    }
}

/// Deterministic min-heap of scheduled component wake-ups.
///
/// Pops strictly in `(tick, id)` order: earliest tick first, lowest
/// [`ComponentId`] on ties. Because the order is a total function of the
/// *set* of scheduled pairs, neither insertion order nor the heap's
/// initial capacity can influence results.
#[derive(Debug, Default)]
pub struct EventScheduler {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl EventScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty scheduler with pre-allocated room for `capacity` events.
    /// Capacity is a host-side allocation hint only; it never affects pop
    /// order (pinned by `tests/event_determinism.rs`).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(capacity) }
    }

    /// Schedules `component` to run at `tick`.
    pub fn schedule(&mut self, tick: u64, component: ComponentId) {
        self.heap.push(Reverse((tick, component.0)));
    }

    /// Removes and returns the earliest event, ties broken by component
    /// id.
    pub fn pop(&mut self) -> Option<(u64, ComponentId)> {
        self.heap.pop().map(|Reverse((t, id))| (t, ComponentId(id)))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_tick_order() {
        let mut s = EventScheduler::new();
        s.schedule(30, ComponentId(0));
        s.schedule(10, ComponentId(1));
        s.schedule(20, ComponentId(2));
        assert_eq!(s.pop(), Some((10, ComponentId(1))));
        assert_eq!(s.pop(), Some((20, ComponentId(2))));
        assert_eq!(s.pop(), Some((30, ComponentId(0))));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn ties_break_on_component_id() {
        let mut s = EventScheduler::new();
        // Insert in descending id order: the pop order must not care.
        for id in (0..8u32).rev() {
            s.schedule(42, ComponentId(id));
        }
        for id in 0..8u32 {
            assert_eq!(s.pop(), Some((42, ComponentId(id))));
        }
    }

    #[test]
    fn capacity_is_behavior_neutral() {
        let events = [(5u64, 3u32), (5, 1), (2, 7), (9, 0), (2, 2)];
        let drain = |mut s: EventScheduler| {
            let mut out = Vec::new();
            for &(t, id) in &events {
                s.schedule(t, ComponentId(id));
            }
            while let Some(e) = s.pop() {
                out.push(e);
            }
            out
        };
        let a = drain(EventScheduler::new());
        let b = drain(EventScheduler::with_capacity(1));
        let c = drain(EventScheduler::with_capacity(1024));
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a[0], (2, ComponentId(2)), "lowest tick, lowest id first");
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut s = EventScheduler::new();
        assert!(s.is_empty());
        s.schedule(1, ComponentId(0));
        s.schedule(2, ComponentId(0));
        assert_eq!(s.len(), 2);
        s.pop();
        assert_eq!(s.len(), 1);
    }
}
