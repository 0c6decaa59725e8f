//! The benchmark's own tracing: per-run boundary clocks and an in-memory
//! span log written out when the benchmark ends.
//!
//! Spans are recorded only around calls the benchmark makes into the
//! program (see `adapter.rs`); nothing inside the program is instrumented.
//! High-frequency boundaries (one call per task, per scheduling decision or
//! per trace block) are accumulated per run rather than stored one by one,
//! so a traced run keeps a bounded amount of memory.

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

/// A wrapped call boundary inside one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// `ModeController::mode_for_task` of a `core`-layer controller.
    CoreDecide,
    /// `ModeController::on_task_complete` of a `core`-layer controller.
    CoreObserve,
    /// `ModeController::mode_for_task` of an `accuracy`-layer controller.
    AccuracyDecide,
    /// `ModeController::on_task_complete` of an `accuracy`-layer controller.
    AccuracyObserve,
    /// `Scheduler::task_ready` and `Scheduler::pick`.
    Sched,
    /// `TraceSource::fill`.
    Fill,
}

impl Boundary {
    /// Every boundary, in report order.
    pub const ALL: [Boundary; 6] = [
        Boundary::CoreDecide,
        Boundary::CoreObserve,
        Boundary::AccuracyDecide,
        Boundary::AccuracyObserve,
        Boundary::Sched,
        Boundary::Fill,
    ];

    /// The span name written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Boundary::CoreDecide => "core.decide",
            Boundary::CoreObserve => "core.observe",
            Boundary::AccuracyDecide => "accuracy.decide",
            Boundary::AccuracyObserve => "accuracy.observe",
            Boundary::Sched => "runtime.sched",
            Boundary::Fill => "trace.fill",
        }
    }
}

/// Accumulated time and call count at one boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Nanoseconds spent inside the wrapped calls.
    pub ns: u64,
    /// Number of wrapped calls.
    pub calls: u64,
}

/// Deterministic counts taken at the wrapped boundaries of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryCounts {
    /// Tasks handed out by `Scheduler::pick`.
    pub picks: u64,
    /// Largest ready-queue length seen after a `task_ready`.
    pub ready_peak: u64,
    /// Trace sources created by the provider.
    pub sources: u64,
    /// Instructions returned by `TraceSource::fill`.
    pub fill_instructions: u64,
    /// Detailed decisions of a `core`-layer controller.
    pub core_detailed: u64,
    /// Fast-forward decisions of a `core`-layer controller.
    pub core_fast: u64,
    /// Detailed decisions of an `accuracy`-layer controller.
    pub accuracy_detailed: u64,
}

/// The clock every wrapper of one simulation run shares.
///
/// Besides the per-boundary sums it remembers when the first wrapped call
/// started and the last one ended: the engine calls no wrapper before its
/// setup (memory system, prewarm, cores) is done, and none after its event
/// loop, so those two instants split the run into setup, loop and finalize.
#[derive(Debug)]
pub struct LayerClock {
    epoch: Instant,
    first_call: Cell<Option<u64>>,
    last_call: Cell<u64>,
    acc: [Cell<Acc>; 6],
    counts: Cell<BoundaryCounts>,
}

impl LayerClock {
    /// A clock whose zero is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            first_call: Cell::new(None),
            last_call: Cell::new(0),
            acc: Default::default(),
            counts: Cell::new(BoundaryCounts::default()),
        }
    }

    /// Nanoseconds since the clock was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one call at `boundary`, adding its duration.
    pub fn time<R>(&self, boundary: Boundary, f: impl FnOnce() -> R) -> R {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        if self.first_call.get().is_none() {
            self.first_call.set(Some(t0));
        }
        self.last_call.set(t1);
        let slot = &self.acc[boundary as usize];
        let mut a = slot.get();
        a.ns += t1 - t0;
        a.calls += 1;
        slot.set(a);
        r
    }

    /// Updates the run's boundary counts.
    pub fn count(&self, f: impl FnOnce(&mut BoundaryCounts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }

    /// Splits a run that started at `run_start` and returned at `run_end`
    /// (both read from [`LayerClock::now`]).
    pub fn split(&self, run_start: u64, run_end: u64, memsys_new_ns: u64) -> RunSplit {
        let first = self.first_call.get().unwrap_or(run_end);
        let last = self.last_call.get().max(first);
        RunSplit {
            run_ns: run_end - run_start,
            memsys_new_ns,
            setup_ns: first - run_start,
            loop_ns: last - first,
            finalize_ns: run_end - last,
            acc: std::array::from_fn(|i| self.acc[i].get()),
            counts: self.counts.get(),
        }
    }
}

/// Where the host time of one traced simulation run went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunSplit {
    /// `Simulation::run`, entry to return.
    pub run_ns: u64,
    /// A separately timed `MemorySystem::new` for the same machine.
    pub memsys_new_ns: u64,
    /// Run entry to the first wrapped call.
    pub setup_ns: u64,
    /// First wrapped call to the end of the last one.
    pub loop_ns: u64,
    /// End of the last wrapped call to the return of `run`.
    pub finalize_ns: u64,
    /// Per-boundary sums, indexed by `Boundary as usize`.
    pub acc: [Acc; 6],
    /// Deterministic boundary counts.
    pub counts: BoundaryCounts,
}

impl RunSplit {
    /// Time and calls at one boundary.
    pub fn at(&self, b: Boundary) -> Acc {
        self.acc[b as usize]
    }

    /// Loop time not covered by any wrapped call: the engine's own event
    /// loop, core model and memory hierarchy.
    pub fn loop_self_ns(&self) -> u64 {
        let children: u64 = self.acc.iter().map(|a| a.ns).sum();
        self.loop_ns.saturating_sub(children)
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`<layer>.<boundary>` or a pass/cell label).
    pub name: String,
    /// Index of the parent span in the log, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
    /// Accumulated child boundaries of a simulation run.
    pub boundaries: Option<RunSplit>,
}

/// An in-memory span log. Spans of one benchmark process share its id.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose zero is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the log was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns: now,
            end_ns: now,
            boundaries: None,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a finished span with explicit times.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The boundary splits of every simulation-run span named `name`.
    pub fn runs(&self, name: &str) -> Vec<RunSplit> {
        self.spans.iter().filter(|s| s.name == name).filter_map(|s| s.boundaries).collect()
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self, run_id: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"run\":\"{run_id}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(b) = &s.boundaries {
                let _ = write!(
                    out,
                    ",\"setup_ns\":{},\"loop_self_ns\":{},\"finalize_ns\":{},\"memsys_new_ns\":{}",
                    b.setup_ns,
                    b.loop_self_ns(),
                    b.finalize_ns,
                    b.memsys_new_ns
                );
                for boundary in Boundary::ALL {
                    let a = b.at(boundary);
                    let _ = write!(
                        out,
                        ",\"{}\":{{\"ns\":{},\"calls\":{}}}",
                        boundary.name(),
                        a.ns,
                        a.calls
                    );
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_sums_to_the_run_and_self_time_excludes_children() {
        let clock = LayerClock::new();
        let start = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.time(Boundary::Sched, || std::thread::sleep(std::time::Duration::from_millis(2)));
        clock.time(Boundary::Fill, || std::thread::sleep(std::time::Duration::from_millis(2)));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let end = clock.now();
        let s = clock.split(start, end, 0);
        assert_eq!(s.setup_ns + s.loop_ns + s.finalize_ns, s.run_ns);
        assert!(s.setup_ns >= 2_000_000 && s.finalize_ns >= 2_000_000);
        assert_eq!(s.at(Boundary::Sched).calls, 1);
        assert_eq!(
            s.loop_self_ns(),
            s.loop_ns - s.at(Boundary::Sched).ns - s.at(Boundary::Fill).ns
        );
    }
}
