//! Dynamic task schedulers.
//!
//! The OmpSs runtime schedules ready task instances onto worker threads
//! dynamically; over-decomposition plus dynamic scheduling is what balances
//! load (paper §II-A) — and what makes per-thread instruction streams vary
//! between runs, defeating classical sampled simulation. The simulator asks
//! a [`Scheduler`] which task an idle worker should run next.
//!
//! * [`FifoScheduler`] — ready tasks run in readiness order (the Nanos++
//!   default breadth-first policy);
//! * [`LifoScheduler`] — newest-ready-first (depth-first, cache-friendlier);
//! * [`SizeTieredScheduler`] — big and little queues by task size, for
//!   heterogeneous machines.

use crate::program::Program;
use crate::task::TaskInstanceId;
use std::collections::VecDeque;

/// Identifier of a simulated worker thread (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A dynamic scheduler: receives ready tasks, hands them to idle workers.
///
/// Implementations must be deterministic — given the same sequence of
/// `task_ready` / `pick` calls they must return the same tasks — because
/// the sampled and the detailed simulation must execute the same schedule
/// *modulo timing*, and reproducibility of experiments depends on it.
pub trait Scheduler {
    /// Registers a task whose dependences are all satisfied.
    fn task_ready(&mut self, task: TaskInstanceId);

    /// Picks the next task for `worker`, or `None` if no work is available.
    fn pick(&mut self, worker: WorkerId) -> Option<TaskInstanceId>;

    /// Number of ready-but-unclaimed tasks.
    fn ready_count(&self) -> usize;

    /// Human-readable policy name for logs and reports.
    fn name(&self) -> &'static str;
}

/// Breadth-first FIFO scheduler (Nanos++ default).
#[derive(Debug, Default, Clone)]
pub struct FifoScheduler {
    queue: VecDeque<TaskInstanceId>,
}

impl FifoScheduler {
    /// Creates an empty FIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn task_ready(&mut self, task: TaskInstanceId) {
        self.queue.push_back(task);
    }

    fn pick(&mut self, _worker: WorkerId) -> Option<TaskInstanceId> {
        self.queue.pop_front()
    }

    fn ready_count(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Depth-first LIFO scheduler: runs the most recently readied task first.
#[derive(Debug, Default, Clone)]
pub struct LifoScheduler {
    stack: Vec<TaskInstanceId>,
}

impl LifoScheduler {
    /// Creates an empty LIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LifoScheduler {
    fn task_ready(&mut self, task: TaskInstanceId) {
        self.stack.push(task);
    }

    fn pick(&mut self, _worker: WorkerId) -> Option<TaskInstanceId> {
        self.stack.pop()
    }

    fn ready_count(&self) -> usize {
        self.stack.len()
    }

    fn name(&self) -> &'static str {
        "lifo"
    }
}

/// Size-tiered scheduler for heterogeneous (big.LITTLE) machines: tasks at
/// or above an instruction-count threshold queue as "big" work, the rest as
/// "little" work. Workers below `big_workers` (the machine's leading big
/// group — the engine assigns group cores the lowest ids in listed order)
/// prefer the big queue, the others the little queue; both fall back to the
/// other queue rather than idle, so the policy shapes placement without
/// ever leaving a core unused while work is ready. Each queue is FIFO and
/// the whole policy is deterministic.
#[derive(Debug, Clone)]
pub struct SizeTieredScheduler {
    big: VecDeque<TaskInstanceId>,
    little: VecDeque<TaskInstanceId>,
    /// Per-instance instruction counts, indexed by `TaskInstanceId`.
    instructions: Vec<u64>,
    big_workers: u32,
    threshold: u64,
}

impl SizeTieredScheduler {
    /// Builds the size table from a program. Workers `0..big_workers`
    /// prefer tasks of at least `threshold` instructions.
    pub fn from_program(program: &Program, big_workers: u32, threshold: u64) -> Self {
        let instructions = program.instances().iter().map(|inst| inst.instructions()).collect();
        Self { big: VecDeque::new(), little: VecDeque::new(), instructions, big_workers, threshold }
    }

    /// Median-threshold convenience: big work is anything at or above the
    /// program's median task size, and the split adapts to the workload.
    pub fn median_split(program: &Program, big_workers: u32) -> Self {
        let mut sizes: Vec<u64> =
            program.instances().iter().map(|inst| inst.instructions()).collect();
        sizes.sort_unstable();
        let threshold = sizes.get(sizes.len() / 2).copied().unwrap_or(0);
        Self::from_program(program, big_workers, threshold)
    }
}

impl Scheduler for SizeTieredScheduler {
    fn task_ready(&mut self, task: TaskInstanceId) {
        if self.instructions[task.index()] >= self.threshold {
            self.big.push_back(task);
        } else {
            self.little.push_back(task);
        }
    }

    fn pick(&mut self, worker: WorkerId) -> Option<TaskInstanceId> {
        if worker.0 < self.big_workers {
            self.big.pop_front().or_else(|| self.little.pop_front())
        } else {
            self.little.pop_front().or_else(|| self.big.pop_front())
        }
    }

    fn ready_count(&self) -> usize {
        self.big.len() + self.little.len()
    }

    fn name(&self) -> &'static str {
        "size-tiered"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint_trace::TraceSpec;

    fn t(i: u64) -> TaskInstanceId {
        TaskInstanceId(i)
    }

    #[test]
    fn fifo_is_first_in_first_out() {
        let mut s = FifoScheduler::new();
        s.task_ready(t(0));
        s.task_ready(t(1));
        s.task_ready(t(2));
        assert_eq!(s.ready_count(), 3);
        assert_eq!(s.pick(WorkerId(0)), Some(t(0)));
        assert_eq!(s.pick(WorkerId(1)), Some(t(1)));
        assert_eq!(s.pick(WorkerId(0)), Some(t(2)));
        assert_eq!(s.pick(WorkerId(0)), None);
    }

    #[test]
    fn lifo_is_last_in_first_out() {
        let mut s = LifoScheduler::new();
        s.task_ready(t(0));
        s.task_ready(t(1));
        assert_eq!(s.pick(WorkerId(0)), Some(t(1)));
        assert_eq!(s.pick(WorkerId(0)), Some(t(0)));
        assert_eq!(s.pick(WorkerId(0)), None);
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(FifoScheduler::new().name(), "fifo");
        assert_eq!(LifoScheduler::new().name(), "lifo");
        let p = tiered_program();
        assert_eq!(SizeTieredScheduler::from_program(&p, 1, 100).name(), "size-tiered");
    }

    /// Tasks 0..4 are 1000-instruction "big" work, 4..8 are 10-instruction
    /// "little" work.
    fn tiered_program() -> Program {
        let mut b = Program::builder("tiered");
        let ty = b.add_type("w");
        for i in 0..8u64 {
            let instrs = if i < 4 { 1000 } else { 10 };
            b.add_task(ty, TraceSpec::synthetic(i, instrs), &[]);
        }
        b.build()
    }

    #[test]
    fn size_tiered_routes_by_threshold() {
        let p = tiered_program();
        let mut s = SizeTieredScheduler::from_program(&p, 2, 100);
        for i in 0..8 {
            s.task_ready(t(i));
        }
        assert_eq!(s.ready_count(), 8);
        // Big worker 0 drains the big queue first, in FIFO order.
        assert_eq!(s.pick(WorkerId(0)), Some(t(0)));
        assert_eq!(s.pick(WorkerId(1)), Some(t(1)));
        // Little worker 2 gets little work while big work remains.
        assert_eq!(s.pick(WorkerId(2)), Some(t(4)));
        assert_eq!(s.ready_count(), 5);
    }

    #[test]
    fn size_tiered_falls_back_instead_of_idling() {
        let p = tiered_program();
        let mut s = SizeTieredScheduler::from_program(&p, 1, 100);
        // Only little work ready: the big worker must take it.
        s.task_ready(t(5));
        assert_eq!(s.pick(WorkerId(0)), Some(t(5)));
        // Only big work ready: a little worker must take it.
        s.task_ready(t(1));
        assert_eq!(s.pick(WorkerId(3)), Some(t(1)));
        assert_eq!(s.ready_count(), 0);
        assert_eq!(s.pick(WorkerId(0)), None);
    }

    #[test]
    fn median_split_adapts_to_the_workload() {
        let p = tiered_program();
        let s = SizeTieredScheduler::median_split(&p, 2);
        // Sizes sorted: [10,10,10,10,1000,1000,1000,1000] -> median 1000.
        assert_eq!(s.threshold, 1000);
        let mut s = s;
        s.task_ready(t(0)); // 1000 instructions -> big queue
        s.task_ready(t(7)); // 10 instructions -> little queue
        assert_eq!(s.pick(WorkerId(0)), Some(t(0)));
        assert_eq!(s.pick(WorkerId(1)), Some(t(7)));
    }
}
