//! Dynamic task schedulers.
//!
//! The OmpSs runtime schedules ready task instances onto worker threads
//! dynamically; over-decomposition plus dynamic scheduling is what balances
//! load (paper §II-A) — and what makes per-thread instruction streams vary
//! between runs, defeating classical sampled simulation. The simulator asks
//! a [`Scheduler`] which task an idle worker should run next.
//!
//! [`FifoScheduler`] runs ready tasks in readiness order (the Nanos++
//! default breadth-first policy).

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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskInstanceId {
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
    fn scheduler_names() {
        assert_eq!(FifoScheduler::new().name(), "fifo");
    }
}
