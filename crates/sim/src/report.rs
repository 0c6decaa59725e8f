//! Per-task reports and whole-simulation results.

use taskpoint_runtime::{TaskInstanceId, TaskTypeId, WorkerId};

use crate::hierarchy::LevelStats;

/// The mode a task instance was simulated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Cycle-level detailed simulation (ROB occupancy analysis + caches).
    Detailed,
    /// Burst/fast-forward mode at a prescribed IPC.
    Fast,
}

/// Timing record of one completed task instance — the quantity TaskPoint
/// samples (its IPC) and predicts (its duration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskReport {
    /// The completed instance.
    pub task: TaskInstanceId,
    /// Its task type.
    pub type_id: TaskTypeId,
    /// The worker that executed it.
    pub worker: WorkerId,
    /// Start cycle.
    pub start: u64,
    /// Completion cycle (exclusive; `end > start` always holds).
    pub end: u64,
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Simulation mode the instance ran in.
    pub mode: SimMode,
    /// Number of workers executing tasks concurrently when this task
    /// started (including itself) — the signal behind the paper's
    /// thread-count resampling trigger (Fig. 4a).
    pub concurrency: u32,
}

impl TaskReport {
    /// Cycles the task took.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }

    /// The task's achieved instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles() as f64
    }
}

/// Aggregate statistics of one heterogeneous core group.
///
/// Only produced for machines with
/// [`core_groups`](crate::config::MachineConfig::core_groups); homogeneous
/// runs leave [`SimResult::groups`] empty.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// Group name from the machine description.
    pub name: String,
    /// Cores in the group.
    pub cores: u32,
    /// The group's clock divider relative to the base clock.
    pub clock_divider: u32,
    /// Task instances the group ran in detailed mode.
    pub detailed_tasks: u64,
    /// Task instances the group fast-forwarded.
    pub fast_tasks: u64,
    /// Instructions executed by the group (both modes).
    pub instructions: u64,
    /// Global base-clock ticks the group's cores spent running tasks
    /// (summed over cores; divide by [`GroupStats::clock_divider`] for
    /// core-local cycles).
    pub busy_ticks: u64,
}

impl GroupStats {
    /// Busy time in core-local cycles (what the group's pipelines saw).
    pub fn busy_core_cycles(&self) -> u64 {
        self.busy_ticks / self.clock_divider.max(1) as u64
    }

    /// The group's achieved instructions per core-local cycle.
    pub fn ipc(&self) -> f64 {
        let cycles = self.busy_core_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / cycles as f64
        }
    }
}

/// Where one core group's time went, in global base-clock ticks summed
/// over the group's cores.
///
/// The taxonomy is exhaustive and disjoint: the categories sum **exactly**
/// to `total()` = `total_cycles × cores` (pinned by
/// `tests/block_equivalence.rs`). Stall categories are attributed inside
/// the detailed core model ([ROB occupancy
/// analysis](crate::core_model::RobCore)) with cheap always-on counters;
/// `issue` absorbs productive dispatch plus timing-noise remainder,
/// `fast_fwd` is busy time spent in burst mode, and `idle` is the
/// no-task-assigned remainder.
///
/// Homogeneous machines report one synthetic group named `all`;
/// heterogeneous machines report one account per configured group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleAccount {
    /// Group name (`all` for homogeneous machines).
    pub name: String,
    /// Cores in the group.
    pub cores: u32,
    /// Ticks dispatching instructions (including noise-model remainder).
    pub issue: u64,
    /// ROB window full behind a compute instruction.
    pub rob_full: u64,
    /// Serialization: data dependences, branch mispredictions, fences.
    pub dep_wait: u64,
    /// Waiting on an L1 hit blocking the window.
    pub l1_wait: u64,
    /// Waiting on data from a deeper cache level (L1 missed, no DRAM).
    pub l2_wait: u64,
    /// Waiting on DRAM.
    pub dram_wait: u64,
    /// All MSHRs in flight — no new miss could issue.
    pub mshr_full: u64,
    /// Waiting behind bus/bank bandwidth (service-queue delay).
    pub contention: u64,
    /// Busy ticks spent fast-forwarding tasks in burst mode.
    pub fast_fwd: u64,
    /// Ticks with no task assigned.
    pub idle: u64,
}

impl CycleAccount {
    /// Ticks the group's cores were running tasks (everything but idle).
    pub fn busy(&self) -> u64 {
        self.issue
            + self.rob_full
            + self.dep_wait
            + self.l1_wait
            + self.l2_wait
            + self.dram_wait
            + self.mshr_full
            + self.contention
            + self.fast_fwd
    }

    /// Ticks spent stalled in detailed mode (busy minus issue/fast-forward).
    pub fn stalled(&self) -> u64 {
        self.rob_full
            + self.dep_wait
            + self.l1_wait
            + self.l2_wait
            + self.dram_wait
            + self.mshr_full
            + self.contention
    }

    /// Total accounted ticks — `busy() + idle`, which the engine pins to
    /// `total_cycles × cores`.
    pub fn total(&self) -> u64 {
        self.busy() + self.idle
    }

    /// The categories as `(name, ticks)` pairs in canonical order, for
    /// uniform rendering and export.
    pub fn categories(&self) -> [(&'static str, u64); 10] {
        [
            ("issue", self.issue),
            ("rob_full", self.rob_full),
            ("dep_wait", self.dep_wait),
            ("l1_wait", self.l1_wait),
            ("l2_wait", self.l2_wait),
            ("dram_wait", self.dram_wait),
            ("mshr_full", self.mshr_full),
            ("contention", self.contention),
            ("fast_fwd", self.fast_fwd),
            ("idle", self.idle),
        ]
    }
}

/// Task-latency percentiles over all completed task instances (global
/// base-clock ticks), computed exactly from the per-task durations —
/// always on, independent of report collection.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Number of completed task instances the percentiles cover.
    pub count: u64,
    /// Median task latency.
    pub p50: f64,
    /// 99th-percentile task latency.
    pub p99: f64,
    /// 99.9th-percentile task latency.
    pub p999: f64,
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total simulated execution time in cycles (completion of the last
    /// task).
    pub total_cycles: u64,
    /// Host wall-clock seconds the simulation took — the numerator /
    /// denominator of the paper's speedup metric.
    pub wall_seconds: f64,
    /// The part of `wall_seconds` before the first task is handed out:
    /// memory-system construction, last-level prewarm and core setup. A
    /// fixed per-run cost that caps a sampled run's speedup.
    pub setup_seconds: f64,
    /// Number of task instances simulated in detailed mode.
    pub detailed_tasks: u64,
    /// Number of task instances fast-forwarded.
    pub fast_tasks: u64,
    /// Instructions simulated in detailed mode.
    pub detailed_instructions: u64,
    /// Instructions covered by fast-forwarding.
    pub fast_instructions: u64,
    /// Per-task reports in completion order (empty unless report collection
    /// was enabled).
    pub reports: Vec<TaskReport>,
    /// Coherence invalidations performed.
    pub invalidations: u64,
    /// DRAM line fetches.
    pub dram_accesses: u64,
    /// Private-level cache statistics (L1, then L2-private if any).
    pub private_cache: Vec<LevelStats>,
    /// Shared-level cache statistics.
    pub shared_cache: Vec<LevelStats>,
    /// Number of worker threads simulated.
    pub workers: u32,
    /// Per-core-group statistics, in the machine's group order. Empty for
    /// homogeneous machines.
    pub groups: Vec<GroupStats>,
    /// Per-core-group cycle accounting (one synthetic `all` group for
    /// homogeneous machines). Categories sum to `total_cycles × cores`.
    pub cycle_accounts: Vec<CycleAccount>,
    /// Task-latency percentiles over all completed task instances.
    pub task_latency: LatencyPercentiles,
}

impl SimResult {
    /// Fraction of all simulated instructions that ran in detailed mode —
    /// the paper's main knob for the speed/accuracy trade-off.
    pub fn detail_fraction(&self) -> f64 {
        let total = self.detailed_instructions + self.fast_instructions;
        if total == 0 {
            0.0
        } else {
            self.detailed_instructions as f64 / total as f64
        }
    }

    /// Total simulated instructions.
    pub fn total_instructions(&self) -> u64 {
        self.detailed_instructions + self.fast_instructions
    }

    /// Detailed-mode simulation throughput in instructions per host
    /// second — the figure of merit of the batched trace pipeline. `None`
    /// when no detailed instructions ran or the wall clock is unusable
    /// (e.g. a result reconstructed from a cache record).
    pub fn detailed_instr_per_sec(&self) -> Option<f64> {
        if self.detailed_instructions == 0 || self.wall_seconds <= 0.0 {
            None
        } else {
            Some(self.detailed_instructions as f64 / self.wall_seconds)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(start: u64, end: u64, instructions: u64) -> TaskReport {
        TaskReport {
            task: TaskInstanceId(0),
            type_id: TaskTypeId(0),
            worker: WorkerId(0),
            start,
            end,
            instructions,
            mode: SimMode::Detailed,
            concurrency: 1,
        }
    }

    #[test]
    fn ipc_is_instructions_over_cycles() {
        let r = report(100, 300, 400);
        assert_eq!(r.cycles(), 200);
        assert_eq!(r.ipc(), 2.0);
    }

    #[test]
    fn detail_fraction_bounds() {
        let mut res = SimResult {
            total_cycles: 0,
            wall_seconds: 0.0,
            setup_seconds: 0.0,
            detailed_tasks: 0,
            fast_tasks: 0,
            detailed_instructions: 30,
            fast_instructions: 70,
            reports: vec![],
            invalidations: 0,
            dram_accesses: 0,
            private_cache: vec![],
            shared_cache: vec![],
            workers: 1,
            groups: vec![],
            cycle_accounts: vec![],
            task_latency: LatencyPercentiles::default(),
        };
        assert!((res.detail_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(res.total_instructions(), 100);
        res.detailed_instructions = 0;
        res.fast_instructions = 0;
        assert_eq!(res.detail_fraction(), 0.0);
    }

    #[test]
    fn group_stats_convert_ticks_to_core_cycles() {
        let g = GroupStats {
            name: "little".to_string(),
            cores: 2,
            clock_divider: 2,
            detailed_tasks: 10,
            fast_tasks: 0,
            instructions: 600,
            busy_ticks: 1200,
        };
        assert_eq!(g.busy_core_cycles(), 600, "divider 2: half the global ticks");
        assert_eq!(g.ipc(), 1.0);
        let idle = GroupStats { busy_ticks: 0, instructions: 0, ..g };
        assert_eq!(idle.ipc(), 0.0);
    }
}
