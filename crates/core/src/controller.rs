//! The TaskPoint sampling mechanism (paper §III).
//!
//! [`TaskPointController`] implements `tasksim`'s
//! [`ModeController`] hook and drives the
//! four-phase state machine:
//!
//! ```text
//!  InitialWarmup ──► Sampling ──► FastForward ──► Rewarm ──► Sampling ─► ...
//!     (W/thread)      (fill valid    (per-type      (1/thread,
//!                      histories)     mean IPC)      valid cleared)
//! ```
//!
//! * **Warmup** — the first `W` detailed instances per thread only feed the
//!   all-samples history.
//! * **Sampling** — detailed instances feed both histories; the controller
//!   switches to fast-forward when every observed type's valid history is
//!   full, or when every thread has completed `rare_type_cutoff` instances
//!   without encountering an unfilled (*rare*) type.
//! * **FastForward** — each task runs at its type's history-mean IPC
//!   (`C_i = I_i / IPC_T`); tasks that started in detailed mode finish
//!   detailed and feed only the all-samples history, exactly as in the
//!   paper.
//! * **Resampling** is triggered by the policy (thread fast-forwarded `P`
//!   instances), by the first instance of an unknown type (Fig. 4b), by a
//!   change in the concurrency level (Fig. 4a, tracked in power-of-two
//!   buckets), or by a task whose type has no samples at all. It clears
//!   the valid histories and re-warms one instance per thread.

use std::collections::HashMap;

use taskpoint_accuracy::{SamplingPolicy, TaskPointConfig};
use tasksim::{ExecMode, ModeController, SimMode, TaskReport, TaskStart};

use crate::history::TypeHistories;

/// The controller's execution phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Initial warmup: `W` detailed instances per thread.
    InitialWarmup,
    /// Measuring valid samples in detailed mode.
    Sampling,
    /// Fast-forwarding at per-type IPC.
    FastForward,
    /// Re-warming after a resample trigger: one detailed instance per
    /// thread.
    Rewarm,
}

/// Why a resampling was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResampleCause {
    /// Periodic policy: a thread fast-forwarded `P` instances.
    Policy,
    /// First instance of a previously unknown task type (paper Fig. 4b).
    NewTaskType,
    /// The number of concurrently executing threads changed buckets
    /// (paper Fig. 4a).
    ConcurrencyChange,
    /// A task's type had no valid and no all-history samples.
    EmptyHistories,
}

/// Telemetry of one sampled run.
#[derive(Debug, Clone, Default)]
pub struct SamplingStats {
    /// `(simulated time, new phase)` transitions in order.
    pub phase_log: Vec<(u64, Phase)>,
    /// `(simulated time, cause)` of every resample.
    pub resamples: Vec<(u64, ResampleCause)>,
    /// Valid samples measured, per task type.
    pub valid_samples: HashMap<u32, u64>,
    /// Tasks fast-forwarded.
    pub fast_tasks: u64,
    /// Tasks simulated in detail.
    pub detailed_tasks: u64,
}

impl SamplingStats {
    /// Number of resamples attributed to `cause`.
    pub fn resamples_by(&self, cause: ResampleCause) -> usize {
        self.resamples.iter().filter(|(_, c)| *c == cause).count()
    }
}

/// The TaskPoint mode controller. Create one per simulation run.
#[derive(Debug)]
pub struct TaskPointController {
    config: TaskPointConfig,
    phase: Phase,
    /// Histories per observed type, indexed by the dense type id (`None`
    /// until the type's first instance starts).
    types: Vec<Option<TypeHistories>>,
    /// Detailed completions per worker since the current warmup began.
    warmup_done: Vec<u64>,
    warmup_target: u64,
    /// Detailed completions per worker since the last unfilled-type
    /// encounter (rare-type cutoff tracking).
    since_unfilled: Vec<u64>,
    /// Fast-forwarded instances per worker since the last transition
    /// (periodic-policy tracking).
    fast_counts: Vec<u64>,
    /// Smoothed (EWMA) concurrency level observed at task starts.
    conc_ewma: f64,
    /// Smoothed concurrency recorded when sampling completed.
    sampled_conc: f64,
    workers_known: bool,
    stats: SamplingStats,
}

impl TaskPointController {
    /// Creates a controller with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or if its policy is
    /// [`SamplingPolicy::Adaptive`] or [`SamplingPolicy::Stratified`] —
    /// those run through
    /// [`AdaptiveController`](taskpoint_accuracy::AdaptiveController) and
    /// [`StratifiedController`](taskpoint_accuracy::StratifiedController)
    /// ([`run`](crate::run) dispatches on the policy).
    pub fn new(config: TaskPointConfig) -> Self {
        config.validate();
        assert!(
            !config.policy.is_adaptive(),
            "SamplingPolicy::Adaptive requires the AdaptiveController; use taskpoint::run \
             (which dispatches on the policy)"
        );
        assert!(
            !config.policy.is_stratified(),
            "SamplingPolicy::Stratified requires the StratifiedController; use taskpoint::run \
             (which dispatches on the policy)"
        );
        let warmup_target = config.warmup_instances;
        let mut controller = Self {
            config,
            phase: Phase::InitialWarmup,
            types: Vec::new(),
            warmup_done: Vec::new(),
            warmup_target,
            since_unfilled: Vec::new(),
            fast_counts: Vec::new(),
            conc_ewma: 0.0,
            sampled_conc: 0.0,
            workers_known: false,
            stats: SamplingStats::default(),
        };
        controller.stats.phase_log.push((0, Phase::InitialWarmup));
        if warmup_target == 0 {
            // W = 0: no warmup at all — straight to sampling.
            controller.phase = Phase::Sampling;
            controller.stats.phase_log.push((0, Phase::Sampling));
        }
        controller
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The telemetry collected so far.
    pub fn stats(&self) -> &SamplingStats {
        &self.stats
    }

    /// Consumes the controller, returning its telemetry.
    pub fn into_stats(self) -> SamplingStats {
        self.stats
    }

    fn ensure_workers(&mut self, total: u32) {
        if !self.workers_known {
            let n = total as usize;
            self.warmup_done = vec![0; n];
            self.since_unfilled = vec![0; n];
            self.fast_counts = vec![0; n];
            self.workers_known = true;
        }
    }

    /// EWMA smoothing factor for the concurrency level (per task start).
    const CONC_ALPHA: f64 = 1.0 / 64.0;

    fn resample(&mut self, time: u64, cause: ResampleCause) {
        for h in self.types.iter_mut().flatten() {
            h.valid.clear();
        }
        for w in &mut self.warmup_done {
            *w = 0;
        }
        for f in &mut self.fast_counts {
            *f = 0;
        }
        self.warmup_target = 1;
        self.phase = Phase::Rewarm;
        self.stats.resamples.push((time, cause));
        self.stats.phase_log.push((time, Phase::Rewarm));
    }

    fn enter_sampling(&mut self, time: u64) {
        self.phase = Phase::Sampling;
        for s in &mut self.since_unfilled {
            *s = 0;
        }
        self.stats.phase_log.push((time, Phase::Sampling));
    }

    fn enter_fast_forward(&mut self, time: u64, _concurrency: u32) {
        self.phase = Phase::FastForward;
        self.sampled_conc = self.conc_ewma.max(1.0);
        for f in &mut self.fast_counts {
            *f = 0;
        }
        self.stats.phase_log.push((time, Phase::FastForward));
    }

    /// True when every worker completed the warmup quota.
    fn warmup_complete(&self) -> bool {
        self.warmup_done.iter().all(|&c| c >= self.warmup_target)
    }

    /// True when every observed type's valid history is full (transition
    /// condition 1 of §III-B).
    fn all_types_sampled(&self) -> bool {
        self.types.iter().flatten().all(|h| h.valid.is_full())
    }

    /// True when the rare-type cutoff expired (transition condition 2).
    fn rare_cutoff_expired(&self) -> bool {
        self.since_unfilled.iter().all(|&c| c >= self.config.rare_type_cutoff)
    }
}

impl ModeController for TaskPointController {
    fn mode_for_task(&mut self, start: &TaskStart) -> ExecMode {
        self.ensure_workers(start.total_workers);
        let ty = start.type_id.0 as usize;
        if ty >= self.types.len() {
            self.types.resize_with(ty + 1, || None);
        }
        let is_new_type = self.types[ty].is_none();
        let h = self.config.history_size;
        let histories = self.types[ty].get_or_insert_with(|| TypeHistories::new(h));
        histories.seen += 1;

        // Track the smoothed concurrency level at every task start.
        let conc = start.concurrency.max(1) as f64;
        if self.conc_ewma == 0.0 {
            self.conc_ewma = conc;
        } else {
            self.conc_ewma += (conc - self.conc_ewma) * Self::CONC_ALPHA;
        }

        if self.phase != Phase::FastForward {
            return ExecMode::Detailed;
        }

        // Fast-forward phase: check the event-driven resample triggers.
        if is_new_type {
            self.resample(start.time, ResampleCause::NewTaskType);
            return ExecMode::Detailed;
        }
        let ratio = self.config.concurrency_change_ratio;
        if self.conc_ewma > self.sampled_conc * ratio || self.conc_ewma < self.sampled_conc / ratio
        {
            // Sustained parallelism change (e.g. a new program phase):
            // contention differs, so the samples no longer represent
            // steady state. Transient queue drains barely move the EWMA.
            self.resample(start.time, ResampleCause::ConcurrencyChange);
            return ExecMode::Detailed;
        }
        let Some(ipc) = self.types[ty].as_ref().and_then(TypeHistories::fast_forward_ipc) else {
            self.resample(start.time, ResampleCause::EmptyHistories);
            return ExecMode::Detailed;
        };
        // Periodic policy: a thread that already fast-forwarded P instances
        // triggers resampling instead of fast-forwarding another one.
        if let SamplingPolicy::Periodic { period } = self.config.policy {
            let w = start.worker.index();
            if self.fast_counts[w] >= period {
                self.resample(start.time, ResampleCause::Policy);
                return ExecMode::Detailed;
            }
            self.fast_counts[w] += 1;
        }
        ExecMode::Fast { ipc }
    }

    fn on_task_complete(&mut self, report: &TaskReport) {
        match report.mode {
            SimMode::Fast => {
                self.stats.fast_tasks += 1;
            }
            SimMode::Detailed => {
                self.stats.detailed_tasks += 1;
                let ipc = if report.instructions > 0 && report.cycles() > 0 {
                    report.ipc()
                } else {
                    return;
                };
                let histories = self.types[report.type_id.0 as usize]
                    .as_mut()
                    .expect("completed task of unregistered type");
                histories.all.push(ipc);
                let w = report.worker.index();
                match self.phase {
                    Phase::InitialWarmup | Phase::Rewarm => {
                        self.warmup_done[w] += 1;
                        if self.warmup_complete() {
                            self.enter_sampling(report.end);
                        }
                    }
                    Phase::Sampling => {
                        let was_full = histories.valid.is_full();
                        histories.valid.push(ipc);
                        *self.stats.valid_samples.entry(report.type_id.0).or_insert(0) += 1;
                        if was_full {
                            self.since_unfilled[w] += 1;
                        } else {
                            // Encountered an instance of an unfilled type:
                            // the cutoff clock restarts.
                            for s in &mut self.since_unfilled {
                                *s = 0;
                            }
                        }
                        if self.all_types_sampled() || self.rare_cutoff_expired() {
                            self.enter_fast_forward(report.end, report.concurrency);
                        }
                    }
                    Phase::FastForward => {
                        // A task that started detailed before the transition:
                        // all-samples only (already pushed above).
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint_runtime::{TaskInstanceId, TaskTypeId, WorkerId};

    fn start(
        task: u64,
        type_id: u32,
        worker: u32,
        time: u64,
        concurrency: u32,
        total: u32,
    ) -> TaskStart {
        TaskStart {
            task: TaskInstanceId(task as u32),
            type_id: TaskTypeId(type_id),
            instructions: 1000,
            worker: WorkerId(worker),
            time,
            concurrency,
            total_workers: total,
        }
    }

    fn report(
        task: u64,
        type_id: u32,
        worker: u32,
        start_t: u64,
        end: u64,
        mode: SimMode,
    ) -> TaskReport {
        TaskReport {
            task: TaskInstanceId(task as u32),
            type_id: TaskTypeId(type_id),
            worker: WorkerId(worker),
            start: start_t,
            end,
            instructions: 1000,
            mode,
            concurrency: 1,
        }
    }

    /// Drives a 1-worker controller through warmup and sampling of a single
    /// type until it fast-forwards.
    fn drive_to_fast(ctrl: &mut TaskPointController) -> u64 {
        let mut t = 0u64;
        for task in 0..100u64 {
            let s = start(task, 0, 0, t, 1, 1);
            match ctrl.mode_for_task(&s) {
                ExecMode::Detailed => {
                    ctrl.on_task_complete(&report(task, 0, 0, t, t + 500, SimMode::Detailed));
                }
                ExecMode::Fast { .. } => return task,
            }
            t += 500;
        }
        panic!("never reached fast-forward");
    }

    #[test]
    fn warmup_then_sampling_then_fast() {
        // W=2, H=4: 2 warmup + 4 valid samples = 6 detailed, 7th is fast.
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy());
        let first_fast = drive_to_fast(&mut ctrl);
        assert_eq!(first_fast, 6);
        assert_eq!(ctrl.phase(), Phase::FastForward);
        assert_eq!(ctrl.stats().detailed_tasks, 6);
    }

    #[test]
    fn zero_warmup_skips_straight_to_sampling() {
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy().with_warmup(0));
        assert_eq!(ctrl.phase(), Phase::Sampling);
        let first_fast = drive_to_fast(&mut ctrl);
        assert_eq!(first_fast, 4, "H=4 samples then fast");
    }

    #[test]
    fn fast_ipc_is_history_mean() {
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy());
        drive_to_fast(&mut ctrl);
        let s = start(99, 0, 0, 10_000, 1, 1);
        match ctrl.mode_for_task(&s) {
            ExecMode::Fast { ipc } => {
                // All detailed tasks had IPC 1000/500 = 2.0.
                assert!((ipc - 2.0).abs() < 1e-12);
            }
            ExecMode::Detailed => panic!("expected fast mode"),
        }
    }

    #[test]
    fn new_type_triggers_resample() {
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy());
        drive_to_fast(&mut ctrl);
        // First instance of type 1 arrives during fast-forward.
        let s = start(200, 1, 0, 20_000, 1, 1);
        assert_eq!(ctrl.mode_for_task(&s), ExecMode::Detailed);
        assert_eq!(ctrl.phase(), Phase::Rewarm);
        assert_eq!(ctrl.stats().resamples_by(ResampleCause::NewTaskType), 1);
    }

    #[test]
    fn concurrency_change_triggers_resample() {
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy());
        // 4 workers; drive all through warmup+sampling at concurrency 4.
        let total = 4u32;
        let mut task = 0u64;
        let mut t = 0u64;
        'outer: loop {
            for w in 0..total {
                let s = start(task, 0, w, t, 4, total);
                match ctrl.mode_for_task(&s) {
                    ExecMode::Detailed => {
                        let mut r = report(task, 0, w, t, t + 500, SimMode::Detailed);
                        r.concurrency = 4;
                        ctrl.on_task_complete(&r);
                    }
                    ExecMode::Fast { .. } => break 'outer,
                }
                task += 1;
            }
            t += 500;
        }
        assert_eq!(ctrl.phase(), Phase::FastForward);
        // A single dip to concurrency 1 must NOT fire (transient drain).
        let dip = start(task + 1, 0, 0, t + 1000, 1, total);
        assert!(matches!(ctrl.mode_for_task(&dip), ExecMode::Fast { .. }));
        assert_eq!(ctrl.stats().resamples_by(ResampleCause::ConcurrencyChange), 0);
        // A sustained drop to 1 thread shifts the EWMA and fires.
        let mut fired = false;
        for i in 0..400u64 {
            let s = start(task + 2 + i, 0, 0, t + 2000 + i, 1, total);
            if ctrl.mode_for_task(&s) == ExecMode::Detailed {
                fired = true;
                break;
            }
        }
        assert!(fired, "sustained concurrency change must trigger");
        assert_eq!(ctrl.stats().resamples_by(ResampleCause::ConcurrencyChange), 1);
    }

    #[test]
    fn periodic_policy_resamples_after_p_fast_instances() {
        let config =
            TaskPointConfig::periodic().with_policy(SamplingPolicy::Periodic { period: 10 });
        let mut ctrl = TaskPointController::new(config);
        drive_to_fast(&mut ctrl);
        let mut fast = 0;
        let mut task = 1000u64;
        loop {
            let s = start(task, 0, 0, 100_000 + task, 1, 1);
            match ctrl.mode_for_task(&s) {
                ExecMode::Fast { .. } => fast += 1,
                ExecMode::Detailed => break,
            }
            task += 1;
            assert!(fast <= 9, "policy must fire after 10 total");
        }
        // drive_to_fast already consumed one fast slot, so 9 remain.
        assert_eq!(fast, 9);
        assert_eq!(ctrl.phase(), Phase::Rewarm);
        assert_eq!(ctrl.stats().resamples_by(ResampleCause::Policy), 1);
    }

    #[test]
    fn lazy_policy_never_fires_on_count() {
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy());
        drive_to_fast(&mut ctrl);
        for i in 0..10_000u64 {
            let s = start(10_000 + i, 0, 0, 1_000_000 + i, 1, 1);
            assert!(
                matches!(ctrl.mode_for_task(&s), ExecMode::Fast { .. }),
                "lazy sampling fast-forwards indefinitely"
            );
        }
        assert_eq!(ctrl.stats().resamples.len(), 0);
    }

    #[test]
    fn rewarm_is_one_instance_per_thread() {
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy());
        drive_to_fast(&mut ctrl);
        // Force a resample via a new type.
        let s = start(500, 1, 0, 50_000, 1, 1);
        assert_eq!(ctrl.mode_for_task(&s), ExecMode::Detailed);
        ctrl.on_task_complete(&report(500, 1, 0, 50_000, 50_500, SimMode::Detailed));
        // One detailed completion re-warms a 1-worker machine.
        assert_eq!(ctrl.phase(), Phase::Sampling);
    }

    #[test]
    fn valid_histories_cleared_on_resample() {
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy());
        drive_to_fast(&mut ctrl);
        fn type0(ctrl: &TaskPointController) -> &TypeHistories {
            ctrl.types[0].as_ref().expect("type 0 seen")
        }
        assert!(type0(&ctrl).valid.is_full());
        let s = start(500, 1, 0, 50_000, 1, 1);
        ctrl.mode_for_task(&s);
        assert!(type0(&ctrl).valid.is_empty());
        assert!(!type0(&ctrl).all.is_empty(), "all-samples history survives resampling");
    }

    #[test]
    fn rare_type_cutoff_unblocks_sampling() {
        // Two types; type 1 appears once during warmup and never again.
        // Sampling must still reach fast-forward via the cutoff.
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy());
        let mut t = 0u64;
        let mut task = 0u64;
        // Warmup: 2 instances of type 1 (so it is observed).
        for _ in 0..2 {
            let s = start(task, 1, 0, t, 1, 1);
            assert_eq!(ctrl.mode_for_task(&s), ExecMode::Detailed);
            ctrl.on_task_complete(&report(task, 1, 0, t, t + 500, SimMode::Detailed));
            task += 1;
            t += 500;
        }
        assert_eq!(ctrl.phase(), Phase::Sampling);
        // Sampling sees only type 0. Type 1's valid history never fills;
        // after H fills of type 0 plus `rare_type_cutoff` more instances,
        // fast-forward must begin.
        let mut detailed = 0;
        loop {
            let s = start(task, 0, 0, t, 1, 1);
            match ctrl.mode_for_task(&s) {
                ExecMode::Detailed => {
                    detailed += 1;
                    ctrl.on_task_complete(&report(task, 0, 0, t, t + 500, SimMode::Detailed));
                }
                ExecMode::Fast { .. } => break,
            }
            task += 1;
            t += 500;
            assert!(detailed < 50, "cutoff never fired");
        }
        // 4 to fill type 0 (first one resets the clock) + 5 cutoff.
        assert_eq!(detailed, 9);
    }

    #[test]
    fn fast_forward_uses_all_history_for_rare_types() {
        let mut ctrl = TaskPointController::new(TaskPointConfig::lazy());
        // Type 1 observed in warmup only -> empty valid, non-empty all.
        let s = start(0, 1, 0, 0, 1, 1);
        ctrl.mode_for_task(&s);
        ctrl.on_task_complete(&report(0, 1, 0, 0, 250, SimMode::Detailed)); // ipc 4.0
        let s = start(1, 1, 0, 250, 1, 1);
        ctrl.mode_for_task(&s);
        ctrl.on_task_complete(&report(1, 1, 0, 250, 500, SimMode::Detailed));
        drive_to_fast(&mut ctrl);
        // A rare type-1 instance in fast mode uses the all-history mean.
        let s = start(900, 1, 0, 90_000, 1, 1);
        match ctrl.mode_for_task(&s) {
            ExecMode::Fast { ipc } => assert!(ipc > 0.0),
            ExecMode::Detailed => panic!("rare type must fast-forward via all-history"),
        }
    }
}
