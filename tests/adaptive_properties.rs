//! Property tests of the adaptive stopping rule, driven directly against
//! the controllers on synthetic single-type streams (1 worker, fixed
//! concurrency — the regime where the stopping rule is exactly
//! observable):
//!
//! * a cluster never fast-forwards before the `min_samples` floor;
//! * tightening `target_ci` never decreases the detailed-instance count;
//! * `target_ci = 0` (the degenerate setting) reproduces the lazy policy
//!   with `H = min_samples` decision-for-decision.

use proptest::prelude::*;
use taskpoint_repro::accuracy::AdaptiveController;
use taskpoint_repro::runtime::{TaskInstanceId, TaskTypeId, WorkerId};
use taskpoint_repro::sim::{ExecMode, ModeController, SimMode, TaskReport, TaskStart};
use taskpoint_repro::stats::Confidence;
use taskpoint_repro::taskpoint::{SamplingPolicy, TaskPointConfig, TaskPointController};

/// The adaptive config at `target_ci` with a `min_samples` floor (95%
/// confidence, paper-tuned W/H/cutoff).
fn adaptive(target_ci: f64, min_samples: u64) -> TaskPointConfig {
    TaskPointConfig::adaptive(target_ci).with_policy(SamplingPolicy::Adaptive {
        target_ci,
        confidence: Confidence::C95,
        min_samples,
    })
}

fn start(task: u64) -> TaskStart {
    TaskStart {
        task: TaskInstanceId(task as u32),
        type_id: TaskTypeId(0),
        instructions: 1000,
        worker: WorkerId(0),
        time: task * 1000,
        concurrency: 1,
        total_workers: 1,
    }
}

fn report(task: u64, cycles: u64, mode: SimMode) -> TaskReport {
    TaskReport {
        task: TaskInstanceId(task as u32),
        type_id: TaskTypeId(0),
        worker: WorkerId(0),
        start: task * 1000,
        end: task * 1000 + cycles,
        instructions: 1000,
        mode,
        concurrency: 1,
    }
}

/// Drives a controller through the whole stream; returns the per-task
/// mode decisions.
fn drive(ctrl: &mut dyn ModeController, cycles: &[u64]) -> Vec<ExecMode> {
    let mut modes = Vec::with_capacity(cycles.len());
    for (i, &c) in cycles.iter().enumerate() {
        let mode = ctrl.mode_for_task(&start(i as u64));
        let sim_mode = match mode {
            ExecMode::Detailed => SimMode::Detailed,
            ExecMode::Fast { .. } => SimMode::Fast,
        };
        ctrl.on_task_complete(&report(i as u64, c, sim_mode));
        modes.push(mode);
    }
    modes
}

fn detailed_count(modes: &[ExecMode]) -> usize {
    modes.iter().filter(|m| matches!(m, ExecMode::Detailed)).count()
}

proptest! {
    #[test]
    fn never_stops_before_the_min_samples_floor(
        cycles in prop::collection::vec(100u64..5000, 1..120),
        warmup in 0u64..4,
        min_samples in 1u64..8,
        target_permille in 0u64..300,
    ) {
        let target = target_permille as f64 / 1000.0;
        let mut ctrl = AdaptiveController::new(adaptive(target, min_samples).with_warmup(warmup));
        let modes = drive(&mut ctrl, &cycles);
        if let Some(first_fast) = modes.iter().position(|m| matches!(m, ExecMode::Fast { .. })) {
            prop_assert!(
                first_fast as u64 >= warmup + min_samples,
                "fast at {} with W={} floor={}", first_fast, warmup, min_samples
            );
        }
    }

    #[test]
    fn tighter_targets_are_monotone_in_detailed_count(
        cycles in prop::collection::vec(100u64..5000, 1..150),
        base_permille in 1u64..50,
        min_samples in 2u64..6,
    ) {
        // A descending ladder of positive targets (loose -> tight).
        let ladder: Vec<f64> = [16.0, 4.0, 2.0, 1.0]
            .iter()
            .map(|scale| scale * base_permille as f64 / 1000.0)
            .collect();
        let mut prev = 0usize;
        for &target in &ladder {
            let mut ctrl = AdaptiveController::new(adaptive(target, min_samples));
            let detailed = detailed_count(&drive(&mut ctrl, &cycles));
            prop_assert!(
                detailed >= prev,
                "target {} sampled {} < looser target's {}", target, detailed, prev
            );
            prev = detailed;
        }
    }

    #[test]
    fn zero_target_degenerates_to_lazy(
        cycles in prop::collection::vec(100u64..5000, 1..120),
        history in 1usize..8,
        warmup_frac in 0u64..100,
    ) {
        // Lazy requires W <= H; sample W within the history size.
        let warmup = warmup_frac % (history as u64 + 1);
        // Both controllers run under the same W and H, which every
        // controller validates as W <= H.
        let adaptive_config =
            adaptive(0.0, history as u64).with_warmup(warmup).with_history(history);
        let lazy_config =
            TaskPointConfig::lazy().with_warmup(warmup).with_history(history);
        let mut adaptive = AdaptiveController::new(adaptive_config);
        let mut lazy = TaskPointController::new(lazy_config);
        let a = drive(&mut adaptive, &cycles);
        let b = drive(&mut lazy, &cycles);
        prop_assert_eq!(a.len(), b.len());
        for (i, (ma, mb)) in a.iter().zip(&b).enumerate() {
            match (ma, mb) {
                (ExecMode::Detailed, ExecMode::Detailed) => {}
                (ExecMode::Fast { ipc: ia }, ExecMode::Fast { ipc: ib }) => {
                    prop_assert!(
                        (ia - ib).abs() < 1e-9,
                        "task {}: fast IPC {} vs lazy {}", i, ia, ib
                    );
                }
                _ => return Err(TestCaseError::fail(format!(
                    "task {i}: adaptive {ma:?} vs lazy {mb:?}"
                ))),
            }
        }
    }
}
