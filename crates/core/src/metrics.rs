//! Accuracy and speed metrics for sampled-vs-detailed comparisons.

use taskpoint_stats::{relative_error_percent, speedup};
use tasksim::SimResult;

/// The two numbers the paper reports per (benchmark, threads, policy) cell:
/// execution-time error and simulation speedup, plus supporting detail.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Absolute percent error of the sampled run's predicted execution
    /// time against the detailed reference.
    pub error_percent: f64,
    /// Wall-clock speedup of the sampled run over the detailed reference.
    pub speedup: f64,
    /// Predicted total cycles (sampled run).
    pub predicted_cycles: u64,
    /// Reference total cycles (full detailed run).
    pub reference_cycles: u64,
    /// Host seconds of the sampled run.
    pub sampled_wall_seconds: f64,
    /// Host seconds of the reference run.
    pub reference_wall_seconds: f64,
    /// Fraction of instructions the sampled run simulated in detail.
    pub detail_fraction: f64,
}

impl ExperimentOutcome {
    /// Computes the outcome from a sampled run and its detailed reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference simulated zero cycles or zero wall time.
    pub fn compare(sampled: &SimResult, reference: &SimResult) -> Self {
        assert!(reference.total_cycles > 0, "empty reference run");
        Self {
            error_percent: relative_error_percent(
                sampled.total_cycles as f64,
                reference.total_cycles as f64,
            ),
            speedup: speedup(reference.wall_seconds.max(1e-9), sampled.wall_seconds.max(1e-9)),
            predicted_cycles: sampled.total_cycles,
            reference_cycles: reference.total_cycles,
            sampled_wall_seconds: sampled.wall_seconds,
            reference_wall_seconds: reference.wall_seconds,
            detail_fraction: sampled.detail_fraction(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cycles: u64, wall: f64, detailed_instr: u64, fast_instr: u64) -> SimResult {
        SimResult {
            total_cycles: cycles,
            wall_seconds: wall,
            setup_seconds: 0.0,
            detailed_tasks: 0,
            fast_tasks: 0,
            detailed_instructions: detailed_instr,
            fast_instructions: fast_instr,
            reports: vec![],
            invalidations: 0,
            dram_accesses: 0,
            private_cache: vec![],
            shared_cache: vec![],
            workers: 1,
            groups: vec![],
            cycle_accounts: vec![],
            task_latency: Default::default(),
        }
    }

    #[test]
    fn compare_computes_error_and_speedup() {
        let sampled = result(1020, 0.5, 10, 90);
        let reference = result(1000, 10.0, 100, 0);
        let o = ExperimentOutcome::compare(&sampled, &reference);
        assert!((o.error_percent - 2.0).abs() < 1e-9);
        assert!((o.speedup - 20.0).abs() < 1e-9);
        assert!((o.detail_fraction - 0.1).abs() < 1e-9);
        assert_eq!(o.predicted_cycles, 1020);
        assert_eq!(o.reference_cycles, 1000);
    }

    #[test]
    #[should_panic(expected = "empty reference")]
    fn empty_reference_rejected() {
        let sampled = result(10, 0.1, 1, 0);
        let reference = result(0, 0.1, 1, 0);
        let _ = ExperimentOutcome::compare(&sampled, &reference);
    }
}
