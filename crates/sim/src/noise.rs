//! System-noise model — the stand-in for native execution.
//!
//! Figure 1 of the paper measures IPC variation in *native* executions on
//! an Intel SandyBridge-EP machine. We have no hardware testbed, so the
//! "native machine" is the same detailed simulator with a noise model that
//! perturbs each task instance's duration the way OS jitter, SMT
//! interference, DVFS and TLB effects perturb real runs: a small Gaussian
//! factor plus an occasional heavier-tailed outlier. Seeded per instance,
//! so runs remain reproducible.

use taskpoint_stats::rng::{mix_seed, Xoshiro256pp};

/// Multiplicative per-task duration noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation of the Gaussian component (e.g. 0.015 = 1.5%).
    pub sigma: f64,
    /// Probability of an additional slow-outlier event (OS preemption, page
    /// fault burst).
    pub outlier_probability: f64,
    /// Maximum extra slowdown of an outlier (e.g. 0.25 = up to +25%).
    pub outlier_magnitude: f64,
    /// Model seed, mixed with each task's seed.
    pub seed: u64,
}

impl NoiseModel {
    /// A model calibrated so that per-type IPC spreads in "native" runs
    /// roughly match the paper's Fig. 1 backdrop (most benchmarks within
    /// ±5%).
    pub fn native_execution(seed: u64) -> Self {
        Self { sigma: 0.015, outlier_probability: 0.01, outlier_magnitude: 0.25, seed }
    }

    /// The duration factor (≥ 0.5) for the task instance identified by
    /// `task_seed`. Deterministic in `(self.seed, task_seed)`.
    pub fn factor(&self, task_seed: u64) -> f64 {
        let mut rng = Xoshiro256pp::seed_from_u64(mix_seed(&[self.seed, task_seed, 0x4E01]));
        let mut f = 1.0 + rng.next_normal(0.0, self.sigma);
        if rng.next_bool(self.outlier_probability) {
            f += rng.next_f64() * self.outlier_magnitude;
        }
        f.max(0.5)
    }
}

/// The noise model is a *passive* [`Component`](crate::event::Component):
/// it holds no clock of its own and is consulted synchronously (via
/// [`EventCtx::noise`](crate::event::EventCtx)) when a core completes a
/// detailed task.
impl crate::event::Component for NoiseModel {
    fn name(&self) -> &str {
        "noise-model"
    }

    fn next_tick(&self) -> Option<u64> {
        None
    }

    fn tick(&mut self, _ctx: &mut crate::event::EventCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint_stats::Summary;

    #[test]
    fn factor_is_deterministic() {
        let n = NoiseModel::native_execution(7);
        assert_eq!(n.factor(42), n.factor(42));
        assert_ne!(n.factor(42), n.factor(43));
    }

    #[test]
    fn factors_center_near_one() {
        let n = NoiseModel::native_execution(1);
        let s: Summary = (0..20_000).map(|i| n.factor(i)).collect();
        assert!((s.mean() - 1.0).abs() < 0.01, "mean {}", s.mean());
        assert!(s.min() >= 0.5);
    }

    #[test]
    fn outliers_skew_the_tail_upward() {
        let heavy =
            NoiseModel { sigma: 0.0, outlier_probability: 1.0, outlier_magnitude: 0.5, seed: 3 };
        let s: Summary = (0..1000).map(|i| heavy.factor(i)).collect();
        assert!(s.mean() > 1.2, "all-outlier model inflates durations: {}", s.mean());
    }

    #[test]
    fn zero_noise_is_identity() {
        let silent =
            NoiseModel { sigma: 0.0, outlier_probability: 0.0, outlier_magnitude: 0.0, seed: 0 };
        for i in 0..100 {
            assert_eq!(silent.factor(i), 1.0);
        }
    }
}
