//! Parameters of the confidence-driven adaptive policy.

use taskpoint_stats::Confidence;

/// The three knobs of the adaptive stopping rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveParams {
    /// Target relative confidence-interval half-width (a fraction: `0.05`
    /// = the cluster's mean IPC is known to ±5% at the configured
    /// confidence). **`0.0` is the degenerate setting**: the statistical
    /// requirement is waived and a cluster stops after exactly
    /// `min_samples` detailed instances — i.e. the policy collapses to
    /// the fixed-budget lazy policy with history size `min_samples`
    /// (pinned by a workspace property test). A *positive* target can
    /// never be met sooner than a looser one, so tightening the target
    /// monotonically increases the detailed-instance count.
    pub target_ci: f64,
    /// Two-sided confidence level of the interval.
    pub confidence: Confidence,
    /// Minimum detailed samples per cluster before it may fast-forward,
    /// regardless of how quickly the interval shrinks (`>= 1`; values
    /// `< 2` make the CI test unreachable until a second sample exists,
    /// since a single sample has no variance estimate).
    pub min_samples: u64,
}

impl AdaptiveParams {
    /// Parameters at the given CI target with the conventional defaults:
    /// 95% confidence and a 4-sample floor (the paper's tuned `H`).
    pub fn new(target_ci: f64) -> Self {
        Self { target_ci, confidence: Confidence::C95, min_samples: 4 }
    }

    /// Overrides the confidence level.
    pub fn with_confidence(mut self, confidence: Confidence) -> Self {
        self.confidence = confidence;
        self
    }

    /// Overrides the minimum-sample floor.
    pub fn with_min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = min_samples;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), AdaptiveParamsError> {
        if !self.target_ci.is_finite() || self.target_ci < 0.0 {
            return Err(AdaptiveParamsError::BadTarget { target_ci: self.target_ci });
        }
        if self.min_samples == 0 {
            return Err(AdaptiveParamsError::ZeroMinSamples);
        }
        Ok(())
    }
}

/// An out-of-range [`AdaptiveParams`] field.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptiveParamsError {
    /// `target_ci` is negative or non-finite.
    BadTarget {
        /// The rejected value.
        target_ci: f64,
    },
    /// `min_samples` is zero — a cluster could fast-forward with no IPC
    /// estimate at all.
    ZeroMinSamples,
}

impl std::fmt::Display for AdaptiveParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveParamsError::BadTarget { target_ci } => {
                write!(f, "adaptive CI target must be a finite fraction >= 0, got {target_ci}")
            }
            AdaptiveParamsError::ZeroMinSamples => {
                write!(f, "adaptive min_samples must be positive")
            }
        }
    }
}

impl std::error::Error for AdaptiveParamsError {}

/// Full configuration of an [`AdaptiveController`](crate::AdaptiveController).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// `W`: detailed instances per worker at simulation start whose IPC
    /// only feeds the fallback (all-samples) moments — micro-architectural
    /// warmup, exactly as in the base controller.
    pub warmup_instances: u64,
    /// Rare-cluster cutoff: once every worker has completed this many
    /// instances without touching an unconverged cluster, clusters that
    /// still lack their floor are force-converged onto whatever estimate
    /// they have (the transplant of the paper's rare-task-type rule —
    /// a cluster too rare to ever satisfy the floor must not pin its
    /// occasional instances to detailed mode forever).
    pub rare_cluster_cutoff: u64,
    /// The stopping rule.
    pub params: AdaptiveParams,
}

impl AdaptiveConfig {
    /// Configuration at the given CI target with the paper-tuned
    /// surroundings: `W = 2`, rare cutoff 5, 95% confidence, 4-sample
    /// floor.
    pub fn new(target_ci: f64) -> Self {
        Self { warmup_instances: 2, rare_cluster_cutoff: 5, params: AdaptiveParams::new(target_ci) }
    }

    /// Overrides `W`.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup_instances = warmup;
        self
    }

    /// Overrides the stopping rule.
    pub fn with_params(mut self, params: AdaptiveParams) -> Self {
        self.params = params;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), AdaptiveParamsError> {
        self.params.validate()
    }
}

/// Full configuration of a
/// [`StratifiedController`](crate::StratifiedController) — the two-phase
/// pilot + Neyman-allocation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratifiedConfig {
    /// `W`: detailed instances per worker at simulation start whose IPC
    /// only feeds the fallback (all-samples) moments, exactly as in the
    /// adaptive controller.
    pub warmup_instances: u64,
    /// Pilot phase: detailed instances per `(type, size-class)` stratum
    /// used to estimate the stratum's IPC variance before allocation.
    pub pilot_samples: u64,
    /// Total detailed-sampling budget (post-warmup, pilot included).
    /// The Neyman allocator distributes `budget − pilot spend`; when the
    /// pilots consume the whole budget the run degenerates to pilot-only.
    pub budget: u64,
    /// Confidence level of the reported per-stratum intervals and of the
    /// band re-opening test.
    pub confidence: Confidence,
    /// Size-class width in powers of two of the stratification
    /// (see [`ClusterMap::new`](crate::ClusterMap::new)).
    pub granularity: u32,
}

impl StratifiedConfig {
    /// Configuration with the conventional surroundings: `W = 2`, 95%
    /// confidence, octave size classes.
    pub fn new(pilot_samples: u64, budget: u64) -> Self {
        Self {
            warmup_instances: 2,
            pilot_samples,
            budget,
            confidence: Confidence::C95,
            granularity: 1,
        }
    }

    /// Overrides `W`.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup_instances = warmup;
        self
    }

    /// Overrides the confidence level.
    pub fn with_confidence(mut self, confidence: Confidence) -> Self {
        self.confidence = confidence;
        self
    }

    /// Overrides the size-class granularity.
    pub fn with_granularity(mut self, granularity: u32) -> Self {
        self.granularity = granularity;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), StratifiedConfigError> {
        if self.pilot_samples == 0 {
            return Err(StratifiedConfigError::ZeroPilot);
        }
        if self.budget < self.pilot_samples {
            return Err(StratifiedConfigError::BudgetBelowPilot {
                pilot_samples: self.pilot_samples,
                budget: self.budget,
            });
        }
        if self.granularity == 0 {
            return Err(StratifiedConfigError::ZeroGranularity);
        }
        Ok(())
    }
}

/// An out-of-range [`StratifiedConfig`] field.
#[derive(Debug, Clone, PartialEq)]
pub enum StratifiedConfigError {
    /// `pilot_samples` is zero — no variance estimate could ever exist.
    ZeroPilot,
    /// `budget` is smaller than a single stratum's pilot — even a
    /// one-stratum program could not complete its pilot within budget.
    BudgetBelowPilot {
        /// The configured per-stratum pilot.
        pilot_samples: u64,
        /// The rejected total budget.
        budget: u64,
    },
    /// `granularity` is zero (rejected by [`ClusterMap`](crate::ClusterMap)).
    ZeroGranularity,
}

impl std::fmt::Display for StratifiedConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StratifiedConfigError::ZeroPilot => {
                write!(f, "stratified pilot_samples must be positive")
            }
            StratifiedConfigError::BudgetBelowPilot { pilot_samples, budget } => {
                write!(
                    f,
                    "stratified budget ({budget}) must cover at least one stratum's \
                     pilot ({pilot_samples})"
                )
            }
            StratifiedConfigError::ZeroGranularity => {
                write!(f, "stratified granularity must be positive")
            }
        }
    }
}

impl std::error::Error for StratifiedConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper_tuning() {
        let c = AdaptiveConfig::new(0.05);
        assert_eq!(c.warmup_instances, 2);
        assert_eq!(c.rare_cluster_cutoff, 5);
        assert_eq!(c.params.target_ci, 0.05);
        assert_eq!(c.params.confidence, Confidence::C95);
        assert_eq!(c.params.min_samples, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_override() {
        let p = AdaptiveParams::new(0.02).with_confidence(Confidence::C99).with_min_samples(8);
        assert_eq!(p.confidence, Confidence::C99);
        assert_eq!(p.min_samples, 8);
        let c = AdaptiveConfig::new(0.1).with_warmup(0).with_params(p);
        assert_eq!(c.warmup_instances, 0);
        assert_eq!(c.params, p);
    }

    #[test]
    fn invalid_params_are_typed_errors() {
        assert_eq!(
            AdaptiveParams::new(-0.1).validate(),
            Err(AdaptiveParamsError::BadTarget { target_ci: -0.1 })
        );
        assert!(AdaptiveParams::new(f64::NAN).validate().is_err());
        assert_eq!(
            AdaptiveParams::new(0.05).with_min_samples(0).validate(),
            Err(AdaptiveParamsError::ZeroMinSamples)
        );
        assert_eq!(AdaptiveParams::new(0.0).validate(), Ok(()), "degenerate target is legal");
    }

    #[test]
    fn stratified_defaults_and_builders() {
        let c = StratifiedConfig::new(4, 64);
        assert_eq!(c.warmup_instances, 2);
        assert_eq!(c.pilot_samples, 4);
        assert_eq!(c.budget, 64);
        assert_eq!(c.confidence, Confidence::C95);
        assert_eq!(c.granularity, 1);
        assert!(c.validate().is_ok());
        let c = c.with_warmup(0).with_confidence(Confidence::C99).with_granularity(2);
        assert_eq!(c.warmup_instances, 0);
        assert_eq!(c.confidence, Confidence::C99);
        assert_eq!(c.granularity, 2);
    }

    #[test]
    fn invalid_stratified_configs_are_typed_errors() {
        assert_eq!(StratifiedConfig::new(0, 10).validate(), Err(StratifiedConfigError::ZeroPilot));
        assert_eq!(
            StratifiedConfig::new(8, 4).validate(),
            Err(StratifiedConfigError::BudgetBelowPilot { pilot_samples: 8, budget: 4 })
        );
        assert_eq!(
            StratifiedConfig::new(4, 64).with_granularity(0).validate(),
            Err(StratifiedConfigError::ZeroGranularity)
        );
        // Pilot-only (budget == pilot_samples) is the documented
        // degenerate setting, not an error.
        assert!(StratifiedConfig::new(8, 8).validate().is_ok());
    }
}
