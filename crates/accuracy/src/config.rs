//! TaskPoint configuration: the paper's model parameters and the sampling
//! policy every controller runs under, and the [`SamplingStats`] every
//! controller fills.

use std::collections::HashMap;

use taskpoint_stats::Confidence;

/// When to resample a fast-forwarding simulation (paper §III-C, plus the
/// confidence-driven extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingPolicy {
    /// Resample after any thread has fast-forwarded `period` task
    /// instances — the paper's *periodic sampling* with parameter `P`.
    Periodic {
        /// The sampling period `P` (> 0).
        period: u64,
    },
    /// Never resample on a schedule (`P = ∞`) — the paper's *lazy
    /// sampling*. Event-driven triggers (new task type, concurrency change,
    /// empty histories) still apply.
    Lazy,
    /// Confidence-driven sampling: each task type stays detailed until the
    /// relative confidence interval of its mean IPC is within `target_ci`
    /// at `confidence`, with a `min_samples` floor (and the rare-cluster
    /// cutoff). Runs through the [`AdaptiveController`](crate::AdaptiveController)
    /// (`taskpoint::run` dispatches on the policy and also returns the
    /// per-cluster [`AccuracyReport`](crate::AccuracyReport)).
    Adaptive {
        /// Target relative CI half-width (a fraction: `0.05` = the mean
        /// IPC is known to ±5% at `confidence`). **`0.0` is the degenerate
        /// setting**: the statistical requirement is waived and a cluster
        /// stops after exactly `min_samples` detailed instances — the
        /// fixed-budget lazy policy with `H = min_samples` (pinned by a
        /// workspace property test). A positive target can never be met
        /// sooner than a looser one, so tightening it never decreases the
        /// detailed-instance count.
        target_ci: f64,
        /// Two-sided confidence level of the interval.
        confidence: Confidence,
        /// Minimum detailed samples per cluster before it may fast-forward,
        /// however quickly the interval shrinks (`>= 1`; values `< 2` make
        /// a positive target unreachable until a second sample exists,
        /// since one sample has no variance estimate).
        min_samples: u64,
    },
    /// Two-phase stratified sampling (Ekman-style pilot + Neyman
    /// allocation): every `(type, size-class)` stratum runs
    /// `pilot_samples` detailed instances to estimate its variance, then
    /// the remainder of the total detailed `budget` is allocated
    /// proportional to stratum size × stddev. Runs through the
    /// [`StratifiedController`](crate::StratifiedController)
    /// (`taskpoint::run` dispatches on the policy and also returns the
    /// per-stratum [`AccuracyReport`](crate::AccuracyReport)).
    Stratified {
        /// Detailed pilot instances per stratum.
        pilot_samples: u64,
        /// Total detailed-sampling budget (post-warmup, pilot included).
        /// When the pilots consume all of it the run degenerates to
        /// pilot-only.
        budget: u64,
        /// Confidence level of the reported intervals and the
        /// concurrency-band re-opening test.
        confidence: Confidence,
    },
}

impl SamplingPolicy {
    /// The period as an option (`None` for lazy, adaptive, stratified).
    pub fn period(self) -> Option<u64> {
        match self {
            SamplingPolicy::Periodic { period } => Some(period),
            SamplingPolicy::Lazy
            | SamplingPolicy::Adaptive { .. }
            | SamplingPolicy::Stratified { .. } => None,
        }
    }

    /// True for [`SamplingPolicy::Adaptive`].
    pub fn is_adaptive(self) -> bool {
        matches!(self, SamplingPolicy::Adaptive { .. })
    }

    /// True for [`SamplingPolicy::Stratified`].
    pub fn is_stratified(self) -> bool {
        matches!(self, SamplingPolicy::Stratified { .. })
    }
}

/// An invalid [`TaskPointConfig`] — which field is out of range and why.
///
/// Returned by [`TaskPointConfig::validated`]; the panicking
/// [`TaskPointConfig::validate`] prints the same message. Every controller
/// validates at construction, which turns configurations that would
/// silently mis-sample (a zero history that can never fill, a warmup longer
/// than the history it feeds, a zero period that resamples every instance)
/// into immediate typed errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `H == 0`: no history can ever fill, so sampling never completes.
    ZeroHistory,
    /// `W > H`: the warmup would overflow the all-samples history it
    /// feeds, silently discarding the oldest warmup measurements.
    WarmupExceedsHistory {
        /// Configured `W`.
        warmup: u64,
        /// Configured `H`.
        history: usize,
    },
    /// A periodic period of 0 — every fast-forward would immediately
    /// resample.
    ZeroPeriod,
    /// The concurrency-change ratio must exceed 1 (a ratio of 1 fires on
    /// every EWMA wobble).
    BadConcurrencyRatio {
        /// The rejected ratio.
        ratio: f64,
    },
    /// The adaptive `target_ci` is negative or non-finite.
    BadTarget {
        /// The rejected value.
        target_ci: f64,
    },
    /// The adaptive `min_samples` is zero — a cluster could fast-forward
    /// with no IPC estimate at all.
    ZeroMinSamples,
    /// The stratified `pilot_samples` is zero — no variance estimate could
    /// ever exist.
    ZeroPilot,
    /// The stratified `budget` is smaller than a single stratum's pilot —
    /// even a one-stratum program could not complete its pilot within
    /// budget.
    BudgetBelowPilot {
        /// The configured per-stratum pilot.
        pilot_samples: u64,
        /// The rejected total budget.
        budget: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroHistory => write!(f, "history size H must be positive"),
            ConfigError::WarmupExceedsHistory { warmup, history } => write!(
                f,
                "warmup W ({warmup}) must not exceed history size H ({history}): extra warmup \
                 samples would silently evict measurements from the all-samples history"
            ),
            ConfigError::ZeroPeriod => write!(f, "sampling period P must be positive"),
            ConfigError::BadConcurrencyRatio { ratio } => {
                write!(f, "concurrency change ratio must exceed 1, got {ratio}")
            }
            ConfigError::BadTarget { target_ci } => {
                write!(f, "adaptive CI target must be a finite fraction >= 0, got {target_ci}")
            }
            ConfigError::ZeroMinSamples => write!(f, "adaptive min_samples must be positive"),
            ConfigError::ZeroPilot => write!(f, "stratified pilot_samples must be positive"),
            ConfigError::BudgetBelowPilot { pilot_samples, budget } => write!(
                f,
                "stratified budget ({budget}) must cover at least one stratum's pilot \
                 ({pilot_samples})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The complete parameter set of the methodology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskPointConfig {
    /// `W`: detailed task instances per thread for warmup at simulation
    /// start (paper's tuned value: 2). Must not exceed `H`. The adaptive
    /// and stratified controllers feed these instances only to their
    /// fallback moments, exactly like the all-samples history.
    pub warmup_instances: u64,
    /// `H`: sample-history size per task type (paper's tuned value: 4).
    /// The adaptive and stratified policies do not bound their streaming
    /// moments by `H`, but it must still admit `W`.
    pub history_size: usize,
    /// The resampling policy (paper's tuned periodic value: P = 250).
    pub policy: SamplingPolicy,
    /// Rare-type cutoff: stop waiting for unfilled types once every thread
    /// has completed this many detailed instances without meeting one
    /// (paper: 5). The adaptive policy reuses it as the rare-*cluster*
    /// cutoff.
    pub rare_type_cutoff: u64,
    /// Thread-count trigger threshold (paper Fig. 4a): resample when the
    /// smoothed concurrency level drifts by more than this factor from the
    /// level recorded when sampling completed. Smoothing (EWMA over task
    /// starts) keeps transient queue drains at wavefront boundaries from
    /// thrashing resampling; only sustained phase-level parallelism changes
    /// fire. (Implementation parameter; the paper does not specify its
    /// change detector.)
    pub concurrency_change_ratio: f64,
}

impl TaskPointConfig {
    /// The paper's final periodic configuration: W=2, H=4, P=250.
    pub fn periodic() -> Self {
        Self {
            warmup_instances: 2,
            history_size: 4,
            policy: SamplingPolicy::Periodic { period: 250 },
            rare_type_cutoff: 5,
            concurrency_change_ratio: 2.0,
        }
    }

    /// The paper's lazy configuration: W=2, H=4, P=∞.
    pub fn lazy() -> Self {
        Self { policy: SamplingPolicy::Lazy, ..Self::periodic() }
    }

    /// The confidence-driven configuration at the given relative CI
    /// target, with the conventional defaults (95% confidence, a 4-sample
    /// floor — the paper's tuned `H` — and paper-tuned W/H/cutoff).
    pub fn adaptive(target_ci: f64) -> Self {
        Self {
            policy: SamplingPolicy::Adaptive {
                target_ci,
                confidence: Confidence::C95,
                min_samples: 4,
            },
            ..Self::periodic()
        }
    }

    /// The two-phase stratified configuration with the given per-stratum
    /// pilot and total detailed budget, at the conventional defaults
    /// (95% confidence, paper-tuned W/H/cutoff).
    pub fn stratified(pilot_samples: u64, budget: u64) -> Self {
        Self {
            policy: SamplingPolicy::Stratified {
                pilot_samples,
                budget,
                confidence: Confidence::C95,
            },
            ..Self::periodic()
        }
    }

    /// Overrides `W`.
    pub fn with_warmup(mut self, w: u64) -> Self {
        self.warmup_instances = w;
        self
    }

    /// Overrides `H`.
    pub fn with_history(mut self, h: usize) -> Self {
        self.history_size = h;
        self
    }

    /// Overrides the policy.
    pub fn with_policy(mut self, policy: SamplingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Validates parameter ranges, returning a typed error describing the
    /// first violated constraint. Every controller calls this at
    /// construction, so an invalid configuration fails immediately instead
    /// of silently mis-sampling.
    pub fn validated(self) -> Result<Self, ConfigError> {
        if self.history_size == 0 {
            return Err(ConfigError::ZeroHistory);
        }
        if self.warmup_instances > self.history_size as u64 {
            return Err(ConfigError::WarmupExceedsHistory {
                warmup: self.warmup_instances,
                history: self.history_size,
            });
        }
        if self.concurrency_change_ratio <= 1.0 {
            return Err(ConfigError::BadConcurrencyRatio { ratio: self.concurrency_change_ratio });
        }
        match self.policy {
            SamplingPolicy::Periodic { period: 0 } => Err(ConfigError::ZeroPeriod),
            SamplingPolicy::Adaptive { target_ci, .. }
                if !target_ci.is_finite() || target_ci < 0.0 =>
            {
                Err(ConfigError::BadTarget { target_ci })
            }
            SamplingPolicy::Adaptive { min_samples: 0, .. } => Err(ConfigError::ZeroMinSamples),
            SamplingPolicy::Stratified { pilot_samples: 0, .. } => Err(ConfigError::ZeroPilot),
            SamplingPolicy::Stratified { pilot_samples, budget, .. } if budget < pilot_samples => {
                Err(ConfigError::BudgetBelowPilot { pilot_samples, budget })
            }
            _ => Ok(self),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if any constraint is
    /// violated (use [`TaskPointConfig::validated`] for the non-panicking
    /// form).
    pub fn validate(&self) {
        if let Err(e) = self.validated() {
            panic!("invalid TaskPoint configuration: {e}");
        }
    }

    /// `Some(*self)` for an adaptive policy, else `None`. Kept so that
    /// existing callers still build; the controllers take the config
    /// itself, and this goes away when the repository benchmark is next
    /// revised.
    pub fn adaptive_config(&self) -> Option<TaskPointConfig> {
        self.policy.is_adaptive().then_some(*self)
    }

    /// `Some(*self)` for a stratified policy, else `None`. Kept so that
    /// existing callers still build; the controllers take the config
    /// itself, and this goes away when the repository benchmark is next
    /// revised.
    pub fn stratified_config(&self) -> Option<TaskPointConfig> {
        self.policy.is_stratified().then_some(*self)
    }
}

impl Default for TaskPointConfig {
    /// The paper's recommended default for accuracy-focused studies:
    /// periodic sampling with the tuned parameters.
    fn default() -> Self {
        Self::periodic()
    }
}

/// The base controller's execution phase.
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

/// Why the base controller triggered a resampling.
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

/// Telemetry of one sampled run, filled by every controller. The adaptive
/// and stratified controllers have no global phases or resamples, so
/// their `phase_log` and `resamples` stay empty.
#[derive(Debug, Clone, Default)]
pub struct SamplingStats {
    /// `(simulated time, new phase)` transitions in order.
    pub phase_log: Vec<(u64, Phase)>,
    /// `(simulated time, cause)` of every resample.
    pub resamples: Vec<(u64, ResampleCause)>,
    /// Valid samples measured, per task type (per stratum for the
    /// stratified controller).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = TaskPointConfig::periodic();
        assert_eq!(p.warmup_instances, 2);
        assert_eq!(p.history_size, 4);
        assert_eq!(p.policy, SamplingPolicy::Periodic { period: 250 });
        assert_eq!(p.rare_type_cutoff, 5);
        assert!(p.concurrency_change_ratio > 1.0);
        p.validate();
        let l = TaskPointConfig::lazy();
        assert_eq!(l.policy, SamplingPolicy::Lazy);
        assert_eq!(l.warmup_instances, 2);
    }

    #[test]
    fn adaptive_constructor_follows_the_paper_tuning() {
        let c = TaskPointConfig::adaptive(0.05);
        assert!(c.policy.is_adaptive());
        assert_eq!(c.policy.period(), None);
        c.validate();
        assert_eq!((c.warmup_instances, c.history_size, c.rare_type_cutoff), (2, 4, 5));
        assert_eq!(
            c.policy,
            SamplingPolicy::Adaptive {
                target_ci: 0.05,
                confidence: Confidence::C95,
                min_samples: 4
            }
        );
        assert_eq!(c.adaptive_config(), Some(c));
        assert_eq!(TaskPointConfig::lazy().adaptive_config(), None);
    }

    #[test]
    fn stratified_constructor_follows_the_paper_tuning() {
        let c = TaskPointConfig::stratified(4, 64);
        assert!(c.policy.is_stratified());
        assert!(!c.policy.is_adaptive());
        assert_eq!(c.policy.period(), None);
        c.validate();
        assert_eq!(c.warmup_instances, 2);
        assert_eq!(
            c.policy,
            SamplingPolicy::Stratified {
                pilot_samples: 4,
                budget: 64,
                confidence: Confidence::C95
            }
        );
        assert_eq!(c.stratified_config(), Some(c));
        assert_eq!(TaskPointConfig::lazy().stratified_config(), None);
        assert_eq!(c.adaptive_config(), None);
    }

    #[test]
    fn builders_override() {
        let c = TaskPointConfig::lazy()
            .with_warmup(7)
            .with_history(9)
            .with_policy(SamplingPolicy::Periodic { period: 10 });
        assert_eq!(c.warmup_instances, 7);
        assert_eq!(c.history_size, 9);
        assert_eq!(c.policy.period(), Some(10));
    }

    #[test]
    fn lazy_has_no_period() {
        assert_eq!(SamplingPolicy::Lazy.period(), None);
        assert_eq!(SamplingPolicy::Periodic { period: 3 }.period(), Some(3));
    }

    /// The shared checks apply under every policy, the accuracy policies
    /// included.
    #[test]
    fn validated_reports_typed_errors() {
        for config in [
            TaskPointConfig::periodic(),
            TaskPointConfig::lazy(),
            TaskPointConfig::adaptive(0.05),
            TaskPointConfig::stratified(4, 64),
        ] {
            assert_eq!(config.with_history(0).validated(), Err(ConfigError::ZeroHistory));
            assert_eq!(
                config.with_warmup(5).validated(),
                Err(ConfigError::WarmupExceedsHistory { warmup: 5, history: 4 })
            );
            assert!(config.with_warmup(5).with_history(5).validated().is_ok());
            let mut bad_ratio = config;
            bad_ratio.concurrency_change_ratio = 1.0;
            assert_eq!(bad_ratio.validated(), Err(ConfigError::BadConcurrencyRatio { ratio: 1.0 }));
        }
        assert_eq!(
            TaskPointConfig::periodic()
                .with_policy(SamplingPolicy::Periodic { period: 0 })
                .validated(),
            Err(ConfigError::ZeroPeriod)
        );
        // Messages stay self-explanatory.
        let e = TaskPointConfig::lazy().with_warmup(9).validated().unwrap_err();
        assert!(e.to_string().contains("W (9)"), "{e}");
    }

    #[test]
    fn accuracy_policy_errors_keep_their_messages() {
        let adaptive = |target_ci, min_samples| {
            TaskPointConfig::adaptive(0.05).with_policy(SamplingPolicy::Adaptive {
                target_ci,
                confidence: Confidence::C95,
                min_samples,
            })
        };
        let cases = [
            (
                adaptive(-0.1, 4).validated(),
                ConfigError::BadTarget { target_ci: -0.1 },
                "adaptive CI target must be a finite fraction >= 0, got -0.1",
            ),
            (
                adaptive(0.05, 0).validated(),
                ConfigError::ZeroMinSamples,
                "adaptive min_samples must be positive",
            ),
            (
                TaskPointConfig::stratified(0, 10).validated(),
                ConfigError::ZeroPilot,
                "stratified pilot_samples must be positive",
            ),
            (
                TaskPointConfig::stratified(8, 4).validated(),
                ConfigError::BudgetBelowPilot { pilot_samples: 8, budget: 4 },
                "stratified budget (4) must cover at least one stratum's pilot (8)",
            ),
        ];
        for (got, error, message) in cases {
            assert_eq!(got, Err(error.clone()));
            assert_eq!(error.to_string(), message);
        }
        assert!(matches!(adaptive(f64::NAN, 4).validated(), Err(ConfigError::BadTarget { .. })));
        assert!(matches!(
            adaptive(f64::INFINITY, 4).validated(),
            Err(ConfigError::BadTarget { .. })
        ));
        assert!(adaptive(0.0, 4).validated().is_ok(), "the degenerate target is legal");
        assert!(TaskPointConfig::stratified(8, 8).validated().is_ok(), "pilot-only is legal");
    }

    #[test]
    #[should_panic(expected = "H must be positive")]
    fn zero_history_rejected() {
        TaskPointConfig::periodic().with_history(0).validate();
    }

    #[test]
    #[should_panic(expected = "P must be positive")]
    fn zero_period_rejected() {
        TaskPointConfig::periodic().with_policy(SamplingPolicy::Periodic { period: 0 }).validate();
    }

    #[test]
    #[should_panic(expected = "must not exceed history")]
    fn warmup_beyond_history_rejected() {
        TaskPointConfig::lazy().with_warmup(10).validate();
    }
}
