//! # taskpoint-accuracy — confidence-driven sampling
//!
//! TaskPoint's fixed-budget policies (lazy, periodic `P`) spend the same
//! sampling effort on every task-type cluster regardless of how predictable
//! the cluster actually is. This crate adds the *statistical* layer that
//! turns the sample budget into a controlled quantity:
//!
//! * per-cluster **streaming moments** of detailed-mode IPC
//!   ([`taskpoint_stats::StreamingMoments`], Welford-updated online);
//! * a **relative confidence-interval estimator**
//!   ([`relative_ci_half_width`]) built on the pinned Student-t critical
//!   values in [`taskpoint_stats::student_t`];
//! * the [`AdaptiveController`]: each sampling cluster stays in detailed
//!   mode until the relative CI half-width of its mean IPC, at the
//!   configured confidence level, drops below a target — subject to a
//!   minimum-sample floor and the rare-cluster cutoff inherited from the
//!   paper's rare-task-type rule — and is fast-forwarded from then on;
//! * the [`ClusterMap`] that buckets instances into the `(task type,
//!   size-class)` strata of the stratified controller, plus the
//!   [`concurrency_band`]
//!   log₂ bucketing that makes convergence concurrency-aware: both
//!   controllers keep per-band moments and *re-open* a converged cluster
//!   when the live concurrency shifts into a band whose interval misses
//!   the target (the adaptive analogue of the paper's Fig. 4a
//!   concurrency-change trigger);
//! * the [`StratifiedController`] with its pure Neyman allocator
//!   ([`neyman_allocate`]): a pilot phase per stratum estimates the
//!   variance, then the remaining detailed budget is split proportional
//!   to stratum size × stddev with exact integer conservation.
//!
//! Driving the budget from per-stratum variance follows Ekman & Stenström,
//! *"Enhancing Multiprocessor Architecture Simulation Speed Using
//! Matched-Pair Comparison"* / two-phase stratified sampling: low-variance
//! clusters converge after the floor, high-variance clusters keep
//! sampling, and the target becomes a dial that traces an error/speedup
//! frontier instead of a single operating point.
//!
//! Every controller of the workspace — these two and the sampling core's
//! `TaskPointController` — takes the one parameter set of the methodology,
//! [`TaskPointConfig`], whose [`SamplingPolicy`] selects the controller
//! (`taskpoint::run` dispatches on it and re-exports all three config
//! types). This crate is deliberately independent of the sampling core so
//! the statistical machinery is testable on bare synthetic streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocate;
pub mod ci;
pub mod cluster;
pub mod config;
pub mod controller;
pub mod stratified;

pub use allocate::{neyman_allocate, Stratum};
pub use ci::{ci_target_met, relative_ci_half_width};
pub use cluster::{concurrency_band, ClusterMap};
pub use config::{
    ConfigError, Phase, ResampleCause, SamplingPolicy, SamplingStats, TaskPointConfig,
};
pub use controller::{AccuracyReport, AdaptiveController, BandAccuracy, ClusterAccuracy};
pub use stratified::StratifiedController;
