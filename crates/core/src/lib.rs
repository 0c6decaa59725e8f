//! # TaskPoint — sampled simulation of task-based programs
//!
//! A faithful reproduction of *Grass, Rico, Casas, Moreto, Ayguadé:
//! "TaskPoint: Sampled Simulation of Task-Based Programs", ISPASS 2016*.
//!
//! TaskPoint accelerates architectural simulation of dynamically scheduled
//! task-based programs by exploiting the programmer's task decomposition:
//! instances of the same *task type* behave alike, so only a few of them
//! need cycle-level simulation. The rest are *fast-forwarded* at the mean
//! IPC of their type's recent samples (`C_i = I_i / IPC_T`), keeping every
//! thread's progress — and therefore the dynamic schedule — correct.
//!
//! The crate implements the paper's complete mechanism on top of the
//! [`tasksim`] simulator:
//!
//! * per-type **sample histories** (valid + all) of size `H` ([`history`]);
//! * the **warmup → sampling → fast-forward → resampling** state machine
//!   with the rare-task-type cutoff ([`controller`]);
//! * **periodic** (`P`) and **lazy** (`P = ∞`) sampling policies
//!   ([`TaskPointConfig`], [`SamplingPolicy`]);
//! * event-driven resampling on new task types, concurrency changes and
//!   empty histories (paper Fig. 4);
//! * **confidence-driven adaptive** and **two-phase stratified** sampling
//!   (built on [`taskpoint_accuracy`]): [`SamplingPolicy::Adaptive`] keeps
//!   each cluster detailed until the relative confidence interval of its
//!   mean IPC shrinks below a target, turning the sample budget into an
//!   error/speedup dial, and [`SamplingPolicy::Stratified`] spends a fixed
//!   detailed budget by Neyman allocation over `(type, size-class)`
//!   strata — the paper's proposed *future work* of clustering instances
//!   of a type by instruction count;
//! * one entry point, [`run`], that picks the controller for a
//!   configuration and drives a [`tasksim::Simulation`] with it
//!   ([`simulate`]), plus the error/speedup comparison ([`metrics`]).
//!
//! # Quickstart
//!
//! ```
//! use taskpoint::{run, TaskPointConfig};
//! use taskpoint_workloads::{Benchmark, ScaleConfig};
//! use tasksim::{MachineConfig, Simulation};
//!
//! let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
//! let sim = Simulation::builder(&program, MachineConfig::high_performance()).workers(8).build();
//! let sampled = run(sim, TaskPointConfig::lazy());
//! println!(
//!     "predicted {} cycles, {:.1}% of instructions in detail, {} resamples",
//!     sampled.result.total_cycles,
//!     100.0 * sampled.result.detail_fraction(),
//!     sampled.stats.resamples.len(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod history;
pub mod metrics;
pub mod simulate;

pub use controller::{Phase, ResampleCause, SamplingStats, TaskPointController};
pub use history::{SampleHistory, TypeHistories};
pub use metrics::ExperimentOutcome;
pub use simulate::{run, RunOutcome};
// Observability handle, re-exported for the same reason.
pub use tasksim::{Telemetry, TelemetryReport};
// The configuration and run statistics (defined next to the accuracy
// controllers that also take and fill them) and the statistical layer
// underneath the adaptive and stratified policies, re-exported so the
// campaign crate need not depend on `taskpoint-accuracy` directly.
pub use taskpoint_accuracy::{
    concurrency_band, neyman_allocate, AccuracyReport, AdaptiveController, BandAccuracy,
    ClusterAccuracy, ClusterMap, ConfigError, SamplingPolicy, StratifiedController, Stratum,
    TaskPointConfig,
};
pub use taskpoint_stats::Confidence;
