//! # taskpoint-campaign — deterministic parallel sweep execution
//!
//! The paper's evaluation is a large cell matrix (benchmarks × machines ×
//! thread counts × sampling policies). This crate turns that matrix into a
//! first-class subsystem:
//!
//! * [`CellSpec`] — one cell of the matrix, with a stable 128-bit content
//!   hash over everything that determines its outcome;
//! * [`Executor`] — a deterministic work-stealing pool on [`std::thread`]:
//!   results are collected in spec order, so emitted artefacts are
//!   byte-identical for any worker count;
//! * [`ResultStore`] — a content-addressed store under `results/campaign/`
//!   keyed by cell hash + workspace code fingerprint, so re-runs skip
//!   already-computed cells and interrupted campaigns resume;
//! * [`Campaign`] — the driver tying those together, plus shared in-memory
//!   program/reference caches so concurrent cells never duplicate a
//!   detailed reference run;
//! * [`Sweep`] — the named cell lists behind every table and figure, and
//!   [`Sweep::render`], which prints a sweep's table from its outcomes;
//!   `campaign run --sweep NAME` runs and renders one.
//!
//! Determinism contract: the *canonical* record stream
//! ([`CampaignReport::jsonl`]) contains only deterministic quantities
//! (cycle counts, instruction counts, cycle-derived errors). Host
//! wall-clock measurements live in a separate advisory timing sidecar.
//!
//! # Quickstart
//!
//! ```
//! use taskpoint_campaign::{Campaign, CellSpec, Executor, ResultStore};
//! use taskpoint::TaskPointConfig;
//! use taskpoint_workloads::{Benchmark, ScaleConfig};
//! use tasksim::MachineConfig;
//!
//! let campaign = Campaign::new(ResultStore::disabled(), Executor::new(2));
//! let specs = vec![CellSpec::sampled(
//!     Benchmark::Spmv,
//!     ScaleConfig::quick(),
//!     MachineConfig::tiny_test(),
//!     2,
//!     TaskPointConfig::lazy(),
//! )];
//! let report = campaign.run(&specs);
//! assert_eq!(report.outcomes.len(), 1);
//! println!("{}", report.jsonl());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod context;
pub mod executor;
mod figures;
pub mod hash;
pub mod json;
pub mod record;
pub mod spec;
pub mod store;
pub mod sweeps;

pub use campaign::{Campaign, CampaignReport, ProgressSnapshot};
pub use context::Context;
pub use executor::Executor;
pub use record::{
    CellMetrics, CellOutcome, CellRecord, CellTiming, EvalMetrics, GroupMetric, RefMetrics,
    StoredCell, VariationMetrics,
};
pub use spec::{CellKind, CellSpec, RunScale, UnknownScaleError};
pub use store::{code_fingerprint, ResultStore};
pub use sweeps::{adaptive_specs, Sweep, ADAPTIVE_TARGETS, STRATIFIED_BUDGETS, STRATIFIED_PILOT};
