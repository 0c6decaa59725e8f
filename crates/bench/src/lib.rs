//! Evaluation harness for the TaskPoint reproduction.
//!
//! One binary per table/figure of the paper (see `src/bin/`), built on the
//! [`taskpoint_campaign`] subsystem: every figure assembles its cell list,
//! fans it out across the campaign's deterministic work-stealing executor,
//! and shares the content-addressed result store with the `campaign` CLI —
//! so sweeps sharing a (benchmark, machine, threads) cell never repeat an
//! expensive full-detail run, within a process or across processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod format;
pub mod harness;
pub mod output;

pub use figures::{
    adaptive_frontier, error_speedup_figure, sensitivity_sweep, table1, table2, variation_figure,
    FigureCell, SweepPart,
};
pub use format::Table;
pub use harness::{Cell, Harness, RunScale};
