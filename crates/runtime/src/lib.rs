//! OmpSs-style task runtime model.
//!
//! The paper's programs are written in OmpSs [Duran et al. 2011]: the
//! programmer declares *task types* and annotates their data *regions* with
//! directions (`in`, `out`, `inout`); every execution of a task declaration
//! creates a *task instance*; the runtime derives inter-task dependences
//! from overlapping region annotations and dynamically schedules ready
//! instances onto worker threads.
//!
//! This crate reproduces that model at the level of detail architectural
//! simulation needs:
//!
//! * [`task`] — task types, task codes, task instances and their
//!   identifiers;
//! * [`regions`] — region access annotations (`in`/`out`/`inout`);
//! * [`depgraph`] — OmpSs dependence analysis (RAW, WAR, WAW over regions)
//!   producing a DAG in compressed sparse row form, plus the incremental
//!   ready-set used during execution;
//! * [`scheduler`] — the dynamic scheduler interface and the FIFO policy
//!   (the Nanos++ default);
//! * [`program`] — a complete task-based program: types + codes +
//!   instances + DAG. A task's trace spec is split when it is added: the
//!   code part is interned once per program, the instance keeps its own
//!   data. Its region annotations are consumed by the dependence analysis;
//!   the program keeps only the resulting edges.
//!
//! # Example
//!
//! ```
//! use taskpoint_runtime::{AccessMode, Program, RegionAccess};
//! use taskpoint_trace::{MemRegion, TraceSpec};
//!
//! let mut b = Program::builder("two-chained-tasks");
//! let t = b.add_type("work");
//! let data = MemRegion::new(0x1000, 64);
//! let trace = TraceSpec::synthetic(0, 100);
//! let first = b.add_task(t, trace.clone(), &[RegionAccess::new(data, AccessMode::Out)]);
//! let second = b.add_task(t, trace, &[RegionAccess::new(data, AccessMode::In)]);
//! let program = b.build();
//! // `second` reads what `first` writes: a RAW dependence.
//! assert_eq!(program.graph().predecessors(second), &[first]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod depgraph;
pub mod ingest;
pub mod program;
pub mod regions;
pub mod scheduler;
pub mod task;

pub use depgraph::{DependenceGraph, ReadySet};
pub use ingest::program_from_ingested;
pub use program::{Program, ProgramBuilder};
pub use regions::{AccessMode, RegionAccess};
pub use scheduler::{FifoScheduler, Scheduler, WorkerId};
pub use task::{TaskInstance, TaskInstanceId, TaskType, TaskTypeId};
