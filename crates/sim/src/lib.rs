//! TaskSim — a trace-driven, cycle-level multi-core simulator.
//!
//! Re-implementation of the simulation substrate the TaskPoint paper builds
//! on (Rico et al., "Trace-driven simulation of multithreaded
//! applications", ISPASS 2011):
//!
//! * a **detailed mode** based on the ROB-occupancy-analysis core model
//!   ([`core_model`]) with a full cache hierarchy, coherence and DRAM
//!   contention ([`hierarchy`]);
//! * a **fast (burst) mode** that advances a task in one step at a
//!   *user-specified IPC* ([`burst`]) — the paper's requirement #2 on a
//!   host simulator;
//! * runtime **mode switching at task boundaries** driven by a pluggable
//!   [`ModeController`] ([`mode`]) — the hook TaskPoint implements;
//! * a deterministic multi-core interleaving [`engine`] that executes
//!   dynamically scheduled task programs from `taskpoint-runtime`;
//! * the two machine configurations of the paper's Table II ([`config`]).
//!
//! # Example: full detailed simulation
//!
//! ```
//! use taskpoint_runtime::Program;
//! use taskpoint_trace::TraceSpec;
//! use tasksim::{DetailedOnly, MachineConfig, Simulation};
//!
//! let mut b = Program::builder("demo");
//! let ty = b.add_type("work");
//! for i in 0..4 {
//!     b.add_task(ty, TraceSpec::synthetic(i, 1_000), &[]);
//! }
//! let program = b.build();
//!
//! let result = Simulation::builder(&program, MachineConfig::high_performance())
//!     .workers(2)
//!     .build()
//!     .run(&mut DetailedOnly);
//! assert_eq!(result.detailed_tasks, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod cache;
pub mod config;
pub mod core_model;
pub mod engine;
pub mod event;
pub mod hierarchy;
pub mod mode;
pub mod noise;
pub mod report;
pub mod traces;

pub use burst::burst_duration;
pub use config::{
    CacheLevelConfig, CoreConfig, CoreGroupConfig, KindLatencies, MachineConfig,
    MachineConfigError, MemoryConfig, MAX_CLOCK_DIVIDER, MAX_WORKERS,
};
pub use engine::{Simulation, SimulationBuilder};
pub use event::EventScheduler;
pub use hierarchy::{LevelStats, MemorySystem};
pub use mode::{DetailedOnly, ExecMode, FixedIpc, ModeController, TaskStart};
pub use noise::NoiseModel;
pub use report::{CycleAccount, GroupStats, LatencyPercentiles, SimMode, SimResult, TaskReport};
pub use taskpoint_telemetry as telemetry;
pub use taskpoint_telemetry::{
    FidelityAction, NopSink, ProfileSpan, SimEvent, Sink, Telemetry, TelemetryReport,
};
pub use traces::{ProceduralTraces, RecordedTraces, TraceMismatch, TraceProvider};
