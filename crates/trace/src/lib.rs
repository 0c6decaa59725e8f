//! Procedural per-task-instance instruction traces.
//!
//! The original TaskPoint evaluation drives the TaskSim simulator with
//! application traces recorded from native OmpSs executions: for every task
//! instance the trace holds the dynamic instruction stream the task executed
//! (instruction kinds plus memory addresses). Recording real traces is not
//! possible here, and storing billions of instructions would be impractical
//! anyway, so this crate represents a task instance's trace *procedurally*:
//!
//! * a [`TraceSpec`] describes the stream — a seed, an instruction count, an
//!   [`InstructionMix`] and an [`AccessPattern`] over memory regions;
//! * [`TraceSpec::source`] regenerates the *identical* concrete instruction
//!   stream on every call (seeded xoshiro256++), which is exactly the
//!   property a trace file has: the detailed simulation and the sampled
//!   simulation of the same program observe the same instructions;
//! * a [`KindColumns`] map draws the kind sequence every instance of a
//!   task type shares once per `(code_seed, mix)` ([`mod@column`]), and hands
//!   out sources that copy their kinds from it.
//!
//! Streams are produced in batches: a [`TraceSource`] refills a
//! structure-of-arrays [`InstBlock`] ([`block`]), which the simulator's
//! detailed hot path consumes linearly. [`TraceSpec::iter`] remains as a
//! per-instruction compatibility shim over that pipeline. Pre-recorded
//! streams in the [`encode`] binary format are a first-class source too
//! ([`RecordedTrace`]), so traces captured from real executions can drive
//! the same machinery. The [`ingest`] module parses *external* traces —
//! Paraver/TaskSim-style `*.tptrace` event streams, in a documented text
//! and binary encoding (see `docs/TRACE_FORMATS.md`) — into per-task
//! recorded streams ready for that pipeline.
//!
//! Small concrete streams can still be materialized and round-tripped
//! through a compact binary encoding ([`encode`]) for golden tests.
//!
//! # Example
//!
//! ```
//! use taskpoint_trace::{AccessPattern, InstructionMix, MemRegion, TraceSpec};
//!
//! let spec = TraceSpec::builder()
//!     .seed(42)
//!     .instructions(1_000)
//!     .mix(InstructionMix::memory_bound())
//!     .pattern(AccessPattern::sequential(64))
//!     .footprint(MemRegion::new(0x1000_0000, 1 << 20))
//!     .build();
//! let n = spec.iter().count();
//! assert_eq!(n, 1_000);
//! // Deterministic: a second pass yields the same stream.
//! assert!(spec.iter().eq(spec.iter()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod column;
pub mod encode;
pub mod ingest;
pub mod inst;
pub mod mix;
pub mod pattern;
pub mod region;
pub mod spec;

pub use block::{InstBlock, RecordedTrace, SpecSource, TraceSource, BLOCK_CAPACITY};
pub use column::{KindColumn, KindColumns};
pub use ingest::{IngestError, IngestedTask, IngestedTrace, IngestedType};
pub use inst::{InstKind, Instruction};
pub use mix::InstructionMix;
pub use pattern::AccessPattern;
pub use region::MemRegion;
pub use spec::{TraceIter, TraceSpec, TraceSpecBuilder, TraceSpecError};
