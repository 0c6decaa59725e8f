//! Task types and task instances.
//!
//! The paper's central distinction (§II-A): *"Every execution of a task
//! declaration statement at runtime results in the creation of a task
//! instance. All task instances resulting from the same task declaration
//! statement in the source code are said to be of the same task type."*
//! TaskPoint leverages task types as its sampling-unit classes.

use taskpoint_trace::{TraceSource, TraceSpec};

/// Identifier of a task type (a task declaration in the source program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskTypeId(pub u32);

impl std::fmt::Display for TaskTypeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a task instance (one dynamic execution of a declaration).
///
/// Instance ids are dense: the `i`-th task created by a program has id `i`,
/// which lets per-instance state live in plain vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskInstanceId(pub u64);

impl TaskInstanceId {
    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskInstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A task type: the static declaration all its instances share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskType {
    id: TaskTypeId,
    name: String,
}

impl TaskType {
    /// Creates a task type. Normally done through
    /// [`ProgramBuilder::add_type`](crate::program::ProgramBuilder::add_type).
    pub fn new(id: TaskTypeId, name: impl Into<String>) -> Self {
        Self { id, name: name.into() }
    }

    /// The type's identifier.
    pub fn id(&self) -> TaskTypeId {
        self.id
    }

    /// The type's source-level name (e.g. `"gemm"`, `"lu0"`).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A task instance: one dynamic execution with its own trace.
///
/// Its region annotations are not kept: the dependence analysis consumes
/// them when the task is added, and the resulting edges live in the
/// program's [`DependenceGraph`](crate::depgraph::DependenceGraph).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskInstance {
    id: TaskInstanceId,
    type_id: TaskTypeId,
    trace: TraceSpec,
}

impl TaskInstance {
    /// Creates a task instance. Normally done through
    /// [`ProgramBuilder::add_task`](crate::program::ProgramBuilder::add_task).
    pub fn new(id: TaskInstanceId, type_id: TaskTypeId, trace: TraceSpec) -> Self {
        Self { id, type_id, trace }
    }

    /// The instance's identifier (== creation order).
    pub fn id(&self) -> TaskInstanceId {
        self.id
    }

    /// The type this instance belongs to.
    pub fn type_id(&self) -> TaskTypeId {
        self.type_id
    }

    /// The instance's dynamic instruction stream.
    pub fn trace(&self) -> &TraceSpec {
        &self.trace
    }

    /// A fresh [`TraceSource`] over the instance's instruction stream,
    /// positioned at the start — what workloads hand the simulator's
    /// batched detailed pipeline.
    pub fn trace_source(&self) -> Box<dyn TraceSource> {
        Box::new(self.trace.source())
    }

    /// Dynamic instruction count — the `I_i` of the paper's fast-forward
    /// formula `C_i = I_i / IPC_T`.
    pub fn instructions(&self) -> u64 {
        self.trace.instructions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_compactly() {
        assert_eq!(TaskTypeId(3).to_string(), "T3");
        assert_eq!(TaskInstanceId(42).to_string(), "t42");
    }

    #[test]
    fn instance_exposes_trace_instruction_count() {
        let trace = TraceSpec::synthetic(0, 777);
        let inst = TaskInstance::new(TaskInstanceId(0), TaskTypeId(0), trace);
        assert_eq!(inst.instructions(), 777);
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(TaskInstanceId(17).index(), 17);
    }

    #[test]
    fn trace_source_streams_the_instance_trace() {
        use taskpoint_trace::InstBlock;
        let trace = TraceSpec::synthetic(5, 300);
        let inst = TaskInstance::new(TaskInstanceId(0), TaskTypeId(0), trace.clone());
        let mut src = inst.trace_source();
        let mut block = InstBlock::new();
        let mut got = Vec::new();
        while src.fill(&mut block) > 0 {
            got.extend(block.iter());
        }
        assert!(got.iter().copied().eq(trace.iter()));
    }
}
