//! Task types and task instances.
//!
//! The paper's central distinction (§II-A): *"Every execution of a task
//! declaration statement at runtime results in the creation of a task
//! instance. All task instances resulting from the same task declaration
//! statement in the source code are said to be of the same task type."*
//! TaskPoint leverages task types as its sampling-unit classes.

use taskpoint_trace::{AccessPattern, InstructionMix, MemRegion, TraceSpec};

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
/// which lets per-instance state live in plain vectors. They are 32 bits
/// wide, so a dependence edge costs four bytes; a program holds at most 2^32
/// instances. Wire formats (telemetry, trace bundles, ingested traces)
/// carry ids as `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskInstanceId(pub u32);

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

/// The code of a task: the part of a [`TraceSpec`] every instance running
/// it shares. It fixes the instruction kind sequence (code seed and mix),
/// how memory is walked (access pattern) and the event rates.
///
/// A [`Program`](crate::Program) keeps each distinct code once and an
/// instance names its code by index. Codes are told apart by bit pattern
/// ([`CodeBits`]), so a rate of `-0.0` is a different code from `0.0`.
#[derive(Debug, Clone)]
pub(crate) struct TaskCode {
    code_seed: u64,
    mix: InstructionMix,
    pattern: AccessPattern,
    branch_mispredict_rate: f64,
    dependency_rate: f64,
}

/// The bit pattern of a [`TaskCode`]: code seed, 11 cumulative mix words,
/// three pattern words and the two rates. Equal bits, equal code.
pub(crate) type CodeBits = [u64; 17];

impl TaskCode {
    /// The code part of `spec`.
    pub(crate) fn of(spec: &TraceSpec) -> Self {
        Self {
            code_seed: spec.code_seed(),
            mix: spec.mix().clone(),
            pattern: spec.pattern(),
            branch_mispredict_rate: spec.branch_mispredict_rate(),
            dependency_rate: spec.dependency_rate(),
        }
    }

    /// The bits of the code part of `spec`, computed without copying it.
    pub(crate) fn bits_of(spec: &TraceSpec) -> CodeBits {
        let mut bits = [0; 17];
        bits[0] = spec.code_seed();
        bits[1..12].copy_from_slice(&spec.mix().cumulative_bits());
        bits[12..15].copy_from_slice(&spec.pattern().bits());
        bits[15] = spec.branch_mispredict_rate().to_bits();
        bits[16] = spec.dependency_rate().to_bits();
        bits
    }

    /// True if the code part of `spec` is this code, bit for bit: the
    /// answer `bits_of(spec)` would give against this code's bits, compared
    /// field by field.
    pub(crate) fn matches(&self, spec: &TraceSpec) -> bool {
        self.code_seed == spec.code_seed()
            && self.branch_mispredict_rate.to_bits() == spec.branch_mispredict_rate().to_bits()
            && self.dependency_rate.to_bits() == spec.dependency_rate().to_bits()
            && self.pattern.bits() == spec.pattern().bits()
            && self.mix.same_bits(spec.mix())
    }

    /// The spec of `inst`, an instance running this code: bitwise equal to
    /// the spec the instance was added with.
    pub(crate) fn spec(&self, inst: &TaskInstance) -> TraceSpec {
        TraceSpec::builder()
            .seed(inst.seed)
            .code_seed(self.code_seed)
            .instructions(inst.instructions)
            .mix(self.mix.clone())
            .pattern(self.pattern)
            .footprint(inst.footprint)
            .shared(inst.shared)
            .branch_mispredict_rate(self.branch_mispredict_rate)
            .dependency_rate(self.dependency_rate)
            .build()
    }
}

/// A task instance: one dynamic execution of a task's code over its own
/// data.
///
/// It holds only what differs between instances: its type, data seed,
/// instruction count and memory regions. Its id is its index in
/// [`Program::instances`](crate::Program::instances), so it is not
/// stored. The code it runs is an index into its program's code table,
/// and [`Program::spec`](crate::Program::spec) reassembles the full
/// [`TraceSpec`]. Its region annotations are not kept either: the
/// dependence analysis consumes them when the task is added, and the
/// resulting edges live in the program's
/// [`DependenceGraph`](crate::depgraph::DependenceGraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskInstance {
    type_id: TaskTypeId,
    code: u32,
    seed: u64,
    instructions: u64,
    footprint: MemRegion,
    shared: MemRegion,
}

// A program holds hundreds of thousands of instances: keep one small.
const _: () = assert!(std::mem::size_of::<TaskInstance>() == 56);

impl TaskInstance {
    /// The data part of `spec`, for an instance of `type_id` running code
    /// `code` of its program.
    pub(crate) fn new(type_id: TaskTypeId, code: u32, spec: &TraceSpec) -> Self {
        Self {
            type_id,
            code,
            seed: spec.seed(),
            instructions: spec.instructions(),
            footprint: spec.footprint(),
            shared: spec.shared(),
        }
    }

    /// The type this instance belongs to.
    pub fn type_id(&self) -> TaskTypeId {
        self.type_id
    }

    /// The index of the instance's code in its program's code table.
    pub(crate) fn code(&self) -> usize {
        self.code as usize
    }

    /// The seed of the instance's data-dependent behaviour (see
    /// [`TraceSpec::seed`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Dynamic instruction count — the `I_i` of the paper's fast-forward
    /// formula `C_i = I_i / IPC_T`.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The instance's private data footprint.
    pub fn footprint(&self) -> MemRegion {
        self.footprint
    }

    /// The shared region the instance's atomics target (may be empty).
    pub fn shared(&self) -> MemRegion {
        self.shared
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
    fn index_round_trips() {
        assert_eq!(TaskInstanceId(17).index(), 17);
    }

    #[test]
    fn code_and_instance_reassemble_the_spec() {
        let spec = TraceSpec::builder()
            .seed(5)
            .code_seed(9)
            .instructions(777)
            .mix(InstructionMix::memory_bound())
            .pattern(AccessPattern::Gather { hot_probability: 0.5, hot_fraction: 0.25 })
            .footprint(MemRegion::new(0x1000, 4096))
            .shared(MemRegion::new(0x9000, 64))
            .branch_mispredict_rate(0.1)
            .dependency_rate(0.3)
            .build();
        let inst = TaskInstance::new(TaskTypeId(0), 0, &spec);
        assert_eq!(inst.instructions(), 777);
        assert_eq!(inst.seed(), 5);
        assert_eq!(TaskCode::of(&spec).spec(&inst), spec);
    }

    #[test]
    fn matches_agrees_with_the_bits() {
        let base = TraceSpec::builder()
            .code_seed(9)
            .footprint(MemRegion::new(0x1000, 4096))
            .mix(InstructionMix::memory_bound())
            .pattern(AccessPattern::Gather { hot_probability: 0.5, hot_fraction: 0.25 })
            .dependency_rate(0.3);
        let code = TaskCode::of(&base.clone().build());
        let variants = [
            base.clone().seed(77).instructions(5).build(),
            base.clone().code_seed(10).build(),
            base.clone().mix(InstructionMix::compute_bound()).build(),
            base.clone()
                .pattern(AccessPattern::Gather { hot_probability: 0.5, hot_fraction: 0.5 })
                .build(),
            base.clone().branch_mispredict_rate(-0.0).build(),
            base.clone().dependency_rate(0.25).build(),
        ];
        let bits = TaskCode::bits_of(&base.build());
        for spec in &variants {
            assert_eq!(code.matches(spec), TaskCode::bits_of(spec) == bits, "{spec:?}");
        }
        assert!(code.matches(&variants[0]), "data fields are not code");
        assert!(!code.matches(&variants[4]), "-0.0 is not 0.0");
    }
}
