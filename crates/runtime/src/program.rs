//! Complete task-based programs.
//!
//! A [`Program`] is what a workload generator produces and what the
//! simulator consumes: the task types, the distinct task codes, every task
//! instance (its own data and the index of the code it runs) and the
//! dependence DAG derived from the instances' region annotations.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use crate::depgraph::{DependenceGraph, DependenceGraphBuilder};
use crate::regions::RegionAccess;
use crate::task::{CodeBits, TaskCode, TaskInstance, TaskInstanceId, TaskType, TaskTypeId};
use taskpoint_trace::{MemRegion, TraceSpec};

/// An immutable task-based program.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    types: Vec<TaskType>,
    codes: Vec<TaskCode>,
    instances: Vec<TaskInstance>,
    graph: DependenceGraph,
    /// [`data_regions`](Self::data_regions), computed on first use.
    data_regions: OnceLock<Vec<MemRegion>>,
}

impl Program {
    /// Starts building a program with the given name.
    pub fn builder(name: impl Into<String>) -> ProgramBuilder {
        Self::with_capacity(name, 0)
    }

    /// Starts building a program that will hold `instances` task
    /// instances: the instance table and the dependence offsets are sized
    /// once, so adding the tasks never grows (copies) them.
    pub fn with_capacity(name: impl Into<String>, instances: usize) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            types: Vec::new(),
            codes: Vec::new(),
            code_index: HashMap::new(),
            instances: Vec::with_capacity(instances),
            instances_per_type: Vec::new(),
            last_code: Vec::new(),
            graph: DependenceGraphBuilder::with_capacity(instances),
        }
    }

    /// The program's name (the benchmark name in the evaluation).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared task types.
    pub fn types(&self) -> &[TaskType] {
        &self.types
    }

    /// All task instances in creation order.
    pub fn instances(&self) -> &[TaskInstance] {
        &self.instances
    }

    /// Every instance's id, in creation order (an id is its instance's
    /// index in [`instances`](Self::instances)).
    pub fn ids(&self) -> impl Iterator<Item = TaskInstanceId> {
        // `add_task` keeps every index within `u32`.
        (0..self.instances.len()).map(|i| TaskInstanceId(i as u32))
    }

    /// Looks up one instance.
    pub fn instance(&self, id: TaskInstanceId) -> &TaskInstance {
        &self.instances[id.index()]
    }

    /// Number of distinct task codes: bitwise-distinct code parts (code
    /// seed, mix, access pattern and rates) of the instances' trace specs,
    /// each kept once.
    pub fn num_codes(&self) -> usize {
        self.codes.len()
    }

    /// The trace spec of one instance, reassembled from its data and its
    /// code: bitwise equal to the spec it was added with.
    pub fn spec(&self, id: TaskInstanceId) -> TraceSpec {
        let inst = &self.instances[id.index()];
        self.codes[inst.code()].spec(inst)
    }

    /// Looks up one task type.
    pub fn task_type(&self, id: TaskTypeId) -> &TaskType {
        &self.types[id.0 as usize]
    }

    /// The dependence DAG.
    pub fn graph(&self) -> &DependenceGraph {
        &self.graph
    }

    /// Number of task types (Table I column "# Task Types").
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Number of task instances (Table I column "# Task Instances").
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Total dynamic instruction count over all instances.
    pub fn total_instructions(&self) -> u64 {
        self.instances.iter().map(TaskInstance::instructions).sum()
    }

    /// The distinct non-empty data regions of the program's instances
    /// (each instance's footprint, then its shared region), newest
    /// instance first, each region listed once at its newest use.
    ///
    /// The simulator's last-level-cache prewarm walks this list in order,
    /// so the region whose newest use is the *earliest* instance is
    /// touched last and wins a set conflict. Computed on first use and
    /// kept, so runs sharing one program walk its instances once.
    pub fn data_regions(&self) -> &[MemRegion] {
        self.data_regions.get_or_init(|| {
            let mut seen = HashSet::new();
            let mut regions = Vec::new();
            for inst in self.instances.iter().rev() {
                for region in [inst.footprint(), inst.shared()] {
                    if !region.is_empty() && seen.insert(region) {
                        regions.push(region);
                    }
                }
            }
            // The list lives as long as the program: drop the growth slack.
            regions.shrink_to_fit();
            regions
        })
    }

    /// Instances per type, indexed by `TaskTypeId`.
    pub fn instances_per_type(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.types.len()];
        for inst in &self.instances {
            counts[inst.type_id().0 as usize] += 1;
        }
        counts
    }

    /// Instructions per type, indexed by `TaskTypeId`. The paper highlights
    /// dominant types (e.g. freqmine's type with 93% of all instructions).
    pub fn instructions_per_type(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.types.len()];
        for inst in &self.instances {
            counts[inst.type_id().0 as usize] += inst.instructions();
        }
        counts
    }
}

/// Builder for [`Program`]. Task ids are assigned densely in creation
/// order, exactly like a sequential OmpSs program creating tasks.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    types: Vec<TaskType>,
    codes: Vec<TaskCode>,
    /// The index in `codes` of each code, by its bits.
    code_index: HashMap<CodeBits, u32>,
    instances: Vec<TaskInstance>,
    /// Instances added per type, indexed by `TaskTypeId`.
    instances_per_type: Vec<usize>,
    /// The code of each type's latest instance, indexed by `TaskTypeId`:
    /// consecutive instances of a type nearly always run the same code.
    last_code: Vec<Option<u32>>,
    graph: DependenceGraphBuilder,
}

impl ProgramBuilder {
    /// Declares a task type and returns its id.
    pub fn add_type(&mut self, name: impl Into<String>) -> TaskTypeId {
        let id = TaskTypeId(self.types.len() as u32);
        self.types.push(TaskType::new(id, name));
        self.instances_per_type.push(0);
        self.last_code.push(None);
        id
    }

    /// Creates a task instance of `type_id` with the given trace and region
    /// annotations; returns its id. Dependences on earlier tasks are derived
    /// immediately, and the annotations are not kept. The trace's code part
    /// is interned in the program's code table; the instance keeps its data
    /// part and the code's index.
    ///
    /// # Panics
    ///
    /// Panics if `type_id` has not been declared, or if the program already
    /// holds 2^32 instances.
    pub fn add_task(
        &mut self,
        type_id: TaskTypeId,
        trace: TraceSpec,
        accesses: &[RegionAccess],
    ) -> TaskInstanceId {
        let count = self
            .instances_per_type
            .get_mut(type_id.0 as usize)
            .unwrap_or_else(|| panic!("undeclared task type {type_id}"));
        *count += 1;
        let id = TaskInstanceId(
            u32::try_from(self.instances.len()).expect("at most 2^32 task instances"),
        );
        let code = self.intern(type_id, &trace);
        self.graph.add_task(id, accesses);
        self.instances.push(TaskInstance::new(type_id, code, &trace));
        id
    }

    /// The index of `trace`'s code in the table, added if new. Compares the
    /// code of the type's previous instance field by field first; only a
    /// miss computes the code's bits for the map.
    fn intern(&mut self, type_id: TaskTypeId, trace: &TraceSpec) -> u32 {
        let last = &mut self.last_code[type_id.0 as usize];
        if let Some(code) = *last {
            if self.codes[code as usize].matches(trace) {
                return code;
            }
        }
        let next = u32::try_from(self.codes.len()).expect("fewer than 2^32 task codes");
        let code = *self.code_index.entry(TaskCode::bits_of(trace)).or_insert(next);
        if code == next {
            self.codes.push(TaskCode::of(trace));
        }
        *last = Some(code);
        code
    }

    /// Number of instances added so far.
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if any declared type has zero instances (almost certainly a
    /// generator bug that would corrupt Table I counts).
    pub fn build(self) -> Program {
        for (ty, &count) in self.types.iter().zip(&self.instances_per_type) {
            assert!(count > 0, "task type {} ({}) has no instances", ty.id().0, ty.name());
        }
        // Both tables live as long as the program: drop the growth slack.
        // An instance table sized by `with_capacity` has none, so this
        // copies nothing.
        let (mut codes, mut instances) = (self.codes, self.instances);
        codes.shrink_to_fit();
        instances.shrink_to_fit();
        Program {
            name: self.name,
            types: self.types,
            codes,
            instances,
            graph: self.graph.build(),
            data_regions: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::RegionAccess;

    fn trace(n: u64) -> TraceSpec {
        TraceSpec::synthetic(0, n)
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = Program::builder("p");
        let t = b.add_type("work");
        let a = b.add_task(t, trace(10), &[]);
        let c = b.add_task(t, trace(20), &[]);
        assert_eq!(a, TaskInstanceId(0));
        assert_eq!(c, TaskInstanceId(1));
        let p = b.build();
        assert_eq!(p.num_instances(), 2);
        assert_eq!(p.num_types(), 1);
        assert_eq!(p.total_instructions(), 30);
    }

    #[test]
    fn per_type_statistics() {
        let mut b = Program::builder("p");
        let ta = b.add_type("a");
        let tb = b.add_type("b");
        b.add_task(ta, trace(100), &[]);
        b.add_task(ta, trace(100), &[]);
        b.add_task(tb, trace(50), &[]);
        let p = b.build();
        assert_eq!(p.instances_per_type(), vec![2, 1]);
        assert_eq!(p.instructions_per_type(), vec![200, 50]);
        assert_eq!(p.task_type(ta).name(), "a");
    }

    #[test]
    fn graph_is_wired_through_builder() {
        let mut b = Program::builder("p");
        let t = b.add_type("w");
        let r = MemRegion::new(0x100, 0x10);
        let first = b.add_task(t, trace(1), &[RegionAccess::output(r)]);
        let second = b.add_task(t, trace(1), &[RegionAccess::input(r)]);
        let p = b.build();
        assert_eq!(p.graph().predecessors(second), &[first]);
        assert_eq!(p.graph().len(), 2);
    }

    #[test]
    fn data_regions_are_distinct_newest_first() {
        let spec = |footprint: MemRegion, shared: MemRegion| {
            TraceSpec::builder().instructions(10).footprint(footprint).shared(shared).build()
        };
        let (a, b, c) = (MemRegion::new(0, 64), MemRegion::new(64, 64), MemRegion::new(128, 64));
        let mut builder = Program::builder("p");
        let t = builder.add_type("w");
        builder.add_task(t, spec(a, b), &[]);
        builder.add_task(t, spec(c, MemRegion::empty()), &[]);
        builder.add_task(t, spec(b, a), &[]);
        let p = builder.build();
        assert_eq!(p.data_regions(), &[b, a, c]);
        assert!(std::ptr::eq(p.data_regions(), p.data_regions()), "computed once");
    }

    #[test]
    #[should_panic(expected = "undeclared task type")]
    fn undeclared_type_rejected() {
        let mut b = Program::builder("p");
        b.add_task(TaskTypeId(0), trace(1), &[]);
    }

    #[test]
    #[should_panic(expected = "has no instances")]
    fn empty_type_rejected() {
        let mut b = Program::builder("p");
        let _unused = b.add_type("never-instantiated");
        b.build();
    }
}
