//! Building a [`Program`] from an externally ingested trace.
//!
//! An [`IngestedTrace`] carries everything
//! a [`Program`] needs: the task types, every task instance in begin order
//! (dense ids), per-instance instruction counts, and the retired-before
//! dependences the recorded execution observed. This module converts that
//! into the runtime's program model; the companion converter in `tasksim`
//! (`RecordedTraces::from_ingested`) packages the concrete instruction
//! streams, and together they make a foreign trace a complete simulator
//! input.

use taskpoint_trace::ingest::IngestedTrace;
use taskpoint_trace::{InstKind, InstructionMix, MemRegion, TraceSpec};

use crate::program::Program;
use crate::regions::RegionAccess;

/// Base address of the synthetic dependence regions (far above any
/// plausible trace address so they never alias recorded data).
const DEP_REGION_BASE: u64 = 0xFFFF_0000_0000_0000;
/// Size of one synthetic dependence region.
const DEP_REGION_LEN: u64 = 64;

/// The synthetic region task `index` "writes" — dependence edges are
/// encoded as reads of predecessors' regions.
fn dep_region(index: u64) -> MemRegion {
    MemRegion::new(DEP_REGION_BASE + index * DEP_REGION_LEN, DEP_REGION_LEN)
}

/// Converts an ingested trace into a [`Program`].
///
/// * Task types and instances keep the trace's dense order, so the
///   program's `TaskInstanceId`s equal the trace's task indices — the
///   invariant `RecordedTraces::from_ingested` relies on.
/// * Each instance's [`TraceSpec`] carries the *recorded* instruction
///   count (what fast-forwarding reads) and the type's event rates, but a
///   pure-compute mix with no footprint: the spec is only the fallback
///   generator, and simulating an ingested program without its recorded
///   bundle would replay meaningless synthetic streams. Always pair the
///   program with the bundle built from the same trace.
/// * The trace's retired-before dependences are re-expressed as region
///   accesses (each task outputs a unique synthetic region; dependents
///   read their predecessors' regions), so the runtime's OmpSs dependence
///   analysis reconstructs exactly the recorded DAG edges.
pub fn program_from_ingested(name: impl Into<String>, trace: &IngestedTrace) -> Program {
    let mut b = Program::with_capacity(name, trace.tasks().len());
    let type_ids: Vec<_> = trace.types().iter().map(|t| b.add_type(t.name.clone())).collect();
    let mix = InstructionMix::from_weights(&[(InstKind::IntAlu, 1.0)]);
    let mut accesses = Vec::new();
    for task in trace.tasks() {
        let ty = &trace.types()[task.type_index as usize];
        let spec = TraceSpec::builder()
            .seed(task.index)
            .code_seed(task.type_index as u64)
            .instructions(task.instructions)
            .mix(mix.clone())
            .branch_mispredict_rate(ty.branch_mispredict_rate)
            .dependency_rate(ty.dependency_rate)
            .build();
        accesses.clear();
        accesses.push(RegionAccess::output(dep_region(task.index)));
        accesses.extend(task.deps.iter().map(|&d| RegionAccess::input(dep_region(d))));
        b.add_task(type_ids[task.type_index as usize], spec, &accesses);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskInstanceId;

    const TRACE: &str = "\
%tptrace 1
T:3:alpha:0.05:0.4
T:4:beta
B:0:100:3
I:0:int_alu
I:0:fp_mul
E:0:100
B:1:200:4
M:1:load:8000:8
E:1:200
B:0:300:4:100,200
I:0:branch
E:0:300
";

    #[test]
    fn ingested_program_mirrors_the_trace() {
        let trace = IngestedTrace::parse_text(TRACE).unwrap();
        let p = program_from_ingested("ext", &trace);
        assert_eq!(p.name(), "ext");
        assert_eq!(p.num_types(), 2);
        assert_eq!(p.num_instances(), 3);
        assert_eq!(p.types()[0].name(), "alpha");
        assert_eq!(p.total_instructions(), 4);
        // Instruction counts come from the recording.
        assert_eq!(p.instance(TaskInstanceId(0)).instructions(), 2);
        assert_eq!(p.instance(TaskInstanceId(1)).instructions(), 1);
        // Event rates propagate from the type declaration.
        let spec = p.spec(TaskInstanceId(0));
        assert_eq!(spec.branch_mispredict_rate(), 0.05);
        assert_eq!(spec.dependency_rate(), 0.4);
        // The recorded dependences become DAG edges.
        assert_eq!(
            p.graph().predecessors(TaskInstanceId(2)),
            &[TaskInstanceId(0), TaskInstanceId(1)]
        );
        assert!(p.graph().predecessors(TaskInstanceId(0)).is_empty());
    }

    #[test]
    fn fallback_specs_are_pure_compute() {
        let trace = IngestedTrace::parse_text(TRACE).unwrap();
        let p = program_from_ingested("ext", &trace);
        for (id, inst) in p.ids().zip(p.instances()) {
            let spec = p.spec(id);
            assert!(spec.iter().all(|i| !i.kind.is_memory()));
            assert_eq!(spec.iter().count() as u64, inst.instructions());
        }
    }
}
