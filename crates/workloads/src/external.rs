//! The `external` workload family: programs replayed from checked-in
//! `*.tptrace` fixture traces.
//!
//! Every other workload in this crate *generates* its task program
//! procedurally. The external family instead **ingests** foreign traces in
//! the Paraver/TaskSim-style `*.tptrace` format
//! ([`taskpoint_trace::ingest`], spec in `docs/TRACE_FORMATS.md`): the
//! checked-in fixtures under `crates/workloads/fixtures/` are parsed into
//! an [`IngestedTrace`], converted to a [`Program`] (types, instances,
//! recorded dependences), and paired with a `tasksim::RecordedTraces`
//! bundle carrying the recorded instruction streams.
//!
//! The fixtures themselves are deterministic: [`synthesize`] regenerates
//! each fixture's canonical text byte-for-byte (pinned by a golden test),
//! so the checked-in files, the recipe and the parser can never drift
//! apart. One fixture is stored in the text encoding, the other in the
//! binary encoding, exercising both parsers on every build.
//!
//! **Replay caveat:** the instances of an ingested program carry
//! pure-compute fallback specs (only the instruction *count* is
//! meaningful). Detailed simulation must use the recorded bundle —
//! `RecordedTraces::from_ingested` on the same [`IngestedTrace`] — which
//! the campaign layer wires automatically for `Benchmark::External` cells.

use taskpoint_runtime::{program_from_ingested, Program};
use taskpoint_trace::ingest::IngestedTrace;
use taskpoint_trace::{AccessPattern, Instruction, InstructionMix, MemRegion, TraceSpec};

use crate::info::{BenchClass, WorkloadInfo};

/// The checked-in external fixture traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExternalWorkload {
    /// A Cholesky-like tile DAG (4 stages × 12 tasks over potrf/trsm/gemm
    /// types, 2 recorded threads), stored in the **text** encoding.
    DagMini,
    /// A two-stage software pipeline (produce → compress pairs chained
    /// through the compress stage, 2 recorded threads), stored in the
    /// **binary** encoding.
    PipelineMini,
}

/// Table-I-style metadata of the dag-mini fixture.
pub const DAG_MINI_INFO: WorkloadInfo = WorkloadInfo {
    name: "external-dag-mini",
    class: BenchClass::External,
    task_types: 3,
    task_instances: 48,
    property: "ingested tile DAG, 2 recorded threads, retired-before deps",
};

/// Table-I-style metadata of the pipeline-mini fixture.
pub const PIPELINE_MINI_INFO: WorkloadInfo = WorkloadInfo {
    name: "external-pipeline-mini",
    class: BenchClass::External,
    task_types: 2,
    task_instances: 40,
    property: "ingested 2-stage pipeline, binary encoding, chained deps",
};

impl ExternalWorkload {
    /// All external workloads.
    pub const ALL: [ExternalWorkload; 2] =
        [ExternalWorkload::DagMini, ExternalWorkload::PipelineMini];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Static metadata (fixture-derived counts, pinned by tests).
    pub fn info(self) -> WorkloadInfo {
        match self {
            ExternalWorkload::DagMini => DAG_MINI_INFO,
            ExternalWorkload::PipelineMini => PIPELINE_MINI_INFO,
        }
    }

    /// Looks an external workload up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The checked-in fixture bytes (text or binary `*.tptrace`).
    pub fn fixture_bytes(self) -> &'static [u8] {
        match self {
            ExternalWorkload::DagMini => include_bytes!("../fixtures/dag-mini.tptrace"),
            ExternalWorkload::PipelineMini => include_bytes!("../fixtures/pipeline-mini.tptraceb"),
        }
    }

    /// Parses the checked-in fixture.
    ///
    /// # Panics
    ///
    /// Panics if the fixture no longer parses — that means the repository
    /// itself is corrupt (the golden test pins fixture bytes to the
    /// [`synthesize`] recipe), not that user input was bad.
    pub fn ingest(self) -> IngestedTrace {
        IngestedTrace::parse(self.fixture_bytes())
            .unwrap_or_else(|e| panic!("checked-in fixture {} is invalid: {e}", self.name()))
    }

    /// The ingested program. Pair it with
    /// `tasksim::RecordedTraces::from_ingested` of the same
    /// [`ExternalWorkload::ingest`] result for detailed simulation (see
    /// module docs).
    pub fn generate(self) -> Program {
        program_from_ingested(self.name(), &self.ingest())
    }
}

/// Regenerates a fixture's canonical **text** encoding, byte for byte.
///
/// This is the recipe the checked-in fixtures were produced from (via
/// `trace-convert synth`); a golden test asserts the files match it. The
/// streams come from seeded [`TraceSpec`]s, so the output is a pure
/// function of this source file.
pub fn synthesize(workload: ExternalWorkload) -> String {
    match workload {
        ExternalWorkload::DagMini => synthesize_dag_mini(),
        ExternalWorkload::PipelineMini => synthesize_pipeline_mini(),
    }
}

/// Concrete stream of one synthetic fixture task.
fn fixture_stream(global_idx: u64, type_idx: u32, instructions: u64) -> Vec<Instruction> {
    let (mix, pattern) = match type_idx {
        0 => (InstructionMix::balanced(), AccessPattern::sequential(64)),
        1 => (InstructionMix::memory_bound(), AccessPattern::strided(128, 2)),
        _ => (InstructionMix::compute_bound(), AccessPattern::sequential(8)),
    };
    TraceSpec::builder()
        .seed(0xE17_0000 + global_idx)
        .code_seed(0xC0DE + type_idx as u64)
        .instructions(instructions)
        .mix(mix)
        .pattern(pattern)
        .footprint(MemRegion::new(0x2000_0000 + global_idx * 0x1_0000, 0x8000))
        .build()
        .iter()
        .collect()
}

/// Event-stream writer for the text encoding.
struct Emitter {
    out: String,
}

impl Emitter {
    fn new(comment: &str) -> Self {
        Self { out: format!("%tptrace 1\n# {comment}\n") }
    }

    fn declare(&mut self, id: u32, name: &str, branch_rate: f64, dep_rate: f64) {
        use std::fmt::Write as _;
        let _ = writeln!(self.out, "T:{id}:{name}:{branch_rate}:{dep_rate}");
    }

    fn begin(&mut self, thread: u32, task: u64, type_id: u32, deps: &[u64]) {
        use std::fmt::Write as _;
        let _ = write!(self.out, "B:{thread}:{task}:{type_id}");
        if !deps.is_empty() {
            let list: Vec<String> = deps.iter().map(u64::to_string).collect();
            let _ = write!(self.out, ":{}", list.join(","));
        }
        self.out.push('\n');
    }

    fn inst(&mut self, thread: u32, inst: Instruction) {
        use std::fmt::Write as _;
        if inst.kind.is_memory() {
            let _ = writeln!(self.out, "M:{thread}:{}:{:x}:{}", inst.kind, inst.addr, inst.size);
        } else {
            let _ = writeln!(self.out, "I:{thread}:{}", inst.kind);
        }
    }

    fn end(&mut self, thread: u32, task: u64) {
        use std::fmt::Write as _;
        let _ = writeln!(self.out, "E:{thread}:{task}");
    }

    /// Emits two whole tasks with their instruction streams interleaved in
    /// chunks across the two threads — the Paraver-timeline shape the
    /// parser must reassemble per thread.
    fn pair(&mut self, a: &FixtureTask, b: &FixtureTask) {
        self.begin(0, a.id, a.type_id, &a.deps);
        self.begin(1, b.id, b.type_id, &b.deps);
        const CHUNK: usize = 48;
        let mut ia = a.stream.iter();
        let mut ib = b.stream.iter();
        loop {
            let ca: Vec<_> = ia.by_ref().take(CHUNK).collect();
            let cb: Vec<_> = ib.by_ref().take(CHUNK).collect();
            if ca.is_empty() && cb.is_empty() {
                break;
            }
            for &i in &ca {
                self.inst(0, *i);
            }
            for &i in &cb {
                self.inst(1, *i);
            }
        }
        self.end(0, a.id);
        self.end(1, b.id);
    }

    fn solo(&mut self, thread: u32, t: &FixtureTask) {
        self.begin(thread, t.id, t.type_id, &t.deps);
        for &i in &t.stream {
            self.inst(thread, i);
        }
        self.end(thread, t.id);
    }
}

struct FixtureTask {
    id: u64,
    type_id: u32,
    deps: Vec<u64>,
    stream: Vec<Instruction>,
}

fn fixture_task(global_idx: u64, id: u64, type_id: u32, base: u64, deps: Vec<u64>) -> FixtureTask {
    let instructions = base + (global_idx * 37) % 97;
    FixtureTask { id, type_id, deps, stream: fixture_stream(global_idx, type_id, instructions) }
}

/// dag-mini: 4 stages of 12 tasks (potrf, trsm, then two gemm waves), each
/// stage-`s` task depending on one or two stage-`s-1` tasks. Task ids are
/// deliberately sparse (1000 + 10·i) to exercise dense remapping.
fn synthesize_dag_mini() -> String {
    let mut e = Emitter::new("external-dag-mini: Cholesky-like tile DAG on 2 threads");
    e.declare(0, "potrf", 0.01, 0.35);
    e.declare(1, "trsm", 0.02, 0.2);
    e.declare(2, "gemm", 0.005, 0.1);
    let id_of = |gidx: u64| 1000 + gidx * 10;
    let mut tasks = Vec::new();
    for stage in 0u64..4 {
        for slot in 0u64..12 {
            let gidx = stage * 12 + slot;
            let (type_id, base) = match stage {
                0 => (0u32, 320u64),
                1 => (1, 260),
                _ => (2, 200),
            };
            let deps = if stage == 0 {
                vec![]
            } else {
                let prev = (stage - 1) * 12;
                let mut d = vec![id_of(prev + slot)];
                if slot % 3 == 0 {
                    d.push(id_of(prev + (slot + 1) % 12));
                }
                d
            };
            tasks.push(fixture_task(gidx, id_of(gidx), type_id, base, deps));
        }
    }
    for pair in tasks.chunks(2) {
        e.pair(&pair[0], &pair[1]);
    }
    e.out
}

/// pipeline-mini: 20 produce/compress pairs; `compress_i` depends on
/// `produce_i` and on `compress_{i-1}`, so `produce_{i+1}` (thread 0) and
/// `compress_i` (thread 1) overlap — a classic 2-deep software pipeline.
fn synthesize_pipeline_mini() -> String {
    let mut e = Emitter::new("external-pipeline-mini: 2-stage pipeline on 2 threads");
    e.declare(0, "produce", 0.015, 0.25);
    e.declare(1, "compress", 0.04, 0.3);
    const PAIRS: u64 = 20;
    let produce_id = |i: u64| 2 * i;
    let compress_id = |i: u64| 2 * i + 1;
    let produce = |i: u64| fixture_task(i, produce_id(i), 0, 240, vec![]);
    let compress = |i: u64| {
        let mut deps = vec![produce_id(i)];
        if i > 0 {
            deps.push(compress_id(i - 1));
        }
        fixture_task(PAIRS + i, compress_id(i), 1, 300, deps)
    };
    // Software-pipelined emission: produce_0 runs alone, then produce_{i+1}
    // overlaps compress_i, and compress_{PAIRS-1} drains alone.
    e.solo(0, &produce(0));
    for i in 0..PAIRS - 1 {
        e.pair(&produce(i + 1), &compress(i));
    }
    e.solo(1, &compress(PAIRS - 1));
    e.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_match_their_synthesis_recipes() {
        // Escape hatch for intentional recipe changes: regenerate the
        // checked-in files, then re-run without the variable.
        if std::env::var_os("TASKPOINT_REGEN_FIXTURES").is_some() {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
            std::fs::write(dir.join("dag-mini.tptrace"), synthesize(ExternalWorkload::DagMini))
                .unwrap();
            let bin = IngestedTrace::parse_text(&synthesize(ExternalWorkload::PipelineMini))
                .unwrap()
                .to_binary();
            std::fs::write(dir.join("pipeline-mini.tptraceb"), bin).unwrap();
        }
        // Text fixture: byte-identical to the recipe output.
        let text = synthesize(ExternalWorkload::DagMini);
        assert_eq!(
            ExternalWorkload::DagMini.fixture_bytes(),
            text.as_bytes(),
            "dag-mini.tptrace drifted from its recipe (regenerate with `trace-convert synth`)"
        );
        // Binary fixture: byte-identical to the canonical binary encoding
        // of the recipe output.
        let bin = IngestedTrace::parse_text(&synthesize(ExternalWorkload::PipelineMini))
            .unwrap()
            .to_binary();
        assert_eq!(
            ExternalWorkload::PipelineMini.fixture_bytes(),
            &bin[..],
            "pipeline-mini.tptraceb drifted from its recipe"
        );
    }

    #[test]
    fn info_matches_the_parsed_fixtures() {
        for w in ExternalWorkload::ALL {
            let trace = w.ingest();
            let info = w.info();
            assert_eq!(trace.num_types(), info.task_types, "{}", w.name());
            assert_eq!(trace.num_tasks(), info.task_instances, "{}", w.name());
            assert_eq!(trace.threads(), 2, "{}", w.name());
            assert_eq!(ExternalWorkload::by_name(w.name()), Some(w));
        }
    }

    #[test]
    fn generated_programs_mirror_the_traces() {
        for w in ExternalWorkload::ALL {
            let trace = w.ingest();
            let p = w.generate();
            assert_eq!(p.name(), w.name());
            assert_eq!(p.num_types(), trace.num_types());
            assert_eq!(p.num_instances(), trace.num_tasks());
            assert_eq!(p.total_instructions(), trace.total_instructions());
            assert!(p.graph().edge_count() > 0, "{}: recorded deps became edges", w.name());
        }
    }

    #[test]
    fn dag_mini_has_the_documented_dependence_shape() {
        let p = ExternalWorkload::DagMini.generate();
        use taskpoint_runtime::TaskInstanceId;
        // Stage 0 has no predecessors; later stages have 1-2.
        for i in 0..12 {
            assert!(p.graph().predecessors(TaskInstanceId(i)).is_empty());
        }
        for i in 12..48u32 {
            let preds = p.graph().predecessors(TaskInstanceId(i)).len();
            assert!((1..=2).contains(&preds), "task {i} has {preds} preds");
        }
    }
}
