//! Trace providers: where the engine gets a task's instruction stream.
//!
//! The original TaskSim is trace-driven — every task instance's dynamic
//! instruction stream is read from a recorded application trace. This
//! module is the seam that makes the engine agnostic to where streams come
//! from: a [`TraceProvider`] turns a task instance into a boxed
//! [`TraceSource`], and the engine consumes whatever comes back in
//! [`InstBlock`](taskpoint_trace::InstBlock) batches.
//!
//! Two providers ship:
//!
//! * [`ProceduralTraces`](struct@ProceduralTraces) (the default) —
//!   regenerates each stream from the instance's [`TraceSpec`], the
//!   repository's stand-in for trace files, drawing each task type's kind
//!   sequence once per run;
//! * [`RecordedTraces`] — replays pre-recorded streams in the
//!   [`taskpoint_trace::encode`] binary format, falling back to
//!   the procedural generator for tasks without a recording. This is how
//!   real recorded traces enter the simulator; see
//!   `examples/recorded_trace.rs` for the full record → persist → replay
//!   round trip.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use bytes::Bytes;
use taskpoint_runtime::{Program, TaskInstanceId};
use taskpoint_trace::encode::DecodeError;
use taskpoint_trace::{encode, KindColumns, RecordedTrace, TraceSource, TraceSpec};

/// Hands the engine a [`TraceSource`] for each task instance it simulates
/// in detail.
pub trait TraceProvider {
    /// A fresh source positioned at the start of `task`'s stream. `spec`
    /// is the instance's procedural descriptor (the fallback generator).
    fn source(&self, task: TaskInstanceId, spec: &TraceSpec) -> Box<dyn TraceSource>;
}

/// The default provider: every stream is regenerated procedurally from the
/// instance's [`TraceSpec`].
///
/// The provider owns the run's [`KindColumns`]: the instances of a task
/// type execute the same kind sequence, so it is drawn once per provider
/// and every detailed instance copies its kinds from it. Install a fresh
/// provider per simulation — the [`ProceduralTraces`](const@ProceduralTraces)
/// constant is one — so the columns live and die with the run. Its memory
/// grows with the number of distinct `(code_seed, mix)` pairs run in
/// detail (see [`KindColumns`]).
#[derive(Debug, Default)]
pub struct ProceduralTraces {
    columns: KindColumns,
}

/// A fresh [`ProceduralTraces`](struct@ProceduralTraces) with no columns
/// drawn yet. It shares the type's name, so `Box::new(ProceduralTraces)`
/// installs a new provider, and with it a new column map, on every use.
#[allow(non_upper_case_globals, clippy::declare_interior_mutable_const)]
pub const ProceduralTraces: ProceduralTraces = ProceduralTraces { columns: KindColumns::new() };

impl TraceProvider for ProceduralTraces {
    fn source(&self, _task: TaskInstanceId, spec: &TraceSpec) -> Box<dyn TraceSource> {
        Box::new(self.columns.source(spec))
    }
}

/// A recording does not fit the program it is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMismatch {
    /// A recorded stream's instruction count differs from the spec's.
    CountMismatch {
        /// The offending task instance.
        task: TaskInstanceId,
        /// Instructions in the recording.
        recorded: u64,
        /// Instructions the program's spec declares.
        expected: u64,
    },
    /// The bundle holds a task id the program does not have.
    UnknownTask {
        /// The unknown task id, as the bundle keys it (it may not fit a
        /// [`TaskInstanceId`]).
        task: u64,
        /// Number of instances the program declares.
        instances: u64,
    },
}

impl std::fmt::Display for TraceMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceMismatch::CountMismatch { task, recorded, expected } => write!(
                f,
                "recorded trace for {task} has {recorded} instructions, program declares {expected}"
            ),
            TraceMismatch::UnknownTask { task, instances } => {
                write!(f, "recorded trace for t{task}, but the program has only {instances} tasks")
            }
        }
    }
}

impl std::error::Error for TraceMismatch {}

const BUNDLE_MAGIC: &[u8; 8] = b"TPTRACE1";

/// A bundle of pre-recorded per-task instruction streams.
///
/// Streams are stored in the [`encode`] record format, validated on
/// insertion, and keyed by task-instance id. Tasks without a recording
/// fall back to the procedural generator, so partial recordings (e.g. only
/// the hot task type) work. The bundle persists to a simple
/// length-prefixed container ([`RecordedTraces::write_to`]).
#[derive(Debug, Clone, Default)]
pub struct RecordedTraces {
    /// Validated recordings, keyed by task id (ordered, so the on-disk
    /// layout is deterministic). Validation happens once here — handing a
    /// source to the engine is a clone, not a re-scan.
    per_task: BTreeMap<u64, RecordedTrace>,
}

impl RecordedTraces {
    /// An empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records every instance of `program` by materializing its procedural
    /// stream into the binary format — the repository's stand-in for
    /// tracing a native execution.
    pub fn record_program(program: &Program) -> Self {
        let mut bundle = Self::new();
        for id in program.ids() {
            let bytes = encode::encode(program.spec(id).iter());
            let trace = RecordedTrace::new(bytes).expect("encode emits valid records");
            bundle.per_task.insert(u64::from(id.0), trace);
        }
        bundle
    }

    /// Packages an externally ingested trace's per-task instruction
    /// streams as a bundle, keyed by the trace's dense task indices — the
    /// same ids `taskpoint_runtime::program_from_ingested` assigns (they
    /// are generated together), so the pair drives the engine
    /// directly. The streams' `Arc` storage is shared, not copied.
    pub fn from_ingested(trace: &taskpoint_trace::IngestedTrace) -> Self {
        let mut bundle = Self::new();
        for task in trace.tasks() {
            let recorded = RecordedTrace::from_arc(std::sync::Arc::clone(&task.bytes))
                .expect("ingestion validated every record");
            bundle.per_task.insert(task.index, recorded);
        }
        bundle
    }

    /// Adds (or replaces) the recording for one task.
    ///
    /// # Errors
    ///
    /// Rejects byte streams that are not valid [`encode`] records.
    pub fn insert(&mut self, task: TaskInstanceId, bytes: Bytes) -> Result<(), DecodeError> {
        self.per_task.insert(u64::from(task.0), RecordedTrace::new(bytes)?);
        Ok(())
    }

    /// The recording for one task, if present.
    pub fn get(&self, task: TaskInstanceId) -> Option<&RecordedTrace> {
        self.per_task.get(&u64::from(task.0))
    }

    /// Number of recorded tasks.
    pub fn len(&self) -> usize {
        self.per_task.len()
    }

    /// Whether the bundle holds no recordings.
    pub fn is_empty(&self) -> bool {
        self.per_task.is_empty()
    }

    /// Total encoded payload size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.per_task.values().map(|t| t.bytes().len() as u64).sum()
    }

    /// Checks that every recording belongs to a task of `program` and that
    /// its instruction count matches the task's spec — the invariant
    /// fast-forwarding (`C_i = I_i / IPC_T`) relies on.
    ///
    /// # Errors
    ///
    /// Returns the first mismatching task.
    pub fn verify_against(&self, program: &Program) -> Result<(), TraceMismatch> {
        let instances = program.num_instances() as u64;
        for (&id, trace) in &self.per_task {
            let task = match u32::try_from(id) {
                Ok(task) if id < instances => TaskInstanceId(task),
                _ => return Err(TraceMismatch::UnknownTask { task: id, instances }),
            };
            let recorded = trace.instructions();
            let expected = program.instance(task).instructions();
            if recorded != expected {
                return Err(TraceMismatch::CountMismatch { task, recorded, expected });
            }
        }
        Ok(())
    }

    /// Writes the bundle to a length-prefixed container file.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(BUNDLE_MAGIC)?;
        f.write_all(&(self.per_task.len() as u64).to_le_bytes())?;
        for (&task, trace) in &self.per_task {
            f.write_all(&task.to_le_bytes())?;
            f.write_all(&(trace.bytes().len() as u64).to_le_bytes())?;
            f.write_all(trace.bytes())?;
        }
        f.flush()
    }

    /// Reads a bundle written by [`RecordedTraces::write_to`], re-validating
    /// every stream.
    ///
    /// # Errors
    ///
    /// I/O errors pass through; framing or record corruption — including
    /// length fields pointing past the end of the file and task ids of
    /// 2^32 or more — surfaces as [`io::ErrorKind::InvalidData`] (nothing
    /// is allocated from an unvalidated length).
    pub fn read_from(path: &Path) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let data = std::fs::read(path)?;
        let mut rest = data
            .strip_prefix(BUNDLE_MAGIC)
            .ok_or_else(|| bad("not a taskpoint trace bundle (bad magic)".to_string()))?;
        let read_u64 = |rest: &mut &[u8]| -> io::Result<u64> {
            let (word, tail) = rest
                .split_first_chunk::<8>()
                .ok_or_else(|| bad("truncated trace bundle".to_string()))?;
            *rest = tail;
            Ok(u64::from_le_bytes(*word))
        };
        let count = read_u64(&mut rest)?;
        let mut bundle = Self::new();
        for _ in 0..count {
            let task = read_u64(&mut rest)?;
            let len = read_u64(&mut rest)?;
            // Validate the length against the bytes actually present
            // before slicing; a corrupt length must not abort or OOM.
            if len > rest.len() as u64 {
                return Err(bad(format!(
                    "task {task}: payload length {len} exceeds remaining file size {}",
                    rest.len()
                )));
            }
            let id = u32::try_from(task)
                .map_err(|_| bad(format!("task {task}: id does not fit in 32 bits")))?;
            let (payload, tail) = rest.split_at(len as usize);
            rest = tail;
            bundle
                .insert(TaskInstanceId(id), Bytes::from(payload.to_vec()))
                .map_err(|e| bad(format!("task {task}: {e}")))?;
        }
        if !rest.is_empty() {
            return Err(bad(format!("{} trailing bytes after the last record", rest.len())));
        }
        Ok(bundle)
    }
}

impl TraceProvider for RecordedTraces {
    fn source(&self, task: TaskInstanceId, spec: &TraceSpec) -> Box<dyn TraceSource> {
        match self.get(task) {
            // Validated once at insert/load; handing out a source is a
            // clone of the pre-validated trace, not a re-scan.
            Some(trace) => Box::new(trace.clone()),
            None => Box::new(spec.source()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint_trace::{InstBlock, InstKind, Instruction};

    fn tiny_program(n: u64) -> Program {
        let mut b = Program::builder("rec");
        let ty = b.add_type("work");
        for i in 0..n {
            b.add_task(ty, TraceSpec::synthetic(i, 200), &[]);
        }
        b.build()
    }

    /// Drains a boxed source into a vector.
    fn drain(mut source: Box<dyn TraceSource>) -> Vec<Instruction> {
        let mut block = InstBlock::new();
        let mut out = Vec::new();
        while source.fill(&mut block) > 0 {
            out.extend(block.iter());
        }
        out
    }

    #[test]
    fn recorded_program_replays_identically_to_procedural() {
        let p = tiny_program(4);
        let recorded = RecordedTraces::record_program(&p);
        assert_eq!(recorded.len(), 4);
        recorded.verify_against(&p).unwrap();
        let procedural = ProceduralTraces;
        for id in p.ids() {
            let spec = p.spec(id);
            let from_recording = drain(recorded.source(id, &spec));
            let from_spec = drain(procedural.source(id, &spec));
            assert_eq!(from_recording, from_spec, "task {id}");
        }
        // All four instances share one type's code: one column served them.
        assert_eq!(procedural.columns.len(), 1);
    }

    #[test]
    fn missing_tasks_fall_back_to_procedural() {
        let p = tiny_program(2);
        let bundle = RecordedTraces::new();
        assert!(bundle.is_empty());
        let id = TaskInstanceId(1);
        let got = drain(bundle.source(id, &p.spec(id)));
        assert_eq!(got.len() as u64, p.instance(id).instructions());
    }

    #[test]
    fn insert_validates_records() {
        let mut bundle = RecordedTraces::new();
        let err = bundle.insert(TaskInstanceId(0), Bytes::from(vec![0xFF]));
        assert_eq!(err, Err(DecodeError::BadKind(0xFF)));
        let ok = encode::encode([Instruction::compute(InstKind::IntAlu)]);
        bundle.insert(TaskInstanceId(0), ok).unwrap();
        assert_eq!(bundle.len(), 1);
        assert_eq!(bundle.total_bytes(), 1);
        assert!(bundle.get(TaskInstanceId(0)).is_some());
    }

    #[test]
    fn verify_detects_instruction_count_mismatch() {
        let p = tiny_program(1);
        let mut bundle = RecordedTraces::new();
        bundle
            .insert(TaskInstanceId(0), encode::encode([Instruction::compute(InstKind::IntAlu)]))
            .unwrap();
        let err = bundle.verify_against(&p).unwrap_err();
        assert_eq!(
            err,
            TraceMismatch::CountMismatch { task: TaskInstanceId(0), recorded: 1, expected: 200 }
        );
        assert!(err.to_string().contains("200"));
    }

    #[test]
    fn verify_detects_unknown_tasks_without_panicking() {
        let p = tiny_program(2);
        let bundle = RecordedTraces::record_program(&tiny_program(4));
        bundle.verify_against(&tiny_program(4)).unwrap();
        let err = bundle.verify_against(&p).unwrap_err();
        assert_eq!(err, TraceMismatch::UnknownTask { task: 2, instances: 2 });
        assert!(err.to_string().contains("t2, but the program has only 2 tasks"), "{err}");
    }

    #[test]
    fn verify_reports_an_id_beyond_32_bits_as_unknown() {
        // Only a corrupt source could key a recording this way: loading and
        // `insert` both reject such ids. Id 2^32 must not wrap to task 0.
        let p = tiny_program(1);
        let trace = RecordedTraces::record_program(&p).per_task[&0].clone();
        let bundle = RecordedTraces { per_task: BTreeMap::from([(1 << 32, trace)]) };
        let err = bundle.verify_against(&p).unwrap_err();
        assert_eq!(err, TraceMismatch::UnknownTask { task: 1 << 32, instances: 1 });
    }

    #[test]
    fn ingested_bundle_pairs_with_the_ingested_program() {
        use taskpoint_runtime::program_from_ingested;
        use taskpoint_trace::IngestedTrace;
        let text = "\
%tptrace 1
T:0:alpha
B:0:5:0
I:0:int_alu
M:0:load:4000:8
E:0:5
B:0:6:0:5
I:0:fp_alu
E:0:6
";
        let trace = IngestedTrace::parse_text(text).unwrap();
        let program = program_from_ingested("ext", &trace);
        let bundle = RecordedTraces::from_ingested(&trace);
        assert_eq!(bundle.len(), 2);
        // Dense ids line up, so the bundle verifies against the program.
        bundle.verify_against(&program).unwrap();
        // The replayed stream is the recorded one, not the fallback spec.
        let got = drain(bundle.source(TaskInstanceId(0), &program.spec(TaskInstanceId(0))));
        assert_eq!(
            got,
            vec![
                Instruction::compute(InstKind::IntAlu),
                Instruction::memory(InstKind::Load, 0x4000, 8)
            ]
        );
    }

    #[test]
    fn bundle_file_round_trips() {
        let p = tiny_program(3);
        let bundle = RecordedTraces::record_program(&p);
        let path = std::env::temp_dir().join("taskpoint_test_bundle.tptrace");
        bundle.write_to(&path).unwrap();
        let back = RecordedTraces::read_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), bundle.len());
        assert_eq!(back.total_bytes(), bundle.total_bytes());
        for id in p.ids() {
            assert_eq!(
                back.get(id).map(|t| t.bytes().to_vec()),
                bundle.get(id).map(|t| t.bytes().to_vec())
            );
        }
    }

    #[test]
    fn oversized_length_field_is_invalid_data_not_an_abort() {
        // magic + count=1 + task=0 + a length far beyond the file size.
        let mut data = Vec::new();
        data.extend_from_slice(b"TPTRACE1");
        data.extend_from_slice(&1u64.to_le_bytes());
        data.extend_from_slice(&0u64.to_le_bytes());
        data.extend_from_slice(&u64::MAX.to_le_bytes());
        let path = std::env::temp_dir().join("taskpoint_test_oversized_bundle.tptrace");
        std::fs::write(&path, &data).unwrap();
        let err = RecordedTraces::read_from(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds remaining"));
    }

    #[test]
    fn task_id_beyond_32_bits_is_invalid_data_not_truncated() {
        // A well-formed record for task 2^32, which would wrap to task 0.
        let payload = encode::encode([Instruction::compute(InstKind::IntAlu)]);
        let mut data = Vec::new();
        data.extend_from_slice(b"TPTRACE1");
        data.extend_from_slice(&1u64.to_le_bytes());
        data.extend_from_slice(&(1u64 << 32).to_le_bytes());
        data.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        data.extend_from_slice(payload.as_ref());
        let path = std::env::temp_dir().join("taskpoint_test_wide_id_bundle.tptrace");
        std::fs::write(&path, &data).unwrap();
        let err = RecordedTraces::read_from(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("task 4294967296"), "{err}");
    }

    #[test]
    fn corrupt_bundle_file_is_invalid_data() {
        let path = std::env::temp_dir().join("taskpoint_test_bad_bundle.tptrace");
        std::fs::write(&path, b"not a bundle").unwrap();
        let err = RecordedTraces::read_from(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
