//! End-to-end tests of the external-trace ingestion frontend: fixture
//! golden checksums, text/binary round trips, replay identity through the
//! `RecordedTraces` bundle, typed errors for every malformed-input
//! fixture, campaign integration (content-addressed cache hits), and
//! mutation proptests (arbitrary corruption of valid fixture lines must
//! yield `IngestError`s, never panics).

use std::sync::Arc;

use proptest::prelude::*;
use taskpoint_repro::campaign::{Campaign, Executor, ResultStore, Sweep};
use taskpoint_repro::runtime::{program_from_ingested, TaskInstanceId};
use taskpoint_repro::sim::{RecordedTraces, TraceProvider};
use taskpoint_repro::trace::{IngestedTrace, InstBlock, Instruction, RecordedTrace, TraceSource};
use taskpoint_repro::workloads::{ExternalWorkload, ScaleConfig};

/// FNV-1a/64 over a byte stream — the golden-checksum hash.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checksum of an ingested trace: every task's dense index, dep list and
/// encoded stream bytes, in order.
fn trace_checksum(trace: &IngestedTrace) -> u64 {
    let mut bytes = Vec::new();
    for task in trace.tasks() {
        bytes.extend_from_slice(&task.index.to_le_bytes());
        bytes.extend_from_slice(&task.type_index.to_le_bytes());
        for &d in &task.deps {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        bytes.extend_from_slice(&task.bytes);
    }
    fnv(bytes)
}

fn drain(mut source: Box<dyn TraceSource>) -> Vec<Instruction> {
    let mut block = InstBlock::new();
    let mut out = Vec::new();
    while source.fill(&mut block) > 0 {
        out.extend(block.iter());
    }
    out
}

#[test]
fn fixture_golden_checksums() {
    // Pins the exact ingested content of both checked-in fixtures (stream
    // bytes, dense remapping and dependence lists). If a recipe, the
    // parser or a fixture changes, this fails before anything subtler can.
    let dag = ExternalWorkload::DagMini.ingest();
    let pipe = ExternalWorkload::PipelineMini.ingest();
    assert_eq!(trace_checksum(&dag), 0xca17_0960_04cd_b2be, "dag-mini content drifted");
    assert_eq!(trace_checksum(&pipe), 0x8ed7_fbff_ad51_55a1, "pipeline-mini content drifted");
    assert_eq!(dag.total_instructions(), 14_017);
    assert_eq!(pipe.total_instructions(), 12_694);
}

#[test]
fn ingested_bundle_replays_bit_identically_to_direct_replay() {
    // text -> ingest -> bundle -> engine-facing source must equal a
    // RecordedTrace built directly over the task's bytes, and equal the
    // decoded event stream.
    for workload in ExternalWorkload::ALL {
        let trace = workload.ingest();
        let program = program_from_ingested(workload.name(), &trace);
        let bundle = RecordedTraces::from_ingested(&trace);
        bundle.verify_against(&program).unwrap();
        for task in trace.tasks() {
            let id = TaskInstanceId(u32::try_from(task.index).unwrap());
            let via_bundle = drain(bundle.source(id, &program.spec(id)));
            let direct = RecordedTrace::from_arc(Arc::clone(&task.bytes)).unwrap();
            let via_direct = drain(Box::new(direct));
            assert_eq!(via_bundle, via_direct, "{}: task {}", workload.name(), task.index);
            assert_eq!(via_bundle, trace.instructions_of(task.index as usize));
            assert_eq!(via_bundle.len() as u64, task.instructions);
        }
    }
}

#[test]
fn encodings_round_trip_between_text_and_binary() {
    for workload in ExternalWorkload::ALL {
        let trace = workload.ingest();
        let via_text = IngestedTrace::parse_text(&trace.to_text()).unwrap();
        assert_eq!(via_text, trace, "{}: text round trip", workload.name());
        let via_binary = IngestedTrace::parse_binary(&trace.to_binary()).unwrap();
        assert_eq!(via_binary, trace, "{}: binary round trip", workload.name());
    }
}

#[test]
fn bundle_file_round_trips_for_ingested_traces() {
    let trace = ExternalWorkload::DagMini.ingest();
    let bundle = RecordedTraces::from_ingested(&trace);
    let path = std::env::temp_dir().join("taskpoint_ingest_rt.bundle");
    bundle.write_to(&path).unwrap();
    let back = RecordedTraces::read_from(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back.len(), bundle.len());
    assert_eq!(back.total_bytes(), bundle.total_bytes());
    for task in trace.tasks() {
        let id = TaskInstanceId(u32::try_from(task.index).unwrap());
        assert_eq!(back.get(id).unwrap().bytes(), bundle.get(id).unwrap().bytes());
    }
}

#[test]
fn every_malformed_fixture_yields_a_typed_error() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/malformed");
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        let data = std::fs::read(&path).unwrap();
        // `parse` must return a typed IngestError — reaching this assert at
        // all proves no panic; the message must be non-empty and positioned.
        let err =
            IngestedTrace::parse(&data).expect_err(&format!("{} must be rejected", path.display()));
        assert!(!err.to_string().is_empty(), "{}", path.display());
        checked += 1;
    }
    assert!(checked >= 15, "malformed corpus shrank to {checked} files");
}

#[test]
fn ingested_campaign_cells_hit_the_content_addressed_cache() {
    // First run computes all 6 cells (2 workloads x reference/lazy/
    // periodic); an identical second campaign over the same store
    // must be a pure cache hit with byte-identical canonical JSONL —
    // the acceptance criterion of the ingestion frontend.
    let store_dir =
        std::env::temp_dir().join(format!("taskpoint_ingest_campaign_{}", std::process::id()));
    let specs = Sweep::Ingested.specs(ScaleConfig::quick());
    assert_eq!(specs.len(), 6);
    let first = Campaign::new(ResultStore::at(store_dir.clone()), Executor::new(2));
    let report1 = first.run(&specs);
    assert_eq!(report1.computed, 6);
    assert_eq!(report1.cached, 0);
    let second = Campaign::new(ResultStore::at(store_dir.clone()), Executor::new(1));
    let report2 = second.run(&specs);
    std::fs::remove_dir_all(&store_dir).ok();
    assert_eq!(report2.computed, 0, "second run must be served from the store");
    assert_eq!(report2.cached, 6);
    assert_eq!(report1.jsonl(), report2.jsonl(), "canonical records are bit-identical");
    // Sampled cells really compared against the recorded reference.
    for outcome in &report1.outcomes {
        if outcome.record.kind == "sampled" {
            let m = outcome.record.metrics.as_eval().unwrap();
            assert!(m.error_percent.is_finite());
            assert!(m.reference_cycles > 0);
        }
    }
}

/// One deterministic mutation of the fixture text, selected by `choice`.
fn mutate_text(text: &str, choice: u8, line_idx: usize, byte: u8, pos: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let idx = line_idx % lines.len();
    match choice % 5 {
        // Replace one byte of one line.
        0 => {
            let mut line = lines[idx].to_string().into_bytes();
            if line.is_empty() {
                line.push(byte);
            } else {
                let p = pos % line.len();
                line[p] = byte;
            }
            let line = String::from_utf8_lossy(&line).into_owned();
            let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
            out[idx] = line;
            out.join("\n") + "\n"
        }
        // Delete one line.
        1 => {
            let mut out: Vec<&str> = lines.clone();
            out.remove(idx);
            out.join("\n") + "\n"
        }
        // Duplicate one line.
        2 => {
            let mut out: Vec<&str> = lines.clone();
            out.insert(idx, lines[idx]);
            out.join("\n") + "\n"
        }
        // Truncate the file at one line.
        3 => lines[..idx].join("\n") + "\n",
        // Insert a garbage line.
        _ => {
            let mut out: Vec<&str> = lines.clone();
            out.insert(idx, "Q:garbage:line");
            out.join("\n") + "\n"
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_text_mutations_never_panic(
        choice in 0u8..5,
        line_idx in any::<usize>(),
        byte in any::<u8>(),
        pos in any::<usize>(),
    ) {
        let text = String::from_utf8(ExternalWorkload::DagMini.fixture_bytes().to_vec()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let idx = line_idx % lines.len();
        let mutated = mutate_text(&text, choice, line_idx, byte, pos);
        // Reaching the match at all proves totality: any panic inside the
        // parser fails the test. Structural damage must surface as Err.
        let result = IngestedTrace::parse(mutated.as_bytes());
        let target = lines[idx];
        let deleted_structural = choice % 5 == 1
            && (target.starts_with("B:") || target.starts_with("E:") || target.starts_with('%'));
        let duplicated_structural = choice % 5 == 2
            && (target.starts_with("B:") || target.starts_with("E:"));
        let inserted_garbage = choice % 5 == 4;
        // (Truncation can land exactly on a task boundary and stay valid —
        // a shorter but well-formed trace — so it only gets the no-panic
        // and reparse guarantees below.)
        if deleted_structural || duplicated_structural || inserted_garbage {
            prop_assert!(result.is_err(), "mutation {choice} of line {idx} ({target:?}) must fail");
        }
        if let Ok(reparsed) = result {
            // A mutation that stays valid must still serialize/reparse.
            prop_assert_eq!(
                IngestedTrace::parse_text(&reparsed.to_text()).unwrap(),
                reparsed
            );
        }
    }

    #[test]
    fn arbitrary_binary_corruption_never_panics(
        pos in any::<usize>(),
        byte in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let mut data = ExternalWorkload::PipelineMini.fixture_bytes().to_vec();
        let p = pos % data.len();
        data[p] = byte;
        data.truncate(6 + cut % (data.len() - 6));
        // Must return Ok or a typed Err — never panic, never hang.
        let _ = IngestedTrace::parse(&data);
    }
}
