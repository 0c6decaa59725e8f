//! External-trace ingestion — foreign `*.tptrace` event streams as
//! first-class simulator input.
//!
//! The pipeline this example walks end to end:
//!
//! 1. parse a checked-in `*.tptrace` fixture (Paraver/TaskSim-style event
//!    stream; format spec in `docs/TRACE_FORMATS.md`) into an
//!    [`IngestedTrace`], with strict validation;
//! 2. convert it into a task [`Program`] (types, instances, recorded
//!    dependences) plus a `RecordedTraces` bundle (the concrete per-task
//!    instruction streams);
//! 3. round-trip the bundle through the persistent container format;
//! 4. simulate it in full detail and TaskPoint-sampled, and show the
//!    sampled run replays the *same recorded instructions* (bit-identical
//!    reference across two runs, small sampling error against it).
//!
//! ```sh
//! cargo run --release --example ingest_trace
//! ```
//!
//! [`IngestedTrace`]: taskpoint_repro::trace::IngestedTrace
//! [`Program`]: taskpoint_repro::runtime::Program

use taskpoint_repro::runtime::program_from_ingested;
use taskpoint_repro::sim::{DetailedOnly, MachineConfig, RecordedTraces, Simulation};
use taskpoint_repro::taskpoint::{self, ExperimentOutcome, TaskPointConfig};
use taskpoint_repro::trace::{IngestError, IngestedTrace};
use taskpoint_repro::workloads::ExternalWorkload;

fn main() {
    // 1. Ingest the fixture (text encoding; the parser auto-detects).
    let workload = ExternalWorkload::DagMini;
    let trace = IngestedTrace::parse(workload.fixture_bytes()).expect("fixture is valid");
    println!(
        "ingested {}: {} types, {} tasks, {} threads, {} instructions",
        workload.name(),
        trace.num_types(),
        trace.num_tasks(),
        trace.threads(),
        trace.total_instructions()
    );

    // Malformed input is a typed error, never a panic.
    let err = IngestedTrace::parse_text("%tptrace 1\nB:0:0:99\n").unwrap_err();
    assert!(matches!(err, IngestError::UnknownTaskType { type_id: 99, .. }));
    println!("malformed input example: {err}");

    // 2. Convert: program + recorded-stream bundle, mutually consistent.
    let program = program_from_ingested(workload.name(), &trace);
    let bundle = RecordedTraces::from_ingested(&trace);
    bundle.verify_against(&program).expect("bundle matches the converted program");

    // 3. Persist and reload the bundle.
    let path = std::env::temp_dir().join("taskpoint_ingested.bundle");
    bundle.write_to(&path).expect("write bundle");
    let reloaded = RecordedTraces::read_from(&path).expect("read bundle");
    std::fs::remove_file(&path).ok();
    println!("bundle round-tripped through {} ({} tasks)", path.display(), reloaded.len());

    // 4. Simulate: detailed reference and sampled run, both replaying the
    // recorded streams.
    let machine = MachineConfig::low_power();
    let sim = || {
        Simulation::builder(&program, machine.clone())
            .workers(2)
            .traces(Box::new(reloaded.clone()))
            .build()
    };
    let reference = sim().run(&mut DetailedOnly);
    let again = sim().run(&mut DetailedOnly);
    assert_eq!(reference.total_cycles, again.total_cycles, "replay is deterministic");
    let sampled = taskpoint::run(sim(), TaskPointConfig::lazy()).result;
    let outcome = ExperimentOutcome::compare(&sampled, &reference);
    println!(
        "reference {} cycles | sampled {} cycles ({} detailed / {} fast) | error {:.2}%",
        reference.total_cycles,
        sampled.total_cycles,
        sampled.detailed_tasks,
        sampled.fast_tasks,
        outcome.error_percent
    );
    assert_eq!(reference.detailed_instructions, trace.total_instructions());
}
