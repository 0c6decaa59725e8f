//! Determinism and export guarantees of the telemetry subsystem.
//!
//! The contract under test, end to end through the real stack:
//!
//! 1. **Byte-identical streams** — two identical simulations produce
//!    byte-identical canonical telemetry (same FNV-1a checksum), at every
//!    worker count, because events are timestamped in simulated ticks and
//!    wall clock is confined to the profiling channel.
//! 2. **Observer effect: none** — a recording run returns the same
//!    `SimResult` as an unobserved run.
//! 3. **Exports are consumable** — the Chrome trace parses as JSON and the
//!    `*.tptrace` timeline re-ingests through the external-trace parser.
//! 4. **Fidelity events tell the truth** — an adaptive run emits exactly
//!    one convergence event per cluster the `AccuracyReport` says
//!    converged.

use taskpoint_repro::campaign::json::Value;
use taskpoint_repro::sim::{DetailedOnly, MachineConfig, SimResult, Simulation, Telemetry};
use taskpoint_repro::taskpoint::{self, RunOutcome, TaskPointConfig};
use taskpoint_repro::telemetry::{FidelityAction, SimEvent, TelemetryReport};
use taskpoint_repro::trace::IngestedTrace;
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

fn observed_reference(workers: u32) -> (SimResult, TelemetryReport) {
    let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
    let telemetry = Telemetry::recording();
    let result = Simulation::builder(&program, MachineConfig::tiny_test())
        .workers(workers)
        .telemetry(telemetry.clone())
        .build()
        .run(&mut DetailedOnly);
    (result, telemetry.take_report().expect("recording handle yields a report"))
}

#[test]
fn identical_runs_produce_byte_identical_telemetry_at_any_worker_count() {
    for workers in [1, 2, 4] {
        let (ra, a) = observed_reference(workers);
        let (rb, b) = observed_reference(workers);
        assert_eq!(ra.total_cycles, rb.total_cycles, "{workers}t: simulation determinism");
        assert_eq!(
            a.canonical_text(),
            b.canonical_text(),
            "{workers}t: canonical telemetry must be byte-identical"
        );
        assert_eq!(a.fnv64(), b.fnv64(), "{workers}t: checksum");
        assert!(!a.events.is_empty() && !a.counters.is_empty());
    }
}

#[test]
fn recording_does_not_change_the_simulation_result() {
    let program = Benchmark::Cholesky.generate(&ScaleConfig::quick());
    let machine = MachineConfig::low_power();
    let run = |telemetry: Telemetry| {
        let sim =
            Simulation::builder(&program, machine.clone()).workers(2).telemetry(telemetry).build();
        let RunOutcome { result, stats, .. } = taskpoint::run(sim, TaskPointConfig::lazy(), None);
        (result, stats)
    };
    let (plain, plain_stats) = run(Telemetry::disabled());
    let (observed, observed_stats) = run(Telemetry::recording());
    assert_eq!(plain.total_cycles, observed.total_cycles);
    assert_eq!(plain.detailed_tasks, observed.detailed_tasks);
    assert_eq!(plain.fast_tasks, observed.fast_tasks);
    assert_eq!(plain.detailed_instructions, observed.detailed_instructions);
    assert_eq!(plain.fast_instructions, observed.fast_instructions);
    assert_eq!(plain_stats.resamples.len(), observed_stats.resamples.len());
}

#[test]
fn chrome_trace_export_is_valid_json_with_expected_events() {
    let (_, report) = observed_reference(2);
    let text = report.chrome_trace_json();
    let Value::Obj(doc) = Value::parse(&text).expect("chrome trace parses as JSON") else {
        panic!("chrome trace is not a JSON object");
    };
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    let phase_count = |ph: &str| {
        events.iter().filter(|e| matches!(e, Value::Obj(o) if o.str("ph") == Some(ph))).count()
    };
    assert!(phase_count("X") > 0, "complete (task) events present");
    assert!(phase_count("C") > 0, "counter (queue depth) events present");
    assert!(phase_count("M") > 0, "process metadata present");
}

#[test]
fn tptrace_timeline_round_trips_through_the_ingest_parser() {
    let (result, report) = observed_reference(2);
    let text = report.tptrace_timeline().expect("reference run finishes tasks");
    let reingested = IngestedTrace::parse_text(&text).expect("timeline re-ingests");
    assert_eq!(
        reingested.num_tasks() as u64,
        result.detailed_tasks + result.fast_tasks,
        "one ingest task per finished instance"
    );
    assert_eq!(reingested.threads(), 2);
}

#[test]
fn gantt_renders_every_worker_row() {
    let (_, report) = observed_reference(4);
    let gantt = report.render_gantt(80);
    for worker in 0..4 {
        assert!(gantt.contains(&format!("w{worker}")), "row for worker {worker}:\n{gantt}");
    }
    assert!(gantt.contains("legend:"));
}

#[test]
fn adaptive_runs_emit_one_convergence_event_per_converged_cluster() {
    let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
    let telemetry = Telemetry::recording();
    let sim = Simulation::builder(&program, MachineConfig::tiny_test())
        .workers(2)
        .telemetry(telemetry.clone())
        .build();
    let accuracy = taskpoint::run(sim, TaskPointConfig::adaptive(0.1), None)
        .accuracy
        .expect("adaptive runs report accuracy");
    let report = telemetry.take_report().expect("recording handle yields a report");
    let count_action = |action: FidelityAction| {
        report
            .events
            .iter()
            .filter(|e| matches!(e, SimEvent::Fidelity { action: a, .. } if *a == action))
            .count()
    };
    let converged =
        count_action(FidelityAction::Converged) + count_action(FidelityAction::RareConverged);
    assert_eq!(
        converged,
        accuracy.converged_units(),
        "one convergence event per converged cluster"
    );
    assert_eq!(
        count_action(FidelityAction::ClusterOpened),
        accuracy.units(),
        "every cluster announces itself once"
    );
    assert!(count_action(FidelityAction::Sampled) >= accuracy.converged_units());
}

/// Golden checksums of the canonical telemetry stream, captured from the
/// engine before the worker-core refactor: a recording detailed reference
/// run and a recording adaptive run. Unlike the same-build comparison
/// above, these pin the stream across engine changes — one moved event,
/// counter or tick changes the checksum.
#[test]
fn telemetry_streams_match_goldens() {
    let (_, reference) = observed_reference(2);
    assert_eq!(reference.fnv64(), 0xf201_b45e_5fd1_be84, "reference run: telemetry stream drifted");
    let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
    let telemetry = Telemetry::recording();
    let sim = Simulation::builder(&program, MachineConfig::tiny_test())
        .workers(2)
        .telemetry(telemetry.clone())
        .build();
    taskpoint::run(sim, TaskPointConfig::adaptive(0.1), None);
    let adaptive = telemetry.take_report().expect("recording handle yields a report");
    assert_eq!(adaptive.fnv64(), 0x2e6c_16e6_d2ec_b249, "adaptive run: telemetry stream drifted");
}
