//! `trace-convert` — ingest, validate, convert and simulate external
//! `*.tptrace` traces.
//!
//! ```text
//! trace-convert inspect  TRACE                    # parse + validate + stats
//! trace-convert convert  TRACE --bundle OUT       # -> RecordedTraces bundle
//! trace-convert convert  TRACE --text OUT         # -> canonical text encoding
//! trace-convert convert  TRACE --binary OUT       # -> canonical binary encoding
//! trace-convert simulate TRACE [--workers N]      # reference + lazy sampled run
//! trace-convert timeline TRACE [--workers N] [--width N] [--out DIR]
//!                                            # simulate with telemetry; textual Gantt
//! trace-convert synth    NAME --out FILE    # regenerate a fixture recipe
//!                                             # (*.tptraceb extension -> binary)
//! ```
//!
//! `inspect`/`convert`/`simulate` auto-detect the text vs binary encoding.
//! Malformed input exits with status 1 and the typed
//! [`IngestError`](taskpoint_trace::IngestError) message; it never panics.
//! A bad command line, including a `--workers` count outside
//! `1..=`[`MAX_WORKERS`], prints the usage and exits with status 2.
//! The on-disk formats are specified byte-by-byte in
//! `docs/TRACE_FORMATS.md`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use taskpoint::{ExperimentOutcome, RunOutcome, TaskPointConfig, Telemetry};
use taskpoint_runtime::program_from_ingested;
use taskpoint_trace::IngestedTrace;
use taskpoint_workloads::external::{synthesize, ExternalWorkload};
use tasksim::{DetailedOnly, MachineConfig, RecordedTraces, Simulation, MAX_WORKERS};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         trace-convert inspect  TRACE\n  \
         trace-convert convert  TRACE [--bundle FILE] [--text FILE] [--binary FILE]\n  \
         trace-convert simulate TRACE [--workers N]\n  \
         trace-convert timeline TRACE [--workers N] [--width N] [--out DIR]\n  \
         trace-convert synth    NAME --out FILE\n\n\
         TRACE is a *.tptrace file in the text or binary encoding (auto-detected).\n\
         synth NAMEs: {}",
        ExternalWorkload::ALL.map(|w| w.name()).join(" ")
    );
    ExitCode::from(2)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn load(path: &Path) -> Result<IngestedTrace, String> {
    let data = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    IngestedTrace::parse(&data).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_stats(trace: &IngestedTrace) {
    println!(
        "trace: {} types, {} tasks, {} threads, {} instructions",
        trace.num_types(),
        trace.num_tasks(),
        trace.threads(),
        trace.total_instructions()
    );
    let tasks = trace.tasks_per_type();
    let instrs = trace.instructions_per_type();
    // Per-type instruction-count coefficient of variation: the dispersion
    // the adaptive policy reacts to. A high CoV predicts many detailed
    // samples (or `(type, size-class)` clustering paying off); CoV ~ 0
    // predicts convergence right at the minimum-sample floor.
    let mut size_summaries = vec![taskpoint_stats::Summary::new(); trace.num_types()];
    for task in trace.tasks() {
        size_summaries[task.type_index as usize].add(task.instructions as f64);
    }
    for (i, ty) in trace.types().iter().enumerate() {
        println!(
            "  type {:>3} {:<16} {:>5} tasks {:>9} instructions  instr-cov={:.3}  \
             rates: branch={} dep={}",
            ty.id,
            ty.name,
            tasks[i],
            instrs[i],
            size_summaries[i].cv(),
            ty.branch_mispredict_rate,
            ty.dependency_rate
        );
    }
    let deps: usize = trace.tasks().iter().map(|t| t.deps.len()).sum();
    let bytes: usize = trace.tasks().iter().map(|t| t.bytes.len()).sum();
    println!("  {deps} dependence edges, {bytes} bytes of encoded streams");
}

/// `(flag, value)` pairs as parsed from the command line.
type Flags = Vec<(String, String)>;

/// Parses `--flag VALUE` pairs from `rest`; returns (flags, positional).
fn parse_flags(rest: &[String], with_value: &[&str]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = &rest[i];
        if let Some(name) = a.strip_prefix("--") {
            if with_value.contains(&name) {
                i += 1;
                let value = rest.get(i).ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                flags.push((name.to_string(), String::new()));
            }
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    Ok((flags, positional))
}

/// The `--workers` value of `simulate` and `timeline` (default 2). Counts
/// outside `1..=MAX_WORKERS` are usage errors, rejected before the
/// simulator would panic on them.
fn parse_workers(flags: &[(String, String)]) -> Result<u32, String> {
    match flags.iter().find(|(f, _)| f == "workers") {
        None => Ok(2),
        Some((_, v)) => match v.parse::<u32>() {
            Ok(n) if (1..=MAX_WORKERS).contains(&n) => Ok(n),
            _ => Err(format!("--workers needs an integer in 1..={MAX_WORKERS}, got {v:?}")),
        },
    }
}

fn cmd_inspect(path: &Path) -> ExitCode {
    match load(path) {
        Ok(trace) => {
            print_stats(&trace);
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_convert(path: &Path, flags: &[(String, String)]) -> ExitCode {
    let trace = match load(path) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    print_stats(&trace);
    let program = program_from_ingested(
        path.file_stem().and_then(|s| s.to_str()).unwrap_or("ingested"),
        &trace,
    );
    let bundle = RecordedTraces::from_ingested(&trace);
    if let Err(e) = bundle.verify_against(&program) {
        return fail(format!("bundle does not match the converted program: {e}"));
    }
    let mut wrote = 0;
    for (flag, value) in flags {
        let out = PathBuf::from(value);
        let result = match flag.as_str() {
            "bundle" => bundle.write_to(&out).map_err(|e| e.to_string()),
            "text" => std::fs::write(&out, trace.to_text()).map_err(|e| e.to_string()),
            "binary" => std::fs::write(&out, trace.to_binary()).map_err(|e| e.to_string()),
            other => return fail(format!("unknown flag --{other}")),
        };
        match result {
            Ok(()) => {
                println!("wrote {} ({})", out.display(), flag);
                wrote += 1;
            }
            Err(e) => return fail(format!("cannot write {}: {e}", out.display())),
        }
    }
    if wrote == 0 {
        println!("validated (pass --bundle/--text/--binary to write outputs)");
    }
    ExitCode::SUCCESS
}

fn cmd_simulate(path: &Path, workers: u32) -> ExitCode {
    let trace = match load(path) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    print_stats(&trace);
    let program = program_from_ingested("ingested", &trace);
    let bundle = RecordedTraces::from_ingested(&trace);
    let machine = MachineConfig::low_power();
    let sim = |bundle: RecordedTraces| {
        Simulation::builder(&program, machine.clone()).workers(workers).traces(Box::new(bundle))
    };
    let reference = sim(bundle.clone()).build().run(&mut DetailedOnly);
    let RunOutcome { result: sampled, stats, .. } =
        taskpoint::run(sim(bundle).build(), TaskPointConfig::lazy(), None);
    let outcome = ExperimentOutcome::compare(&sampled, &reference);
    println!(
        "reference: {} cycles ({} detailed tasks)",
        reference.total_cycles, reference.detailed_tasks
    );
    println!(
        "sampled:   {} cycles ({} detailed / {} fast tasks, {} resamples)",
        sampled.total_cycles,
        sampled.detailed_tasks,
        sampled.fast_tasks,
        stats.resamples.len()
    );
    println!("error {:.2}%  detail fraction {:.3}", outcome.error_percent, outcome.detail_fraction);
    ExitCode::SUCCESS
}

/// Simulates the trace with a recording telemetry handle and renders the
/// resulting schedule as a textual Gantt chart. With `--out DIR` it also
/// exports the Chrome trace-event JSON and the `*.tptrace` timeline, and
/// proves the export round-trips by re-parsing it through the ingest path.
fn cmd_timeline(path: &Path, workers: u32, flags: &[(String, String)]) -> ExitCode {
    let trace = match load(path) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let parse_num = |name: &str, default: u32| -> Result<u32, ExitCode> {
        match flags.iter().find(|(f, _)| f == name) {
            None => Ok(default),
            Some((_, v)) => match v.parse::<u32>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(fail(format!("--{name} needs a positive integer, got {v:?}"))),
            },
        }
    };
    let width = match parse_num("width", 100) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let program = program_from_ingested("ingested", &trace);
    let bundle = RecordedTraces::from_ingested(&trace);
    let telemetry = Telemetry::recording();
    let sim = Simulation::builder(&program, MachineConfig::low_power())
        .workers(workers)
        .traces(Box::new(bundle))
        .telemetry(telemetry.clone())
        .build();
    let RunOutcome { result: sampled, stats, .. } =
        taskpoint::run(sim, TaskPointConfig::lazy(), None);
    let report = telemetry.take_report().expect("recording handle yields a report");
    print!("{}", report.render_gantt(width as usize));
    println!(
        "sampled: {} cycles ({} detailed / {} fast tasks, {} resamples)",
        sampled.total_cycles,
        sampled.detailed_tasks,
        sampled.fast_tasks,
        stats.resamples.len()
    );
    println!(
        "telemetry: {} events, {} counters, fnv64={:016x}",
        report.events.len(),
        report.counters.len(),
        report.fnv64()
    );
    for name in ["mem.dram_accesses", "mem.contended_accesses", "mem.queue_delay_cycles"] {
        println!("  counter {name}={}", report.counter_total(name));
    }
    // Stall breakdown: where every core tick of the run went, per core
    // group (the always-on cycle accounting of `SimResult`).
    for acct in &sampled.cycle_accounts {
        let total = acct.total();
        println!("stalls [{}] ({} cores, {} total ticks):", acct.name, acct.cores, total);
        for (name, ticks) in acct.categories() {
            if ticks == 0 {
                continue;
            }
            println!("  {name:<12} {ticks:>12}  {:5.1}%", 100.0 * ticks as f64 / total as f64);
        }
    }
    // Task-latency distribution: the busiest log2 buckets next to the
    // engine-computed percentiles.
    if let Some(hist) = report.histogram("task.latency", 0) {
        println!(
            "task latency: {} tasks, p50={} p99={} p999={} cycles (approx)",
            hist.count(),
            hist.approx_quantile(0.50).unwrap_or(0),
            hist.approx_quantile(0.99).unwrap_or(0),
            hist.approx_quantile(0.999).unwrap_or(0),
        );
        for (index, count) in hist.top_buckets(5) {
            let (lo, hi) = tasksim::telemetry::Histogram::bucket_bounds(index);
            println!("  [{lo:>8}, {hi:>8}] {count:>8} tasks");
        }
    }
    if let Some((_, out)) = flags.iter().find(|(f, _)| f == "out") {
        let dir = PathBuf::from(out);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return fail(format!("cannot create {}: {e}", dir.display()));
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("timeline");
        let chrome = dir.join(format!("{stem}.trace.json"));
        if let Err(e) = std::fs::write(&chrome, report.chrome_trace_json()) {
            return fail(format!("cannot write {}: {e}", chrome.display()));
        }
        println!("wrote {} (chrome trace)", chrome.display());
        let text = match report.tptrace_timeline() {
            Ok(t) => t,
            Err(e) => return fail(format!("cannot render timeline: {e}")),
        };
        let tpt = dir.join(format!("{stem}.timeline.tptrace"));
        if let Err(e) = std::fs::write(&tpt, &text) {
            return fail(format!("cannot write {}: {e}", tpt.display()));
        }
        // Round-trip guarantee: the exported timeline is itself a valid
        // ingest input describing exactly the tasks the schedule finished.
        match IngestedTrace::parse_text(&text) {
            Ok(reingested) => println!(
                "wrote {} (round-trips: {} tasks, {} threads)",
                tpt.display(),
                reingested.num_tasks(),
                reingested.threads()
            ),
            Err(e) => return fail(format!("exported timeline does not re-ingest: {e}")),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_synth(name: &str, flags: &[(String, String)]) -> ExitCode {
    let Some(workload) = ExternalWorkload::by_name(name) else {
        return fail(format!(
            "unknown fixture {name:?} (known: {})",
            ExternalWorkload::ALL.map(|w| w.name()).join(" ")
        ));
    };
    let Some((_, out)) = flags.iter().find(|(f, _)| f == "out") else {
        return fail("synth needs --out FILE");
    };
    let text = synthesize(workload);
    // The extension picks the encoding, matching the checked-in fixtures:
    // `.tptraceb` is binary, everything else text.
    let result = if out.ends_with(".tptraceb") {
        let trace = IngestedTrace::parse_text(&text).expect("recipes synthesize valid traces");
        std::fs::write(out, trace.to_binary())
    } else {
        std::fs::write(out, text)
    };
    match result {
        Ok(()) => {
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("cannot write {out}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { return usage() };
    let (flags, positional) =
        match parse_flags(&args[1..], &["bundle", "text", "binary", "workers", "width", "out"]) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
    let one_positional = |what: &str| -> Result<&String, ExitCode> {
        match positional.as_slice() {
            [p] => Ok(p),
            _ => {
                eprintln!("error: {command} needs exactly one {what}");
                Err(usage())
            }
        }
    };
    match command.as_str() {
        "inspect" => match one_positional("TRACE file") {
            Ok(p) => cmd_inspect(Path::new(p)),
            Err(code) => code,
        },
        "convert" => match one_positional("TRACE file") {
            Ok(p) => cmd_convert(Path::new(p), &flags),
            Err(code) => code,
        },
        "simulate" | "timeline" => {
            let path = match one_positional("TRACE file") {
                Ok(p) => Path::new(p),
                Err(code) => return code,
            };
            let workers = match parse_workers(&flags) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            if command == "simulate" {
                cmd_simulate(path, workers)
            } else {
                cmd_timeline(path, workers, &flags)
            }
        }
        "synth" => match one_positional("fixture NAME") {
            Ok(n) => cmd_synth(n, &flags),
            Err(code) => code,
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers_flag(value: &str) -> Flags {
        vec![("workers".to_string(), value.to_string())]
    }

    #[test]
    fn workers_default_to_two() {
        assert_eq!(parse_workers(&[]), Ok(2));
    }

    #[test]
    fn workers_accept_the_simulator_range() {
        assert_eq!(parse_workers(&workers_flag("1")), Ok(1));
        assert_eq!(parse_workers(&workers_flag(&MAX_WORKERS.to_string())), Ok(MAX_WORKERS));
    }

    #[test]
    fn workers_outside_the_range_are_rejected() {
        for bad in ["0", "65", "-1", "4294967296", "two", ""] {
            let err = parse_workers(&workers_flag(bad)).expect_err(bad);
            assert!(err.contains("1..=64"), "{bad}: {err}");
        }
    }
}
