//! Quick end-to-end probe: one benchmark, both policies, plus the
//! detailed-mode instructions/sec throughput of the reference run.
//! Used during development to sanity-check accuracy, speedup and host
//! simulation speed, and to script `BENCH_*.json` performance records.
//!
//! ```text
//! probe [BENCH] [WORKERS] [--runs N] [--json FILE] [--id NAME] [--note TEXT] [--quick]
//! ```
//!
//! Throughput is measured over `--runs` (default 3) *fresh* reference
//! simulations — never a cached timing — and reported as min/median/max,
//! because single-run wall-clock on a shared host scatters by tens of
//! percent. `--json` writes the whole probe as a canonical JSON document
//! shaped like the committed `BENCH_*.json` records.
//!
//! ## `--json` schema (version 2)
//!
//! Top-level keys, all present unless noted: `schema_version` (2), `id`,
//! `date` (UTC civil date), `change` (only with `--note`), `method`,
//! `bench`, `workers`, `detail_threads` (always 1), `scale`, `scale_seed`,
//! `probe_detailed_throughput_minstr_per_sec` (`{runs, min, median,
//! max}`, aggregates omitted when no run produced detailed
//! instructions), and `sampled` (`{lazy, periodic}`, each
//! `{error_percent, speedup, detail_percent, resamples}`). The schema is
//! **closed**: `regress` (and this probe's own read-back check below)
//! reject any key outside this set, so hand edits that typo a key fail
//! loudly instead of silently dropping a measurement. See
//! `taskpoint_bench::regress` for the legacy BENCH_0006–0008 shapes.

use taskpoint::TaskPointConfig;
use taskpoint_bench::{Harness, RunScale};
use taskpoint_campaign::json::{Object, Value};
use taskpoint_workloads::Benchmark;
use tasksim::{DetailedOnly, MachineConfig, Simulation};

struct ProbeArgs {
    bench: Benchmark,
    workers: u32,
    runs: usize,
    json: Option<String>,
    id: String,
    note: String,
}

fn parse_args() -> ProbeArgs {
    let mut parsed = ProbeArgs {
        bench: Benchmark::Cholesky,
        workers: 8,
        runs: 3,
        json: None,
        id: "BENCH_PROBE".to_string(),
        note: String::new(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = 0;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(v) => v.clone(),
            None => {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            }
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {} // consumed by RunScale::from_env_and_args
            "--runs" => {
                let v = value(&args, &mut i, "--runs");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => parsed.runs = n,
                    _ => {
                        eprintln!("error: --runs needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => parsed.json = Some(value(&args, &mut i, "--json")),
            "--id" => parsed.id = value(&args, &mut i, "--id"),
            "--note" => parsed.note = value(&args, &mut i, "--note"),
            other if !other.starts_with("--") => {
                match positional {
                    0 => match Benchmark::by_name(other) {
                        Some(b) => parsed.bench = b,
                        None => {
                            eprintln!("error: unknown benchmark {other:?}");
                            std::process::exit(2);
                        }
                    },
                    1 => match other.parse::<u32>() {
                        Ok(w) if w > 0 => parsed.workers = w,
                        _ => {
                            eprintln!("error: WORKERS needs a positive integer, got {other:?}");
                            std::process::exit(2);
                        }
                    },
                    _ => {
                        eprintln!("error: unexpected argument {other:?}");
                        std::process::exit(2);
                    }
                }
                positional += 1;
            }
            other => {
                eprintln!("error: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    parsed
}

/// `(min, median, max)` of a non-empty throughput sample.
fn spread(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    (sorted[0], median, sorted[sorted.len() - 1])
}

/// Civil date (UTC) from a Unix timestamp, for the BENCH record header.
/// Days-to-civil conversion per Howard Hinnant's algorithm.
fn utc_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn main() {
    let args = parse_args();
    let ProbeArgs { bench, workers, runs, .. } = args;
    let scale = RunScale::from_env_or_exit();
    let h = Harness::new(scale.scale_config());
    let machine = MachineConfig::high_performance();
    let t0 = std::time::Instant::now();
    let program = h.program(bench);

    // Fresh, uncached reference runs: the first doubles as the displayed
    // reference; the batch feeds the throughput spread.
    let mut throughputs_minstr: Vec<f64> = Vec::with_capacity(runs);
    let mut reference = None;
    for _ in 0..runs {
        let result = Simulation::builder(&program, machine.clone())
            .workers(workers)
            .build()
            .run(&mut DetailedOnly);
        if let Some(ips) = result.detailed_instr_per_sec() {
            throughputs_minstr.push(ips / 1e6);
        }
        reference.get_or_insert(result);
    }
    let reference = reference.expect("at least one reference run");
    println!(
        "{bench} @{workers}t reference: {} cycles, {:.2}s wall, {} tasks, {:.1}M instr",
        reference.total_cycles,
        reference.wall_seconds,
        reference.detailed_tasks,
        reference.total_instructions() as f64 / 1e6
    );
    if throughputs_minstr.is_empty() {
        println!("  detailed-mode throughput: n/a");
    } else {
        let (min, median, max) = spread(&throughputs_minstr);
        println!(
            "  detailed-mode throughput: min {min:.2} / median {median:.2} / max {max:.2} \
             Minstr/s over {} runs",
            throughputs_minstr.len()
        );
    }

    let mut policy_cells = Vec::new();
    for (name, cfg) in
        [("lazy", TaskPointConfig::lazy()), ("periodic", TaskPointConfig::periodic())]
    {
        let cell = h.cell(bench, &machine, workers, cfg);
        println!(
            "  {name:<9} err {:6.2}%  speedup {:8.1}x  detail {:5.2}%  resamples {}{}",
            cell.outcome.error_percent,
            cell.outcome.speedup,
            100.0 * cell.outcome.detail_fraction,
            cell.metrics.resamples,
            if cell.cached { "  (cached)" } else { "" }
        );
        println!(
            "            causes: policy {} newtype {} conc {} empty {}",
            cell.metrics.resamples_policy,
            cell.metrics.resamples_new_type,
            cell.metrics.resamples_concurrency,
            cell.metrics.resamples_empty
        );
        policy_cells.push((name, cell));
    }
    println!("total probe time {:.1}s", t0.elapsed().as_secs_f64());

    if let Some(path) = &args.json {
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut doc = Object::new();
        doc.set("schema_version", Value::Num(2.0));
        doc.set("id", Value::Str(args.id.clone()));
        doc.set("date", Value::Str(utc_date(unix)));
        if !args.note.is_empty() {
            doc.set("change", Value::Str(args.note.clone()));
        }
        doc.set(
            "method",
            Value::Str(format!(
                "TASKPOINT_SCALE={} cargo run --release -p taskpoint-bench --bin probe -- \
                 {bench} {workers} --runs {runs} (high-performance machine, fresh reference \
                 simulations; cached cells never feed the throughput spread)",
                scale.name()
            )),
        );
        doc.set("bench", Value::Str(bench.name().to_string()));
        doc.set("workers", Value::Num(f64::from(workers)));
        // Detailed execution is sequential; the closed schema keeps the key.
        doc.set("detail_threads", Value::Num(1.0));
        doc.set("scale", Value::Str(scale.name().to_string()));
        doc.set("scale_seed", Value::Num(h.scale().seed as f64));
        let mut tp = Object::new();
        tp.set(
            "runs",
            Value::Arr(
                throughputs_minstr
                    .iter()
                    .map(|m| Value::Num((m * 100.0).round() / 100.0))
                    .collect(),
            ),
        );
        if !throughputs_minstr.is_empty() {
            let (min, median, max) = spread(&throughputs_minstr);
            tp.set("min", Value::Num((min * 100.0).round() / 100.0));
            tp.set("median", Value::Num((median * 100.0).round() / 100.0));
            tp.set("max", Value::Num((max * 100.0).round() / 100.0));
        }
        doc.set("probe_detailed_throughput_minstr_per_sec", Value::Obj(tp));
        let mut sampled = Object::new();
        for (name, cell) in &policy_cells {
            let mut c = Object::new();
            c.set("error_percent", Value::Num((cell.outcome.error_percent * 1e4).round() / 1e4));
            c.set("speedup", Value::Num((cell.outcome.speedup * 10.0).round() / 10.0));
            c.set("detail_percent", Value::Num((cell.outcome.detail_fraction * 1e4).round() / 1e2));
            c.set("resamples", Value::Num(cell.metrics.resamples as f64));
            sampled.set(name, Value::Obj(c));
        }
        doc.set("sampled", Value::Obj(sampled));
        let text = format!("{}\n", Value::Obj(doc).to_json());
        // Read-back validation: the record must parse under the strict
        // (closed-schema) regress parser before it is worth committing.
        if let Err(e) = taskpoint_bench::regress::parse_record(&text) {
            eprintln!("error: probe produced an invalid schema-v2 record: {e}");
            std::process::exit(1);
        }
        match std::fs::write(path, text) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
