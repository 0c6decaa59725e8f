//! `campaign` — run, inspect and invalidate evaluation sweeps.
//!
//! ```text
//! campaign list
//! campaign run --sweep fig7 --quick --jobs 4
//! campaign status --sweep fig7 --quick
//! campaign invalidate --sweep fig7 --quick
//! campaign invalidate --all
//! ```
//!
//! `run` executes the sweep's cells on the deterministic work-stealing
//! executor, emits the canonical JSONL artefact (plus a `.timings.jsonl`
//! sidecar) under the store root, and reports how many cells were actually
//! simulated vs served from the content-addressed cache. A second
//! identical invocation completes with `computed=0`.

use std::path::PathBuf;

use taskpoint_campaign::{
    code_fingerprint, Campaign, Executor, ProgressSnapshot, ResultStore, RunScale, Sweep,
};

struct Args {
    command: String,
    sweeps: Vec<Sweep>,
    jobs: Option<usize>,
    store: Option<PathBuf>,
    out: Option<PathBuf>,
    cell: Option<String>,
    telemetry_dir: Option<PathBuf>,
    all: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         campaign list [--quick] [--store DIR]\n  \
         campaign run --sweep NAME [--sweep NAME ...] [--quick] [--jobs N] [--store DIR] [--out FILE] [--telemetry-dir DIR]\n  \
         campaign status [--sweep NAME] [--quick] [--store DIR]\n  \
         campaign invalidate (--all | --sweep NAME [--quick] | --cell HASH) [--store DIR]\n\n\
         sweeps: {}\n\
         scale:  --quick or TASKPOINT_SCALE=quick|full (default full)\n\
         jobs:   --jobs N or TASKPOINT_JOBS (default: host parallelism, max 8)\n\
         store:  --store DIR or TASKPOINT_CAMPAIGN_DIR (default results/campaign)\n\
         telemetry: --telemetry-dir DIR exports per-cell Chrome traces + tptrace timelines",
        Sweep::ALL.map(Sweep::name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let mut parsed = Args {
        command,
        sweeps: Vec::new(),
        jobs: None,
        store: None,
        out: None,
        cell: None,
        telemetry_dir: None,
        all: false,
    };
    let rest: Vec<String> = args.collect();
    let mut i = 0;
    let value = |rest: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        match rest.get(*i) {
            Some(v) => v.clone(),
            None => {
                eprintln!("error: {flag} needs a value");
                usage();
            }
        }
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--sweep" => {
                let name = value(&rest, &mut i, "--sweep");
                match Sweep::by_name(&name) {
                    Some(s) => parsed.sweeps.push(s),
                    None => {
                        eprintln!(
                            "error: unknown sweep {name:?} (known: {})",
                            Sweep::ALL.map(Sweep::name).join(" ")
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                let n = value(&rest, &mut i, "--jobs");
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => parsed.jobs = Some(n),
                    _ => {
                        eprintln!("error: --jobs needs a positive integer, got {n:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--store" => parsed.store = Some(PathBuf::from(value(&rest, &mut i, "--store"))),
            "--out" => parsed.out = Some(PathBuf::from(value(&rest, &mut i, "--out"))),
            "--cell" => parsed.cell = Some(value(&rest, &mut i, "--cell")),
            "--telemetry-dir" => {
                parsed.telemetry_dir = Some(PathBuf::from(value(&rest, &mut i, "--telemetry-dir")))
            }
            "--all" => parsed.all = true,
            "--quick" => {} // consumed by RunScale::from_env_and_args
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }
    parsed
}

fn open_store(args: &Args) -> ResultStore {
    match &args.store {
        Some(dir) => ResultStore::at(dir.clone()),
        None => ResultStore::open_default(),
    }
}

fn cmd_list(args: &Args, scale: RunScale) {
    let store = open_store(args);
    println!(
        "available sweeps (cell counts at {} scale; cached against {}):",
        scale.name(),
        store.root().map(|p| p.display().to_string()).unwrap_or_else(|| "(none)".into()),
    );
    let scale_config = scale.scale_config();
    for sweep in Sweep::ALL {
        let specs = sweep.specs(scale_config);
        let cached = specs.iter().filter(|s| store.contains(&s.hash_hex())).count();
        println!(
            "  {:<8} {:>4} cells  {:>4} cached  {}",
            sweep.name(),
            specs.len(),
            cached,
            sweep.description()
        );
    }
}

fn cmd_run(args: &Args, scale: RunScale) {
    if args.sweeps.is_empty() {
        eprintln!("error: run needs at least one --sweep NAME");
        usage();
    }
    if args.out.is_some() && args.sweeps.len() > 1 {
        eprintln!("error: --out only works with a single --sweep");
        std::process::exit(2);
    }
    let store = open_store(args);
    let executor = match args.jobs {
        Some(n) => Executor::new(n),
        None => Executor::from_env(),
    };
    let root = store.root().map(PathBuf::from).expect("CLI stores always have a root");
    println!(
        "campaign: scale={} jobs={} store={} fingerprint={}",
        scale.name(),
        executor.workers(),
        root.display(),
        code_fingerprint(),
    );
    let mut campaign = Campaign::new(store, executor);
    if let Some(dir) = &args.telemetry_dir {
        campaign = campaign.with_telemetry_dir(dir.clone());
    }
    let mut failures = 0;
    for &sweep in &args.sweeps {
        let specs = sweep.specs(scale.scale_config());
        let label = format!("{}.{}", sweep.name(), scale.name());
        let report = campaign.run_labeled(&label, &specs);
        let out = args
            .out
            .clone()
            .unwrap_or_else(|| root.join(format!("{}.{}.jsonl", sweep.name(), scale.name())));
        let emitted = match report.write_jsonl(&out) {
            Ok(()) => out.display().to_string(),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", out.display());
                failures += 1;
                "(failed)".to_string()
            }
        };
        let telemetry_note = campaign
            .telemetry_dir()
            .map(|d| format!(" telemetry={}", d.display()))
            .unwrap_or_default();
        println!(
            "sweep={} cells={} computed={} cached={} wall={:.1}s out={}{}",
            sweep.name(),
            report.outcomes.len(),
            report.computed,
            report.cached,
            report.wall_seconds,
            emitted,
            telemetry_note,
        );
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

fn cmd_status(args: &Args, scale: RunScale) {
    let store = open_store(args);
    println!(
        "store: root={} fingerprint={} cached_cells={}",
        store.root().map(|p| p.display().to_string()).unwrap_or_else(|| "(none)".into()),
        store.fingerprint(),
        store.len(),
    );
    if let Some(snap) = store.root().and_then(ProgressSnapshot::read) {
        let age = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs().saturating_sub(snap.updated_unix))
            .unwrap_or(0);
        let live = snap.in_flight > 0 || snap.computed + snap.cached < snap.total;
        let throughput = snap
            .rolling_minstr_per_sec
            .map(|m| format!(" rolling={m:.2} Minstr/s"))
            .unwrap_or_default();
        println!(
            "{} batch: label={} cells={} computed={} cached={} in_flight={}{} updated={age}s ago",
            if live { "running" } else { "last" },
            snap.label,
            snap.total,
            snap.computed,
            snap.cached,
            snap.in_flight,
            throughput,
        );
    }
    let stale: Vec<String> =
        store.fingerprints_present().into_iter().filter(|f| f != store.fingerprint()).collect();
    if !stale.is_empty() {
        println!(
            "stale fingerprints present (old code versions; `invalidate --all` clears): {}",
            stale.join(" ")
        );
    }
    let sweeps: Vec<Sweep> = if args.sweeps.is_empty() {
        Sweep::ALL.into_iter().filter(|s| *s != Sweep::All).collect()
    } else {
        args.sweeps.clone()
    };
    println!("per-sweep coverage at {} scale:", scale.name());
    for sweep in sweeps {
        let specs = sweep.specs(scale.scale_config());
        let cached = specs.iter().filter(|s| store.contains(&s.hash_hex())).count();
        println!(
            "  {:<8} {:>4}/{:<4} cached{}",
            sweep.name(),
            cached,
            specs.len(),
            if cached == specs.len() { "  (complete)" } else { "" }
        );
    }
}

fn cmd_invalidate(args: &Args, scale: RunScale) {
    let store = open_store(args);
    if args.all {
        let existed = store.invalidate_all();
        println!("invalidated: {}", if existed { "entire cache" } else { "nothing (no cache)" });
        return;
    }
    if let Some(cell) = &args.cell {
        let removed = store.invalidate_cell(cell);
        println!("invalidated cell {cell}: {}", if removed { "removed" } else { "not cached" });
        return;
    }
    if args.sweeps.is_empty() {
        eprintln!("error: invalidate needs --all, --cell HASH or --sweep NAME");
        usage();
    }
    for &sweep in &args.sweeps {
        let mut removed = 0;
        for spec in sweep.specs(scale.scale_config()) {
            if store.invalidate_cell(&spec.hash_hex()) {
                removed += 1;
            }
            // Sampled cells imply a reference unit; drop it too
            // so the sweep genuinely recomputes.
            if let Some(reference) = spec.reference_spec() {
                if store.invalidate_cell(&reference.hash_hex()) {
                    removed += 1;
                }
            }
        }
        println!("invalidated sweep={} removed={removed}", sweep.name());
    }
}

fn main() {
    let args = parse_args();
    let scale = RunScale::from_env_or_exit();
    match args.command.as_str() {
        "list" => cmd_list(&args, scale),
        "run" => cmd_run(&args, scale),
        "status" => cmd_status(&args, scale),
        "invalidate" => cmd_invalidate(&args, scale),
        _ => {
            eprintln!("error: unknown command {:?}", args.command);
            usage();
        }
    }
}
