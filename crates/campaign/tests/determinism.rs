//! The campaign determinism and resume guarantees, end to end:
//!
//! * the same sweep run with 1 and 8 executor workers emits byte-identical
//!   canonical JSONL;
//! * a second run over the same store completes entirely from cache (zero
//!   cells re-simulated) with, again, identical bytes;
//! * invalidating one cell recomputes exactly that cell;
//! * one cell of every record shape encodes to pinned golden bytes.

use std::path::PathBuf;

use taskpoint::TaskPointConfig;
use taskpoint_campaign::json::Value;
use taskpoint_campaign::{Campaign, CellKind, CellSpec, Executor, ResultStore, StoredCell};
use taskpoint_workloads::{Benchmark, ScaleConfig};
use tasksim::MachineConfig;

fn tmp_root(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but representative sweep: reference, sampled (both policies)
/// and variation cells over two kernels on the tiny test machine.
fn sweep() -> Vec<CellSpec> {
    let scale = ScaleConfig::quick();
    let machine = MachineConfig::tiny_test();
    let mut specs = Vec::new();
    for bench in [Benchmark::Spmv, Benchmark::Reduction] {
        specs.push(CellSpec::reference(bench, scale, machine.clone(), 2));
        specs.push(CellSpec::sampled(bench, scale, machine.clone(), 2, TaskPointConfig::lazy()));
        specs.push(CellSpec::sampled(
            bench,
            scale,
            machine.clone(),
            4,
            TaskPointConfig::periodic(),
        ));
        specs.push(CellSpec {
            bench,
            scale,
            machine: machine.clone(),
            workers: 4,
            kind: CellKind::Variation { noise_seed: Some(42) },
        });
    }
    specs
}

#[test]
fn one_and_eight_workers_emit_identical_jsonl() {
    let specs = sweep();
    let run = |name: &str, workers: usize| {
        let campaign = Campaign::new(ResultStore::at(tmp_root(name)), Executor::new(workers));
        let report = campaign.run(&specs);
        assert_eq!(report.computed, specs.len(), "{name}: fresh store computes everything");
        report.jsonl()
    };
    let sequential = run("det-w1", 1);
    let parallel = run("det-w8", 8);
    assert_eq!(sequential.as_bytes(), parallel.as_bytes(), "worker count changed the bytes");
    assert_eq!(sequential.lines().count(), specs.len());
    // And a third width, for good measure.
    let three = run("det-w3", 3);
    assert_eq!(sequential, three);
}

#[test]
fn second_run_completes_from_cache_with_identical_bytes() {
    let specs = sweep();
    let root = tmp_root("resume");

    let first = Campaign::new(ResultStore::at(root.clone()), Executor::new(4)).run(&specs);
    assert_eq!(first.computed, specs.len());
    assert_eq!(first.cached, 0);

    // A brand-new campaign (no in-memory state) over the same store.
    let second = Campaign::new(ResultStore::at(root.clone()), Executor::new(4)).run(&specs);
    assert_eq!(second.computed, 0, "second run must be pure cache");
    assert_eq!(second.cached, specs.len());
    assert_eq!(first.jsonl().as_bytes(), second.jsonl().as_bytes());
    for outcome in &second.outcomes {
        assert!(outcome.cached);
    }

    // Invalidate exactly one cell: the next run recomputes exactly it.
    let store = ResultStore::at(root);
    assert!(store.invalidate_cell(&specs[1].hash_hex()));
    let third = Campaign::new(store, Executor::new(4)).run(&specs);
    assert_eq!(third.computed, 1, "only the invalidated cell recomputes");
    assert_eq!(third.jsonl(), first.jsonl(), "recomputed cell reproduces its bytes");
}

#[test]
fn different_code_fingerprint_misses_the_cache() {
    let specs: Vec<CellSpec> = sweep().into_iter().take(2).collect();
    let root = tmp_root("fingerprint");
    let report = Campaign::new(ResultStore::at(root.clone()), Executor::new(2)).run(&specs);
    assert_eq!(report.computed, specs.len());
    // Same store root, simulated different code version.
    let stale = ResultStore::at(root).with_fingerprint("0123456789abcdef");
    for spec in &specs {
        assert!(!stale.contains(&spec.hash_hex()), "other fingerprint must not see entries");
    }
}

#[test]
fn interrupted_campaign_resumes_from_completed_cells() {
    // Simulate an interruption by running only a prefix of the sweep,
    // then the full sweep: the prefix cells must be served from cache.
    let specs = sweep();
    let root = tmp_root("interrupt");
    let prefix = &specs[..3];
    let partial = Campaign::new(ResultStore::at(root.clone()), Executor::new(2)).run(prefix);
    assert_eq!(partial.computed, 3);
    let full = Campaign::new(ResultStore::at(root), Executor::new(2)).run(&specs);
    assert_eq!(full.cached, 3, "completed prefix resumes from store");
    assert_eq!(full.computed, specs.len() - 3);
}

/// One cell of every record shape the campaign emits: homogeneous and
/// heterogeneous (`groups`) references, lazy, adaptive (`ci_*`) and
/// stratified (`strat_*`) sampled cells, a noisy variation cell and an
/// exploration cell.
fn every_record_shape() -> Vec<CellSpec> {
    let scale = ScaleConfig::quick();
    let tiny = MachineConfig::tiny_test();
    let bench = Benchmark::Spmv;
    vec![
        CellSpec::reference(bench, scale, tiny.clone(), 2),
        CellSpec::reference(Benchmark::Cholesky, scale, MachineConfig::big_little(2, 2), 4),
        CellSpec::sampled(bench, scale, tiny.clone(), 2, TaskPointConfig::lazy()),
        CellSpec::sampled(bench, scale, tiny.clone(), 2, TaskPointConfig::adaptive(0.1)),
        CellSpec::sampled(bench, scale, tiny.clone(), 2, TaskPointConfig::stratified(4, 64)),
        CellSpec {
            bench,
            scale,
            machine: tiny.clone(),
            workers: 2,
            kind: CellKind::Variation { noise_seed: Some(42) },
        },
        CellSpec::explore(bench, scale, tiny, 2, TaskPointConfig::lazy()),
    ]
}

/// The canonical line of the lazy sampled cell of [`every_record_shape`].
const LAZY_LINE: &str = r#"{"cell":"717340168b3309bbef642caebe011d6a","bench":"sparse-matrix-vector-multiplication","machine":"tiny-test","workers":2,"scale":{"instr_factor":0.05,"seed":2052886558},"kind":"sampled","metrics":{"error_percent":0.3415387475889657,"predicted_cycles":1111711,"reference_cycles":1107927,"detail_fraction":0.011325101039290872,"detailed_tasks":10,"fast_tasks":1014,"detailed_instructions":5467,"fast_instructions":477266,"resamples":0,"resamples_policy":0,"resamples_new_type":0,"resamples_concurrency":0,"resamples_empty":0,"lat_p50":1589,"lat_p99":6285.849999999999,"lat_p999":6410.7930000000015,"stall_rob_full":0,"stall_dep_wait":9210,"stall_l1_wait":0,"stall_l2_wait":0,"stall_dram_wait":7227,"stall_mshr_full":4614,"stall_contention":510,"stall_idle":46}}"#;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Pins the canonical JSONL of every record shape byte for byte, so a
/// change to how records are encoded cannot silently move a key, a number
/// format or a cell hash.
#[test]
fn golden_record_bytes_of_every_shape() {
    let specs = every_record_shape();
    let report = Campaign::new(ResultStore::disabled(), Executor::new(2)).run(&specs);
    let jsonl = report.jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), specs.len());
    assert_eq!(lines[2], LAZY_LINE, "lazy sampled line");
    assert_eq!(fnv1a(jsonl.as_bytes()), 0x8092_c41d_0683_cfb8, "checksum of\n{jsonl}");

    // The store entry nests the same canonical bytes.
    for outcome in &report.outcomes {
        let stored = StoredCell { record: outcome.record.clone(), timing: outcome.timing.clone() };
        let text = stored.to_json();
        let prefix =
            format!("{{\"record\":{},\"timing\":{{\"wall_seconds\":", outcome.record.to_json());
        assert!(text.starts_with(&prefix), "{text}");
    }

    // The timing sidecar keeps its keys in a fixed order per shape.
    let keys: Vec<String> = report
        .timings_jsonl()
        .lines()
        .map(|line| {
            let Value::Obj(o) = Value::parse(line).unwrap() else { panic!("{line}") };
            o.keys().collect::<Vec<_>>().join(",")
        })
        .collect();
    let (own, compared) = (
        "cell,cached,wall_seconds,setup_seconds,detailed_instr_per_sec",
        "cell,cached,wall_seconds,setup_seconds,reference_wall_seconds,speedup,\
         detailed_instr_per_sec",
    );
    assert_eq!(keys, [own, own, compared, compared, compared, own, own]);
}
