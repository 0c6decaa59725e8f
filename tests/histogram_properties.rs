//! Property tests for the log₂-bucketed [`Histogram`] and its end-to-end
//! determinism contract.
//!
//! The algebraic properties (a deterministic-seed sweep standing in for
//! quickcheck, which the repo deliberately doesn't vendor):
//!
//! 1. **Merge is commutative and associative** — shard order can never
//!    change a merged distribution.
//! 2. **Merged == whole-stream** — recording a stream split across any
//!    number of shards and merging equals recording it whole (the
//!    Chan-style contract `StreamingMoments` follows for moments).
//! 3. **Bucket monotonicity** — bucket bounds partition `u64` in order,
//!    every value lands in exactly its bucket, and `approx_quantile` is
//!    monotone in `q`.
//! 4. **End-to-end byte identity** — `canonical_text()` (which includes
//!    every histogram line) is byte-identical across reruns at 1/2/4
//!    simulated workers *with the same worker count*.

use taskpoint_repro::sim::{DetailedOnly, MachineConfig, Simulation, Telemetry};
use taskpoint_repro::telemetry::Histogram;
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

/// Deterministic pseudo-random u64 stream (splitmix64).
fn stream(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        // Mix magnitudes: mostly small latencies, a heavy tail, some zeros.
        .map(|z| match z % 10 {
            0 => 0,
            1..=6 => z % 1000,
            7 | 8 => z % 1_000_000,
            _ => z,
        })
        .collect()
}

fn record_all(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn merge_is_commutative() {
    for seed in 0..8 {
        let a = record_all(&stream(seed, 500));
        let b = record_all(&stream(seed + 100, 333));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "seed {seed}: a∪b == b∪a");
    }
}

#[test]
fn merge_is_associative() {
    for seed in 0..8 {
        let a = record_all(&stream(seed, 100));
        let b = record_all(&stream(seed + 50, 200));
        let c = record_all(&stream(seed + 99, 300));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "seed {seed}: (a∪b)∪c == a∪(b∪c)");
    }
}

#[test]
fn merged_shards_equal_the_whole_stream() {
    for seed in 0..8 {
        let values = stream(seed, 1024);
        let whole = record_all(&values);
        for shards in [2usize, 3, 7, 16] {
            let mut merged = Histogram::new();
            for chunk in values.chunks(values.len().div_ceil(shards)) {
                merged.merge(&record_all(chunk));
            }
            assert_eq!(merged, whole, "seed {seed}, {shards} shards");
            // Identity element: merging an empty histogram changes nothing.
            merged.merge(&Histogram::new());
            assert_eq!(merged, whole, "seed {seed}: empty merge is identity");
        }
    }
}

#[test]
fn bucket_bounds_partition_u64_monotonically() {
    let mut prev_hi: Option<u64> = None;
    for index in 0..65 {
        let (lo, hi) = Histogram::bucket_bounds(index);
        assert!(lo <= hi, "bucket {index}: lo <= hi");
        match prev_hi {
            None => assert_eq!(lo, 0, "bucket 0 starts at 0"),
            Some(p) => assert_eq!(lo, p + 1, "bucket {index} starts after bucket {}", index - 1),
        }
        prev_hi = Some(hi);
        // Every representative value lands in its own bucket.
        for v in [lo, hi, lo + (hi - lo) / 2] {
            assert_eq!(Histogram::bucket_index(v), index, "value {v}");
        }
    }
    assert_eq!(prev_hi, Some(u64::MAX), "the buckets cover all of u64");
}

#[test]
fn approx_quantile_is_monotone_and_bounded() {
    for seed in 0..4 {
        let h = record_all(&stream(seed, 2000));
        let mut prev = 0;
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let v = h.approx_quantile(q).expect("non-empty histogram");
            assert!(v >= prev, "seed {seed}: quantile({q}) monotone");
            assert!(v <= h.max().unwrap(), "seed {seed}: quantile({q}) <= max");
            prev = v;
        }
        // The quantile never undershoots the true value's bucket: the
        // reported value is the bucket's upper bound (clamped to max).
        assert_eq!(h.approx_quantile(1.0), h.max());
    }
    assert_eq!(Histogram::new().approx_quantile(0.5), None);
}

fn reference_canonical(workers: u32) -> String {
    let program = Benchmark::Spmv.generate(&ScaleConfig::quick());
    let telemetry = Telemetry::recording();
    Simulation::builder(&program, MachineConfig::tiny_test())
        .workers(workers)
        .telemetry(telemetry.clone())
        .build()
        .run(&mut DetailedOnly);
    telemetry.take_report().expect("recording handle yields a report").canonical_text()
}

#[test]
fn canonical_text_is_byte_identical_across_worker_reruns() {
    for workers in [1u32, 2, 4] {
        let a = reference_canonical(workers);
        let b = reference_canonical(workers);
        assert_eq!(a, b, "{workers} workers: reruns byte-identical");
        assert!(a.contains("hist task.latency[0]"), "{workers} workers: task-latency histogram");
        assert!(a.contains("hist sched.ready_depth[0]"), "{workers} workers: depth histogram");
        assert!(
            a.contains("hist mem.access_latency[0]"),
            "{workers} workers: memory-latency histogram"
        );
    }
}
