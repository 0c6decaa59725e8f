//! Allocation discipline of program generation.
//!
//! `ProgramBuilder::add_task` is allocation-free in the steady state: the
//! dependence graph is two flat CSR arrays filled from one reused scratch
//! buffer, region states live in one slot vector, and a task instance owns
//! no heap data of its own. What remains are the amortised growth of those
//! few vectors and the per-program tables, so generating the four programs
//! of the benchmark's `sampled` workload at full scale (62,932 instances)
//! stays far below one allocation per instance.
//!
//! The same programs pin their memory: a 56-byte instance, 4-byte
//! dependence edges and an instance table sized once from the generator's
//! known count. The bytes the four programs hold stay under a bound, and
//! the live bytes never peak far above that final figure while they are
//! generated, so no table is built by growth copies.
//!
//! A counting global allocator sums `alloc` and `realloc` calls and tracks
//! live and peak live bytes. The file deliberately holds a single
//! `#[test]`: integration tests in one binary run concurrently in one
//! process, and any other test would race the counters measured here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // A moving realloc holds both blocks for a moment: count the
            // new one before releasing the old.
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fewer than a quarter of an allocation per instance. Per-task vectors
/// (two adjacency lists and an annotation list per instance) made about
/// 192,000 for these programs.
const MAX_ALLOCATIONS: u64 = 15_000;

/// The bytes the four programs hold, measured at 5,297,468, plus 2%
/// margin.
const MAX_PROGRAM_BYTES: u64 = 5_400_000;

/// Peak live bytes during generation over the bytes the programs keep,
/// measured at 1.02 (1.06 in a debug build). A table built by doubling
/// holds 1.5x its final size at its last growth step.
const MAX_PEAK_RATIO: f64 = 1.15;

#[test]
fn generating_the_sampled_programs_stays_under_the_allocation_bound() {
    let scale = ScaleConfig::new();
    let benches = [Benchmark::Cholesky, Benchmark::Vecop, Benchmark::Freqmine, Benchmark::Nbody];
    let mut programs = Vec::with_capacity(benches.len());
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live_before, Ordering::Relaxed);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for bench in benches {
        programs.push(bench.generate(&scale));
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let held = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - live_before;
    let instances: usize = programs.iter().map(|p| p.num_instances()).sum();
    assert_eq!(instances, 62_932);
    assert!(
        allocations < MAX_ALLOCATIONS,
        "{allocations} allocations for {instances} instances (bound {MAX_ALLOCATIONS})"
    );
    assert!(held < MAX_PROGRAM_BYTES, "programs hold {held} bytes (bound {MAX_PROGRAM_BYTES})");
    assert!(
        peak as f64 <= MAX_PEAK_RATIO * held as f64,
        "generation peaked at {peak} live bytes for {held} held (bound {MAX_PEAK_RATIO}x)"
    );
}
