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
//! A counting global allocator sums `alloc` and `realloc` calls. The file
//! deliberately holds a single `#[test]`: integration tests in one binary
//! run concurrently in one process, and any other test would race the
//! counter deltas measured here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fewer than a quarter of an allocation per instance. Per-task vectors
/// (two adjacency lists and an annotation list per instance) made about
/// 192,000 for these programs.
const MAX_ALLOCATIONS: u64 = 15_000;

#[test]
fn generating_the_sampled_programs_stays_under_the_allocation_bound() {
    let scale = ScaleConfig::new();
    let mut instances = 0;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for bench in [Benchmark::Cholesky, Benchmark::Vecop, Benchmark::Freqmine, Benchmark::Nbody] {
        let program = bench.generate(&scale);
        instances += program.num_instances();
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(instances, 62_932);
    assert!(
        allocations < MAX_ALLOCATIONS,
        "{allocations} allocations for {instances} instances (bound {MAX_ALLOCATIONS})"
    );
}
