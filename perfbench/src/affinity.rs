//! Rotating the benchmark's thread over the CPUs it may use.
//!
//! Interference on a shared host can slow one vCPU for a whole run while
//! another stays calm: on a 2-vCPU host the same 8-second `sampled` run
//! pinned to each vCPU in turn once took 309 ms on one and 226 ms on the
//! other, and an unpinned thread stays where the guest scheduler put it.
//! Timed passes therefore rotate over the allowed CPUs, so each
//! simulation's fastest run can come from whichever CPU was calm.

use std::os::raw::{c_int, c_ulong};

const BITS: usize = c_ulong::BITS as usize;

/// Words of a CPU mask: room for 1024 CPUs, as glibc's `cpu_set_t`.
const MASK_WORDS: usize = 1024 / BITS;

type Mask = [c_ulong; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// The calling thread's CPU mask, or `None` when it cannot be read.
fn get() -> Option<Mask> {
    let mut mask: Mask = [0; MASK_WORDS];
    // SAFETY: `mask` is valid for writes of `size_of::<Mask>()` bytes, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Sets the calling thread's CPU mask. A refused mask leaves the thread
/// where it was: a pass still runs, on a CPU the scheduler chose.
fn set(mask: &Mask) {
    // SAFETY: `mask` is valid for reads of `size_of::<Mask>()` bytes, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
}

fn cpus_of(mask: &Mask) -> Vec<usize> {
    (0..MASK_WORDS * BITS).filter(|&c| mask[c / BITS] >> (c % BITS) & 1 == 1).collect()
}

/// The calling thread's CPU mask when created, restored on drop.
pub struct Rotation {
    original: Mask,
    cpus: Vec<usize>,
}

impl Rotation {
    /// A rotation over the CPUs the calling thread may run on, or `None`
    /// when they cannot be read.
    pub fn new() -> Option<Self> {
        let original = get()?;
        let cpus = cpus_of(&original);
        (!cpus.is_empty()).then_some(Self { original, cpus })
    }

    /// The CPUs the rotation runs over.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// Pins the calling thread to the `k`-th allowed CPU, cyclically.
    pub fn pin(&self, k: usize) {
        let cpu = self.cpus[k % self.cpus.len()];
        let mut mask: Mask = [0; MASK_WORDS];
        mask[cpu / BITS] = 1 << (cpu % BITS);
        set(&mask);
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        set(&self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_narrows_the_mask_and_drop_restores_it() {
        let r = Rotation::new().expect("a Linux thread can read its CPU mask");
        let all = r.cpus().to_vec();
        for (k, &cpu) in all.iter().enumerate() {
            r.pin(k);
            assert_eq!(cpus_of(&get().unwrap()), vec![cpu]);
        }
        drop(r);
        assert_eq!(cpus_of(&get().unwrap()), all);
    }
}
