//! Per-task-type sample histories.
//!
//! TaskPoint keeps, for every task type, two FIFO vectors of the IPCs of
//! the most recently simulated task instances (paper §III-B):
//!
//! * the **history of valid samples** — instances simulated in detail
//!   *after* warmup, i.e. with warm micro-architectural state; this is the
//!   history fast-forwarding normally draws from, and it is discarded on
//!   every resampling;
//! * the **history of all samples** — every instance simulated in detail,
//!   warmed or not; the fallback for *rare task types* that never fill
//!   their valid history within a sampling interval.

use std::collections::VecDeque;

/// A bounded FIFO of per-instance IPC samples with O(1) mean maintenance.
#[derive(Debug, Clone)]
pub struct SampleHistory {
    samples: VecDeque<f64>,
    capacity: usize,
    sum: f64,
}

impl SampleHistory {
    /// Creates a history holding at most `capacity` samples (the paper's
    /// parameter `H`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        Self { samples: VecDeque::with_capacity(capacity), capacity, sum: 0.0 }
    }

    /// Adds a sample; the oldest sample is evicted once the history is at
    /// capacity. Non-finite or non-positive IPCs are ignored (a zero-length
    /// or zero-instruction task carries no timing information).
    pub fn push(&mut self, ipc: f64) {
        if !ipc.is_finite() || ipc <= 0.0 {
            return;
        }
        if self.samples.len() == self.capacity {
            if let Some(old) = self.samples.pop_front() {
                self.sum -= old;
            }
        }
        self.samples.push_back(ipc);
        self.sum += ipc;
    }

    /// Mean IPC over the stored samples, or `None` when empty.
    pub fn mean_ipc(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            // Recompute from scratch occasionally? The incremental sum is
            // exact enough here: histories hold <= tens of f64s.
            Some(self.sum / self.samples.len() as f64)
        }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// True when the history holds `capacity` samples — the "fully
    /// populated" condition of the sampling-to-fast transition.
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.capacity
    }

    /// Discards all samples (resampling clears valid histories).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sum = 0.0;
    }

    /// The capacity `H`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The per-type pair of histories.
#[derive(Debug, Clone)]
pub struct TypeHistories {
    /// Valid (warmed) samples; cleared on resampling.
    pub valid: SampleHistory,
    /// All detailed samples, regardless of warmth; never cleared.
    pub all: SampleHistory,
    /// Total instances of this type observed starting (any mode).
    pub seen: u64,
}

impl TypeHistories {
    /// Creates the pair with capacity `h` each.
    pub fn new(h: usize) -> Self {
        Self { valid: SampleHistory::new(h), all: SampleHistory::new(h), seen: 0 }
    }

    /// The IPC fast-forwarding should use (paper §III-B): the mean of the
    /// valid history, else the mean of the all-samples history, else `None`
    /// (which forces resampling).
    pub fn fast_forward_ipc(&self) -> Option<f64> {
        self.valid.mean_ipc().or_else(|| self.all.mean_ipc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_has_no_mean() {
        let h = SampleHistory::new(4);
        assert_eq!(h.mean_ipc(), None);
        assert!(h.is_empty());
        assert!(!h.is_full());
    }

    #[test]
    fn mean_of_stored_samples() {
        let mut h = SampleHistory::new(4);
        h.push(1.0);
        h.push(2.0);
        h.push(3.0);
        assert_eq!(h.mean_ipc(), Some(2.0));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut h = SampleHistory::new(3);
        for ipc in [1.0, 2.0, 3.0, 4.0] {
            h.push(ipc);
        }
        assert!(h.is_full());
        // 1.0 evicted: mean of (2,3,4).
        assert_eq!(h.mean_ipc(), Some(3.0));
    }

    #[test]
    fn invalid_samples_ignored() {
        let mut h = SampleHistory::new(2);
        h.push(f64::NAN);
        h.push(0.0);
        h.push(-1.0);
        h.push(f64::INFINITY);
        assert!(h.is_empty());
        h.push(2.0);
        assert_eq!(h.mean_ipc(), Some(2.0));
    }

    #[test]
    fn clear_empties_and_resets_sum() {
        let mut h = SampleHistory::new(2);
        h.push(5.0);
        h.clear();
        assert!(h.is_empty());
        h.push(1.0);
        assert_eq!(h.mean_ipc(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        SampleHistory::new(0);
    }

    #[test]
    fn fast_forward_prefers_valid_history() {
        let mut t = TypeHistories::new(2);
        assert_eq!(t.fast_forward_ipc(), None);
        t.all.push(1.0);
        assert_eq!(t.fast_forward_ipc(), Some(1.0), "falls back to all-history");
        t.valid.push(3.0);
        assert_eq!(t.fast_forward_ipc(), Some(3.0), "valid history wins");
    }

    #[test]
    fn long_streams_keep_exact_mean() {
        let mut h = SampleHistory::new(4);
        for i in 0..100_000 {
            h.push(1.0 + (i % 7) as f64);
        }
        // Last four: i = 99996..99999 -> (1 + i%7)
        let expect: f64 = (99_996..100_000).map(|i| 1.0 + (i % 7) as f64).sum::<f64>() / 4.0;
        assert!((h.mean_ipc().unwrap() - expect).abs() < 1e-9);
    }
}
