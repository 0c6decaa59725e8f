//! Mergeable log₂-bucketed histograms for distribution metrics.
//!
//! Scalar counters answer "how much in total"; the cycle-accounting layer
//! also needs "how is it distributed" — task latencies, ready-queue
//! depths, memory latencies. [`Histogram`] is the accumulator for those:
//! a fixed array of power-of-two buckets plus count/sum/min/max, updated
//! with plain adds (no allocation after construction) and mergeable
//! across partial streams exactly like
//! [`StreamingMoments`](https://docs.rs) merges moments — merging shards
//! yields the same histogram as accumulating the whole stream, which is
//! what keeps the telemetry determinism contract intact at any worker
//! count.
//!
//! Bucket `0` holds the value `0`; bucket `b ≥ 1` holds values in
//! `[2^(b-1), 2^b - 1]`. With `u64` samples that is 65 buckets total —
//! small enough to live inline in per-resource structs on the hot path.

/// Number of buckets: one for zero plus one per binary magnitude.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A mergeable log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// The bucket index a value falls into: `0` for the value zero,
    /// `floor(log2(v)) + 1` otherwise, so bucket `b ≥ 1` spans
    /// `[2^(b-1), 2^b - 1]`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive `(low, high)` value bounds of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
        if index == 0 {
            (0, 0)
        } else {
            let low = 1u64 << (index - 1);
            let high = if index == 64 { u64::MAX } else { (1u64 << index) - 1 };
            (low, high)
        }
    }

    /// Records one sample — a handful of integer operations, no
    /// allocation, suitable for always-on hot-path accounting.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merges another histogram into this one. Associative and
    /// commutative; merging partial streams equals accumulating the whole
    /// stream (pinned by `tests/histogram_properties.rs`).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of the samples; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= HISTOGRAM_BUCKETS`.
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Iterates the non-empty buckets as `(index, count)` in ascending
    /// index (= ascending value) order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().copied().enumerate().filter(|&(_, c)| c > 0)
    }

    /// The `n` most-populated buckets as `(index, count)`, ordered by
    /// descending count (ties broken by ascending index). Used by the
    /// textual timeline report.
    pub fn top_buckets(&self, n: usize) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self.nonzero_buckets().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// upper bound of the first bucket whose cumulative count reaches
    /// `q · count`, clamped to the observed maximum. `None` when empty.
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Some(Self::bucket_bounds(i).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Appends the canonical one-line text form of this histogram under
    /// the cell name `name[index]` (no trailing newline). The format is
    /// stable: count, sum, min, max, then the non-empty buckets as
    /// `bucket_index:count` pairs in ascending order.
    pub fn write_canonical(&self, name: &str, index: u32, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "hist {name}[{index}] count={} sum={}", self.count, self.sum);
        if self.count > 0 {
            let _ = write!(out, " min={} max={}", self.min, self.max);
        }
        out.push_str(" buckets=");
        let mut first = true;
        for (i, c) in self.nonzero_buckets() {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{i}:{c}");
            first = false;
        }
    }
}

/// One named histogram cell in a
/// [`TelemetryReport`](crate::TelemetryReport) — the distribution analog
/// of [`Counter`](crate::Counter), layered the same way by `(name,
/// index)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramCell {
    /// Quantity name, dotted by subsystem (`task.latency`,
    /// `sched.ready_depth`, `mem.access_latency`).
    pub name: String,
    /// Layer index (core group, level; 0 for scalars).
    pub index: u32,
    /// The accumulated distribution.
    pub histogram: Histogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_shifted() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(2), (2, 3));
        assert_eq!(Histogram::bucket_bounds(64).1, u64::MAX);
        for i in 1..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            if i > 1 {
                assert_eq!(lo, Histogram::bucket_bounds(i - 1).1 + 1);
            }
        }
    }

    #[test]
    fn record_tracks_summary_stats() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        for v in [5, 0, 17, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 27);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(17));
        assert!((h.mean() - 6.75).abs() < 1e-12);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(3), 2, "two fives in [4,7]");
        assert_eq!(h.bucket_count(5), 1, "17 in [16,31]");
    }

    #[test]
    fn merge_equals_whole_stream() {
        let data: Vec<u64> = (0..200).map(|i| i * i % 977).collect();
        let mut whole = Histogram::new();
        for &v in &data {
            whole.record(v);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for &v in &data[..71] {
            left.record(v);
        }
        for &v in &data[71..] {
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(42);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.approx_quantile(0.0), Some(1));
        // The true p50 is 50; its bucket [32,63] upper bound is 63.
        assert_eq!(h.approx_quantile(0.5), Some(63));
        assert_eq!(h.approx_quantile(1.0), Some(100), "clamped to the observed max");
        assert_eq!(Histogram::new().approx_quantile(0.5), None);
    }

    #[test]
    fn top_buckets_order_by_count() {
        let mut h = Histogram::new();
        for _ in 0..5 {
            h.record(10); // bucket 4
        }
        for _ in 0..3 {
            h.record(100); // bucket 7
        }
        h.record(1000); // bucket 10
        assert_eq!(h.top_buckets(2), vec![(4, 5), (7, 3)]);
        assert_eq!(h.top_buckets(10).len(), 3);
    }

    #[test]
    fn canonical_text_lists_nonzero_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(6);
        h.record(6);
        let mut out = String::new();
        h.write_canonical("task.latency", 2, &mut out);
        assert_eq!(out, "hist task.latency[2] count=3 sum=12 min=0 max=6 buckets=0:1,3:2");
        let mut empty = String::new();
        Histogram::new().write_canonical("x", 0, &mut empty);
        assert_eq!(empty, "hist x[0] count=0 sum=0 buckets=");
    }
}
