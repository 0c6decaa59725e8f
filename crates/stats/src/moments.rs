//! Minimal streaming moments (Welford) for confidence-interval estimation.
//!
//! [`StreamingMoments`] is the accumulator the adaptive-accuracy subsystem
//! keeps per sampling cluster: count, mean and the centered second moment
//! `M2`, updated online in O(1) per sample and mergeable across partial
//! streams (Chan's parallel update). It deliberately carries *only* what a
//! confidence interval needs — unlike [`Summary`](crate::Summary) there is
//! no min/max/sum baggage, so a simulation tracking thousands of clusters
//! pays three `f64`s and a counter each.

/// Streaming count / mean / variance accumulator (Welford's algorithm).
///
/// ```
/// use taskpoint_stats::StreamingMoments;
///
/// let mut m = StreamingMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.add(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert_eq!(m.mean(), 5.0);
/// assert!((m.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl StreamingMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample. Non-finite samples are ignored (they would poison
    /// every derived statistic).
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    /// Merging partial streams yields the same moments as accumulating the
    /// whole stream (pinned by a workspace property test).
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }

    /// Number of (finite) samples accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean. Zero when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample (unbiased, `n-1` denominator) variance. Zero for fewer than
    /// two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            // Rounding can push m2 fractionally below zero on constant
            // streams; clamp so the square root below stays real.
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean (`s / sqrt(n)`), or `None` for fewer
    /// than two samples (the sample variance is undefined).
    pub fn std_error(&self) -> Option<f64> {
        if self.count < 2 {
            None
        } else {
            Some(self.sample_std_dev() / (self.count as f64).sqrt())
        }
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

impl FromIterator<f64> for StreamingMoments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut m = StreamingMoments::new();
        for x in iter {
            m.add(x);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_moments_are_neutral() {
        let m = StreamingMoments::new();
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.sample_variance(), 0.0);
        assert_eq!(m.std_error(), None);
    }

    #[test]
    fn matches_textbook_reference() {
        let m: StreamingMoments = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(m.mean(), 5.0);
        assert!((m.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        let se = m.std_error().unwrap();
        assert!((se - (32.0f64 / 7.0).sqrt() / 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_no_std_error() {
        let mut m = StreamingMoments::new();
        m.add(3.0);
        assert_eq!(m.count(), 1);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.std_error(), None);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut m = StreamingMoments::new();
        m.add(1.0);
        m.add(f64::NAN);
        m.add(f64::INFINITY);
        m.add(3.0);
        assert_eq!(m.count(), 2);
        assert_eq!(m.mean(), 2.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64 * 0.61).cos() * 3.0 + 7.0).collect();
        let whole: StreamingMoments = data.iter().copied().collect();
        let mut left: StreamingMoments = data[..123].iter().copied().collect();
        let right: StreamingMoments = data[123..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m: StreamingMoments = [1.0, 2.0].into_iter().collect();
        let before = m;
        m.merge(&StreamingMoments::new());
        assert_eq!(m, before);
        let mut e = StreamingMoments::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let m: StreamingMoments = std::iter::repeat_n(4.25, 1000).collect();
        assert_eq!(m.sample_variance(), 0.0);
        assert_eq!(m.std_error(), Some(0.0));
    }

    #[test]
    fn clear_resets() {
        let mut m: StreamingMoments = [1.0, 5.0].into_iter().collect();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m, StreamingMoments::new());
    }
}
