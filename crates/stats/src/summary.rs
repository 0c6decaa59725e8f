//! Streaming univariate summaries (Welford's online algorithm).

/// A streaming summary of a sequence of `f64` samples.
///
/// Uses Welford's online algorithm, so it is numerically stable and does not
/// store samples. Collecting an iterator of `f64` yields a `Summary`:
///
/// ```
/// use taskpoint_stats::Summary;
///
/// let s: Summary = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 }
    }

    /// Adds one sample.
    ///
    /// Non-finite samples are ignored (they would poison every derived
    /// statistic); callers that care can check [`Summary::count`].
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
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
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) samples added.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples. Zero when empty.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean. Zero when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance. Zero for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample (unbiased) variance. Zero for fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std dev / mean); zero if the mean is zero.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Smallest sample, or `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// True if no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_neutral() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn mean_and_variance_match_reference() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 4.0);
        assert_eq!(s.std_dev(), 2.0);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_track_extremes() {
        let s: Summary = [3.0, -1.0, 10.0, 2.5].into_iter().collect();
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut s = Summary::new();
        s.add(1.0);
        s.add(f64::NAN);
        s.add(f64::INFINITY);
        s.add(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 5.0 + 10.0).collect();
        let whole: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..400].iter().copied().collect();
        let right: Summary = data[400..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn cv_of_constant_sequence_is_zero() {
        let s: Summary = std::iter::repeat_n(4.2, 10).collect();
        assert!(s.cv().abs() < 1e-12);
    }

    #[test]
    fn extend_appends_samples() {
        let mut s: Summary = [1.0].into_iter().collect();
        s.extend([2.0, 3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
    }
}
