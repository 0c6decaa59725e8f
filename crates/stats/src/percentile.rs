//! Percentiles and boxplot statistics.
//!
//! The paper visualizes IPC variation with box plots whose solid box spans
//! the first to third quartile and whose whiskers span the 5th to the 95th
//! percentile (Fig. 1 / Fig. 5). [`BoxplotStats`] computes exactly those
//! five numbers plus outlier counts.

/// Computes the `p`-th percentile (0.0 ..= 100.0) of `samples` using linear
/// interpolation between closest ranks (the "linear" / type-7 method used by
/// NumPy's default `percentile`).
///
/// Returns `None` for an empty slice.
///
/// ```
/// use taskpoint_stats::percentile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 50.0), Some(2.5));
/// assert_eq!(percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(percentile(&xs, 100.0), Some(4.0));
/// ```
///
/// # Panics
///
/// Panics if `p` is not within `0.0..=100.0` or if any sample is NaN.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in percentile input"));
    Some(percentile_sorted(&sorted, p))
}

/// Like [`percentile`] but assumes `sorted` is already ascending.
///
/// This is the building block for computing several percentiles of the same
/// data without re-sorting.
///
/// # Panics
///
/// Panics if `p` is outside `0.0..=100.0` or `sorted` is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    percentile_sorted_by(sorted.len(), p, |i| sorted[i])
}

/// Like [`percentile_sorted`] over `n` ascending values read through
/// `value(rank)`, which is called only for the (at most two) ranks the
/// interpolation needs — so callers holding the data in another ascending
/// form (e.g. sorted integers) convert two values instead of all `n`.
///
/// # Panics
///
/// Panics if `p` is outside `0.0..=100.0` or `n == 0`.
pub fn percentile_sorted_by(n: usize, p: f64, value: impl Fn(usize) -> f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    assert!(n > 0, "percentile of no values");
    if n == 1 {
        return value(0);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        value(lo)
    } else {
        let frac = rank - lo as f64;
        value(lo) * (1.0 - frac) + value(hi) * frac
    }
}

/// The five-number boxplot summary used by the paper's variation figures,
/// with whiskers at the 5th/95th percentile and samples beyond the whiskers
/// counted as outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotStats {
    /// 5th percentile (lower whisker).
    pub p5: f64,
    /// First quartile (bottom of the box).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (top of the box).
    pub q3: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
    /// Smallest sample (most extreme low outlier, equals `p5` if none).
    pub min: f64,
    /// Largest sample (most extreme high outlier, equals `p95` if none).
    pub max: f64,
    /// Number of samples below the lower whisker.
    pub outliers_low: usize,
    /// Number of samples above the upper whisker.
    pub outliers_high: usize,
    /// Total number of samples.
    pub count: usize,
}

impl BoxplotStats {
    /// Computes boxplot statistics over `samples`. Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in boxplot input"));
        let p5 = percentile_sorted(&sorted, 5.0);
        let q1 = percentile_sorted(&sorted, 25.0);
        let median = percentile_sorted(&sorted, 50.0);
        let q3 = percentile_sorted(&sorted, 75.0);
        let p95 = percentile_sorted(&sorted, 95.0);
        let outliers_low = sorted.iter().take_while(|&&x| x < p5).count();
        let outliers_high = sorted.iter().rev().take_while(|&&x| x > p95).count();
        Some(Self {
            p5,
            q1,
            median,
            q3,
            p95,
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            outliers_low,
            outliers_high,
            count: sorted.len(),
        })
    }

    /// Half-width of the whisker span, i.e. `max(|p95|, |p5|)` of data that
    /// was normalized to zero. For percent-deviation data this is the
    /// "±x%" number the paper quotes ("performance variation lies within
    /// ±5%").
    pub fn whisker_halfwidth(&self) -> f64 {
        self.p95.abs().max(self.p5.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_of_singleton_is_that_value() {
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 100.0), Some(7.0));
    }

    #[test]
    fn median_interpolates_between_middle_elements() {
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.5));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn quartiles_of_uniform_ramp() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 25.0), Some(25.0));
        assert_eq!(percentile(&xs, 75.0), Some(75.0));
        assert_eq!(percentile(&xs, 95.0), Some(95.0));
    }

    #[test]
    fn boxplot_orders_its_fields() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let b = BoxplotStats::from_samples(&xs).unwrap();
        assert!(b.min <= b.p5);
        assert!(b.p5 <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.p95);
        assert!(b.p95 <= b.max);
        assert_eq!(b.count, 1000);
    }

    #[test]
    fn boxplot_counts_outliers() {
        // 96 values at 0, then extremes: p5 == p95 == 0, so the extremes are outliers.
        let mut xs = vec![0.0; 96];
        xs.push(-10.0);
        xs.push(-11.0);
        xs.push(10.0);
        xs.push(12.0);
        let b = BoxplotStats::from_samples(&xs).unwrap();
        assert_eq!(b.outliers_low, 2);
        assert_eq!(b.outliers_high, 2);
        assert_eq!(b.min, -11.0);
        assert_eq!(b.max, 12.0);
    }

    #[test]
    fn boxplot_of_empty_is_none() {
        assert!(BoxplotStats::from_samples(&[]).is_none());
    }

    #[test]
    fn whisker_halfwidth_is_symmetric_measure() {
        let b = BoxplotStats::from_samples(&[-4.0, -2.0, 0.0, 2.0, 3.0]).unwrap();
        assert!((b.whisker_halfwidth() - b.p5.abs().max(b.p95.abs())).abs() < 1e-12);
    }
}
