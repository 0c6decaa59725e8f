//! Error and speedup metrics for the accuracy evaluation.
//!
//! The paper reports, per benchmark and thread count, the absolute percent
//! error of the sampled simulation's predicted execution time against a full
//! detailed simulation, and the wall-clock speedup of the sampled run.

/// Absolute relative error in percent: `100 * |measured - reference| / reference`.
///
/// ```
/// use taskpoint_stats::relative_error_percent;
/// assert_eq!(relative_error_percent(102.0, 100.0), 2.0);
/// assert_eq!(relative_error_percent(98.0, 100.0), 2.0);
/// ```
///
/// # Panics
///
/// Panics if `reference` is zero or not finite.
pub fn relative_error_percent(measured: f64, reference: f64) -> f64 {
    assert!(reference.is_finite() && reference != 0.0, "invalid reference {reference}");
    100.0 * ((measured - reference) / reference).abs()
}

/// Speedup of `fast` over `slow` expressed as `slow / fast`.
///
/// # Panics
///
/// Panics if `fast` is zero or either argument is not finite.
pub fn speedup(slow: f64, fast: f64) -> f64 {
    assert!(slow.is_finite() && fast.is_finite(), "non-finite timing");
    assert!(fast != 0.0, "fast time is zero");
    slow / fast
}

/// Geometric mean. Returns `None` for empty input or any non-positive value.
///
/// ```
/// use taskpoint_stats::geometric_mean;
/// assert_eq!(geometric_mean(&[1.0, 4.0]), Some(2.0));
/// assert_eq!(geometric_mean(&[]), None);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Aggregated error/speedup across a set of experiment runs — the rows the
/// paper summarizes as "average error 1.8%, maximum error 15.0%, average
/// speedup 19.1".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorSummary {
    /// Arithmetic mean of absolute percent errors.
    pub mean_error_percent: f64,
    /// Largest absolute percent error.
    pub max_error_percent: f64,
    /// Arithmetic mean of speedups (the paper averages speedups arithmetically).
    pub mean_speedup: f64,
    /// Geometric mean of speedups (more robust; reported alongside).
    pub geomean_speedup: f64,
    /// Number of runs aggregated.
    pub runs: usize,
}

impl ErrorSummary {
    /// Aggregates `(error_percent, speedup)` pairs.
    ///
    /// Returns a default (all-zero) summary for empty input.
    pub fn from_runs(runs: &[(f64, f64)]) -> Self {
        if runs.is_empty() {
            return Self::default();
        }
        let n = runs.len() as f64;
        let mean_error_percent = runs.iter().map(|r| r.0).sum::<f64>() / n;
        let max_error_percent = runs.iter().map(|r| r.0).fold(0.0, f64::max);
        let mean_speedup = runs.iter().map(|r| r.1).sum::<f64>() / n;
        let speedups: Vec<f64> = runs.iter().map(|r| r.1).collect();
        let geomean_speedup = geometric_mean(&speedups).unwrap_or(0.0);
        Self {
            mean_error_percent,
            max_error_percent,
            mean_speedup,
            geomean_speedup,
            runs: runs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_symmetric_and_absolute() {
        assert_eq!(relative_error_percent(110.0, 100.0), relative_error_percent(90.0, 100.0));
        assert!(relative_error_percent(90.0, 100.0) > 0.0);
    }

    #[test]
    fn zero_error_when_exact() {
        assert_eq!(relative_error_percent(42.0, 42.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid reference")]
    fn error_rejects_zero_reference() {
        let _ = relative_error_percent(1.0, 0.0);
    }

    #[test]
    fn speedup_is_ratio() {
        assert_eq!(speedup(100.0, 5.0), 20.0);
    }

    #[test]
    fn geomean_rejects_nonpositive() {
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, -2.0]), None);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        let g = geometric_mean(&[2.0, 0.5, 4.0, 0.25]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_aggregates() {
        let s = ErrorSummary::from_runs(&[(1.0, 10.0), (3.0, 40.0)]);
        assert_eq!(s.mean_error_percent, 2.0);
        assert_eq!(s.max_error_percent, 3.0);
        assert_eq!(s.mean_speedup, 25.0);
        assert!((s.geomean_speedup - 20.0).abs() < 1e-9);
        assert_eq!(s.runs, 2);
    }

    #[test]
    fn summary_of_empty_is_default() {
        assert_eq!(ErrorSummary::from_runs(&[]), ErrorSummary::default());
    }
}
