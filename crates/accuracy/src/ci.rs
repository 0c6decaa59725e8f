//! The relative confidence-interval estimator.

use taskpoint_stats::{student_t_critical, Confidence, StreamingMoments};

/// Relative half-width of the two-sided confidence interval of the mean:
/// `t_{1-α/2, n-1} · (s / √n) / x̄`.
///
/// Returns `None` when the interval is undefined: fewer than two samples
/// (no variance estimate) or a non-positive mean (IPC means are positive
/// by construction; anything else carries no timing information).
///
/// ```
/// use taskpoint_accuracy::relative_ci_half_width;
/// use taskpoint_stats::{Confidence, StreamingMoments};
///
/// let m: StreamingMoments = [2.0, 2.1, 1.9, 2.0].into_iter().collect();
/// let ci = relative_ci_half_width(&m, Confidence::C95).unwrap();
/// assert!(ci > 0.0 && ci < 0.1, "tight cluster: CI ~6.5% of the mean");
/// ```
pub fn relative_ci_half_width(moments: &StreamingMoments, confidence: Confidence) -> Option<f64> {
    let se = moments.std_error()?;
    let mean = moments.mean();
    if mean <= 0.0 {
        return None;
    }
    let t = student_t_critical(confidence, moments.count() - 1);
    Some(t * se / mean)
}

/// The adaptive stopping rule: true when `moments` holds at least
/// `min_samples` samples **and** its relative CI half-width at `confidence`
/// is within `target_ci`.
///
/// A target of exactly `0.0` waives the statistical requirement
/// (degenerate fixed-budget mode — see
/// [`SamplingPolicy::Adaptive`](crate::SamplingPolicy::Adaptive)); a
/// positive target with an undefined interval is never met.
pub fn ci_target_met(
    moments: &StreamingMoments,
    target_ci: f64,
    confidence: Confidence,
    min_samples: u64,
) -> bool {
    if moments.count() < min_samples {
        return false;
    }
    if target_ci == 0.0 {
        return true;
    }
    match relative_ci_half_width(moments, confidence) {
        Some(ci) => ci <= target_ci,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(xs: &[f64]) -> StreamingMoments {
        xs.iter().copied().collect()
    }

    #[test]
    fn matches_hand_computed_interval() {
        // n=4, mean=2.0, s^2 = ((0.1)^2 * 2 + 0 + 0)/3 -> s = sqrt(0.02/3)
        let m = moments(&[1.9, 2.1, 2.0, 2.0]);
        let s = (0.02f64 / 3.0).sqrt();
        let expect = 3.182 * (s / 4.0f64.sqrt()) / 2.0; // t_{.975,3} = 3.182
        let got = relative_ci_half_width(&m, Confidence::C95).unwrap();
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn undefined_cases_return_none() {
        assert_eq!(relative_ci_half_width(&moments(&[]), Confidence::C95), None);
        assert_eq!(relative_ci_half_width(&moments(&[2.0]), Confidence::C95), None);
        assert_eq!(relative_ci_half_width(&moments(&[-1.0, -2.0]), Confidence::C95), None);
    }

    #[test]
    fn higher_confidence_widens_the_interval() {
        let m = moments(&[1.0, 1.2, 0.9, 1.1, 1.0]);
        let c90 = relative_ci_half_width(&m, Confidence::C90).unwrap();
        let c95 = relative_ci_half_width(&m, Confidence::C95).unwrap();
        let c99 = relative_ci_half_width(&m, Confidence::C99).unwrap();
        assert!(c90 < c95 && c95 < c99);
    }

    #[test]
    fn stopping_rule_honors_floor_target_and_degenerate_zero() {
        let met =
            |m: &StreamingMoments, target, floor| ci_target_met(m, target, Confidence::C95, floor);
        let m3 = moments(&[2.0, 2.0, 2.0]);
        assert!(!met(&m3, 0.5, 4), "below the floor");
        let m4 = moments(&[2.0, 2.0, 2.0, 2.0]);
        assert!(met(&m4, 0.5, 4), "zero variance meets any positive target");
        let noisy = moments(&[1.0, 4.0, 0.5, 6.0]);
        assert!(!met(&noisy, 0.05, 4), "wide CI misses 5%");
        assert!(met(&noisy, 0.0, 4), "target 0 waives the CI test");
        // Positive target + undefined CI (single sample, floor 1): never met.
        let single = moments(&[2.0]);
        assert!(!met(&single, 0.1, 1));
        assert!(met(&single, 0.0, 1));
    }

    #[test]
    fn more_samples_eventually_meet_a_positive_target() {
        let mut m = StreamingMoments::new();
        let mut met_at = None;
        for i in 0..10_000u64 {
            // Alternating 1.8 / 2.2: CoV ~0.1, CI shrinks as 1/sqrt(n).
            m.add(if i % 2 == 0 { 1.8 } else { 2.2 });
            if met_at.is_none() && ci_target_met(&m, 0.05, Confidence::C95, 2) {
                met_at = Some(i + 1);
            }
        }
        let n = met_at.expect("CI must eventually shrink below 5%");
        assert!((10..=100).contains(&n), "plausible stopping point, got {n}");
    }
}
