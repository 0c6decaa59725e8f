//! Two-sided Student-t critical values at the confidence levels the
//! adaptive-accuracy subsystem supports.
//!
//! The tables pin the standard published values (e.g. NIST/SEMATECH
//! e-Handbook of Statistical Methods, §1.3.6.7.2; identical in any
//! statistics reference): `t_{1-α/2, df}` for two-sided confidence
//! `1-α ∈ {0.90, 0.95, 0.99}`, exact for `df = 1..=30` plus the
//! conventional anchor rows `df = 40, 60, 120` and the normal limit.
//!
//! For a degrees-of-freedom value between anchor rows the lookup is
//! **conservative**: it returns the value of the largest tabulated `df`
//! not exceeding the request, which is the *larger* critical value — a
//! confidence interval computed with it can only be wider than the exact
//! one, so an adaptive controller never stops sampling early because of
//! table coarseness.

/// A supported two-sided confidence level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Confidence {
    /// 90% two-sided confidence (`α = 0.10`).
    C90,
    /// 95% two-sided confidence (`α = 0.05`) — the conventional default.
    C95,
    /// 99% two-sided confidence (`α = 0.01`).
    C99,
}

impl Confidence {
    /// Every supported level, ascending.
    pub const ALL: [Confidence; 3] = [Confidence::C90, Confidence::C95, Confidence::C99];

    /// The confidence level as a fraction (0.90 / 0.95 / 0.99).
    pub fn level(self) -> f64 {
        match self {
            Confidence::C90 => 0.90,
            Confidence::C95 => 0.95,
            Confidence::C99 => 0.99,
        }
    }

    /// A short stable tag (`"90"` / `"95"` / `"99"`), used in labels and
    /// content hashes.
    pub fn tag(self) -> &'static str {
        match self {
            Confidence::C90 => "90",
            Confidence::C95 => "95",
            Confidence::C99 => "99",
        }
    }

    /// Parses the tag produced by [`Confidence::tag`].
    pub fn from_tag(tag: &str) -> Option<Confidence> {
        Confidence::ALL.into_iter().find(|c| c.tag() == tag)
    }

    fn column(self) -> usize {
        match self {
            Confidence::C90 => 0,
            Confidence::C95 => 1,
            Confidence::C99 => 2,
        }
    }
}

impl std::fmt::Display for Confidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}%", self.tag())
    }
}

/// Published two-sided critical values for `df = 1..=30`; columns are
/// (90%, 95%, 99%).
const T_TABLE_1_30: [[f64; 3]; 30] = [
    [6.314, 12.706, 63.657],
    [2.920, 4.303, 9.925],
    [2.353, 3.182, 5.841],
    [2.132, 2.776, 4.604],
    [2.015, 2.571, 4.032],
    [1.943, 2.447, 3.707],
    [1.895, 2.365, 3.499],
    [1.860, 2.306, 3.355],
    [1.833, 2.262, 3.250],
    [1.812, 2.228, 3.169],
    [1.796, 2.201, 3.106],
    [1.782, 2.179, 3.055],
    [1.771, 2.160, 3.012],
    [1.761, 2.145, 2.977],
    [1.753, 2.131, 2.947],
    [1.746, 2.120, 2.921],
    [1.740, 2.110, 2.898],
    [1.734, 2.101, 2.878],
    [1.729, 2.093, 2.861],
    [1.725, 2.086, 2.845],
    [1.721, 2.080, 2.831],
    [1.717, 2.074, 2.819],
    [1.714, 2.069, 2.807],
    [1.711, 2.064, 2.797],
    [1.708, 2.060, 2.787],
    [1.706, 2.056, 2.779],
    [1.703, 2.052, 2.771],
    [1.701, 2.048, 2.763],
    [1.699, 2.045, 2.756],
    [1.697, 2.042, 2.750],
];

/// Anchor rows above `df = 30`: `(df, [90%, 95%, 99%])`.
const T_TABLE_ANCHORS: [(u64, [f64; 3]); 3] =
    [(40, [1.684, 2.021, 2.704]), (60, [1.671, 2.000, 2.660]), (120, [1.658, 1.980, 2.617])];

/// Normal-distribution limit (`df = ∞`).
const Z_LIMIT: [f64; 3] = [1.645, 1.960, 2.576];

/// The two-sided Student-t critical value `t_{1-α/2, df}`.
///
/// Exact published values for `df = 1..=30`, `40`, `60` and `120`;
/// between anchors the largest tabulated `df ≤` the request is used
/// (conservative — see the module docs). Very large `df` (≥ 1000)
/// returns the normal limit.
///
/// # Panics
///
/// Panics if `df == 0` (no critical value exists).
pub fn student_t_critical(confidence: Confidence, df: u64) -> f64 {
    assert!(df > 0, "Student-t critical value requires df >= 1");
    let col = confidence.column();
    if df <= 30 {
        return T_TABLE_1_30[(df - 1) as usize][col];
    }
    if df >= 1000 {
        return Z_LIMIT[col];
    }
    // Largest anchor row not exceeding df; df in 31..=39 keeps row 30.
    let mut value = T_TABLE_1_30[29][col];
    for (anchor_df, row) in T_TABLE_ANCHORS {
        if df >= anchor_df {
            value = row[col];
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_published_values() {
        // Spot checks straight out of the published table.
        assert_eq!(student_t_critical(Confidence::C95, 1), 12.706);
        assert_eq!(student_t_critical(Confidence::C90, 1), 6.314);
        assert_eq!(student_t_critical(Confidence::C99, 1), 63.657);
        assert_eq!(student_t_critical(Confidence::C95, 4), 2.776);
        assert_eq!(student_t_critical(Confidence::C90, 10), 1.812);
        assert_eq!(student_t_critical(Confidence::C99, 10), 3.169);
        assert_eq!(student_t_critical(Confidence::C95, 30), 2.042);
        assert_eq!(student_t_critical(Confidence::C95, 40), 2.021);
        assert_eq!(student_t_critical(Confidence::C95, 60), 2.000);
        assert_eq!(student_t_critical(Confidence::C95, 120), 1.980);
        assert_eq!(student_t_critical(Confidence::C95, 100_000), 1.960);
    }

    #[test]
    fn between_anchors_is_conservative() {
        // 31..=39 keep the df=30 value; 41..=59 keep df=40; etc.
        assert_eq!(student_t_critical(Confidence::C95, 35), 2.042);
        assert_eq!(student_t_critical(Confidence::C95, 59), 2.021);
        assert_eq!(student_t_critical(Confidence::C95, 119), 2.000);
        assert_eq!(student_t_critical(Confidence::C95, 999), 1.980);
    }

    #[test]
    fn monotone_decreasing_in_df() {
        for c in Confidence::ALL {
            let mut prev = f64::INFINITY;
            for df in 1..2000 {
                let t = student_t_critical(c, df);
                assert!(t <= prev, "{c} df={df}: {t} > {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn monotone_increasing_in_confidence() {
        for df in [1u64, 2, 5, 10, 30, 50, 200, 5000] {
            let t90 = student_t_critical(Confidence::C90, df);
            let t95 = student_t_critical(Confidence::C95, df);
            let t99 = student_t_critical(Confidence::C99, df);
            assert!(t90 < t95 && t95 < t99, "df={df}");
        }
    }

    #[test]
    fn levels_and_tags_round_trip() {
        for c in Confidence::ALL {
            assert_eq!(Confidence::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Confidence::from_tag("42"), None);
        assert_eq!(Confidence::C95.level(), 0.95);
        assert_eq!(Confidence::C95.to_string(), "95%");
    }

    #[test]
    #[should_panic(expected = "df >= 1")]
    fn zero_df_rejected() {
        student_t_critical(Confidence::C95, 0);
    }
}
