//! Deterministic pseudo-random number generation.
//!
//! Workload generation, the synthetic instruction streams and the system
//! noise model must be reproducible bit-for-bit across runs and platforms —
//! the sampled and the detailed simulation of the same benchmark must see
//! *identical* task instances or the error metric would be meaningless.
//! To guarantee that independently of any external crate's stream stability,
//! this module implements xoshiro256++ (Blackman & Vigna) and the SplitMix64
//! seeding procedure its authors recommend.

/// SplitMix64 step; used for seeding and as a cheap stateless hash.
///
/// ```
/// use taskpoint_stats::rng::splitmix64;
/// // Reference value from the public-domain SplitMix64 test vector.
/// let mut state = 0x9E3779B97F4A7C15u64;
/// let _ = splitmix64(&mut state);
/// ```
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes several integers into one seed; handy for deriving per-instance
/// seeds from `(benchmark_seed, type_id, instance_id)` so every task
/// instance has an independent but fully reproducible stream.
pub fn mix_seed(parts: &[u64]) -> u64 {
    let mut state = 0x853C_49E6_748F_EA9Bu64;
    let mut acc = 0u64;
    for &p in parts {
        state ^= p;
        acc ^= splitmix64(&mut state).rotate_left(17);
    }
    // One more scramble so short inputs do not map to small outputs.
    let mut st = acc ^ 0xD1B5_4A32_D192_ED03;
    splitmix64(&mut st)
}

/// xoshiro256++ PRNG: fast, 256-bit state, passes BigCrush.
///
/// ```
/// use taskpoint_stats::rng::Xoshiro256pp;
/// let mut a = Xoshiro256pp::seed_from_u64(7);
/// let mut b = Xoshiro256pp::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from an explicit 256-bit state, exactly as the
    /// reference C implementation is initialized. Mainly useful for
    /// checking this implementation against the published test vectors;
    /// prefer [`seed_from_u64`](Self::seed_from_u64) for well-mixed states.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (the one invalid xoshiro state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0, 0, 0, 0], "xoshiro256++ state must not be all zero");
        Self { s }
    }

    /// Seeds the full 256-bit state from a single `u64` via SplitMix64,
    /// as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        // All-zero state is invalid; SplitMix64 cannot produce four zeros
        // from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            Self { s: [1, 2, 3, 4] }
        } else {
            Self { s }
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (unbiased thanks to the rejection loop).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == hi {
            return lo;
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Approximately normal deviate with the given mean and standard
    /// deviation (sum of 12 uniforms; adequate for noise modelling, cheap
    /// and bounded to ±6σ which conveniently avoids pathological outliers).
    pub fn next_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.next_f64();
        }
        mean + (acc - 6.0) * std_dev
    }

    /// Log-uniform value in `[lo, hi]`: uniform in log space. Used for the
    /// heavy-tailed instance sizes of freqmine (490 .. 11M instructions).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo <= hi`.
    pub fn next_log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && lo <= hi, "invalid log-uniform range [{lo}, {hi}]");
        if lo == hi {
            return lo;
        }
        (self.next_f64() * (hi.ln() - lo.ln()) + lo.ln()).exp()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(123);
        let mut b = Xoshiro256pp::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound_and_covers() {
        let mut r = Xoshiro256pp::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = r.next_below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_range_inclusive() {
        let mut r = Xoshiro256pp::seed_from_u64(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let x = r.next_range(3, 5);
            assert!((3..=5).contains(&x));
            lo_seen |= x == 3;
            hi_seen |= x == 5;
        }
        assert!(lo_seen && hi_seen);
        assert_eq!(r.next_range(9, 9), 9);
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut r = Xoshiro256pp::seed_from_u64(17);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn log_uniform_stays_in_range_and_spreads() {
        let mut r = Xoshiro256pp::seed_from_u64(23);
        let mut below_geo_mid = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let x = r.next_log_uniform(490.0, 11_000_000.0);
            assert!((490.0..=11_000_000.0).contains(&x));
            // geometric midpoint: half the mass should be below it
            if x < (490.0f64 * 11_000_000.0).sqrt() {
                below_geo_mid += 1;
            }
        }
        let frac = below_geo_mid as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn mix_seed_is_order_sensitive() {
        assert_ne!(mix_seed(&[1, 2, 3]), mix_seed(&[3, 2, 1]));
        assert_ne!(mix_seed(&[1]), mix_seed(&[1, 0]));
        assert_eq!(mix_seed(&[4, 5]), mix_seed(&[4, 5]));
    }

    #[test]
    fn bernoulli_frequency_close_to_p() {
        let mut r = Xoshiro256pp::seed_from_u64(31);
        let hits = (0..100_000).filter(|_| r.next_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }
}
