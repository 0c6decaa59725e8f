//! Instruction mixes.
//!
//! An [`InstructionMix`] is a discrete probability distribution over
//! [`InstKind`]s. Each benchmark's task types are assigned mixes that match
//! the paper's qualitative descriptions (compute bound, memory bound, atomic
//! operations, irregular, ...).

use crate::inst::InstKind;
use std::sync::OnceLock;
use taskpoint_stats::rng::Xoshiro256pp;

/// A normalized probability distribution over instruction kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionMix {
    // Cumulative distribution over InstKind::ALL, last entry == 1.0.
    cumulative: [f64; 11],
}

impl InstructionMix {
    /// Builds a mix from `(kind, weight)` pairs. Unlisted kinds get weight 0.
    /// Weights are normalized; they need not sum to one.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero/negative or any weight is negative or
    /// non-finite.
    pub fn from_weights(weights: &[(InstKind, f64)]) -> Self {
        let mut w = [0.0f64; 11];
        for &(kind, weight) in weights {
            assert!(weight.is_finite() && weight >= 0.0, "bad weight {weight} for {kind}");
            w[kind as usize] += weight;
        }
        let total: f64 = w.iter().sum();
        assert!(total > 0.0, "instruction mix has zero total weight");
        let mut cumulative = [0.0f64; 11];
        let mut acc = 0.0;
        for i in 0..11 {
            acc += w[i] / total;
            cumulative[i] = acc;
        }
        cumulative[10] = 1.0; // close any rounding gap
        Self { cumulative }
    }

    /// Probability of the given kind.
    pub fn probability(&self, kind: InstKind) -> f64 {
        let i = kind as usize;
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - prev
    }

    /// Fraction of memory instructions (loads + stores + atomics).
    pub fn memory_fraction(&self) -> f64 {
        self.probability(InstKind::Load)
            + self.probability(InstKind::Store)
            + self.probability(InstKind::Atomic)
    }

    /// The cumulative distribution's bit patterns. Mixes with equal bits
    /// draw identical kind sequences from identical RNG streams.
    pub fn cumulative_bits(&self) -> [u64; 11] {
        self.cumulative.map(f64::to_bits)
    }

    /// True if `other`'s cumulative distribution has the same bits: the
    /// same answer as comparing [`cumulative_bits`](Self::cumulative_bits).
    #[inline]
    pub fn same_bits(&self, other: &Self) -> bool {
        self.cumulative.iter().zip(&other.cumulative).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Draws one instruction kind.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> InstKind {
        let x = rng.next_f64();
        // 11 entries: linear scan beats binary search at this size.
        for (i, &c) in self.cumulative.iter().enumerate() {
            if x < c {
                return InstKind::ALL[i];
            }
        }
        InstKind::Fence
    }

    // ---- presets matching the paper's workload descriptions ----

    /// The mix `weights` describe, normalised on first use and cloned from
    /// `cell` after that: generators ask for a preset per task instance.
    fn preset(cell: &'static OnceLock<Self>, weights: &[(InstKind, f64)]) -> Self {
        cell.get_or_init(|| Self::from_weights(weights)).clone()
    }

    /// Compute-bound floating-point kernel (dense matmul, swaptions,
    /// monte-carlo): few memory references, lots of FP.
    pub fn compute_bound() -> Self {
        static MIX: OnceLock<InstructionMix> = OnceLock::new();
        Self::preset(
            &MIX,
            &[
                (InstKind::IntAlu, 0.22),
                (InstKind::FpAlu, 0.25),
                (InstKind::FpMul, 0.30),
                (InstKind::FpDiv, 0.01),
                (InstKind::Load, 0.12),
                (InstKind::Store, 0.04),
                (InstKind::Branch, 0.06),
            ],
        )
    }

    /// Memory/streaming-bound kernel (vector-operation, spmv): high
    /// load/store share, little arithmetic per element.
    pub fn memory_bound() -> Self {
        static MIX: OnceLock<InstructionMix> = OnceLock::new();
        Self::preset(
            &MIX,
            &[
                (InstKind::IntAlu, 0.25),
                (InstKind::FpAlu, 0.10),
                (InstKind::FpMul, 0.05),
                (InstKind::Load, 0.35),
                (InstKind::Store, 0.15),
                (InstKind::Branch, 0.10),
            ],
        )
    }

    /// Balanced integer/floating-point mix (stencils, convolutions).
    pub fn balanced() -> Self {
        static MIX: OnceLock<InstructionMix> = OnceLock::new();
        Self::preset(
            &MIX,
            &[
                (InstKind::IntAlu, 0.30),
                (InstKind::FpAlu, 0.15),
                (InstKind::FpMul, 0.12),
                (InstKind::Load, 0.25),
                (InstKind::Store, 0.08),
                (InstKind::Branch, 0.10),
            ],
        )
    }

    /// Atomic-heavy mix (histogram): scattered atomic updates to shared bins.
    pub fn atomic_heavy() -> Self {
        static MIX: OnceLock<InstructionMix> = OnceLock::new();
        Self::preset(
            &MIX,
            &[
                (InstKind::IntAlu, 0.35),
                (InstKind::Load, 0.25),
                (InstKind::Atomic, 0.15),
                (InstKind::Store, 0.05),
                (InstKind::Branch, 0.20),
            ],
        )
    }

    /// Integer/branch-heavy irregular mix (dedup, freqmine, canneal):
    /// pointer chasing, hashing, data-dependent branching.
    pub fn irregular_int() -> Self {
        static MIX: OnceLock<InstructionMix> = OnceLock::new();
        Self::preset(
            &MIX,
            &[
                (InstKind::IntAlu, 0.38),
                (InstKind::IntMul, 0.04),
                (InstKind::IntDiv, 0.01),
                (InstKind::Load, 0.30),
                (InstKind::Store, 0.09),
                (InstKind::Branch, 0.18),
            ],
        )
    }
}

impl Default for InstructionMix {
    /// The [`InstructionMix::balanced`] mix.
    fn default() -> Self {
        Self::balanced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn presets() -> Vec<InstructionMix> {
        vec![
            InstructionMix::compute_bound(),
            InstructionMix::memory_bound(),
            InstructionMix::balanced(),
            InstructionMix::atomic_heavy(),
            InstructionMix::irregular_int(),
        ]
    }

    #[test]
    fn probabilities_sum_to_one() {
        for mix in presets() {
            let total: f64 = InstKind::ALL.iter().map(|&k| mix.probability(k)).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_are_normalized() {
        let a = InstructionMix::from_weights(&[(InstKind::Load, 1.0), (InstKind::Store, 1.0)]);
        let b = InstructionMix::from_weights(&[(InstKind::Load, 50.0), (InstKind::Store, 50.0)]);
        assert_eq!(a, b);
        assert!((a.probability(InstKind::Load) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_kinds_accumulate() {
        let m = InstructionMix::from_weights(&[
            (InstKind::Load, 1.0),
            (InstKind::Load, 1.0),
            (InstKind::Store, 2.0),
        ]);
        assert!((m.probability(InstKind::Load) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn zero_weight_rejected() {
        let _ = InstructionMix::from_weights(&[(InstKind::Load, 0.0)]);
    }

    #[test]
    fn sampling_frequency_matches_probability() {
        let mix = InstructionMix::balanced();
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let n = 200_000;
        let mut counts = [0usize; 11];
        for _ in 0..n {
            counts[mix.sample(&mut rng) as usize] += 1;
        }
        for k in InstKind::ALL {
            let expected = mix.probability(k);
            let observed = counts[k as usize] as f64 / n as f64;
            assert!(
                (expected - observed).abs() < 0.01,
                "{k}: expected {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn memory_fraction_matches_construction() {
        let mix = InstructionMix::memory_bound();
        assert!((mix.memory_fraction() - 0.5).abs() < 1e-9);
        assert!(InstructionMix::compute_bound().memory_fraction() < 0.2);
    }
}
