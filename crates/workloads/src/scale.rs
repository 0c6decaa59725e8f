//! Workload scaling.
//!
//! The paper's benchmarks run for tens of simulated hours (Table I). To make
//! full detailed *reference* simulations feasible on one host, all dynamic
//! instruction counts are scaled down by a constant factor (the generators'
//! built-in baselines are roughly 1/1000 of the paper's sizes) while task
//! *instance counts are kept exactly as in Table I* — sampling behaviour
//! depends on the number and relative imbalance of task instances, not on
//! their absolute length, and imbalance ratios are preserved exactly.

/// Global knobs every workload generator receives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Multiplier on every task's baseline instruction count (1.0 = the
    /// crate's default scaled-down sizes).
    pub instr_factor: f64,
    /// Master seed; all per-instance seeds derive from it.
    pub seed: u64,
}

impl ScaleConfig {
    /// The default evaluation scale (baseline sizes, master seed fixed for
    /// reproducibility).
    pub fn new() -> Self {
        Self { instr_factor: 1.0, seed: 0x7A5C_901E }
    }

    /// A much smaller scale for unit tests and smoke benches.
    pub fn quick() -> Self {
        Self { instr_factor: 0.05, ..Self::new() }
    }

    /// Applies the factor to a baseline instruction count (≥ 1 always).
    pub fn instructions(&self, baseline: f64) -> u64 {
        ((baseline * self.instr_factor).round() as u64).max(1)
    }

    /// The reproducible per-instance seeds of `benchmark` at this master
    /// seed. The name is hashed here, once per program, not once per
    /// instance.
    pub fn instance_seeds(&self, benchmark: &str) -> InstanceSeeds {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for b in benchmark.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        InstanceSeeds { seed: self.seed, benchmark: h }
    }
}

/// The per-instance seeds of one benchmark at one master seed (see
/// [`ScaleConfig::instance_seeds`]).
#[derive(Debug, Clone, Copy)]
pub struct InstanceSeeds {
    seed: u64,
    /// FNV-1a hash of the benchmark name.
    benchmark: u64,
}

impl InstanceSeeds {
    /// The seed of instance `instance_idx` of task type `type_idx`.
    pub fn of(&self, type_idx: u32, instance_idx: u64) -> u64 {
        taskpoint_stats::rng::mix_seed(&[self.seed, self.benchmark, type_idx as u64, instance_idx])
    }
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instructions_scale_and_floor() {
        let s = ScaleConfig::new();
        assert_eq!(s.instructions(1500.0), 1500);
        let q = ScaleConfig::quick();
        assert_eq!(q.instructions(1500.0), 75);
        assert_eq!(q.instructions(0.1), 1, "never zero instructions");
    }

    #[test]
    fn instance_seeds_are_unique_and_stable() {
        let s = ScaleConfig::new();
        let a = s.instance_seeds("x").of(0, 0);
        assert_eq!(a, s.instance_seeds("x").of(0, 0));
        assert_ne!(a, s.instance_seeds("x").of(0, 1));
        assert_ne!(a, s.instance_seeds("x").of(1, 0));
        assert_ne!(a, s.instance_seeds("y").of(0, 0));
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = ScaleConfig { seed: 1, ..ScaleConfig::new() };
        let b = ScaleConfig { seed: 2, ..ScaleConfig::new() };
        assert_ne!(a.instance_seeds("x").of(0, 0), b.instance_seeds("x").of(0, 0));
    }
}
