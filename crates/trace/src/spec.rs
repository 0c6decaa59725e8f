//! Trace specifications — the procedural stand-in for recorded task traces.

use crate::block::{InstBlock, SpecSource, TraceSource};
use crate::column::{KindColumn, SharedKindColumn};
use crate::inst::Instruction;
use crate::mix::InstructionMix;
use crate::pattern::{AccessPattern, AddressStream};
use crate::region::MemRegion;
use taskpoint_stats::rng::Xoshiro256pp;

/// A spec rejected by [`TraceSpecBuilder::try_build`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSpecError {
    /// The instruction mix can emit memory kinds but no footprint was set,
    /// so there is no region to draw addresses from.
    MemoryMixWithoutFootprint,
    /// The branch misprediction probability is outside `[0, 1]`.
    BranchRateOutOfRange(f64),
    /// The instruction dependency probability is outside `[0, 1]`.
    DependencyRateOutOfRange(f64),
}

impl std::fmt::Display for TraceSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSpecError::MemoryMixWithoutFootprint => {
                write!(f, "trace with memory instructions needs a non-empty footprint")
            }
            TraceSpecError::BranchRateOutOfRange(r) => {
                write!(f, "branch mispredict rate {r} out of range")
            }
            TraceSpecError::DependencyRateOutOfRange(r) => {
                write!(f, "dependency rate {r} out of range")
            }
        }
    }
}

impl std::error::Error for TraceSpecError {}

/// A complete, self-contained description of one task instance's dynamic
/// instruction stream.
///
/// Two iterations of the same spec produce identical streams; that property
/// replaces the trace files of the original TaskSim setup. Construct with
/// [`TraceSpec::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    seed: u64,
    code_seed: u64,
    instructions: u64,
    mix: InstructionMix,
    pattern: AccessPattern,
    footprint: MemRegion,
    shared: MemRegion,
    branch_mispredict_rate: f64,
    dependency_rate: f64,
}

impl TraceSpec {
    /// Starts building a spec. See [`TraceSpecBuilder`].
    pub fn builder() -> TraceSpecBuilder {
        TraceSpecBuilder::default()
    }

    /// A ready-made spec for tests and examples: balanced mix, sequential
    /// walk over a seed-derived 64 KiB scratch footprint.
    pub fn synthetic(seed: u64, instructions: u64) -> Self {
        let base = 0x1000_0000 + (seed % 4096) * (1 << 16);
        TraceSpec::builder()
            .seed(seed)
            .instructions(instructions)
            .mix(InstructionMix::balanced())
            .pattern(AccessPattern::sequential(8))
            .footprint(MemRegion::new(base, 1 << 16))
            .build()
    }

    /// Dynamic instruction count of the stream.
    ///
    /// TaskPoint's fast-forward mechanism reads this from the trace to
    /// compute a task's burst-mode duration (`C_i = I_i / IPC_T`).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The seed identifying this concrete instance (data-dependent
    /// behaviour: addresses, branch outcomes).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed identifying the *code* of this task type. All instances of
    /// a task type share one code seed, so they execute the identical kind
    /// sequence (the same machine code) and differ only in data-dependent
    /// behaviour — which is precisely the regularity TaskPoint exploits.
    pub fn code_seed(&self) -> u64 {
        self.code_seed
    }

    /// The instruction mix of the stream.
    pub fn mix(&self) -> &InstructionMix {
        &self.mix
    }

    /// The access pattern of the stream.
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// The private data footprint of the instance.
    pub fn footprint(&self) -> MemRegion {
        self.footprint
    }

    /// The shared region targeted by atomics (may be empty).
    pub fn shared(&self) -> MemRegion {
        self.shared
    }

    /// Probability that a branch instruction mispredicts. Control-flow
    /// divergent workloads (the paper singles out freqmine's nested-if task
    /// bodies) carry higher rates.
    pub fn branch_mispredict_rate(&self) -> f64 {
        self.branch_mispredict_rate
    }

    /// Probability that the next instruction depends on the current one's
    /// result (serializing their execution). Models ILP: low for unrolled
    /// numeric kernels, high for pointer-chasing code.
    pub fn dependency_rate(&self) -> f64 {
        self.dependency_rate
    }

    /// Creates a fresh [`TraceSource`] over the concrete instruction
    /// stream — the batched producer the simulator's detailed hot path
    /// consumes. Each call restarts from the beginning and yields the
    /// identical sequence.
    ///
    /// The source draws its kinds into a column of its own, which holds
    /// one byte per instruction read. Sources of many instances of a type
    /// should come from one [`KindColumns`](crate::KindColumns) map
    /// instead, which draws the type's kinds once for all of them.
    pub fn source(&self) -> SpecSource {
        self.source_over(KindColumn::shared(self))
    }

    /// A fresh source whose kinds come from `kinds`, which must be a
    /// column over this spec's code seed and mix.
    pub(crate) fn source_over(&self, kinds: SharedKindColumn) -> SpecSource {
        // Pure-compute specs may have an empty footprint; they never emit
        // memory instructions (enforced in `build`), so no stream is needed.
        let addresses = (!self.footprint.is_empty())
            .then(|| AddressStream::new(self.pattern, self.footprint, self.shared, self.seed));
        SpecSource::new(self.instructions, kinds, Xoshiro256pp::seed_from_u64(self.seed), addresses)
    }

    /// Iterates the concrete instruction stream. Each call restarts from the
    /// beginning and yields the identical sequence.
    ///
    /// This is a compatibility shim over [`TraceSpec::source`]: it drains
    /// block refills one instruction at a time. Performance-sensitive
    /// consumers should use the block pipeline directly.
    pub fn iter(&self) -> TraceIter {
        TraceIter { source: self.source(), block: InstBlock::new(), cursor: 0 }
    }
}

/// Builder for [`TraceSpec`]. All fields have sensible defaults except the
/// footprint, which must be set for specs whose mix contains memory
/// operations.
#[derive(Debug, Clone)]
pub struct TraceSpecBuilder {
    seed: u64,
    code_seed: u64,
    instructions: u64,
    mix: Option<InstructionMix>,
    pattern: AccessPattern,
    footprint: MemRegion,
    shared: MemRegion,
    branch_mispredict_rate: f64,
    dependency_rate: f64,
}

impl Default for TraceSpecBuilder {
    fn default() -> Self {
        Self {
            seed: 0,
            code_seed: 0,
            instructions: 0,
            mix: None,
            pattern: AccessPattern::default(),
            footprint: MemRegion::empty(),
            shared: MemRegion::empty(),
            branch_mispredict_rate: 0.02,
            dependency_rate: 0.15,
        }
    }
}

impl TraceSpecBuilder {
    /// Sets the RNG seed identifying this instance's concrete data
    /// (addresses, branch outcomes).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the code seed shared by all instances of the task type (the
    /// kind sequence / static code; default 0).
    pub fn code_seed(mut self, seed: u64) -> Self {
        self.code_seed = seed;
        self
    }

    /// Sets the dynamic instruction count.
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Sets the instruction mix (default: [`InstructionMix::balanced`]).
    pub fn mix(mut self, mix: InstructionMix) -> Self {
        self.mix = Some(mix);
        self
    }

    /// Sets the access pattern (default: sequential, 8-byte stride).
    pub fn pattern(mut self, pattern: AccessPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the private data footprint.
    pub fn footprint(mut self, region: MemRegion) -> Self {
        self.footprint = region;
        self
    }

    /// Sets the shared region for atomic operations.
    pub fn shared(mut self, region: MemRegion) -> Self {
        self.shared = region;
        self
    }

    /// Sets the branch misprediction probability (default 0.02).
    pub fn branch_mispredict_rate(mut self, rate: f64) -> Self {
        self.branch_mispredict_rate = rate;
        self
    }

    /// Sets the instruction dependency probability (default 0.15).
    pub fn dependency_rate(mut self, rate: f64) -> Self {
        self.dependency_rate = rate;
        self
    }

    /// Finalizes the spec, validating that every concrete stream it
    /// describes can actually be generated.
    ///
    /// In particular, a mix that can emit memory kinds requires a
    /// non-empty footprint — catching at build time what used to be a
    /// runtime panic deep inside trace generation.
    ///
    /// # Errors
    ///
    /// See [`TraceSpecError`].
    ///
    /// # Panics
    ///
    /// Panics if the pattern parameters are invalid (see
    /// [`AccessPattern::validate`]).
    pub fn try_build(self) -> Result<TraceSpec, TraceSpecError> {
        let mix = self.mix.unwrap_or_default();
        self.pattern.validate();
        if self.instructions > 0 && mix.memory_fraction() > 0.0 && self.footprint.is_empty() {
            return Err(TraceSpecError::MemoryMixWithoutFootprint);
        }
        if !(0.0..=1.0).contains(&self.branch_mispredict_rate) {
            return Err(TraceSpecError::BranchRateOutOfRange(self.branch_mispredict_rate));
        }
        if !(0.0..=1.0).contains(&self.dependency_rate) {
            return Err(TraceSpecError::DependencyRateOutOfRange(self.dependency_rate));
        }
        Ok(TraceSpec {
            seed: self.seed,
            code_seed: self.code_seed,
            instructions: self.instructions,
            mix,
            pattern: self.pattern,
            footprint: self.footprint,
            shared: self.shared,
            branch_mispredict_rate: self.branch_mispredict_rate,
            dependency_rate: self.dependency_rate,
        })
    }

    /// Finalizes the spec, panicking on invalid configurations.
    ///
    /// # Panics
    ///
    /// Panics with the [`TraceSpecError`] message if
    /// [`try_build`](TraceSpecBuilder::try_build) would return an error, or if the
    /// pattern parameters are invalid.
    pub fn build(self) -> TraceSpec {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Iterator over a [`TraceSpec`]'s concrete instruction stream.
///
/// A thin compatibility shim over the block pipeline: it holds a
/// [`SpecSource`] and an [`InstBlock`] of default capacity and hands the
/// block out one instruction per `next()`. Yields exactly the sequence the
/// batched path produces (by construction — they share the generator).
#[derive(Debug, Clone)]
pub struct TraceIter {
    source: SpecSource,
    block: InstBlock,
    cursor: usize,
}

impl Iterator for TraceIter {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        if self.cursor == self.block.len() {
            if self.source.fill(&mut self.block) == 0 {
                return None;
            }
            self.cursor = 0;
        }
        let inst = self.block.get(self.cursor);
        self.cursor += 1;
        Some(inst)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered = (self.block.len() - self.cursor) as u64;
        let n = usize::try_from(self.source.remaining() + buffered).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstKind;
    use crate::pattern::ACCESS_SIZE;

    fn spec(seed: u64, n: u64) -> TraceSpec {
        TraceSpec::builder()
            .seed(seed)
            .instructions(n)
            .mix(InstructionMix::balanced())
            .pattern(AccessPattern::strided(64, 2))
            .footprint(MemRegion::new(0x4000_0000, 1 << 16))
            .build()
    }

    #[test]
    fn yields_exactly_n_instructions() {
        assert_eq!(spec(1, 0).iter().count(), 0);
        assert_eq!(spec(1, 1).iter().count(), 1);
        assert_eq!(spec(1, 12345).iter().count(), 12345);
    }

    #[test]
    fn exact_size_hint() {
        let mut it = spec(1, 10).iter();
        assert_eq!(it.len(), 10);
        it.next();
        assert_eq!(it.len(), 9);
    }

    #[test]
    fn deterministic_replay() {
        let s = spec(99, 5000);
        let a: Vec<Instruction> = s.iter().collect();
        let b: Vec<Instruction> = s.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_data_seeds_change_addresses_not_kinds() {
        // Same code seed => identical kind sequences (same machine code);
        // a data-dependent pattern draws different addresses per instance.
        let mk = |seed| {
            TraceSpec::builder()
                .seed(seed)
                .instructions(1000)
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::Random)
                .footprint(MemRegion::new(0x4000_0000, 1 << 16))
                .build()
        };
        let a: Vec<Instruction> = mk(1).iter().collect();
        let b: Vec<Instruction> = mk(2).iter().collect();
        assert_ne!(a, b, "addresses must differ");
        let kinds_a: Vec<_> = a.iter().map(|i| i.kind).collect();
        let kinds_b: Vec<_> = b.iter().map(|i| i.kind).collect();
        assert_eq!(kinds_a, kinds_b, "kind sequence is the type's code");
    }

    #[test]
    fn different_code_seeds_change_kind_sequence() {
        let mk = |code| {
            TraceSpec::builder()
                .code_seed(code)
                .instructions(1000)
                .mix(InstructionMix::balanced())
                .pattern(AccessPattern::sequential(8))
                .footprint(MemRegion::new(0x4000_0000, 1 << 16))
                .build()
        };
        let a: Vec<_> = mk(1).iter().map(|i| i.kind).collect();
        let b: Vec<_> = mk(2).iter().map(|i| i.kind).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn memory_instructions_carry_addresses_inside_footprint() {
        let s = spec(7, 10_000);
        let region = s.footprint();
        for inst in s.iter() {
            if inst.kind.is_memory() {
                assert!(region.contains(inst.addr));
                assert_eq!(inst.size, ACCESS_SIZE);
            } else {
                assert_eq!(inst.addr, 0);
                assert_eq!(inst.size, 0);
            }
        }
    }

    #[test]
    fn observed_mix_matches_spec() {
        let s = spec(11, 100_000);
        let loads = s.iter().filter(|i| i.kind == InstKind::Load).count();
        let expected = s.mix().probability(InstKind::Load);
        let observed = loads as f64 / 100_000.0;
        assert!((expected - observed).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "non-empty footprint")]
    fn memory_mix_without_footprint_rejected() {
        let _ = TraceSpec::builder().instructions(10).mix(InstructionMix::memory_bound()).build();
    }

    #[test]
    fn try_build_reports_missing_footprint_as_error() {
        let err = TraceSpec::builder()
            .instructions(10)
            .mix(InstructionMix::memory_bound())
            .try_build()
            .unwrap_err();
        assert_eq!(err, TraceSpecError::MemoryMixWithoutFootprint);
        assert!(err.to_string().contains("non-empty footprint"));
    }

    #[test]
    fn try_build_reports_out_of_range_rates() {
        let bad_branch = TraceSpec::builder().branch_mispredict_rate(1.5).try_build().unwrap_err();
        assert_eq!(bad_branch, TraceSpecError::BranchRateOutOfRange(1.5));
        assert!(bad_branch.to_string().contains("out of range"));
        let bad_dep = TraceSpec::builder().dependency_rate(-0.1).try_build().unwrap_err();
        assert_eq!(bad_dep, TraceSpecError::DependencyRateOutOfRange(-0.1));
    }

    #[test]
    fn try_build_accepts_valid_specs() {
        let s = TraceSpec::builder()
            .instructions(5)
            .mix(InstructionMix::memory_bound())
            .footprint(MemRegion::new(0x1000, 4096))
            .try_build()
            .unwrap();
        assert_eq!(s.instructions(), 5);
    }

    #[test]
    fn source_and_iter_agree() {
        use crate::block::{InstBlock, TraceSource};
        let s = spec(21, 3000);
        let mut src = s.source();
        let mut block = InstBlock::new();
        let mut from_source = Vec::new();
        while src.fill(&mut block) > 0 {
            from_source.extend(block.iter());
        }
        let from_iter: Vec<Instruction> = s.iter().collect();
        assert_eq!(from_source, from_iter);
    }

    #[test]
    fn pure_compute_spec_needs_no_footprint() {
        let s = TraceSpec::builder()
            .instructions(100)
            .mix(InstructionMix::from_weights(&[(InstKind::IntAlu, 0.8), (InstKind::Branch, 0.2)]))
            .build();
        assert_eq!(s.iter().count(), 100);
        assert!(s.iter().all(|i| !i.kind.is_memory()));
    }

    #[test]
    fn cloned_spec_replays_identically() {
        let s = spec(123, 500);
        let s2 = s.clone();
        assert!(s.iter().eq(s2.iter()));
    }
}
