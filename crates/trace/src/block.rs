//! Batched instruction blocks and the [`TraceSource`] abstraction.
//!
//! The detailed hot path of the simulator consumes millions of trace
//! instructions. Producing them one `Option<Instruction>` at a time through
//! an iterator puts a branchy, cache-unfriendly dispatch between the trace
//! generator and the core model. This module replaces that boundary with a
//! batched, structure-of-arrays pipeline:
//!
//! * [`InstBlock`] — a fixed-capacity block holding parallel `kind` /
//!   `addr` / `size` arrays (SoA), refilled in bulk and consumed linearly
//!   by the core model;
//! * [`TraceSource`] — the producer abstraction: anything that can refill
//!   an `InstBlock` ([`TraceSource::fill`]). Implemented by
//!   [`SpecSource`] (the procedural generator behind
//!   [`TraceSpec`](crate::TraceSpec), current behavior) and by
//!   [`RecordedTrace`] (a pre-recorded stream in the
//!   [`encode`](crate::encode) binary format, streamed via `bytes::Buf`) —
//!   which makes real recorded traces a first-class simulator input.
//!
//! Both sources produce *identical* instruction sequences for identical
//! content: `SpecSource` draws from the same RNG streams in the same order
//! as the legacy iterator (which is now a thin shim over a `SpecSource`,
//! see [`TraceIter`](crate::TraceIter)), and `RecordedTrace` replays
//! whatever was encoded, byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::column::SharedKindColumn;
use crate::encode::DecodeError;
use crate::inst::{InstKind, Instruction};
use crate::pattern::AddressStream;
use bytes::Bytes;
use taskpoint_stats::rng::Xoshiro256pp;

/// Default capacity of an [`InstBlock`] in instructions.
///
/// Large enough to amortize refill overhead, small enough that a block of
/// three parallel arrays (~2.5 KiB) stays L1-resident while the core model
/// walks it.
pub const BLOCK_CAPACITY: usize = 256;

/// Process-wide count of [`InstBlock`] constructions.
///
/// Blocks sit on the simulator's detailed hot path; allocating one per
/// task (instead of recycling per worker) costs three heap allocations per
/// task boundary. This counter lets allocation-discipline tests assert the
/// engine's recycling actually holds — it is a plain relaxed counter, so
/// its overhead is a single uncontended atomic increment per *block*, not
/// per instruction.
static BLOCKS_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// A fixed-capacity batch of trace instructions in structure-of-arrays
/// layout.
///
/// The three arrays are always parallel and equally long: non-memory
/// instructions carry `addr == 0` and `size == 0`, exactly like
/// [`Instruction::compute`]. Consumers on the hot path read the
/// [`kinds`](InstBlock::kinds) / [`addrs`](InstBlock::addrs) slices
/// directly; [`InstBlock::get`] and [`InstBlock::iter`] provide the AoS
/// view for tests and tools.
#[derive(Debug, Clone)]
pub struct InstBlock {
    kinds: Vec<InstKind>,
    addrs: Vec<u64>,
    sizes: Vec<u8>,
    capacity: usize,
}

impl InstBlock {
    /// An empty block with the default [`BLOCK_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(BLOCK_CAPACITY)
    }

    /// An empty block with an explicit capacity (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "instruction block needs capacity >= 1");
        BLOCKS_ALLOCATED.fetch_add(1, Ordering::Relaxed);
        Self {
            kinds: Vec::with_capacity(capacity),
            addrs: Vec::with_capacity(capacity),
            sizes: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Total number of `InstBlock`s constructed by this process so far
    /// (monotonic; never reset). Subtract two readings to count the
    /// blocks a region of code allocated — see the engine's
    /// block-recycling tests.
    pub fn blocks_allocated() -> u64 {
        BLOCKS_ALLOCATED.load(Ordering::Relaxed)
    }

    /// Number of instructions currently in the block.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The block's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free instruction slots left before the block is full.
    pub fn remaining_capacity(&self) -> usize {
        self.capacity - self.len()
    }

    /// Empties the block (capacity is retained).
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.addrs.clear();
        self.sizes.clear();
    }

    /// Appends a non-memory instruction.
    ///
    /// # Panics
    ///
    /// Panics if the block is full; debug-panics if `kind` is a memory kind
    /// (those must carry an address, use [`InstBlock::push_memory`]).
    pub fn push_compute(&mut self, kind: InstKind) {
        debug_assert!(!kind.is_memory(), "memory instruction without address");
        assert!(self.len() < self.capacity, "instruction block overflow");
        self.kinds.push(kind);
        self.addrs.push(0);
        self.sizes.push(0);
    }

    /// Appends a memory instruction with its effective address and size.
    ///
    /// # Panics
    ///
    /// Panics if the block is full; debug-panics if `kind` is not a memory
    /// kind.
    pub fn push_memory(&mut self, kind: InstKind, addr: u64, size: u8) {
        debug_assert!(kind.is_memory(), "non-memory instruction with address");
        assert!(self.len() < self.capacity, "instruction block overflow");
        self.kinds.push(kind);
        self.addrs.push(addr);
        self.sizes.push(size);
    }

    /// Appends any instruction (dispatching on its kind).
    pub fn push(&mut self, inst: Instruction) {
        if inst.kind.is_memory() {
            self.push_memory(inst.kind, inst.addr, inst.size);
        } else {
            self.push_compute(inst.kind);
        }
    }

    /// The parallel kind array.
    pub fn kinds(&self) -> &[InstKind] {
        &self.kinds
    }

    /// The parallel effective-address array (0 for non-memory kinds).
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The parallel access-size array (0 for non-memory kinds).
    pub fn sizes(&self) -> &[u8] {
        &self.sizes
    }

    /// The `i`-th instruction as an AoS value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Instruction {
        Instruction { kind: self.kinds[i], addr: self.addrs[i], size: self.sizes[i] }
    }

    /// Iterates the block's instructions as AoS values.
    pub fn iter(&self) -> impl Iterator<Item = Instruction> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl Default for InstBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// A producer of trace instructions in block-sized batches.
///
/// This is the boundary between trace representation (procedural spec,
/// recorded file, future ingestion formats) and the simulator's detailed
/// hot path: the engine refills one block at a time and the core model
/// consumes the SoA arrays linearly.
pub trait TraceSource {
    /// Clears `block` and refills it with up to `block.capacity()`
    /// instructions from the stream; returns the number appended.
    ///
    /// A return of `0` means the stream is exhausted; `fill` must keep
    /// returning `0` afterwards.
    fn fill(&mut self, block: &mut InstBlock) -> usize;
}

/// The procedural trace generator behind a [`TraceSpec`](crate::TraceSpec),
/// in batched form.
///
/// Copies instruction kinds out of a [`KindColumn`](crate::KindColumn) —
/// the kind sequence all instances of the task type share, drawn from the
/// code RNG — and draws addresses from the data RNG in exactly the
/// per-instruction order the legacy iterator used, so a `SpecSource` and
/// `spec.iter()` produce bit-identical streams. The column is private to the source when it
/// comes from [`TraceSpec::source`](crate::TraceSpec::source) and shared
/// with the type's other instances when it comes from
/// [`KindColumns::source`](crate::KindColumns::source); the stream is the
/// same either way.
#[derive(Debug, Clone)]
pub struct SpecSource {
    remaining: u64,
    /// The type's kind sequence (its "machine code").
    kinds: SharedKindColumn,
    /// Index of the next kind to copy out of `kinds`.
    next_kind: usize,
    /// Drives data-dependent choices (addresses).
    data_rng: Xoshiro256pp,
    addresses: Option<AddressStream>,
}

impl SpecSource {
    pub(crate) fn new(
        remaining: u64,
        kinds: SharedKindColumn,
        data_rng: Xoshiro256pp,
        addresses: Option<AddressStream>,
    ) -> Self {
        Self { remaining, kinds, next_kind: 0, data_rng, addresses }
    }

    /// Instructions left in the stream.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl TraceSource for SpecSource {
    fn fill(&mut self, block: &mut InstBlock) -> usize {
        block.clear();
        let n = (block.capacity() as u64).min(self.remaining) as usize;
        // Phase 1: the kind column (code RNG only, drawn once per column).
        self.kinds.borrow_mut().copy_into(self.next_kind, n, &mut block.kinds);
        self.next_kind += n;
        // Phase 2: the address/size columns (data RNG only). The phases
        // consume disjoint RNG streams, so splitting them preserves each
        // stream's draw order and the block equals the per-instruction
        // interleaving bit for bit.
        match self.addresses.as_mut() {
            Some(stream) => stream.fill_addrs(
                &block.kinds,
                &mut block.addrs,
                &mut block.sizes,
                &mut self.data_rng,
            ),
            None => {
                // Unreachable for specs built through `TraceSpecBuilder`:
                // a memory-carrying mix without a footprint is rejected at
                // build time (`TraceSpecError::MemoryMixWithoutFootprint`).
                assert!(
                    !block.kinds.iter().any(|k| k.is_memory()),
                    "memory instruction from a spec without footprint (rejected at build)"
                );
                block.addrs.resize(n, 0);
                block.sizes.resize(n, 0);
            }
        }
        self.remaining -= n as u64;
        n
    }
}

/// A pre-recorded instruction stream in the [`encode`](crate::encode)
/// binary format, replayed as a [`TraceSource`].
///
/// The whole buffer is validated once at construction (record framing and
/// kind discriminants), after which [`TraceSource::fill`] streams records
/// without further error paths. Storage is an `Arc<[u8]>` plus a read
/// cursor, so cloning a trace — which is how `tasksim::RecordedTraces`
/// hands a fresh source to the engine for every detailed task — shares
/// the encoded bytes instead of copying them. This is the ingestion point
/// for traces recorded from real executions: anything that writes the
/// `encode` record format (including the [`ingest`](crate::ingest)
/// frontend) can drive the detailed model.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    data: Arc<[u8]>,
    pos: usize,
    instructions: u64,
}

impl RecordedTrace {
    /// Wraps an encoded stream, validating every record.
    ///
    /// The bytes are copied once into shared storage; prefer
    /// [`RecordedTrace::from_arc`] when the caller already holds an
    /// `Arc<[u8]>`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if the buffer ends mid-record and
    /// [`DecodeError::BadKind`] for invalid kind bytes.
    pub fn new(bytes: Bytes) -> Result<Self, DecodeError> {
        Self::from_arc(Arc::from(bytes.as_ref()))
    }

    /// Wraps an already-shared encoded stream without copying, validating
    /// every record.
    ///
    /// # Errors
    ///
    /// Same as [`RecordedTrace::new`].
    pub fn from_arc(data: Arc<[u8]>) -> Result<Self, DecodeError> {
        let instructions = Self::validate(&data)?;
        Ok(Self { data, pos: 0, instructions })
    }

    /// Scans the record framing without materializing instructions;
    /// returns the record count.
    fn validate(mut data: &[u8]) -> Result<u64, DecodeError> {
        let mut count = 0u64;
        while let Some((&kind_byte, rest)) = data.split_first() {
            let kind = InstKind::from_u8(kind_byte).ok_or(DecodeError::BadKind(kind_byte))?;
            data = if kind.is_memory() {
                if rest.len() < 9 {
                    return Err(DecodeError::Truncated);
                }
                &rest[9..]
            } else {
                rest
            };
            count += 1;
        }
        Ok(count)
    }

    /// Total number of recorded instructions.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The encoded bytes not yet consumed by [`TraceSource::fill`].
    ///
    /// A clone resets nothing: it shares the same storage *and* keeps its
    /// own cursor, so cloning a freshly constructed trace yields a source
    /// positioned at the start of the whole stream.
    pub fn bytes(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl TraceSource for RecordedTrace {
    fn fill(&mut self, block: &mut InstBlock) -> usize {
        block.clear();
        let cap = block.capacity();
        let data: &[u8] = &self.data;
        while block.len() < cap && self.pos < data.len() {
            let kind = InstKind::from_u8(data[self.pos]).expect("validated at construction");
            self.pos += 1;
            if kind.is_memory() {
                let addr = u64::from_le_bytes(
                    data[self.pos..self.pos + 8].try_into().expect("validated at construction"),
                );
                let size = data[self.pos + 8];
                self.pos += 9;
                block.push_memory(kind, addr, size);
            } else {
                block.push_compute(kind);
            }
        }
        block.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::KindColumns;
    use crate::encode::encode;
    use crate::mix::InstructionMix;
    use crate::pattern::{AccessPattern, ACCESS_SIZE};
    use crate::region::MemRegion;
    use crate::spec::TraceSpec;

    fn spec(seed: u64, n: u64) -> TraceSpec {
        TraceSpec::builder()
            .seed(seed)
            .instructions(n)
            .mix(InstructionMix::balanced())
            .pattern(AccessPattern::strided(64, 2))
            .footprint(MemRegion::new(0x4000_0000, 1 << 16))
            .build()
    }

    /// Drains a source through repeated fills.
    fn drain(source: &mut dyn TraceSource, capacity: usize) -> Vec<Instruction> {
        let mut block = InstBlock::with_capacity(capacity);
        let mut out = Vec::new();
        while source.fill(&mut block) > 0 {
            out.extend(block.iter());
        }
        out
    }

    #[test]
    fn block_push_and_get_round_trip() {
        let mut b = InstBlock::with_capacity(4);
        assert!(b.is_empty());
        b.push(Instruction::compute(InstKind::IntAlu));
        b.push(Instruction::memory(InstKind::Load, 0xBEEF, 8));
        assert_eq!(b.len(), 2);
        assert_eq!(b.remaining_capacity(), 2);
        assert_eq!(b.get(0), Instruction::compute(InstKind::IntAlu));
        assert_eq!(b.get(1), Instruction::memory(InstKind::Load, 0xBEEF, 8));
        assert_eq!(b.kinds(), &[InstKind::IntAlu, InstKind::Load]);
        assert_eq!(b.addrs(), &[0, 0xBEEF]);
        assert_eq!(b.sizes(), &[0, 8]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn block_overflow_rejected() {
        let mut b = InstBlock::with_capacity(1);
        b.push_compute(InstKind::IntAlu);
        b.push_compute(InstKind::IntAlu);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = InstBlock::with_capacity(0);
    }

    #[test]
    fn spec_source_matches_iterator_for_any_capacity() {
        let s = spec(99, 5000);
        let via_iter: Vec<Instruction> = s.iter().collect();
        for capacity in [1, 7, 64, BLOCK_CAPACITY, 5000, 9000] {
            let got = drain(&mut s.source(), capacity);
            assert_eq!(got, via_iter, "capacity {capacity}");
        }
    }

    #[test]
    fn spec_source_reports_remaining() {
        let s = spec(3, 300);
        let mut src = s.source();
        assert_eq!(src.remaining(), 300);
        let mut block = InstBlock::with_capacity(128);
        assert_eq!(src.fill(&mut block), 128);
        assert_eq!(src.remaining(), 172);
        assert_eq!(src.fill(&mut block), 128);
        assert_eq!(src.fill(&mut block), 44);
        assert_eq!(src.remaining(), 0);
        assert_eq!(src.fill(&mut block), 0);
        assert_eq!(src.fill(&mut block), 0, "exhausted source stays exhausted");
    }

    /// The pre-refactor trace algorithm, reconstructed one instruction at
    /// a time from the public pieces: sample a kind, then (for memory
    /// kinds) draw the next address. Pins the batched/specialized fill
    /// paths to the original per-instruction semantics.
    fn naive_stream(s: &TraceSpec) -> Vec<Instruction> {
        let mut code_rng = Xoshiro256pp::seed_from_u64(s.code_seed());
        let mut data_rng = Xoshiro256pp::seed_from_u64(s.seed());
        let mut addresses = (!s.footprint().is_empty())
            .then(|| AddressStream::new(s.pattern(), s.footprint(), s.shared(), s.seed()));
        (0..s.instructions())
            .map(|_| {
                let kind = s.mix().sample(&mut code_rng);
                if kind.is_memory() {
                    let addr =
                        addresses.as_mut().expect("footprint").next_addr(kind, &mut data_rng);
                    Instruction::memory(kind, addr, ACCESS_SIZE)
                } else {
                    Instruction::compute(kind)
                }
            })
            .collect()
    }

    #[test]
    fn batched_fill_matches_per_instruction_algorithm_for_every_pattern() {
        let patterns = [
            AccessPattern::sequential(8),
            AccessPattern::sequential(192),
            AccessPattern::strided(128, 4),
            AccessPattern::Random,
            AccessPattern::Gather { hot_probability: 0.8, hot_fraction: 0.1 },
            AccessPattern::PointerChase,
            AccessPattern::Stencil { planes: 3, plane_stride: 1024 },
        ];
        // A power-of-two slot count and one that is not (the pointer
        // chase reduces its hash by mask or by `%`).
        let footprints =
            [MemRegion::new(0x4000_0000, 1 << 16), MemRegion::new(0x4000_0000, 49_160)];
        for (i, pattern) in patterns.into_iter().enumerate() {
            for mix in [InstructionMix::balanced(), InstructionMix::atomic_heavy()] {
                for shared in [MemRegion::empty(), MemRegion::new(0x9000_0000, 2048)] {
                    for footprint in footprints {
                        let s = TraceSpec::builder()
                            .seed(1000 + i as u64)
                            .code_seed(7)
                            .instructions(4000)
                            .mix(mix.clone())
                            .pattern(pattern)
                            .footprint(footprint)
                            .shared(shared)
                            .build();
                        let got = drain(&mut s.source(), 100);
                        assert_eq!(
                            got,
                            naive_stream(&s),
                            "pattern {pattern:?} shared {shared:?} footprint {footprint:?}"
                        );
                    }
                }
            }
        }
    }

    /// Specs of one task type: same code seed and mix, different data
    /// seeds, patterns and lengths.
    fn one_type(code_seed: u64, mix: &InstructionMix) -> Vec<TraceSpec> {
        let patterns =
            [AccessPattern::PointerChase, AccessPattern::Random, AccessPattern::sequential(8)];
        (0..3u64)
            .map(|i| {
                TraceSpec::builder()
                    .seed(500 + i)
                    .code_seed(code_seed)
                    .instructions(900 + 650 * i)
                    .mix(mix.clone())
                    .pattern(patterns[i as usize])
                    .footprint(MemRegion::new(0x4000_0000, 1 << 16))
                    .build()
            })
            .collect()
    }

    #[test]
    fn sources_sharing_a_column_match_per_instruction_algorithm_in_any_fill_order() {
        let specs = one_type(11, &InstructionMix::irregular_int());
        // Round-robin, reversed, and one source drained before the others.
        let orders: [&[usize]; 3] = [&[0, 1, 2], &[2, 1, 0], &[1, 1, 1, 1, 1, 1, 1, 0, 2]];
        for capacity in [1, 7, BLOCK_CAPACITY] {
            for order in orders {
                let columns = KindColumns::new();
                let mut sources: Vec<SpecSource> =
                    specs.iter().map(|s| columns.source(s)).collect();
                let mut got = vec![Vec::new(); specs.len()];
                let mut block = InstBlock::with_capacity(capacity);
                while sources.iter().any(|s| s.remaining() > 0) {
                    for &i in order {
                        if sources[i].fill(&mut block) > 0 {
                            got[i].extend(block.iter());
                        }
                    }
                }
                assert_eq!(columns.len(), 1, "one task type, one column");
                for (s, stream) in specs.iter().zip(&got) {
                    assert_eq!(*stream, naive_stream(s), "capacity {capacity}, order {order:?}");
                }
            }
        }
    }

    #[test]
    fn specs_differing_in_code_seed_or_mix_never_share_a_column() {
        let columns = KindColumns::new();
        let mut specs = one_type(1, &InstructionMix::balanced());
        specs.extend(one_type(2, &InstructionMix::balanced()));
        specs.extend(one_type(1, &InstructionMix::irregular_int()));
        for s in &specs {
            assert_eq!(drain(&mut columns.source(s), 64), naive_stream(s));
        }
        assert_eq!(columns.len(), 3);
        // Interleaving types does not mix their columns up either.
        let interleaved = KindColumns::new();
        let mut sources: Vec<SpecSource> =
            specs.iter().rev().map(|s| interleaved.source(s)).collect();
        let mut block = InstBlock::with_capacity(7);
        let mut got = vec![Vec::new(); specs.len()];
        while sources.iter().any(|s| s.remaining() > 0) {
            for (i, src) in sources.iter_mut().enumerate() {
                src.fill(&mut block);
                got[i].extend(block.iter());
            }
        }
        for (s, stream) in specs.iter().rev().zip(&got) {
            assert_eq!(*stream, naive_stream(s));
        }
        assert_eq!(interleaved.len(), 3);
    }

    #[test]
    fn standalone_spec_source_yields_the_pinned_streams() {
        // FNV-1a of the encoded streams, captured before kinds were drawn
        // into columns: a private column must not move a bit.
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        };
        let cases = [
            (AccessPattern::PointerChase, InstructionMix::irregular_int(), 0xd252_1129_91f9_8fd6),
            (
                AccessPattern::Gather { hot_probability: 0.7, hot_fraction: 0.05 },
                InstructionMix::compute_bound(),
                0x633d_1660_3f4d_6e1a,
            ),
            (AccessPattern::sequential(8), InstructionMix::atomic_heavy(), 0x9848_2ac6_a369_8eca),
        ];
        for (i, (pattern, mix, golden)) in cases.into_iter().enumerate() {
            let shared =
                if i == 2 { MemRegion::new(0x9000_0000, 4096) } else { MemRegion::empty() };
            let s = TraceSpec::builder()
                .seed(0xC0FFEE + i as u64)
                .code_seed(0xBEEF)
                .instructions(20_000)
                .mix(mix)
                .pattern(pattern)
                .footprint(MemRegion::new(0x4000_0000, 1 << 20))
                .shared(shared)
                .build();
            let stream = drain(&mut s.source(), BLOCK_CAPACITY);
            assert_eq!(stream, naive_stream(&s), "{pattern:?}");
            assert_eq!(fnv(encode(stream).as_ref()), golden, "{pattern:?}");
        }
    }

    #[test]
    fn pure_compute_fill_zeroes_address_columns() {
        let s = TraceSpec::builder()
            .instructions(500)
            .mix(InstructionMix::from_weights(&[(InstKind::IntAlu, 0.8), (InstKind::Branch, 0.2)]))
            .build();
        let mut src = s.source();
        let mut block = InstBlock::with_capacity(128);
        while src.fill(&mut block) > 0 {
            assert!(block.addrs().iter().all(|&a| a == 0));
            assert!(block.sizes().iter().all(|&z| z == 0));
            assert_eq!(block.addrs().len(), block.len());
            assert_eq!(block.sizes().len(), block.len());
        }
    }

    #[test]
    fn recorded_trace_replays_encoded_stream() {
        let s = spec(7, 2500);
        let original: Vec<Instruction> = s.iter().collect();
        let mut recorded = RecordedTrace::new(encode(original.iter().copied())).unwrap();
        assert_eq!(recorded.instructions(), 2500);
        let got = drain(&mut recorded, 100);
        assert_eq!(got, original);
    }

    #[test]
    fn recorded_trace_rejects_corrupt_input() {
        assert_eq!(
            RecordedTrace::new(Bytes::from(vec![0xFF])).unwrap_err(),
            DecodeError::BadKind(0xFF)
        );
        // A memory record cut short.
        let good = encode([Instruction::memory(InstKind::Store, 0x1000, 8)]);
        let cut = good.slice(0..good.len() - 1);
        assert_eq!(RecordedTrace::new(cut).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn cloned_recorded_trace_shares_bytes_and_replays_from_start() {
        let s = spec(5, 600);
        let original: Vec<Instruction> = s.iter().collect();
        let arc: Arc<[u8]> = Arc::from(encode(original.iter().copied()).as_ref());
        let fresh = RecordedTrace::from_arc(Arc::clone(&arc)).unwrap();
        // No copy at construction from an Arc: 1 (local) + 1 (trace) owners.
        assert_eq!(Arc::strong_count(&arc), 2);
        let mut a = fresh.clone();
        // Clones share the storage rather than duplicating it.
        assert_eq!(Arc::strong_count(&arc), 3);
        // Partially consume the first clone, then clone again: the second
        // clone resumes from the first's cursor (it is a snapshot), while a
        // clone of the untouched original replays from the start.
        let mut block = InstBlock::with_capacity(100);
        assert_eq!(a.fill(&mut block), 100);
        let mut resumed = a.clone();
        assert_eq!(resumed.bytes(), a.bytes());
        assert_eq!(drain(&mut resumed, 64), original[100..]);
        let replay = drain(&mut fresh.clone(), 64);
        assert_eq!(replay, original);
    }

    #[test]
    fn empty_recorded_trace_is_valid_and_exhausted() {
        let mut r = RecordedTrace::new(Bytes::from(Vec::new())).unwrap();
        assert_eq!(r.instructions(), 0);
        let mut block = InstBlock::new();
        assert_eq!(r.fill(&mut block), 0);
    }
}
