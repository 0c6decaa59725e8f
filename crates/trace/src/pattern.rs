//! Memory access patterns.
//!
//! Each benchmark kernel in the paper is characterized by how it walks
//! memory ("strided memory accesses", "irregular memory accesses", "atomic
//! operations", "high data reuse", ...). An [`AccessPattern`] is a compact,
//! serializable description of such a walk; [`AddressStream`] is the
//! stateful generator that turns it into concrete addresses inside a task
//! instance's footprint.

use crate::inst::InstKind;
use crate::region::MemRegion;
use taskpoint_stats::rng::Xoshiro256pp;

/// Description of how a task instance's memory operations walk its
/// footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Pure streaming: consecutive accesses advance by `stride` bytes and
    /// wrap at the footprint end. `stride == access size` models unit-stride
    /// vector code; larger strides model column walks.
    Sequential {
        /// Bytes between consecutive accesses.
        stride: u32,
    },
    /// `streams` independent sequential streams visited round-robin, each
    /// advancing by `stride`. Models row+halo accesses of convolutions and
    /// stencils (one stream per matrix row / plane).
    Strided {
        /// Bytes between consecutive accesses of one stream.
        stride: u32,
        /// Number of interleaved streams (≥ 1).
        streams: u32,
    },
    /// Uniformly random accesses over the footprint. Models hash tables and
    /// canneal's random element swaps.
    Random,
    /// Random accesses with reuse: with probability `hot_probability` the
    /// access falls in the first `hot_fraction` of the footprint. Models
    /// gather-heavy kernels (n-body neighbor lists, spmv source vector).
    Gather {
        /// Probability of hitting the hot subset.
        hot_probability: f64,
        /// Fraction of the footprint that is hot (0 < f ≤ 1).
        hot_fraction: f64,
    },
    /// Dependent chain through the footprint (next address derived from the
    /// previous one). Models linked data structures (freqmine's FP-tree,
    /// dedup's hash chains).
    PointerChase,
    /// `planes` parallel sequential walks separated by `plane_stride` bytes,
    /// advancing together; models 3D stencils touching z-1/z/z+1 planes.
    Stencil {
        /// Number of planes touched per sweep position (≥ 1).
        planes: u32,
        /// Byte distance between consecutive planes.
        plane_stride: u64,
    },
}

impl AccessPattern {
    /// Unit-stride sequential access with the given stride in bytes.
    pub fn sequential(stride: u32) -> Self {
        AccessPattern::Sequential { stride }
    }

    /// Convenience constructor for [`AccessPattern::Strided`].
    pub fn strided(stride: u32, streams: u32) -> Self {
        AccessPattern::Strided { stride, streams }
    }

    /// Three words that tell patterns apart bit for bit: a variant tag and
    /// the variant's two parameters (zero where it has fewer), floats as
    /// their bit patterns. Patterns with equal bits walk memory
    /// identically.
    #[inline]
    pub fn bits(&self) -> [u64; 3] {
        match *self {
            AccessPattern::Sequential { stride } => [0, u64::from(stride), 0],
            AccessPattern::Strided { stride, streams } => {
                [1, u64::from(stride), u64::from(streams)]
            }
            AccessPattern::Random => [2, 0, 0],
            AccessPattern::Gather { hot_probability, hot_fraction } => {
                [3, hot_probability.to_bits(), hot_fraction.to_bits()]
            }
            AccessPattern::PointerChase => [4, 0, 0],
            AccessPattern::Stencil { planes, plane_stride } => [5, u64::from(planes), plane_stride],
        }
    }

    /// Validates parameter ranges; called by the trace builder.
    ///
    /// # Panics
    ///
    /// Panics on a zero stride/stream/plane count or an out-of-range
    /// probability/fraction.
    pub fn validate(&self) {
        match *self {
            AccessPattern::Sequential { stride } => assert!(stride > 0, "zero stride"),
            AccessPattern::Strided { stride, streams } => {
                assert!(stride > 0, "zero stride");
                assert!(streams > 0, "zero streams");
            }
            AccessPattern::Random | AccessPattern::PointerChase => {}
            AccessPattern::Gather { hot_probability, hot_fraction } => {
                assert!(
                    (0.0..=1.0).contains(&hot_probability),
                    "hot_probability {hot_probability} out of range"
                );
                assert!(
                    hot_fraction > 0.0 && hot_fraction <= 1.0,
                    "hot_fraction {hot_fraction} out of range"
                );
            }
            AccessPattern::Stencil { planes, plane_stride } => {
                assert!(planes > 0, "zero planes");
                assert!(plane_stride > 0, "zero plane stride");
            }
        }
    }
}

impl Default for AccessPattern {
    fn default() -> Self {
        AccessPattern::sequential(8)
    }
}

/// Stateful address generator for one task instance.
///
/// Created per trace iteration; deterministic given the same RNG stream.
#[derive(Debug, Clone)]
pub struct AddressStream {
    pattern: AccessPattern,
    footprint: MemRegion,
    shared: MemRegion,
    /// Per-stream offsets for Sequential/Strided/Stencil; chase cursor for
    /// PointerChase.
    offsets: Vec<u64>,
    turn: usize,
}

/// Default access size in bytes for generated memory operations.
pub const ACCESS_SIZE: u8 = 8;

impl AddressStream {
    /// Creates a stream over `footprint`; atomics are directed at `shared`
    /// when it is non-empty (shared histogram bins, reduction cells, ...).
    ///
    /// `instance_seed` randomizes where a *sequential* walk starts inside
    /// the footprint (line-aligned): two instances working on the same
    /// block touch different windows of it, as different inputs would.
    /// Strided and stencil walks keep their structural origins.
    ///
    /// # Panics
    ///
    /// Panics if `footprint` is empty (an address stream needs memory) or
    /// the pattern parameters are invalid.
    pub fn new(
        pattern: AccessPattern,
        footprint: MemRegion,
        shared: MemRegion,
        instance_seed: u64,
    ) -> Self {
        assert!(!footprint.is_empty(), "address stream over empty footprint");
        pattern.validate();
        let offsets = match pattern {
            AccessPattern::Strided { streams, .. } => {
                // Spread stream origins evenly across the footprint.
                let step = footprint.len / streams as u64;
                (0..streams as u64).map(|i| i * step).collect()
            }
            AccessPattern::Stencil { planes, plane_stride } => {
                (0..planes as u64).map(|i| i * plane_stride).collect()
            }
            AccessPattern::Sequential { .. } => {
                let mut st = instance_seed ^ 0x5E0F_F5E7_0000_0001;
                let lines = (footprint.len / 64).max(1);
                let start = (taskpoint_stats::rng::splitmix64(&mut st) % lines) * 64;
                vec![start]
            }
            _ => vec![0],
        };
        Self { pattern, footprint, shared, offsets, turn: 0 }
    }

    /// Fills the address/size columns of a block for the given kind
    /// column: memory kinds receive the next effective address (and
    /// [`ACCESS_SIZE`]), non-memory kinds receive zeros. Appends one
    /// entry per kind to each column.
    ///
    /// Produces *exactly* the sequence of per-instruction
    /// [`AddressStream::next_addr`] calls would — including the data-RNG
    /// draw order — but hoists the pattern dispatch out of the inner loop
    /// and specializes the hottest walks. Both columns grow once per
    /// call and the memory slots are written in place. Pinned against
    /// the one-at-a-time path by the block-pipeline equivalence tests.
    pub fn fill_addrs(
        &mut self,
        kinds: &[InstKind],
        addrs: &mut Vec<u64>,
        sizes: &mut Vec<u8>,
        rng: &mut Xoshiro256pp,
    ) {
        sizes.extend(kinds.iter().map(|k| if k.is_memory() { ACCESS_SIZE } else { 0 }));
        let start = addrs.len();
        addrs.resize(start + kinds.len(), 0);
        let out = &mut addrs[start..];
        // Atomics divert to the shared region when one exists — a per-kind
        // decision, so only the generic loop applies.
        if !self.shared.is_empty() {
            fill_memory_slots(out, kinds, |kind| self.next_addr(kind, rng));
            return;
        }
        match self.pattern {
            AccessPattern::Sequential { stride } => {
                let footprint = self.footprint;
                let mut off = self.offsets[0];
                fill_memory_slots(out, kinds, |_| {
                    let addr = footprint.wrap(off);
                    off = off.wrapping_add(stride as u64);
                    addr
                });
                self.offsets[0] = off;
            }
            AccessPattern::Random => {
                let slots = (self.footprint.len / ACCESS_SIZE as u64).max(1);
                let base = self.footprint.base;
                fill_memory_slots(out, kinds, |_| {
                    base + rng.next_below(slots) * ACCESS_SIZE as u64
                });
            }
            AccessPattern::Gather { hot_probability, hot_fraction } => {
                let (hot_slots, all_slots) = self.gather_slots(hot_fraction);
                let base = self.footprint.base;
                fill_memory_slots(out, kinds, |_| {
                    let slots = if rng.next_bool(hot_probability) { hot_slots } else { all_slots };
                    base + rng.next_below(slots) * ACCESS_SIZE as u64
                });
            }
            AccessPattern::PointerChase => {
                let slots = (self.footprint.len / ACCESS_SIZE as u64).max(1);
                // A power-of-two slot count (freqmine's tree) reduces the
                // hash with a mask, which equals `%` for those counts.
                if slots.is_power_of_two() {
                    self.chase(kinds, out, |h| h & (slots - 1));
                } else {
                    self.chase(kinds, out, |h| h % slots);
                }
            }
            // Multi-stream walks: per-access generation, but the pattern
            // dispatch still happens once per block.
            _ => fill_memory_slots(out, kinds, |kind| self.next_addr(kind, rng)),
        }
    }

    /// Slot counts of a gather's hot subset and of the whole footprint.
    fn gather_slots(&self, hot_fraction: f64) -> (u64, u64) {
        let hot_len = ((self.footprint.len as f64 * hot_fraction) as u64)
            .clamp(ACCESS_SIZE as u64, self.footprint.len);
        let slots = |len: u64| (len / ACCESS_SIZE as u64).max(1);
        (slots(hot_len), slots(self.footprint.len))
    }

    /// The next slot of a pointer chase after `cursor`, before reduction
    /// to the slot count.
    fn chase_hash(cursor: u64) -> u64 {
        // Mix the previous cursor into the next slot index: a
        // deterministic dependent chain with no spatial locality.
        let mut st = cursor ^ 0xA076_1D64_78BD_642F;
        taskpoint_stats::rng::splitmix64(&mut st)
    }

    /// The pointer-chase walk over a kind column, reducing each hash to a
    /// slot with `reduce`.
    fn chase(&mut self, kinds: &[InstKind], out: &mut [u64], reduce: impl Fn(u64) -> u64) {
        let base = self.footprint.base;
        let mut cursor = self.offsets[0];
        fill_memory_slots(out, kinds, |_| {
            cursor = reduce(Self::chase_hash(cursor));
            base + cursor * ACCESS_SIZE as u64
        });
        self.offsets[0] = cursor;
    }

    /// Produces the next effective address for an instruction of `kind`.
    ///
    /// Atomic operations target the shared region when one exists so that
    /// different task instances contend on the same lines (the coherence
    /// traffic the paper attributes to "invalidating data residing in remote
    /// caches").
    pub fn next_addr(&mut self, kind: InstKind, rng: &mut Xoshiro256pp) -> u64 {
        if kind == InstKind::Atomic && !self.shared.is_empty() {
            // Atomics hit a random shared cell, aligned to the access size.
            let cells = (self.shared.len / ACCESS_SIZE as u64).max(1);
            return self.shared.base + rng.next_below(cells) * ACCESS_SIZE as u64;
        }
        match self.pattern {
            AccessPattern::Sequential { stride } => {
                let addr = self.footprint.wrap(self.offsets[0]);
                self.offsets[0] = self.offsets[0].wrapping_add(stride as u64);
                addr
            }
            AccessPattern::Strided { stride, streams } => {
                let s = self.turn % streams as usize;
                self.turn = self.turn.wrapping_add(1);
                let addr = self.footprint.wrap(self.offsets[s]);
                self.offsets[s] = self.offsets[s].wrapping_add(stride as u64);
                addr
            }
            AccessPattern::Random => {
                let slots = (self.footprint.len / ACCESS_SIZE as u64).max(1);
                self.footprint.base + rng.next_below(slots) * ACCESS_SIZE as u64
            }
            AccessPattern::Gather { hot_probability, hot_fraction } => {
                let (hot_slots, all_slots) = self.gather_slots(hot_fraction);
                let slots = if rng.next_bool(hot_probability) { hot_slots } else { all_slots };
                self.footprint.base + rng.next_below(slots) * ACCESS_SIZE as u64
            }
            AccessPattern::PointerChase => {
                let slots = (self.footprint.len / ACCESS_SIZE as u64).max(1);
                let next = Self::chase_hash(self.offsets[0]) % slots;
                self.offsets[0] = next;
                self.footprint.base + next * ACCESS_SIZE as u64
            }
            AccessPattern::Stencil { planes, plane_stride: _ } => {
                let p = self.turn % planes as usize;
                self.turn = self.turn.wrapping_add(1);
                let addr = self.footprint.wrap(self.offsets[p]);
                // All planes advance in lockstep once the last one was used.
                if p as u32 == planes - 1 {
                    for o in &mut self.offsets {
                        *o = o.wrapping_add(ACCESS_SIZE as u64);
                    }
                }
                addr
            }
        }
    }
}

/// Writes `next(kind)` into the slot of every memory kind, in kind
/// order, and leaves the other slots as they are.
#[inline(always)]
fn fill_memory_slots(out: &mut [u64], kinds: &[InstKind], mut next: impl FnMut(InstKind) -> u64) {
    for (slot, &kind) in out.iter_mut().zip(kinds) {
        if kind.is_memory() {
            *slot = next(kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> MemRegion {
        MemRegion::new(0x10_0000, 4096)
    }

    #[test]
    fn sequential_advances_by_stride_and_wraps() {
        let mut s = AddressStream::new(AccessPattern::sequential(64), fp(), MemRegion::empty(), 0);
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let a0 = s.next_addr(InstKind::Load, &mut rng);
        let a1 = s.next_addr(InstKind::Load, &mut rng);
        assert_eq!(a1 - a0, 64);
        // 4096/64 = 64 accesses wrap around
        for _ in 0..62 {
            s.next_addr(InstKind::Load, &mut rng);
        }
        let wrapped = s.next_addr(InstKind::Load, &mut rng);
        assert_eq!(wrapped, a0);
    }

    #[test]
    fn bits_tell_every_pattern_apart() {
        let patterns = [
            AccessPattern::sequential(8),
            AccessPattern::strided(8, 1),
            AccessPattern::Random,
            AccessPattern::Gather { hot_probability: 0.0, hot_fraction: 1.0 },
            AccessPattern::Gather { hot_probability: -0.0, hot_fraction: 1.0 },
            AccessPattern::PointerChase,
            AccessPattern::Stencil { planes: 8, plane_stride: 1 },
        ];
        for (i, a) in patterns.iter().enumerate() {
            for (j, b) in patterns.iter().enumerate() {
                assert_eq!(a.bits() == b.bits(), i == j, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn all_patterns_stay_inside_footprint() {
        let patterns = [
            AccessPattern::sequential(8),
            AccessPattern::strided(128, 4),
            AccessPattern::Random,
            AccessPattern::Gather { hot_probability: 0.8, hot_fraction: 0.1 },
            AccessPattern::PointerChase,
            AccessPattern::Stencil { planes: 3, plane_stride: 1024 },
        ];
        for p in patterns {
            let mut s = AddressStream::new(p, fp(), MemRegion::empty(), 0);
            let mut rng = Xoshiro256pp::seed_from_u64(3);
            for i in 0..10_000 {
                let a = s.next_addr(InstKind::Load, &mut rng);
                assert!(fp().contains(a), "{p:?} access {i} at {a:#x} escaped");
            }
        }
    }

    #[test]
    fn atomics_hit_shared_region() {
        let shared = MemRegion::new(0x900_0000, 256);
        let mut s = AddressStream::new(AccessPattern::Random, fp(), shared, 0);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        for _ in 0..1000 {
            let a = s.next_addr(InstKind::Atomic, &mut rng);
            assert!(shared.contains(a));
        }
        // Plain loads still hit the private footprint.
        let a = s.next_addr(InstKind::Load, &mut rng);
        assert!(fp().contains(a));
    }

    #[test]
    fn gather_prefers_hot_subset() {
        let region = MemRegion::new(0, 1 << 20);
        let mut s = AddressStream::new(
            AccessPattern::Gather { hot_probability: 0.9, hot_fraction: 0.01 },
            region,
            MemRegion::empty(),
            0,
        );
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let hot_end = region.base + (region.len as f64 * 0.01) as u64;
        let n = 20_000;
        let hot_hits = (0..n).filter(|_| s.next_addr(InstKind::Load, &mut rng) < hot_end).count();
        let frac = hot_hits as f64 / n as f64;
        // 90% targeted + ~1% of the cold accesses landing in the hot range.
        assert!(frac > 0.85, "hot fraction {frac}");
    }

    #[test]
    fn pointer_chase_is_deterministic_chain() {
        let mk = || AddressStream::new(AccessPattern::PointerChase, fp(), MemRegion::empty(), 0);
        let mut a = mk();
        let mut b = mk();
        let mut rng1 = Xoshiro256pp::seed_from_u64(6);
        let mut rng2 = Xoshiro256pp::seed_from_u64(6);
        for _ in 0..100 {
            assert_eq!(
                a.next_addr(InstKind::Load, &mut rng1),
                b.next_addr(InstKind::Load, &mut rng2)
            );
        }
    }

    #[test]
    fn stencil_touches_distinct_planes() {
        let mut s = AddressStream::new(
            AccessPattern::Stencil { planes: 3, plane_stride: 1024 },
            fp(),
            MemRegion::empty(),
            0,
        );
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let a0 = s.next_addr(InstKind::Load, &mut rng);
        let a1 = s.next_addr(InstKind::Load, &mut rng);
        let a2 = s.next_addr(InstKind::Load, &mut rng);
        assert_eq!(a1 - a0, 1024);
        assert_eq!(a2 - a1, 1024);
        // next sweep position advances all planes by the access size
        let a3 = s.next_addr(InstKind::Load, &mut rng);
        assert_eq!(a3 - a0, ACCESS_SIZE as u64);
    }

    #[test]
    #[should_panic(expected = "empty footprint")]
    fn empty_footprint_rejected() {
        let _ =
            AddressStream::new(AccessPattern::Random, MemRegion::empty(), MemRegion::empty(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_gather_rejected() {
        AccessPattern::Gather { hot_probability: 1.5, hot_fraction: 0.5 }.validate();
    }
}
