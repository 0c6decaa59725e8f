//! The multi-core memory hierarchy.
//!
//! Composes per-core private cache levels, shared levels with banked-
//! bandwidth queueing, a snoop-filter-based invalidation protocol and a
//! channelized DRAM model. Inter-thread interference — the effect TaskPoint
//! must model correctly when the number of active threads changes (paper
//! Fig. 4a) — arises here from two mechanisms:
//!
//! * **bandwidth queueing**: shared levels and DRAM channels are service
//!   queues (`next_free` timestamps); more concurrently active cores means
//!   more queueing delay per access;
//! * **coherence invalidations**: writes invalidate remote private copies
//!   through a bounded snoop filter, so data shared or migrated between
//!   tasks on different cores costs extra latency.
//!
//! # Modelling approximations (documented deviations)
//!
//! * The snoop filter is direct-mapped and bounded; hash collisions replace
//!   the previous entry without back-invalidating private caches, like a
//!   real (imprecise) snoop filter that has lost an entry. This bounds
//!   memory while keeping the common-case behaviour.
//! * Writebacks of dirty lines are not modelled (write-allocate,
//!   write-back caches with free writebacks) — they would add a roughly
//!   workload-independent bandwidth term.

use std::ops::Range;

use crate::cache::{AccessOutcome, SetAssocCache};
use crate::config::{MachineConfig, MAX_WORKERS};
use taskpoint_telemetry::Histogram;

/// Result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessResult {
    /// Load-to-use latency in cycles.
    pub latency: u64,
    /// True if the access missed all cache levels (went to DRAM).
    pub dram: bool,
    /// True if the access missed the first-level cache.
    pub l1_miss: bool,
    /// Cycles of `latency` spent waiting in shared-level / DRAM service
    /// queues (bandwidth contention); 0 for private-level hits.
    pub queue_delay: u64,
}

/// Aggregate cache statistics for reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LevelStats {
    /// Hits at this level.
    pub hits: u64,
    /// Misses at this level.
    pub misses: u64,
}

impl LevelStats {
    /// Hit rate; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

/// A bandwidth contention model with *time-bucketed utilization* accounting.
///
/// Because cores advance in bounded chunks, their local clocks skew by up
/// to one chunk and their accesses reach shared resources out of true time
/// order. A literal FIFO `next_free` clock is therefore unusable: whichever
/// core happens to be processed first claims all early service slots and
/// later-processed cores are charged phantom queue delays (order-dependent
/// unfairness, not contention).
///
/// Instead, each access is charged the *expected* waiting time of an M/D/1
/// server at the resource's recent utilization: `W = s·ρ / (2(1−ρ))`,
/// where `s` is the service time and `ρ` is estimated from the arrival
/// count of recent time buckets (bucket length = the engine's chunk bound,
/// smoothed across buckets). This is fair, deterministic and
/// order-independent under chunked interleaving, and it preserves the
/// behaviour TaskPoint depends on: delay grows with the number of
/// concurrently active cores. Utilization is capped below 1; the finite
/// MSHRs provide the back-pressure that bounds sustained overload, as in a
/// real machine.
#[derive(Debug, Clone)]
struct ServiceQueue {
    service: f64,
    bucket_len: u64,
    bucket: u64,
    arrivals: f64,
    /// Smoothed utilization estimate from completed buckets.
    rho: f64,
    /// The delay charged to every access of the current bucket: it
    /// depends only on `rho`, which changes only when the bucket does.
    delay: u64,
}

impl ServiceQueue {
    fn new(service: u64, bucket_len: u64) -> Self {
        Self {
            service: service as f64,
            bucket_len: bucket_len.max(1),
            bucket: 0,
            arrivals: 0.0,
            rho: 0.0,
            delay: 0,
        }
    }

    /// Registers an access at `now`; returns the expected queueing delay.
    ///
    /// The bucket index is `now / bucket_len` in integers; the `f64`
    /// quotient of the test oracle agrees with it for every `now < 2^53`.
    #[inline]
    fn delay(&mut self, now: u64) -> u64 {
        let b = now / self.bucket_len;
        if b != self.bucket {
            let inst_rho = (self.arrivals * self.service / self.bucket_len as f64).min(2.0);
            // Gentle smoothing: sharp per-bucket swings would make task
            // latency depend on bucket phase, an artifact rather than load.
            self.rho = 0.75 * self.rho + 0.25 * inst_rho;
            self.bucket = b;
            self.arrivals = 0.0;
            let rho = self.rho.min(0.90);
            self.delay = (self.service * rho / (2.0 * (1.0 - rho))).round() as u64;
        }
        self.arrivals += 1.0;
        self.delay
    }
}

/// Bounded, direct-mapped sharer tracker (a snoop filter).
#[derive(Debug, Clone)]
struct SnoopFilter {
    /// (line, sharer bitmask); line == u64::MAX marks an empty slot.
    entries: Vec<(u64, u64)>,
    mask: u64,
}

impl SnoopFilter {
    fn new(log2_entries: u32) -> Self {
        let n = 1usize << log2_entries;
        Self { entries: vec![(u64::MAX, 0); n], mask: (n - 1) as u64 }
    }

    #[inline]
    fn slot(&self, line: u64) -> usize {
        // Fibonacci hashing spreads consecutive lines across the filter.
        ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) & self.mask) as usize
    }

    /// Records `core` as a sharer of `line`; returns the previous mask if
    /// the entry already tracked this line, 0 otherwise.
    fn add_sharer(&mut self, line: u64, core: u32) -> u64 {
        let slot = self.slot(line);
        let e = &mut self.entries[slot];
        if e.0 == line {
            let prev = e.1;
            e.1 |= 1 << core;
            prev
        } else {
            // Collision or empty: (re)claim the slot for this line.
            *e = (line, 1 << core);
            0
        }
    }

    /// Makes `core` the exclusive owner of `line`; returns the mask of
    /// *other* cores that had copies (to invalidate).
    fn make_exclusive(&mut self, line: u64, core: u32) -> u64 {
        let slot = self.slot(line);
        let e = &mut self.entries[slot];
        let others = if e.0 == line { e.1 & !(1u64 << core) } else { 0 };
        *e = (line, 1 << core);
        others
    }
}

/// The complete memory system of the simulated machine.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    /// `private[level][core]`.
    private: Vec<Vec<SetAssocCache>>,
    /// Shared levels in order, each with its bandwidth queue.
    shared: Vec<(SetAssocCache, ServiceQueue)>,
    /// Latency of each private level (cycles).
    private_latency: Vec<u32>,
    /// Latency of each shared level (cycles).
    shared_latency: Vec<u32>,
    /// Per-channel DRAM service queues.
    dram_queues: Vec<ServiceQueue>,
    dram_latency: u32,
    line_shift: u32,
    snoop: SnoopFilter,
    coherence_penalty: u32,
    invalidations: u64,
    dram_accesses: u64,
    /// Per-core last-accessed line, for the stream prefetcher's
    /// sequential-confirmation check.
    prefetch_last: Vec<u64>,
    prefetches: u64,
    /// Total cycles requests spent waiting in shared-level and DRAM
    /// service queues (bandwidth contention).
    queue_delay_cycles: u64,
    /// Accesses that hit a non-empty service queue (paid any queue delay).
    contended_accesses: u64,
    /// Always-on log₂ distribution of demand-access latencies (loads,
    /// stores, atomics — everything through [`MemorySystem::access`]).
    access_latency: Histogram,
}

impl MemorySystem {
    /// Builds the hierarchy for `cores` cores from a machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `cores` is outside
    /// `1..=`[`MAX_WORKERS`].
    pub fn new(config: &MachineConfig, cores: u32) -> Self {
        config.validate();
        assert!((1..=MAX_WORKERS).contains(&cores), "1..={MAX_WORKERS} cores supported");
        let mut private = Vec::new();
        let mut private_latency = Vec::new();
        let mut shared = Vec::new();
        let mut shared_latency = Vec::new();
        let bucket = config.chunk_cycles;
        for level in &config.caches {
            if level.shared {
                shared.push((
                    SetAssocCache::new(level.size_bytes, level.associativity, config.line_size),
                    ServiceQueue::new(level.service_cycles as u64, bucket),
                ));
                shared_latency.push(level.latency);
            } else {
                assert!(
                    shared.is_empty(),
                    "private level {} below a shared level is not supported",
                    level.name
                );
                private.push(
                    (0..cores)
                        .map(|_| {
                            SetAssocCache::new(
                                level.size_bytes,
                                level.associativity,
                                config.line_size,
                            )
                        })
                        .collect(),
                );
                private_latency.push(level.latency);
            }
        }
        // Coherence penalty: one round trip through the first shared point
        // (or DRAM latency when there is none).
        let coherence_penalty = shared_latency.first().copied().unwrap_or(config.memory.latency);
        Self {
            private,
            shared,
            private_latency,
            shared_latency,
            dram_queues: (0..config.memory.channels)
                .map(|_| ServiceQueue::new(config.memory.service_cycles as u64, bucket))
                .collect(),
            dram_latency: config.memory.latency,
            line_shift: config.line_size.trailing_zeros(),
            snoop: SnoopFilter::new(16),
            coherence_penalty,
            invalidations: 0,
            dram_accesses: 0,
            prefetch_last: vec![u64::MAX - 1; cores as usize],
            prefetches: 0,
            queue_delay_cycles: 0,
            contended_accesses: 0,
            access_latency: Histogram::new(),
        }
    }

    /// Converts a byte address to a line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Fills every shared level, without cost or statistics, with the
    /// lines an initialization walk touched, given as disjoint runs most
    /// recent first (see [`SetAssocCache::fill_runs`]). Models application
    /// data that was initialized before the simulated region of interest
    /// (trace-driven simulators start with the OS/init phase already
    /// executed, so main memory structures are LLC-warm). Private levels
    /// stay cold; TaskPoint's warmup exists to heat those.
    ///
    /// Must run on a fresh memory system, before any access.
    pub(crate) fn prewarm_shared(&mut self, runs: &[Range<u64>]) {
        for (cache, _) in &mut self.shared {
            cache.fill_runs(runs);
        }
    }

    /// Total capacity of the last shared level in lines (0 when none).
    pub fn last_level_capacity_lines(&self) -> usize {
        self.shared.last().map(|(c, _)| c.capacity_lines()).unwrap_or(0)
    }

    /// Performs a load (`write == false`) or a store/atomic (`write ==
    /// true`) by core `core` at absolute cycle `now`; returns the latency
    /// and miss classification.
    ///
    /// Stores still update cache and coherence state, but callers typically
    /// ignore their latency (write buffers); atomics add their own
    /// serialization cost in the core model.
    pub fn access(&mut self, core: u32, addr: u64, write: bool, now: u64) -> MemAccessResult {
        let line = self.line_of(addr);
        let c = core as usize;

        // 1. Private levels, closest first (misses write-allocate on the
        // way, so lower levels are filled as the request descends).
        let mut hit_latency: Option<u64> = None;
        let mut l1_miss = false;
        for (lvl, caches) in self.private.iter_mut().enumerate() {
            match caches[c].access(line) {
                AccessOutcome::Hit => {
                    hit_latency = Some(self.private_latency[lvl] as u64);
                    break;
                }
                AccessOutcome::Miss => {
                    if lvl == 0 {
                        l1_miss = true;
                    }
                }
            }
        }

        // 2.–3. Shared levels with bandwidth queueing, then DRAM.
        let (mut latency, dram, queued) = match hit_latency {
            Some(lat) => (lat, false, 0),
            None => self.shared_lookup(line, now),
        };

        // 4. Stream prefetch: a simple next-line prefetcher with
        // sequential confirmation (two consecutive lines) — the mechanism
        // every real core ships that hides streaming first-touch misses.
        // The prefetched line is installed without timing cost (assumed
        // fully overlapped with the demand stream).
        let sequential = line == self.prefetch_last[c].wrapping_add(1);
        self.prefetch_last[c] = line;
        if l1_miss && sequential {
            let next = line + 1;
            for caches in self.private.iter_mut() {
                caches[c].install(next);
            }
            if let Some((last_shared, _)) = self.shared.last_mut() {
                last_shared.install(next);
            }
            self.snoop.add_sharer(next, core);
            self.prefetches += 1;
        }

        // 5. Coherence.
        if write {
            let others = self.snoop.make_exclusive(line, core);
            if others != 0 {
                self.invalidations += others.count_ones() as u64;
                for victim in BitIter(others) {
                    for caches in self.private.iter_mut() {
                        caches[victim as usize].invalidate(line);
                    }
                }
                latency += self.coherence_penalty as u64;
            }
        } else {
            self.snoop.add_sharer(line, core);
        }

        self.access_latency.record(latency);
        MemAccessResult { latency, dram, l1_miss, queue_delay: queued }
    }

    /// Shared-fabric half of a private-miss lookup: walks the shared levels
    /// (charging bandwidth queueing) and falls through to DRAM, updating
    /// the contention counters. Returns `(latency, dram, queue_delay)`: the
    /// stopping level's lookup latency (the deepest level's plus the DRAM
    /// latency on a full miss) plus the accumulated queue delay.
    ///
    /// Kept out of line so the private-hit path of [`Self::access`] stays
    /// small.
    #[inline(never)]
    fn shared_lookup(&mut self, line: u64, now: u64) -> (u64, bool, u64) {
        let mut queue_delay = 0u64;
        let mut hit_latency = None;
        for ((cache, queue), &lat) in self.shared.iter_mut().zip(&self.shared_latency) {
            queue_delay += queue.delay(now);
            if cache.access(line) == AccessOutcome::Hit {
                hit_latency = Some(lat as u64);
                break;
            }
        }
        let latency = match hit_latency {
            Some(lat) => lat,
            None => {
                self.dram_accesses += 1;
                let ch = (line % self.dram_queues.len() as u64) as usize;
                queue_delay += self.dram_queues[ch].delay(now);
                let deepest = self.shared_latency.last().map(|&l| l as u64).unwrap_or(0);
                deepest + self.dram_latency as u64
            }
        };
        if queue_delay > 0 {
            self.queue_delay_cycles += queue_delay;
            self.contended_accesses += 1;
        }
        (latency + queue_delay, hit_latency.is_none(), queue_delay)
    }

    /// Total remote-copy invalidations performed.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Total cycles spent waiting in shared-level and DRAM service queues.
    pub fn queue_delay_cycles(&self) -> u64 {
        self.queue_delay_cycles
    }

    /// Number of accesses that paid a non-zero queue delay.
    pub fn contended_accesses(&self) -> u64 {
        self.contended_accesses
    }

    /// The log₂ latency distribution of all demand accesses performed so
    /// far.
    pub fn access_latency_histogram(&self) -> &Histogram {
        &self.access_latency
    }

    /// Total DRAM line fetches.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Total lines installed by the stream prefetcher.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Hit/miss statistics of private level `lvl` summed over cores.
    pub fn private_stats(&self, lvl: usize) -> LevelStats {
        let caches = &self.private[lvl];
        LevelStats {
            hits: caches.iter().map(SetAssocCache::hits).sum(),
            misses: caches.iter().map(SetAssocCache::misses).sum(),
        }
    }

    /// Hit/miss statistics of shared level `lvl` (0-based among shared).
    pub fn shared_stats(&self, lvl: usize) -> LevelStats {
        let c = &self.shared[lvl].0;
        LevelStats { hits: c.hits(), misses: c.misses() }
    }

    /// Number of private levels.
    pub fn private_levels(&self) -> usize {
        self.private.len()
    }

    /// Number of shared levels.
    pub fn shared_levels(&self) -> usize {
        self.shared.len()
    }
}

/// Iterator over set bits of a u64 (ascending).
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            let b = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use proptest::prelude::*;

    fn mem(cores: u32) -> MemorySystem {
        MemorySystem::new(&MachineConfig::tiny_test(), cores)
    }

    #[test]
    fn cold_access_goes_to_dram_then_hits_l1() {
        let mut m = mem(1);
        let first = m.access(0, 0x1000, false, 0);
        assert!(first.dram);
        assert!(first.l1_miss);
        assert!(first.latency >= 60, "includes DRAM latency, got {}", first.latency);
        let second = m.access(0, 0x1000, false, first.latency);
        assert!(!second.dram);
        assert!(!second.l1_miss);
        assert_eq!(second.latency, 2, "tiny L1 latency");
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut m = mem(1);
        m.access(0, 0x1000, false, 0);
        let r = m.access(0, 0x1030, false, 100); // same 64B line
        assert!(!r.l1_miss);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut m = mem(1);
        // tiny L1: 1024B/64B = 16 lines, 2-way, 8 sets. Lines 0, 8, 16 map
        // to set 0 (line addr % 8).
        m.access(0, 0, false, 0);
        m.access(0, 8 * 64, false, 200);
        m.access(0, 16 * 64, false, 400); // evicts line 0 from L1
        let r = m.access(0, 0, false, 600);
        assert!(r.l1_miss, "line 0 must have been evicted from L1");
        assert!(!r.dram, "line 0 still lives in shared L2");
        assert_eq!(r.latency, 8, "tiny L2 latency, no queueing at t=600");
    }

    #[test]
    fn remote_write_invalidates_local_copy() {
        let mut m = mem(2);
        // Core 0 reads the line into its private L1.
        m.access(0, 0x2000, false, 0);
        let warm = m.access(0, 0x2000, false, 300);
        assert!(!warm.l1_miss);
        // Core 1 writes the same line: core 0's copy must be invalidated.
        let w = m.access(1, 0x2000, true, 600);
        assert!(w.latency > 0);
        assert_eq!(m.invalidations(), 1);
        let after = m.access(0, 0x2000, false, 900);
        assert!(after.l1_miss, "copy was invalidated by remote write");
    }

    #[test]
    fn writer_pays_coherence_penalty() {
        let mut m = mem(2);
        // Baseline: an L2-hit write with no remote sharers. Line 0x7000 is
        // filled by core 1 itself, then pushed out of core 1's L1 (16-line,
        // 2-way L1: lines 0x7000/0x7200/0x7400 share a set).
        m.access(1, 0x7000, false, 0);
        m.access(1, 0x7200, false, 100);
        m.access(1, 0x7400, false, 200);
        let lone = m.access(1, 0x7000, true, 1000);
        assert!(lone.l1_miss && !lone.dram, "baseline must be an L2-hit write");

        // Contended: same shape of access (L1 miss, L2 hit) but core 0
        // holds a copy that must be invalidated.
        m.access(0, 0x2000, false, 2000);
        let contended = m.access(1, 0x2000, true, 3000);
        assert!(contended.l1_miss && !contended.dram);
        assert!(
            contended.latency > lone.latency,
            "invalidation adds latency: {} vs {}",
            contended.latency,
            lone.latency
        );
        assert_eq!(m.invalidations(), 1);
    }

    #[test]
    fn bandwidth_contention_raises_latency_under_load() {
        // Tiny config: chunk (= utilization bucket) is 1024 cycles, one
        // DRAM channel with service 4. Saturate bucket 0, then measure in
        // bucket 1: the utilization estimate must charge queueing delay.
        let mut busy = mem(2);
        for i in 0..300u64 {
            // Distinct lines, spread over bucket 0.
            busy.access(0, 0x40_0000 + i * 4096, false, i * 3);
        }
        let loaded = busy.access(1, 0x900_0000, false, 1500);
        let mut idle = mem(2);
        let quiet = idle.access(1, 0x900_0000, false, 1500);
        assert!(
            loaded.latency > quiet.latency,
            "prior-bucket load must add delay: {} vs {}",
            loaded.latency,
            quiet.latency
        );
    }

    /// The service queue as first written: an `f64` bucket index and the
    /// delay recomputed on every access. Kept as the oracle for
    /// [`ServiceQueue::delay`].
    struct F64Queue {
        service: f64,
        bucket_len: f64,
        bucket: u64,
        arrivals: f64,
        rho: f64,
    }

    impl F64Queue {
        fn new(service: u64, bucket_len: u64) -> Self {
            Self {
                service: service as f64,
                bucket_len: bucket_len.max(1) as f64,
                bucket: 0,
                arrivals: 0.0,
                rho: 0.0,
            }
        }

        fn delay(&mut self, now: u64) -> u64 {
            let b = (now as f64 / self.bucket_len) as u64;
            if b != self.bucket {
                let inst_rho = (self.arrivals * self.service / self.bucket_len).min(2.0);
                self.rho = 0.75 * self.rho + 0.25 * inst_rho;
                self.bucket = b;
                self.arrivals = 0.0;
            }
            self.arrivals += 1.0;
            let rho = self.rho.min(0.90);
            (self.service * rho / (2.0 * (1.0 - rho))).round() as u64
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The integer bucket and the once-per-bucket delay return the
        /// oracle's delay sequence: on clocks that step backwards (cores
        /// skewed by up to a chunk), with bucket lengths that are not
        /// powers of two, and with clocks just below 2^53.
        #[test]
        fn service_queue_matches_f64_oracle(
            service in 1u64..40,
            bucket_len in 0u64..5000,
            near_limit in any::<bool>(),
            start in 0u64..1_000_000,
            steps in prop::collection::vec((0u64..3000, 0u64..4, 0usize..40), 1..60),
        ) {
            let base = if near_limit { (1u64 << 53) - 50_000_000 } else { 0 };
            let mut queue = ServiceQueue::new(service, bucket_len);
            let mut oracle = F64Queue::new(service, bucket_len);
            let mut now = base + start;
            for (step, back, burst) in steps {
                // One in four steps goes back by up to one bucket.
                now = if back == 0 { now.saturating_sub(step).max(base) } else { now + step };
                for _ in 0..=burst {
                    prop_assert_eq!(queue.delay(now), oracle.delay(now));
                }
            }
        }
    }

    #[test]
    fn service_queue_bucket_is_exact_below_2_pow_53() {
        let top = (1u64 << 53) - 1;
        for bucket_len in [1u64, 3, 1000, 1024, 4093, 65_537, (1 << 26) + 1, 1 << 52] {
            for now in [top, top - 1, top - bucket_len, top / bucket_len * bucket_len - 1] {
                assert_eq!(now / bucket_len, (now as f64 / bucket_len as f64) as u64);
            }
        }
    }

    #[test]
    fn private_caches_are_per_core() {
        let mut m = mem(2);
        m.access(0, 0x3000, false, 0);
        let other = m.access(1, 0x3000, false, 300);
        assert!(other.l1_miss, "core 1 has its own cold L1");
        assert!(!other.dram, "but the shared L2 already holds the line");
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mem(1);
        m.access(0, 0, false, 0);
        m.access(0, 0, false, 100);
        let l1 = m.private_stats(0);
        assert_eq!(l1.hits, 1);
        assert_eq!(l1.misses, 1);
        assert!((l1.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(m.dram_accesses(), 1);
        assert_eq!(m.private_levels(), 1);
        assert_eq!(m.shared_levels(), 1);
    }

    #[test]
    fn high_perf_machine_builds_three_levels() {
        let m = MemorySystem::new(&MachineConfig::high_performance(), 64);
        assert_eq!(m.private_levels(), 2);
        assert_eq!(m.shared_levels(), 1);
    }

    #[test]
    #[should_panic(expected = "1..=64 cores")]
    fn too_many_cores_rejected() {
        MemorySystem::new(&MachineConfig::tiny_test(), 65);
    }

    #[test]
    fn bit_iter_yields_set_bits() {
        let bits: Vec<u32> = BitIter(0b1010_0001).collect();
        assert_eq!(bits, vec![0, 5, 7]);
        assert_eq!(BitIter(0).count(), 0);
    }
}
