//! Set-associative cache with LRU replacement.
//!
//! The building block of the memory hierarchy: used for the private L1/L2
//! levels (one instance per core) and the shared last level (one instance).
//! Tags are stored per set in MRU-first order; associativities in the
//! evaluation are ≤ 20, so linear probing within a set is faster than any
//! clever structure.

use std::ops::Range;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting another).
    Miss,
}

/// Sentinel marking an empty way. Unreachable as a real tag: line
/// addresses are byte addresses shifted right by the line bits, so hitting
/// `u64::MAX` would require an address far beyond the 64-bit space.
const EMPTY: u64 = u64::MAX;

/// Sets per placement window of [`SetAssocCache::fill_runs`]: 256 sets of
/// a 20-way cache are 40 KiB of tags.
const FILL_WINDOW_SETS: u64 = 256;

/// A set-associative, write-allocate cache with true-LRU replacement,
/// indexed by line address (byte address >> log2(line size)).
///
/// Tags live in one flat array (`assoc` consecutive slots per set, MRU
/// first, empty slots at the tail as `EMPTY`) — the hottest lookup
/// structure in the simulator, so it is kept contiguous and
/// allocation-free rather than a `Vec` per set.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `tags[set * assoc ..][..assoc]` holds the set's ways, MRU first.
    tags: Vec<u64>,
    set_mask: u64,
    assoc: usize,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `size_bytes` capacity with `associativity` ways
    /// and `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless `line_size` is a power of two, the number of lines is
    /// divisible by the associativity, and the resulting set count is a
    /// power of two.
    pub fn new(size_bytes: u64, associativity: u32, line_size: u32) -> Self {
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        let lines = size_bytes / line_size as u64;
        assert!(lines > 0 && lines.is_multiple_of(associativity as u64), "bad geometry");
        let num_sets = lines / associativity as u64;
        assert!(num_sets.is_power_of_two(), "set count {num_sets} must be a power of two");
        Self {
            tags: vec![EMPTY; lines as usize],
            set_mask: num_sets - 1,
            assoc: associativity as usize,
            hits: 0,
            misses: 0,
        }
    }

    /// The set's way slots, MRU first.
    #[inline]
    fn ways_mut(&mut self, line: u64) -> &mut [u64] {
        let start = (line & self.set_mask) as usize * self.assoc;
        &mut self.tags[start..start + self.assoc]
    }

    #[inline]
    fn ways(&self, line: u64) -> &[u64] {
        let start = (line & self.set_mask) as usize * self.assoc;
        &self.tags[start..start + self.assoc]
    }

    /// Position of `line` among `ways`, if present. Probes the flat
    /// sentinel tag array in batches of four ways with no early exit
    /// inside a batch: the equality tests become straight-line compares
    /// the compiler can turn into SIMD lanes, where a per-way
    /// `position()` scan is a chain of data-dependent branches. Tags are
    /// unique within a set, so the first match is the only match.
    #[inline]
    fn find_way(ways: &[u64], line: u64) -> Option<usize> {
        let mut i = 0;
        while i + 4 <= ways.len() {
            let m = (ways[i] == line) as u32
                | ((ways[i + 1] == line) as u32) << 1
                | ((ways[i + 2] == line) as u32) << 2
                | ((ways[i + 3] == line) as u32) << 3;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 4;
        }
        while i < ways.len() {
            if ways[i] == line {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Moves `ways[..end]` down one slot towards LRU (the way at `end` is
    /// overwritten) and writes `line` to way 0 (MRU). A plain backward
    /// loop: sets in the evaluation have at most 20 ways, so it beats a
    /// generic rotate.
    #[inline(always)]
    fn promote(ways: &mut [u64], end: usize, line: u64) {
        assert!(end < ways.len());
        let mut i = end;
        while i > 0 {
            ways[i] = ways[i - 1];
            i -= 1;
        }
        ways[0] = line;
    }

    /// Accesses `line` (a line address): returns `Hit` and promotes it to
    /// MRU, or fills it (LRU eviction) and returns `Miss`.
    ///
    /// The MRU way is checked first: a line touched again before any
    /// other line of its set needs no reorder. Forced inline: with a
    /// plain `#[inline]` LLVM keeps it out of line in
    /// `MemorySystem::access`, and that call per probe made a full-scale
    /// `reference` pass 1.1–4.7% slower (four 20 s pairs, 2-vCPU x86-64
    /// host).
    #[inline(always)]
    pub fn access(&mut self, line: u64) -> AccessOutcome {
        let ways = self.ways_mut(line);
        if ways[0] == line {
            self.hits += 1;
            return AccessOutcome::Hit;
        }
        match Self::find_way(ways, line) {
            Some(pos) => {
                Self::promote(ways, pos, line);
                self.hits += 1;
                AccessOutcome::Hit
            }
            None => {
                // Insert at MRU; the last slot (the LRU way, or an empty
                // sentinel when the set is not full) drops out.
                let last = ways.len() - 1;
                Self::promote(ways, last, line);
                self.misses += 1;
                AccessOutcome::Miss
            }
        }
    }

    /// True if `line` is present (does not touch LRU order or counters).
    pub fn contains(&self, line: u64) -> bool {
        self.ways(line).contains(&line)
    }

    /// Removes `line` if present (coherence invalidation). Returns whether
    /// it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let ways = self.ways_mut(line);
        if let Some(pos) = Self::find_way(ways, line) {
            // Shift the tail up and leave an empty slot at the end,
            // preserving the LRU order of the remaining ways.
            let last = ways.len() - 1;
            for i in pos..last {
                ways[i] = ways[i + 1];
            }
            ways[last] = EMPTY;
            true
        } else {
            false
        }
    }

    /// Fills a cold cache from an initialization walk given as disjoint
    /// runs of line addresses, most recent run first, each run's lines
    /// touched in ascending order (its highest line is its most recent
    /// touch). Leaves exactly the tags that replaying the walk oldest
    /// first through [`access`](Self::access) would leave.
    ///
    /// Under LRU a set ends up holding its `assoc` most recently touched
    /// distinct lines, MRU first. The runs are disjoint, so every line
    /// appears once: taking them newest first (runs in order, each high to
    /// low), a line goes into its set's next free way, or nowhere once
    /// the set is full (every later line is older). A per-set count finds
    /// the next way, so there is no probe, no rotation and no hit or miss
    /// count. The runs are split at windows of [`FILL_WINDOW_SETS`] sets
    /// and placed window by window, so the tag rows being written stay in
    /// the host's caches; each set's lines still arrive in walk order.
    ///
    /// The cache must be fresh: lines already resident would count as
    /// newer than every touch.
    pub(crate) fn fill_runs(&mut self, runs: &[Range<u64>]) {
        let window = FILL_WINDOW_SETS.min(self.set_mask + 1);
        // Pieces of each run, highest first, that stay inside one aligned
        // block of `window` lines: those map to consecutive sets of one
        // window. A stable sort by window keeps each set's lines in order.
        let mut pieces: Vec<(u64, Range<u64>)> = Vec::new();
        for run in runs {
            let mut hi = run.end;
            while hi > run.start {
                let lo = run.start.max((hi - 1) / window * window);
                pieces.push((((hi - 1) & self.set_mask) / window, lo..hi));
                hi = lo;
            }
        }
        pieces.sort_by_key(|&(w, _)| w);
        // `assoc` came in as a `u32`, so the per-set counts fit one.
        let assoc = self.assoc;
        let mut filled = vec![0u32; (self.set_mask + 1) as usize];
        for (_, piece) in pieces {
            for line in piece.rev() {
                let set = (line & self.set_mask) as usize;
                let count = &mut filled[set];
                if (*count as usize) < assoc {
                    self.tags[set * assoc + *count as usize] = line;
                    *count += 1;
                }
            }
        }
    }

    /// Installs `line` without touching the hit/miss counters (prefetch
    /// fill). No-op if already present; evicts LRU when full.
    pub fn install(&mut self, line: u64) {
        let ways = self.ways_mut(line);
        if ways.contains(&line) {
            return;
        }
        let last = ways.len() - 1;
        Self::promote(ways, last, line);
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over the cache's lifetime; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::first_touch_runs;
    use proptest::prelude::*;
    use taskpoint_trace::MemRegion;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512 B
        SetAssocCache::new(512, 2, 64)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert_eq!(c.access(7), AccessOutcome::Miss);
        assert_eq!(c.access(7), AccessOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(0);
        c.access(4);
        // Touch 0 so 4 becomes LRU.
        assert_eq!(c.access(0), AccessOutcome::Hit);
        // Fill a third line in the same set: evicts 4, not 0.
        c.access(8);
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = small();
        for line in 0..4u64 {
            assert_eq!(c.access(line), AccessOutcome::Miss);
        }
        for line in 0..4u64 {
            assert_eq!(c.access(line), AccessOutcome::Hit, "line {line}");
        }
    }

    #[test]
    fn invalidate_removes_only_target() {
        let mut c = small();
        c.access(0);
        c.access(4);
        assert!(c.invalidate(0));
        assert!(!c.contains(0));
        assert!(c.contains(4));
        assert!(!c.invalidate(0), "second invalidate is a no-op");
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut c = small();
        for line in 0..100u64 {
            c.access(line);
        }
        let resident = (0..100u64).filter(|&line| c.contains(line)).count();
        assert_eq!(resident, c.capacity_lines());
        assert_eq!(c.capacity_lines(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        SetAssocCache::new(512, 2, 48);
    }

    /// Builds a region list from generated `(kind, a, b, pick)` tuples:
    /// a fresh region at an unaligned base and length, or — relative to
    /// an earlier region — a duplicate, a region starting where it ends,
    /// or a region nested inside it.
    fn regions_of(shapes: &[(u8, u64, u64, usize)]) -> Vec<MemRegion> {
        let mut regions: Vec<MemRegion> = Vec::new();
        for &(kind, a, b, pick) in shapes {
            let earlier = (!regions.is_empty()).then(|| regions[pick % regions.len()]);
            regions.push(match (kind, earlier) {
                (1, Some(r)) => r,
                (2, Some(r)) => MemRegion::new(r.end(), 1 + b % 400),
                (3, Some(r)) => {
                    let base = r.base + a % r.len;
                    MemRegion::new(base, 1 + b % (r.end() - base))
                }
                _ => MemRegion::new(a, 1 + b),
            });
        }
        regions
    }

    /// The reference LRU model: one MRU-first list of lines per set.
    struct NaiveLru {
        sets: Vec<Vec<u64>>,
        assoc: usize,
    }

    impl NaiveLru {
        fn set(&mut self, line: u64) -> &mut Vec<u64> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        fn access(&mut self, line: u64) -> AccessOutcome {
            let assoc = self.assoc;
            let set = self.set(line);
            let outcome = match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    AccessOutcome::Hit
                }
                None => AccessOutcome::Miss,
            };
            set.insert(0, line);
            set.truncate(assoc);
            outcome
        }

        fn install(&mut self, line: u64) {
            let assoc = self.assoc;
            let set = self.set(line);
            if !set.contains(&line) {
                set.insert(0, line);
                set.truncate(assoc);
            }
        }

        fn invalidate(&mut self, line: u64) -> bool {
            let set = self.set(line);
            match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => false,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `access`, `install` and `invalidate` agree step by step with
        /// the naive MRU-first model on 1–8 sets × 1–20 ways (8 ways as
        /// L1/L2, 20 as the last level); afterwards the hit/miss counts,
        /// `contains` of every touched line and each set's tag row (MRU
        /// first, empty ways at the tail) match the model too.
        #[test]
        fn lru_matches_naive_model(
            log2_sets in 0u32..4,
            assoc in 1u32..21,
            ops in prop::collection::vec((0u8..3, 0u64..1024), 0..400),
        ) {
            let sets = 1u64 << log2_sets;
            let mut cache = SetAssocCache::new(sets * assoc as u64 * 64, assoc, 64);
            let mut model = NaiveLru {
                sets: vec![Vec::new(); sets as usize],
                assoc: assoc as usize,
            };
            // A few more lines per set than ways, so sets overflow and
            // lines come back after eviction.
            let lines = sets * (assoc as u64 + 3);
            let mut touched = std::collections::BTreeSet::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for (op, raw) in ops {
                let line = raw % lines;
                touched.insert(line);
                match op {
                    0 => {
                        let outcome = model.access(line);
                        prop_assert_eq!(cache.access(line), outcome);
                        match outcome {
                            AccessOutcome::Hit => hits += 1,
                            AccessOutcome::Miss => misses += 1,
                        }
                    }
                    1 => {
                        model.install(line);
                        cache.install(line);
                    }
                    _ => prop_assert_eq!(cache.invalidate(line), model.invalidate(line)),
                }
            }
            prop_assert_eq!((cache.hits(), cache.misses()), (hits, misses));
            for &line in &touched {
                prop_assert_eq!(cache.contains(line), model.set(line).contains(&line));
            }
            for (set, row) in model.sets.iter().enumerate() {
                let mut expected = row.clone();
                expected.resize(assoc as usize, EMPTY);
                let start = set * assoc as usize;
                prop_assert_eq!(&cache.tags[start..start + assoc as usize], &expected[..]);
            }
        }

        /// The whole prewarm path — regions to first-touch runs to tags —
        /// leaves the tags that replaying the walk (each region's lines
        /// ascending, regions in order) through `access` leaves, with no
        /// hit or miss counted, on 1–8 sets × 1–5 ways. Regions have
        /// unaligned bases and lengths, repeat, touch, overlap and nest,
        /// span more lines than there are sets, and overflow sets.
        #[test]
        fn run_fill_equals_access_replay(
            log2_sets in 0u32..4,
            assoc in 1u32..6,
            shapes in prop::collection::vec(
                (0u8..4, 0u64..3072, 0u64..1600, 0usize..12),
                0..12,
            ),
        ) {
            let size = (1u64 << log2_sets) * assoc as u64 * 64;
            let regions = regions_of(&shapes);
            let mut replayed = SetAssocCache::new(size, assoc, 64);
            let mut touched = std::collections::BTreeSet::new();
            for r in &regions {
                for line in r.base >> 6..=(r.end() - 1) >> 6 {
                    replayed.access(line);
                    touched.insert(line);
                }
            }
            let runs = first_touch_runs(&regions, 6);
            let run_lines: u64 = runs.iter().map(|r| r.end - r.start).sum();
            prop_assert_eq!(run_lines, touched.len() as u64);
            let mut filled = SetAssocCache::new(size, assoc, 64);
            filled.fill_runs(&runs);
            prop_assert_eq!(&filled.tags, &replayed.tags);
            prop_assert_eq!((filled.hits(), filled.misses()), (0, 0));
        }
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        // Cyclic walk over 16 lines (cache holds 8) with LRU => 0% hit rate.
        let mut c = small();
        for _ in 0..10 {
            for line in 0..16u64 {
                c.access(line);
            }
        }
        assert!(c.hit_rate() < 1e-9);
    }
}
