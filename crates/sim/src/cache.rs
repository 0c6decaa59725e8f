//! Set-associative cache with LRU replacement.
//!
//! The building block of the memory hierarchy: used for the private L1/L2
//! levels (one instance per core) and the shared last level (one instance).
//! Tags are stored per set in MRU-first order; associativities in the
//! evaluation are ≤ 20, so linear probing within a set is faster than any
//! clever structure.

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
    set_shift: u32,
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
            set_shift: line_size.trailing_zeros(),
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

    /// Converts a byte address to this cache's line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.set_shift
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

    /// Accesses `line` (a line address): returns `Hit` and promotes it to
    /// MRU, or fills it (LRU eviction) and returns `Miss`.
    pub fn access(&mut self, line: u64) -> AccessOutcome {
        let ways = self.ways_mut(line);
        if let Some(pos) = Self::find_way(ways, line) {
            // Move to front (MRU): one bounded rotate, no allocation.
            ways[..=pos].rotate_right(1);
            self.hits += 1;
            AccessOutcome::Hit
        } else {
            // Insert at MRU; the last slot (the LRU way, or an empty
            // sentinel when the set is not full) rotates out.
            ways.rotate_right(1);
            ways[0] = line;
            self.misses += 1;
            AccessOutcome::Miss
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
            ways[pos..].rotate_left(1);
            *ways.last_mut().expect("assoc >= 1") = EMPTY;
            true
        } else {
            false
        }
    }

    /// Drops all contents and statistics (cold state).
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.hits = 0;
        self.misses = 0;
    }

    /// Fills a cold cache from line touches listed most recent first,
    /// leaving exactly the tags that replaying the touches oldest first
    /// through [`access`](Self::access) would leave.
    ///
    /// Under LRU a set ends up holding its `assoc` most recently touched
    /// distinct lines, MRU first. Walking the touches newest first, a
    /// line's first appearance is its last touch, so each line goes into
    /// the set's first empty way unless it is already there or the set is
    /// full (every later appearance is older). No rotations and no hit or
    /// miss counts. Filled ways stay contiguous from the front, so one scan
    /// that stops at the line or at the first empty way decides both.
    ///
    /// The cache must be cold (fresh or [`reset`](Self::reset)): lines
    /// already resident would count as newer than every touch.
    pub fn fill_recent_first(&mut self, lines: impl IntoIterator<Item = u64>) {
        for line in lines {
            for way in self.ways_mut(line) {
                if *way == line {
                    break;
                }
                if *way == EMPTY {
                    *way = line;
                    break;
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
        ways.rotate_right(1);
        ways[0] = line;
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
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
    use proptest::prelude::*;

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
        assert_eq!(c.occupancy(), c.capacity_lines());
        assert_eq!(c.capacity_lines(), 8);
    }

    #[test]
    fn reset_returns_to_cold_state() {
        let mut c = small();
        c.access(1);
        c.access(2);
        c.reset();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.access(1), AccessOutcome::Miss);
    }

    #[test]
    fn line_of_uses_line_size() {
        let c = SetAssocCache::new(1024, 2, 64);
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(63), 0);
        assert_eq!(c.line_of(64), 1);
        assert_eq!(c.line_of(6400), 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        SetAssocCache::new(512, 2, 48);
    }

    proptest! {
        /// The most-recent-first fill leaves the tags a sequential `access`
        /// replay leaves, on small geometries (1–8 sets, 1–5 ways) and
        /// touch streams built from runs of consecutive lines. Runs may
        /// overlap, repeat lines and overflow a set many times over.
        #[test]
        fn recent_first_fill_equals_access_replay(
            log2_sets in 0u32..4,
            assoc in 1u32..6,
            runs in prop::collection::vec((0u64..48, 1u64..24), 0..12),
        ) {
            let size = (1u64 << log2_sets) * assoc as u64 * 64;
            let touches: Vec<u64> =
                runs.iter().flat_map(|&(first, len)| first..first + len).collect();
            let mut replayed = SetAssocCache::new(size, assoc, 64);
            for &line in &touches {
                replayed.access(line);
            }
            let mut filled = SetAssocCache::new(size, assoc, 64);
            filled.fill_recent_first(touches.iter().rev().copied());
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
