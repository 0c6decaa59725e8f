//! Memory regions.
//!
//! Workload generators lay every task instance's data out in a synthetic
//! address space; the same regions double as OmpSs-style dependence
//! annotations in `taskpoint-runtime`.

/// A half-open region `[base, base + len)` of the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemRegion {
    /// First byte address.
    pub base: u64,
    /// Length in bytes (may be zero for an empty region).
    pub len: u64,
}

impl MemRegion {
    /// Creates the region `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the region would wrap the 64-bit address space.
    pub fn new(base: u64, len: u64) -> Self {
        assert!(base.checked_add(len).is_some(), "region wraps address space");
        Self { base, len }
    }

    /// The empty region at address zero.
    pub fn empty() -> Self {
        Self { base: 0, len: 0 }
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// True if `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// True if the two regions share at least one byte.
    pub fn overlaps(&self, other: &MemRegion) -> bool {
        !self.is_empty() && !other.is_empty() && self.base < other.end() && other.base < self.end()
    }

    /// Clamps `offset` into the region and returns the resulting address.
    /// Offsets beyond the length wrap around (modulo), which is how the
    /// access-pattern generators keep streams inside their footprint.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty.
    pub fn wrap(&self, offset: u64) -> u64 {
        assert!(!self.is_empty(), "cannot address into an empty region");
        self.base + offset % self.len
    }

    /// Splits the region into `n` equal-ish chunks (the last chunk absorbs
    /// the remainder). Useful for blocking a data structure into per-task
    /// footprints.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn split(&self, n: u64) -> Vec<MemRegion> {
        assert!(n > 0, "cannot split into zero chunks");
        let chunk = self.len / n;
        (0..n)
            .map(|i| {
                let base = self.base + i * chunk;
                let len = if i == n - 1 { self.len - i * chunk } else { chunk };
                MemRegion { base, len }
            })
            .collect()
    }
}

impl Default for MemRegion {
    /// The empty region.
    fn default() -> Self {
        MemRegion::empty()
    }
}

impl std::fmt::Display for MemRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.base, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_end() {
        let r = MemRegion::new(100, 10);
        assert!(r.contains(100));
        assert!(r.contains(109));
        assert!(!r.contains(110));
        assert!(!r.contains(99));
        assert_eq!(r.end(), 110);
    }

    #[test]
    fn overlap_cases() {
        let a = MemRegion::new(0, 100);
        let b = MemRegion::new(50, 100);
        let c = MemRegion::new(100, 10);
        let e = MemRegion::empty();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c)); // touching, not overlapping
        assert!(!a.overlaps(&e));
        assert!(!e.overlaps(&e));
    }

    #[test]
    fn wrap_stays_inside() {
        let r = MemRegion::new(1000, 64);
        for off in [0u64, 1, 63, 64, 65, 1000, u64::MAX / 2] {
            let a = r.wrap(off);
            assert!(r.contains(a), "offset {off} -> {a}");
        }
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn wrap_empty_panics() {
        MemRegion::empty().wrap(0);
    }

    #[test]
    fn split_covers_whole_region() {
        let r = MemRegion::new(0x1000, 1003);
        let parts = r.split(7);
        assert_eq!(parts.len(), 7);
        assert_eq!(parts[0].base, r.base);
        assert_eq!(parts.last().unwrap().end(), r.end());
        let total: u64 = parts.iter().map(|p| p.len).sum();
        assert_eq!(total, r.len);
        // chunks tile without overlap
        for w in parts.windows(2) {
            assert_eq!(w[0].end(), w[1].base);
        }
    }

    #[test]
    #[should_panic(expected = "wraps address space")]
    fn wrapping_region_rejected() {
        MemRegion::new(u64::MAX - 1, 10);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(MemRegion::new(16, 16).to_string(), "[0x10, 0x20)");
    }
}
