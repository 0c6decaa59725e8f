//! `(task type, size-class)` sampling units.
//!
//! The paper's §V-B future-work proposal — classify instances of one task
//! type into classes of similar performance using micro-architecture
//! independent metrics, e.g. instruction count — needs a stable mapping
//! from `(type, size)` to a dense *virtual type id*. [`ClusterMap`] is
//! that mapping: the size class is the octave (log₂ bucket) of the
//! instance's dynamic instruction count, and ids are handed out densely in
//! first-encounter order — stable, dense (`0..num_clusters`) and injective
//! across distinct pairs, the invariants the workspace property tests pin
//! down. The [`StratifiedController`](crate::StratifiedController) uses it
//! to form its strata.

use std::collections::HashMap;

use taskpoint_runtime::TaskTypeId;

/// The concurrency band of an observed machine concurrency level: the
/// log₂ bucket of the number of simultaneously running tasks, so a
/// doubling of parallelism shifts the band — the banded analogue of the
/// base controller's factor-of-two concurrency-change trigger (paper
/// Fig. 4a). Concurrency 0 is clamped to 1 (band 0).
pub fn concurrency_band(concurrency: u32) -> u32 {
    31 - concurrency.max(1).leading_zeros()
}

/// Dense remapping of `(type, size-class)` pairs to virtual type ids.
#[derive(Debug, Clone, Default)]
pub struct ClusterMap {
    virtual_ids: HashMap<(u32, u32), u32>,
}

impl ClusterMap {
    /// The size class of an instance with `instructions` dynamic
    /// instructions: the octave `k` with `2^k <= instructions < 2^(k+1)`
    /// (0 and 1 instruction share class 0).
    pub fn size_class(&self, instructions: u64) -> u32 {
        63 - instructions.max(1).leading_zeros()
    }

    /// The sampling unit an instance maps to: the dense virtual type id
    /// assigned to its `(type, size-class)` pair, handed out in
    /// first-encounter order.
    pub fn unit(&mut self, type_id: TaskTypeId, instructions: u64) -> TaskTypeId {
        let class = self.size_class(instructions);
        let next = self.virtual_ids.len() as u32;
        TaskTypeId(*self.virtual_ids.entry((type_id.0, class)).or_insert(next))
    }

    /// The unit [`unit`](Self::unit) assigned to an instance's pair, or
    /// `None` if the pair has not been seen.
    pub fn get(&self, type_id: TaskTypeId, instructions: u64) -> Option<TaskTypeId> {
        let class = self.size_class(instructions);
        self.virtual_ids.get(&(type_id.0, class)).copied().map(TaskTypeId)
    }

    /// Number of distinct `(type, size-class)` sampling units seen.
    pub fn num_clusters(&self) -> usize {
        self.virtual_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_are_octaves() {
        let c = ClusterMap::default();
        assert_eq!(c.size_class(0), 0);
        assert_eq!(c.size_class(1), 0);
        assert_eq!(c.size_class(3), 1);
        assert_eq!(c.size_class(4), 2);
        assert_eq!(c.size_class(1000), 9);
        assert_eq!(c.size_class(1_000_000), 19);
    }

    #[test]
    fn units_are_dense_stable_and_injective() {
        let mut c = ClusterMap::default();
        let a = c.unit(TaskTypeId(0), 100);
        let b = c.unit(TaskTypeId(0), 100_000);
        let a2 = c.unit(TaskTypeId(0), 110);
        let other = c.unit(TaskTypeId(1), 100);
        assert_ne!(a, b, "orders of magnitude apart => different units");
        assert_eq!(a, a2, "similar sizes share a unit");
        assert_ne!(a, other, "types never share units");
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.get(TaskTypeId(0), 127), Some(a2));
        assert_eq!(c.get(TaskTypeId(0), 1 << 40), None, "get assigns nothing");
        let ids: Vec<u32> = [a, b, other].iter().map(|t| t.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "dense first-encounter order");
    }

    #[test]
    fn concurrency_bands_are_log2_buckets() {
        assert_eq!(concurrency_band(0), 0, "clamped to 1");
        assert_eq!(concurrency_band(1), 0);
        assert_eq!(concurrency_band(2), 1);
        assert_eq!(concurrency_band(3), 1);
        assert_eq!(concurrency_band(4), 2);
        assert_eq!(concurrency_band(7), 2);
        assert_eq!(concurrency_band(8), 3);
        assert_eq!(concurrency_band(u32::MAX), 31);
    }
}
