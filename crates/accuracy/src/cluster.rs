//! `(task type, size-class)` sampling units.
//!
//! The paper's §V-B future-work proposal — classify instances of one task
//! type into classes of similar performance using micro-architecture
//! independent metrics, e.g. instruction count — needs a stable mapping
//! from `(type, size)` to a dense *virtual type id*. [`ClusterMap`] is
//! that mapping: the size class is the log₂ bucket (width configurable)
//! of the instance's dynamic instruction count, and ids are handed out
//! densely in first-encounter order — stable, dense (`0..num_clusters`)
//! and injective across distinct pairs, the invariants the workspace
//! property tests pin down. [`Clustered`] wraps any mode controller so
//! that it samples per `(type, size-class)` unit instead of per type.

use std::collections::HashMap;

use taskpoint_runtime::TaskTypeId;
use tasksim::{ExecMode, ModeController, TaskReport, TaskStart};

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
    /// log2 granularity: instances whose instruction counts fall in the
    /// same `[2^(g*k), 2^(g*(k+1)))` band share a class.
    granularity: u32,
    virtual_ids: HashMap<(u32, u32), u32>,
}

impl ClusterMap {
    /// Creates a map. `granularity` is the width of a size class in
    /// powers of two: 1 = one class per octave of instruction count
    /// (fine), 2 = one class per factor of 4, ...
    ///
    /// # Panics
    ///
    /// Panics if `granularity == 0`.
    pub fn new(granularity: u32) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        Self { granularity, virtual_ids: HashMap::new() }
    }

    /// The configured size-class width in powers of two.
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    /// The size class of an instance with `instructions` dynamic
    /// instructions.
    pub fn size_class(&self, instructions: u64) -> u32 {
        let log2 = 63 - instructions.max(1).leading_zeros();
        log2 / self.granularity
    }

    /// The sampling unit an instance maps to: the dense virtual type id
    /// assigned to its `(type, size-class)` pair, handed out in
    /// first-encounter order.
    pub fn unit(&mut self, type_id: TaskTypeId, instructions: u64) -> TaskTypeId {
        let class = self.size_class(instructions);
        let next = self.virtual_ids.len() as u32;
        TaskTypeId(*self.virtual_ids.entry((type_id.0, class)).or_insert(next))
    }

    /// Number of distinct `(type, size-class)` sampling units seen.
    pub fn num_clusters(&self) -> usize {
        self.virtual_ids.len()
    }
}

/// A mode controller that samples `(type, size-class)` units: every
/// instance is remapped through a [`ClusterMap`] to its virtual type id
/// before the inner controller sees it. Everything else (warmup,
/// convergence, fast-forward, resampling) is the inner controller's, so
/// its per-type telemetry and reports carry virtual ids.
#[derive(Debug)]
pub struct Clustered<C> {
    inner: C,
    map: ClusterMap,
}

impl<C: ModeController> Clustered<C> {
    /// Wraps `inner` (see [`ClusterMap::new`] for `granularity`).
    ///
    /// # Panics
    ///
    /// Panics if `granularity == 0`.
    pub fn new(inner: C, granularity: u32) -> Self {
        Self { inner, map: ClusterMap::new(granularity) }
    }

    /// Number of distinct `(type, size-class)` sampling units seen.
    pub fn num_clusters(&self) -> usize {
        self.map.num_clusters()
    }

    /// Consumes the wrapper, returning the inner controller.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: ModeController> ModeController for Clustered<C> {
    fn mode_for_task(&mut self, start: &TaskStart) -> ExecMode {
        let mut mapped = *start;
        mapped.type_id = self.map.unit(start.type_id, start.instructions);
        self.inner.mode_for_task(&mapped)
    }

    fn on_task_complete(&mut self, report: &TaskReport) {
        let mut mapped = *report;
        mapped.type_id = self.map.unit(report.type_id, report.instructions);
        self.inner.on_task_complete(&mapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_partition_by_magnitude() {
        let c = ClusterMap::new(2);
        assert_eq!(c.size_class(1), 0);
        assert_eq!(c.size_class(3), 0); // log2=1 -> class 0 at granularity 2
        assert_eq!(c.size_class(4), 1); // log2=2
        assert_eq!(c.size_class(1000), 4); // log2=9
        assert_eq!(c.size_class(1_000_000), 9); // log2=19
    }

    #[test]
    fn units_are_dense_stable_and_injective() {
        let mut c = ClusterMap::new(1);
        let a = c.unit(TaskTypeId(0), 100);
        let b = c.unit(TaskTypeId(0), 100_000);
        let a2 = c.unit(TaskTypeId(0), 110);
        let other = c.unit(TaskTypeId(1), 100);
        assert_ne!(a, b, "orders of magnitude apart => different units");
        assert_eq!(a, a2, "similar sizes share a unit");
        assert_ne!(a, other, "types never share units");
        assert_eq!(c.num_clusters(), 3);
        let ids: Vec<u32> = [a, b, other].iter().map(|t| t.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "dense first-encounter order");
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn zero_granularity_rejected() {
        ClusterMap::new(0);
    }

    /// Records the type id of every start and completion it is shown.
    #[derive(Default)]
    struct Seen(Vec<u32>);

    impl ModeController for Seen {
        fn mode_for_task(&mut self, start: &TaskStart) -> ExecMode {
            self.0.push(start.type_id.0);
            ExecMode::Detailed
        }

        fn on_task_complete(&mut self, report: &TaskReport) {
            self.0.push(report.type_id.0);
        }
    }

    #[test]
    fn clustered_shows_the_inner_controller_virtual_ids() {
        use taskpoint_runtime::{TaskInstanceId, WorkerId};
        use tasksim::SimMode;

        let mut c = Clustered::new(Seen::default(), 1);
        for (task, (type_id, instructions)) in
            [(5, 100), (5, 100_000), (5, 110), (7, 100)].into_iter().enumerate()
        {
            let task = TaskInstanceId(task as u64);
            let (type_id, worker) = (TaskTypeId(type_id), WorkerId(0));
            c.mode_for_task(&TaskStart {
                task,
                type_id,
                instructions,
                worker,
                time: 0,
                concurrency: 1,
                total_workers: 1,
            });
            c.on_task_complete(&TaskReport {
                task,
                type_id,
                worker,
                start: 0,
                end: 1,
                instructions,
                mode: SimMode::Detailed,
                concurrency: 1,
            });
        }
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.into_inner().0, vec![0, 0, 1, 1, 0, 0, 2, 2]);
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
