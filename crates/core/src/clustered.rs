//! Size-clustered sampling — the paper's proposed future work, implemented.
//!
//! §V-B of the paper diagnoses the two worst benchmarks (freqmine, dedup):
//! one dominant task type whose instances differ wildly in dynamic
//! instruction count and therefore in performance, which a single per-type
//! IPC cannot capture. The authors propose: *"One way to improve the
//! accuracy ... is to classify task instances into classes of similar
//! performance. We envision clustering of instances of the same task type
//! based on micro-architecture independent metrics, e.g. instruction
//! count."*
//!
//! [`ClusteredController`] implements exactly that: the sampling unit is
//! `(task type, size class)` instead of the task type alone, where the
//! size class is the order of magnitude (log₂ bucket, granularity
//! configurable) of the instance's dynamic instruction count — a
//! micro-architecture-independent metric available from the trace before
//! simulation. Everything else (warmup, sampling transition, fast-forward,
//! resampling triggers, policies) is inherited unchanged from
//! [`TaskPointController`] by composition: the controller simply maps each
//! instance to a *virtual type id* before delegating.

use taskpoint_accuracy::ClusterMap;
use taskpoint_runtime::TaskTypeId;
use tasksim::{ExecMode, ModeController, TaskReport, TaskStart};

use crate::config::TaskPointConfig;
use crate::controller::{SamplingStats, TaskPointController};

/// TaskPoint with `(type, size-class)` sampling units.
///
/// The `(type, size-class) → virtual id` bucketing lives in
/// [`ClusterMap`] (shared with the adaptive controller in
/// `taskpoint-accuracy`); this wrapper remaps every instance through it
/// before delegating to the base controller.
#[derive(Debug)]
pub struct ClusteredController {
    inner: TaskPointController,
    map: ClusterMap,
}

impl ClusteredController {
    /// Creates a clustered controller. `granularity` is the width of a
    /// size class in powers of two: 1 = one class per octave of
    /// instruction count (fine), 2 = one class per factor of 4, ...
    ///
    /// # Panics
    ///
    /// Panics if `granularity == 0` or the config is invalid.
    pub fn new(config: TaskPointConfig, granularity: u32) -> Self {
        Self { inner: TaskPointController::new(config), map: ClusterMap::new(granularity) }
    }

    /// The size class of an instance with `instructions` dynamic
    /// instructions.
    pub fn size_class(&self, instructions: u64) -> u32 {
        self.map.size_class(instructions)
    }

    /// The sampling unit an instance maps to: the dense *virtual type id*
    /// assigned to its `(type, size-class)` pair. Ids are handed out in
    /// first-encounter order, so within a run the mapping is stable, dense
    /// (`0..num_clusters`) and injective across distinct pairs — the
    /// invariants the workspace property tests pin down.
    pub fn sampling_unit(&mut self, type_id: TaskTypeId, instructions: u64) -> TaskTypeId {
        self.map.unit(type_id, instructions)
    }

    /// Number of distinct `(type, size-class)` sampling units seen.
    pub fn num_clusters(&self) -> usize {
        self.map.num_clusters()
    }

    /// The telemetry collected so far (virtual type ids in per-type maps).
    pub fn stats(&self) -> &SamplingStats {
        self.inner.stats()
    }

    /// Consumes the controller, returning its telemetry.
    pub fn into_stats(self) -> SamplingStats {
        self.inner.into_stats()
    }
}

impl ModeController for ClusteredController {
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
    use taskpoint_runtime::Program;
    use taskpoint_trace::TraceSpec;
    use tasksim::{DetailedOnly, MachineConfig, Simulation};

    #[test]
    fn size_classes_partition_by_magnitude() {
        let c = ClusteredController::new(TaskPointConfig::lazy(), 2);
        assert_eq!(c.size_class(1), 0);
        assert_eq!(c.size_class(3), 0); // log2=1 -> class 0 at granularity 2
        assert_eq!(c.size_class(4), 1); // log2=2
        assert_eq!(c.size_class(1000), 4); // log2=9
        assert_eq!(c.size_class(1_000_000), 9); // log2=19
    }

    #[test]
    fn same_type_different_sizes_get_distinct_units() {
        let mut c = ClusteredController::new(TaskPointConfig::lazy(), 1);
        let a = c.sampling_unit(TaskTypeId(0), 100);
        let b = c.sampling_unit(TaskTypeId(0), 100_000);
        let a2 = c.sampling_unit(TaskTypeId(0), 110);
        assert_ne!(a, b, "orders of magnitude apart => different units");
        assert_eq!(a, a2, "similar sizes share a unit");
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn different_types_never_share_units() {
        let mut c = ClusteredController::new(TaskPointConfig::lazy(), 1);
        let a = c.sampling_unit(TaskTypeId(0), 1000);
        let b = c.sampling_unit(TaskTypeId(1), 1000);
        assert_ne!(a, b);
    }

    /// A bimodal single-type workload: the exact pathology of dedup.
    fn bimodal_program() -> Program {
        let mut b = Program::builder("bimodal");
        let ty = b.add_type("work");
        for i in 0..600u64 {
            let instrs = if i % 2 == 0 { 200 } else { 6_400 };
            b.add_task(ty, TraceSpec::synthetic(i, instrs), vec![]);
        }
        b.build()
    }

    #[test]
    fn clustering_beats_plain_taskpoint_on_bimodal_types() {
        let p = bimodal_program();
        let machine = MachineConfig::high_performance();
        let sim = || Simulation::builder(&p, machine.clone()).workers(4).build();
        let reference = sim().run(&mut DetailedOnly);
        let plain = crate::run(sim(), TaskPointConfig::lazy(), None).result;
        let clustered = crate::run(sim(), TaskPointConfig::lazy(), Some(1));
        let (clustered, clusters) = (clustered.result, clustered.clusters.unwrap());
        let err = |predicted: u64| {
            100.0
                * ((predicted as f64 - reference.total_cycles as f64)
                    / reference.total_cycles as f64)
                    .abs()
        };
        assert!(clusters >= 2, "bimodal sizes must form >= 2 clusters");
        let plain_err = err(plain.total_cycles);
        let clustered_err = err(clustered.total_cycles);
        assert!(
            clustered_err <= plain_err + 0.5,
            "clustering must not hurt: plain {plain_err:.2}% vs clustered {clustered_err:.2}%"
        );
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn zero_granularity_rejected() {
        ClusteredController::new(TaskPointConfig::lazy(), 0);
    }
}
