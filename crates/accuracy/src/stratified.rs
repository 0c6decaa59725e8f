//! The two-phase stratified (pilot + Neyman allocation) mode controller.
//!
//! Following Ekman's *CPU Simulation Using Two-Phase Stratified Sampling*,
//! the detailed budget is spent in two phases instead of being stopped
//! greedily per cluster:
//!
//! 1. **Pilot**: every `(type, size-class)` stratum runs
//!    `pilot_samples` instances (see [`SamplingPolicy::Stratified`])
//!    in detail (or its whole population, whichever is smaller) to
//!    estimate its IPC variance. A stratum that finished its own pilot
//!    fast-forwards on the pilot mean while the others catch up.
//! 2. **Allocation**: once the last stratum completes its pilot, the
//!    remaining budget (`budget − pilot spend`) is distributed by
//!    [`neyman_allocate`] proportional to stratum size × pilot stddev —
//!    one [`FidelityAction::Allocated`] event per stratum — and each
//!    stratum samples its extra allocation in detail before converging.
//!
//! Stratum sizes come from a **priming pass** over the program's instance
//! list ([`StratifiedController::prime`]), so the allocator sees exact
//! `N_h` values and unit ids are assigned in instance-creation order —
//! independent of execution interleaving, which keeps reports
//! byte-identical across worker counts.
//!
//! Convergence is concurrency-banded exactly like the adaptive
//! controller's: a converged stratum whose live concurrency shifts into a
//! band that does not reproduce the stratum's converged CI on its own
//! re-opens once per band ([`FidelityAction::ClusterReopened`]) for a
//! mini-pilot of `pilot_samples` detailed instances.

use taskpoint_runtime::{TaskInstanceId, TaskTypeId};
use taskpoint_stats::{Confidence, StreamingMoments};
use taskpoint_telemetry::{FidelityAction, SimEvent, Sink, Telemetry};
use tasksim::{ExecMode, ModeController, SimMode, TaskReport, TaskStart};

use crate::allocate::{neyman_allocate, Stratum};
use crate::ci::relative_ci_half_width;
use crate::cluster::{concurrency_band, ClusterMap};
use crate::config::{SamplingPolicy, TaskPointConfig};
use crate::controller::{AccuracyReport, AdaptiveStats, ClusterAccuracy, ClusterState};

/// Per-stratum sampling state on top of the shared [`ClusterState`].
#[derive(Debug, Clone, Default)]
struct StratumState {
    inner: ClusterState,
    /// `N_h`: stratum population from the priming pass.
    size: u64,
    /// Completions in any mode — exhaustion detector.
    completed: u64,
    /// Post-warmup detailed completions counted toward the pilot.
    pilot_done: u64,
    /// Neyman allocation of extra detailed samples (set when the
    /// allocation fires).
    extra: Option<u64>,
    /// Extra detailed completions consumed so far.
    extra_done: u64,
    /// Pooled relative CI achieved at convergence — the yardstick a
    /// shifted band must reproduce to keep the stratum closed.
    target_rel_ci: Option<f64>,
    /// Remaining mini-pilot completions of an in-progress band re-open.
    reopen_left: u64,
}

impl StratumState {
    /// True once the stratum needs no more pilot instances: quota met or
    /// population exhausted.
    fn pilot_complete(&self, pilot_samples: u64) -> bool {
        self.pilot_done >= pilot_samples || self.completed >= self.size
    }
}

/// The two-phase stratified mode controller. Create one per run and
/// [`prime`](Self::prime) it with the program's instances before driving.
#[derive(Debug)]
pub struct StratifiedController {
    /// `W`: detailed instances per worker at simulation start whose IPC
    /// only feeds the fallback moments.
    warmup_instances: u64,
    /// Detailed pilot instances per stratum (also the length of a band
    /// re-open's mini-pilot).
    pilot_samples: u64,
    /// Total detailed budget after warmup, pilots included.
    budget: u64,
    /// Confidence level of the reported intervals and the band test.
    confidence: Confidence,
    /// One stratum per `(type, size-class)` pair.
    map: ClusterMap,
    /// The stratum of every instance, indexed by task id: filled by the
    /// priming pass, so a decision reads a column instead of hashing.
    units: Vec<u32>,
    /// Stratum state indexed by dense unit id (priming order).
    strata: Vec<StratumState>,
    /// Detailed completions per worker during initial warmup.
    warmup_done: Vec<u64>,
    workers_known: bool,
    warmup_complete: bool,
    primed: bool,
    /// Post-warmup detailed completions spent on pilots (all strata).
    pilot_spend: u64,
    /// Whether the Neyman allocation has fired.
    allocated: bool,
    stats: AdaptiveStats,
    telemetry: Telemetry,
}

impl StratifiedController {
    /// Creates a controller for a stratified `config` (`W` and the pilot,
    /// budget and confidence of its [`SamplingPolicy::Stratified`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TaskPointConfig::validated`]) or its policy is not stratified.
    pub fn new(config: TaskPointConfig) -> Self {
        if let Err(e) = config.validated() {
            panic!("invalid stratified configuration: {e}");
        }
        let SamplingPolicy::Stratified { pilot_samples, budget, confidence } = config.policy else {
            panic!(
                "the StratifiedController needs SamplingPolicy::Stratified, got {:?}",
                config.policy
            )
        };
        Self {
            warmup_instances: config.warmup_instances,
            pilot_samples,
            budget,
            confidence,
            warmup_complete: config.warmup_instances == 0,
            map: ClusterMap::default(),
            units: Vec::new(),
            strata: Vec::new(),
            warmup_done: Vec::new(),
            workers_known: false,
            primed: false,
            pilot_spend: 0,
            allocated: false,
            stats: AdaptiveStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Registers the program's instances — `(type, dynamic instructions)`
    /// in creation order — assigning every stratum its dense unit id and
    /// exact population size `N_h`. Must be called exactly once before
    /// the first [`mode_for_task`](ModeController::mode_for_task), with
    /// the `i`-th item describing task `i`.
    pub fn prime(&mut self, instances: impl IntoIterator<Item = (TaskTypeId, u64)>) {
        assert!(!self.primed, "stratified controller primed twice");
        for (type_id, instructions) in instances {
            let unit = self.map.unit(type_id, instructions).0;
            self.units.push(unit);
            if unit as usize >= self.strata.len() {
                self.strata.resize_with(unit as usize + 1, StratumState::default);
            }
            self.strata[unit as usize].size += 1;
        }
        self.primed = true;
    }

    /// The stratum of `task`, an instance of `type_id` with `instructions`
    /// dynamic instructions.
    fn unit(&self, task: TaskInstanceId, type_id: TaskTypeId, instructions: u64) -> u32 {
        let unit = self.units[task.index()];
        debug_assert_eq!(
            self.map.get(type_id, instructions),
            Some(TaskTypeId(unit)),
            "{task} was primed as another instance"
        );
        unit
    }

    /// Attaches a telemetry handle; a recording one makes the controller
    /// emit one [`SimEvent::Fidelity`] per stratum decision (opened,
    /// sampled, allocated, converged, reopened).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Builder-style form of [`set_telemetry`](Self::set_telemetry).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The telemetry collected so far.
    pub fn stats(&self) -> &AdaptiveStats {
        &self.stats
    }

    /// Number of `(type, size-class)` strata the priming pass found.
    pub fn num_clusters(&self) -> usize {
        self.strata.len()
    }

    /// The per-stratum Neyman allocations of extra detailed samples, in
    /// unit-id order; `None` until the allocation fires.
    pub fn allocations(&self) -> Option<Vec<u64>> {
        if !self.allocated {
            return None;
        }
        Some(self.strata.iter().map(|s| s.extra.unwrap_or(0)).collect())
    }

    /// The per-stratum accuracy picture at this point of the run.
    pub fn report(&self) -> AccuracyReport {
        let clusters: Vec<ClusterAccuracy> = self
            .strata
            .iter()
            .enumerate()
            .map(|(unit, st)| st.inner.accuracy(unit as u32, self.confidence))
            .collect();
        AccuracyReport { clusters, allocated: self.allocations().map(|v| v.iter().sum()) }
    }

    /// Consumes the controller, returning telemetry and the accuracy
    /// report.
    pub fn into_parts(self) -> (AdaptiveStats, AccuracyReport) {
        let report = self.report();
        (self.stats, report)
    }

    fn ensure_workers(&mut self, total: u32) {
        if !self.workers_known {
            self.warmup_done = vec![0; total as usize];
            self.workers_known = true;
        }
    }

    /// True when every worker completed the warmup quota.
    fn check_warmup_complete(&self) -> bool {
        self.warmup_done.iter().all(|&c| c >= self.warmup_instances)
    }

    /// Fires the Neyman allocation once every stratum finished its pilot:
    /// the remaining budget is split proportional to `N_h · S_h`, one
    /// `Allocated` event per stratum in unit-id order, and strata whose
    /// extra allocation is zero converge on the spot.
    fn try_allocate(&mut self, now: u64) {
        let pilot = self.pilot_samples;
        if self.allocated || !self.strata.iter().all(|s| s.pilot_complete(pilot)) {
            return;
        }
        let remaining = self.budget.saturating_sub(self.pilot_spend);
        let inputs: Vec<Stratum> = self
            .strata
            .iter()
            .map(|s| Stratum { size: s.size, std_dev: s.inner.valid.sample_std_dev() })
            .collect();
        let alloc = neyman_allocate(remaining, &inputs, 0);
        for (unit, (st, &extra)) in self.strata.iter_mut().zip(&alloc).enumerate() {
            let rel_ci = relative_ci_half_width(&st.inner.valid, self.confidence);
            st.extra = Some(extra);
            self.telemetry.event(SimEvent::Fidelity {
                tick: now,
                unit: unit as u32,
                action: FidelityAction::Allocated,
                samples: extra,
                rel_ci,
            });
            if extra == 0 {
                st.inner.converged = true;
                st.target_rel_ci = rel_ci;
                self.telemetry.event(SimEvent::Fidelity {
                    tick: now,
                    unit: unit as u32,
                    action: FidelityAction::Converged,
                    samples: st.inner.valid.count(),
                    rel_ci,
                });
            }
        }
        self.allocated = true;
    }

    /// Closes a stratum, recording the pooled CI it converged at.
    fn converge(
        telemetry: &Telemetry,
        confidence: Confidence,
        unit: u32,
        st: &mut StratumState,
        now: u64,
    ) {
        let rel_ci = relative_ci_half_width(&st.inner.valid, confidence);
        st.inner.converged = true;
        st.target_rel_ci = rel_ci;
        telemetry.event(SimEvent::Fidelity {
            tick: now,
            unit,
            action: FidelityAction::Converged,
            samples: st.inner.valid.count(),
            rel_ci,
        });
    }
}

impl ModeController for StratifiedController {
    fn mode_for_task(&mut self, start: &TaskStart) -> ExecMode {
        assert!(self.primed, "stratified controller must be primed with the program's instances");
        self.ensure_workers(start.total_workers);
        let unit = self.unit(start.task, start.type_id, start.instructions);
        let st = &mut self.strata[unit as usize];
        st.inner.seen += 1;
        if st.inner.seen == 1 {
            self.telemetry.event(SimEvent::Fidelity {
                tick: start.time,
                unit,
                action: FidelityAction::ClusterOpened,
                samples: 0,
                rel_ci: None,
            });
        }
        if !self.warmup_complete {
            return ExecMode::Detailed;
        }
        if !self.allocated {
            // Pilot phase: detailed until the stratum's quota is met,
            // then fast-forward on the pilot mean while the other strata
            // catch up.
            if !st.pilot_complete(self.pilot_samples) {
                return ExecMode::Detailed;
            }
            return match st.inner.ipc() {
                Some(ipc) => ExecMode::Fast { ipc },
                None => ExecMode::Detailed,
            };
        }
        if st.inner.converged {
            // Concurrency-band re-opening: a shift into a band that does
            // not reproduce the converged CI on its own samples re-opens
            // the stratum for a mini-pilot — once per band. Strata that
            // converged without a defined CI (fewer than two valid
            // samples) have no yardstick and stay closed.
            if let Some(target) = st.target_rel_ci {
                let band = concurrency_band(start.concurrency);
                let band_met = st
                    .inner
                    .bands
                    .get(&band)
                    .and_then(|m| relative_ci_half_width(m, self.confidence))
                    .is_some_and(|ci| ci <= target);
                if !band_met && !st.inner.reopened_bands.contains(&band) {
                    st.inner.reopened_bands.insert(band);
                    st.inner.converged = false;
                    st.reopen_left = self.pilot_samples;
                    let band_moments = st.inner.bands.get(&band);
                    self.telemetry.event(SimEvent::Fidelity {
                        tick: start.time,
                        unit,
                        action: FidelityAction::ClusterReopened,
                        samples: band_moments.map_or(0, StreamingMoments::count),
                        rel_ci: band_moments
                            .and_then(|m| relative_ci_half_width(m, self.confidence)),
                    });
                    return ExecMode::Detailed;
                }
            }
            if let Some(ipc) = st.inner.ipc() {
                return ExecMode::Fast { ipc };
            }
            st.inner.converged = false;
        }
        ExecMode::Detailed
    }

    fn on_task_complete(&mut self, report: &TaskReport) {
        let unit = self.unit(report.task, report.type_id, report.instructions);
        match report.mode {
            SimMode::Fast => {
                self.stats.fast_tasks += 1;
                self.strata[unit as usize].completed += 1;
            }
            SimMode::Detailed => {
                self.stats.detailed_tasks += 1;
                let ipc = report.ipc();
                let usable = report.instructions > 0 && report.cycles() > 0 && ipc.is_finite();
                if !self.warmup_complete {
                    let st = &mut self.strata[unit as usize];
                    st.completed += 1;
                    if usable {
                        st.inner.all.add(ipc);
                    }
                    self.warmup_done[report.worker.index()] += 1;
                    if self.check_warmup_complete() {
                        self.warmup_complete = true;
                    }
                    return;
                }
                let st = &mut self.strata[unit as usize];
                st.completed += 1;
                if !self.allocated {
                    // Pilot sample (stragglers of pilot-complete strata
                    // included: more variance signal for free).
                    st.pilot_done += 1;
                    self.pilot_spend += 1;
                    if usable {
                        st.inner.add_valid(ipc, report.concurrency);
                        *self.stats.valid_samples.entry(unit).or_insert(0) += 1;
                        self.telemetry.event(SimEvent::Fidelity {
                            tick: report.end,
                            unit,
                            action: FidelityAction::Sampled,
                            samples: st.inner.valid.count(),
                            rel_ci: relative_ci_half_width(&st.inner.valid, self.confidence),
                        });
                    }
                    self.try_allocate(report.end);
                    return;
                }
                if st.inner.converged {
                    // Straggler of a converged stratum: fallback moments
                    // only, mirroring the adaptive controller.
                    if usable {
                        st.inner.all.add(ipc);
                    }
                    return;
                }
                if usable {
                    st.inner.add_valid(ipc, report.concurrency);
                    *self.stats.valid_samples.entry(unit).or_insert(0) += 1;
                    self.telemetry.event(SimEvent::Fidelity {
                        tick: report.end,
                        unit,
                        action: FidelityAction::Sampled,
                        samples: st.inner.valid.count(),
                        rel_ci: relative_ci_half_width(&st.inner.valid, self.confidence),
                    });
                }
                if st.reopen_left > 0 {
                    // Mini-pilot of a band re-open: completions count so
                    // the stratum closes even on unusable samples.
                    st.reopen_left -= 1;
                    if st.reopen_left == 0 {
                        Self::converge(&self.telemetry, self.confidence, unit, st, report.end);
                    }
                } else {
                    st.extra_done += 1;
                    if st.extra_done >= st.extra.unwrap_or(0) {
                        Self::converge(&self.telemetry, self.confidence, unit, st, report.end);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint_runtime::WorkerId;

    fn start(task: u64, type_id: u32, instructions: u64, concurrency: u32) -> TaskStart {
        TaskStart {
            task: TaskInstanceId(task as u32),
            type_id: TaskTypeId(type_id),
            instructions,
            worker: WorkerId(0),
            time: task * 1000,
            concurrency,
            total_workers: 1,
        }
    }

    fn report(
        task: u64,
        type_id: u32,
        instructions: u64,
        cycles: u64,
        mode: SimMode,
        concurrency: u32,
    ) -> TaskReport {
        TaskReport {
            task: TaskInstanceId(task as u32),
            type_id: TaskTypeId(type_id),
            worker: WorkerId(0),
            start: 0,
            end: cycles,
            instructions,
            mode,
            concurrency,
        }
    }

    /// Drives one instance; returns the decision.
    fn run_one(
        ctrl: &mut StratifiedController,
        task: u64,
        type_id: u32,
        instructions: u64,
        cycles: u64,
        concurrency: u32,
    ) -> ExecMode {
        let mode = ctrl.mode_for_task(&start(task, type_id, instructions, concurrency));
        let sim_mode = match mode {
            ExecMode::Detailed => SimMode::Detailed,
            ExecMode::Fast { .. } => SimMode::Fast,
        };
        ctrl.on_task_complete(&report(task, type_id, instructions, cycles, sim_mode, concurrency));
        mode
    }

    /// A one-type program of `n` equal-size instances.
    fn primed(config: TaskPointConfig, n: u64) -> StratifiedController {
        let mut ctrl = StratifiedController::new(config);
        ctrl.prime((0..n).map(|_| (TaskTypeId(0), 1000)));
        ctrl
    }

    #[test]
    fn pilot_only_when_budget_equals_pilot_spend() {
        // One stratum, pilot == budget: allocation leaves zero extra and
        // the run degenerates to warmup + pilot detailed instances.
        let mut ctrl = primed(TaskPointConfig::stratified(4, 4), 50);
        let mut detailed = 0;
        for task in 0..50u64 {
            if let ExecMode::Detailed = run_one(&mut ctrl, task, 0, 1000, 500, 1) {
                detailed += 1;
            }
        }
        assert_eq!(detailed, 2 + 4, "warmup + pilot only");
        assert_eq!(ctrl.allocations(), Some(vec![0]));
        assert_eq!(ctrl.stats().fast_tasks, 44);
        let rep = ctrl.report();
        assert_eq!(rep.units(), 1);
        assert_eq!(rep.converged_units(), 1);
    }

    #[test]
    fn extra_budget_follows_the_variance() {
        // Two types, same size: type 0 constant IPC, type 1 noisy. All
        // extra budget must land on type 1 (type 0 is zero-variance).
        let mut ctrl = StratifiedController::new(TaskPointConfig::stratified(4, 32).with_warmup(0));
        ctrl.prime((0..80).map(|i| (TaskTypeId((i % 2) as u32), 1000)));
        for task in 0..80u64 {
            let ty = (task % 2) as u32;
            let cycles = if ty == 0 {
                500
            } else if task % 4 == 1 {
                300
            } else {
                700
            };
            run_one(&mut ctrl, task, ty, 1000, cycles, 1);
        }
        let alloc = ctrl.allocations().expect("allocation fired");
        assert_eq!(alloc.len(), 2);
        assert_eq!(alloc[0], 0, "zero-variance stratum gets no extra");
        assert_eq!(alloc[1], 32 - 8, "noisy stratum takes the whole remainder");
        let rep = ctrl.report();
        assert_eq!(rep.converged_units(), 2);
        let noisy = &rep.clusters[1];
        assert_eq!(noisy.samples, 4 + 24, "pilot + extra all landed");
    }

    #[test]
    fn strata_split_by_size_class() {
        let mut ctrl = StratifiedController::new(TaskPointConfig::stratified(2, 8).with_warmup(0));
        ctrl.prime((0..40).map(|i| (TaskTypeId(0), if i % 2 == 0 { 200 } else { 100_000 })));
        assert_eq!(ctrl.num_clusters(), 2, "one type, two size classes");
        for task in 0..40u64 {
            let instrs = if task % 2 == 0 { 200 } else { 100_000 };
            run_one(&mut ctrl, task, 0, instrs, instrs / 2, 1);
        }
        assert_eq!(ctrl.report().units(), 2);
    }

    #[test]
    fn concurrency_shift_reopens_a_converged_stratum() {
        let mut ctrl = primed(TaskPointConfig::stratified(4, 8).with_warmup(0), 60);
        let mut task = 0u64;
        // Noisy stratum at concurrency 1 through pilot + extra.
        for _ in 0..20 {
            let cycles = if task.is_multiple_of(2) { 400 } else { 600 };
            run_one(&mut ctrl, task, 0, 1000, cycles, 1);
            task += 1;
        }
        assert!(ctrl.report().clusters[0].converged);
        assert_eq!(ctrl.report().reopened_bands(), 0);
        // Shift to concurrency 4 (band 2): no samples there, so the
        // stratum re-opens for a mini-pilot.
        let mode = run_one(&mut ctrl, task, 0, 1000, 400, 4);
        task += 1;
        assert_eq!(mode, ExecMode::Detailed);
        assert_eq!(ctrl.report().reopened_bands(), 1);
        for _ in 0..4 {
            let cycles = if task.is_multiple_of(2) { 400 } else { 600 };
            run_one(&mut ctrl, task, 0, 1000, cycles, 4);
            task += 1;
        }
        let rep = ctrl.report();
        assert!(rep.clusters[0].converged, "mini-pilot closed the stratum again");
        assert_eq!(rep.reopened_bands(), 1);
        // Same band again: once per band.
        let mode = run_one(&mut ctrl, task, 0, 1000, 500, 4);
        assert!(matches!(mode, ExecMode::Fast { .. }));
        assert_eq!(ctrl.report().reopened_bands(), 1);
    }

    #[test]
    fn constant_concurrency_never_reopens() {
        let mut ctrl = primed(TaskPointConfig::stratified(4, 16).with_warmup(0), 200);
        for task in 0..200u64 {
            let cycles = if task.is_multiple_of(2) { 400 } else { 600 };
            run_one(&mut ctrl, task, 0, 1000, cycles, 2);
        }
        assert_eq!(ctrl.report().reopened_bands(), 0);
    }

    #[test]
    #[should_panic(expected = "must be primed")]
    fn unprimed_controller_is_rejected() {
        let mut ctrl = StratifiedController::new(TaskPointConfig::stratified(4, 8));
        ctrl.mode_for_task(&start(0, 0, 1000, 1));
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn invalid_config_rejected() {
        StratifiedController::new(TaskPointConfig::stratified(8, 4));
    }

    #[test]
    #[should_panic(expected = "must not exceed history")]
    fn warmup_beyond_history_rejected() {
        StratifiedController::new(TaskPointConfig::stratified(4, 8).with_warmup(5));
    }

    #[test]
    #[should_panic(expected = "needs SamplingPolicy::Stratified")]
    fn other_policies_rejected() {
        StratifiedController::new(TaskPointConfig::adaptive(0.05));
    }
}
