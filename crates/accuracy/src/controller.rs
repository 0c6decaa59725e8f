//! The confidence-driven adaptive mode controller.
//!
//! Unlike the base TaskPoint controller — a *global* four-phase machine
//! that samples every observed type until all histories fill, then
//! fast-forwards everything — the adaptive controller makes the
//! detailed/fast decision **per sampling cluster**:
//!
//! * every cluster starts unconverged and runs detailed;
//! * each detailed completion feeds the cluster's streaming moments;
//! * once the cluster satisfies the stopping rule
//!   ([`ci_target_met`]: `n ≥ min_samples` and the
//!   relative CI half-width of its mean IPC within `target_ci` at the
//!   configured confidence), it *converges* and its future instances
//!   fast-forward at the streaming mean IPC;
//! * a **rare-cluster cutoff** transplants the paper's rare-task-type
//!   rule: when every worker has completed `rare_cluster_cutoff`
//!   instances without touching an unconverged cluster, clusters that
//!   still lack samples to converge are forced onto whatever estimate
//!   they have, so a cluster with three instances in the whole program
//!   cannot pin the simulation to detailed mode;
//! * the initial **warmup** (`W` detailed instances per worker) feeds
//!   only the fallback moments, exactly like the base controller's
//!   all-samples history.
//!
//! There is no global resampling: a cluster unseen so far is simply a new
//! unconverged cluster (the per-cluster analogue of the paper's
//! new-task-type trigger). Convergence is sticky **per concurrency
//! band**: every valid sample also feeds the moments of its log₂
//! concurrency band ([`concurrency_band`]), and a converged cluster
//! whose live concurrency shifts into a band that does not meet the CI
//! target on its own is *re-opened* — once per band — emitting a
//! [`FidelityAction::ClusterReopened`] event and sampling in detail until
//! both the pooled and the triggering band's moments satisfy the
//! stopping rule again. This is the adaptive counterpart of the base
//! controller's Fig. 4a concurrency-change trigger. Clusters converged
//! by the rare-cluster cutoff stay closed: their estimate is too thin
//! for a per-band test to be meaningful.

use std::collections::{HashMap, HashSet};

use taskpoint_stats::{Confidence, StreamingMoments};
use taskpoint_telemetry::{FidelityAction, SimEvent, Sink, Telemetry};
use tasksim::{ExecMode, ModeController, SimMode, TaskReport, TaskStart};

use crate::ci::{ci_target_met, relative_ci_half_width};
use crate::cluster::concurrency_band;
use crate::config::{SamplingPolicy, SamplingStats, TaskPointConfig};

/// Per-cluster sampling state (shared with the stratified controller).
#[derive(Debug, Clone, Default)]
pub(crate) struct ClusterState {
    /// Post-warmup detailed samples — what the CI is computed over.
    pub(crate) valid: StreamingMoments,
    /// Every detailed sample including warmup — the fallback estimate.
    pub(crate) all: StreamingMoments,
    /// Valid samples split by the log₂ concurrency band observed at
    /// completion — updated in exact lockstep with `valid`.
    pub(crate) bands: HashMap<u32, StreamingMoments>,
    /// Bands that already triggered a re-open (at most one per band).
    pub(crate) reopened_bands: HashSet<u32>,
    /// The band whose unmet CI re-opened the cluster; re-convergence
    /// additionally requires this band's moments to meet the target.
    pub(crate) pending_band: Option<u32>,
    /// Instances observed starting (any mode).
    pub(crate) seen: u64,
    pub(crate) converged: bool,
    /// Converged via the rare-cluster cutoff rather than the CI test.
    pub(crate) forced: bool,
}

impl ClusterState {
    /// The fast-forward IPC: mean of the valid moments, else of the
    /// fallback moments, else `None`.
    pub(crate) fn ipc(&self) -> Option<f64> {
        for m in [&self.valid, &self.all] {
            if !m.is_empty() && m.mean() > 0.0 {
                return Some(m.mean());
            }
        }
        None
    }

    /// Records a valid sample at the given concurrency, feeding the
    /// pooled and the per-band moments in lockstep.
    pub(crate) fn add_valid(&mut self, ipc: f64, concurrency: u32) {
        self.valid.add(ipc);
        self.all.add(ipc);
        self.bands.entry(concurrency_band(concurrency)).or_default().add(ipc);
    }

    /// The end-of-run accuracy row of this cluster.
    pub(crate) fn accuracy(&self, unit: u32, confidence: Confidence) -> ClusterAccuracy {
        let mut band_ids: Vec<u32> = self.bands.keys().copied().collect();
        for &b in &self.reopened_bands {
            if !self.bands.contains_key(&b) {
                band_ids.push(b);
            }
        }
        band_ids.sort_unstable();
        let bands = band_ids
            .iter()
            .map(|&band| {
                let m = self.bands.get(&band).copied().unwrap_or_default();
                BandAccuracy {
                    band,
                    samples: m.count(),
                    mean_ipc: if m.is_empty() { 0.0 } else { m.mean() },
                    rel_ci: relative_ci_half_width(&m, confidence),
                    reopened: self.reopened_bands.contains(&band),
                }
            })
            .collect();
        ClusterAccuracy {
            unit,
            samples: self.valid.count(),
            seen: self.seen,
            mean_ipc: self.ipc().unwrap_or(0.0),
            rel_ci: relative_ci_half_width(&self.valid, confidence),
            converged: self.converged,
            forced: self.forced,
            bands,
        }
    }
}

/// End-of-run accuracy of one concurrency band within a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct BandAccuracy {
    /// The log₂ concurrency band (see
    /// [`concurrency_band`]).
    pub band: u32,
    /// Valid samples observed at this band.
    pub samples: u64,
    /// Streaming mean IPC of the band's samples (0 when empty).
    pub mean_ipc: f64,
    /// Relative CI half-width of the band mean at the configured
    /// confidence; `None` when undefined.
    pub rel_ci: Option<f64>,
    /// Whether a shift into this band re-opened the cluster.
    pub reopened: bool,
}

/// End-of-run accuracy of one sampling cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterAccuracy {
    /// The sampling unit: the task type id (adaptive) or the stratum's
    /// dense `(type, size-class)` id (stratified).
    pub unit: u32,
    /// Valid samples accumulated.
    pub samples: u64,
    /// Instances observed starting (any mode).
    pub seen: u64,
    /// Streaming mean IPC the cluster fast-forwards at (valid moments,
    /// falling back to warmup samples), or 0 when it never completed a
    /// usable detailed instance.
    pub mean_ipc: f64,
    /// Relative CI half-width of the valid mean at the configured
    /// confidence; `None` when undefined (fewer than two valid samples).
    pub rel_ci: Option<f64>,
    /// Whether the cluster converged (stopped sampling).
    pub converged: bool,
    /// Whether convergence came from the rare-cluster cutoff.
    pub forced: bool,
    /// Per-concurrency-band accuracy, sorted by band id. Bands that
    /// re-opened the cluster appear even when they gathered no sample.
    pub bands: Vec<BandAccuracy>,
}

/// Per-cluster confidence intervals of a finished adaptive or stratified
/// run — the payload behind the campaign record's CI fields.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// Per-cluster accuracy, sorted by unit id.
    pub clusters: Vec<ClusterAccuracy>,
    /// Total detailed instances the Neyman allocator handed out after the
    /// pilot phase (stratified runs that reached allocation; `None` for
    /// adaptive runs and pilots cut short by the program ending).
    pub allocated: Option<u64>,
}

impl AccuracyReport {
    /// Number of sampling units observed.
    pub fn units(&self) -> usize {
        self.clusters.len()
    }

    /// Units that converged (by CI or by cutoff).
    pub fn converged_units(&self) -> usize {
        self.clusters.iter().filter(|c| c.converged).count()
    }

    /// Largest defined per-cluster relative CI half-width — the weakest
    /// per-cluster guarantee of the run.
    pub fn max_rel_ci(&self) -> Option<f64> {
        // rel_ci values are finite by construction, so f64::max is exact.
        self.clusters.iter().filter_map(|c| c.rel_ci).reduce(f64::max)
    }

    /// Mean of the defined per-cluster relative CI half-widths.
    pub fn mean_rel_ci(&self) -> Option<f64> {
        let cis: Vec<f64> = self.clusters.iter().filter_map(|c| c.rel_ci).collect();
        if cis.is_empty() {
            None
        } else {
            Some(cis.iter().sum::<f64>() / cis.len() as f64)
        }
    }

    /// Total `(cluster, band)` pairs whose concurrency shift re-opened a
    /// converged cluster — the number of re-opens, since a cluster
    /// re-opens at most once per band.
    pub fn reopened_bands(&self) -> usize {
        self.clusters.iter().flat_map(|c| &c.bands).filter(|b| b.reopened).count()
    }
}

/// The adaptive mode controller. Create one per simulation run.
#[derive(Debug)]
pub struct AdaptiveController {
    /// `W`: detailed instances per worker at simulation start whose IPC
    /// only feeds the fallback moments.
    warmup_instances: u64,
    /// Rare-cluster cutoff: once every worker has completed this many
    /// instances without touching an unconverged cluster, clusters that
    /// still lack their floor are force-converged onto whatever estimate
    /// they have (the paper's rare-task-type rule).
    rare_cluster_cutoff: u64,
    /// The stopping rule (see [`SamplingPolicy::Adaptive`]).
    target_ci: f64,
    confidence: Confidence,
    min_samples: u64,
    /// State per observed cluster, indexed by the dense unit id (`None`
    /// until the unit's first instance starts).
    clusters: Vec<Option<ClusterState>>,
    /// Detailed completions per worker during initial warmup.
    warmup_done: Vec<u64>,
    /// Completions per worker since one last touched an unconverged
    /// cluster (the rare-cluster cutoff clock).
    since_unconverged: Vec<u64>,
    workers_known: bool,
    warmup_complete: bool,
    stats: SamplingStats,
    /// Receiver of per-cluster fidelity-decision events (disabled by
    /// default; attach with [`set_telemetry`](Self::set_telemetry)).
    telemetry: Telemetry,
}

impl AdaptiveController {
    /// Creates a controller for an adaptive `config` (`W`, the rare-type
    /// cutoff as the rare-cluster cutoff, and the stopping rule of its
    /// [`SamplingPolicy::Adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TaskPointConfig::validated`]) or its policy is not adaptive.
    pub fn new(config: TaskPointConfig) -> Self {
        if let Err(e) = config.validated() {
            panic!("invalid adaptive configuration: {e}");
        }
        let SamplingPolicy::Adaptive { target_ci, confidence, min_samples } = config.policy else {
            panic!("the AdaptiveController needs SamplingPolicy::Adaptive, got {:?}", config.policy)
        };
        Self {
            warmup_instances: config.warmup_instances,
            rare_cluster_cutoff: config.rare_type_cutoff,
            target_ci,
            confidence,
            min_samples,
            warmup_complete: config.warmup_instances == 0,
            clusters: Vec::new(),
            warmup_done: Vec::new(),
            since_unconverged: Vec::new(),
            workers_known: false,
            stats: SamplingStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; a recording one makes the controller
    /// emit one [`SimEvent::Fidelity`] per cluster decision (opened,
    /// sampled, converged, rare-converged) with the CI half-width at
    /// decision time.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Builder-style form of [`set_telemetry`](Self::set_telemetry).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The telemetry collected so far.
    pub fn stats(&self) -> &SamplingStats {
        &self.stats
    }

    /// The per-cluster accuracy picture at this point of the run.
    pub fn report(&self) -> AccuracyReport {
        let clusters = self
            .clusters
            .iter()
            .enumerate()
            .filter_map(|(unit, st)| {
                st.as_ref().map(|st| st.accuracy(unit as u32, self.confidence))
            })
            .collect();
        AccuracyReport { clusters, allocated: None }
    }

    /// Consumes the controller, returning telemetry and the accuracy
    /// report.
    pub fn into_parts(self) -> (SamplingStats, AccuracyReport) {
        let report = self.report();
        (self.stats, report)
    }

    fn ensure_workers(&mut self, total: u32) {
        if !self.workers_known {
            let n = total as usize;
            self.warmup_done = vec![0; n];
            self.since_unconverged = vec![0; n];
            self.workers_known = true;
        }
    }

    /// True when every worker completed the warmup quota.
    fn check_warmup_complete(&self) -> bool {
        self.warmup_done.iter().all(|&c| c >= self.warmup_instances)
    }

    /// True when the rare-cluster cutoff clock expired on every worker.
    fn rare_cutoff_expired(&self) -> bool {
        self.since_unconverged.iter().all(|&c| c >= self.rare_cluster_cutoff)
    }

    /// Force-converges every cluster that has any estimate at all, in
    /// unit-id order (the order of the emitted telemetry).
    fn force_converge_rare(&mut self, now: u64) {
        for (unit, st) in self.clusters.iter_mut().enumerate() {
            let Some(st) = st else { continue };
            if !st.converged && st.ipc().is_some() {
                st.converged = true;
                st.forced = true;
                st.pending_band = None;
                self.telemetry.event(SimEvent::Fidelity {
                    tick: now,
                    unit: unit as u32,
                    action: FidelityAction::RareConverged,
                    samples: st.valid.count(),
                    rel_ci: relative_ci_half_width(&st.valid, self.confidence),
                });
            }
        }
        self.reset_cutoff_clock();
    }

    fn reset_cutoff_clock(&mut self) {
        for c in &mut self.since_unconverged {
            *c = 0;
        }
    }
}

impl ModeController for AdaptiveController {
    fn mode_for_task(&mut self, start: &TaskStart) -> ExecMode {
        self.ensure_workers(start.total_workers);
        let unit = start.type_id.0 as usize;
        if unit >= self.clusters.len() {
            self.clusters.resize_with(unit + 1, || None);
        }
        let state = self.clusters[unit].get_or_insert_with(ClusterState::default);
        state.seen += 1;
        if state.seen == 1 {
            self.telemetry.event(SimEvent::Fidelity {
                tick: start.time,
                unit: start.type_id.0,
                action: FidelityAction::ClusterOpened,
                samples: 0,
                rel_ci: None,
            });
        }
        if !self.warmup_complete {
            return ExecMode::Detailed;
        }
        if state.converged {
            // Concurrency-band re-opening (Fig. 4a analogue): a shift
            // into a band whose own moments miss the CI target re-opens
            // the cluster — once per band, never for rare-forced
            // clusters (their estimate is too thin for per-band tests).
            if !state.forced {
                let band = concurrency_band(start.concurrency);
                let band_met = state.bands.get(&band).is_some_and(|m| {
                    ci_target_met(m, self.target_ci, self.confidence, self.min_samples)
                });
                if !band_met && !state.reopened_bands.contains(&band) {
                    state.reopened_bands.insert(band);
                    state.pending_band = Some(band);
                    state.converged = false;
                    let band_ci = state
                        .bands
                        .get(&band)
                        .and_then(|m| relative_ci_half_width(m, self.confidence));
                    self.telemetry.event(SimEvent::Fidelity {
                        tick: start.time,
                        unit: start.type_id.0,
                        action: FidelityAction::ClusterReopened,
                        samples: state.bands.get(&band).map_or(0, StreamingMoments::count),
                        rel_ci: band_ci,
                    });
                    return ExecMode::Detailed;
                }
            }
            if let Some(ipc) = state.ipc() {
                return ExecMode::Fast { ipc };
            }
            // Converged with no estimate cannot happen through the normal
            // paths; recover by sampling.
            state.converged = false;
        }
        ExecMode::Detailed
    }

    fn on_task_complete(&mut self, report: &TaskReport) {
        match report.mode {
            SimMode::Fast => {
                self.stats.fast_tasks += 1;
                // Fast instances belong to converged clusters: the rare
                // cutoff clock advances.
                self.since_unconverged[report.worker.index()] += 1;
            }
            SimMode::Detailed => {
                self.stats.detailed_tasks += 1;
                let ipc = report.ipc();
                let usable = report.instructions > 0 && report.cycles() > 0 && ipc.is_finite();
                let w = report.worker.index();
                if !self.warmup_complete {
                    self.warmup_done[w] += 1;
                    if usable {
                        let state = self.clusters[report.type_id.0 as usize]
                            .as_mut()
                            .expect("completed task of unregistered cluster");
                        state.all.add(ipc);
                    }
                    if self.check_warmup_complete() {
                        self.warmup_complete = true;
                        self.reset_cutoff_clock();
                    }
                    return;
                }
                let state = self.clusters[report.type_id.0 as usize]
                    .as_mut()
                    .expect("completed task of unregistered cluster");
                if state.converged {
                    // A straggler that started detailed before its cluster
                    // converged: fallback moments only, clock advances.
                    if usable {
                        state.all.add(ipc);
                    }
                    self.since_unconverged[w] += 1;
                } else {
                    if usable {
                        state.add_valid(ipc, report.concurrency);
                        *self.stats.valid_samples.entry(report.type_id.0).or_insert(0) += 1;
                        let rel_ci = relative_ci_half_width(&state.valid, self.confidence);
                        self.telemetry.event(SimEvent::Fidelity {
                            tick: report.end,
                            unit: report.type_id.0,
                            action: FidelityAction::Sampled,
                            samples: state.valid.count(),
                            rel_ci,
                        });
                        // Re-convergence after a band re-open additionally
                        // requires the triggering band to meet the target
                        // on its own samples.
                        let band_ok = match state.pending_band {
                            None => true,
                            Some(b) => state.bands.get(&b).is_some_and(|m| {
                                ci_target_met(m, self.target_ci, self.confidence, self.min_samples)
                            }),
                        };
                        if band_ok
                            && ci_target_met(
                                &state.valid,
                                self.target_ci,
                                self.confidence,
                                self.min_samples,
                            )
                        {
                            state.converged = true;
                            state.pending_band = None;
                            self.telemetry.event(SimEvent::Fidelity {
                                tick: report.end,
                                unit: report.type_id.0,
                                action: FidelityAction::Converged,
                                samples: state.valid.count(),
                                rel_ci,
                            });
                        }
                    }
                    self.reset_cutoff_clock();
                }
            }
        }
        if self.rare_cutoff_expired() {
            self.force_converge_rare(report.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint_runtime::{TaskInstanceId, TaskTypeId, WorkerId};

    /// An adaptive config at `target_ci` with a `min_samples` floor.
    fn adaptive(target_ci: f64, min_samples: u64) -> TaskPointConfig {
        TaskPointConfig::adaptive(target_ci).with_policy(SamplingPolicy::Adaptive {
            target_ci,
            confidence: Confidence::C95,
            min_samples,
        })
    }

    /// Clusters force-converged by the rare-cluster cutoff so far.
    fn forced_clusters(ctrl: &AdaptiveController) -> usize {
        ctrl.report().clusters.iter().filter(|c| c.forced).count()
    }

    fn start(task: u64, type_id: u32, worker: u32, time: u64) -> TaskStart {
        TaskStart {
            task: TaskInstanceId(task as u32),
            type_id: TaskTypeId(type_id),
            instructions: 1000,
            worker: WorkerId(worker),
            time,
            concurrency: 1,
            total_workers: 1,
        }
    }

    fn report(task: u64, type_id: u32, cycles: u64, mode: SimMode) -> TaskReport {
        TaskReport {
            task: TaskInstanceId(task as u32),
            type_id: TaskTypeId(type_id),
            worker: WorkerId(0),
            start: 0,
            end: cycles,
            instructions: 1000,
            mode,
            concurrency: 1,
        }
    }

    /// Drives a 1-worker stream of one type with the given per-instance
    /// cycle counts; returns the number of detailed decisions.
    fn drive(ctrl: &mut AdaptiveController, cycles: &[u64]) -> usize {
        let mut detailed = 0;
        for (i, &c) in cycles.iter().enumerate() {
            let s = start(i as u64, 0, 0, i as u64 * 1000);
            match ctrl.mode_for_task(&s) {
                ExecMode::Detailed => {
                    detailed += 1;
                    ctrl.on_task_complete(&report(i as u64, 0, c, SimMode::Detailed));
                }
                ExecMode::Fast { ipc } => {
                    assert!(ipc > 0.0);
                    ctrl.on_task_complete(&report(i as u64, 0, c, SimMode::Fast));
                }
            }
        }
        detailed
    }

    #[test]
    fn uniform_cluster_converges_at_the_floor() {
        // Identical IPCs: zero variance, CI = 0 at the floor.
        let mut ctrl = AdaptiveController::new(TaskPointConfig::adaptive(0.05));
        let detailed = drive(&mut ctrl, &[500; 50]);
        // W=2 warmup + min_samples=4 valid samples.
        assert_eq!(detailed, 6);
        assert_eq!(ctrl.stats().fast_tasks, 44);
        let rep = ctrl.report();
        assert_eq!(rep.units(), 1);
        assert_eq!(rep.converged_units(), 1);
        assert_eq!(rep.clusters[0].samples, 4);
        assert!(!rep.clusters[0].forced);
        assert_eq!(rep.max_rel_ci(), Some(0.0));
    }

    #[test]
    fn noisy_cluster_keeps_sampling_until_the_ci_shrinks() {
        let loose = TaskPointConfig::adaptive(0.20);
        let tight = TaskPointConfig::adaptive(0.02);
        // Alternating 400/600 cycles: IPC alternates 2.5 / 1.667.
        let cycles: Vec<u64> = (0..400).map(|i| if i % 2 == 0 { 400 } else { 600 }).collect();
        let mut a = AdaptiveController::new(loose);
        let mut b = AdaptiveController::new(tight);
        let loose_detail = drive(&mut a, &cycles);
        let tight_detail = drive(&mut b, &cycles);
        assert!(
            loose_detail < tight_detail,
            "tighter target must sample more: {loose_detail} vs {tight_detail}"
        );
        assert!(tight_detail < cycles.len(), "tight target still converges eventually");
    }

    #[test]
    fn never_converges_below_min_samples() {
        let mut ctrl = AdaptiveController::new(adaptive(0.5, 9));
        let detailed = drive(&mut ctrl, &[500; 30]);
        assert_eq!(detailed, 2 + 9, "warmup + floor");
    }

    #[test]
    fn zero_warmup_samples_immediately() {
        let mut ctrl = AdaptiveController::new(TaskPointConfig::adaptive(0.05).with_warmup(0));
        let detailed = drive(&mut ctrl, &[500; 20]);
        assert_eq!(detailed, 4, "no warmup: floor only");
    }

    #[test]
    fn rare_cluster_is_force_converged_by_the_cutoff() {
        let mut ctrl = AdaptiveController::new(TaskPointConfig::adaptive(0.05));
        let mut task = 0u64;
        let mut run = |ctrl: &mut AdaptiveController, ty: u32, cycles: u64| -> ExecMode {
            let s = start(task, ty, 0, task * 1000);
            let mode = ctrl.mode_for_task(&s);
            let sim_mode = match mode {
                ExecMode::Detailed => SimMode::Detailed,
                ExecMode::Fast { .. } => SimMode::Fast,
            };
            ctrl.on_task_complete(&report(task, ty, cycles, sim_mode));
            task += 1;
            mode
        };
        // One rare-type instance during the stream, then common type only.
        for _ in 0..3 {
            run(&mut ctrl, 0, 500);
        }
        run(&mut ctrl, 1, 250); // rare type: one valid sample, unconverged
        for _ in 0..20 {
            run(&mut ctrl, 0, 500);
        }
        // Common type converged; after `rare_cluster_cutoff` fast
        // completions the rare cluster is forced.
        assert_eq!(forced_clusters(&ctrl), 1);
        let mode = run(&mut ctrl, 1, 250);
        assert!(
            matches!(mode, ExecMode::Fast { .. }),
            "rare cluster fast-forwards on its single-sample estimate"
        );
        let rep = ctrl.report();
        let rare = rep.clusters.iter().find(|c| c.unit == 1).unwrap();
        assert!(rare.forced && rare.converged);
    }

    fn start_c(task: u64, type_id: u32, concurrency: u32) -> TaskStart {
        TaskStart { concurrency, ..start(task, type_id, 0, task * 1000) }
    }

    fn report_c(
        task: u64,
        type_id: u32,
        cycles: u64,
        mode: SimMode,
        concurrency: u32,
    ) -> TaskReport {
        TaskReport { concurrency, ..report(task, type_id, cycles, mode) }
    }

    /// Runs one instance at the given concurrency; returns the decision.
    fn run_at(ctrl: &mut AdaptiveController, task: u64, cycles: u64, concurrency: u32) -> ExecMode {
        let mode = ctrl.mode_for_task(&start_c(task, 0, concurrency));
        let sim_mode = match mode {
            ExecMode::Detailed => SimMode::Detailed,
            ExecMode::Fast { .. } => SimMode::Fast,
        };
        ctrl.on_task_complete(&report_c(task, 0, cycles, sim_mode, concurrency));
        mode
    }

    #[test]
    fn concurrency_shift_reopens_a_converged_cluster_once_per_band() {
        let mut ctrl = AdaptiveController::new(TaskPointConfig::adaptive(0.05));
        let mut task = 0u64;
        // Converge at concurrency 1 (band 0): W=2 + floor 4 detailed.
        for _ in 0..10 {
            run_at(&mut ctrl, task, 500, 1);
            task += 1;
        }
        assert_eq!(ctrl.report().reopened_bands(), 0);
        assert!(ctrl.report().clusters[0].converged);
        // Shift into band 2 (concurrency 4): the empty band misses the
        // target, so the cluster re-opens and samples in detail.
        let mode = run_at(&mut ctrl, task, 500, 4);
        task += 1;
        assert_eq!(mode, ExecMode::Detailed, "shifted band re-opens the cluster");
        assert_eq!(ctrl.report().reopened_bands(), 1);
        // Keep sampling at concurrency 4 until the band re-converges.
        for _ in 0..10 {
            run_at(&mut ctrl, task, 500, 4);
            task += 1;
        }
        let rep = ctrl.report();
        assert!(rep.clusters[0].converged, "band met its target again");
        assert_eq!(rep.reopened_bands(), 1);
        let band2 = rep.clusters[0].bands.iter().find(|b| b.band == 2).unwrap();
        assert!(band2.reopened && band2.samples >= 4);
        // A second shift into the same band stays fast: one re-open per
        // band.
        let mode = run_at(&mut ctrl, task, 500, 4);
        assert!(matches!(mode, ExecMode::Fast { .. }));
        assert_eq!(ctrl.report().reopened_bands(), 1);
    }

    #[test]
    fn constant_concurrency_never_reopens() {
        // The triggering band's moments are bit-identical to the pooled
        // moments at constant concurrency, so convergence is sticky.
        let mut ctrl = AdaptiveController::new(TaskPointConfig::adaptive(0.05));
        for task in 0..200u64 {
            run_at(&mut ctrl, task, if task % 2 == 0 { 400 } else { 600 }, 3);
        }
        assert_eq!(ctrl.report().reopened_bands(), 0);
    }

    #[test]
    fn rare_forced_clusters_stay_closed_across_bands() {
        let mut ctrl = AdaptiveController::new(TaskPointConfig::adaptive(0.05));
        let mut task = 0u64;
        let mut run = |ctrl: &mut AdaptiveController, ty: u32, concurrency: u32| -> ExecMode {
            let s = start_c(task, ty, concurrency);
            let mode = ctrl.mode_for_task(&s);
            let sim_mode = match mode {
                ExecMode::Detailed => SimMode::Detailed,
                ExecMode::Fast { .. } => SimMode::Fast,
            };
            ctrl.on_task_complete(&report_c(task, ty, 500, sim_mode, concurrency));
            task += 1;
            mode
        };
        for _ in 0..3 {
            run(&mut ctrl, 0, 1);
        }
        run(&mut ctrl, 1, 1); // rare type: one sample
        for _ in 0..20 {
            run(&mut ctrl, 0, 1);
        }
        assert_eq!(forced_clusters(&ctrl), 1);
        // The rare cluster at a brand-new concurrency band must not
        // re-open: its single-sample estimate makes band tests
        // meaningless.
        let mode = run(&mut ctrl, 1, 8);
        assert!(matches!(mode, ExecMode::Fast { .. }));
        assert_eq!(ctrl.report().reopened_bands(), 0);
    }

    #[test]
    fn invalid_ipc_reports_are_skipped() {
        let mut ctrl = AdaptiveController::new(TaskPointConfig::adaptive(0.05).with_warmup(0));
        let s = start(0, 0, 0, 0);
        assert_eq!(ctrl.mode_for_task(&s), ExecMode::Detailed);
        // Zero-cycle completion carries no IPC: no sample recorded.
        ctrl.on_task_complete(&report(0, 0, 0, SimMode::Detailed));
        assert_eq!(ctrl.stats().detailed_tasks, 1);
        assert!(ctrl.stats().valid_samples.is_empty());
    }

    #[test]
    #[should_panic(expected = "min_samples must be positive")]
    fn invalid_config_rejected() {
        AdaptiveController::new(adaptive(0.05, 0));
    }

    #[test]
    #[should_panic(expected = "must not exceed history")]
    fn warmup_beyond_history_rejected() {
        AdaptiveController::new(TaskPointConfig::adaptive(0.05).with_warmup(5));
    }

    #[test]
    #[should_panic(expected = "needs SamplingPolicy::Adaptive")]
    fn other_policies_rejected() {
        AdaptiveController::new(TaskPointConfig::lazy());
    }
}
