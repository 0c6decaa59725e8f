//! Cell specifications: the unit of work a campaign schedules, caches and
//! emits.
//!
//! A [`CellSpec`] pins *everything* that determines a simulation outcome —
//! benchmark, workload scale (including the master seed), full machine
//! configuration, simulated worker count and controller policy — and hashes
//! it into a stable 128-bit content address ([`CellSpec::hash_hex`]). Two
//! specs with the same hash produce byte-identical result records, so the
//! hash doubles as the cache key of the result store.

use taskpoint::{SamplingPolicy, TaskPointConfig};
use taskpoint_workloads::{Benchmark, ScaleConfig};
use tasksim::MachineConfig;

use crate::hash::StableHasher;

/// How big campaign runs are (mirrors the workload scales).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Full evaluation scale (the crate's Table-I-shaped workloads).
    Full,
    /// Heavily reduced instruction counts for smoke tests and CI.
    Quick,
}

/// An unrecognized scale selector (e.g. `TASKPOINT_SCALE=ful`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScaleError {
    /// The rejected value.
    pub value: String,
}

impl std::fmt::Display for UnknownScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unrecognized scale {:?} (expected \"quick\" or \"full\")", self.value)
    }
}

impl std::error::Error for UnknownScaleError {}

impl RunScale {
    /// Parses a scale selector. Only the exact strings `"quick"` and
    /// `"full"` are accepted; anything else — including the typo that
    /// would previously run a multi-hour full sweep silently — is an error.
    pub fn parse(value: &str) -> Result<Self, UnknownScaleError> {
        match value {
            "quick" => Ok(RunScale::Quick),
            "full" => Ok(RunScale::Full),
            other => Err(UnknownScaleError { value: other.to_string() }),
        }
    }

    /// Reads the scale from the command line (`--quick`) or the
    /// `TASKPOINT_SCALE` environment variable (`quick`/`full`). An
    /// unrecognized environment value is an error rather than a silent
    /// fall-through to `Full`.
    pub fn from_env_and_args() -> Result<Self, UnknownScaleError> {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            return Ok(RunScale::Quick);
        }
        match std::env::var("TASKPOINT_SCALE") {
            Ok(value) => Self::parse(&value),
            Err(_) => Ok(RunScale::Full),
        }
    }

    /// Like [`RunScale::from_env_and_args`], but prints the error and exits
    /// with status 2 — the behaviour every evaluation binary wants.
    pub fn from_env_or_exit() -> Self {
        match Self::from_env_and_args() {
            Ok(scale) => scale,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// The workload scale configuration.
    pub fn scale_config(self) -> ScaleConfig {
        match self {
            RunScale::Full => ScaleConfig::new(),
            RunScale::Quick => ScaleConfig::quick(),
        }
    }

    /// The name used in artefact paths (`"full"` / `"quick"`).
    pub fn name(self) -> &'static str {
        match self {
            RunScale::Full => "full",
            RunScale::Quick => "quick",
        }
    }
}

/// What a cell simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// Full-detail reference run (every instance through the cycle-level
    /// model). Also the implicit prerequisite of every `Sampled` cell.
    Reference,
    /// TaskPoint sampled run compared against its reference.
    Sampled {
        /// Controller parameters.
        config: TaskPointConfig,
    },
    /// Detailed run with per-task reports reduced to per-type-normalized
    /// IPC boxplot statistics (the layout of Figs. 1 and 5).
    Variation {
        /// Noise-model seed (`Some` reproduces the Fig. 1 "native
        /// execution" stand-in; `None` is clean simulation, Fig. 5).
        noise_seed: Option<u64>,
    },
    /// Sampled run *without* a reference comparison — design-space
    /// exploration, where the whole point is that no full-detail run of
    /// every candidate machine exists (the paper recommends lazy sampling
    /// exactly for this: "evaluations requiring a large number of
    /// simulations, e.g. during the early phase of design space
    /// exploration").
    Explore {
        /// Controller parameters.
        config: TaskPointConfig,
    },
}

impl CellKind {
    /// Short tag used in records and display (`reference` / `sampled` /
    /// `variation` / `explore`).
    pub fn tag(&self) -> &'static str {
        match self {
            CellKind::Reference => "reference",
            CellKind::Sampled { .. } => "sampled",
            CellKind::Variation { .. } => "variation",
            CellKind::Explore { .. } => "explore",
        }
    }
}

/// One cell of the evaluation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The workload.
    pub bench: Benchmark,
    /// Workload scale (instruction factor + master seed).
    pub scale: ScaleConfig,
    /// The simulated machine (hashed in full, so custom design-space
    /// machines get distinct cache entries even when they share a name).
    pub machine: MachineConfig,
    /// Simulated worker threads.
    pub workers: u32,
    /// What to simulate.
    pub kind: CellKind,
}

fn hash_policy(h: &mut StableHasher, config: &TaskPointConfig) {
    h.write_u64(config.warmup_instances);
    h.write_u64(config.history_size as u64);
    // Explicit policy discriminant so every policy family keys apart.
    match config.policy {
        SamplingPolicy::Lazy => h.write_u32(0),
        SamplingPolicy::Periodic { period } => {
            h.write_u32(1);
            h.write_u64(period);
        }
        SamplingPolicy::Adaptive { target_ci, confidence, min_samples } => {
            h.write_u32(2);
            h.write_f64(target_ci);
            h.write_str(confidence.tag());
            h.write_u64(min_samples);
        }
        SamplingPolicy::Stratified { pilot_samples, budget, confidence } => {
            h.write_u32(3);
            h.write_u64(pilot_samples);
            h.write_u64(budget);
            h.write_str(confidence.tag());
        }
    }
    h.write_u64(config.rare_type_cutoff);
    h.write_f64(config.concurrency_change_ratio);
}

fn hash_core(h: &mut StableHasher, core: &tasksim::CoreConfig) {
    h.write_u32(core.rob_size);
    h.write_u32(core.issue_width);
    h.write_u32(core.commit_width);
    h.write_u32(core.mshrs);
    h.write_u32(core.mispredict_penalty);
    for lat in [
        core.latencies.int_alu,
        core.latencies.int_mul,
        core.latencies.int_div,
        core.latencies.fp_alu,
        core.latencies.fp_mul,
        core.latencies.fp_div,
        core.latencies.store,
        core.latencies.branch,
        core.latencies.atomic_extra,
        core.latencies.fence,
    ] {
        h.write_u32(lat);
    }
}

fn hash_machine(h: &mut StableHasher, m: &MachineConfig) {
    h.write_str(&m.name);
    h.write_u32(m.line_size);
    hash_core(h, &m.core);
    // Heterogeneous core groups, with explicit discriminants for the
    // optional per-group core override so `None` and any `Some` key apart.
    h.write_u64(m.core_groups.len() as u64);
    for g in &m.core_groups {
        h.write_str(&g.name);
        h.write_u32(g.cores);
        h.write_u32(g.clock_divider);
        match &g.core {
            None => h.write_u32(0),
            Some(core) => {
                h.write_u32(1);
                hash_core(h, core);
            }
        }
    }
    h.write_u64(m.caches.len() as u64);
    for c in &m.caches {
        h.write_str(&c.name);
        h.write_u64(c.size_bytes);
        h.write_u32(c.associativity);
        h.write_u32(c.latency);
        h.write_bool(c.shared);
        h.write_u32(c.service_cycles);
    }
    h.write_u32(m.memory.latency);
    h.write_u32(m.memory.channels);
    h.write_u32(m.memory.service_cycles);
    h.write_u64(m.chunk_cycles);
}

impl CellSpec {
    /// A reference (full-detail) cell.
    pub fn reference(
        bench: Benchmark,
        scale: ScaleConfig,
        machine: MachineConfig,
        workers: u32,
    ) -> Self {
        Self { bench, scale, machine, workers, kind: CellKind::Reference }
    }

    /// A sampled cell under `config`.
    pub fn sampled(
        bench: Benchmark,
        scale: ScaleConfig,
        machine: MachineConfig,
        workers: u32,
        config: TaskPointConfig,
    ) -> Self {
        Self { bench, scale, machine, workers, kind: CellKind::Sampled { config } }
    }

    /// An exploration cell (sampled, no reference) under `config`.
    pub fn explore(
        bench: Benchmark,
        scale: ScaleConfig,
        machine: MachineConfig,
        workers: u32,
        config: TaskPointConfig,
    ) -> Self {
        Self { bench, scale, machine, workers, kind: CellKind::Explore { config } }
    }

    /// The reference cell this cell's comparison needs, if any.
    pub fn reference_spec(&self) -> Option<CellSpec> {
        match self.kind {
            CellKind::Sampled { .. } => Some(CellSpec::reference(
                self.bench,
                self.scale,
                self.machine.clone(),
                self.workers,
            )),
            CellKind::Reference | CellKind::Variation { .. } | CellKind::Explore { .. } => None,
        }
    }

    /// The stable 128-bit content hash of this spec, as 32 hex characters.
    pub fn hash_hex(&self) -> String {
        let mut h = StableHasher::new();
        // A format-version byte so future spec extensions re-key cleanly
        // (v5: records carry task-latency percentiles and stall
        // attribution, so pre-v5 cached cells must recompute).
        h.write_u32(5);
        h.write_str(self.bench.name());
        h.write_f64(self.scale.instr_factor);
        h.write_u64(self.scale.seed);
        hash_machine(&mut h, &self.machine);
        h.write_u32(self.workers);
        h.write_str(self.kind.tag());
        match &self.kind {
            CellKind::Reference => {}
            CellKind::Sampled { config } => hash_policy(&mut h, config),
            CellKind::Variation { noise_seed } => h.write_opt_u64(*noise_seed),
            CellKind::Explore { config } => hash_policy(&mut h, config),
        }
        h.finish_hex()
    }

    /// A short human-readable label (`spmv/high-performance/8t/sampled`).
    pub fn label(&self) -> String {
        format!("{}/{}/{}t/{}", self.bench.name(), self.machine.name, self.workers, self.kind.tag())
    }
}

impl std::fmt::Display for CellSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CellSpec {
        CellSpec::sampled(
            Benchmark::Spmv,
            ScaleConfig::quick(),
            MachineConfig::low_power(),
            4,
            TaskPointConfig::lazy(),
        )
    }

    #[test]
    fn parse_accepts_quick_and_full() {
        assert_eq!(RunScale::parse("quick"), Ok(RunScale::Quick));
        assert_eq!(RunScale::parse("full"), Ok(RunScale::Full));
    }

    #[test]
    fn parse_rejects_garbage_and_near_misses() {
        for bad in ["ful", "FULL", "Quick", "", " full", "fast"] {
            let err = RunScale::parse(bad).unwrap_err();
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("quick"), "{err}");
        }
    }

    #[test]
    fn scale_configs_match_workloads() {
        assert_eq!(RunScale::Full.scale_config(), ScaleConfig::new());
        assert_eq!(RunScale::Quick.scale_config(), ScaleConfig::quick());
        assert_eq!(RunScale::Quick.name(), "quick");
    }

    #[test]
    fn hash_is_stable_for_equal_specs() {
        assert_eq!(base().hash_hex(), base().hash_hex());
        assert_eq!(base().hash_hex().len(), 32);
    }

    #[test]
    fn hash_distinguishes_every_axis() {
        let b = base();
        let variants = vec![
            CellSpec { bench: Benchmark::Vecop, ..b.clone() },
            CellSpec { workers: 8, ..b.clone() },
            CellSpec { scale: ScaleConfig { instr_factor: 0.06, ..b.scale }, ..b.clone() },
            CellSpec { scale: ScaleConfig { seed: 1, ..b.scale }, ..b.clone() },
            CellSpec { machine: MachineConfig::high_performance(), ..b.clone() },
            CellSpec { kind: CellKind::Reference, ..b.clone() },
            CellSpec {
                kind: CellKind::Sampled { config: TaskPointConfig::periodic() },
                ..b.clone()
            },
            CellSpec {
                kind: CellKind::Sampled { config: TaskPointConfig::adaptive(0.05) },
                ..b.clone()
            },
            CellSpec {
                kind: CellKind::Sampled { config: TaskPointConfig::adaptive(0.02) },
                ..b.clone()
            },
            CellSpec {
                kind: CellKind::Sampled { config: TaskPointConfig::stratified(4, 256) },
                ..b.clone()
            },
            CellSpec {
                kind: CellKind::Sampled { config: TaskPointConfig::stratified(4, 512) },
                ..b.clone()
            },
            CellSpec {
                kind: CellKind::Sampled { config: TaskPointConfig::stratified(8, 512) },
                ..b.clone()
            },
            CellSpec { kind: CellKind::Variation { noise_seed: None }, ..b.clone() },
            CellSpec { kind: CellKind::Variation { noise_seed: Some(0xF161) }, ..b.clone() },
            CellSpec { kind: CellKind::Explore { config: TaskPointConfig::lazy() }, ..b.clone() },
            CellSpec {
                kind: CellKind::Explore { config: TaskPointConfig::periodic() },
                ..b.clone()
            },
            CellSpec { machine: MachineConfig::big_little(2, 2), ..b.clone() },
            CellSpec { machine: MachineConfig::big_little(1, 3), ..b.clone() },
            CellSpec {
                machine: {
                    let mut m = MachineConfig::big_little(2, 2);
                    m.core_groups[1].clock_divider = 3;
                    m
                },
                ..b.clone()
            },
            CellSpec {
                // A group with `core: None` must hash apart from one whose
                // override equals the machine default (discriminant check).
                machine: {
                    let mut m = MachineConfig::big_little(2, 2);
                    m.core_groups[0].core = Some(m.core.clone());
                    m
                },
                ..b.clone()
            },
        ];
        let mut hashes: Vec<String> = variants.iter().map(CellSpec::hash_hex).collect();
        hashes.push(b.hash_hex());
        let unique: std::collections::HashSet<&String> = hashes.iter().collect();
        assert_eq!(unique.len(), hashes.len(), "hash collision across axes");
    }

    #[test]
    fn custom_machines_with_same_name_hash_apart() {
        let mut a = base();
        let mut b = base();
        b.machine.core.rob_size += 1;
        assert_eq!(a.machine.name, b.machine.name);
        assert_ne!(a.hash_hex(), b.hash_hex());
        // And the label stays readable.
        a.workers = 2;
        assert_eq!(a.label(), "sparse-matrix-vector-multiplication/low-power/2t/sampled");
    }

    #[test]
    fn reference_spec_links_sampled_to_reference() {
        let s = base();
        let r = s.reference_spec().unwrap();
        assert_eq!(r.kind, CellKind::Reference);
        assert_eq!(r.bench, s.bench);
        assert_eq!(r.workers, s.workers);
        assert!(CellSpec::reference(
            Benchmark::Spmv,
            ScaleConfig::quick(),
            MachineConfig::low_power(),
            4
        )
        .reference_spec()
        .is_none());
    }
}
