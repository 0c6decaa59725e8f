//! Machine configurations.
//!
//! [`MachineConfig::high_performance`] and [`MachineConfig::low_power`]
//! reproduce Table II of the paper: the two "radically different" multi-core
//! designs used to select sampling parameters and to validate that they
//! generalize.

use taskpoint_trace::InstKind;

/// Core (pipeline) parameters of the ROB-occupancy-analysis model.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Reorder-buffer capacity in instructions (Table II: 168 / 40).
    pub rob_size: u32,
    /// Maximum instructions dispatched per cycle (Table II: 4 / 3).
    pub issue_width: u32,
    /// Maximum instructions committed per cycle (Table II: 4 / 3).
    pub commit_width: u32,
    /// Outstanding-miss registers (MSHRs): bounds memory-level parallelism.
    pub mshrs: u32,
    /// Pipeline refill penalty after a branch misprediction, in cycles.
    pub mispredict_penalty: u32,
    /// Execution latencies per instruction kind, in cycles.
    pub latencies: KindLatencies,
}

/// Per-kind execution latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct KindLatencies {
    /// Integer ALU latency.
    pub int_alu: u32,
    /// Integer multiply latency.
    pub int_mul: u32,
    /// Integer divide latency.
    pub int_div: u32,
    /// FP add latency.
    pub fp_alu: u32,
    /// FP multiply latency.
    pub fp_mul: u32,
    /// FP divide latency.
    pub fp_div: u32,
    /// Store latency (write-buffer absorbed).
    pub store: u32,
    /// Branch execute latency.
    pub branch: u32,
    /// Extra serialization cost of an atomic on top of its memory access.
    pub atomic_extra: u32,
    /// Full-fence drain cost.
    pub fence: u32,
}

impl KindLatencies {
    /// Latency for a non-load kind. Loads get their latency from the memory
    /// hierarchy instead.
    pub fn of(&self, kind: InstKind) -> u32 {
        match kind {
            InstKind::IntAlu => self.int_alu,
            InstKind::IntMul => self.int_mul,
            InstKind::IntDiv => self.int_div,
            InstKind::FpAlu => self.fp_alu,
            InstKind::FpMul => self.fp_mul,
            InstKind::FpDiv => self.fp_div,
            InstKind::Store => self.store,
            InstKind::Branch => self.branch,
            InstKind::Atomic => self.atomic_extra,
            InstKind::Fence => self.fence,
            InstKind::Load => unreachable!("load latency comes from the memory hierarchy"),
        }
    }
}

impl Default for KindLatencies {
    fn default() -> Self {
        Self {
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_alu: 3,
            fp_mul: 4,
            fp_div: 22,
            store: 1,
            branch: 1,
            atomic_extra: 12,
            fence: 20,
        }
    }
}

/// One cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLevelConfig {
    /// Level name for reports ("L1", "L2", "L3").
    pub name: String,
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways).
    pub associativity: u32,
    /// Access latency in cycles.
    pub latency: u32,
    /// Whether the level is shared by all cores (false = per-core private).
    pub shared: bool,
    /// Service time per access in cycles for shared levels — models banked
    /// bandwidth; queueing behind it is how inter-thread contention arises.
    pub service_cycles: u32,
}

/// Main-memory parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    /// Row access latency in cycles.
    pub latency: u32,
    /// Independent channels (each a service queue).
    pub channels: u32,
    /// Service time per line transfer per channel, in cycles.
    pub service_cycles: u32,
}

/// Largest accepted [`CoreGroupConfig::clock_divider`].
///
/// Far beyond any plausible frequency ratio, but small enough that
/// converting core-local cycles to global base-clock ticks
/// (`cycle · divider`) stays comfortably inside `u64` for any reachable
/// simulated time.
pub const MAX_CLOCK_DIVIDER: u32 = 1 << 20;

/// A named group of identical cores within a heterogeneous machine.
///
/// Groups are listed big-to-little by convention: worker ids are assigned
/// in listed order (group 0 gets the lowest ids), and the engine hands
/// ready tasks to the lowest idle id first, so the leading group is
/// preferred when several cores are free.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreGroupConfig {
    /// Group name for reports ("big", "little", ...). Must be unique
    /// within the machine.
    pub name: String,
    /// Number of cores in the group. The group sizes of a machine must sum
    /// to the simulation's worker count.
    pub cores: u32,
    /// Clock divider relative to the machine's base clock: a core in a
    /// divider-`d` group advances one pipeline cycle every `d` global
    /// ticks (divider 2 ≈ half frequency). Must be in
    /// `1..=`[`MAX_CLOCK_DIVIDER`].
    pub clock_divider: u32,
    /// Pipeline parameters for this group, or `None` to inherit the
    /// machine-wide [`MachineConfig::core`].
    pub core: Option<CoreConfig>,
}

/// A complete simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Configuration name ("high-performance", "low-power").
    pub name: String,
    /// Cache line size in bytes (Table II: 64 B for both machines).
    pub line_size: u32,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Cache levels ordered from closest (L1) to farthest.
    pub caches: Vec<CacheLevelConfig>,
    /// DRAM parameters.
    pub memory: MemoryConfig,
    /// Maximum cycles a core may advance before yielding to the
    /// interleaving engine; bounds causal skew on shared state.
    pub chunk_cycles: u64,
    /// Heterogeneous core groups. Empty (the default for all Table II
    /// presets) means a homogeneous machine: every worker runs
    /// [`MachineConfig::core`] at divider 1, exactly as before the
    /// event-engine refactor.
    pub core_groups: Vec<CoreGroupConfig>,
}

/// A structurally invalid heterogeneous machine description, reported by
/// [`MachineConfig::validated`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineConfigError {
    /// A core group has zero cores.
    EmptyGroup {
        /// Name of the offending group.
        group: String,
    },
    /// A core group's clock divider is zero (a core that never advances).
    ZeroClockDivider {
        /// Name of the offending group.
        group: String,
    },
    /// A core group's clock divider exceeds [`MAX_CLOCK_DIVIDER`].
    ClockDividerTooLarge {
        /// Name of the offending group.
        group: String,
        /// The rejected divider.
        divider: u32,
    },
    /// Two core groups share a name, making per-group reports ambiguous.
    DuplicateGroupName {
        /// The repeated name.
        group: String,
    },
}

impl std::fmt::Display for MachineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyGroup { group } => {
                write!(f, "core group '{group}' has zero cores")
            }
            Self::ZeroClockDivider { group } => {
                write!(f, "core group '{group}' has clock divider 0 (cores would never advance)")
            }
            Self::ClockDividerTooLarge { group, divider } => {
                write!(
                    f,
                    "core group '{group}' clock divider {divider} exceeds the maximum {}",
                    MAX_CLOCK_DIVIDER
                )
            }
            Self::DuplicateGroupName { group } => {
                write!(f, "core group name '{group}' is used more than once")
            }
        }
    }
}

impl std::error::Error for MachineConfigError {}

impl MachineConfig {
    /// The paper's high-performance (server-class) configuration, Table II
    /// left column: ROB 168, 4-wide, L1 32 kB/4cyc/8-way private,
    /// L2 2 MB/11cyc/8-way private, L3 20 MB/28cyc/20-way shared.
    pub fn high_performance() -> Self {
        Self {
            name: "high-performance".to_string(),
            line_size: 64,
            core: CoreConfig {
                rob_size: 168,
                issue_width: 4,
                commit_width: 4,
                mshrs: 10,
                mispredict_penalty: 14,
                latencies: KindLatencies::default(),
            },
            caches: vec![
                CacheLevelConfig {
                    name: "L1".to_string(),
                    size_bytes: 32 * 1024,
                    associativity: 8,
                    latency: 4,
                    shared: false,
                    service_cycles: 1,
                },
                CacheLevelConfig {
                    name: "L2".to_string(),
                    size_bytes: 2 * 1024 * 1024,
                    associativity: 8,
                    latency: 11,
                    shared: false,
                    service_cycles: 2,
                },
                CacheLevelConfig {
                    name: "L3".to_string(),
                    size_bytes: 20 * 1024 * 1024,
                    associativity: 20,
                    latency: 28,
                    shared: true,
                    service_cycles: 2,
                },
            ],
            memory: MemoryConfig { latency: 180, channels: 4, service_cycles: 8 },
            chunk_cycles: 8192,
            core_groups: Vec::new(),
        }
    }

    /// The paper's low-power (mobile-class) configuration, Table II right
    /// column: ROB 40, 3-wide, L1 32 kB/4cyc/2-way private, L2 1 MB/21cyc/
    /// 16-way shared, no L3.
    pub fn low_power() -> Self {
        Self {
            name: "low-power".to_string(),
            line_size: 64,
            core: CoreConfig {
                rob_size: 40,
                issue_width: 3,
                commit_width: 3,
                mshrs: 6,
                mispredict_penalty: 12,
                latencies: KindLatencies::default(),
            },
            caches: vec![
                CacheLevelConfig {
                    name: "L1".to_string(),
                    size_bytes: 32 * 1024,
                    associativity: 2,
                    latency: 4,
                    shared: false,
                    service_cycles: 1,
                },
                CacheLevelConfig {
                    name: "L2".to_string(),
                    size_bytes: 1024 * 1024,
                    associativity: 16,
                    latency: 21,
                    shared: true,
                    service_cycles: 3,
                },
            ],
            memory: MemoryConfig { latency: 150, channels: 1, service_cycles: 16 },
            chunk_cycles: 8192,
            core_groups: Vec::new(),
        }
    }

    /// A heterogeneous big.LITTLE machine: `big` server-class cores at the
    /// base clock plus `little` narrow cores at clock divider 2, all
    /// sharing one L2 whose banked service queue is the contention point
    /// between the groups.
    ///
    /// Not part of the paper's Table II — this is the scenario the
    /// discrete-event engine exists for (ROADMAP north star: sampling on
    /// machines the original TaskSim substrate could not express).
    pub fn big_little(big: u32, little: u32) -> Self {
        Self {
            name: format!("big-little-{big}b{little}l"),
            line_size: 64,
            core: CoreConfig {
                rob_size: 168,
                issue_width: 4,
                commit_width: 4,
                mshrs: 10,
                mispredict_penalty: 14,
                latencies: KindLatencies::default(),
            },
            caches: vec![
                CacheLevelConfig {
                    name: "L1".to_string(),
                    size_bytes: 32 * 1024,
                    associativity: 8,
                    latency: 4,
                    shared: false,
                    service_cycles: 1,
                },
                CacheLevelConfig {
                    name: "L2".to_string(),
                    size_bytes: 4 * 1024 * 1024,
                    associativity: 16,
                    latency: 18,
                    shared: true,
                    service_cycles: 3,
                },
            ],
            memory: MemoryConfig { latency: 160, channels: 2, service_cycles: 12 },
            chunk_cycles: 8192,
            core_groups: vec![
                CoreGroupConfig {
                    name: "big".to_string(),
                    cores: big,
                    clock_divider: 1,
                    core: None,
                },
                CoreGroupConfig {
                    name: "little".to_string(),
                    cores: little,
                    clock_divider: 2,
                    core: Some(CoreConfig {
                        rob_size: 40,
                        issue_width: 2,
                        commit_width: 2,
                        mshrs: 6,
                        mispredict_penalty: 10,
                        latencies: KindLatencies::default(),
                    }),
                },
            ],
        }
    }

    /// A deliberately tiny machine for fast unit tests: 2-entry-way caches,
    /// short latencies, small ROB.
    pub fn tiny_test() -> Self {
        Self {
            name: "tiny-test".to_string(),
            line_size: 64,
            core: CoreConfig {
                rob_size: 16,
                issue_width: 2,
                commit_width: 2,
                mshrs: 4,
                mispredict_penalty: 8,
                latencies: KindLatencies::default(),
            },
            caches: vec![
                CacheLevelConfig {
                    name: "L1".to_string(),
                    size_bytes: 1024,
                    associativity: 2,
                    latency: 2,
                    shared: false,
                    service_cycles: 1,
                },
                CacheLevelConfig {
                    name: "L2".to_string(),
                    size_bytes: 16 * 1024,
                    associativity: 4,
                    latency: 8,
                    shared: true,
                    service_cycles: 2,
                },
            ],
            memory: MemoryConfig { latency: 60, channels: 1, service_cycles: 4 },
            chunk_cycles: 1024,
            core_groups: Vec::new(),
        }
    }

    /// Whether the machine has heterogeneous core groups.
    pub fn is_heterogeneous(&self) -> bool {
        !self.core_groups.is_empty()
    }

    /// Total cores across all groups, or `None` for a homogeneous machine
    /// (whose core count is the simulation's worker count).
    pub fn total_group_cores(&self) -> Option<u32> {
        if self.core_groups.is_empty() {
            None
        } else {
            Some(self.core_groups.iter().map(|g| g.cores).sum())
        }
    }

    /// Validates the heterogeneous core-group description, returning the
    /// machine unchanged on success. The typed counterpart of
    /// [`validate`](MachineConfig::validate) for the group axes — use it
    /// when the description comes from user input rather than a preset.
    pub fn validated(self) -> Result<Self, MachineConfigError> {
        self.check_groups()?;
        Ok(self)
    }

    fn check_groups(&self) -> Result<(), MachineConfigError> {
        let mut seen = std::collections::HashSet::new();
        for g in &self.core_groups {
            if g.cores == 0 {
                return Err(MachineConfigError::EmptyGroup { group: g.name.clone() });
            }
            if g.clock_divider == 0 {
                return Err(MachineConfigError::ZeroClockDivider { group: g.name.clone() });
            }
            if g.clock_divider > MAX_CLOCK_DIVIDER {
                return Err(MachineConfigError::ClockDividerTooLarge {
                    group: g.name.clone(),
                    divider: g.clock_divider,
                });
            }
            if !seen.insert(g.name.as_str()) {
                return Err(MachineConfigError::DuplicateGroupName { group: g.name.clone() });
            }
        }
        Ok(())
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is malformed (no caches, zero widths,
    /// non-power-of-two line size, cache smaller than a line, an invalid
    /// core-group description, ...).
    pub fn validate(&self) {
        assert!(self.line_size.is_power_of_two(), "line size must be a power of two");
        assert!(self.core.rob_size > 0, "zero ROB");
        assert!(self.core.issue_width > 0, "zero issue width");
        assert!(self.core.commit_width > 0, "zero commit width");
        assert!(self.core.mshrs > 0, "zero MSHRs");
        assert!(!self.caches.is_empty(), "need at least one cache level");
        for c in &self.caches {
            assert!(c.size_bytes >= self.line_size as u64, "{}: smaller than a line", c.name);
            assert!(c.associativity > 0, "{}: zero associativity", c.name);
            let lines = c.size_bytes / self.line_size as u64;
            assert!(
                lines.is_multiple_of(c.associativity as u64),
                "{}: lines not divisible by associativity",
                c.name
            );
        }
        assert!(self.memory.channels > 0, "zero DRAM channels");
        assert!(self.chunk_cycles > 0, "zero chunk size");
        if let Err(e) = self.check_groups() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_high_performance_parameters() {
        let m = MachineConfig::high_performance();
        m.validate();
        assert_eq!(m.core.rob_size, 168);
        assert_eq!(m.core.issue_width, 4);
        assert_eq!(m.core.commit_width, 4);
        assert_eq!(m.line_size, 64);
        assert_eq!(m.caches.len(), 3);
        let l1 = &m.caches[0];
        assert_eq!((l1.size_bytes, l1.associativity, l1.latency, l1.shared), (32768, 8, 4, false));
        let l2 = &m.caches[1];
        assert_eq!(
            (l2.size_bytes, l2.associativity, l2.latency, l2.shared),
            (2 * 1024 * 1024, 8, 11, false)
        );
        let l3 = &m.caches[2];
        assert_eq!(
            (l3.size_bytes, l3.associativity, l3.latency, l3.shared),
            (20 * 1024 * 1024, 20, 28, true)
        );
    }

    #[test]
    fn table2_low_power_parameters() {
        let m = MachineConfig::low_power();
        m.validate();
        assert_eq!(m.core.rob_size, 40);
        assert_eq!(m.core.issue_width, 3);
        assert_eq!(m.core.commit_width, 3);
        assert_eq!(m.caches.len(), 2, "no L3 on the low-power machine");
        let l1 = &m.caches[0];
        assert_eq!((l1.size_bytes, l1.associativity, l1.latency, l1.shared), (32768, 2, 4, false));
        let l2 = &m.caches[1];
        assert_eq!(
            (l2.size_bytes, l2.associativity, l2.latency, l2.shared),
            (1024 * 1024, 16, 21, true)
        );
    }

    #[test]
    fn latency_table_covers_all_non_load_kinds() {
        let lat = KindLatencies::default();
        for k in InstKind::ALL {
            if k != InstKind::Load {
                assert!(lat.of(k) >= 1 || k == InstKind::Store, "{k} latency");
            }
        }
    }

    #[test]
    #[should_panic(expected = "load latency")]
    fn load_latency_is_not_tabulated() {
        KindLatencies::default().of(InstKind::Load);
    }

    #[test]
    #[should_panic(expected = "smaller than a line")]
    fn validate_rejects_degenerate_cache() {
        let mut m = MachineConfig::tiny_test();
        m.caches[0].size_bytes = 32;
        m.validate();
    }

    #[test]
    fn tiny_config_is_valid() {
        MachineConfig::tiny_test().validate();
    }

    #[test]
    fn big_little_preset_is_valid_and_heterogeneous() {
        let m = MachineConfig::big_little(2, 2);
        m.validate();
        assert!(m.is_heterogeneous());
        assert_eq!(m.total_group_cores(), Some(4));
        assert_eq!(m.core_groups[0].clock_divider, 1);
        assert_eq!(m.core_groups[1].clock_divider, 2);
        assert!(m.core_groups[1].core.is_some(), "little cores have their own pipeline");
        assert!(m.caches[1].shared, "groups contend on the shared L2");
    }

    #[test]
    fn homogeneous_presets_have_no_groups() {
        for m in [
            MachineConfig::tiny_test(),
            MachineConfig::low_power(),
            MachineConfig::high_performance(),
        ] {
            assert!(!m.is_heterogeneous());
            assert_eq!(m.total_group_cores(), None);
        }
    }

    #[test]
    fn validated_accepts_the_presets() {
        assert!(MachineConfig::big_little(1, 3).validated().is_ok());
        assert!(MachineConfig::high_performance().validated().is_ok());
    }

    #[test]
    fn validated_rejects_empty_group() {
        let mut m = MachineConfig::big_little(2, 2);
        m.core_groups[1].cores = 0;
        assert_eq!(
            m.validated().unwrap_err(),
            MachineConfigError::EmptyGroup { group: "little".to_string() }
        );
    }

    #[test]
    fn validated_rejects_zero_clock_divider() {
        let mut m = MachineConfig::big_little(2, 2);
        m.core_groups[0].clock_divider = 0;
        assert_eq!(
            m.validated().unwrap_err(),
            MachineConfigError::ZeroClockDivider { group: "big".to_string() }
        );
    }

    #[test]
    fn validated_rejects_overflowing_clock_divider() {
        let mut m = MachineConfig::big_little(2, 2);
        m.core_groups[1].clock_divider = MAX_CLOCK_DIVIDER + 1;
        assert_eq!(
            m.validated().unwrap_err(),
            MachineConfigError::ClockDividerTooLarge {
                group: "little".to_string(),
                divider: MAX_CLOCK_DIVIDER + 1
            }
        );
    }

    #[test]
    fn validated_rejects_duplicate_group_names() {
        let mut m = MachineConfig::big_little(2, 2);
        m.core_groups[1].name = "big".to_string();
        assert_eq!(
            m.validated().unwrap_err(),
            MachineConfigError::DuplicateGroupName { group: "big".to_string() }
        );
    }

    #[test]
    #[should_panic(expected = "clock divider 0")]
    fn validate_panics_on_bad_groups() {
        let mut m = MachineConfig::big_little(2, 2);
        m.core_groups[0].clock_divider = 0;
        m.validate();
    }

    #[test]
    fn error_messages_name_the_group() {
        let e =
            MachineConfigError::ClockDividerTooLarge { group: "little".into(), divider: 1 << 21 };
        let msg = e.to_string();
        assert!(msg.contains("little") && msg.contains("2097152"), "{msg}");
    }
}
