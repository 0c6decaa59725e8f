//! The instruction model.
//!
//! TaskSim's detailed mode (the ROB occupancy analysis model) only needs to
//! know an instruction's broad class — its execution latency category and
//! whether it touches memory — plus the effective address of memory
//! operations. That is what a trace record carries.

/// Broad instruction classes distinguished by the core timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum InstKind {
    /// Simple integer ALU operation (add, logic, shift, compare).
    IntAlu = 0,
    /// Integer multiply.
    IntMul = 1,
    /// Integer divide (long latency, unpipelined).
    IntDiv = 2,
    /// Floating-point add/sub/convert.
    FpAlu = 3,
    /// Floating-point multiply (and FMA).
    FpMul = 4,
    /// Floating-point divide / sqrt (long latency, unpipelined).
    FpDiv = 5,
    /// Memory load.
    Load = 6,
    /// Memory store.
    Store = 7,
    /// Conditional or unconditional branch.
    Branch = 8,
    /// Atomic read-modify-write (locked memory operation).
    Atomic = 9,
    /// Memory fence / full synchronization.
    Fence = 10,
}

impl InstKind {
    /// All instruction kinds, in discriminant order.
    pub const ALL: [InstKind; 11] = [
        InstKind::IntAlu,
        InstKind::IntMul,
        InstKind::IntDiv,
        InstKind::FpAlu,
        InstKind::FpMul,
        InstKind::FpDiv,
        InstKind::Load,
        InstKind::Store,
        InstKind::Branch,
        InstKind::Atomic,
        InstKind::Fence,
    ];

    /// True if the instruction reads or writes memory (and therefore carries
    /// an address in the trace).
    pub fn is_memory(self) -> bool {
        matches!(self, InstKind::Load | InstKind::Store | InstKind::Atomic)
    }

    /// True if the instruction writes memory.
    pub fn writes_memory(self) -> bool {
        matches!(self, InstKind::Store | InstKind::Atomic)
    }

    /// Round-trips the discriminant; `None` for invalid encodings.
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }

    /// Parses the [`Display`](std::fmt::Display) name back into a kind
    /// (`"int_alu"`, `"load"`, …); `None` for unknown names. This is the
    /// inverse of `to_string()` and the kind syntax of the text
    /// [`ingest`](crate::ingest) format.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "int_alu" => InstKind::IntAlu,
            "int_mul" => InstKind::IntMul,
            "int_div" => InstKind::IntDiv,
            "fp_alu" => InstKind::FpAlu,
            "fp_mul" => InstKind::FpMul,
            "fp_div" => InstKind::FpDiv,
            "load" => InstKind::Load,
            "store" => InstKind::Store,
            "branch" => InstKind::Branch,
            "atomic" => InstKind::Atomic,
            "fence" => InstKind::Fence,
            _ => return None,
        })
    }
}

impl std::fmt::Display for InstKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InstKind::IntAlu => "int_alu",
            InstKind::IntMul => "int_mul",
            InstKind::IntDiv => "int_div",
            InstKind::FpAlu => "fp_alu",
            InstKind::FpMul => "fp_mul",
            InstKind::FpDiv => "fp_div",
            InstKind::Load => "load",
            InstKind::Store => "store",
            InstKind::Branch => "branch",
            InstKind::Atomic => "atomic",
            InstKind::Fence => "fence",
        };
        f.write_str(s)
    }
}

/// One dynamic instruction of a task instance's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Instruction class.
    pub kind: InstKind,
    /// Effective address for memory operations; 0 for non-memory kinds.
    pub addr: u64,
    /// Access size in bytes for memory operations; 0 otherwise.
    pub size: u8,
}

impl Instruction {
    /// A non-memory instruction of the given kind.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `kind` is a memory kind — those must carry
    /// an address; use [`Instruction::memory`].
    pub fn compute(kind: InstKind) -> Self {
        debug_assert!(!kind.is_memory(), "memory instruction without address");
        Self { kind, addr: 0, size: 0 }
    }

    /// A memory instruction with its effective address and access size.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `kind` is not a memory kind.
    pub fn memory(kind: InstKind, addr: u64, size: u8) -> Self {
        debug_assert!(kind.is_memory(), "non-memory instruction with address");
        Self { kind, addr, size }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_classification() {
        assert!(InstKind::Load.is_memory());
        assert!(InstKind::Store.is_memory());
        assert!(InstKind::Atomic.is_memory());
        assert!(!InstKind::IntAlu.is_memory());
        assert!(!InstKind::Branch.is_memory());
        assert!(!InstKind::Fence.is_memory());
    }

    #[test]
    fn write_classification() {
        assert!(InstKind::Store.writes_memory());
        assert!(InstKind::Atomic.writes_memory());
        assert!(!InstKind::Load.writes_memory());
    }

    #[test]
    fn name_round_trip() {
        for k in InstKind::ALL {
            assert_eq!(InstKind::from_name(&k.to_string()), Some(k));
        }
        assert_eq!(InstKind::from_name("LOAD"), None);
        assert_eq!(InstKind::from_name(""), None);
    }

    #[test]
    fn u8_round_trip() {
        for k in InstKind::ALL {
            assert_eq!(InstKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(InstKind::from_u8(11), None);
        assert_eq!(InstKind::from_u8(255), None);
    }

    #[test]
    fn display_is_nonempty_and_unique() {
        let mut names: Vec<String> = InstKind::ALL.iter().map(|k| k.to_string()).collect();
        assert!(names.iter().all(|n| !n.is_empty()));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), InstKind::ALL.len());
    }

    #[test]
    fn constructors() {
        let c = Instruction::compute(InstKind::FpMul);
        assert_eq!(c.addr, 0);
        let m = Instruction::memory(InstKind::Load, 0xdead_beef, 8);
        assert_eq!(m.addr, 0xdead_beef);
        assert_eq!(m.size, 8);
    }
}
