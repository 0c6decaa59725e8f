//! Region access annotations.
//!
//! OmpSs tasks declare the memory regions they touch and in which direction
//! (`in`, `out`, `inout`). The runtime builds the task dependence graph from
//! these annotations; the simulator does not interpret them otherwise.

use taskpoint_trace::MemRegion;

/// Direction of a region access, as written in an OmpSs task clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// The task reads the region (`in(...)`).
    In,
    /// The task writes the whole region (`out(...)`).
    Out,
    /// The task reads and writes the region (`inout(...)`).
    InOut,
}

impl AccessMode {
    /// True if the access reads the previous contents.
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::In | AccessMode::InOut)
    }

    /// True if the access produces a new version of the region.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Out | AccessMode::InOut)
    }
}

impl std::fmt::Display for AccessMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessMode::In => "in",
            AccessMode::Out => "out",
            AccessMode::InOut => "inout",
        })
    }
}

/// One region annotation of a task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionAccess {
    /// The annotated memory region.
    pub region: MemRegion,
    /// The access direction.
    pub mode: AccessMode,
}

impl RegionAccess {
    /// Creates an annotation.
    pub fn new(region: MemRegion, mode: AccessMode) -> Self {
        Self { region, mode }
    }

    /// Shorthand for an `in(...)` annotation.
    pub fn input(region: MemRegion) -> Self {
        Self::new(region, AccessMode::In)
    }

    /// Shorthand for an `out(...)` annotation.
    pub fn output(region: MemRegion) -> Self {
        Self::new(region, AccessMode::Out)
    }

    /// Shorthand for an `inout(...)` annotation.
    pub fn inout(region: MemRegion) -> Self {
        Self::new(region, AccessMode::InOut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_read_write_classification() {
        assert!(AccessMode::In.reads() && !AccessMode::In.writes());
        assert!(!AccessMode::Out.reads() && AccessMode::Out.writes());
        assert!(AccessMode::InOut.reads() && AccessMode::InOut.writes());
    }

    #[test]
    fn shorthands_set_modes() {
        let r = MemRegion::new(0x100, 0x40);
        assert_eq!(RegionAccess::input(r).mode, AccessMode::In);
        assert_eq!(RegionAccess::output(r).mode, AccessMode::Out);
        assert_eq!(RegionAccess::inout(r).mode, AccessMode::InOut);
    }

    #[test]
    fn display_matches_clause_syntax() {
        assert_eq!(AccessMode::In.to_string(), "in");
        assert_eq!(AccessMode::Out.to_string(), "out");
        assert_eq!(AccessMode::InOut.to_string(), "inout");
    }
}
