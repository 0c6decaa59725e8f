//! Benchmark metadata (the static columns of Table I).

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// Synthetic/numeric kernel (top block of Table I).
    Kernel,
    /// HPC application (middle block).
    Application,
    /// Task-based port of a PARSEC benchmark (bottom block).
    Parsec,
    /// Externally ingested trace (not part of Table I; see the
    /// `external` module).
    External,
}

impl std::fmt::Display for BenchClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BenchClass::Kernel => "kernel",
            BenchClass::Application => "application",
            BenchClass::Parsec => "parsec",
            BenchClass::External => "external",
        })
    }
}

/// Static facts about one benchmark, matching its Table I row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Suite membership.
    pub class: BenchClass,
    /// Number of task types (Table I).
    pub task_types: usize,
    /// Number of task instances (Table I).
    pub task_instances: usize,
    /// The "Properties" column of Table I.
    pub property: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_display() {
        assert_eq!(BenchClass::Kernel.to_string(), "kernel");
        assert_eq!(BenchClass::Application.to_string(), "application");
        assert_eq!(BenchClass::Parsec.to_string(), "parsec");
        assert_eq!(BenchClass::External.to_string(), "external");
    }
}
