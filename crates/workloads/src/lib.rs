//! The 19 task-based benchmarks of the TaskPoint evaluation (Table I).
//!
//! Each benchmark is a *synthetic workload generator* that reproduces the
//! structural properties the paper reports and analyzes: the exact task
//! type and instance counts of Table I, the dependence structure (tile
//! DAGs, wavefronts, pipelines, reduction trees), the instruction mixes and
//! memory behaviour of the "Properties" column, and — crucially for the
//! error analysis — the per-instance size imbalance of the problematic
//! benchmarks (freqmine's 4-decade spread, dedup's input-dependent
//! compression, spmv's row imbalance, checkSparseLU's fill-dependent
//! blocks).
//!
//! # Example
//!
//! ```
//! use taskpoint_workloads::{Benchmark, ScaleConfig};
//!
//! let program = Benchmark::Cholesky.generate(&ScaleConfig::quick());
//! assert_eq!(program.num_types(), 4);
//! assert_eq!(program.num_instances(), 19_600);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod external;
pub mod info;
pub mod kernels;
pub mod layout;
pub mod parsec;
pub mod scale;

pub use external::ExternalWorkload;
pub use info::{BenchClass, WorkloadInfo};
pub use layout::AddressAllocator;
pub use scale::{InstanceSeeds, ScaleConfig};

use taskpoint_runtime::Program;

/// The 19 benchmarks, in Table I order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// 2d-convolution kernel.
    Conv2d,
    /// 3d-stencil kernel.
    Stencil3d,
    /// atomic-monte-carlo-dynamics kernel.
    MonteCarlo,
    /// dense-matrix-multiplication kernel.
    Matmul,
    /// histogram kernel.
    Histogram,
    /// n-body kernel.
    Nbody,
    /// reduction kernel.
    Reduction,
    /// sparse-matrix-vector-multiplication kernel.
    Spmv,
    /// vector-operation kernel.
    Vecop,
    /// checkSparseLU application.
    SparseLu,
    /// cholesky application.
    Cholesky,
    /// kmeans application.
    Kmeans,
    /// knn application.
    Knn,
    /// blackscholes (PARSEC).
    Blackscholes,
    /// bodytrack (PARSEC).
    Bodytrack,
    /// canneal (PARSEC).
    Canneal,
    /// dedup (PARSEC).
    Dedup,
    /// freqmine (PARSEC).
    Freqmine,
    /// swaptions (PARSEC).
    Swaptions,
    /// An externally ingested trace (the `external` workload family; not
    /// part of Table I, so not in [`Benchmark::ALL`]).
    External(ExternalWorkload),
}

impl Benchmark {
    /// All 19 benchmarks in Table I order.
    pub const ALL: [Benchmark; 19] = [
        Benchmark::Conv2d,
        Benchmark::Stencil3d,
        Benchmark::MonteCarlo,
        Benchmark::Matmul,
        Benchmark::Histogram,
        Benchmark::Nbody,
        Benchmark::Reduction,
        Benchmark::Spmv,
        Benchmark::Vecop,
        Benchmark::SparseLu,
        Benchmark::Cholesky,
        Benchmark::Kmeans,
        Benchmark::Knn,
        Benchmark::Blackscholes,
        Benchmark::Bodytrack,
        Benchmark::Canneal,
        Benchmark::Dedup,
        Benchmark::Freqmine,
        Benchmark::Swaptions,
    ];

    /// The five benchmarks the paper uses for the Fig. 6 sensitivity
    /// analysis ("benchmarks and kernels with an error > 5% for at least
    /// one value of H").
    pub const SENSITIVITY_SET: [Benchmark; 5] = [
        Benchmark::Conv2d,
        Benchmark::Stencil3d,
        Benchmark::MonteCarlo,
        Benchmark::Knn,
        Benchmark::Blackscholes,
    ];

    /// The external workloads (ingested fixture traces), in fixture order.
    pub const EXTERNAL: [Benchmark; 2] = [
        Benchmark::External(ExternalWorkload::DagMini),
        Benchmark::External(ExternalWorkload::PipelineMini),
    ];

    /// Table I metadata (fixture-derived metadata for external workloads).
    pub fn info(self) -> WorkloadInfo {
        match self {
            Benchmark::Conv2d => kernels::conv2d::INFO,
            Benchmark::Stencil3d => kernels::stencil3d::INFO,
            Benchmark::MonteCarlo => kernels::monte_carlo::INFO,
            Benchmark::Matmul => kernels::matmul::INFO,
            Benchmark::Histogram => kernels::histogram::INFO,
            Benchmark::Nbody => kernels::nbody::INFO,
            Benchmark::Reduction => kernels::reduction::INFO,
            Benchmark::Spmv => kernels::spmv::INFO,
            Benchmark::Vecop => kernels::vecop::INFO,
            Benchmark::SparseLu => apps::sparselu::INFO,
            Benchmark::Cholesky => apps::cholesky::INFO,
            Benchmark::Kmeans => apps::kmeans::INFO,
            Benchmark::Knn => apps::knn::INFO,
            Benchmark::Blackscholes => parsec::blackscholes::INFO,
            Benchmark::Bodytrack => parsec::bodytrack::INFO,
            Benchmark::Canneal => parsec::canneal::INFO,
            Benchmark::Dedup => parsec::dedup::INFO,
            Benchmark::Freqmine => parsec::freqmine::INFO,
            Benchmark::Swaptions => parsec::swaptions::INFO,
            Benchmark::External(w) => w.info(),
        }
    }

    /// Generates the benchmark's task program at the given scale.
    ///
    /// External workloads replay a fixed recorded trace, so they ignore
    /// `scale`; their detailed streams additionally require the
    /// `RecordedTraces` bundle of the same trace (see the
    /// [`external`] module docs).
    pub fn generate(self, scale: &ScaleConfig) -> Program {
        match self {
            Benchmark::Conv2d => kernels::conv2d::generate(scale),
            Benchmark::Stencil3d => kernels::stencil3d::generate(scale),
            Benchmark::MonteCarlo => kernels::monte_carlo::generate(scale),
            Benchmark::Matmul => kernels::matmul::generate(scale),
            Benchmark::Histogram => kernels::histogram::generate(scale),
            Benchmark::Nbody => kernels::nbody::generate(scale),
            Benchmark::Reduction => kernels::reduction::generate(scale),
            Benchmark::Spmv => kernels::spmv::generate(scale),
            Benchmark::Vecop => kernels::vecop::generate(scale),
            Benchmark::SparseLu => apps::sparselu::generate(scale),
            Benchmark::Cholesky => apps::cholesky::generate(scale),
            Benchmark::Kmeans => apps::kmeans::generate(scale),
            Benchmark::Knn => apps::knn::generate(scale),
            Benchmark::Blackscholes => parsec::blackscholes::generate(scale),
            Benchmark::Bodytrack => parsec::bodytrack::generate(scale),
            Benchmark::Canneal => parsec::canneal::generate(scale),
            Benchmark::Dedup => parsec::dedup::generate(scale),
            Benchmark::Freqmine => parsec::freqmine::generate(scale),
            Benchmark::Swaptions => parsec::swaptions::generate(scale),
            Benchmark::External(w) => w.generate(),
        }
    }

    /// The paper's benchmark name (the fixture name for external
    /// workloads).
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Looks a benchmark up by name, across Table I and the external
    /// family.
    pub fn by_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().chain(Benchmark::EXTERNAL).find(|b| b.name() == name)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_benchmarks_with_unique_names() {
        assert_eq!(Benchmark::ALL.len(), 19);
        let mut names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn every_benchmark_matches_its_table1_row() {
        let scale = ScaleConfig::quick();
        for b in Benchmark::ALL {
            let info = b.info();
            let p = b.generate(&scale);
            assert_eq!(p.num_types(), info.task_types, "{b}: types");
            assert_eq!(p.num_instances(), info.task_instances, "{b}: instances");
            assert_eq!(p.name(), info.name, "{b}: name");
        }
    }

    #[test]
    fn table1_instance_totals() {
        let expected: usize = [
            16384, 16370, 16384, 17576, 16384, 25000, 16384, 1024, 16400, 22058, 19600, 16337,
            18400, 24500, 21439, 16384, 15738, 1932, 16384,
        ]
        .iter()
        .sum();
        let total: usize = Benchmark::ALL.iter().map(|b| b.info().task_instances).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn by_name_round_trips() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::by_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::by_name("not-a-benchmark"), None);
    }

    #[test]
    fn external_family_is_outside_table1_but_resolvable() {
        assert_eq!(Benchmark::EXTERNAL.len(), 2);
        for b in Benchmark::EXTERNAL {
            assert!(!Benchmark::ALL.contains(&b));
            assert_eq!(Benchmark::by_name(b.name()), Some(b));
            assert_eq!(b.info().class, BenchClass::External);
            let info = b.info();
            // generate() ignores the scale: a recorded trace has one size.
            let p = b.generate(&ScaleConfig::quick());
            let q = b.generate(&ScaleConfig::new());
            assert_eq!(p.num_types(), info.task_types);
            assert_eq!(p.num_instances(), info.task_instances);
            assert_eq!(p.total_instructions(), q.total_instructions());
        }
    }

    #[test]
    fn sensitivity_set_is_subset() {
        for b in Benchmark::SENSITIVITY_SET {
            assert!(Benchmark::ALL.contains(&b));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let scale = ScaleConfig::quick();
        let a = Benchmark::Freqmine.generate(&scale);
        let b = Benchmark::Freqmine.generate(&scale);
        let sa: Vec<u64> = a.instances().iter().map(|i| i.seed()).collect();
        let sb: Vec<u64> = b.instances().iter().map(|i| i.seed()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn every_benchmark_hands_out_working_trace_sources() {
        // The simulator consumes workloads through the batched block
        // pipeline: each instance's spec must hand out a TraceSource whose
        // batched stream matches the per-instruction iterator exactly.
        use taskpoint_trace::{InstBlock, TraceSource};
        let scale = ScaleConfig::quick();
        for b in Benchmark::ALL {
            let p = b.generate(&scale);
            let id = taskpoint_runtime::TaskInstanceId((p.num_instances() / 2) as u32);
            let inst = p.instance(id);
            let spec = p.spec(id);
            let mut source = spec.source();
            let mut block = InstBlock::new();
            let mut batched = Vec::new();
            while source.fill(&mut block) > 0 {
                batched.extend(block.iter());
            }
            assert_eq!(batched.len() as u64, inst.instructions(), "{b}");
            assert!(batched.iter().copied().eq(spec.iter()), "{b}: stream mismatch");
        }
    }
}
