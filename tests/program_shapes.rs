//! Program-shape goldens: every built-in benchmark and every external
//! fixture, generated at quick scale with the default seed, must build
//! exactly the same program.
//!
//! Each row pins the instance, type, code and edge counts, the critical
//! path length, and an FNV-1a checksum over every task in id order: its
//! type id, instruction count, trace seed, predecessor list and successor
//! list (in stored order, so a change in the successors' order — the
//! scheduler's ready order — also moves the checksum). The code count is
//! the number of bitwise-distinct code parts (code seed, mix, pattern and
//! rates) of the program's trace specs, which the program interns once
//! each. Quick scale keeps every task count and dependence, so these are
//! the full-scale graphs too; only the instruction counts differ.

use taskpoint_repro::runtime::Program;
use taskpoint_repro::workloads::{Benchmark, ScaleConfig};

/// FNV-1a over 64-bit words, little-endian byte order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// `(instances, types, codes, edges, critical path, checksum)`.
fn shape(program: &Program) -> (usize, usize, usize, usize, usize, u64) {
    let graph = program.graph();
    let mut h = Fnv::new();
    for (id, inst) in program.ids().zip(program.instances()) {
        h.word(u64::from(inst.type_id().0));
        h.word(inst.instructions());
        h.word(inst.seed());
        for list in [graph.predecessors(id), graph.successors(id)] {
            h.word(list.len() as u64);
            for t in list {
                h.word(u64::from(t.0));
            }
        }
    }
    (
        program.num_instances(),
        program.num_types(),
        program.num_codes(),
        graph.edge_count(),
        graph.critical_path_len(),
        h.0,
    )
}

#[allow(clippy::type_complexity)]
const GOLDEN: &[(&str, (usize, usize, usize, usize, usize, u64))] = &[
    ("2d-convolution", (16384, 1, 1, 0, 1, 0xb12af0a17a4693b1)),
    ("3d-stencil", (16370, 1, 1, 57295, 10, 0x53831681e89a316f)),
    ("atomic-monte-carlo-dynamics", (16384, 1, 1, 0, 1, 0xadb6f1f24b9aa8fd)),
    ("dense-matrix-multiplication", (17576, 1, 1, 16900, 26, 0x6eea8d4ab0bf377c)),
    ("histogram", (16384, 1, 1, 0, 1, 0x4b362becd56595d1)),
    ("n-body", (25000, 2, 2, 99375, 200, 0xec1e83380fe39393)),
    ("reduction", (16384, 2, 3, 16383, 15, 0xfe6e9e214c2c59c5)),
    ("sparse-matrix-vector-multiplication", (1024, 1, 1, 0, 1, 0x113bf0dc70471d51)),
    ("vector-operation", (16400, 1, 1, 0, 1, 0xbba9cf16eb699ef1)),
    ("checkSparseLU", (22058, 11, 6, 39458, 106, 0xd5f38cd582d7c662)),
    ("cholesky", (19600, 4, 1, 55272, 142, 0x48ca9a4d7b0ccf8a)),
    ("kmeans", (16337, 6, 3, 71751, 191, 0x8f7ffed3a3962e88)),
    ("knn", (18400, 2, 2, 17600, 2, 0x236535b9e3470ec7)),
    ("blackscholes", (24500, 2, 2, 24450, 2, 0xeeb52cb68169b716)),
    ("bodytrack", (21439, 7, 3, 26271, 427, 0xa86a94286b1b8caa)),
    ("canneal", (16384, 1, 1, 0, 1, 0xc37533da8b2e187c)),
    ("dedup", (15738, 4, 4, 15735, 3937, 0x71ed09fd3759f56b)),
    ("freqmine", (1932, 7, 5, 3823, 80, 0x617ffa05f1e90cdc)),
    ("swaptions", (16384, 1, 1, 0, 1, 0xbf20b04f27792652)),
    ("external-dag-mini", (48, 3, 3, 48, 4, 0x2fe0c123c63e139e)),
    ("external-pipeline-mini", (40, 2, 2, 39, 21, 0x3e22059490c8ac4c)),
];

#[test]
fn every_program_keeps_its_golden_shape() {
    let scale = ScaleConfig::quick();
    let mut got = Vec::new();
    for bench in Benchmark::ALL.into_iter().chain(Benchmark::EXTERNAL) {
        got.push((bench.name(), shape(&bench.generate(&scale))));
    }
    assert_eq!(got.len(), GOLDEN.len(), "one golden row per benchmark");
    for ((name, s), (golden_name, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(s, golden, "{name}: (instances, types, codes, edges, critical path, checksum)");
    }
}
