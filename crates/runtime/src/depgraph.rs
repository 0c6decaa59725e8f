//! OmpSs-style dependence analysis and the resulting task DAG.
//!
//! Tasks are analyzed in creation (program) order. For every annotated
//! region the analysis keeps the classic last-writer/readers state:
//!
//! * a **reading** access depends on the region's last writer (RAW);
//! * a **writing** access depends on the last writer (WAW) *and* on every
//!   reader since that write (WAR), then becomes the new last writer.
//!
//! Regions are matched by identity (`base`, `len`), which is how OmpSs
//! programs are written in practice (tasks name whole tiles/blocks); the
//! analysis additionally asserts in debug builds that distinct region keys
//! never partially overlap, so identity matching is not silently unsound.

use crate::regions::RegionAccess;
use crate::task::TaskInstanceId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use taskpoint_trace::MemRegion;

/// A multiplicative hasher for region keys.
///
/// The keys are the program's own annotations, not untrusted input, so the
/// standard library's flooding-resistant SipHash buys nothing here and
/// costs most of the analysis time. Each word is folded in with one
/// multiplication; `finish` folds the well-mixed high half into the low
/// bits, because the table indexes buckets by the low bits and region
/// bases are aligned (their low bits are all zero).
#[derive(Debug, Default, Clone, Copy)]
struct RegionHasher(u64);

impl Hasher for RegionHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Per-region dependence state during construction.
#[derive(Debug, Default, Clone)]
struct RegionState {
    last_writer: Option<TaskInstanceId>,
    readers_since_write: Vec<TaskInstanceId>,
}

/// Builds a [`DependenceGraph`] by registering tasks in creation order.
///
/// Registering a task allocates nothing in the steady state: its
/// predecessors are collected in one reused scratch buffer and appended to
/// a flat edge array, and each region's state lives in a slot vector
/// indexed through a region → slot map.
#[derive(Debug)]
pub struct DependenceGraphBuilder {
    /// Region → index into `regions`.
    slots: HashMap<MemRegion, u32, BuildHasherDefault<RegionHasher>>,
    regions: Vec<RegionState>,
    /// `preds[pred_off[i]..pred_off[i + 1]]` are task `i`'s predecessors.
    pred_off: Vec<u32>,
    preds: Vec<TaskInstanceId>,
    /// The current task's dependences before sorting and deduplication.
    scratch: Vec<TaskInstanceId>,
    /// Debug-only soundness index: region base -> len, used to detect
    /// partially overlapping annotations in O(log n) per access.
    #[cfg(debug_assertions)]
    region_index: std::collections::BTreeMap<u64, u64>,
}

impl Default for DependenceGraphBuilder {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl DependenceGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for the offsets of `tasks` tasks.
    pub fn with_capacity(tasks: usize) -> Self {
        let mut pred_off = Vec::with_capacity(tasks + 1);
        pred_off.push(0);
        Self {
            slots: HashMap::default(),
            regions: Vec::new(),
            pred_off,
            preds: Vec::new(),
            scratch: Vec::new(),
            #[cfg(debug_assertions)]
            region_index: std::collections::BTreeMap::new(),
        }
    }

    /// Number of tasks registered so far.
    fn len(&self) -> usize {
        self.pred_off.len() - 1
    }

    /// Registers the next task (ids must be dense and in creation order)
    /// and derives its dependences from `accesses`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the next dense id.
    pub fn add_task(&mut self, id: TaskInstanceId, accesses: &[RegionAccess]) {
        assert_eq!(id.index(), self.len(), "task ids must be dense and ordered");

        #[cfg(debug_assertions)]
        self.check_no_partial_overlap(accesses);

        let deps = &mut self.scratch;
        deps.clear();
        for acc in accesses {
            let next = self.regions.len() as u32;
            let slot = *self.slots.entry(acc.region).or_insert(next);
            if slot == next {
                self.regions.push(RegionState::default());
            }
            let state = &mut self.regions[slot as usize];
            if acc.mode.reads() {
                if let Some(w) = state.last_writer {
                    deps.push(w);
                }
            }
            if acc.mode.writes() {
                if let Some(w) = state.last_writer {
                    deps.push(w);
                }
                deps.extend_from_slice(&state.readers_since_write);
            }
            // Update the state after computing dependences so a task never
            // depends on itself through its own annotations.
            if acc.mode.writes() {
                state.last_writer = Some(id);
                state.readers_since_write.clear();
            } else {
                state.readers_since_write.push(id);
            }
        }
        deps.retain(|&d| d != id);
        deps.sort_unstable();
        deps.dedup();
        self.preds.extend_from_slice(deps);
        self.pred_off.push(offset(self.preds.len()));
    }

    #[cfg(debug_assertions)]
    fn check_no_partial_overlap(&mut self, accesses: &[RegionAccess]) {
        for acc in accesses {
            let r = acc.region;
            if r.is_empty() {
                continue;
            }
            // The closest region starting at or before `r.base` must either
            // be identical to `r` or end before it starts.
            if let Some((&base, &len)) = self.region_index.range(..=r.base).next_back() {
                let identical = base == r.base && len == r.len;
                assert!(
                    identical || base + len <= r.base,
                    "region {r} partially overlaps previously annotated [{base:#x}, {:#x}); \
                     identity-based dependence analysis would be unsound",
                    base + len
                );
            }
            // No region may start strictly inside `r`.
            if let Some((&base, &len)) = self.region_index.range(r.base + 1..r.end()).next() {
                panic!(
                    "region {r} partially overlaps previously annotated [{base:#x}, {:#x}); \
                     identity-based dependence analysis would be unsound",
                    base + len
                );
            }
            self.region_index.entry(r.base).or_insert(r.len);
        }
    }

    /// Finalizes the graph: fills the successor lists with a counting pass
    /// over the predecessors in task order, so every successor list is in
    /// ascending (creation) order.
    pub fn build(self) -> DependenceGraph {
        // The region states are done with: free them before the successor
        // arrays are allocated. The edge count was unknown up front, so
        // drop the predecessors' growth slack (the offsets have none when
        // sized by `with_capacity`).
        drop((self.slots, self.regions, self.scratch));
        #[cfg(debug_assertions)]
        drop(self.region_index);
        let (mut pred_off, mut preds) = (self.pred_off, self.preds);
        pred_off.shrink_to_fit();
        preds.shrink_to_fit();
        let n = pred_off.len() - 1;
        let mut succ_off = vec![0u32; n + 1];
        for p in &preds {
            succ_off[p.index() + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut cursor = succ_off[..n].to_vec();
        let mut succs = vec![TaskInstanceId(0); preds.len()];
        for i in 0..n {
            let task = TaskInstanceId(i as u32);
            for p in &preds[pred_off[i] as usize..pred_off[i + 1] as usize] {
                let at = &mut cursor[p.index()];
                succs[*at as usize] = task;
                *at += 1;
            }
        }
        DependenceGraph { pred_off, preds, succ_off, succs }
    }
}

/// An edge count as a CSR offset.
fn offset(edges: usize) -> u32 {
    u32::try_from(edges).expect("more than u32::MAX dependence edges")
}

/// An immutable task dependence DAG in compressed sparse row form: task
/// `i`'s predecessors are `preds[pred_off[i]..pred_off[i + 1]]`, and its
/// successors likewise in `succs`.
///
/// By construction (dependences only point at earlier creation indices) the
/// graph is acyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceGraph {
    pred_off: Vec<u32>,
    preds: Vec<TaskInstanceId>,
    succ_off: Vec<u32>,
    succs: Vec<TaskInstanceId>,
}

impl DependenceGraph {
    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.pred_off.len() - 1
    }

    /// True if the graph contains no tasks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tasks `id` directly depends on (sorted, deduplicated).
    pub fn predecessors(&self, id: TaskInstanceId) -> &[TaskInstanceId] {
        let i = id.index();
        &self.preds[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// The tasks that directly depend on `id` (in creation order).
    pub fn successors(&self, id: TaskInstanceId) -> &[TaskInstanceId] {
        let i = id.index();
        &self.succs[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Number of predecessors of task `i`.
    fn in_degree(&self, i: usize) -> u32 {
        self.pred_off[i + 1] - self.pred_off[i]
    }

    /// Tasks with no predecessors, in creation order.
    pub fn roots(&self) -> Vec<TaskInstanceId> {
        (0..self.len())
            .filter(|&i| self.in_degree(i) == 0)
            .map(|i| TaskInstanceId(i as u32))
            .collect()
    }

    /// Total number of dependence edges.
    pub fn edge_count(&self) -> usize {
        self.preds.len()
    }

    /// The length of the longest dependence chain (critical path measured
    /// in tasks). An empty graph has depth 0.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        let mut max = 0;
        for i in 0..self.len() {
            let id = TaskInstanceId(i as u32);
            let d = self.predecessors(id).iter().map(|p| depth[p.index()] + 1).max().unwrap_or(1);
            depth[i] = d;
            max = max.max(d);
        }
        max
    }

    /// Creates the mutable ready-set used to execute this graph.
    pub fn ready_set(&self) -> ReadySet {
        ReadySet {
            remaining: (0..self.len()).map(|i| self.in_degree(i)).collect(),
            completed: vec![false; self.len()],
            pending: self.len(),
        }
    }
}

/// Incremental ready-tracking during execution: the runtime marks tasks
/// complete and learns which successors became ready.
#[derive(Debug, Clone)]
pub struct ReadySet {
    remaining: Vec<u32>,
    completed: Vec<bool>,
    pending: usize,
}

impl ReadySet {
    /// True if `id` currently has no unfinished predecessors and has not
    /// itself completed.
    pub fn is_ready(&self, id: TaskInstanceId) -> bool {
        !self.completed[id.index()] && self.remaining[id.index()] == 0
    }

    /// Number of tasks not yet completed.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True once every task has completed.
    pub fn all_done(&self) -> bool {
        self.pending == 0
    }

    /// Marks `id` complete and hands each successor that became ready to
    /// `on_ready`, in creation order.
    ///
    /// # Panics
    ///
    /// Panics if `id` completes twice or completes while predecessors are
    /// still outstanding (both indicate a scheduler bug).
    pub fn complete(
        &mut self,
        graph: &DependenceGraph,
        id: TaskInstanceId,
        mut on_ready: impl FnMut(TaskInstanceId),
    ) {
        assert!(!self.completed[id.index()], "task {id} completed twice");
        assert_eq!(self.remaining[id.index()], 0, "task {id} completed before its inputs");
        self.completed[id.index()] = true;
        self.pending -= 1;
        for &s in graph.successors(id) {
            let r = &mut self.remaining[s.index()];
            *r -= 1;
            if *r == 0 {
                on_ready(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::RegionAccess;

    fn region(i: u64) -> MemRegion {
        MemRegion::new(0x1000 * i, 0x100)
    }

    fn graph(accesses: &[Vec<RegionAccess>]) -> DependenceGraph {
        let mut b = DependenceGraphBuilder::new();
        for (i, acc) in accesses.iter().enumerate() {
            b.add_task(TaskInstanceId(i as u32), acc);
        }
        b.build()
    }

    #[test]
    fn raw_dependence() {
        let g =
            graph(&[vec![RegionAccess::output(region(1))], vec![RegionAccess::input(region(1))]]);
        assert_eq!(g.predecessors(TaskInstanceId(1)), &[TaskInstanceId(0)]);
        assert_eq!(g.successors(TaskInstanceId(0)), &[TaskInstanceId(1)]);
    }

    #[test]
    fn war_dependence() {
        let g =
            graph(&[vec![RegionAccess::input(region(1))], vec![RegionAccess::output(region(1))]]);
        assert_eq!(g.predecessors(TaskInstanceId(1)), &[TaskInstanceId(0)]);
    }

    #[test]
    fn waw_dependence() {
        let g =
            graph(&[vec![RegionAccess::output(region(1))], vec![RegionAccess::output(region(1))]]);
        assert_eq!(g.predecessors(TaskInstanceId(1)), &[TaskInstanceId(0)]);
    }

    #[test]
    fn independent_readers_share_a_writer() {
        let g = graph(&[
            vec![RegionAccess::output(region(1))],
            vec![RegionAccess::input(region(1))],
            vec![RegionAccess::input(region(1))],
            vec![RegionAccess::output(region(1))], // WAR on both readers + WAW
        ]);
        assert_eq!(g.predecessors(TaskInstanceId(1)), &[TaskInstanceId(0)]);
        assert_eq!(g.predecessors(TaskInstanceId(2)), &[TaskInstanceId(0)]);
        assert_eq!(
            g.predecessors(TaskInstanceId(3)),
            &[TaskInstanceId(0), TaskInstanceId(1), TaskInstanceId(2)]
        );
    }

    #[test]
    fn disjoint_regions_are_independent() {
        let g =
            graph(&[vec![RegionAccess::output(region(1))], vec![RegionAccess::output(region(2))]]);
        assert!(g.predecessors(TaskInstanceId(1)).is_empty());
        assert_eq!(g.roots(), vec![TaskInstanceId(0), TaskInstanceId(1)]);
    }

    #[test]
    fn inout_chains_serialize() {
        let g = graph(&[
            vec![RegionAccess::inout(region(1))],
            vec![RegionAccess::inout(region(1))],
            vec![RegionAccess::inout(region(1))],
        ]);
        assert_eq!(g.predecessors(TaskInstanceId(2)), &[TaskInstanceId(1)]);
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn task_reading_and_writing_same_region_has_no_self_dep() {
        let g = graph(&[vec![RegionAccess::input(region(1)), RegionAccess::output(region(1))]]);
        assert!(g.predecessors(TaskInstanceId(0)).is_empty());
    }

    #[test]
    fn duplicate_dependences_are_merged() {
        // Task 1 depends on task 0 through two different regions.
        let g = graph(&[
            vec![RegionAccess::output(region(1)), RegionAccess::output(region(2))],
            vec![RegionAccess::input(region(1)), RegionAccess::input(region(2))],
        ]);
        assert_eq!(g.predecessors(TaskInstanceId(1)), &[TaskInstanceId(0)]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn ready_set_executes_diamond() {
        //    0
        //   / \
        //  1   2
        //   \ /
        //    3
        let g = graph(&[
            vec![RegionAccess::output(region(1)), RegionAccess::output(region(2))],
            vec![RegionAccess::input(region(1)), RegionAccess::output(region(3))],
            vec![RegionAccess::input(region(2)), RegionAccess::output(region(4))],
            vec![RegionAccess::input(region(3)), RegionAccess::input(region(4))],
        ]);
        let mut rs = g.ready_set();
        assert_eq!(g.roots(), vec![TaskInstanceId(0)]);
        assert!(rs.is_ready(TaskInstanceId(0)));
        assert!(!rs.is_ready(TaskInstanceId(3)));
        fn complete(rs: &mut ReadySet, g: &DependenceGraph, id: u32) -> Vec<TaskInstanceId> {
            let mut ready = Vec::new();
            rs.complete(g, TaskInstanceId(id), |t| ready.push(t));
            ready
        }
        assert_eq!(complete(&mut rs, &g, 0), vec![TaskInstanceId(1), TaskInstanceId(2)]);
        assert!(complete(&mut rs, &g, 1).is_empty());
        assert_eq!(complete(&mut rs, &g, 2), vec![TaskInstanceId(3)]);
        assert_eq!(rs.pending(), 1);
        assert!(complete(&mut rs, &g, 3).is_empty());
        assert!(rs.all_done());
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let g = graph(&[vec![]]);
        let mut rs = g.ready_set();
        rs.complete(&g, TaskInstanceId(0), |_| {});
        rs.complete(&g, TaskInstanceId(0), |_| {});
    }

    #[test]
    #[should_panic(expected = "before its inputs")]
    fn premature_completion_panics() {
        let g =
            graph(&[vec![RegionAccess::output(region(1))], vec![RegionAccess::input(region(1))]]);
        let mut rs = g.ready_set();
        rs.complete(&g, TaskInstanceId(1), |_| {});
    }

    #[test]
    fn critical_path_of_independent_tasks_is_one() {
        let g = graph(&[vec![], vec![], vec![]]);
        assert_eq!(g.critical_path_len(), 1);
        assert_eq!(graph(&[]).critical_path_len(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "partially overlaps")]
    fn partial_overlap_detected_in_debug() {
        let mut b = DependenceGraphBuilder::new();
        b.add_task(TaskInstanceId(0), &[RegionAccess::output(MemRegion::new(0, 100))]);
        b.add_task(TaskInstanceId(1), &[RegionAccess::input(MemRegion::new(50, 100))]);
    }
}
