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
use taskpoint_trace::MemRegion;

/// Per-region dependence state during construction.
#[derive(Debug, Default, Clone)]
struct RegionState {
    last_writer: Option<TaskInstanceId>,
    readers_since_write: Vec<TaskInstanceId>,
}

/// Builds a [`DependenceGraph`] by registering tasks in creation order.
#[derive(Debug, Default)]
pub struct DependenceGraphBuilder {
    regions: HashMap<MemRegion, RegionState>,
    preds: Vec<Vec<TaskInstanceId>>,
    succs: Vec<Vec<TaskInstanceId>>,
    /// Debug-only soundness index: region base -> len, used to detect
    /// partially overlapping annotations in O(log n) per access.
    #[cfg(debug_assertions)]
    region_index: std::collections::BTreeMap<u64, u64>,
}

impl DependenceGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the next task (ids must be dense and in creation order)
    /// and derives its dependences from `accesses`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the next dense id.
    pub fn add_task(&mut self, id: TaskInstanceId, accesses: &[RegionAccess]) {
        assert_eq!(id.index(), self.preds.len(), "task ids must be dense and ordered");
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());

        #[cfg(debug_assertions)]
        self.check_no_partial_overlap(accesses);

        let mut deps: Vec<TaskInstanceId> = Vec::new();
        for acc in accesses {
            let state = self.regions.entry(acc.region).or_default();
            if acc.mode.reads() {
                if let Some(w) = state.last_writer {
                    deps.push(w);
                }
            }
            if acc.mode.writes() {
                if let Some(w) = state.last_writer {
                    deps.push(w);
                }
                deps.extend(state.readers_since_write.iter().copied());
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
        for &d in &deps {
            self.succs[d.index()].push(id);
        }
        self.preds[id.index()] = deps;
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

    /// Finalizes the graph.
    pub fn build(self) -> DependenceGraph {
        DependenceGraph { preds: self.preds, succs: self.succs }
    }
}

/// An immutable task dependence DAG.
///
/// By construction (dependences only point at earlier creation indices) the
/// graph is acyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceGraph {
    preds: Vec<Vec<TaskInstanceId>>,
    succs: Vec<Vec<TaskInstanceId>>,
}

impl DependenceGraph {
    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True if the graph contains no tasks.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The tasks `id` directly depends on (sorted, deduplicated).
    pub fn predecessors(&self, id: TaskInstanceId) -> &[TaskInstanceId] {
        &self.preds[id.index()]
    }

    /// The tasks that directly depend on `id` (in creation order).
    pub fn successors(&self, id: TaskInstanceId) -> &[TaskInstanceId] {
        &self.succs[id.index()]
    }

    /// Tasks with no predecessors, in creation order.
    pub fn roots(&self) -> Vec<TaskInstanceId> {
        (0..self.len() as u64)
            .map(TaskInstanceId)
            .filter(|id| self.preds[id.index()].is_empty())
            .collect()
    }

    /// Total number of dependence edges.
    pub fn edge_count(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }

    /// The length of the longest dependence chain (critical path measured
    /// in tasks). An empty graph has depth 0.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        let mut max = 0;
        for i in 0..self.len() {
            let id = TaskInstanceId(i as u64);
            let d = self.predecessors(id).iter().map(|p| depth[p.index()] + 1).max().unwrap_or(1);
            depth[i] = d;
            max = max.max(d);
        }
        max
    }

    /// Creates the mutable ready-set used to execute this graph.
    pub fn ready_set(&self) -> ReadySet {
        ReadySet {
            remaining: self.preds.iter().map(|p| p.len() as u32).collect(),
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
            b.add_task(TaskInstanceId(i as u64), acc);
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
        fn complete(rs: &mut ReadySet, g: &DependenceGraph, id: u64) -> Vec<TaskInstanceId> {
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
