//! The detailed core timing model.
//!
//! TaskSim's detailed mode is based on the *Reorder-Buffer Occupancy
//! Analysis* model of Lee, Evans and Cho ("Accurately approximating
//! superscalar processor performance from traces", ISPASS 2009), which the
//! paper cites as the core model of TaskSim. The model approximates an
//! out-of-order superscalar pipeline from a trace by enforcing, per
//! instruction, the following constraints:
//!
//! * **issue width** — at most `issue_width` instructions dispatch per cycle;
//! * **ROB occupancy** — instruction *i* cannot dispatch before instruction
//!   *i − rob_size* has committed (the window is full otherwise);
//! * **MSHRs** — at most `mshrs` cache misses may be outstanding;
//! * **serialization** — data dependences (probabilistic, from the trace
//!   spec), branch mispredictions and fences delay subsequent dispatch;
//! * **in-order commit** — at most `commit_width` instructions commit per
//!   cycle, in program order, after completing execution.
//!
//! Loads get their completion latency from the [`MemorySystem`];
//! everything else uses the configured latency table. The model keeps
//! fractional-cycle bookkeeping with integer *ticks* (`1 tick = 1/width`
//! cycles) so it is exact and fast.

use crate::config::CoreConfig;
use crate::hierarchy::MemorySystem;
use taskpoint_stats::rng::Xoshiro256pp;
use taskpoint_trace::{InstBlock, InstKind, Instruction};

// Instruction classes for dispatching off the SoA kind column. A table
// lookup plus a dense 5-way match replaces three separate data-dependent
// matches (MSHR guard, execute, serialization) per instruction.
const CLASS_SIMPLE: u8 = 0;
const CLASS_LOAD: u8 = 1;
const CLASS_STORE: u8 = 2;
const CLASS_ATOMIC: u8 = 3;
const CLASS_BRANCH: u8 = 4;
const CLASS_FENCE: u8 = 5;

const fn kind_classes() -> [u8; 11] {
    let mut t = [CLASS_SIMPLE; 11];
    t[InstKind::Load as usize] = CLASS_LOAD;
    t[InstKind::Store as usize] = CLASS_STORE;
    t[InstKind::Atomic as usize] = CLASS_ATOMIC;
    t[InstKind::Branch as usize] = CLASS_BRANCH;
    t[InstKind::Fence as usize] = CLASS_FENCE;
    t
}

const KIND_CLASS: [u8; 11] = kind_classes();

// Stall taxonomy indices for the per-core cycle accounting. Counters are
// tick-denominated (1 tick = 1/issue_width cycles) so attribution inside
// `step` is plain integer adds; conversion to cycles happens once per task
// at readout.
pub(crate) const STALL_ROB: usize = 0;
pub(crate) const STALL_DEP: usize = 1;
pub(crate) const STALL_L1: usize = 2;
pub(crate) const STALL_L2: usize = 3;
pub(crate) const STALL_DRAM: usize = 4;
pub(crate) const STALL_MSHR: usize = 5;
pub(crate) const STALL_CONTENTION: usize = 6;
pub(crate) const NUM_STALLS: usize = 7;

// Per-ROB-slot classes: which part of the machine the instruction occupying
// a slot was waiting on. When the ROB window binds dispatch, the stall is
// charged to the *blocking* slot's class — a window full behind a DRAM miss
// is a DRAM stall, not a generic ROB stall.
const SLOT_COMPUTE: u8 = 0;
const SLOT_L1: u8 = 1;
const SLOT_L2: u8 = 2;
const SLOT_DRAM: u8 = 3;
const SLOT_CONTENTION: u8 = 4;

const SLOT_STALL: [usize; 5] = [STALL_ROB, STALL_L1, STALL_L2, STALL_DRAM, STALL_CONTENTION];

/// Workload-dependent execution parameters of the current task, taken from
/// its trace spec.
#[derive(Debug, Clone, Copy)]
pub struct TaskParams {
    /// Probability that a branch mispredicts.
    pub branch_mispredict_rate: f64,
    /// Probability that the next instruction depends on this one.
    pub dependency_rate: f64,
}

/// Per-core pipeline state of the ROB occupancy analysis model.
#[derive(Debug, Clone)]
pub struct RobCore {
    // -- static configuration --
    rob_size: usize,
    issue_width: u64,
    commit_width: u64,
    mispredict_penalty: u64,
    mshrs: usize,
    /// Completion latency per non-memory [`InstKind`] discriminant (memory
    /// kinds hold their non-memory share: store latency, atomic extra).
    /// Indexed lookups keep the hot path free of an 11-way match whose
    /// targets are data-dependent (and therefore host-unpredictable).
    lat: [u64; 11],
    lat_store: u64,
    lat_atomic_extra: u64,
    // -- dynamic state --
    /// Commit cycle of instruction `i - rob_size`, indexed `i % rob_size`.
    commit_ring: Vec<u64>,
    /// Slot class (`SLOT_*`) of the instruction in each `commit_ring` slot,
    /// read when that slot blocks dispatch to attribute the ROB stall.
    class_ring: Vec<u8>,
    ring_pos: usize,
    /// Stalled dispatch ticks per `STALL_*` category since the last
    /// [`RobCore::reset`]. Always on: maintained with plain adds on the
    /// paths that already jump the dispatch clock, zero allocation.
    stall_ticks: [u64; NUM_STALLS],
    /// Dispatch clock in ticks of `1/issue_width` cycles.
    dispatch_ticks: u64,
    /// Commit clock in ticks of `1/commit_width` cycles.
    commit_ticks: u64,
    /// Earliest cycle the next instruction may dispatch (dependences,
    /// mispredictions, fences).
    serial_until: u64,
    /// Completion cycles of outstanding cache misses.
    outstanding: Vec<u64>,
    last_commit: u64,
    /// Clock divider relative to the machine's base clock (see
    /// [`CoreGroupConfig`](crate::config::CoreGroupConfig)). The pipeline
    /// runs entirely in *core-local* cycles; the divider is applied only
    /// at the memory boundary — access timestamps are converted to global
    /// base-clock ticks (`cycle · divider`) and returned latencies back to
    /// local cycles (`ceil(latency / divider)`). Divider 1 (every
    /// homogeneous machine) makes both conversions exact identities.
    clock_divider: u64,
}

impl RobCore {
    /// Creates a core with drained pipeline state at cycle 0.
    pub fn new(cfg: &CoreConfig) -> Self {
        let l = &cfg.latencies;
        let mut lat = [0u64; 11];
        lat[InstKind::IntAlu as usize] = l.int_alu as u64;
        lat[InstKind::IntMul as usize] = l.int_mul as u64;
        lat[InstKind::IntDiv as usize] = l.int_div as u64;
        lat[InstKind::FpAlu as usize] = l.fp_alu as u64;
        lat[InstKind::FpMul as usize] = l.fp_mul as u64;
        lat[InstKind::FpDiv as usize] = l.fp_div as u64;
        lat[InstKind::Branch as usize] = l.branch as u64;
        lat[InstKind::Fence as usize] = l.fence as u64;
        Self {
            rob_size: cfg.rob_size as usize,
            issue_width: cfg.issue_width as u64,
            commit_width: cfg.commit_width as u64,
            mispredict_penalty: cfg.mispredict_penalty as u64,
            mshrs: cfg.mshrs as usize,
            lat,
            lat_store: l.store as u64,
            lat_atomic_extra: l.atomic_extra as u64,
            commit_ring: vec![0; cfg.rob_size as usize],
            class_ring: vec![SLOT_COMPUTE; cfg.rob_size as usize],
            ring_pos: 0,
            stall_ticks: [0; NUM_STALLS],
            dispatch_ticks: 0,
            commit_ticks: 0,
            serial_until: 0,
            outstanding: Vec::with_capacity(cfg.mshrs as usize),
            last_commit: 0,
            clock_divider: 1,
        }
    }

    /// Sets the clock divider (see the field docs). Must be at least 1.
    pub fn set_clock_divider(&mut self, divider: u64) {
        assert!(divider >= 1, "clock divider must be at least 1");
        self.clock_divider = divider;
    }

    /// The clock divider set by [`RobCore::set_clock_divider`] (1 unless
    /// changed).
    pub(crate) fn clock_divider(&self) -> u64 {
        self.clock_divider
    }

    /// Converts a core-local cycle to the global base-clock tick it occurs
    /// at. The `== 1` fast path keeps the homogeneous hot loop free of a
    /// multiply per memory access.
    #[inline]
    fn to_global(&self, cycle: u64) -> u64 {
        if self.clock_divider == 1 {
            cycle
        } else {
            cycle * self.clock_divider
        }
    }

    /// Converts a latency in global base-clock ticks to the core-local
    /// cycles it spans (conservatively rounded up: the data is usable at
    /// the first local cycle at or after arrival).
    #[inline]
    fn to_local_latency(&self, ticks: u64) -> u64 {
        if self.clock_divider == 1 {
            ticks
        } else {
            ticks.div_ceil(self.clock_divider)
        }
    }

    /// Drains the pipeline and restarts the clocks at `start` — called at
    /// every task boundary (tasks never share pipeline state; caches, which
    /// live in the [`MemorySystem`], do persist across tasks).
    pub fn reset(&mut self, start: u64) {
        self.commit_ring.fill(start);
        self.class_ring.fill(SLOT_COMPUTE);
        self.stall_ticks = [0; NUM_STALLS];
        self.ring_pos = 0;
        self.dispatch_ticks = start * self.issue_width;
        self.commit_ticks = start * self.commit_width;
        self.serial_until = start;
        self.outstanding.clear();
        self.last_commit = start;
    }

    /// Divides a tick count by a pipeline width. Widths are small
    /// per-machine constants, so the constant arms let the compiler
    /// strength-reduce the division (a real `div` costs ~20 cycles and
    /// this runs two to three times per simulated instruction).
    #[inline]
    fn div_width(ticks: u64, width: u64) -> u64 {
        match width {
            1 => ticks,
            2 => ticks >> 1,
            3 => ticks / 3,
            4 => ticks >> 2,
            6 => ticks / 6,
            8 => ticks >> 3,
            w => ticks / w,
        }
    }

    /// The cycle the next instruction would dispatch at (the core's local
    /// clock for chunked execution).
    pub fn dispatch_cycle(&self) -> u64 {
        Self::div_width(self.dispatch_ticks, self.issue_width)
    }

    /// Commit cycle of the most recently executed instruction.
    pub fn last_commit(&self) -> u64 {
        self.last_commit
    }

    /// Stalled dispatch time per `STALL_*` category since the last
    /// [`RobCore::reset`], converted to **global base-clock ticks**
    /// (tick-exact accounting divided by the issue width once, then scaled
    /// by the clock divider — the same units as task start/end times).
    pub(crate) fn stall_global_ticks(&self) -> [u64; NUM_STALLS] {
        let mut out = [0u64; NUM_STALLS];
        for (o, &t) in out.iter_mut().zip(&self.stall_ticks) {
            *o = Self::div_width(t, self.issue_width) * self.clock_divider;
        }
        out
    }

    /// Executes one trace instruction on core `core_id`; returns its commit
    /// cycle. `rng` must be the task instance's private stream so replays
    /// are identical in every simulation mode.
    pub fn execute(
        &mut self,
        core_id: u32,
        inst: &Instruction,
        params: TaskParams,
        mem: &mut MemorySystem,
        data_rng: &mut Xoshiro256pp,
        code_rng: &mut Xoshiro256pp,
    ) -> u64 {
        self.step(core_id, inst.kind, inst.addr, params, mem, data_rng, code_rng).0
    }

    /// Executes instructions `from..` of a filled [`InstBlock`] until the
    /// dispatch clock reaches `chunk_end` or the block is exhausted;
    /// returns how many instructions were executed.
    ///
    /// The chunk check happens *before* each instruction (an instruction
    /// may complete past `chunk_end` but never starts past it), which is
    /// exactly the boundary semantics of per-instruction execution — block
    /// size therefore never affects simulated timing, only host speed. At
    /// least one instruction executes whenever the dispatch clock is below
    /// `chunk_end` at entry and the slice is non-empty, so callers always
    /// make progress.
    ///
    /// The boundary is enforced per *run*, not per instruction: dispatch
    /// consumes at least one tick per instruction, so
    /// `end_ticks - dispatch_ticks` instructions are guaranteed to stay
    /// inside the chunk unless a stall (ROB window, serialization, MSHRs)
    /// jumps the dispatch clock — `RobCore::step` reports exactly that,
    /// and the run length is re-derived only then. The executed set is
    /// identical to a per-instruction check.
    // Mirrors `execute`'s parameter list plus the block window; bundling
    // them into a context struct would just move the argument count into
    // every caller.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_block(
        &mut self,
        core_id: u32,
        block: &InstBlock,
        from: usize,
        chunk_end: u64,
        params: TaskParams,
        mem: &mut MemorySystem,
        data_rng: &mut Xoshiro256pp,
        code_rng: &mut Xoshiro256pp,
    ) -> usize {
        // dispatch_cycle() < chunk_end  ⟺  dispatch_ticks < chunk_end·width
        // — hoist the multiplication out of the boundary check.
        let end_ticks = chunk_end.saturating_mul(self.issue_width);
        let kinds = &block.kinds()[from..];
        let addrs = &block.addrs()[from..];
        let len = kinds.len();
        let mut executed = 0usize;
        while executed < len && self.dispatch_ticks < end_ticks {
            let budget = (end_ticks - self.dispatch_ticks).min((len - executed) as u64) as usize;
            let stop = executed + budget;
            let mut i = executed;
            while i < stop {
                let (_, jumped) =
                    self.step(core_id, kinds[i], addrs[i], params, mem, data_rng, code_rng);
                i += 1;
                if jumped {
                    break;
                }
            }
            executed = i;
        }
        executed
    }

    /// The per-instruction ROB-occupancy-analysis state transition shared
    /// by [`RobCore::execute`] and [`RobCore::execute_block`]. Returns the
    /// commit cycle and whether dispatch *jumped* (a stall moved the
    /// dispatch clock by more than its own issue slot) — the signal the
    /// block walk uses to re-derive its chunk-boundary run length.
    ///
    /// Forced inline: with two callers LLVM keeps it out of line, and a
    /// call per instruction cost about 9% of detailed throughput
    /// (full-scale cholesky reference, 2-vCPU x86-64 host).
    #[allow(clippy::too_many_arguments)] // see execute_block
    #[inline(always)]
    fn step(
        &mut self,
        core_id: u32,
        kind: InstKind,
        addr: u64,
        params: TaskParams,
        mem: &mut MemorySystem,
        data_rng: &mut Xoshiro256pp,
        code_rng: &mut Xoshiro256pp,
    ) -> (u64, bool) {
        // Dispatch constraints: issue width (tick += 1 below), ROB window,
        // serialization. When a constraint jumps the clock, the jump is
        // attributed: serialization to dependency-wait, the ROB window to
        // the class of the blocking slot.
        let entry_ticks = self.dispatch_ticks;
        let rob_constraint = self.commit_ring[self.ring_pos];
        let rob_ticks = rob_constraint * self.issue_width;
        let serial_ticks = self.serial_until * self.issue_width;
        let mut ticks = entry_ticks;
        if rob_ticks > ticks || serial_ticks > ticks {
            let bound = rob_ticks.max(serial_ticks);
            let cat = if serial_ticks >= rob_ticks {
                STALL_DEP
            } else {
                SLOT_STALL[self.class_ring[self.ring_pos] as usize]
            };
            self.stall_ticks[cat] += bound - ticks;
            ticks = bound;
        }
        let mut d = Self::div_width(ticks, self.issue_width);
        let mut slot_class = SLOT_COMPUTE;

        // One classified dispatch off the kind column instead of three
        // separate matches (MSHR guard, execute, serialization): the class
        // fuses the memory-access decision with the serialization draw,
        // whose RNG-stream discipline (data stream for branches, code
        // stream for everything except fences) is preserved exactly.
        let complete = match KIND_CLASS[kind as usize] {
            CLASS_LOAD | CLASS_ATOMIC => {
                // MSHR constraint for loads/atomics that will touch memory.
                // Completed misses are cleaned out lazily: entries only
                // matter once the list *looks* full, and the `c > d` filter
                // removes a stale entry whenever it would have removed it
                // earlier (d is monotone), so the cleaned set at decision
                // time — and therefore the stall — is identical to eager
                // per-load cleaning.
                if self.outstanding.len() >= self.mshrs {
                    self.outstanding.retain(|&c| c > d);
                    if self.outstanding.len() >= self.mshrs {
                        let earliest = *self.outstanding.iter().min().expect("non-empty");
                        d = d.max(earliest);
                        let raised = d * self.issue_width;
                        if raised > ticks {
                            self.stall_ticks[STALL_MSHR] += raised - ticks;
                            ticks = raised;
                        }
                        self.outstanding.retain(|&c| c > d);
                    }
                }
                // Memory accesses cross the clock-domain boundary: the
                // hierarchy lives on the global base clock, the pipeline on
                // the core-local clock.
                let write = kind == InstKind::Atomic;
                let r = mem.access(core_id, addr, write, self.to_global(d));
                let lat = self.to_local_latency(r.latency);
                slot_class = if r.queue_delay > 0 {
                    SLOT_CONTENTION
                } else if r.dram {
                    SLOT_DRAM
                } else if r.l1_miss {
                    SLOT_L2
                } else {
                    SLOT_L1
                };
                if r.l1_miss {
                    self.outstanding.push(d + lat);
                }
                let complete = d + lat + if write { self.lat_atomic_extra } else { 0 };
                if code_rng.next_f64() < params.dependency_rate {
                    self.serial_until = self.serial_until.max(complete);
                }
                complete
            }
            CLASS_STORE => {
                // Write-allocate + coherence happen now; the store itself
                // retires through the write buffer at store latency.
                let _ = mem.access(core_id, addr, true, self.to_global(d));
                let complete = d + self.lat_store;
                if code_rng.next_f64() < params.dependency_rate {
                    self.serial_until = self.serial_until.max(complete);
                }
                complete
            }
            CLASS_BRANCH => {
                let complete = d + self.lat[kind as usize];
                // Branch outcomes are data-dependent: per-instance stream.
                if data_rng.next_f64() < params.branch_mispredict_rate {
                    self.serial_until = self.serial_until.max(complete + self.mispredict_penalty);
                }
                complete
            }
            CLASS_FENCE => {
                let complete = d + self.lat[kind as usize];
                self.serial_until = self.serial_until.max(complete);
                complete
            }
            _ => {
                let complete = d + self.lat[kind as usize];
                // Register dependences are code structure: the code stream,
                // shared by all instances of a task type.
                if code_rng.next_f64() < params.dependency_rate {
                    self.serial_until = self.serial_until.max(complete);
                }
                complete
            }
        };

        // Consume one dispatch slot.
        self.dispatch_ticks = ticks + 1;

        // In-order commit, bounded by commit width.
        self.commit_ticks = (self.commit_ticks + 1).max(complete * self.commit_width);
        let commit_cycle = Self::div_width(self.commit_ticks, self.commit_width);

        // The slot we read as the i-ROB constraint is overwritten with this
        // instruction's commit time (and slot class) for instruction i+ROB.
        self.commit_ring[self.ring_pos] = commit_cycle;
        self.class_ring[self.ring_pos] = slot_class;
        // Conditional wrap instead of `% rob_size`: the ROB size is not a
        // power of two (168 on the high-performance machine), so the
        // modulo would be a hardware divide on the hot path.
        self.ring_pos += 1;
        if self.ring_pos == self.rob_size {
            self.ring_pos = 0;
        }
        self.last_commit = commit_cycle;
        (commit_cycle, ticks != entry_ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::hierarchy::MemorySystem;
    use taskpoint_stats::rng::Xoshiro256pp;

    const NO_EVENTS: TaskParams = TaskParams { branch_mispredict_rate: 0.0, dependency_rate: 0.0 };

    fn setup(cores: u32) -> (RobCore, MemorySystem) {
        let m = MachineConfig::high_performance();
        (RobCore::new(&m.core), MemorySystem::new(&m, cores))
    }

    fn run_kinds(kinds: &[InstKind], n: usize) -> u64 {
        let (mut core, mut mem) = setup(1);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut crng = Xoshiro256pp::seed_from_u64(100);
        core.reset(0);
        let mut last = 0;
        for i in 0..n {
            let k = kinds[i % kinds.len()];
            let inst = if k.is_memory() {
                Instruction::memory(k, (i as u64 % 64) * 64, 8)
            } else {
                Instruction::compute(k)
            };
            last = core.execute(0, &inst, NO_EVENTS, &mut mem, &mut rng, &mut crng);
        }
        last
    }

    #[test]
    fn independent_alu_stream_reaches_issue_width() {
        // 4-wide high-perf core, no dependences: IPC -> 4.
        let n = 10_000;
        let cycles = run_kinds(&[InstKind::IntAlu], n);
        let ipc = n as f64 / cycles as f64;
        assert!(ipc > 3.8 && ipc <= 4.0, "ipc {ipc}");
    }

    #[test]
    fn fully_dependent_stream_serializes() {
        let (mut core, mut mem) = setup(1);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut crng = Xoshiro256pp::seed_from_u64(102);
        core.reset(0);
        let params = TaskParams { branch_mispredict_rate: 0.0, dependency_rate: 1.0 };
        let n = 1000u64;
        let mut last = 0;
        for _ in 0..n {
            last = core.execute(
                0,
                &Instruction::compute(InstKind::IntAlu),
                params,
                &mut mem,
                &mut rng,
                &mut crng,
            );
        }
        // Every instruction waits for the previous one: ~1 cycle each.
        let ipc = n as f64 / last as f64;
        assert!(ipc < 1.1, "serial chain ipc {ipc}");
    }

    #[test]
    fn long_latency_divide_throttles_commit() {
        let fast = run_kinds(&[InstKind::IntAlu], 4000);
        let slow = run_kinds(&[InstKind::IntDiv], 4000);
        assert!(slow >= fast, "divides cannot be faster ({slow} vs {fast})");
    }

    #[test]
    fn cold_misses_stall_the_window() {
        let (mut core, mut mem) = setup(1);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut crng = Xoshiro256pp::seed_from_u64(103);
        core.reset(0);
        // Every load touches a new line far apart -> all DRAM misses.
        let n = 2000u64;
        let mut last = 0;
        for i in 0..n {
            let inst = Instruction::memory(InstKind::Load, i * 4096, 8);
            last = core.execute(0, &inst, NO_EVENTS, &mut mem, &mut rng, &mut crng);
        }
        let ipc = n as f64 / last as f64;
        // DRAM latency 180, MSHRs 10 -> IPC is miss-bound well below 1.
        assert!(ipc < 0.2, "miss-bound ipc {ipc}");
    }

    #[test]
    fn mshrs_bound_memory_level_parallelism() {
        // With more MSHRs the same miss stream must finish no later.
        let m = MachineConfig::high_performance();
        let mut few_cfg = m.core.clone();
        few_cfg.mshrs = 1;
        let run = |cfg: &crate::config::CoreConfig| {
            let mut core = RobCore::new(cfg);
            let mut mem = MemorySystem::new(&m, 1);
            let mut rng = Xoshiro256pp::seed_from_u64(4);
            let mut crng = Xoshiro256pp::seed_from_u64(104);
            core.reset(0);
            let mut last = 0;
            for i in 0..500u64 {
                let inst = Instruction::memory(InstKind::Load, i * 4096, 8);
                last = core.execute(0, &inst, NO_EVENTS, &mut mem, &mut rng, &mut crng);
            }
            last
        };
        let wide = run(&m.core);
        let narrow = run(&few_cfg);
        assert!(narrow > wide * 3, "1 MSHR must be much slower than 10: {narrow} vs {wide}");
    }

    #[test]
    fn mispredictions_add_penalty() {
        let (mut core, mut mem) = setup(1);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut crng = Xoshiro256pp::seed_from_u64(105);
        core.reset(0);
        let clean = TaskParams { branch_mispredict_rate: 0.0, dependency_rate: 0.0 };
        let dirty = TaskParams { branch_mispredict_rate: 0.5, dependency_rate: 0.0 };
        let mut run = |p: TaskParams| {
            core.reset(0);
            let mut last = 0;
            for _ in 0..2000 {
                last = core.execute(
                    0,
                    &Instruction::compute(InstKind::Branch),
                    p,
                    &mut mem,
                    &mut rng,
                    &mut crng,
                );
            }
            last
        };
        let fast = run(clean);
        let slow = run(dirty);
        assert!(slow > fast * 2, "mispredicts must hurt: {slow} vs {fast}");
    }

    #[test]
    fn reset_restarts_clocks_at_given_cycle() {
        let (mut core, mut mem) = setup(1);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut crng = Xoshiro256pp::seed_from_u64(106);
        core.reset(1_000_000);
        assert_eq!(core.dispatch_cycle(), 1_000_000);
        let c = core.execute(
            0,
            &Instruction::compute(InstKind::IntAlu),
            NO_EVENTS,
            &mut mem,
            &mut rng,
            &mut crng,
        );
        assert!(c >= 1_000_000);
        assert_eq!(core.last_commit(), c);
    }

    #[test]
    fn rob_limits_runahead_past_a_miss() {
        // A DRAM miss followed by cheap ALU work: with a small ROB the ALU
        // stream cannot run ahead past the window, so total time is longer.
        let m = MachineConfig::high_performance();
        let mut small = m.core.clone();
        small.rob_size = 8;
        let run = |cfg: &crate::config::CoreConfig| {
            let mut core = RobCore::new(cfg);
            let mut mem = MemorySystem::new(&m, 1);
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            let mut crng = Xoshiro256pp::seed_from_u64(107);
            core.reset(0);
            let mut last = 0;
            for i in 0..3000u64 {
                let inst = if i % 300 == 0 {
                    Instruction::memory(InstKind::Load, i * 8192, 8)
                } else {
                    Instruction::compute(InstKind::IntAlu)
                };
                last = core.execute(0, &inst, NO_EVENTS, &mut mem, &mut rng, &mut crng);
            }
            last
        };
        let big_rob = run(&m.core);
        let small_rob = run(&small);
        assert!(small_rob >= big_rob, "smaller ROB cannot be faster: {small_rob} vs {big_rob}");
    }

    #[test]
    fn clock_divider_rescales_memory_latency() {
        // A miss-bound load stream on a divided clock: every DRAM access
        // costs ceil(latency / divider) *local* cycles, so the local
        // cycle count shrinks — but the same run takes more global ticks
        // (local · divider) than at divider 1.
        let m = MachineConfig::high_performance();
        let run = |divider: u64| {
            let mut core = RobCore::new(&m.core);
            core.set_clock_divider(divider);
            let mut mem = MemorySystem::new(&m, 1);
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            let mut crng = Xoshiro256pp::seed_from_u64(109);
            core.reset(0);
            let mut last = 0;
            for i in 0..500u64 {
                let inst = Instruction::memory(InstKind::Load, i * 4096, 8);
                last = core.execute(0, &inst, NO_EVENTS, &mut mem, &mut rng, &mut crng);
            }
            last
        };
        let base = run(1);
        let halved = run(4);
        assert!(halved < base, "local cycles must shrink: {halved} vs {base}");
        assert!(halved * 4 > base, "global ticks must grow: {} vs {base}", halved * 4);
    }

    #[test]
    fn fence_serializes_following_work() {
        let with_fences = run_kinds(&[InstKind::Fence, InstKind::IntAlu], 2000);
        let without = run_kinds(&[InstKind::IntAlu], 2000);
        assert!(with_fences > without * 2);
    }
}
