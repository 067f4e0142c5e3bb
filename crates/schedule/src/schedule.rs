//! The [`Schedule`] container: node→processor assignment with start and
//! finish times, and derived per-processor timelines.

use fastsched_dag::{Cost, NodeId};
use std::fmt;

/// Dense processor identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The processor's dense index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

/// One placed task: where and when a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledTask {
    /// The task.
    pub node: NodeId,
    /// Processor it runs on.
    pub proc: ProcId,
    /// Start time `ST(n, P)`.
    pub start: Cost,
    /// Finish time `FT(n, P) = ST + w(n)`.
    pub finish: Cost,
}

/// A complete (or in-progress) schedule of a DAG onto identical
/// processors.
///
/// Invariants maintained by [`Schedule::place`]:
/// * a node is placed at most once (re-placing replaces its slot);
/// * `finish == start + w` is the *caller's* responsibility and is
///   checked by [`crate::validate::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    num_procs: u32,
    tasks: Vec<Option<ScheduledTask>>, // indexed by NodeId
}

impl Schedule {
    /// Empty schedule for `num_nodes` tasks over `num_procs` identical
    /// processors.
    pub fn new(num_nodes: usize, num_procs: u32) -> Self {
        Self {
            num_procs,
            tasks: vec![None; num_nodes],
        }
    }

    /// Re-initialize this schedule in place to an empty schedule of
    /// `num_nodes` tasks over `num_procs` processors. The task buffer
    /// is cleared and resized, never dropped, so a recycled `Schedule`
    /// allocates nothing once its capacity covers the largest DAG seen.
    pub fn reset(&mut self, num_nodes: usize, num_procs: u32) {
        self.num_procs = num_procs;
        self.tasks.clear();
        self.tasks.resize(num_nodes, None);
    }

    /// Number of processors made available to the scheduler (not all
    /// need be used; see [`crate::metrics`]).
    #[inline]
    pub fn num_procs(&self) -> u32 {
        self.num_procs
    }

    /// Number of task slots (== node count of the DAG being scheduled).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.tasks.len()
    }

    /// Place (or re-place) a node.
    pub fn place(&mut self, node: NodeId, proc: ProcId, start: Cost, finish: Cost) {
        assert!(proc.0 < self.num_procs, "processor {proc} out of range");
        self.tasks[node.index()] = Some(ScheduledTask {
            node,
            proc,
            start,
            finish,
        });
    }

    /// Remove a node from the schedule (used by move-based refinement).
    pub fn unplace(&mut self, node: NodeId) {
        self.tasks[node.index()] = None;
    }

    /// The placement of `node`, if it has been scheduled.
    #[inline]
    pub fn task(&self, node: NodeId) -> Option<ScheduledTask> {
        self.tasks[node.index()]
    }

    /// Processor of `node`, if placed.
    #[inline]
    pub fn proc_of(&self, node: NodeId) -> Option<ProcId> {
        self.tasks[node.index()].map(|t| t.proc)
    }

    /// Start time of `node`, if placed.
    #[inline]
    pub fn start_of(&self, node: NodeId) -> Option<Cost> {
        self.tasks[node.index()].map(|t| t.start)
    }

    /// Finish time of `node`, if placed.
    #[inline]
    pub fn finish_of(&self, node: NodeId) -> Option<Cost> {
        self.tasks[node.index()].map(|t| t.finish)
    }

    /// `true` once every node has been placed.
    pub fn is_complete(&self) -> bool {
        self.tasks.iter().all(Option::is_some)
    }

    /// Iterator over all placed tasks.
    pub fn tasks(&self) -> impl Iterator<Item = ScheduledTask> + '_ {
        self.tasks.iter().flatten().copied()
    }

    /// The schedule length (overall execution time):
    /// `max_i FT(n_i)` across all processors. Zero for an empty
    /// schedule.
    pub fn makespan(&self) -> Cost {
        self.tasks().map(|t| t.finish).max().unwrap_or(0)
    }

    /// Processors that actually received at least one task.
    pub fn processors_used(&self) -> u32 {
        let mut used = vec![false; self.num_procs as usize];
        for t in self.tasks() {
            used[t.proc.index()] = true;
        }
        used.into_iter().filter(|&u| u).count() as u32
    }

    /// Per-processor timelines: tasks grouped by processor, each group
    /// sorted by start time (ties by node id). Index = processor id.
    pub fn timelines(&self) -> Vec<Vec<ScheduledTask>> {
        let mut lanes: Vec<Vec<ScheduledTask>> = vec![Vec::new(); self.num_procs as usize];
        for t in self.tasks() {
            lanes[t.proc.index()].push(t);
        }
        for lane in &mut lanes {
            lane.sort_by_key(|t| (t.start, t.node.0));
        }
        lanes
    }

    /// Renumber processors so that used processors occupy a dense
    /// prefix `0..used` in order of first use (first task start time).
    /// Returns the compacted schedule. Algorithms that probe "one new
    /// processor" per step can leave gaps; compaction normalizes the
    /// result for comparison and simulation.
    pub fn compact(&self) -> Schedule {
        let mut out = Schedule::new(0, 1);
        self.compact_into(&mut CompactScratch::default(), &mut out);
        out
    }

    /// [`Schedule::compact`] writing into a caller-owned schedule using
    /// caller-owned scratch. `out` is [`Schedule::reset`] first, so the
    /// result is byte-identical to `compact()` while allocating nothing
    /// at steady state.
    ///
    /// Equivalence: `compact()` orders lanes by `(first task start, old
    /// processor index)`; the first task of a lane sorted by `(start,
    /// node id)` carries the lane's minimum start, which is what this
    /// method computes directly — and the old index makes the sort key
    /// unique, so `sort_unstable` cannot reorder ties differently.
    pub fn compact_into(&self, scratch: &mut CompactScratch, out: &mut Schedule) {
        let np = self.num_procs as usize;
        scratch.min_start.clear();
        scratch.min_start.resize(np, Cost::MAX);
        for t in self.tasks() {
            let slot = &mut scratch.min_start[t.proc.index()];
            if t.start < *slot {
                *slot = t.start;
            }
        }
        scratch.order.clear();
        scratch.order.extend(
            scratch
                .min_start
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s != Cost::MAX)
                .map(|(i, &s)| (s, i)),
        );
        scratch.order.sort_unstable();
        scratch.remap.clear();
        scratch.remap.resize(np, u32::MAX);
        for (new, &(_, old)) in scratch.order.iter().enumerate() {
            scratch.remap[old] = new as u32;
        }
        out.reset(self.num_nodes(), scratch.order.len().max(1) as u32);
        for t in self.tasks() {
            out.place(
                t.node,
                ProcId(scratch.remap[t.proc.index()]),
                t.start,
                t.finish,
            );
        }
    }
}

/// Reusable scratch for [`Schedule::compact_into`]: per-processor
/// minimum start times, the lane ordering, and the processor remap.
/// Cleared between runs, never dropped.
#[derive(Debug, Default)]
pub struct CompactScratch {
    min_start: Vec<Cost>,
    order: Vec<(Cost, usize)>,
    remap: Vec<u32>,
}

impl CompactScratch {
    /// Empty scratch holding no buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_and_query() {
        let mut s = Schedule::new(3, 2);
        s.place(NodeId(0), ProcId(0), 0, 2);
        s.place(NodeId(1), ProcId(1), 1, 4);
        assert_eq!(s.proc_of(NodeId(0)), Some(ProcId(0)));
        assert_eq!(s.start_of(NodeId(1)), Some(1));
        assert_eq!(s.finish_of(NodeId(1)), Some(4));
        assert_eq!(s.task(NodeId(2)), None);
        assert!(!s.is_complete());
        s.place(NodeId(2), ProcId(0), 2, 5);
        assert!(s.is_complete());
    }

    #[test]
    fn makespan_is_max_finish() {
        let mut s = Schedule::new(2, 2);
        assert_eq!(s.makespan(), 0);
        s.place(NodeId(0), ProcId(0), 0, 7);
        s.place(NodeId(1), ProcId(1), 0, 3);
        assert_eq!(s.makespan(), 7);
    }

    #[test]
    fn processors_used_counts_nonempty() {
        let mut s = Schedule::new(2, 4);
        s.place(NodeId(0), ProcId(0), 0, 1);
        s.place(NodeId(1), ProcId(3), 0, 1);
        assert_eq!(s.processors_used(), 2);
        assert_eq!(s.num_procs(), 4);
    }

    #[test]
    fn timelines_sorted_by_start() {
        let mut s = Schedule::new(3, 1);
        s.place(NodeId(2), ProcId(0), 5, 6);
        s.place(NodeId(0), ProcId(0), 0, 2);
        s.place(NodeId(1), ProcId(0), 2, 5);
        let lanes = s.timelines();
        let order: Vec<u32> = lanes[0].iter().map(|t| t.node.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn unplace_removes() {
        let mut s = Schedule::new(1, 1);
        s.place(NodeId(0), ProcId(0), 0, 1);
        s.unplace(NodeId(0));
        assert_eq!(s.task(NodeId(0)), None);
        assert_eq!(s.makespan(), 0);
    }

    #[test]
    fn replacing_a_node_overwrites_old_slot() {
        let mut s = Schedule::new(1, 2);
        s.place(NodeId(0), ProcId(0), 0, 1);
        s.place(NodeId(0), ProcId(1), 5, 6);
        assert_eq!(s.proc_of(NodeId(0)), Some(ProcId(1)));
        assert_eq!(s.timelines()[0].len(), 0);
        assert_eq!(s.timelines()[1].len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn placing_on_unknown_processor_panics() {
        let mut s = Schedule::new(1, 1);
        s.place(NodeId(0), ProcId(1), 0, 1);
    }

    #[test]
    fn compact_into_matches_compact_with_dirty_scratch() {
        let mut scratch = CompactScratch::new();
        let mut out = Schedule::new(0, 1);

        let mut s1 = Schedule::new(3, 8);
        s1.place(NodeId(0), ProcId(5), 0, 1);
        s1.place(NodeId(1), ProcId(2), 3, 4);
        s1.place(NodeId(2), ProcId(5), 1, 2);
        s1.compact_into(&mut scratch, &mut out);
        assert_eq!(out, s1.compact());

        // Reuse the dirty scratch and output on a different shape.
        let mut s2 = Schedule::new(5, 3);
        s2.place(NodeId(0), ProcId(1), 2, 3);
        s2.place(NodeId(3), ProcId(0), 0, 2);
        s2.place(NodeId(4), ProcId(2), 0, 1);
        s2.compact_into(&mut scratch, &mut out);
        assert_eq!(out, s2.compact());

        // And on an empty schedule (no used processors).
        let s3 = Schedule::new(2, 4);
        s3.compact_into(&mut scratch, &mut out);
        assert_eq!(out, s3.compact());
    }

    #[test]
    fn reset_reinitializes_in_place() {
        let mut s = Schedule::new(3, 2);
        s.place(NodeId(0), ProcId(1), 0, 1);
        s.reset(5, 4);
        assert_eq!(s.num_nodes(), 5);
        assert_eq!(s.num_procs(), 4);
        assert!(s.tasks().next().is_none());
    }

    #[test]
    fn compact_renumbers_by_first_use() {
        let mut s = Schedule::new(3, 8);
        s.place(NodeId(0), ProcId(5), 0, 1);
        s.place(NodeId(1), ProcId(2), 3, 4);
        s.place(NodeId(2), ProcId(5), 1, 2);
        let c = s.compact();
        assert_eq!(c.num_procs(), 2);
        assert_eq!(c.proc_of(NodeId(0)), Some(ProcId(0)));
        assert_eq!(c.proc_of(NodeId(2)), Some(ProcId(0)));
        assert_eq!(c.proc_of(NodeId(1)), Some(ProcId(1)));
        assert_eq!(c.makespan(), s.makespan());
    }
}
