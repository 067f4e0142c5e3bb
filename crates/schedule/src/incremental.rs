//! Incremental fixed-order evaluation for local search.
//!
//! FAST's §4.4 prices a node-transfer probe at one full O(v + e)
//! fixed-order replay. Almost all of that replay is wasted: moving one
//! node leaves every position before it untouched, and the change
//! usually dies out a few positions later when start times re-converge
//! with the committed schedule. [`DeltaEvaluator`] exploits this:
//!
//! * it keeps the *committed* schedule (start/finish per node, the
//!   order's position index, per-processor position lists, prefix- and
//!   suffix-maxima of finish times);
//! * [`DeltaEvaluator::probe_transfer`] walks the order from the moved
//!   node's position forward, recomputing a node only when a parent's
//!   finish time changed or its processor's timeline diverged
//!   (dirty-suffix tracking with epoch-stamped marks — no O(v) clears);
//! * the walk stops as soon as no dirty parent marks and no diverged
//!   processors remain ahead; the tail's contribution to the makespan
//!   is read from the committed suffix-maximum in O(1);
//! * a recomputed node whose finish moved scans its successors once,
//!   against their committed starts (no per-edge state is kept);
//! * [`DeltaEvaluator::revert`] undoes the probe from an undo log
//!   (cost proportional to the nodes the probe actually touched, never
//!   more than the probe itself); [`DeltaEvaluator::commit`] accepts
//!   it and rebuilds the O(v) position/maximum caches, and the next
//!   bounded probe rebuilds the critical mask backwards from the
//!   makespan nodes, reading only the critical nodes' pred edges;
//! * [`DeltaEvaluator::probe_transfer_bounded`] with a cutoff at or
//!   below the committed makespan rejects, without any walk, a
//!   transfer of a node that cannot reach a makespan node through
//!   committed-tight constraints (the critical mask,
//!   [`DeltaEvaluator::critical_mask`]): such a move cannot lower any
//!   makespan node's finish, so it cannot improve. Almost every probe
//!   of FAST's hill climb is such a rejection.
//!
//! The probe's start/finish times are **bit-identical** to
//! [`crate::evaluate::evaluate_fixed_order`] on the same order and
//! assignment (the property tests enforce this), so search drivers
//! swap it in without changing a single accept/reject decision.
//! Seeding replays the order once ([`DeltaEvaluator::reset`]) or adopts
//! a placement's finish times ([`DeltaEvaluator::reset_with_finish`]).

use crate::cost::{data_arrival_time_with, CostModel, HomogeneousModel};
use crate::schedule::{ProcId, Schedule};
use fastsched_dag::topo::{is_topological_order, order_positions_into};
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_trace::EvalStats;

/// State of an unresolved probe (between `probe_transfer` and
/// `commit`/`revert`).
#[derive(Debug, Clone, Copy)]
struct Tentative {
    node: NodeId,
    from: ProcId,
    makespan: Cost,
    /// A bounded probe bailed out early: the walk is incomplete, so
    /// the tentative state may only be reverted, never committed.
    aborted: bool,
}

/// Incremental evaluator over a fixed topological order and a mutable
/// node→processor assignment, generic over the [`CostModel`].
///
/// The driver pattern is probe → (commit | revert):
///
/// ```
/// use fastsched_dag::examples::chain;
/// use fastsched_schedule::{DeltaEvaluator, ProcId};
///
/// let dag = chain(3, 5, 2);
/// let order: Vec<_> = dag.topo_order().to_vec();
/// let mut eval = DeltaEvaluator::new(&dag, order, vec![ProcId(0); 3], 2);
/// assert_eq!(eval.makespan(), 15);
/// // Moving the middle node off-processor pays both messages.
/// let probed = eval.probe_transfer(&dag, fastsched_dag::NodeId(1), ProcId(1));
/// assert_eq!(probed, 19);
/// eval.revert(); // not an improvement
/// assert_eq!(eval.makespan(), 15);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaEvaluator<M: CostModel = HomogeneousModel> {
    model: M,
    num_procs: u32,
    order: Vec<NodeId>,
    pos_of: Vec<usize>,
    assignment: Vec<ProcId>,
    start: Vec<Cost>,
    finish: Vec<Cost>,
    makespan: Cost,
    /// Sorted positions (indices into `order`) per processor, for the
    /// committed assignment; only the first `num_procs` lists are live.
    proc_positions: Vec<Vec<usize>>,
    /// The critical mask references committed times, so seeding and
    /// commits invalidate it; it is rebuilt lazily by the first probe
    /// that can prune (which has the `Dag`) or by
    /// [`Self::critical_mask`].
    mask_stale: bool,
    /// Per node: whether it reaches a node finishing at the committed
    /// makespan through committed-tight constraints — a DAG edge
    /// `u → s` with `finish[u] + message == start[s]`, or a processor
    /// edge with `finish[u]` equal to the start of the next node on
    /// `u`'s processor. Reflexive: a makespan node is critical. A
    /// transfer of a node outside this set cannot lower any makespan
    /// node's finish, so a bounded probe whose cutoff is at or below
    /// the makespan rejects it without a walk.
    critical: Vec<bool>,
    /// Work stack of [`Self::rebuild_critical`].
    mask_stack: Vec<NodeId>,
    /// `prefix_max[i]` = max committed finish over positions `< i`.
    prefix_max: Vec<Cost>,
    /// `suffix_max[i]` = max committed finish over positions `>= i`.
    suffix_max: Vec<Cost>,
    /// Probe-local marks, valid when stamped with the current epoch —
    /// bumping the epoch clears them all in O(1).
    epoch: u64,
    node_dirty: Vec<u64>,
    /// For a node stamped dirty this epoch: `true` when a binding
    /// arrival was relaxed and only a full DAT recompute recovers the
    /// start; `false` when every marking arrival *exceeded* the
    /// committed start, so their running max ([`Self::dirty_acc`]) IS
    /// the new arrival max and no predecessor walk is needed.
    dirty_full: Vec<bool>,
    /// Max marking arrival for increase-only dirty nodes (valid when
    /// `node_dirty` carries the current epoch and `dirty_full` is
    /// `false`).
    dirty_acc: Vec<Cost>,
    proc_epoch: Vec<u64>,
    proc_diverged: Vec<bool>,
    proc_ready: Vec<Cost>,
    /// `(node, committed start, committed finish)` per touched node.
    undo: Vec<(NodeId, Cost, Cost)>,
    tentative: Option<Tentative>,
    /// Observability counters (plain increments, always on).
    stats: EvalStats,
}

impl DeltaEvaluator<HomogeneousModel> {
    /// Evaluator over the paper's homogeneous machine model.
    ///
    /// `order` must be a topological order of `dag` covering every
    /// node; `assignment` maps each node to a processor `< num_procs`.
    /// Runs one full O(v + e) evaluation to seed the committed state.
    pub fn new(dag: &Dag, order: Vec<NodeId>, assignment: Vec<ProcId>, num_procs: u32) -> Self {
        Self::with_model(HomogeneousModel, dag, order, assignment, num_procs)
    }

    /// An unseeded evaluator over the homogeneous model, holding no
    /// buffers. It must be [`DeltaEvaluator::reset`] before use; this
    /// is the workspace seed value.
    pub fn empty() -> Self {
        Self::empty_with_model(HomogeneousModel)
    }
}

impl<M: CostModel> DeltaEvaluator<M> {
    /// Evaluator over an explicit [`CostModel`] (heterogeneous speeds,
    /// topology-aware message pricing, ...).
    pub fn with_model(
        model: M,
        dag: &Dag,
        order: Vec<NodeId>,
        assignment: Vec<ProcId>,
        num_procs: u32,
    ) -> Self {
        let mut this = Self::empty_with_model(model);
        this.reset(dag, &order, &assignment, num_procs);
        this
    }

    /// An unseeded evaluator over an explicit model, holding no
    /// buffers; it must be [`DeltaEvaluator::reset`] before use.
    pub fn empty_with_model(model: M) -> Self {
        Self {
            model,
            num_procs: 0,
            order: Vec::new(),
            pos_of: Vec::new(),
            assignment: Vec::new(),
            start: Vec::new(),
            finish: Vec::new(),
            makespan: 0,
            proc_positions: Vec::new(),
            mask_stale: false,
            critical: Vec::new(),
            mask_stack: Vec::new(),
            prefix_max: Vec::new(),
            suffix_max: Vec::new(),
            epoch: 0,
            node_dirty: Vec::new(),
            dirty_full: Vec::new(),
            dirty_acc: Vec::new(),
            proc_epoch: Vec::new(),
            proc_diverged: Vec::new(),
            proc_ready: Vec::new(),
            undo: Vec::new(),
            tentative: None,
            stats: EvalStats::default(),
        }
    }

    /// Re-seed the evaluator in place for a (possibly different) DAG,
    /// order and assignment. Every buffer is cleared and refilled,
    /// never dropped, so repeated resets at a fixed problem shape
    /// allocate nothing; the result is indistinguishable from a fresh
    /// [`DeltaEvaluator::with_model`] construction.
    ///
    /// The epoch counters deliberately survive the reset (they only
    /// ever grow): stale stamps from a previous run can never equal a
    /// future epoch, so the zeroed stamp arrays stay sound.
    pub fn reset(&mut self, dag: &Dag, order: &[NodeId], assignment: &[ProcId], num_procs: u32) {
        self.init(dag, order, assignment, None, num_procs);
    }

    /// [`Self::reset`] adopting `finish` as the committed finish times
    /// instead of replaying the order, so seeding reads no edge. Each
    /// start is `finish - compute_cost`. `finish` must be what the
    /// replay of `(order, assignment)` computes, as with any placement
    /// that appends each node of `order`, in turn, at `max(DAT, ready)`
    /// under this evaluator's model (FAST's §4.2 loop).
    ///
    /// ```
    /// use fastsched_dag::examples::chain;
    /// use fastsched_schedule::{DeltaEvaluator, ProcId};
    ///
    /// let dag = chain(3, 5, 2);
    /// let order: Vec<_> = dag.topo_order().to_vec();
    /// let assignment = vec![ProcId(0); 3];
    /// let mut eval = DeltaEvaluator::empty();
    /// eval.reset_with_finish(&dag, &order, &assignment, &[5, 10, 15], 2);
    /// assert_eq!(eval.makespan(), 15);
    /// assert_eq!(eval.start_times(), &[0, 5, 10]);
    /// assert_eq!(eval.stats().seed_edge_reads, 0);
    /// ```
    pub fn reset_with_finish(
        &mut self,
        dag: &Dag,
        order: &[NodeId],
        assignment: &[ProcId],
        finish: &[Cost],
        num_procs: u32,
    ) {
        self.init(dag, order, assignment, Some(finish), num_procs);
    }

    /// The same evaluator priced by `model`: every buffer (and the
    /// committed state) moves over, nothing is allocated. Lets one
    /// warm evaluator serve runs under different model types; callers
    /// [`Self::reset`] it before probing under the new model.
    pub fn into_model<N: CostModel>(self, model: N) -> DeltaEvaluator<N> {
        DeltaEvaluator {
            model,
            num_procs: self.num_procs,
            order: self.order,
            pos_of: self.pos_of,
            assignment: self.assignment,
            start: self.start,
            finish: self.finish,
            makespan: self.makespan,
            proc_positions: self.proc_positions,
            mask_stale: self.mask_stale,
            critical: self.critical,
            mask_stack: self.mask_stack,
            prefix_max: self.prefix_max,
            suffix_max: self.suffix_max,
            epoch: self.epoch,
            node_dirty: self.node_dirty,
            dirty_full: self.dirty_full,
            dirty_acc: self.dirty_acc,
            proc_epoch: self.proc_epoch,
            proc_diverged: self.proc_diverged,
            proc_ready: self.proc_ready,
            undo: self.undo,
            tentative: self.tentative,
            stats: self.stats,
        }
    }

    /// The cost model pricing every probe.
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Shared seeding path of [`Self::reset`] and
    /// [`Self::reset_with_finish`]: copy `order` and `assignment`, size
    /// every derived buffer (clear + resize, keeping capacity), take
    /// the committed times from the full evaluation or from `finish`,
    /// and rebuild the O(v) caches. The critical mask is left stale
    /// for its first reader.
    fn init(
        &mut self,
        dag: &Dag,
        order: &[NodeId],
        assignment: &[ProcId],
        finish: Option<&[Cost]>,
        num_procs: u32,
    ) {
        self.order.clear();
        self.order.extend_from_slice(order);
        self.assignment.clear();
        self.assignment.extend_from_slice(assignment);
        let v = dag.node_count();
        assert!(num_procs >= 1, "need at least one processor");
        assert_eq!(self.assignment.len(), v, "assignment must cover every node");
        assert!(
            self.assignment
                .iter()
                .all(|p| p.index() < num_procs as usize),
            "assignment references a processor >= num_procs"
        );
        debug_assert!(is_topological_order(dag, &self.order));
        self.num_procs = num_procs;
        let np = num_procs as usize;
        order_positions_into(&self.order, v, &mut self.pos_of);
        self.mask_stale = true;
        self.critical.clear();
        self.critical.resize(v, false);
        self.start.clear();
        self.start.resize(v, 0);
        self.finish.clear();
        self.finish.resize(v, 0);
        self.makespan = 0;
        self.prefix_max.clear();
        self.prefix_max.resize(v + 1, 0);
        self.suffix_max.clear();
        self.suffix_max.resize(v + 1, 0);
        self.node_dirty.clear();
        self.node_dirty.resize(v, 0);
        self.dirty_full.clear();
        self.dirty_full.resize(v, false);
        self.dirty_acc.clear();
        self.dirty_acc.resize(v, 0);
        self.proc_epoch.clear();
        self.proc_epoch.resize(np, 0);
        self.proc_diverged.clear();
        self.proc_diverged.resize(np, false);
        self.proc_ready.clear();
        self.proc_ready.resize(np, 0);
        self.undo.clear();
        self.tentative = None;
        self.stats = EvalStats::default();
        // Lists past `np` are kept (never truncated), so a warm
        // evaluator whose processor count drops and grows again does
        // not reallocate them; every walk is bounded by `num_procs`.
        while self.proc_positions.len() < np {
            self.proc_positions.push(Vec::new());
        }

        match finish {
            Some(finish) => {
                self.finish.copy_from_slice(finish);
                for n in dag.nodes() {
                    let cost = self.model.compute_cost(dag, n, self.assignment[n.index()]);
                    self.start[n.index()] = finish[n.index()] - cost;
                }
                self.makespan = finish.iter().copied().max().unwrap_or(0);
            }
            None => self.full_evaluate(dag),
        }
        self.rebuild_proc_positions();
        self.rebuild_max_caches();
    }

    /// Makespan of the committed schedule.
    #[inline]
    pub fn makespan(&self) -> Cost {
        self.makespan
    }

    /// The committed node→processor assignment.
    #[inline]
    pub fn assignment(&self) -> &[ProcId] {
        &self.assignment
    }

    /// The fixed priority order.
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Committed start time per node.
    #[inline]
    pub fn start_times(&self) -> &[Cost] {
        &self.start
    }

    /// Committed finish time per node.
    #[inline]
    pub fn finish_times(&self) -> &[Cost] {
        &self.finish
    }

    /// Per-node critical mask of the committed schedule: `true` for a
    /// node that reaches a node finishing at the makespan through
    /// committed-tight DAG or processor edges (a makespan node is
    /// critical itself). Rebuilt first when seeding or a commit left
    /// it stale, backwards from the makespan nodes.
    ///
    /// ```
    /// use fastsched_dag::examples::chain;
    /// use fastsched_schedule::{DeltaEvaluator, ProcId};
    ///
    /// // A chain on one processor: every edge is tight.
    /// let dag = chain(3, 5, 2);
    /// let order: Vec<_> = dag.topo_order().to_vec();
    /// let mut eval = DeltaEvaluator::new(&dag, order, vec![ProcId(0); 3], 2);
    /// assert_eq!(eval.critical_mask(&dag), &[true, true, true]);
    /// ```
    ///
    /// Panics if a probe is unresolved.
    pub fn critical_mask(&mut self, dag: &Dag) -> &[bool] {
        assert!(self.tentative.is_none(), "unresolved probe");
        if self.mask_stale {
            self.rebuild_critical(dag);
        }
        &self.critical
    }

    /// Observability counters accumulated so far (probe walks, node
    /// recomputes, edges read by seeding and mask rebuilds).
    ///
    /// ```
    /// use fastsched_dag::examples::paper_figure1;
    /// use fastsched_schedule::evaluate::evaluate_fixed_order;
    /// use fastsched_schedule::{DeltaEvaluator, ProcId};
    ///
    /// let dag = paper_figure1();
    /// let order: Vec<_> = dag.topo_order().to_vec();
    /// let assignment = vec![ProcId(0); dag.node_count()];
    /// let mut eval = DeltaEvaluator::new(&dag, order, assignment, 2);
    /// eval.probe_transfer(&dag, order_node(&dag), ProcId(1));
    /// eval.revert();
    /// assert_eq!(eval.stats().incremental_probes, 1);
    /// assert_eq!(eval.stats().reverts, 1);
    /// # fn order_node(dag: &fastsched_dag::Dag) -> fastsched_dag::NodeId {
    /// #     *dag.topo_order().last().unwrap()
    /// # }
    /// ```
    #[inline]
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Materialize the committed schedule.
    ///
    /// Panics if a probe is unresolved.
    pub fn to_schedule(&self) -> Schedule {
        let mut s = Schedule::new(0, 1);
        self.write_schedule(&mut s);
        s
    }

    /// [`Self::to_schedule`] writing into a caller-owned schedule
    /// (reset in place, zero allocations at steady state).
    ///
    /// Panics if a probe is unresolved.
    pub fn write_schedule(&self, out: &mut Schedule) {
        assert!(self.tentative.is_none(), "unresolved probe");
        out.reset(self.order.len(), self.num_procs);
        for &n in &self.order {
            out.place(
                n,
                self.assignment[n.index()],
                self.start[n.index()],
                self.finish[n.index()],
            );
        }
    }

    /// Tentatively transfer `node` to processor `to` and return the
    /// resulting makespan — bit-identical to a full
    /// [`crate::evaluate::evaluate_fixed_order`] replay of the modified
    /// assignment, but costing only the dirty suffix. The probe must be
    /// resolved with [`Self::commit`] or [`Self::revert`] before the
    /// next one.
    ///
    /// Panics if a probe is already unresolved or `to >= num_procs`.
    pub fn probe_transfer(&mut self, dag: &Dag, node: NodeId, to: ProcId) -> Cost {
        self.probe_walk(dag, node, to, Cost::MAX)
            .expect("an unbounded probe never aborts")
    }

    /// [`Self::probe_transfer`] with a rejection cutoff: returns
    /// `Some(makespan)` — exact, bit-identical to the full replay —
    /// when the probed makespan is `< cutoff`, and `None` as soon as
    /// the walk proves it would be `>= cutoff`. The makespan of the
    /// evolving suffix only grows as the walk advances, so the bail-out
    /// is sound; greedy drivers that reject any non-improving move pass
    /// their current best as `cutoff` and skip the (often dominant)
    /// tail of doomed probes without changing a single decision.
    ///
    /// With `cutoff` at or below the committed makespan, a probe whose
    /// moved node is not critical ([`Self::critical_mask`]) returns
    /// `None` before any walk. Under a fixed order a transfer changes
    /// only the node's own compute and message costs, its old
    /// processor successor's ready time, and ready times on its new
    /// processor — which can only grow. A start falls only when all of
    /// its binding constraints fall, so every node whose finish falls
    /// is reachable from the moved node through committed-tight edges;
    /// if no makespan node is, the makespan cannot fall below `cutoff`.
    ///
    /// An aborted (`None`) probe left the walk incomplete: it must be
    /// resolved with [`Self::revert`] — [`Self::commit`] panics.
    ///
    /// Panics if a probe is already unresolved or `to >= num_procs`.
    pub fn probe_transfer_bounded(
        &mut self,
        dag: &Dag,
        node: NodeId,
        to: ProcId,
        cutoff: Cost,
    ) -> Option<Cost> {
        self.probe_walk(dag, node, to, cutoff)
    }

    fn probe_walk(&mut self, dag: &Dag, node: NodeId, to: ProcId, cutoff: Cost) -> Option<Cost> {
        assert!(
            self.tentative.is_none(),
            "unresolved probe: call commit() or revert() first"
        );
        assert!(
            to.index() < self.num_procs as usize,
            "processor out of range"
        );
        self.stats.on_probe();
        let from = self.assignment[node.index()];
        // Critical-cone pruning: a node off the critical mask cannot
        // make any makespan node finish earlier, so the probe cannot
        // beat a cutoff at or below the makespan. Only such a probe
        // reads the mask, so unbounded drivers never rebuild it.
        let prunable = from != to && cutoff <= self.makespan;
        if prunable && self.mask_stale {
            self.rebuild_critical(dag);
        }
        let pruned = prunable && !self.critical[node.index()];
        if from == to || pruned {
            // Resolved without a walk: the committed times stand, and
            // commit/revert stay uniform for the driver.
            if pruned {
                self.stats.on_probe_pruned();
            }
            self.undo.clear();
            let aborted = self.makespan >= cutoff;
            if aborted {
                self.stats.on_probe_aborted();
            }
            self.tentative = Some(Tentative {
                node,
                from,
                makespan: self.makespan,
                aborted,
            });
            return if aborted { None } else { Some(self.makespan) };
        }

        self.epoch += 1;
        self.undo.clear();
        let k = self.pos_of[node.index()];
        self.assignment[node.index()] = to;

        let v = self.order.len();
        // Outstanding dirty-parent marks ahead of the walk cursor.
        let mut pending = 0usize;
        // Diverged processors that still have committed positions ahead.
        let mut live_procs = 0usize;

        self.node_dirty[node.index()] = self.epoch;
        self.dirty_full[node.index()] = true;
        pending += 1;
        // The old processor's timeline diverges at `k` (the moved node
        // left it); its tentative ready time is the finish of its last
        // node before `k`. The new processor needs no pre-mark: the
        // moved node itself is recomputed at `k` and marks it then, and
        // until then its committed fallback ready time is still valid.
        let from_ready = self.committed_ready_before(from, k, node);
        self.mark_proc(from, true, from_ready, k, &mut live_procs);

        let mut running_max = self.prefix_max[k];
        let mut exited_at = None;
        for i in k..v {
            self.stats.on_node_walked();
            let m = self.order[i];
            let mi = m.index();
            let q = self.assignment[mi];
            let qi = q.index();
            let q_diverged = self.proc_epoch[qi] == self.epoch && self.proc_diverged[qi];
            let m_dirty = self.node_dirty[mi] == self.epoch;
            if !q_diverged && !m_dirty {
                // Clean node: committed times stand.
                if self.finish[mi] > running_max {
                    running_max = self.finish[mi];
                }
            } else {
                self.stats.on_node_recomputed();
                if m_dirty {
                    pending -= 1;
                }
                let ready = if q_diverged {
                    self.proc_ready[qi]
                } else {
                    self.committed_ready_before(q, i, node)
                };
                // `start[mi]` is still the committed start: the walk
                // visits each position once, in order.
                let s_c = self.start[mi];
                let s = if m_dirty && !self.dirty_full[mi] {
                    // Increase-only marks: every marking arrival
                    // exceeds `s_c`, every other arrival is <= `s_c`,
                    // so the arrival max is exactly the accumulated
                    // marking max.
                    self.dirty_acc[mi].max(ready)
                } else if !m_dirty && ready >= s_c {
                    // Unmarked node on a diverged timeline: all its
                    // arrivals are <= `s_c` (else the edge tests would
                    // have marked it), so a ready time at or above
                    // `s_c` dominates outright.
                    ready
                } else {
                    self.stats.probe_pred_reads += dag.in_degree(m) as u64;
                    let dat = data_arrival_time_with(
                        &self.model,
                        dag,
                        m,
                        q,
                        &self.finish,
                        &self.assignment,
                    );
                    dat.max(ready)
                };
                let f = s + self.model.compute_cost(dag, m, q);
                let old_f = self.finish[mi];
                let changed = f != old_f;
                if changed || s != self.start[mi] {
                    self.undo.push((m, self.start[mi], old_f));
                    self.start[mi] = s;
                    self.finish[mi] = f;
                }
                // Successors see a different input when the finish time
                // moved — or, for the transferred node itself, when the
                // message origin moved even at an unchanged finish. A
                // successor `s` (still untouched: it sits after `i` in
                // the order) only needs a recompute when this edge's
                // arrival time actually disturbs its committed start
                // `s_c = max(ready, arrivals)`: either the new arrival
                // exceeds `s_c` (the start must grow), or the old
                // arrival equaled `s_c` (the binding constraint was
                // relaxed and the start may shrink). Any other arrival
                // change is absorbed by the max — skipping the mark
                // there is what keeps the dirty set near the real
                // dependency cone instead of the full fan-out.
                if m == node {
                    // The transferred node always re-tests every out
                    // edge: the message origin moved even at an
                    // unchanged finish.
                    let succs = dag.succs(m);
                    self.stats.walk_succ_reads += succs.len() as u64;
                    for e in succs {
                        let si = e.node.index();
                        let sq = self.assignment[si];
                        let a_old = old_f + self.model.message_cost(e.cost, from, sq);
                        let a_new = f + self.model.message_cost(e.cost, q, sq);
                        self.apply_mark(si, a_old, a_new, &mut pending);
                    }
                } else if changed {
                    // An unmoved node's edges keep their committed
                    // prices (its processor and its successors' are
                    // unchanged), and each successor still holds its
                    // committed start, so the edge's committed slack
                    // `start[s] - msg` is read directly. An edge needs
                    // attention only when the new finish exceeds its
                    // slack (arrival increase) or the old finish
                    // equals it (binding relaxed).
                    let succs = dag.succs(m);
                    self.stats.walk_succ_reads += succs.len() as u64;
                    for e in succs {
                        let si = e.node.index();
                        let sq = self.assignment[si];
                        // A co-located successor needs no mark: its
                        // local arrival (message cost zero) is always
                        // covered by this processor's ready chain,
                        // which the divergence tracking re-evaluates
                        // exactly.
                        if sq == q {
                            continue;
                        }
                        let msg = self.model.message_cost(e.cost, q, sq);
                        let slack = self.start[si] - msg;
                        if f <= slack && old_f < slack {
                            continue;
                        }
                        self.apply_mark(si, old_f + msg, f + msg, &mut pending);
                    }
                }
                // The processor timeline re-converges with the
                // committed one exactly when this (non-transferred)
                // node's finish is unchanged.
                let diverged = changed || m == node;
                self.mark_proc(q, diverged, f, i, &mut live_procs);
                if f > running_max {
                    running_max = f;
                }
            }
            if running_max >= cutoff {
                // The final makespan can only be >= the running max:
                // the probe is already doomed, stop evaluating.
                self.stats.on_probe_aborted();
                self.tentative = Some(Tentative {
                    node,
                    from,
                    makespan: running_max,
                    aborted: true,
                });
                return None;
            }
            if pending == 0 && live_procs == 0 {
                exited_at = Some(i);
                break;
            }
        }
        let makespan = match exited_at {
            Some(i) => running_max.max(self.suffix_max[i + 1]),
            None => running_max,
        };
        let aborted = makespan >= cutoff;
        if aborted {
            self.stats.on_probe_aborted();
        }
        self.tentative = Some(Tentative {
            node,
            from,
            makespan,
            aborted,
        });
        if aborted {
            None
        } else {
            Some(makespan)
        }
    }

    /// Accept the pending probe: its times become the committed state.
    /// O(v) — the position lists and prefix/suffix maxima are rebuilt.
    ///
    /// Panics if no probe is pending, or if the pending probe was a
    /// bounded one that aborted (its walk is incomplete).
    pub fn commit(&mut self) {
        let t = self
            .tentative
            .take()
            .expect("commit without a pending probe");
        assert!(
            !t.aborted,
            "cannot commit an aborted bounded probe: call revert()"
        );
        let to = self.assignment[t.node.index()];
        if t.from != to {
            let k = self.pos_of[t.node.index()];
            let from_list = &mut self.proc_positions[t.from.index()];
            let idx = from_list
                .binary_search(&k)
                .expect("moved node tracked on its old processor");
            from_list.remove(idx);
            let to_list = &mut self.proc_positions[to.index()];
            let idx = to_list
                .binary_search(&k)
                .expect_err("moved node cannot already be on the target");
            to_list.insert(idx, k);
            self.makespan = t.makespan;
            self.rebuild_max_caches();
            self.mask_stale = true;
        }
        self.stats.on_commit();
        self.undo.clear();
    }

    /// Reject the pending probe: restore every touched start/finish
    /// time from the undo log. Cost proportional to the nodes the
    /// probe recomputed.
    ///
    /// Panics if no probe is pending.
    pub fn revert(&mut self) {
        let t = self
            .tentative
            .take()
            .expect("revert without a pending probe");
        self.assignment[t.node.index()] = t.from;
        self.stats.on_revert();
        for i in (0..self.undo.len()).rev() {
            let (n, s, f) = self.undo[i];
            self.start[n.index()] = s;
            self.finish[n.index()] = f;
        }
        self.undo.clear();
    }

    /// Seed start/finish/makespan with one full evaluation. Uses
    /// `self.proc_ready` as the per-processor ready buffer (it is probe
    /// scratch, dead outside a probe walk) so seeding allocates
    /// nothing.
    fn full_evaluate(&mut self, dag: &Dag) {
        self.stats.on_full_eval();
        self.proc_ready.iter_mut().for_each(|r| *r = 0);
        self.stats.seed_edge_reads += dag.edge_count() as u64;
        let mut makespan = 0;
        for i in 0..self.order.len() {
            let n = self.order[i];
            let q = self.assignment[n.index()];
            let dat =
                data_arrival_time_with(&self.model, dag, n, q, &self.finish, &self.assignment);
            let s = dat.max(self.proc_ready[q.index()]);
            let f = s + self.model.compute_cost(dag, n, q);
            self.start[n.index()] = s;
            self.finish[n.index()] = f;
            self.proc_ready[q.index()] = f;
            if f > makespan {
                makespan = f;
            }
        }
        self.makespan = makespan;
    }

    fn rebuild_proc_positions(&mut self) {
        for list in &mut self.proc_positions[..self.num_procs as usize] {
            list.clear();
        }
        for (i, &n) in self.order.iter().enumerate() {
            self.proc_positions[self.assignment[n.index()].index()].push(i);
        }
    }

    fn rebuild_max_caches(&mut self) {
        let v = self.order.len();
        for i in 0..v {
            let f = self.finish[self.order[i].index()];
            self.prefix_max[i + 1] = self.prefix_max[i].max(f);
        }
        for i in (0..v).rev() {
            let f = self.finish[self.order[i].index()];
            self.suffix_max[i] = self.suffix_max[i + 1].max(f);
        }
    }

    /// Test one changed arrival against the successor's committed
    /// start and mark it dirty if the change can disturb it. The
    /// successor is untouched (it sits after the walk cursor), so
    /// `start[si]` is its committed value and `a_old <= start[si]`
    /// holds by feasibility.
    #[inline]
    fn apply_mark(&mut self, si: usize, a_old: Cost, a_new: Cost, pending: &mut usize) {
        self.stats.on_edge_mark();
        let succ_start = self.start[si];
        if a_new > succ_start {
            // Increase mark: this arrival alone forces the successor's
            // start above its committed value; accumulate the max. An
            // increase mark dominates any relaxed binding (every other
            // arrival is <= the committed start, below the accumulated
            // max), so it downgrades an earlier full mark.
            if self.node_dirty[si] != self.epoch {
                self.node_dirty[si] = self.epoch;
                self.dirty_full[si] = false;
                self.dirty_acc[si] = a_new;
                *pending += 1;
            } else if self.dirty_full[si] {
                self.dirty_full[si] = false;
                self.dirty_acc[si] = a_new;
            } else if a_new > self.dirty_acc[si] {
                self.dirty_acc[si] = a_new;
            }
        } else if a_old == succ_start && self.node_dirty[si] != self.epoch {
            // The binding arrival was relaxed: the start may shrink,
            // and only a full DAT recompute can tell by how much. (On
            // an already-marked node this is moot: a full mark subsumes
            // it, an increase mark dominates it.)
            self.node_dirty[si] = self.epoch;
            self.dirty_full[si] = true;
            *pending += 1;
        }
    }

    /// Recompute the critical mask from the committed schedule,
    /// backwards from the makespan: the least set that holds every
    /// node finishing at the makespan and every node with a tight edge
    /// into a member. A stack seeded with the makespan nodes pops each
    /// critical node `s` once and marks its processor predecessor `u`
    /// (the node before it on its processor) when
    /// `finish[u] == start[s]`, and each DAG parent `u` when
    /// `finish[u] + msg == start[s]`. So only the critical nodes' preds
    /// are read, not every edge. A committed arrival is feasible
    /// (`finish[u] + msg <= start[s]`), so the subtraction cannot
    /// underflow.
    fn rebuild_critical(&mut self, dag: &Dag) {
        self.stats.on_mask_rebuild();
        let stack = &mut self.mask_stack;
        stack.clear();
        for (i, c) in self.critical.iter_mut().enumerate() {
            *c = self.finish[i] == self.makespan;
            if *c {
                stack.push(NodeId(i as u32));
            }
        }
        let mut reads = 0u64;
        while let Some(s) = stack.pop() {
            let si = s.index();
            let (q, start) = (self.assignment[si], self.start[si]);
            let list = &self.proc_positions[q.index()];
            let idx = list.partition_point(|&p| p < self.pos_of[si]);
            if idx > 0 {
                let u = self.order[list[idx - 1]].index();
                if !self.critical[u] && self.finish[u] == start {
                    self.critical[u] = true;
                    stack.push(NodeId(u as u32));
                }
            }
            let (parents, costs) = dag.pred_lanes(s);
            reads += parents.len() as u64;
            for (&u, &c) in parents.iter().zip(costs) {
                let u = u as usize;
                if !self.critical[u]
                    && start - self.model.message_cost(c, self.assignment[u], q) == self.finish[u]
                {
                    self.critical[u] = true;
                    stack.push(NodeId(u as u32));
                }
            }
        }
        self.stats.seed_edge_reads += reads;
        self.mask_stale = false;
    }

    /// Committed ready time of `q` just before position `i`: the
    /// committed finish of the last node on `q` at a position `< i`,
    /// skipping the transferred node (it is no longer on its committed
    /// processor during a probe).
    ///
    /// Sound during a probe even though `finish` holds tentative
    /// values: a recomputed node either re-converged (finish unchanged)
    /// or left its processor diverged, in which case the walk reads
    /// `proc_ready` instead of this fallback.
    fn committed_ready_before(&self, q: ProcId, i: usize, moved: NodeId) -> Cost {
        let list = &self.proc_positions[q.index()];
        let mut idx = list.partition_point(|&p| p < i);
        while idx > 0 {
            let n = self.order[list[idx - 1]];
            if n == moved {
                idx -= 1;
                continue;
            }
            return self.finish[n.index()];
        }
        0
    }

    /// Record the tentative state of processor `q` after the walk
    /// processed position `after`. A diverged processor counts toward
    /// the early-exit condition only while it still has committed
    /// positions ahead — a divergence nothing downstream can observe
    /// is dropped immediately.
    fn mark_proc(
        &mut self,
        q: ProcId,
        diverged: bool,
        ready: Cost,
        after: usize,
        live: &mut usize,
    ) {
        let qi = q.index();
        let was = self.proc_epoch[qi] == self.epoch && self.proc_diverged[qi];
        let now = diverged && self.proc_positions[qi].last().is_some_and(|&p| p > after);
        self.proc_epoch[qi] = self.epoch;
        self.proc_diverged[qi] = now;
        self.proc_ready[qi] = ready;
        match (was, now) {
            (false, true) => *live += 1,
            (true, false) => *live -= 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ProcessorSpeeds;
    use crate::evaluate::{evaluate_fixed_order, evaluate_fixed_order_with};
    use fastsched_dag::examples::{fork_join, paper_figure1};
    use fastsched_dag::DagBuilder;

    /// a(2) →4→ b(3); a →1→ c(5); b,c → d(1) with costs 2, 1.
    fn sample() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_task(2);
        let nb = b.add_task(3);
        let nc = b.add_task(5);
        let nd = b.add_task(1);
        b.add_edge(a, nb, 4).unwrap();
        b.add_edge(a, nc, 1).unwrap();
        b.add_edge(nb, nd, 2).unwrap();
        b.add_edge(nc, nd, 1).unwrap();
        b.build().unwrap()
    }

    fn assert_matches_full(dag: &Dag, eval: &DeltaEvaluator, num_procs: u32) {
        let full = evaluate_fixed_order(dag, eval.order(), eval.assignment(), num_procs);
        assert_eq!(eval.makespan(), full.makespan(), "makespan");
        for n in dag.nodes() {
            assert_eq!(
                eval.start_times()[n.index()],
                full.start_of(n).unwrap(),
                "start of {n:?}"
            );
            assert_eq!(
                eval.finish_times()[n.index()],
                full.task(n).unwrap().finish,
                "finish of {n:?}"
            );
        }
    }

    #[test]
    fn seeding_matches_full_evaluation() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment = vec![ProcId(0), ProcId(0), ProcId(1), ProcId(0)];
        let eval = DeltaEvaluator::new(&g, order, assignment, 2);
        assert_eq!(eval.makespan(), 10);
        assert_matches_full(&g, &eval, 2);
    }

    #[test]
    fn probe_commit_matches_full_replay() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let mut eval = DeltaEvaluator::new(&g, order.clone(), vec![ProcId(0); 4], 3);
        // Move c to P1 (as in the evaluate.rs tests).
        let m = eval.probe_transfer(&g, NodeId(2), ProcId(1));
        let mut assignment = vec![ProcId(0); 4];
        assignment[2] = ProcId(1);
        let full = evaluate_fixed_order(&g, &order, &assignment, 3);
        assert_eq!(m, full.makespan());
        eval.commit();
        assert_matches_full(&g, &eval, 3);
    }

    #[test]
    fn revert_restores_committed_state() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment = vec![ProcId(0), ProcId(1), ProcId(0), ProcId(1)];
        let mut eval = DeltaEvaluator::new(&g, order, assignment.clone(), 2);
        let before_start = eval.start_times().to_vec();
        let before_finish = eval.finish_times().to_vec();
        let before_makespan = eval.makespan();
        eval.probe_transfer(&g, NodeId(1), ProcId(0));
        eval.revert();
        assert_eq!(eval.assignment(), &assignment[..]);
        assert_eq!(eval.start_times(), &before_start[..]);
        assert_eq!(eval.finish_times(), &before_finish[..]);
        assert_eq!(eval.makespan(), before_makespan);
        assert_matches_full(&g, &eval, 2);
    }

    #[test]
    fn same_processor_probe_is_a_no_op() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let mut eval = DeltaEvaluator::new(&g, order, vec![ProcId(0); 4], 2);
        let m = eval.probe_transfer(&g, NodeId(1), ProcId(0));
        assert_eq!(m, eval.makespan());
        eval.commit();
        assert_matches_full(&g, &eval, 2);
    }

    #[test]
    #[should_panic(expected = "unresolved probe")]
    fn unresolved_probe_rejects_a_second_probe() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let mut eval = DeltaEvaluator::new(&g, order, vec![ProcId(0); 4], 2);
        eval.probe_transfer(&g, NodeId(1), ProcId(1));
        eval.probe_transfer(&g, NodeId(2), ProcId(1));
    }

    #[test]
    fn random_walk_on_figure1_stays_bit_identical() {
        // Deterministic pseudo-random probe sequence (splitmix-style)
        // over the paper's example; every probe and resolution is
        // cross-checked against the full evaluator.
        let g = paper_figure1();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let procs = 4u32;
        let assignment: Vec<ProcId> = g.nodes().map(|n| ProcId(n.0 % procs)).collect();
        let mut eval = DeltaEvaluator::new(&g, order.clone(), assignment.clone(), procs);
        let mut shadow = assignment;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for step in 0..200 {
            let n = NodeId((next() % g.node_count()) as u32);
            let p = ProcId((next() % procs as usize) as u32);
            let old = shadow[n.index()];
            shadow[n.index()] = p;
            let expect = evaluate_fixed_order(&g, &order, &shadow, procs).makespan();
            let got = eval.probe_transfer(&g, n, p);
            assert_eq!(got, expect, "probe {step}: {n:?} -> {p:?}");
            if next() % 2 == 0 {
                eval.commit();
            } else {
                eval.revert();
                shadow[n.index()] = old;
            }
            assert_eq!(eval.assignment(), &shadow[..], "state after step {step}");
            assert_matches_full(&g, &eval, procs);
        }
    }

    #[test]
    fn to_schedule_round_trips() {
        let g = fork_join(5, 3, 7);
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment: Vec<ProcId> = g.nodes().map(|n| ProcId(n.0 % 3)).collect();
        let eval = DeltaEvaluator::new(&g, order.clone(), assignment.clone(), 3);
        let s = eval.to_schedule();
        let full = evaluate_fixed_order(&g, &order, &assignment, 3);
        assert_eq!(s.makespan(), full.makespan());
        for n in g.nodes() {
            assert_eq!(s.task(n), full.task(n));
        }
    }

    #[test]
    fn reset_matches_fresh_construction_across_shapes() {
        // One evaluator reused (dirty) across two different DAGs and
        // processor counts must behave exactly like fresh builds.
        let g1 = paper_figure1();
        let g2 = fork_join(5, 3, 7);
        let mut eval = DeltaEvaluator::empty();
        for (g, procs) in [(&g1, 4u32), (&g2, 3u32), (&g1, 2u32)] {
            let order: Vec<NodeId> = g.topo_order().to_vec();
            let assignment: Vec<ProcId> = g.nodes().map(|n| ProcId(n.0 % procs)).collect();
            eval.reset(g, &order, &assignment, procs);
            let fresh = DeltaEvaluator::new(g, order.clone(), assignment.clone(), procs);
            assert_eq!(eval.makespan(), fresh.makespan());
            assert_matches_full(g, &eval, procs);
            // Dirty the probe state before the next reset.
            let n = *order.last().unwrap();
            let p = ProcId((assignment[n.index()].0 + 1) % procs);
            let mut shadow = assignment.clone();
            shadow[n.index()] = p;
            let expect = evaluate_fixed_order(g, &order, &shadow, procs).makespan();
            assert_eq!(eval.probe_transfer(g, n, p), expect);
            eval.commit();
            assert_matches_full(g, &eval, procs);
        }
    }

    #[test]
    fn write_schedule_matches_to_schedule() {
        let g = fork_join(4, 2, 3);
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment: Vec<ProcId> = g.nodes().map(|n| ProcId(n.0 % 2)).collect();
        let eval = DeltaEvaluator::new(&g, order, assignment, 2);
        let mut out = Schedule::new(0, 1);
        eval.write_schedule(&mut out);
        assert_eq!(out, eval.to_schedule());
    }

    #[test]
    fn bounded_probe_matches_exact_and_reverts_cleanly() {
        let g = fork_join(6, 4, 5);
        let procs = 4u32;
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment: Vec<ProcId> = g.nodes().map(|n| ProcId(n.0 % procs)).collect();
        let mut eval = DeltaEvaluator::new(&g, order.clone(), assignment.clone(), procs);
        let mut shadow = assignment;
        let mut state = 0xD1CE5EEDu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for step in 0..150 {
            let n = NodeId((next() % g.node_count()) as u32);
            let p = ProcId((next() % procs as usize) as u32);
            let old = shadow[n.index()];
            shadow[n.index()] = p;
            let exact = evaluate_fixed_order(&g, &order, &shadow, procs).makespan();
            // Cutoff above, at and below the exact makespan: the probe
            // must return Some(exact) iff exact < cutoff, never a
            // different value.
            let cutoff = match step % 3 {
                0 => exact + 1,
                1 => exact,
                _ => exact.saturating_sub(1),
            };
            match eval.probe_transfer_bounded(&g, n, p, cutoff) {
                Some(m) => {
                    assert_eq!(m, exact, "step {step}");
                    assert!(m < cutoff, "step {step}");
                    eval.revert();
                }
                None => {
                    assert!(exact >= cutoff, "step {step}: spurious abort");
                    eval.revert();
                }
            }
            shadow[n.index()] = old;
            // Revert must restore the committed state exactly, whether
            // the probe completed or aborted mid-walk.
            assert_eq!(eval.assignment(), &shadow[..], "state after step {step}");
            assert_matches_full(&g, &eval, procs);
            // An aborted probe must refuse commit; an accepted one is
            // exercised occasionally to keep the walk state honest.
            if step % 7 == 0 {
                shadow[n.index()] = p;
                let exact = evaluate_fixed_order(&g, &order, &shadow, procs).makespan();
                let m = eval
                    .probe_transfer_bounded(&g, n, p, Cost::MAX)
                    .expect("unbounded cutoff never aborts");
                assert_eq!(m, exact);
                eval.commit();
                assert_matches_full(&g, &eval, procs);
            }
        }
    }

    #[test]
    fn a_moved_node_on_the_critical_path_is_never_pruned() {
        // a→b is the only slow edge: a(0–2) on P0, b(6–9) on P1,
        // c(2–7) and d(11–12) on P0. d finishes at the makespan; b→d
        // and a→b are tight, c→d is not, and c finishes before d
        // starts, so a, b, d are critical and c is not.
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment = vec![ProcId(0), ProcId(1), ProcId(0), ProcId(0)];
        let mut eval = DeltaEvaluator::new(&g, order.clone(), assignment.clone(), 2);
        assert_eq!(eval.makespan(), 12);
        assert_eq!(eval.critical_mask(&g), &[true, true, false, true]);
        // Moving b next to its parent is the improvement a hill climb
        // looks for: it must be walked, not pruned.
        assert_eq!(
            eval.probe_transfer_bounded(&g, NodeId(1), ProcId(0), 12),
            Some(11)
        );
        eval.revert();
        assert_eq!(eval.stats().probes_pruned, 0);
        // c is off the critical cone: rejected without a walk, and the
        // full replay agrees the move cannot improve.
        let walked = eval.stats().dirty_nodes_visited;
        assert_eq!(
            eval.probe_transfer_bounded(&g, NodeId(2), ProcId(1), 12),
            None
        );
        eval.revert();
        assert_eq!(eval.stats().probes_pruned, 1);
        assert_eq!(eval.stats().dirty_nodes_visited, walked);
        let mut moved = assignment.clone();
        moved[2] = ProcId(1);
        let exact = evaluate_fixed_order(&g, &order, &moved, 2).makespan();
        assert!(exact >= 12);
        // A cutoff above the makespan asks for the exact value of a
        // non-improving probe, so it is never pruned.
        let cutoff = exact + 1;
        assert_eq!(
            eval.probe_transfer_bounded(&g, NodeId(2), ProcId(1), cutoff),
            Some(exact)
        );
        eval.revert();
        assert_eq!(eval.stats().probes_pruned, 1);
        assert_matches_full(&g, &eval, 2);
    }

    #[test]
    fn a_node_with_a_tight_critical_processor_successor_is_never_pruned() {
        // Three independent nodes: a(5) then b(3) on P0, c(1) on P1.
        // a reaches the makespan node b only through the processor
        // edge a→b (a finishes when b starts).
        let mut b = DagBuilder::new();
        for w in [5, 3, 1] {
            b.add_task(w);
        }
        let g = b.build().unwrap();
        let order = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut eval = DeltaEvaluator::new(&g, order, vec![ProcId(0), ProcId(0), ProcId(1)], 2);
        assert_eq!(eval.makespan(), 8);
        assert_eq!(eval.critical_mask(&g), &[true, true, false]);
        assert_eq!(
            eval.probe_transfer_bounded(&g, NodeId(0), ProcId(1), 8),
            Some(6)
        );
        eval.revert();
        assert_eq!(eval.stats().probes_pruned, 0);
        assert_eq!(
            eval.probe_transfer_bounded(&g, NodeId(2), ProcId(0), 8),
            None
        );
        eval.revert();
        assert_eq!(eval.stats().probes_pruned, 1);
        // After the improving move commits, the mask is rebuilt for
        // the new schedule: a(0–5) and c(5–6) on P1, b(0–3) on P0.
        assert_eq!(
            eval.probe_transfer_bounded(&g, NodeId(0), ProcId(1), 8),
            Some(6)
        );
        eval.commit();
        assert_eq!(eval.critical_mask(&g), &[true, false, true]);
    }

    #[test]
    fn heterogeneous_model_probes_match_generic_replay() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let speeds = ProcessorSpeeds::new(vec![100, 200, 50]);
        let mut eval =
            DeltaEvaluator::with_model(speeds.clone(), &g, order.clone(), vec![ProcId(0); 4], 3);
        for (n, p) in [
            (NodeId(2), ProcId(1)),
            (NodeId(1), ProcId(2)),
            (NodeId(3), ProcId(1)),
        ] {
            let mut shadow = eval.assignment().to_vec();
            shadow[n.index()] = p;
            let expect = evaluate_fixed_order_with(&speeds, &g, &order, &shadow, 3).makespan();
            let got = eval.probe_transfer(&g, n, p);
            assert_eq!(got, expect);
            eval.commit();
        }
    }
}
