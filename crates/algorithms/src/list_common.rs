//! Shared machinery for the list-scheduling family: the placement
//! state ([`ListState`]) and DAT lanes ([`DatLanes`]) every model core
//! places through, ready-set tracking, earliest-start-time probing
//! (both the paper's ready-time/no-insertion policy and the insertion
//! policy used by MCP/HEFT), and static-list execution.

use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::{data_arrival_time_with, CostModel, HomogeneousModel, ProcId, Schedule};

/// Mutable list-scheduling state shared by every list-scheduling
/// core: per-processor timelines and resident footprints plus
/// per-node placement, cheaper to probe than re-deriving from
/// [`Schedule`].
pub struct ListState {
    /// Per-processor ordered slots `(start, finish, node)`. Only the
    /// first `num_procs` lanes are live; lanes of a wider earlier run
    /// are kept as buffers.
    lanes: Vec<Vec<(Cost, Cost, NodeId)>>,
    /// Per processor: the finish of its lane's last slot (0 when
    /// empty), so a ready-time read is one flat load.
    ready: Vec<Cost>,
    num_procs: u32,
    /// Resident footprint per processor: the saturating sum of
    /// [`Dag::mem`] over the nodes placed there.
    mem: Vec<Cost>,
    /// Finish time per placed node (0 = unplaced; query `placed`).
    pub finish: Vec<Cost>,
    /// Processor per placed node.
    pub proc: Vec<ProcId>,
    /// Whether each node has been placed.
    pub placed: Vec<bool>,
}

impl ListState {
    /// Empty state with `num_procs` processors for `num_nodes` tasks.
    pub fn new(num_nodes: usize, num_procs: u32) -> Self {
        let mut m = Self {
            lanes: Vec::new(),
            ready: Vec::new(),
            num_procs: 0,
            mem: Vec::new(),
            finish: Vec::new(),
            proc: Vec::new(),
            placed: Vec::new(),
        };
        m.reset(num_nodes, num_procs);
        m
    }

    /// Re-initialize the state in place for a (possibly different)
    /// problem shape. Lanes and per-node arrays are cleared, never
    /// dropped — not even the lanes past a smaller `num_procs` — so a
    /// reused state allocates nothing once every buffer has reached
    /// its peak size.
    pub fn reset(&mut self, num_nodes: usize, num_procs: u32) {
        let np = num_procs as usize;
        for lane in self.lanes.iter_mut().take(np) {
            lane.clear();
        }
        while self.lanes.len() < np {
            self.lanes.push(Vec::new());
        }
        self.num_procs = num_procs;
        self.ready.clear();
        self.ready.resize(np, 0);
        self.mem.clear();
        self.mem.resize(np, 0);
        self.finish.clear();
        self.finish.resize(num_nodes, 0);
        self.proc.clear();
        self.proc.resize(num_nodes, ProcId(0));
        self.placed.clear();
        self.placed.resize(num_nodes, false);
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> u32 {
        self.num_procs
    }

    /// Ready time of a processor: finish of its last task.
    #[inline]
    pub fn ready_time(&self, p: ProcId) -> Cost {
        debug_assert!(p.0 < self.num_procs);
        self.ready[p.index()]
    }

    /// Whether `p` can take a footprint of `need` on top of what is
    /// resident there under `model`'s capacity (always, for an
    /// unbounded processor). The one capacity check of the model
    /// cores.
    #[inline]
    pub fn fits<M: CostModel + ?Sized>(&self, model: &M, p: ProcId, need: Cost) -> bool {
        model
            .capacity(p)
            .is_none_or(|cap| self.mem[p.index()].saturating_add(need) <= cap)
    }

    /// Move a footprint of `need` from `from`'s resident sum to
    /// `to`'s, for a search that transfers a placed node.
    pub fn move_footprint(&mut self, from: ProcId, to: ProcId, need: Cost) {
        self.mem[from.index()] -= need;
        self.mem[to.index()] = self.mem[to.index()].saturating_add(need);
    }

    /// Data arrival time of `n` on `p` given current placements,
    /// delegating to the workspace-wide DAT primitive under the
    /// homogeneous model. All parents must already be placed.
    pub fn data_arrival_time(&self, dag: &Dag, n: NodeId, p: ProcId) -> Cost {
        debug_assert!(
            dag.preds(n).iter().all(|e| self.placed[e.node.index()]),
            "parent must be placed"
        );
        data_arrival_time_with(&HomogeneousModel, dag, n, p, &self.finish, &self.proc)
    }

    /// Earliest start of `n` on `p` under the *no-insertion* policy of
    /// the paper (§4.2): `max(ready_time(p), DAT(n, p))`.
    pub fn earliest_start_append(&self, dag: &Dag, n: NodeId, p: ProcId) -> Cost {
        self.data_arrival_time(dag, n, p).max(self.ready_time(p))
    }

    /// Earliest start of `n` on `p` under the *insertion* policy:
    /// the first idle gap of length `w(n)` starting at or after
    /// `DAT(n, p)` (MCP / HEFT / MD).
    pub fn earliest_start_insert(&self, dag: &Dag, n: NodeId, p: ProcId) -> Cost {
        let dat = self.data_arrival_time(dag, n, p);
        self.earliest_gap_at_or_after(p, dat, dag.weight(n))
    }

    /// First time >= `lower` at which an idle interval of length `w`
    /// exists on `p`.
    pub fn earliest_gap_at_or_after(&self, p: ProcId, lower: Cost, w: Cost) -> Cost {
        debug_assert!(p.0 < self.num_procs);
        let lane = &self.lanes[p.index()];
        let mut cursor = lower;
        for &(s, f, _) in lane {
            if f <= cursor {
                continue;
            }
            if s >= cursor && s - cursor >= w {
                return cursor;
            }
            cursor = cursor.max(f);
        }
        cursor
    }

    /// Place `n` on `p` at `start` (keeping the lane sorted) and add
    /// its footprint to `p`'s resident sum. The caller guarantees the
    /// slot is idle.
    pub fn place(&mut self, dag: &Dag, n: NodeId, p: ProcId, start: Cost) {
        self.place_with_duration(dag, n, p, start, dag.weight(n));
    }

    /// [`Self::place`] with an explicit duration, for cost models
    /// where execution time depends on the processor (heterogeneous
    /// speeds).
    pub fn place_with_duration(
        &mut self,
        dag: &Dag,
        n: NodeId,
        p: ProcId,
        start: Cost,
        duration: Cost,
    ) {
        debug_assert!(p.0 < self.num_procs);
        let fin = start + duration;
        let lane = &mut self.lanes[p.index()];
        let pos = lane.partition_point(|&(s, _, _)| s < start);
        if pos == lane.len() {
            self.ready[p.index()] = fin;
        }
        lane.insert(pos, (start, fin, n));
        self.mem[p.index()] = self.mem[p.index()].saturating_add(dag.mem(n));
        self.finish[n.index()] = fin;
        self.proc[n.index()] = p;
        self.placed[n.index()] = true;
    }

    /// Convert the state into a [`Schedule`].
    pub fn into_schedule(self, dag: &Dag) -> Schedule {
        let mut s = Schedule::new(0, 1);
        self.write_schedule(dag, &mut s);
        s
    }

    /// [`Self::into_schedule`] writing into a caller-owned schedule
    /// (reset in place) without consuming the state.
    pub fn write_schedule(&self, dag: &Dag, out: &mut Schedule) {
        out.reset(dag.node_count(), self.num_procs);
        for (pi, lane) in self.lanes[..self.num_procs as usize].iter().enumerate() {
            for &(start, fin, n) in lane {
                out.place(n, ProcId(pi as u32), start, fin);
            }
        }
        debug_assert!(out.is_complete() || dag.node_count() > out.tasks().count());
    }
}

/// The DAT cache: data-arrival times of *ready* nodes (all parents
/// placed, so the values are final), in flat processor-indexed lanes.
///
/// `DAT(n, P)` is the all-remote bound unless `P` hosts a parent, whose
/// message is then priced co-located. [`DatLanes::fill`] prices a node
/// in one branch-free pass over its parents into lanes sized to the
/// machine: per processor, the number of the fill that last touched it,
/// the latest co-located arrival and the latest remote arrival, plus
/// the distinct parent processors in pred (id-sorted) order, first
/// occurrence. One pass over those `k ≤ d` processors then takes the
/// top two remote arrivals: `DAT(n, q)` is the larger of `q`'s
/// co-located arrival and the top remote arrival *not sent from `q`* —
/// the top one, or the second-best when `q` sent the top one — and the
/// top one is the all-remote bound. A fill is O(in-degree), so filling
/// every node is O(e), the paper's §4.2 bound, and
/// [`DatLanes::arrival`] then reads `DAT(n, p)` of the filled node in
/// O(1), with no per-node or per-edge lane in between.
///
/// FAST and HEFT price only the node they filled last. ETF, DLS and
/// ISH probe a ready node again in later steps, so
/// [`DatLanes::probe`] persists a node's entry when it fills it: its
/// `k` `(proc, DAT)` pairs go into the node's predecessor-CSR span
/// (distinct parent processors never outnumber parents), its
/// all-remote bound and `k` into node-sized lanes. A probe of an older
/// entry scans its `k` pairs — the difference between the published
/// O(p v²) for ETF and an accidental O(p v² d). The persisted lanes are
/// grown by the first entry persisted, so FAST and HEFT never size
/// them. [`DatLanes::pred_reads`] counts the pred-lane entries the
/// fills and the parent walks read.
///
/// The lanes price messages through a [`CostModel`], and they are
/// exact only when a message's price depends on nothing but whether
/// its endpoints are co-located — which is what
/// [`CostModel::prices_by_colocation`] guarantees (per-processor
/// speeds and memory capacities included: they change compute costs
/// and lane budgets, not message prices). Under any other model
/// (multi-group hierarchies, interconnect hops) every DAT read walks
/// the parents directly, and a fill only records the distinct parent
/// processors ([`DatLanes::parent_procs`]), FAST's §4.2 candidate set.
#[derive(Debug, Default)]
pub struct DatLanes {
    /// Per processor: what the last fill recorded there.
    by_proc: Vec<FillLane>,
    /// The last fill's distinct parent processors, first occurrence,
    /// in the first `k` entries. One longer than the machine: every
    /// parent writes the next entry before knowing whether it is new.
    order: Vec<ProcId>,
    k: usize,
    /// The last fill's all-remote bound.
    top: Cost,
    /// Number of the latest fill, and the node it filled.
    fills: u64,
    last: Option<NodeId>,
    /// Per node: whether its entry was persisted this run, its
    /// all-remote bound and its pair count.
    valid: Vec<bool>,
    remote: Vec<Cost>,
    len: Vec<u32>,
    /// Persisted `(proc, DAT)` pairs, in each node's pred-CSR span.
    procs: Vec<ProcId>,
    dats: Vec<Cost>,
    /// Pred-lane entries read since the last reset, by `fill` and by
    /// the direct parent walk.
    pred_reads: u64,
    /// Whether the lanes price DATs this run.
    cached: bool,
}

/// What one fill recorded on one processor.
#[derive(Debug, Default, Clone, Copy)]
struct FillLane {
    /// The fill that last touched the processor. Fills are numbered
    /// across resets, so a stale number never matches.
    fill: u64,
    /// The latest co-located arrival from that fill's parents there;
    /// once the fill is done, `DAT(n, p)` of the node it filled.
    local: Cost,
    /// The latest remote arrival from that fill's parents there.
    remote: Cost,
}

impl DatLanes {
    /// Empty lane set holding no buffers; [`DatLanes::reset`] before
    /// use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-initialize for `dag` under `model` in place: no node filled,
    /// no entry persisted. Only the node-sized validity lane is
    /// rewritten; every other lane is read only after this run wrote
    /// it, so lanes are grown, never cleared (capacity kept — a reused
    /// lane set stops allocating once it has seen its largest DAG).
    pub fn reset<M: CostModel + ?Sized>(&mut self, dag: &Dag, model: &M) {
        self.cached = model.prices_by_colocation();
        self.valid.clear();
        self.valid.resize(dag.node_count(), false);
        self.last = None;
        self.pred_reads = 0;
    }

    /// Pred-lane entries read since the last reset — one per parent
    /// per fill, plus one per parent per direct walk under a model the
    /// lanes are not exact for. A placement loop that fills each node
    /// once under an exact model reads exactly `e`.
    #[inline]
    pub fn pred_reads(&self) -> u64 {
        self.pred_reads
    }

    /// Whether [`DatLanes::probe`] persisted `n`'s entry since the last
    /// reset.
    #[inline]
    pub fn is_valid(&self, n: NodeId) -> bool {
        self.valid[n.index()]
    }

    /// Fill the lanes for `n` against current placements (all parents
    /// must be placed — the values are final once `n` is ready). The
    /// distinct parent processors are recorded under every model; the
    /// DATs are priced only when the lanes are exact for the model.
    pub fn fill<M: CostModel + ?Sized>(
        &mut self,
        model: &M,
        dag: &Dag,
        state: &ListState,
        n: NodeId,
    ) {
        let (src, cost) = dag.pred_lanes(n);
        let np = state.num_procs() as usize;
        if self.by_proc.len() < np {
            self.by_proc.resize(np, FillLane::default());
            self.order.resize(np + 1, ProcId(0));
        }
        self.fills += 1;
        self.pred_reads += src.len() as u64;
        let fill = self.fills;
        // Every processor but the sender prices a message alike, so a
        // remote arrival is priced against one of them. A
        // one-processor machine hosts every parent and never reads it.
        let priced_remote = self.cached && np > 1;
        // One pass over the parents. A parent on a processor this fill
        // has not seen yet appends it to `order` and restarts its two
        // running maxima: the entry is written either way and `k`
        // advances by the `fresh` bit, and the old maxima are kept
        // through an all-ones-or-zero mask.
        let mut k = 0usize;
        for (&t, &c) in src.iter().zip(cost) {
            debug_assert!(state.placed[t as usize]);
            let p = state.proc[t as usize];
            let lane = &mut self.by_proc[p.index()];
            let fresh = lane.fill != fill;
            lane.fill = fill;
            self.order[k] = p;
            k += usize::from(fresh);
            if self.cached {
                let keep = Cost::from(fresh).wrapping_sub(1);
                let finish = state.finish[t as usize];
                let local = finish + model.message_cost(c, p, p);
                lane.local = (lane.local & keep).max(local);
                let remote = if priced_remote {
                    finish + model.message_cost(c, p, ProcId(u32::from(p.0 == 0)))
                } else {
                    0
                };
                lane.remote = (lane.remote & keep).max(remote);
            }
        }
        // One pass over the parent processors: the top two remote
        // maxima give each one's best arrival from the *other*
        // processors.
        let (mut top, mut top_p, mut second) = (0, ProcId(u32::MAX), 0);
        if self.cached {
            for &p in &self.order[..k] {
                let r = self.by_proc[p.index()].remote;
                if r > top {
                    (second, top, top_p) = (top, r, p);
                } else if r > second {
                    second = r;
                }
            }
            for &p in &self.order[..k] {
                let local = &mut self.by_proc[p.index()].local;
                *local = (*local).max(if p == top_p { second } else { top });
            }
        }
        self.k = k;
        self.top = top;
        self.last = Some(n);
    }

    /// The distinct processors hosting the parents of the node filled
    /// last, in pred order, first occurrence.
    #[inline]
    pub fn parent_procs(&self) -> &[ProcId] {
        debug_assert!(self.last.is_some());
        &self.order[..self.k]
    }

    /// `DAT(n, p)` of `n`, the node filled last: an O(1) lane read when
    /// the lanes are exact for `model` (the model this set was
    /// [`DatLanes::reset`] with), a direct walk over the parents
    /// otherwise.
    #[inline]
    pub fn arrival<M: CostModel + ?Sized>(
        &mut self,
        model: &M,
        dag: &Dag,
        state: &ListState,
        n: NodeId,
        p: ProcId,
    ) -> Cost {
        debug_assert_eq!(self.last, Some(n));
        if !self.cached {
            return self.walk(model, dag, state, n, p);
        }
        self.lane(p)
    }

    /// `DAT(n, p)` of any ready node `n` under `model`: from the lanes
    /// for the node filled last, from `n`'s persisted entry for an
    /// older one, and otherwise by filling the lanes for `n` and
    /// persisting its entry; a direct walk over the parents under a
    /// model the lanes are not exact for.
    #[inline]
    pub fn probe<M: CostModel + ?Sized>(
        &mut self,
        model: &M,
        dag: &Dag,
        state: &ListState,
        n: NodeId,
        p: ProcId,
    ) -> Cost {
        if !self.cached {
            return self.walk(model, dag, state, n, p);
        }
        let i = n.index();
        if self.last != Some(n) {
            if self.valid[i] {
                let lo = dag.pred_offsets()[i] as usize;
                let span = lo..lo + self.len[i] as usize;
                return match self.procs[span].iter().position(|&q| q == p) {
                    Some(j) => self.dats[lo + j],
                    None => self.remote[i],
                };
            }
            self.fill(model, dag, state, n);
            self.persist(dag, n);
        }
        self.lane(p)
    }

    /// `DAT(last, p)` from the processor lanes.
    #[inline]
    fn lane(&self, p: ProcId) -> Cost {
        let lane = &self.by_proc[p.index()];
        if lane.fill == self.fills {
            lane.local
        } else {
            self.top
        }
    }

    /// Copy the last fill, of `n`, into `n`'s persisted entry.
    fn persist(&mut self, dag: &Dag, n: NodeId) {
        if self.procs.len() < dag.edge_count() {
            self.procs.resize(dag.edge_count(), ProcId(0));
            self.dats.resize(dag.edge_count(), 0);
        }
        if self.len.len() < dag.node_count() {
            self.remote.resize(dag.node_count(), 0);
            self.len.resize(dag.node_count(), 0);
        }
        let i = n.index();
        let lo = dag.pred_offsets()[i] as usize;
        for (j, &q) in self.order[..self.k].iter().enumerate() {
            self.procs[lo + j] = q;
            self.dats[lo + j] = self.by_proc[q.index()].local;
        }
        self.remote[i] = self.top;
        self.len[i] = self.k as u32;
        self.valid[i] = true;
    }

    /// `DAT(n, p)` by a walk over `n`'s parents, counted.
    #[inline]
    fn walk<M: CostModel + ?Sized>(
        &mut self,
        model: &M,
        dag: &Dag,
        state: &ListState,
        n: NodeId,
        p: ProcId,
    ) -> Cost {
        self.pred_reads += dag.in_degree(n) as u64;
        data_arrival_time_with(model, dag, n, p, &state.finish, &state.proc)
    }
}

/// Ready-set tracker: nodes become ready when all parents are placed.
pub struct ReadySet {
    remaining_parents: Vec<u32>,
    ready: Vec<NodeId>,
}

impl ReadySet {
    /// Initialize from the DAG: entry nodes are immediately ready.
    pub fn new(dag: &Dag) -> Self {
        let mut rs = Self::empty();
        rs.reset(dag);
        rs
    }

    /// An empty tracker holding no buffers; [`ReadySet::reset`] it
    /// before use.
    pub fn empty() -> Self {
        Self {
            remaining_parents: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// Re-initialize for `dag` in place (buffers cleared, capacities
    /// kept). Entry nodes are seeded in id order, exactly as
    /// [`ReadySet::new`] does.
    pub fn reset(&mut self, dag: &Dag) {
        self.remaining_parents.clear();
        self.remaining_parents
            .extend(dag.nodes().map(|n| dag.in_degree(n) as u32));
        self.ready.clear();
        self.ready.extend(dag.nodes().filter(|&n| dag.is_entry(n)));
    }

    /// Current ready nodes (unordered).
    #[inline]
    pub fn ready(&self) -> &[NodeId] {
        &self.ready
    }

    /// `true` when no node is ready (all placed, if used correctly).
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// Mark `n` placed: remove it from the ready set and release any
    /// children that become ready.
    pub fn complete(&mut self, dag: &Dag, n: NodeId) {
        let pos = self
            .ready
            .iter()
            .position(|&x| x == n)
            .expect("completed node must be ready");
        self.ready.swap_remove(pos);
        for e in dag.succs(n) {
            let r = &mut self.remaining_parents[e.node.index()];
            *r -= 1;
            if *r == 0 {
                self.ready.push(e.node);
            }
        }
    }
}

/// Run static list scheduling over `order` (a topological order):
/// every node is appended to the processor minimizing its start time
/// over all processors, at the ready time (`insertion = false`,
/// classical HLFET) or in the first idle gap that fits
/// (`insertion = true`, MCP).
pub fn run_static_list(dag: &Dag, order: &[NodeId], num_procs: u32, insertion: bool) -> Schedule {
    let mut m = ListState::new(dag.node_count(), num_procs);
    for &n in order {
        let mut best_p = ProcId(0);
        let mut best_s = Cost::MAX;
        for pi in 0..num_procs {
            let p = ProcId(pi);
            let s = if insertion {
                m.earliest_start_insert(dag, n, p)
            } else {
                m.earliest_start_append(dag, n, p)
            };
            if s < best_s {
                best_s = s;
                best_p = p;
            }
        }
        m.place(dag, n, best_p, best_s);
    }
    m.into_schedule(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_dag::DagBuilder;
    use fastsched_schedule::{
        validate, AlphaBeta, Hierarchical, MemoryCapacities, ProcessorSpeeds,
    };

    fn pair() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_task(2);
        let c = b.add_task(3);
        b.add_edge(a, c, 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn ready_set_releases_children() {
        let g = pair();
        let mut rs = ReadySet::new(&g);
        assert_eq!(rs.ready(), &[NodeId(0)]);
        rs.complete(&g, NodeId(0));
        assert_eq!(rs.ready(), &[NodeId(1)]);
        rs.complete(&g, NodeId(1));
        assert!(rs.is_empty());
    }

    #[test]
    fn append_policy_respects_ready_time() {
        let g = pair();
        let mut m = ListState::new(2, 2);
        m.place(&g, NodeId(0), ProcId(0), 0);
        // Same proc: DAT 2, ready 2 → 2. Other proc: DAT 2 + 4 = 6.
        assert_eq!(m.earliest_start_append(&g, NodeId(1), ProcId(0)), 2);
        assert_eq!(m.earliest_start_append(&g, NodeId(1), ProcId(1)), 6);
    }

    #[test]
    fn insertion_finds_interior_gap() {
        // Three independent tasks; craft a lane with a gap.
        let mut b = DagBuilder::new();
        b.add_task(5);
        b.add_task(5);
        b.add_task(3);
        let g = b.build().unwrap();
        let mut m = ListState::new(3, 1);
        m.place(&g, NodeId(0), ProcId(0), 0); // [0,5)
        m.place(&g, NodeId(1), ProcId(0), 9); // [9,14)
                                              // Gap [5,9) holds a weight-3 task.
        assert_eq!(m.earliest_start_insert(&g, NodeId(2), ProcId(0)), 5);
        // Append policy would go after 14.
        assert_eq!(m.earliest_start_append(&g, NodeId(2), ProcId(0)), 14);
    }

    #[test]
    fn gap_probe_edge_cases() {
        let mut b = DagBuilder::new();
        b.add_task(5);
        let g = b.build().unwrap();
        let mut m = ListState::new(1, 1);
        // Empty lane: gap at the lower bound.
        assert_eq!(m.earliest_gap_at_or_after(ProcId(0), 7, 100), 7);
        m.place(&g, NodeId(0), ProcId(0), 3); // [3,8)
                                              // Gap of 3 before the task fits at 0.
        assert_eq!(m.earliest_gap_at_or_after(ProcId(0), 0, 3), 0);
        // Gap of 4 does not fit before; goes after.
        assert_eq!(m.earliest_gap_at_or_after(ProcId(0), 0, 4), 8);
        // Lower bound inside the busy interval.
        assert_eq!(m.earliest_gap_at_or_after(ProcId(0), 5, 1), 8);
    }

    #[test]
    fn dat_cache_matches_direct_computation() {
        // Mixed parents on different processors: the cached lanes must
        // agree with Machine::data_arrival_time on every processor.
        let mut b = DagBuilder::new();
        let p1 = b.add_task(2);
        let p2 = b.add_task(3);
        let child = b.add_task(1);
        b.add_edge(p1, child, 10).unwrap();
        b.add_edge(p2, child, 4).unwrap();
        let g = b.build().unwrap();
        let mut m = ListState::new(3, 4);
        m.place(&g, p1, ProcId(0), 0); // finish 2
        m.place(&g, p2, ProcId(2), 5); // finish 8
        let mut lanes = DatLanes::new();
        lanes.reset(&g, &HomogeneousModel);
        lanes.fill(&HomogeneousModel, &g, &m, child);
        for pi in 0..4 {
            let p = ProcId(pi);
            assert_eq!(
                lanes.arrival(&HomogeneousModel, &g, &m, child, p),
                m.data_arrival_time(&g, child, p),
                "proc {pi}"
            );
        }
        // All-remote bound: max(2 + 10, 8 + 4) = 12. On proc 0 the heavy
        // message is free: max(2, 8 + 4) = 12; on proc 2: max(2 + 10, 8)
        // = 12 — and on proc 1/3 also 12.
        for pi in 0..4 {
            let dat = lanes.arrival(&HomogeneousModel, &g, &m, child, ProcId(pi));
            assert_eq!(dat, 12, "proc {pi}");
        }
    }

    #[test]
    fn dat_lanes_match_dat_cache() {
        // Three parents of `child` on processors 2, 0, 2 (pred order)
        // and a second child of the first. Under an exact model (plain,
        // α–β) and non-exact ones (finite capacities, speeds, two
        // groups) the lanes record the distinct parent processors in
        // pred order, first occurrence, and every (node, processor)
        // probe equals `data_arrival_time_with`.
        let mut b = DagBuilder::new();
        let p1 = b.add_task(2);
        let p2 = b.add_task(3);
        let p3 = b.add_task(4);
        let child = b.add_task(1);
        let other = b.add_task(2);
        b.add_edge(p1, child, 10).unwrap();
        b.add_edge(p2, child, 4).unwrap();
        b.add_edge(p3, child, 1).unwrap();
        b.add_edge(p1, other, 2).unwrap();
        let g = b.build().unwrap();
        let mut m = ListState::new(g.node_count(), 4);
        m.place(&g, p1, ProcId(2), 0); // finish 2
        m.place(&g, p2, ProcId(0), 5); // finish 8
        m.place(&g, p3, ProcId(2), 8); // finish 12
        let capped = MemoryCapacities::uniform(HomogeneousModel, 100, 4);
        let speeds = ProcessorSpeeds::new(vec![100, 200, 50, 150]);
        let groups = Hierarchical::from_group_sizes(
            &[2, 2],
            AlphaBeta::new(0, 1, 1),
            AlphaBeta::new(9, 2, 1),
        )
        .unwrap();
        let models: [(&str, &dyn CostModel); 5] = [
            ("plain", &HomogeneousModel),
            ("alpha-beta", &AlphaBeta::new(20, 3, 2)),
            ("capped", &capped),
            ("speeds", &speeds),
            ("two groups", &groups),
        ];
        let mut lanes = DatLanes::new();
        for (name, model) in models {
            lanes.reset(&g, model);
            assert!(!lanes.is_valid(child));
            lanes.fill(model, &g, &m, child);
            assert_eq!(lanes.parent_procs(), [ProcId(2), ProcId(0)], "{name}");
            lanes.fill(model, &g, &m, other);
            assert_eq!(lanes.parent_procs(), [ProcId(2)], "{name}");
            // A fill persists nothing; a probe persists what it fills.
            assert!(!lanes.is_valid(child), "{name}");
            for &n in &[child, other] {
                for pi in 0..4 {
                    let p = ProcId(pi);
                    assert_eq!(
                        lanes.probe(model, &g, &m, n, p),
                        data_arrival_time_with(model, &g, n, p, &m.finish, &m.proc),
                        "{name}: node {n} proc {pi}"
                    );
                }
            }
        }
        // All-remote: max(2 + 10, 8 + 4, 12 + 1) = 13. On proc 2 the
        // two co-located messages are free: max(2 + 10, 8, 12) = 12.
        lanes.reset(&g, &HomogeneousModel);
        lanes.fill(&HomogeneousModel, &g, &m, child);
        assert_eq!(
            lanes.arrival(&HomogeneousModel, &g, &m, child, ProcId(1)),
            13
        );
        assert_eq!(
            lanes.arrival(&HomogeneousModel, &g, &m, child, ProcId(2)),
            12
        );
        // Reset invalidates without shrinking.
        lanes.reset(&g, &HomogeneousModel);
        assert!(!lanes.is_valid(child));

        // The one-pass fill's top-two rule, pinned on fan-ins whose
        // parents are `(weight, processor, start, edge weight)`:
        // DAT(q) is q's co-located arrival or the best remote arrival
        // not sent from q, whichever is later.
        // Every parent on one processor: one slot, second-best 0.
        let one_proc = [(2, 1, 0, 10), (3, 1, 2, 4), (1, 1, 5, 1)];
        // The top remote arrival sent from processors 0 and 2 alike.
        let tied = [(5, 0, 0, 6), (5, 2, 0, 6), (1, 3, 0, 1)];
        // The top remote arrival sent from the probed processor 1, which
        // then waits for the second-best (from processor 0).
        let top_is_probed = [(2, 1, 0, 10), (3, 0, 0, 8), (4, 1, 2, 1)];
        let one_proc_machine = [(2, 0, 0, 10), (3, 0, 2, 4)];
        for (name, parents, procs, plain) in [
            ("one proc", &one_proc[..], 4, [12, 6, 12, 12]),
            ("tied", &tied[..], 4, [11, 11, 11, 11]),
            ("top is probed", &top_is_probed[..], 4, [12, 11, 12, 12]),
            (
                "one-processor machine",
                &one_proc_machine[..],
                1,
                [5, 0, 0, 0],
            ),
        ] {
            check_fan_in(name, parents, procs, &plain[..procs as usize]);
        }
    }

    /// Place `parents` (`(weight, processor, start, edge weight)`) and
    /// their common child on a `procs`-processor state, then check the
    /// lanes against `data_arrival_time_with` on every processor —
    /// parent-free ones included — under every model the lanes are
    /// exact for, through both the processor lanes and the persisted
    /// span. `plain`
    /// is the expected DAT per processor under the paper's model.
    fn check_fan_in(name: &str, parents: &[(Cost, u32, Cost, Cost)], procs: u32, plain: &[Cost]) {
        let mut b = DagBuilder::new();
        let ids: Vec<NodeId> = parents.iter().map(|&(w, ..)| b.add_task(w)).collect();
        let child = b.add_task(1);
        for (&t, &(.., c)) in ids.iter().zip(parents) {
            b.add_edge(t, child, c).unwrap();
        }
        let g = b.build().unwrap();
        let mut m = ListState::new(g.node_count(), procs);
        for (&t, &(_, p, start, _)) in ids.iter().zip(parents) {
            m.place(&g, t, ProcId(p), start);
        }
        let one_group = Hierarchical::from_group_sizes(
            &[procs],
            AlphaBeta::new(3, 1, 1),
            AlphaBeta::new(30, 2, 1),
        )
        .unwrap();
        let speeds = ProcessorSpeeds::new((0..procs).map(|p| 50 + 25 * p).collect());
        let capped = MemoryCapacities::uniform(AlphaBeta::new(20, 3, 2), 1, procs);
        let models: [(&str, &dyn CostModel); 5] = [
            ("plain", &HomogeneousModel),
            ("alpha-beta", &AlphaBeta::new(20, 3, 2)),
            ("one-group hier", &one_group),
            ("speeds", &speeds),
            ("capped alpha-beta", &capped),
        ];
        let mut lanes = DatLanes::new();
        for (model_name, model) in models {
            assert!(model.prices_by_colocation(), "{model_name}");
            lanes.reset(&g, model);
            // The first pass probes the node filled last (processor
            // lanes); the second, after an unrelated fill, scans the
            // entry the first probe persisted.
            for pass in ["lanes", "span"] {
                for pi in 0..procs {
                    let p = ProcId(pi);
                    assert_eq!(
                        lanes.probe(model, &g, &m, child, p),
                        data_arrival_time_with(model, &g, child, p, &m.finish, &m.proc),
                        "{name}/{model_name}/{pass}: proc {pi}"
                    );
                }
                lanes.fill(model, &g, &m, ids[0]);
            }
            assert_eq!(
                lanes.pred_reads(),
                parents.len() as u64,
                "{name}/{model_name}: one read per parent"
            );
        }
        lanes.reset(&g, &HomogeneousModel);
        for (pi, &want) in plain.iter().enumerate() {
            let got = lanes.probe(&HomogeneousModel, &g, &m, child, ProcId(pi as u32));
            assert_eq!(got, want, "{name}: plain DAT on proc {pi}");
        }
    }

    #[test]
    fn fits_admits_a_full_lane_and_refuses_one_unit_more() {
        let mut b = DagBuilder::new();
        let a = b.add_task_with_mem(2, 6);
        let c = b.add_task_with_mem(2, 4);
        let d = b.add_task_with_mem(2, 1);
        let g = b.build().unwrap();
        let model = MemoryCapacities::new(HomogeneousModel, vec![10, 5]);
        let (p0, p1) = (ProcId(0), ProcId(1));
        let mut m = ListState::new(g.node_count(), 2);
        assert!(m.fits(&model, p0, 10));
        assert!(!m.fits(&model, p0, 11));
        // Residency accumulates per lane: 6, then 6 + 4 = 10 on p0,
        // while p1 keeps its own sum.
        m.place(&g, a, p0, 0);
        assert!(m.fits(&model, p0, 4));
        assert!(!m.fits(&model, p0, 5));
        m.place(&g, c, p0, 2);
        assert!(m.fits(&model, p0, 0));
        assert!(!m.fits(&model, p0, 1));
        m.place(&g, d, p1, 0);
        assert!(m.fits(&model, p1, 4));
        assert!(!m.fits(&model, p1, 5));
        // A transfer moves the footprint between lanes.
        m.move_footprint(p0, p1, 4);
        assert!(m.fits(&model, p0, 4));
        assert!(!m.fits(&model, p0, 5));
        assert!(m.fits(&model, p1, 0));
        assert!(!m.fits(&model, p1, 1));
        // An unbounded model admits anything; a reset empties the lanes.
        assert!(m.fits(&HomogeneousModel, p0, Cost::MAX));
        m.reset(g.node_count(), 2);
        assert!(m.fits(&model, p0, 10));
        assert!(!m.fits(&model, p0, 11));
    }

    #[test]
    fn static_list_produces_valid_schedules() {
        let g = pair();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        for insertion in [false, true] {
            let s = run_static_list(&g, &order, 3, insertion);
            assert_eq!(validate(&g, &s), Ok(()));
        }
    }
}
