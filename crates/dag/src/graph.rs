//! Core weighted-DAG representation.
//!
//! Every edge is stored once per direction, as split
//! structure-of-arrays lanes frozen at build time together with a
//! topological order:
//!
//! * the **predecessor CSR**, keyed by node id: node `n`'s parents are
//!   `pred_src[pred_offsets[n]..pred_offsets[n + 1]]` in id order, with
//!   the edge costs aligned in `pred_cost`;
//! * the **successor CSR**, keyed by topological position: the node at
//!   position `p` sends to the positions
//!   `tsucc_targets[tsucc_offsets[p]..tsucc_offsets[p + 1]]`, listed in
//!   successor-id order, with the edge costs aligned in `tsucc_costs`.
//!
//! [`Dag::preds`] and [`Dag::succs`] are `Copy` views over these runs
//! that yield [`EdgeRef`]s by value in neighbour-id order. All
//! attribute passes in this crate are single sweeps over the lanes,
//! which is what makes the paper's O(e) bounds achievable in practice
//! (no per-node allocation, no hashing on the hot path).

use crate::error::DagError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::{self, Write as _};
use std::iter::Zip;
use std::slice;

/// Computation / communication cost unit.
///
/// Costs are integral "time units" (the workloads crate uses
/// microseconds from its timing database). Integral costs keep every
/// attribute and schedule computation exact, so tests can assert
/// equality rather than tolerances.
pub type Cost = u64;

/// Dense node identifier: an index into the graph's node arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed edge endpoint as seen from one side: the other node and
/// the communication cost of the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// The node on the other end of the edge.
    pub node: NodeId,
    /// Communication cost `c(n_i, n_j)` of the message.
    pub cost: Cost,
}

/// One node's edges in one direction: a `Copy` view over a run of the
/// split endpoint/cost lanes, yielding [`EdgeRef`]s by value in
/// neighbour-id order.
#[derive(Debug, Clone, Copy)]
pub struct Adjacency<'a> {
    ends: &'a [u32],
    costs: &'a [Cost],
    /// Maps a stored endpoint to its node: the topo order for successor
    /// runs, which store topo positions; `None` for predecessor runs,
    /// which store node ids.
    node_at: Option<&'a [NodeId]>,
}

impl<'a> Adjacency<'a> {
    /// Number of edges in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if the run holds no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th edge of the run.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> EdgeRef {
        EdgeRef {
            node: self.node(self.ends[i]),
            cost: self.costs[i],
        }
    }

    /// The run's edges, in order.
    #[inline]
    pub fn iter(&self) -> AdjacencyIter<'a> {
        AdjacencyIter {
            lanes: self.ends.iter().zip(self.costs),
            view: *self,
        }
    }

    #[inline]
    fn node(&self, end: u32) -> NodeId {
        match self.node_at {
            Some(order) => order[end as usize],
            None => NodeId(end),
        }
    }
}

impl<'a> IntoIterator for Adjacency<'a> {
    type Item = EdgeRef;
    type IntoIter = AdjacencyIter<'a>;

    #[inline]
    fn into_iter(self) -> AdjacencyIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Adjacency`] run.
#[derive(Debug, Clone)]
pub struct AdjacencyIter<'a> {
    lanes: Zip<slice::Iter<'a, u32>, slice::Iter<'a, Cost>>,
    view: Adjacency<'a>,
}

impl Iterator for AdjacencyIter<'_> {
    type Item = EdgeRef;

    #[inline]
    fn next(&mut self) -> Option<EdgeRef> {
        let (&end, &cost) = self.lanes.next()?;
        Some(EdgeRef {
            node: self.view.node(end),
            cost,
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.lanes.size_hint()
    }
}

impl ExactSizeIterator for AdjacencyIter<'_> {}

/// Immutable node- and edge-weighted directed acyclic graph.
///
/// Construct through [`DagBuilder`]. Nodes are identified by dense
/// [`NodeId`]s in insertion order; `dag.topo_order()` exposes a frozen
/// topological order computed once at build time.
#[derive(Debug, Clone)]
pub struct Dag {
    weights: Vec<Cost>,
    /// Per-node memory footprint `mem(n)` (0 = no footprint). An
    /// optional resource axis: graphs built without footprints carry
    /// an all-zero lane and behave exactly as before.
    mems: Vec<Cost>,
    /// Every node's name, concatenated in id order.
    names: String,
    /// End offset of each node's name in `names`.
    name_ends: Vec<u32>,
    /// Predecessor run offsets keyed by node id (`len = v + 1`).
    pred_offsets: Vec<u32>,
    /// Parent ids, each run sorted by id.
    pred_src: Vec<u32>,
    /// Predecessor edge costs, aligned with `pred_src`.
    pred_cost: Vec<Cost>,
    topo: Vec<NodeId>,
    /// Topological position of each node id (inverse of `topo`).
    topo_pos: Vec<u32>,
    /// Successor run offsets keyed by topo position: the run of node at
    /// position `p` is `tsucc_offsets[p]..tsucc_offsets[p + 1]`. The
    /// per-position run length is the out-degree lane.
    tsucc_offsets: Vec<u32>,
    /// Successor *topo positions* (always > the source position), each
    /// run in successor-id order.
    tsucc_targets: Vec<u32>,
    /// Successor edge costs, aligned with `tsucc_targets`.
    tsucc_costs: Vec<Cost>,
    /// Node weights keyed by topo position.
    topo_weights: Vec<Cost>,
    /// Σ w(n), saturating at `Cost::MAX`.
    total_work: Cost,
    /// Σ c(e), saturating at `Cost::MAX`.
    total_comm: Cost,
}

/// Borrowed structure-of-arrays view of the successor adjacency keyed
/// by *topological position*: position `p` holds the node
/// `node_at[p]`, its weight, and its successor run
/// `offsets[p]..offsets[p + 1]` over the `targets`/`costs` lanes
/// (targets are topo positions too, always `> p`).
///
/// This is the layout the attribute sweep kernels walk: a forward
/// (t-level) or backward (b-level, static level) pass is a single
/// linear scan of `offsets` with contiguous lane reads — no `NodeId`
/// indirection, no struct padding — which keeps the inner max-fold
/// branch-lean and lets it autovectorize.
#[derive(Debug, Clone, Copy)]
pub struct TopoCsr<'a> {
    /// Node id at each topo position (the frozen topo order).
    pub node_at: &'a [NodeId],
    /// Topo position of each node id (inverse permutation).
    pub pos_of: &'a [u32],
    /// Node weights keyed by topo position.
    pub weights: &'a [Cost],
    /// Successor run offsets keyed by topo position (`len = v + 1`);
    /// `offsets[p + 1] - offsets[p]` is the out-degree lane.
    pub offsets: &'a [u32],
    /// Successor topo positions, one entry per edge.
    pub targets: &'a [u32],
    /// Successor edge costs, aligned with `targets`.
    pub costs: &'a [Cost],
}

impl Dag {
    /// Number of nodes `v`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges `e`.
    ///
    /// Debug builds assert that every edge-keyed lane agrees on this
    /// count — a desynchronized lane would silently corrupt the sweep
    /// kernels.
    #[inline]
    pub fn edge_count(&self) -> usize {
        debug_assert_eq!(self.pred_src.len(), self.pred_cost.len());
        debug_assert_eq!(self.pred_src.len(), self.tsucc_targets.len());
        debug_assert_eq!(self.pred_src.len(), self.tsucc_costs.len());
        self.pred_src.len()
    }

    /// Computation cost `w(n)` of a node.
    #[inline]
    pub fn weight(&self, n: NodeId) -> Cost {
        self.weights[n.index()]
    }

    /// All node computation costs, indexed by `NodeId`.
    #[inline]
    pub fn weights(&self) -> &[Cost] {
        &self.weights
    }

    /// Memory footprint `mem(n)` of a node (0 when the graph carries
    /// no memory annotations).
    #[inline]
    pub fn mem(&self, n: NodeId) -> Cost {
        self.mems[n.index()]
    }

    /// All node memory footprints, indexed by `NodeId`.
    #[inline]
    pub fn mems(&self) -> &[Cost] {
        &self.mems
    }

    /// `true` if any node carries a nonzero memory footprint.
    #[inline]
    pub fn has_memory(&self) -> bool {
        self.mems.iter().any(|&m| m != 0)
    }

    /// Sum of all node memory footprints.
    pub fn total_memory(&self) -> Cost {
        self.mems.iter().sum()
    }

    /// Human-readable node name (defaults to `n<i>`).
    #[inline]
    pub fn name(&self, n: NodeId) -> &str {
        let i = n.index();
        let lo = if i == 0 { 0 } else { self.name_ends[i - 1] };
        &self.names[lo as usize..self.name_ends[i] as usize]
    }

    /// Iterator over all node ids in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Successor edges of `n` (messages `n` sends), in successor-id
    /// order.
    #[inline]
    pub fn succs(&self, n: NodeId) -> Adjacency<'_> {
        let p = self.topo_pos[n.index()] as usize;
        let lo = self.tsucc_offsets[p] as usize;
        let hi = self.tsucc_offsets[p + 1] as usize;
        Adjacency {
            ends: &self.tsucc_targets[lo..hi],
            costs: &self.tsucc_costs[lo..hi],
            node_at: Some(&self.topo),
        }
    }

    /// Predecessor edges of `n` (messages `n` receives), in parent-id
    /// order.
    #[inline]
    pub fn preds(&self, n: NodeId) -> Adjacency<'_> {
        let (ends, costs) = self.pred_lanes(n);
        Adjacency {
            ends,
            costs,
            node_at: None,
        }
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.succs(n).len()
    }

    /// In-degree of `n`.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.preds(n).len()
    }

    /// `true` if `n` has no parents.
    #[inline]
    pub fn is_entry(&self, n: NodeId) -> bool {
        self.in_degree(n) == 0
    }

    /// `true` if `n` has no children.
    #[inline]
    pub fn is_exit(&self, n: NodeId) -> bool {
        self.out_degree(n) == 0
    }

    /// All entry nodes (no parents), in id order.
    pub fn entry_nodes(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.is_entry(n)).collect()
    }

    /// All exit nodes (no children), in id order.
    pub fn exit_nodes(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.is_exit(n)).collect()
    }

    /// Communication cost of the edge `(src, dst)`, if that edge exists.
    pub fn edge_cost(&self, src: NodeId, dst: NodeId) -> Option<Cost> {
        let (parents, costs) = self.pred_lanes(dst);
        parents.binary_search(&src.0).ok().map(|i| costs[i])
    }

    /// A topological order of the nodes, frozen at build time.
    ///
    /// The order is deterministic: among ready nodes, smaller ids come
    /// first (Kahn's algorithm with an index-ordered frontier).
    #[inline]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Topological position of `n` (inverse of [`Dag::topo_order`]).
    #[inline]
    pub fn topo_pos(&self, n: NodeId) -> u32 {
        self.topo_pos[n.index()]
    }

    /// Predecessor adjacency of `n` as split SoA lanes:
    /// `(parent ids, edge costs)`, aligned element-wise and in the
    /// same (id-sorted) order as [`Dag::preds`]. The DAT probe loops
    /// walk these directly: a `u32` lane and a `Cost` lane gather with
    /// no padding between elements.
    #[inline]
    pub fn pred_lanes(&self, n: NodeId) -> (&[u32], &[Cost]) {
        let lo = self.pred_offsets[n.index()] as usize;
        let hi = self.pred_offsets[n.index() + 1] as usize;
        (&self.pred_src[lo..hi], &self.pred_cost[lo..hi])
    }

    /// Predecessor CSR offsets (`len = v + 1`): node `n`'s pred run is
    /// `pred_offsets()[n] .. pred_offsets()[n + 1]`. Flat caches keyed
    /// per-parent (e.g. the DAT lanes) use these runs as their slots.
    #[inline]
    pub fn pred_offsets(&self) -> &[u32] {
        &self.pred_offsets
    }

    /// The topo-keyed structure-of-arrays view of the successor
    /// adjacency — the layout the attribute sweep kernels consume.
    #[inline]
    pub fn topo_csr(&self) -> TopoCsr<'_> {
        TopoCsr {
            node_at: &self.topo,
            pos_of: &self.topo_pos,
            weights: &self.topo_weights,
            offsets: &self.tsucc_offsets,
            targets: &self.tsucc_targets,
            costs: &self.tsucc_costs,
        }
    }

    /// Sum of all computation costs (the sequential execution time,
    /// and a trivial upper bound on any single-processor schedule).
    /// Cached at build; saturates at `Cost::MAX` instead of wrapping.
    pub fn total_computation(&self) -> Cost {
        self.total_work
    }

    /// Sum of all communication costs. Cached at build; saturates at
    /// `Cost::MAX` instead of wrapping.
    pub fn total_communication(&self) -> Cost {
        self.total_comm
    }

    /// Communication-to-computation ratio (CCR): average communication
    /// cost divided by average computation cost (§2 of the paper).
    /// Returns 0.0 for a graph with no edges.
    pub fn ccr(&self) -> f64 {
        if self.edge_count() == 0 {
            return 0.0;
        }
        let avg_comm = self.total_communication() as f64 / self.edge_count() as f64;
        let avg_comp = self.total_computation() as f64 / self.node_count() as f64;
        avg_comm / avg_comp
    }

    /// Iterate over all edges as `(src, dst, cost)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Cost)> + '_ {
        self.nodes()
            .flat_map(move |src| self.succs(src).iter().map(move |e| (src, e.node, e.cost)))
    }
}

/// Incremental builder for [`Dag`].
///
/// Collects nodes and edges, then [`DagBuilder::build`] validates
/// (unknown ids, self-loops, duplicate edges, zero weights, cycles) and
/// freezes the CSR representation and topological order.
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    weights: Vec<Cost>,
    mems: Vec<Cost>,
    names: String,
    name_ends: Vec<u32>,
    edges: Vec<(NodeId, NodeId, Cost)>,
}

impl DagBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with preallocated capacity for `nodes` nodes and `edges`
    /// edges (the name buffer gets room for `n<i>`-style names).
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            weights: Vec::with_capacity(nodes),
            mems: Vec::with_capacity(nodes),
            names: String::with_capacity(nodes * 6),
            name_ends: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a task with the given name and computation cost; returns its
    /// id. Zero weights are rejected at `build` time.
    pub fn add_node(&mut self, name: impl AsRef<str>, weight: Cost) -> NodeId {
        self.names.push_str(name.as_ref());
        self.push_node(weight)
    }

    /// Add an anonymous task (named `n<i>`).
    pub fn add_task(&mut self, weight: Cost) -> NodeId {
        let id = self.weights.len();
        write!(self.names, "n{id}").expect("writing to a String cannot fail");
        self.push_node(weight)
    }

    /// Record a node whose name was just appended to `names`.
    fn push_node(&mut self, weight: Cost) -> NodeId {
        let id = NodeId(self.weights.len() as u32);
        self.weights.push(weight);
        self.mems.push(0);
        self.name_ends.push(self.names.len() as u32);
        id
    }

    /// Add an anonymous task with a memory footprint.
    pub fn add_task_with_mem(&mut self, weight: Cost, mem: Cost) -> NodeId {
        let id = self.add_task(weight);
        self.mems[id.index()] = mem;
        id
    }

    /// Set the memory footprint of an already-added node.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added to this builder.
    pub fn set_mem(&mut self, node: NodeId, mem: Cost) {
        self.mems[node.index()] = mem;
    }

    /// Add a directed message edge `src → dst` with communication cost
    /// `cost`. Fails fast on unknown endpoints or self-loops; duplicate
    /// edges are caught at `build` time.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, cost: Cost) -> Result<(), DagError> {
        let n = self.weights.len() as u32;
        if src.0 >= n {
            return Err(DagError::UnknownNode(src.0));
        }
        if dst.0 >= n {
            return Err(DagError::UnknownNode(dst.0));
        }
        if src == dst {
            return Err(DagError::SelfLoop(src.0));
        }
        self.edges.push((src, dst, cost));
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Validate and freeze into an immutable [`Dag`].
    ///
    /// The builder's own edge list, sorted by `(src, dst)`, is the
    /// transient successor CSR that duplicate detection, Kahn's order
    /// and both lane fills read; it is dropped on return.
    pub fn build(self) -> Result<Dag, DagError> {
        let Self {
            weights,
            mems,
            names,
            name_ends,
            mut edges,
        } = self;
        let v = weights.len();
        if v == 0 {
            return Err(DagError::Empty);
        }
        if let Some(i) = weights.iter().position(|&w| w == 0) {
            return Err(DagError::ZeroWeight(i as u32));
        }

        // Sorted, each source's edges form one run in successor-id
        // order and duplicates sit next to each other.
        edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
        if let Some(w) = edges
            .windows(2)
            .find(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        {
            return Err(DagError::DuplicateEdge(w[0].0 .0, w[0].1 .0));
        }
        let e = edges.len();

        // Run offsets: successors by source id (transient) and
        // predecessors by target id.
        let mut succ_start = vec![0u32; v + 1];
        let mut pred_offsets = vec![0u32; v + 1];
        for &(s, d, _) in &edges {
            succ_start[s.index() + 1] += 1;
            pred_offsets[d.index() + 1] += 1;
        }
        for i in 0..v {
            succ_start[i + 1] += succ_start[i];
            pred_offsets[i + 1] += pred_offsets[i];
        }

        // Scanning the edges in source order fills every pred run
        // already sorted by parent id.
        let mut pred_src = vec![0u32; e];
        let mut pred_cost = vec![0; e];
        let mut fill = pred_offsets.clone();
        for &(s, d, c) in &edges {
            let k = fill[d.index()] as usize;
            pred_src[k] = s.0;
            pred_cost[k] = c;
            fill[d.index()] += 1;
        }

        let run =
            |n: NodeId| &edges[succ_start[n.index()] as usize..succ_start[n.index() + 1] as usize];
        let topo = kahn_order(&pred_offsets, run)?;
        let mut topo_pos = vec![0u32; v];
        for (p, &n) in topo.iter().enumerate() {
            topo_pos[n.index()] = p as u32;
        }

        // Successor CSR keyed by topo position: every target position
        // is strictly greater than its source position, which lets the
        // sweep kernels scan positions linearly.
        let mut tsucc_offsets = Vec::with_capacity(v + 1);
        let mut tsucc_targets = Vec::with_capacity(e);
        let mut tsucc_costs = Vec::with_capacity(e);
        let mut topo_weights = Vec::with_capacity(v);
        tsucc_offsets.push(0u32);
        for (p, &n) in topo.iter().enumerate() {
            topo_weights.push(weights[n.index()]);
            for &(_, d, c) in run(n) {
                let tp = topo_pos[d.index()];
                debug_assert!(tp as usize > p, "topo position must increase along edges");
                tsucc_targets.push(tp);
                tsucc_costs.push(c);
            }
            tsucc_offsets.push(tsucc_targets.len() as u32);
        }

        let saturating_sum =
            |costs: &[Cost]| costs.iter().fold(0, |a: Cost, &c| a.saturating_add(c));
        let dag = Dag {
            total_work: saturating_sum(&weights),
            total_comm: saturating_sum(&pred_cost),
            weights,
            mems,
            names,
            name_ends,
            pred_offsets,
            pred_src,
            pred_cost,
            topo,
            topo_pos,
            tsucc_offsets,
            tsucc_targets,
            tsucc_costs,
            topo_weights,
        };
        debug_assert_eq!(dag.edge_count(), e);
        Ok(dag)
    }
}

/// Kahn's algorithm breaking ties by smallest node id, so the order is
/// deterministic. `run(n)` is `n`'s successor edges. Returns
/// `DagError::Cycle` naming the first node left with unreleased parents.
fn kahn_order<'a>(
    pred_offsets: &[u32],
    run: impl Fn(NodeId) -> &'a [(NodeId, NodeId, Cost)],
) -> Result<Vec<NodeId>, DagError> {
    let v = pred_offsets.len() - 1;
    let mut indeg: Vec<u32> = pred_offsets.windows(2).map(|w| w[1] - w[0]).collect();
    let mut heap: BinaryHeap<Reverse<u32>> = (0..v as u32)
        .filter(|&i| indeg[i as usize] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(v);
    while let Some(Reverse(i)) = heap.pop() {
        order.push(NodeId(i));
        for &(_, d, _) in run(NodeId(i)) {
            let left = &mut indeg[d.index()];
            *left -= 1;
            if *left == 0 {
                heap.push(Reverse(d.0));
            }
        }
    }
    if order.len() != v {
        // Some node still has positive in-degree: it is on (or behind) a cycle.
        let stuck = indeg
            .iter()
            .position(|&d| d > 0)
            .expect("an incomplete order leaves a parent unreleased");
        return Err(DagError::Cycle(stuck as u32));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(2);
        let d = b.add_task(3);
        b.add_edge(a, c, 5).unwrap();
        b.add_edge(c, d, 7).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_weights() {
        let g = chain3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.weight(NodeId(1)), 2);
        assert_eq!(g.total_computation(), 6);
        assert_eq!(g.total_communication(), 12);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = chain3();
        assert_eq!(
            g.succs(NodeId(0)).iter().collect::<Vec<_>>(),
            vec![EdgeRef {
                node: NodeId(1),
                cost: 5
            }]
        );
        assert_eq!(
            g.preds(NodeId(1)).iter().collect::<Vec<_>>(),
            vec![EdgeRef {
                node: NodeId(0),
                cost: 5
            }]
        );
        assert_eq!(g.edge_cost(NodeId(1), NodeId(2)), Some(7));
        assert_eq!(g.edge_cost(NodeId(2), NodeId(1)), None);
    }

    #[test]
    fn entry_and_exit_detection() {
        let g = chain3();
        assert_eq!(g.entry_nodes(), vec![NodeId(0)]);
        assert_eq!(g.exit_nodes(), vec![NodeId(2)]);
        assert!(g.is_entry(NodeId(0)) && !g.is_entry(NodeId(1)));
        assert!(g.is_exit(NodeId(2)) && !g.is_exit(NodeId(1)));
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = DagBuilder::new();
        b.add_task(0);
        assert_eq!(b.build().unwrap_err(), DagError::ZeroWeight(0));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DagBuilder::new();
        let a = b.add_task(1);
        assert_eq!(b.add_edge(a, a, 1).unwrap_err(), DagError::SelfLoop(0));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = DagBuilder::new();
        let a = b.add_task(1);
        assert_eq!(
            b.add_edge(a, NodeId(7), 1).unwrap_err(),
            DagError::UnknownNode(7)
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = DagBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(1);
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(a, c, 2).unwrap();
        assert_eq!(b.build().unwrap_err(), DagError::DuplicateEdge(0, 1));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DagBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(1);
        let d = b.add_task(1);
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(c, d, 1).unwrap();
        b.add_edge(d, a, 1).unwrap();
        assert!(matches!(b.build().unwrap_err(), DagError::Cycle(_)));
    }

    #[test]
    fn ccr_matches_definition() {
        let g = chain3();
        // avg comm = 6, avg comp = 2 → CCR = 3.
        assert!((g.ccr() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_yields_all_edges() {
        let g = chain3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![(NodeId(0), NodeId(1), 5), (NodeId(1), NodeId(2), 7)]
        );
    }

    /// Diamond with a skip edge, its edges added out of (src, dst) order.
    const DIAMOND_EDGES: [(u32, u32, Cost); 5] =
        [(2, 3, 1), (0, 2, 6), (0, 1, 4), (1, 3, 2), (0, 3, 9)];

    fn diamond() -> Dag {
        let mut b = DagBuilder::with_capacity(4, 5);
        for w in [2, 3, 5, 1] {
            b.add_task(w);
        }
        for (s, d, c) in DIAMOND_EDGES {
            b.add_edge(NodeId(s), NodeId(d), c).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn pred_lanes_mirror_pred_edges() {
        let g = diamond();
        for n in g.nodes() {
            let (src, cost) = g.pred_lanes(n);
            let view = g.preds(n);
            assert_eq!(src.len(), view.len());
            for (i, er) in view.iter().enumerate() {
                assert_eq!(src[i], er.node.0, "pred src lane for {n}");
                assert_eq!(cost[i], er.cost, "pred cost lane for {n}");
            }
            // The lanes hold exactly the builder's in-edges of n, by src.
            let mut want: Vec<(u32, Cost)> = DIAMOND_EDGES
                .iter()
                .filter(|e| e.1 == n.0)
                .map(|e| (e.0, e.2))
                .collect();
            want.sort_unstable();
            let got: Vec<(u32, Cost)> = src.iter().copied().zip(cost.iter().copied()).collect();
            assert_eq!(got, want, "in-edges of {n}");
        }
        assert_eq!(g.pred_offsets().len(), g.node_count() + 1);
        assert_eq!(*g.pred_offsets().last().unwrap() as usize, g.edge_count());
    }

    #[test]
    fn topo_pos_is_inverse_of_topo_order() {
        let g = diamond();
        for (p, &n) in g.topo_order().iter().enumerate() {
            assert_eq!(g.topo_pos(n) as usize, p);
        }
    }

    #[test]
    fn topo_csr_mirrors_succ_adjacency() {
        let g = diamond();
        let t = g.topo_csr();
        assert_eq!(t.offsets.len(), g.node_count() + 1);
        assert_eq!(t.targets.len(), g.edge_count());
        for (p, &n) in t.node_at.iter().enumerate() {
            assert_eq!(t.pos_of[n.index()] as usize, p);
            assert_eq!(t.weights[p], g.weight(n));
            let lo = t.offsets[p] as usize;
            let hi = t.offsets[p + 1] as usize;
            let run = &t.targets[lo..hi];
            assert_eq!(run.len(), g.out_degree(n));
            for (k, er) in g.succs(n).iter().enumerate() {
                assert_eq!(run[k], g.topo_pos(er.node), "target of {n}");
                assert_eq!(t.costs[lo + k], er.cost, "cost of {n} edge {k}");
                assert!(run[k] as usize > p, "edges must go forward in topo order");
            }
            // The run holds exactly the builder's out-edges of n.
            let mut want: Vec<(u32, Cost)> = DIAMOND_EDGES
                .iter()
                .filter(|e| e.0 == n.0)
                .map(|e| (g.topo_pos(NodeId(e.1)), e.2))
                .collect();
            want.sort_unstable();
            let mut got: Vec<(u32, Cost)> = run
                .iter()
                .copied()
                .zip(t.costs[lo..hi].iter().copied())
                .collect();
            got.sort_unstable();
            assert_eq!(got, want, "out-edges of {n}");
        }
    }

    #[test]
    fn mem_lane_defaults_to_zero() {
        let mut b = DagBuilder::new();
        let a = b.add_task(2);
        let c = b.add_task_with_mem(3, 40);
        let d = b.add_task(5);
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(a, d, 1).unwrap();
        b.set_mem(a, 10);
        let g = b.build().unwrap();
        assert_eq!(g.mem(a), 10);
        assert_eq!(g.mem(c), 40);
        assert_eq!(g.mem(d), 0);
        assert_eq!(g.mems(), &[10, 40, 0]);
        assert!(g.has_memory());
        assert_eq!(g.total_memory(), 50);
    }

    #[test]
    fn graphs_without_footprints_have_no_memory() {
        let g = chain3();
        assert!(!g.has_memory());
        assert_eq!(g.total_memory(), 0);
        assert_eq!(g.mems(), &[0, 0, 0]);
    }

    #[test]
    fn names_default_and_custom() {
        let mut b = DagBuilder::new();
        let a = b.add_node("alpha", 1);
        let c = b.add_task(1);
        b.add_edge(a, c, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.name(a), "alpha");
        assert_eq!(g.name(c), "n1");
    }
}
