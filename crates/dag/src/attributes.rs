//! The scheduling attributes of §2 of the paper: *t-level* (ASAP),
//! *b-level*, *static level* (SL), *ALAP*, critical-path length and
//! critical-path-node (CPN) identification.
//!
//! All passes are single O(v + e) sweeps over the frozen topological
//! order.

use crate::classify::NodeClass;
use crate::graph::{Cost, Dag, NodeId};

/// The *t-level* (ASAP start time) of every node: the length of the
/// longest path from an entry node to `n`, excluding `w(n)`.
pub fn t_levels(dag: &Dag) -> Vec<Cost> {
    let mut tl = Vec::new();
    t_levels_into(dag, &mut tl);
    tl
}

/// [`t_levels`] writing into a caller-owned buffer. `out` is cleared
/// and resized (capacity is kept), so reusing the same buffer across
/// calls allocates nothing once it has reached its peak size.
pub fn t_levels_into(dag: &Dag, out: &mut Vec<Cost>) {
    out.clear();
    out.resize(dag.node_count(), 0);
    for &n in dag.topo_order() {
        let reach = out[n.index()] + dag.weight(n);
        for e in dag.succs(n) {
            let cand = reach + e.cost;
            if cand > out[e.node.index()] {
                out[e.node.index()] = cand;
            }
        }
    }
}

/// The *b-level* of every node: the length of the longest path from `n`
/// to an exit node, including `w(n)` and the communication costs along
/// the path.
pub fn b_levels(dag: &Dag) -> Vec<Cost> {
    let mut bl = Vec::new();
    b_levels_into(dag, &mut bl);
    bl
}

/// [`b_levels`] writing into a caller-owned buffer (cleared, not
/// dropped — see [`t_levels_into`]).
pub fn b_levels_into(dag: &Dag, out: &mut Vec<Cost>) {
    out.clear();
    out.resize(dag.node_count(), 0);
    for &n in dag.topo_order().iter().rev() {
        let mut best = 0;
        for e in dag.succs(n) {
            let cand = e.cost + out[e.node.index()];
            if cand > best {
                best = cand;
            }
        }
        out[n.index()] = dag.weight(n) + best;
    }
}

/// The *static level* (SL, also called static b-level): like
/// [`b_levels`] but ignoring communication costs.
pub fn static_levels(dag: &Dag) -> Vec<Cost> {
    let mut sl = Vec::new();
    static_levels_into(dag, &mut sl);
    sl
}

/// [`static_levels`] writing into a caller-owned buffer (cleared, not
/// dropped — see [`t_levels_into`]).
pub fn static_levels_into(dag: &Dag, out: &mut Vec<Cost>) {
    out.clear();
    out.resize(dag.node_count(), 0);
    for &n in dag.topo_order().iter().rev() {
        let best = dag
            .succs(n)
            .iter()
            .map(|e| out[e.node.index()])
            .max()
            .unwrap_or(0);
        out[n.index()] = dag.weight(n) + best;
    }
}

/// Reusable topo-position-keyed attribute lanes: the scratch plane the
/// SoA sweep kernels write before results are scattered back to
/// id-keyed buffers. One instance per [`crate::graph::Dag`]-consumer
/// (e.g. a scheduling workspace); cleared and refilled per call, never
/// dropped, so steady-state use allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct AttrLanes {
    /// t-level keyed by topo position.
    pub t: Vec<Cost>,
    /// b-level keyed by topo position.
    pub b: Vec<Cost>,
    /// Static level keyed by topo position.
    pub s: Vec<Cost>,
    /// CPN / IBN / OBN class keyed by topo position.
    pub class: Vec<NodeClass>,
}

impl AttrLanes {
    /// Empty lane set (no buffers held yet).
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`t_levels`] over the topo-keyed SoA plane: `out[p]` is the t-level
/// of the node at topo position `p`. A single forward scan of the
/// [`crate::graph::TopoCsr`] lanes — the inner relax is a branchless
/// `max`, and every read in the fold is a contiguous lane access.
///
/// Identical integer math to [`t_levels_into`] over the same edge
/// sets, so the scattered result is byte-identical to the scalar
/// reference.
pub fn t_levels_topo_into(dag: &Dag, out: &mut Vec<Cost>) {
    let csr = dag.topo_csr();
    let v = csr.weights.len();
    out.clear();
    out.resize(v, 0);
    for p in 0..v {
        let reach = out[p] + csr.weights[p];
        let (lo, hi) = (csr.offsets[p] as usize, csr.offsets[p + 1] as usize);
        for (&t, &c) in csr.targets[lo..hi].iter().zip(&csr.costs[lo..hi]) {
            let slot = &mut out[t as usize];
            *slot = (*slot).max(reach + c);
        }
    }
}

/// [`b_levels`] over the topo-keyed SoA plane (see
/// [`t_levels_topo_into`]); a single backward scan whose inner loop is
/// a pure gather-max over the target/cost lanes.
pub fn b_levels_topo_into(dag: &Dag, out: &mut Vec<Cost>) {
    let csr = dag.topo_csr();
    let v = csr.weights.len();
    out.clear();
    out.resize(v, 0);
    for p in (0..v).rev() {
        let (lo, hi) = (csr.offsets[p] as usize, csr.offsets[p + 1] as usize);
        let best = csr.targets[lo..hi]
            .iter()
            .zip(&csr.costs[lo..hi])
            .fold(0, |acc: Cost, (&t, &c)| acc.max(c + out[t as usize]));
        out[p] = csr.weights[p] + best;
    }
}

/// [`static_levels`] over the topo-keyed SoA plane (see
/// [`t_levels_topo_into`]); the gather ignores the cost lane entirely.
pub fn static_levels_topo_into(dag: &Dag, out: &mut Vec<Cost>) {
    let csr = dag.topo_csr();
    let v = csr.weights.len();
    out.clear();
    out.resize(v, 0);
    for p in (0..v).rev() {
        let (lo, hi) = (csr.offsets[p] as usize, csr.offsets[p + 1] as usize);
        let best = csr.targets[lo..hi]
            .iter()
            .fold(0, |acc: Cost, &t| acc.max(out[t as usize]));
        out[p] = csr.weights[p] + best;
    }
}

/// [`static_levels_into`] via the SoA sweep: computes the lane in topo
/// space, then scatters to the id-keyed `out`. Byte-identical to the
/// scalar reference.
pub fn static_levels_soa_into(dag: &Dag, lanes: &mut AttrLanes, out: &mut Vec<Cost>) {
    static_levels_topo_into(dag, &mut lanes.s);
    out.clear();
    out.resize(dag.node_count(), 0);
    for (p, &n) in dag.topo_order().iter().enumerate() {
        out[n.index()] = lanes.s[p];
    }
}

/// The attributes FAST's CPN-Dominate list reads (§4.1), id-keyed:
/// t-level, b-level and the CPN / IBN / OBN class (a node is a CPN iff
/// its class is [`NodeClass::Cpn`]). The list never reads static level
/// or ALAP, so they are not computed; [`GraphAttributes`] has them.
#[derive(Debug, Default, Clone)]
pub struct ListAttributes {
    /// t-level (ASAP start time) per node.
    pub t_level: Vec<Cost>,
    /// b-level per node.
    pub b_level: Vec<Cost>,
    /// CPN / IBN / OBN class per node.
    pub classes: Vec<NodeClass>,
}

impl ListAttributes {
    /// An empty attribute set holding no buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill every lane for `dag` in two edge passes over the topo CSR
    /// and one scatter to id keying, keeping every buffer's capacity.
    /// Returns the number of edge entries read, `2e`.
    ///
    /// * Forward: the t-level ([`t_levels_topo_into`]); the
    ///   critical-path length is `max(t + w)`. The longest path ends at
    ///   an exit node, whose b-level is its weight, and any other
    ///   node's `t + w` is below its successors' t-level.
    /// * Backward: the b-level, then the class. A node is a CPN when
    ///   `t + b` is the critical-path length, an IBN when it is not but
    ///   some successor is a CPN or an IBN, and an OBN otherwise; the
    ///   same gather that folds the b-level ORs the successors' flags.
    ///
    /// Equal to [`GraphAttributes::compute`] plus
    /// [`crate::classify::classify_nodes`], lane for lane.
    pub fn compute_into(&mut self, dag: &Dag, lanes: &mut AttrLanes) -> u64 {
        let csr = dag.topo_csr();
        let v = csr.weights.len();
        t_levels_topo_into(dag, &mut lanes.t);
        let cp = lanes
            .t
            .iter()
            .zip(csr.weights)
            .map(|(&t, &w)| t + w)
            .max()
            .unwrap_or(0);
        // Position `p` reads only positions after it, all written
        // earlier in the backward pass, so no lane needs a clear.
        lanes.b.resize(v, 0);
        lanes.class.resize(v, NodeClass::Obn);
        for p in (0..v).rev() {
            let (lo, hi) = (csr.offsets[p] as usize, csr.offsets[p + 1] as usize);
            let (best, reaches) = csr.targets[lo..hi].iter().zip(&csr.costs[lo..hi]).fold(
                (0, false),
                |(acc, reaches): (Cost, bool), (&t, &c)| {
                    let t = t as usize;
                    (
                        acc.max(c + lanes.b[t]),
                        reaches | (lanes.class[t] != NodeClass::Obn),
                    )
                },
            );
            let b = csr.weights[p] + best;
            lanes.b[p] = b;
            lanes.class[p] = if lanes.t[p] + b == cp {
                NodeClass::Cpn
            } else if reaches {
                NodeClass::Ibn
            } else {
                NodeClass::Obn
            };
        }
        // Every id is written once (the topo order is a permutation).
        self.t_level.resize(v, 0);
        self.b_level.resize(v, 0);
        self.classes.resize(v, NodeClass::Obn);
        for (p, &n) in csr.node_at.iter().enumerate() {
            let i = n.index();
            self.t_level[i] = lanes.t[p];
            self.b_level[i] = lanes.b[p];
            self.classes[i] = lanes.class[p];
        }
        2 * csr.targets.len() as u64
    }
}

/// All §2 attributes of a DAG, computed in three O(v + e) passes.
#[derive(Debug, Clone)]
pub struct GraphAttributes {
    /// t-level (ASAP start time) per node.
    pub t_level: Vec<Cost>,
    /// b-level per node.
    pub b_level: Vec<Cost>,
    /// Static level (SL) per node.
    pub static_level: Vec<Cost>,
    /// ALAP start time per node: `cp_length - b_level`.
    pub alap: Vec<Cost>,
    /// Critical-path length: `max_n (t_level + b_level)`.
    pub cp_length: Cost,
    /// `cpn[n]` is `true` iff `t_level[n] + b_level[n] == cp_length`.
    pub cpn: Vec<bool>,
}

impl GraphAttributes {
    /// An empty attribute set holding no buffers; fill it with
    /// [`GraphAttributes::compute_into`]. This is the workspace seed
    /// value: create once, recompute in place per DAG.
    pub fn empty() -> Self {
        Self {
            t_level: Vec::new(),
            b_level: Vec::new(),
            static_level: Vec::new(),
            alap: Vec::new(),
            cp_length: 0,
            cpn: Vec::new(),
        }
    }

    /// Compute every attribute for `dag`.
    pub fn compute(dag: &Dag) -> Self {
        let mut out = Self::empty();
        Self::compute_into(dag, &mut out);
        out
    }

    /// [`GraphAttributes::compute`] writing into an existing attribute
    /// set. All buffers are cleared and refilled, never dropped, so a
    /// reused `out` allocates nothing once its capacities have reached
    /// the largest DAG seen so far.
    pub fn compute_into(dag: &Dag, out: &mut GraphAttributes) {
        t_levels_into(dag, &mut out.t_level);
        b_levels_into(dag, &mut out.b_level);
        static_levels_into(dag, &mut out.static_level);
        let cp_length = out
            .t_level
            .iter()
            .zip(&out.b_level)
            .map(|(&t, &b)| t + b)
            .max()
            .expect("non-empty graph");
        out.cp_length = cp_length;
        out.cpn.clear();
        out.cpn.extend(
            out.t_level
                .iter()
                .zip(&out.b_level)
                .map(|(&t, &b)| t + b == cp_length),
        );
        out.alap.clear();
        out.alap.extend(out.b_level.iter().map(|&b| cp_length - b));
    }

    /// `true` if `n` lies on a critical path.
    #[inline]
    pub fn is_cpn(&self, n: NodeId) -> bool {
        self.cpn[n.index()]
    }

    /// One concrete critical path, as a node sequence from an entry CPN
    /// to an exit CPN, following edges that stay tight
    /// (`t + w + c == t_child` and child is a CPN).
    pub fn critical_path(&self, dag: &Dag) -> Vec<NodeId> {
        // Start at a CPN entry node with t-level 0.
        let mut cur = (0..dag.node_count() as u32)
            .map(NodeId)
            .find(|&n| self.cpn[n.index()] && self.t_level[n.index()] == 0)
            .expect("a critical path always starts at an entry node");
        let mut path = vec![cur];
        loop {
            let reach = self.t_level[cur.index()] + dag.weight(cur);
            let next = dag.succs(cur).iter().find(|e| {
                self.cpn[e.node.index()]
                    && reach + e.cost == self.t_level[e.node.index()]
                    && self.b_level[cur.index()]
                        == dag.weight(cur) + e.cost + self.b_level[e.node.index()]
            });
            match next {
                Some(e) => {
                    cur = e.node;
                    path.push(cur);
                }
                None => break,
            }
        }
        path
    }

    /// *Relative mobility* of every node as used by the MD algorithm:
    /// `(ALAP - ASAP) / w(n)`. CPNs have mobility zero.
    pub fn relative_mobility(&self, dag: &Dag) -> Vec<f64> {
        (0..dag.node_count())
            .map(|i| (self.alap[i] - self.t_level[i]) as f64 / dag.weights()[i] as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;

    /// Small hand-checkable graph:
    ///
    /// ```text
    ///   a(2) --4--> b(3) --2--> d(1)
    ///     \--1--> c(5) ----1------^
    /// ```
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

    #[test]
    fn t_levels_match_hand_computation() {
        let g = sample();
        // t(a)=0, t(b)=2+4=6, t(c)=2+1=3, t(d)=max(6+3+2, 3+5+1)=11.
        assert_eq!(t_levels(&g), vec![0, 6, 3, 11]);
    }

    #[test]
    fn b_levels_match_hand_computation() {
        let g = sample();
        // b(d)=1, b(b)=3+2+1=6, b(c)=5+1+1=7, b(a)=2+max(4+6,1+7)=12.
        assert_eq!(b_levels(&g), vec![12, 6, 7, 1]);
    }

    #[test]
    fn static_levels_ignore_communication() {
        let g = sample();
        // sl(d)=1, sl(b)=4, sl(c)=6, sl(a)=2+6=8.
        assert_eq!(static_levels(&g), vec![8, 4, 6, 1]);
    }

    #[test]
    fn cp_and_alap() {
        let g = sample();
        let at = GraphAttributes::compute(&g);
        assert_eq!(at.cp_length, 12);
        // t+b: a=12*, b=12*, c=10, d=12*.
        assert_eq!(at.cpn, vec![true, true, false, true]);
        // ALAP = 12 - b.
        assert_eq!(at.alap, vec![0, 6, 5, 11]);
        // ASAP == ALAP exactly on CPNs (paper §2).
        for n in g.nodes() {
            assert_eq!(
                at.t_level[n.index()] == at.alap[n.index()],
                at.is_cpn(n),
                "ASAP==ALAP must characterize CPNs, node {n}"
            );
        }
    }

    #[test]
    fn critical_path_is_a_tight_cpn_path() {
        let g = sample();
        let at = GraphAttributes::compute(&g);
        let cp = at.critical_path(&g);
        assert_eq!(cp, vec![NodeId(0), NodeId(1), NodeId(3)]);
        // Path length equals CP length.
        let mut len = 0;
        for w in cp.windows(2) {
            len += g.weight(w[0]) + g.edge_cost(w[0], w[1]).unwrap();
        }
        len += g.weight(*cp.last().unwrap());
        assert_eq!(len, at.cp_length);
    }

    #[test]
    fn relative_mobility_zero_exactly_on_cpns() {
        let g = sample();
        let at = GraphAttributes::compute(&g);
        let mob = at.relative_mobility(&g);
        for n in g.nodes() {
            assert_eq!(mob[n.index()] == 0.0, at.is_cpn(n));
        }
        // c: (5 - 3) / 5 = 0.4.
        assert!((mob[2] - 0.4).abs() < 1e-12);
    }

    /// Scatter a topo-keyed lane back to id keying.
    fn to_id_space(g: &Dag, lane: &[u64]) -> Vec<u64> {
        let mut out = vec![0; g.node_count()];
        for (p, &n) in g.topo_order().iter().enumerate() {
            out[n.index()] = lane[p];
        }
        out
    }

    #[test]
    fn topo_kernels_match_scalar_reference() {
        let g = sample();
        let mut lane = Vec::new();
        t_levels_topo_into(&g, &mut lane);
        assert_eq!(to_id_space(&g, &lane), t_levels(&g));
        b_levels_topo_into(&g, &mut lane);
        assert_eq!(to_id_space(&g, &lane), b_levels(&g));
        static_levels_topo_into(&g, &mut lane);
        assert_eq!(to_id_space(&g, &lane), static_levels(&g));
    }

    #[test]
    fn static_levels_soa_scatter_matches_scalar() {
        let g = sample();
        let mut lanes = AttrLanes::new();
        let mut soa = Vec::new();
        static_levels_soa_into(&g, &mut lanes, &mut soa);
        assert_eq!(soa, static_levels(&g));
    }

    #[test]
    fn list_attributes_match_compute_and_classify() {
        for g in [sample(), {
            // Disconnected + skip edges: exercises multiple entries.
            let mut b = DagBuilder::new();
            let a = b.add_task(10);
            let c = b.add_task(2);
            let d = b.add_task(3);
            let e = b.add_task(4);
            b.add_edge(c, d, 1).unwrap();
            b.add_edge(c, e, 7).unwrap();
            b.add_edge(a, e, 2).unwrap();
            b.build().unwrap()
        }] {
            let scalar = GraphAttributes::compute(&g);
            let mut lanes = AttrLanes::new();
            let mut list = ListAttributes::new();
            let reads = list.compute_into(&g, &mut lanes);
            assert_eq!(reads, 2 * g.edge_count() as u64);
            assert_eq!(list.t_level, scalar.t_level);
            assert_eq!(list.b_level, scalar.b_level);
            assert_eq!(list.classes, crate::classify::classify_nodes(&g, &scalar));
        }
    }

    #[test]
    fn single_node_graph() {
        let mut b = DagBuilder::new();
        b.add_task(7);
        let g = b.build().unwrap();
        let at = GraphAttributes::compute(&g);
        assert_eq!(at.cp_length, 7);
        assert_eq!(at.t_level, vec![0]);
        assert_eq!(at.b_level, vec![7]);
        assert!(at.cpn[0]);
    }

    #[test]
    fn disconnected_components_share_cp_length() {
        // Two isolated chains; CP length is the longer one.
        let mut b = DagBuilder::new();
        let a = b.add_task(10);
        let c = b.add_task(2);
        let d = b.add_task(3);
        b.add_edge(c, d, 1).unwrap();
        let g = b.build().unwrap();
        let at = GraphAttributes::compute(&g);
        assert_eq!(at.cp_length, 10);
        assert!(at.is_cpn(a));
        assert!(!at.is_cpn(c) && !at.is_cpn(d));
    }
}
