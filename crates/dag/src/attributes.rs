//! The scheduling attributes of §2 of the paper: *t-level* (ASAP),
//! *b-level*, *static level* (SL), *ALAP*, critical-path length and
//! the CPN / IBN / OBN class of every node.
//!
//! One kernel family computes them: single O(v + e) sweeps over the
//! successor CSR keyed by topo position ([`crate::graph::TopoCsr`]),
//! scattered back to node ids. [`ListAttributes`] fuses the t-level,
//! b-level and class into two sweeps; [`GraphAttributes`] adds the
//! static level and ALAP on top of it.

use crate::classify::NodeClass;
use crate::graph::{Cost, Dag, NodeId};

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

/// The *t-level* (ASAP start time) over the topo-keyed SoA plane:
/// `out[p]` is the length of the longest path from an entry node to
/// the node at topo position `p`, excluding its own weight. A single
/// forward scan of the [`crate::graph::TopoCsr`] lanes — the inner
/// relax is a branchless `max`, and every read in the fold is a
/// contiguous lane access.
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

/// The *static level* (SL, also called static b-level) over the
/// topo-keyed SoA plane (see [`t_levels_topo_into`]): the b-level with
/// communication ignored, so the gather never reads the cost lane.
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

/// [`static_levels_topo_into`] scattered to the id-keyed `out`, through
/// `lanes.s`. Both buffers keep their capacity.
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
/// its class is [`NodeClass::Cpn`]), plus the critical-path length.
/// The list never reads static level or ALAP, so they are not
/// computed; [`GraphAttributes`] has them.
#[derive(Debug, Default, Clone)]
pub struct ListAttributes {
    /// t-level (ASAP start time) per node.
    pub t_level: Vec<Cost>,
    /// b-level per node.
    pub b_level: Vec<Cost>,
    /// CPN / IBN / OBN class per node.
    pub classes: Vec<NodeClass>,
    /// Critical-path length: `max_n (t_level + b_level)`.
    pub cp_length: Cost,
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
    ///   A node reaches a CPN exactly when one of its successors is a
    ///   CPN or reaches one, so this is the §4.1 IBN.
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
        self.cp_length = cp;
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

/// All §2 attributes of a DAG, id-keyed: [`ListAttributes`] plus the
/// static level and ALAP.
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
    /// CPN / IBN / OBN class per node; a node is a CPN iff
    /// `t_level + b_level == cp_length`.
    pub classes: Vec<NodeClass>,
}

impl GraphAttributes {
    /// Compute every attribute for `dag`: the fused
    /// [`ListAttributes::compute_into`] sweeps, one static-level sweep
    /// and `cp_length - b_level` for ALAP.
    pub fn compute(dag: &Dag) -> Self {
        let mut lanes = AttrLanes::new();
        let mut list = ListAttributes::new();
        list.compute_into(dag, &mut lanes);
        let mut static_level = Vec::new();
        static_levels_soa_into(dag, &mut lanes, &mut static_level);
        let cp_length = list.cp_length;
        let alap = list.b_level.iter().map(|&b| cp_length - b).collect();
        Self {
            t_level: list.t_level,
            b_level: list.b_level,
            static_level,
            alap,
            cp_length,
            classes: list.classes,
        }
    }

    /// `true` if `n` lies on a critical path.
    #[inline]
    pub fn is_cpn(&self, n: NodeId) -> bool {
        self.classes[n.index()] == NodeClass::Cpn
    }

    /// One concrete critical path, as a node sequence from an entry CPN
    /// to an exit CPN, following edges that stay tight
    /// (`t + w + c == t_child` and child is a CPN).
    pub fn critical_path(&self, dag: &Dag) -> Vec<NodeId> {
        // Start at a CPN entry node with t-level 0.
        let mut cur = dag
            .nodes()
            .find(|&n| self.is_cpn(n) && self.t_level[n.index()] == 0)
            .expect("a critical path always starts at an entry node");
        let mut path = vec![cur];
        loop {
            let reach = self.t_level[cur.index()] + dag.weight(cur);
            let next = dag.succs(cur).iter().find(|e| {
                self.is_cpn(e.node)
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

    /// t(a)=0, t(b)=2+4=6, t(c)=2+1=3, t(d)=max(6+3+2, 3+5+1)=11.
    const SAMPLE_T: [Cost; 4] = [0, 6, 3, 11];
    /// b(d)=1, b(b)=3+2+1=6, b(c)=5+1+1=7, b(a)=2+max(4+6,1+7)=12.
    const SAMPLE_B: [Cost; 4] = [12, 6, 7, 1];
    /// sl(d)=1, sl(b)=4, sl(c)=6, sl(a)=2+6=8: communication ignored.
    const SAMPLE_SL: [Cost; 4] = [8, 4, 6, 1];

    #[test]
    fn t_levels_match_hand_computation() {
        assert_eq!(GraphAttributes::compute(&sample()).t_level, SAMPLE_T);
    }

    #[test]
    fn b_levels_match_hand_computation() {
        assert_eq!(GraphAttributes::compute(&sample()).b_level, SAMPLE_B);
    }

    #[test]
    fn static_levels_ignore_communication() {
        assert_eq!(GraphAttributes::compute(&sample()).static_level, SAMPLE_SL);
    }

    #[test]
    fn cp_and_alap() {
        let g = sample();
        let at = GraphAttributes::compute(&g);
        assert_eq!(at.cp_length, 12);
        // t+b: a=12*, b=12*, c=10, d=12*; c reaches the CPN d.
        use NodeClass::{Cpn, Ibn};
        assert_eq!(at.classes, vec![Cpn, Cpn, Ibn, Cpn]);
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

    /// Scatter a topo-keyed lane back to id keying.
    fn to_id_space(g: &Dag, lane: &[u64]) -> Vec<u64> {
        let mut out = vec![0; g.node_count()];
        for (p, &n) in g.topo_order().iter().enumerate() {
            out[n.index()] = lane[p];
        }
        out
    }

    /// The hand-computed levels are what the scalar reference
    /// (`tests/scalar_levels`) computes for `sample()`.
    #[test]
    fn topo_kernels_match_scalar_reference() {
        let g = sample();
        let mut lane = Vec::new();
        t_levels_topo_into(&g, &mut lane);
        assert_eq!(to_id_space(&g, &lane), SAMPLE_T);
        let mut list = ListAttributes::new();
        list.compute_into(&g, &mut AttrLanes::new());
        assert_eq!(list.b_level, SAMPLE_B);
        static_levels_topo_into(&g, &mut lane);
        assert_eq!(to_id_space(&g, &lane), SAMPLE_SL);
    }

    #[test]
    fn static_levels_soa_scatter_matches_scalar() {
        let mut soa = Vec::new();
        static_levels_soa_into(&sample(), &mut AttrLanes::new(), &mut soa);
        assert_eq!(soa, SAMPLE_SL);
    }

    #[test]
    fn list_attributes_match_compute_and_classify() {
        // Disconnected + skip edges: multiple entries, one node of each
        // class.
        let mut b = DagBuilder::new();
        let a = b.add_task(10);
        let c = b.add_task(2);
        let d = b.add_task(3);
        let e = b.add_task(4);
        b.add_edge(c, d, 1).unwrap();
        b.add_edge(c, e, 7).unwrap();
        b.add_edge(a, e, 2).unwrap();
        let g = b.build().unwrap();
        let mut list = ListAttributes::new();
        let reads = list.compute_into(&g, &mut AttrLanes::new());
        assert_eq!(reads, 2 * g.edge_count() as u64);
        // t(e) = max(10+2, 2+7); b(c) = 2 + max(1+3, 7+4).
        assert_eq!(list.t_level, vec![0, 0, 3, 12]);
        assert_eq!(list.b_level, vec![16, 13, 3, 4]);
        assert_eq!(list.cp_length, 16);
        // a and e are tight; c reaches e; d reaches nothing critical.
        use NodeClass::{Cpn, Ibn, Obn};
        assert_eq!(list.classes, vec![Cpn, Ibn, Obn, Cpn]);
        let at = GraphAttributes::compute(&g);
        assert_eq!(at.t_level, list.t_level);
        assert_eq!(at.b_level, list.b_level);
        assert_eq!(at.cp_length, list.cp_length);
        assert_eq!(crate::classify::classify_nodes(&g, &at), list.classes);
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
        assert!(at.is_cpn(NodeId(0)));
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
