//! The scalar reference for the §2 attributes: one id-keyed pass per
//! level over the DAG's edge views in topological order, and the
//! CPN / IBN / OBN classes by a reverse DFS from the CPN set. The
//! library computes the same attributes with the topo-keyed kernels of
//! `fastsched_dag::attributes`; `tests/soa_attributes.rs` checks them
//! against this module, integer for integer.

use fastsched::dag::{Cost, Dag, NodeClass, NodeId};

/// The t-level (ASAP start time) of every node: the length of the
/// longest path from an entry node to `n`, excluding `w(n)`.
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

/// The b-level of every node: the length of the longest path from `n`
/// to an exit node, including `w(n)` and the communication costs along
/// the path.
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

/// The static level: like [`b_levels_into`] but ignoring
/// communication costs.
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

/// The CPN / IBN / OBN class of every node given its CPN flags: one
/// reverse DFS from the CPN set over the predecessor edges marks every
/// node that reaches a CPN.
pub fn classify_by_dfs(dag: &Dag, cpn: &[bool]) -> Vec<NodeClass> {
    let mut seen = cpn.to_vec();
    let mut stack: Vec<NodeId> = dag.nodes().filter(|&n| cpn[n.index()]).collect();
    while let Some(n) = stack.pop() {
        for e in dag.preds(n) {
            if !seen[e.node.index()] {
                seen[e.node.index()] = true;
                stack.push(e.node);
            }
        }
    }
    dag.nodes()
        .map(|n| {
            if cpn[n.index()] {
                NodeClass::Cpn
            } else if seen[n.index()] {
                NodeClass::Ibn
            } else {
                NodeClass::Obn
            }
        })
        .collect()
}

/// Every `GraphAttributes` field, computed the scalar way.
pub struct ScalarAttributes {
    pub t_level: Vec<Cost>,
    pub b_level: Vec<Cost>,
    pub static_level: Vec<Cost>,
    pub alap: Vec<Cost>,
    pub cp_length: Cost,
    pub classes: Vec<NodeClass>,
}

impl ScalarAttributes {
    /// Three level passes, `cp = max(t + b)`, ALAP as `cp - b`, and the
    /// classes by [`classify_by_dfs`] from the nodes with `t + b == cp`.
    pub fn compute(dag: &Dag) -> Self {
        let (mut t_level, mut b_level, mut static_level) = (Vec::new(), Vec::new(), Vec::new());
        t_levels_into(dag, &mut t_level);
        b_levels_into(dag, &mut b_level);
        static_levels_into(dag, &mut static_level);
        let cp_length = t_level
            .iter()
            .zip(&b_level)
            .map(|(&t, &b)| t + b)
            .max()
            .expect("non-empty graph");
        let cpn: Vec<bool> = t_level
            .iter()
            .zip(&b_level)
            .map(|(&t, &b)| t + b == cp_length)
            .collect();
        Self {
            alap: b_level.iter().map(|&b| cp_length - b).collect(),
            classes: classify_by_dfs(dag, &cpn),
            t_level,
            b_level,
            static_level,
            cp_length,
        }
    }
}
