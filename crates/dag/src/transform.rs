//! Graph transformations used by experiments and preprocessing:
//! communication scaling (to sweep CCR regimes) and linear-chain
//! merging (the classic grain-packing step that precedes scheduling in
//! several systems of the paper's era, e.g. Sarkar's compile-time
//! partitioning).

use crate::graph::{Cost, Dag, DagBuilder, NodeId};

/// Scale every communication cost by `num / den` (rounded to nearest,
/// minimum 1), leaving computation costs untouched. The workhorse of
/// CCR-sweep experiments: `scale_communication(&dag, 1, 10)` turns a
/// CCR≈1 workload into a CCR≈0.1 one.
///
/// ```
/// use fastsched_dag::examples::paper_figure1;
/// use fastsched_dag::transform::scale_communication;
///
/// let dag = paper_figure1();
/// let cheap = scale_communication(&dag, 1, 4);
/// assert!(cheap.ccr() < dag.ccr() / 2.0);
/// assert_eq!(cheap.total_computation(), dag.total_computation());
/// ```
pub fn scale_communication(dag: &Dag, num: Cost, den: Cost) -> Dag {
    assert!(den > 0, "denominator must be positive");
    let mut b = DagBuilder::with_capacity(dag.node_count(), dag.edge_count());
    for n in dag.nodes() {
        b.add_node(dag.name(n), dag.weight(n));
    }
    for (s, d, c) in dag.edges() {
        let scaled = ((c * num + den / 2) / den).max(1);
        b.add_edge(s, d, scaled).unwrap();
    }
    b.build().expect("rescaling preserves the DAG structure")
}

/// Result of [`merge_linear_chains`]: the coarsened graph plus the
/// mapping from original node to coarse node.
#[derive(Debug, Clone)]
pub struct ChainMerge {
    /// The coarsened DAG.
    pub dag: Dag,
    /// `membership[original.index()]` = coarse node holding it.
    pub membership: Vec<NodeId>,
}

/// Contract every maximal *linear chain* — consecutive nodes where the
/// parent has exactly one child and the child exactly one parent —
/// into a single task whose weight is the chain's total computation.
/// The contracted edge's communication disappears (the chain shares a
/// processor by construction); all other edges are preserved.
///
/// Chain merging never increases the optimal schedule length for
/// communication-dominated chains and is a standard granularity
/// adjustment before scheduling fine-grain graphs.
///
/// ```
/// use fastsched_dag::examples::chain;
/// use fastsched_dag::transform::merge_linear_chains;
///
/// let fine = chain(10, 3, 50); // ten 3-unit tasks, 50-unit messages
/// let coarse = merge_linear_chains(&fine);
/// assert_eq!(coarse.dag.node_count(), 1); // one 30-unit task
/// ```
pub fn merge_linear_chains(dag: &Dag) -> ChainMerge {
    let v = dag.node_count();
    // head[i]: first node of the chain containing i, following unique
    // parent-child links.
    let mut is_chain_child = vec![false; v];
    for n in dag.nodes() {
        if dag.in_degree(n) == 1 {
            let parent = dag.preds(n).get(0).node;
            if dag.out_degree(parent) == 1 {
                is_chain_child[n.index()] = true;
            }
        }
    }

    // Walk in topological order: a chain child joins its parent's
    // coarse node; everyone else opens a new coarse node.
    let mut membership: Vec<Option<NodeId>> = vec![None; v];
    let mut coarse_weight: Vec<Cost> = Vec::new();
    let mut coarse_name: Vec<String> = Vec::new();
    for &n in dag.topo_order() {
        if is_chain_child[n.index()] {
            let parent = dag.preds(n).get(0).node;
            let coarse = membership[parent.index()].expect("parent visited before child");
            membership[n.index()] = Some(coarse);
            coarse_weight[coarse.index()] += dag.weight(n);
        } else {
            let id = NodeId(coarse_weight.len() as u32);
            coarse_weight.push(dag.weight(n));
            coarse_name.push(dag.name(n).to_string());
            membership[n.index()] = Some(id);
        }
    }
    let membership: Vec<NodeId> = membership.into_iter().map(Option::unwrap).collect();

    let mut b = DagBuilder::with_capacity(coarse_weight.len(), dag.edge_count());
    for (name, &w) in coarse_name.iter().zip(&coarse_weight) {
        b.add_node(name, w);
    }
    // Keep the heaviest message between each coarse pair (parallel
    // edges arise when two originals map to the same coarse pair).
    let mut best: std::collections::HashMap<(NodeId, NodeId), Cost> =
        std::collections::HashMap::new();
    for (s, d, c) in dag.edges() {
        let (cs, cd) = (membership[s.index()], membership[d.index()]);
        if cs == cd {
            continue; // contracted chain edge
        }
        let slot = best.entry((cs, cd)).or_insert(0);
        *slot = (*slot).max(c);
    }
    let mut pairs: Vec<((NodeId, NodeId), Cost)> = best.into_iter().collect();
    pairs.sort_unstable();
    for ((s, d), c) in pairs {
        b.add_edge(s, d, c).unwrap();
    }

    ChainMerge {
        dag: b.build().expect("chain contraction preserves acyclicity"),
        membership,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{chain, fork_join, paper_figure1};

    #[test]
    fn scaling_changes_ccr_proportionally() {
        let g = paper_figure1();
        let halved = scale_communication(&g, 1, 2);
        assert_eq!(halved.node_count(), g.node_count());
        assert_eq!(halved.edge_count(), g.edge_count());
        assert!(halved.ccr() < g.ccr());
        let doubled = scale_communication(&g, 2, 1);
        assert!((doubled.ccr() / g.ccr() - 2.0).abs() < 0.05);
    }

    #[test]
    fn scaling_clamps_to_one() {
        let g = chain(3, 5, 3);
        let tiny = scale_communication(&g, 1, 100);
        assert!(tiny.edges().all(|(_, _, c)| c == 1));
    }

    #[test]
    fn pure_chain_merges_to_one_node() {
        let g = chain(6, 4, 9);
        let m = merge_linear_chains(&g);
        assert_eq!(m.dag.node_count(), 1);
        assert_eq!(m.dag.weight(NodeId(0)), 24);
        assert!(m.membership.iter().all(|&c| c == NodeId(0)));
    }

    #[test]
    fn fork_join_is_untouched() {
        // No node pair has unique-parent/unique-child on both sides
        // except... fork(1 child each?) fork has `width` children:
        // nothing merges when width > 1.
        let g = fork_join(3, 5, 2);
        let m = merge_linear_chains(&g);
        assert_eq!(m.dag.node_count(), g.node_count());
        assert_eq!(m.dag.edge_count(), g.edge_count());
    }

    #[test]
    fn mixed_graph_merges_only_the_chain_segment() {
        // a → b → c → {d, e}: a-b-c is a chain (c keeps its children).
        let mut bld = crate::graph::DagBuilder::new();
        let a = bld.add_task(1);
        let b = bld.add_task(2);
        let c = bld.add_task(3);
        let d = bld.add_task(4);
        let e = bld.add_task(5);
        bld.add_edge(a, b, 10).unwrap();
        bld.add_edge(b, c, 10).unwrap();
        bld.add_edge(c, d, 7).unwrap();
        bld.add_edge(c, e, 8).unwrap();
        let g = bld.build().unwrap();
        let m = merge_linear_chains(&g);
        assert_eq!(m.dag.node_count(), 3); // abc, d, e
        let abc = m.membership[a.index()];
        assert_eq!(m.membership[b.index()], abc);
        assert_eq!(m.membership[c.index()], abc);
        assert_eq!(m.dag.weight(abc), 6);
        // The outgoing messages survive with their costs.
        let mut out: Vec<u64> = m.dag.succs(abc).iter().map(|e| e.cost).collect();
        out.sort_unstable();
        assert_eq!(out, vec![7, 8]);
    }

    #[test]
    fn merged_graph_preserves_total_computation() {
        let g = paper_figure1();
        let m = merge_linear_chains(&g);
        assert_eq!(m.dag.total_computation(), g.total_computation());
    }
}
