//! Topological-order and reachability helpers. The order itself is
//! frozen by [`crate::DagBuilder::build`] ([`Dag::topo_order`]).

use crate::graph::{Dag, NodeId};

/// `true` if `order` is a valid topological order of `dag` containing
/// every node exactly once.
pub fn is_topological_order(dag: &Dag, order: &[NodeId]) -> bool {
    if order.len() != dag.node_count() {
        return false;
    }
    let mut pos = vec![usize::MAX; dag.node_count()];
    for (i, &n) in order.iter().enumerate() {
        if n.index() >= dag.node_count() || pos[n.index()] != usize::MAX {
            return false;
        }
        pos[n.index()] = i;
    }
    dag.edges().all(|(s, d, _)| pos[s.index()] < pos[d.index()])
}

/// Inverse of a node order: `positions[n.index()]` is the index of `n`
/// in `order`. Panics if `order` is not a permutation of the
/// `num_nodes` node ids (duplicates, gaps, or out-of-range entries).
///
/// The incremental evaluator keeps this inverse alongside the order so
/// a node transfer can seek to its position in O(1).
pub fn order_positions(order: &[NodeId], num_nodes: usize) -> Vec<usize> {
    let mut pos = Vec::new();
    order_positions_into(order, num_nodes, &mut pos);
    pos
}

/// [`order_positions`] writing into a caller-owned buffer (cleared and
/// resized, capacity kept). Same panics on non-permutation input.
pub fn order_positions_into(order: &[NodeId], num_nodes: usize, pos: &mut Vec<usize>) {
    assert_eq!(order.len(), num_nodes, "order must cover every node");
    pos.clear();
    pos.resize(num_nodes, usize::MAX);
    for (i, &n) in order.iter().enumerate() {
        assert!(n.index() < num_nodes, "node {} out of range", n.0);
        assert_eq!(pos[n.index()], usize::MAX, "node {} repeated", n.0);
        pos[n.index()] = i;
    }
}

/// Set of nodes from which at least one node in `targets` is reachable
/// (including the targets themselves). Runs one reverse BFS seeded with
/// all targets: O(v + e).
pub fn reaches_any(dag: &Dag, targets: &[NodeId]) -> Vec<bool> {
    let mut seen = Vec::new();
    let mut stack = Vec::with_capacity(targets.len());
    reaches_any_into(dag, targets, &mut seen, &mut stack);
    seen
}

/// [`reaches_any`] writing the seen-set into a caller-owned buffer and
/// using a caller-owned BFS stack (both cleared, capacities kept).
pub fn reaches_any_into(
    dag: &Dag,
    targets: &[NodeId],
    seen: &mut Vec<bool>,
    stack: &mut Vec<NodeId>,
) {
    seen.clear();
    seen.resize(dag.node_count(), false);
    stack.clear();
    for &t in targets {
        if !seen[t.index()] {
            seen[t.index()] = true;
            stack.push(t);
        }
    }
    while let Some(n) = stack.pop() {
        for e in dag.preds(n) {
            if !seen[e.node.index()] {
                seen[e.node.index()] = true;
                stack.push(e.node);
            }
        }
    }
}

/// Depth of each node: the number of edges on the longest edge-count
/// path from an entry node (entries have depth 0).
pub fn depths(dag: &Dag) -> Vec<u32> {
    let mut depth = vec![0u32; dag.node_count()];
    for &n in dag.topo_order() {
        for e in dag.succs(n) {
            let d = depth[n.index()] + 1;
            if d > depth[e.node.index()] {
                depth[e.node.index()] = d;
            }
        }
    }
    depth
}

/// The height of the DAG: the maximum [`depths`] value plus one (the
/// number of "levels" in a layered drawing).
pub fn height(dag: &Dag) -> u32 {
    depths(dag).into_iter().max().map_or(0, |d| d + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;

    fn diamond() -> Dag {
        // a → b, a → c, b → d, c → d
        let mut b = DagBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_task(1)).collect();
        b.add_edge(n[0], n[1], 1).unwrap();
        b.add_edge(n[0], n[2], 1).unwrap();
        b.add_edge(n[1], n[3], 1).unwrap();
        b.add_edge(n[2], n[3], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn topo_order_is_valid_and_deterministic() {
        let g = diamond();
        let order = g.topo_order();
        assert!(is_topological_order(&g, order));
        // Kahn with min-id tie-break: 0, 1, 2, 3.
        assert_eq!(order, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn is_topological_order_rejects_bad_orders() {
        let g = diamond();
        assert!(!is_topological_order(
            &g,
            &[NodeId(1), NodeId(0), NodeId(2), NodeId(3)]
        ));
        // Wrong length.
        assert!(!is_topological_order(&g, &[NodeId(0)]));
        // Duplicate entry.
        assert!(!is_topological_order(
            &g,
            &[NodeId(0), NodeId(1), NodeId(1), NodeId(3)]
        ));
    }

    #[test]
    fn reaches_any_finds_all_ancestors() {
        let g = diamond();
        let r = reaches_any(&g, &[NodeId(3)]);
        assert_eq!(r, vec![true, true, true, true]);
        let r = reaches_any(&g, &[NodeId(1)]);
        assert_eq!(r, vec![true, true, false, false]);
    }

    #[test]
    fn order_positions_invert_the_order() {
        let order = vec![NodeId(0), NodeId(2), NodeId(1), NodeId(3)];
        assert_eq!(order_positions(&order, 4), vec![0, 2, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn order_positions_reject_duplicates() {
        order_positions(&[NodeId(0), NodeId(0)], 2);
    }

    #[test]
    fn depths_and_height() {
        let g = diamond();
        assert_eq!(depths(&g), vec![0, 1, 1, 2]);
        assert_eq!(height(&g), 3);
    }
}
