//! Small example task graphs shared across the workspace, most notably
//! the reconstruction of the paper's Figure 1 example DAG.

use crate::graph::{Dag, DagBuilder, NodeId};

/// The reconstructed 9-node example DAG of the paper's Figure 1.
///
/// The original node/edge weights are only legible in the paper's
/// figure image, which our source does not preserve, so this graph is
/// an algebraic reconstruction satisfying *every* textual constraint in
/// §2 and §4 of the paper:
///
/// * the CPNs are exactly `{n1, n7, n9}` with critical path
///   `n1 → n7 → n9`;
/// * the CPN-Dominate list is exactly
///   `{n1, n3, n2, n7, n6, n5, n4, n8, n9}`;
/// * `b(n2) == b(n3)` with `t(n3) < t(n2)`, so the stated tie-break
///   ("smaller t-level") places `n3` before `n2`;
/// * `b(n6) == b(n8)` with `t(n6) < t(n8)` ("note that n8 is considered
///   after n6 because n6 has a smaller t-level");
/// * `n5 → n4 → n8` forms an in-branch chain, so the recursive
///   ancestor-inclusion step of the list procedure emits
///   `n6, n5, n4, n8`;
/// * there is no OBN, and the blocking-node list is
///   `{n2, n3, n4, n5, n6, n8}`;
/// * `SL(n5) > SL(n2)`, reproducing the mis-prioritization that makes
///   ETF/DLS schedule `n5` too early in the paper's Figure 2.
///
/// Node ids are zero-based: the paper's `n1` is `NodeId(0)`, …, `n9`
/// is `NodeId(8)`. Use [`paper_node`] to convert.
///
/// | node | w | t-level | b-level | SL | ALAP |
/// |------|---|---------|---------|----|------|
/// | n1   | 2 | 0       | 23      | 16 | 0    |
/// | n2   | 3 | 6       | 15      | 8  | 8    |
/// | n3   | 3 | 3       | 15      | 8  | 8    |
/// | n4   | 4 | 9       | 13      | 9  | 10   |
/// | n5   | 5 | 3       | 19      | 14 | 4    |
/// | n6   | 4 | 10      | 8       | 5  | 15   |
/// | n7   | 4 | 12      | 11      | 5  | 12   |
/// | n8   | 4 | 14      | 8       | 5  | 15   |
/// | n9   | 1 | 22      | 1       | 1  | 22   |
pub fn paper_figure1() -> Dag {
    let mut b = DagBuilder::new();
    let n: Vec<NodeId> = [2u64, 3, 3, 4, 5, 4, 4, 4, 1]
        .iter()
        .enumerate()
        .map(|(i, &w)| b.add_node(format!("n{}", i + 1), w))
        .collect();
    let edges: &[(usize, usize, u64)] = &[
        (1, 2, 4),  // n1 → n2
        (1, 3, 1),  // n1 → n3
        (1, 5, 1),  // n1 → n5
        (1, 7, 10), // n1 → n7 (the heavy critical edge)
        (2, 6, 1),  // n2 → n6
        (2, 7, 1),  // n2 → n7
        (3, 7, 1),  // n3 → n7
        (5, 4, 1),  // n5 → n4
        (4, 8, 1),  // n4 → n8
        (6, 9, 3),  // n6 → n9
        (7, 9, 6),  // n7 → n9
        (8, 9, 3),  // n8 → n9
    ];
    for &(s, d, c) in edges {
        b.add_edge(n[s - 1], n[d - 1], c).unwrap();
    }
    b.build().unwrap()
}

/// Convert the paper's 1-based node label `n<k>` to the graph id.
pub fn paper_node(k: usize) -> NodeId {
    assert!((1..=9).contains(&k), "paper nodes are n1..n9");
    NodeId(k as u32 - 1)
}

/// A fork-join "diamond" of the given width: one source, `width`
/// parallel middle tasks, one sink. Useful as a minimal graph with real
/// scheduling choices.
pub fn fork_join(width: usize, task_weight: u64, comm: u64) -> Dag {
    let mut b = DagBuilder::with_capacity(width + 2, 2 * width);
    let src = b.add_node("fork", task_weight);
    let mids: Vec<NodeId> = (0..width)
        .map(|i| b.add_node(format!("work{i}"), task_weight))
        .collect();
    let sink = b.add_node("join", task_weight);
    for &m in &mids {
        b.add_edge(src, m, comm).unwrap();
        b.add_edge(m, sink, comm).unwrap();
    }
    b.build().unwrap()
}

/// A linear chain of `len` tasks.
pub fn chain(len: usize, task_weight: u64, comm: u64) -> Dag {
    assert!(len >= 1);
    let mut b = DagBuilder::with_capacity(len, len.saturating_sub(1));
    let nodes: Vec<NodeId> = (0..len)
        .map(|i| b.add_node(format!("c{i}"), task_weight))
        .collect();
    for w in nodes.windows(2) {
        b.add_edge(w[0], w[1], comm).unwrap();
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::GraphAttributes;
    use crate::classify::{classify_nodes, NodeClass};
    use crate::cpn_list::{cpn_dominate_list, CpnListConfig};

    #[test]
    fn figure1_attribute_table() {
        let g = paper_figure1();
        let at = GraphAttributes::compute(&g);
        let t: Vec<u64> = (1..=9).map(|k| at.t_level[paper_node(k).index()]).collect();
        let b: Vec<u64> = (1..=9).map(|k| at.b_level[paper_node(k).index()]).collect();
        let sl: Vec<u64> = (1..=9)
            .map(|k| at.static_level[paper_node(k).index()])
            .collect();
        let alap: Vec<u64> = (1..=9).map(|k| at.alap[paper_node(k).index()]).collect();
        assert_eq!(t, vec![0, 6, 3, 9, 3, 10, 12, 14, 22]);
        assert_eq!(b, vec![23, 15, 15, 13, 19, 8, 11, 8, 1]);
        assert_eq!(sl, vec![16, 8, 8, 9, 14, 5, 5, 5, 1]);
        assert_eq!(alap, vec![0, 8, 8, 10, 4, 15, 12, 15, 22]);
        assert_eq!(at.cp_length, 23);
    }

    #[test]
    fn figure1_cpns_are_n1_n7_n9() {
        let g = paper_figure1();
        let at = GraphAttributes::compute(&g);
        let cpns: Vec<usize> = (1..=9).filter(|&k| at.is_cpn(paper_node(k))).collect();
        assert_eq!(cpns, vec![1, 7, 9]);
    }

    #[test]
    fn figure1_has_no_obn() {
        let g = paper_figure1();
        let at = GraphAttributes::compute(&g);
        let classes = classify_nodes(&g, &at);
        assert!(classes.iter().all(|&c| c != NodeClass::Obn));
        // Exactly six IBNs: n2, n3, n4, n5, n6, n8 (the blocking list).
        let ibns: Vec<usize> = (1..=9)
            .filter(|&k| classes[paper_node(k).index()] == NodeClass::Ibn)
            .collect();
        assert_eq!(ibns, vec![2, 3, 4, 5, 6, 8]);
    }

    #[test]
    fn figure1_cpn_dominate_list_matches_paper() {
        let g = paper_figure1();
        let at = GraphAttributes::compute(&g);
        let classes = classify_nodes(&g, &at);
        let list = cpn_dominate_list(&g, &at, &classes, CpnListConfig::default());
        let expected: Vec<_> = [1, 3, 2, 7, 6, 5, 4, 8, 9]
            .iter()
            .map(|&k| paper_node(k))
            .collect();
        assert_eq!(list, expected, "paper §4.2: {{n1,n3,n2,n7,n6,n5,n4,n8,n9}}");
    }

    #[test]
    fn figure1_sl_misleads_etf() {
        // The property behind Figure 2's discussion: SL(n5) > SL(n2)
        // although n2 is the more urgent node.
        let g = paper_figure1();
        let at = GraphAttributes::compute(&g);
        assert!(at.static_level[paper_node(5).index()] > at.static_level[paper_node(2).index()]);
    }

    #[test]
    fn fork_join_shape() {
        let g = fork_join(4, 3, 2);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.entry_nodes().len(), 1);
        assert_eq!(g.exit_nodes().len(), 1);
    }

    #[test]
    fn chain_shape() {
        let g = chain(5, 2, 1);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        let at = GraphAttributes::compute(&g);
        assert_eq!(at.cp_length, 5 * 2 + 4);
        assert!(at.classes.iter().all(|&c| c == NodeClass::Cpn));
    }
}
