//! The CPN / IBN / OBN node partition of §4.1.
//!
//! * **CPN** — a node on a critical path.
//! * **IBN** (In-Branch Node) — not a CPN, but there is a directed path
//!   from it reaching some CPN.
//! * **OBN** (Out-Branch Node) — neither a CPN nor an IBN.

use crate::attributes::GraphAttributes;
use crate::graph::{Dag, NodeId};

/// Class of a node in the CPN / IBN / OBN partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Critical-Path Node.
    Cpn,
    /// In-Branch Node: reaches a CPN.
    Ibn,
    /// Out-Branch Node: everything else.
    Obn,
}

/// Classify every node of `dag` given its computed attributes.
///
/// Runs one reverse DFS from the CPN set, so the whole pass is O(v + e).
/// FAST computes the same classes inside its attribute sweep
/// ([`crate::attributes::ListAttributes`]); this is the reference.
pub fn classify_nodes(dag: &Dag, attrs: &GraphAttributes) -> Vec<NodeClass> {
    let mut seen = attrs.cpn.clone();
    let mut stack: Vec<NodeId> = dag.nodes().filter(|&n| attrs.is_cpn(n)).collect();
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
            if attrs.is_cpn(n) {
                NodeClass::Cpn
            } else if seen[n.index()] {
                NodeClass::Ibn
            } else {
                NodeClass::Obn
            }
        })
        .collect()
}

/// Nodes of a given class, in id order.
pub fn nodes_of_class(classes: &[NodeClass], class: NodeClass) -> Vec<NodeId> {
    classes
        .iter()
        .enumerate()
        .filter(|(_, &c)| c == class)
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;

    /// Graph with one of each class:
    ///
    /// ```text
    /// a(5) --1--> b(5)            (critical path a→b, length 11)
    /// c(1) --1--> b               (c reaches CPN b → IBN)
    /// a    --1--> d(1)            (d reaches nothing critical → OBN)
    /// ```
    fn mixed() -> Dag {
        let mut bld = DagBuilder::new();
        let a = bld.add_task(5);
        let b = bld.add_task(5);
        let c = bld.add_task(1);
        let d = bld.add_task(1);
        bld.add_edge(a, b, 1).unwrap();
        bld.add_edge(c, b, 1).unwrap();
        bld.add_edge(a, d, 1).unwrap();
        bld.build().unwrap()
    }

    #[test]
    fn classifies_all_three_kinds() {
        let g = mixed();
        let at = GraphAttributes::compute(&g);
        let classes = classify_nodes(&g, &at);
        assert_eq!(
            classes,
            vec![
                NodeClass::Cpn,
                NodeClass::Cpn,
                NodeClass::Ibn,
                NodeClass::Obn
            ]
        );
    }

    #[test]
    fn nodes_of_class_filters_in_id_order() {
        let g = mixed();
        let at = GraphAttributes::compute(&g);
        let classes = classify_nodes(&g, &at);
        assert_eq!(
            nodes_of_class(&classes, NodeClass::Cpn),
            vec![NodeId(0), NodeId(1)]
        );
        assert_eq!(nodes_of_class(&classes, NodeClass::Ibn), vec![NodeId(2)]);
        assert_eq!(nodes_of_class(&classes, NodeClass::Obn), vec![NodeId(3)]);
    }

    #[test]
    fn chain_is_all_cpn() {
        let mut bld = DagBuilder::new();
        let a = bld.add_task(1);
        let b = bld.add_task(1);
        bld.add_edge(a, b, 3).unwrap();
        let g = bld.build().unwrap();
        let at = GraphAttributes::compute(&g);
        let classes = classify_nodes(&g, &at);
        assert!(classes.iter().all(|&c| c == NodeClass::Cpn));
    }
}
