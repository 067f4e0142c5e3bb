//! The CPN / IBN / OBN node partition of §4.1.
//!
//! * **CPN** — a node on a critical path.
//! * **IBN** (In-Branch Node) — not a CPN, but there is a directed path
//!   from it reaching some CPN.
//! * **OBN** (Out-Branch Node) — neither a CPN nor an IBN.

use crate::attributes::GraphAttributes;
use crate::graph::Dag;

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

/// The class of every node of `dag`, id-keyed: the classes `attrs`
/// already carries, since [`GraphAttributes::compute`] derives them in
/// the same backward sweep as the b-level
/// ([`crate::attributes::ListAttributes::compute_into`]). O(v).
pub fn classify_nodes(dag: &Dag, attrs: &GraphAttributes) -> Vec<NodeClass> {
    assert_eq!(
        attrs.classes.len(),
        dag.node_count(),
        "attributes of another DAG"
    );
    attrs.classes.clone()
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
