//! The CPN-Dominate list of §4.1 — the static scheduling priority list
//! used by FAST's `InitialSchedule()`.
//!
//! The list is built by walking the critical-path nodes in ascending
//! t-level order. Before each CPN is placed, its unlisted ancestors are
//! pulled in, always choosing the parent with the largest b-level (ties
//! broken by smaller t-level, then smaller node id) and recursively
//! including that parent's own ancestors first. Finally the OBNs are
//! appended.
//!
//! ## The OBN-order discrepancy
//!
//! §4.1's prose says OBNs are ordered by *increasing* b-level, while
//! step (9) of the list procedure says *decreasing*. Decreasing b-level
//! is the only one of the two that is automatically a topological order
//! (a parent's b-level strictly exceeds its child's), and it is the
//! variant consistent with the paper's worked example, so it is the
//! default. [`ObnOrder::Increasing`] implements the prose variant; to
//! keep the overall list a valid scheduling order it performs a
//! priority-driven topological sort of the OBN-induced subgraph keyed by
//! ascending b-level, i.e. "as increasing as precedence allows".

use crate::attributes::GraphAttributes;
use crate::classify::NodeClass;
use crate::graph::{Cost, Dag, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordering applied to the OBNs appended at the tail of the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObnOrder {
    /// Decreasing b-level (step (9) of the paper's procedure; default).
    #[default]
    Decreasing,
    /// Increasing b-level (the §4.1 prose variant), constrained to stay
    /// a topological order.
    Increasing,
}

/// Configuration for [`cpn_dominate_list`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CpnListConfig {
    /// How the trailing OBNs are ordered.
    pub obn_order: ObnOrder,
}

/// Reusable scratch for [`cpn_dominate_list_into`]: the listed flags,
/// the ancestor-pull stack and its sorted parent segments, the CPN
/// ordering buffer and the OBN Kahn state. Buffers are refilled per
/// run, never dropped, so one scratch reused across many DAGs stops
/// allocating once every buffer has reached its peak size.
#[derive(Debug, Default)]
pub struct CpnListScratch {
    listed: Vec<bool>,
    /// The pull's path: each node with the cursor and end of its
    /// segment in `parents`.
    stack: Vec<(NodeId, u32, u32)>,
    /// One entry per edge: a node pushed on the pull stack keeps its
    /// parents that were unlisted at the push, best first, at the
    /// start of its own pred-offset run. Written before it is read,
    /// so it is never cleared.
    parents: Vec<u32>,
    cpns: Vec<NodeId>,
    indeg: Vec<u32>,
    heap: BinaryHeap<((u64, Reverse<u32>), NodeId)>,
}

impl CpnListScratch {
    /// Empty scratch holding no buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Build the CPN-Dominate list: a topological priority order of all
/// nodes with CPNs placed as early as their ancestors allow.
///
/// `classes` must come from [`crate::classify::classify_nodes`] on the
/// same `dag` / `attrs`. The result contains every node exactly once
/// and is always a valid topological order. Each pred entry is read at
/// most twice, plus O(u log u) compares for a node pulled with `u`
/// unlisted parents, and the CPNs are sorted by t-level.
pub fn cpn_dominate_list(
    dag: &Dag,
    attrs: &GraphAttributes,
    classes: &[NodeClass],
    config: CpnListConfig,
) -> Vec<NodeId> {
    let mut order = Vec::new();
    cpn_dominate_list_into(
        dag,
        &attrs.t_level,
        &attrs.b_level,
        classes,
        config,
        &mut CpnListScratch::new(),
        &mut order,
    );
    order
}

/// [`cpn_dominate_list`] over id-keyed t-level and b-level lanes,
/// writing into a caller-owned `order` buffer using caller-owned
/// scratch. Zero allocations once the reused buffers have reached
/// their peak capacities. Returns the pred and succ entries read: the
/// pull's parent scans and cursor advances, and the OBN pass.
pub fn cpn_dominate_list_into(
    dag: &Dag,
    t_level: &[Cost],
    b_level: &[Cost],
    classes: &[NodeClass],
    config: CpnListConfig,
    scratch: &mut CpnListScratch,
    order: &mut Vec<NodeId>,
) -> u64 {
    let v = dag.node_count();
    scratch.listed.clear();
    scratch.listed.resize(v, false);
    if scratch.parents.len() < dag.edge_count() {
        scratch.parents.resize(dag.edge_count(), 0);
    }
    order.clear();
    order.reserve(v);

    // Walk the CPNs in ascending t-level order (entry CPN first), ties
    // broken by node id.
    scratch.cpns.clear();
    scratch
        .cpns
        .extend(dag.nodes().filter(|n| classes[n.index()] == NodeClass::Cpn));
    scratch
        .cpns
        .sort_unstable_by_key(|&n| (t_level[n.index()], n.0));
    let mut reads = 0;
    for i in 0..scratch.cpns.len() {
        let cpn = scratch.cpns[i];
        reads += include_with_ancestors(dag, t_level, b_level, cpn, scratch, order);
    }

    // Step (9): append the OBNs.
    reads += append_obns(dag, b_level, classes, config.obn_order, scratch, order);

    debug_assert_eq!(order.len(), v);
    reads
}

/// Place `node` in the list after recursively placing all of its
/// unlisted ancestors, always descending into the parent with the
/// largest b-level first (ties: smaller t-level, then smaller id).
/// Returns the pred entries read.
///
/// A node is pushed at most once per list: it stays on the stack until
/// it is listed. The push scans its parents once and sorts the
/// unlisted ones, best first, into its segment of `parents`. Parents
/// only ever become listed, so whenever the pull returns to the node
/// its best unlisted parent is the first unlisted entry at or after
/// its cursor, and every entry the cursor passes is read once.
///
/// Iterative with an explicit stack so that deep graphs (chains of
/// tens of thousands of nodes) cannot overflow the call stack.
fn include_with_ancestors(
    dag: &Dag,
    t_level: &[Cost],
    b_level: &[Cost],
    node: NodeId,
    scratch: &mut CpnListScratch,
    order: &mut Vec<NodeId>,
) -> u64 {
    let CpnListScratch {
        listed,
        stack,
        parents,
        ..
    } = scratch;
    if listed[node.index()] {
        return 0;
    }
    let mut reads = pull_push(dag, t_level, b_level, node, listed, parents, stack);
    while let Some(&(top, mut cursor, end)) = stack.last() {
        let mut next = None;
        while cursor < end {
            let p = parents[cursor as usize];
            cursor += 1;
            reads += 1;
            if !listed[p as usize] {
                next = Some(NodeId(p));
                break;
            }
        }
        match next {
            Some(parent) => {
                // The parent is listed before the pull returns here.
                let depth = stack.len() - 1;
                stack[depth].1 = cursor;
                reads += pull_push(dag, t_level, b_level, parent, listed, parents, stack);
            }
            None => {
                listed[top.index()] = true;
                order.push(top);
                stack.pop();
            }
        }
    }
    reads
}

/// Push `n` on the pull stack: scan its parents once and sort the
/// unlisted ones, best first (larger b-level, then smaller t-level,
/// then smaller id), into the start of its pred-offset run of
/// `parents`. Returns the pred entries read.
fn pull_push(
    dag: &Dag,
    t_level: &[Cost],
    b_level: &[Cost],
    n: NodeId,
    listed: &[bool],
    parents: &mut [u32],
    stack: &mut Vec<(NodeId, u32, u32)>,
) -> u64 {
    let lo = dag.pred_offsets()[n.index()] as usize;
    let (preds, _) = dag.pred_lanes(n);
    let mut end = lo;
    for &p in preds {
        parents[end] = p;
        end += usize::from(!listed[p as usize]);
    }
    if end - lo > 1 {
        parents[lo..end].sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            b_level[b]
                .cmp(&b_level[a])
                .then(t_level[a].cmp(&t_level[b]))
                .then(a.cmp(&b))
        });
    }
    stack.push((n, lo as u32, end as u32));
    preds.len() as u64
}

/// Append all OBNs via a priority-driven Kahn pass over the OBN-induced
/// subgraph (parents outside the OBN set are already listed, CPN/IBN
/// parents by construction). Returns the pred and succ entries read.
fn append_obns(
    dag: &Dag,
    b_level: &[Cost],
    classes: &[NodeClass],
    obn_order: ObnOrder,
    scratch: &mut CpnListScratch,
    order: &mut Vec<NodeId>,
) -> u64 {
    let mut reads = 0u64;
    // In-degree restricted to OBN parents.
    let indeg = &mut scratch.indeg;
    indeg.clear();
    indeg.resize(dag.node_count(), 0);
    let mut obn_count = 0usize;
    for n in dag.nodes() {
        if classes[n.index()] != NodeClass::Obn {
            continue;
        }
        obn_count += 1;
        let (preds, _) = dag.pred_lanes(n);
        reads += preds.len() as u64;
        indeg[n.index()] = preds
            .iter()
            .filter(|&&p| classes[p as usize] == NodeClass::Obn)
            .count() as u32;
    }

    // Priority key: b-level (desc or asc), tie-broken by smaller id.
    // BinaryHeap is a max-heap; encode accordingly. Pop order is fully
    // determined by the key (ids make it total), so refilling a reused
    // heap push-by-push gives the same sequence as a fresh collect.
    let key = |n: NodeId| -> (u64, Reverse<u32>) {
        let b = b_level[n.index()];
        let primary = match obn_order {
            ObnOrder::Decreasing => b,
            ObnOrder::Increasing => u64::MAX - b,
        };
        (primary, Reverse(n.0))
    };

    let heap = &mut scratch.heap;
    heap.clear();
    for n in dag.nodes() {
        if classes[n.index()] == NodeClass::Obn && indeg[n.index()] == 0 {
            heap.push((key(n), n));
        }
    }

    let mut placed = 0usize;
    while let Some((_, n)) = heap.pop() {
        debug_assert!(!scratch.listed[n.index()]);
        scratch.listed[n.index()] = true;
        order.push(n);
        placed += 1;
        let succs = dag.succs(n);
        reads += succs.len() as u64;
        for e in succs {
            if classes[e.node.index()] == NodeClass::Obn {
                indeg[e.node.index()] -= 1;
                if indeg[e.node.index()] == 0 {
                    heap.push((key(e.node), e.node));
                }
            }
        }
    }
    debug_assert_eq!(placed, obn_count);
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_nodes;
    use crate::graph::DagBuilder;
    use crate::topo::is_topological_order;

    fn build_list(dag: &Dag, config: CpnListConfig) -> Vec<NodeId> {
        let attrs = GraphAttributes::compute(dag);
        let classes = classify_nodes(dag, &attrs);
        cpn_dominate_list(dag, &attrs, &classes, config)
    }

    #[test]
    fn chain_lists_in_path_order() {
        let mut b = DagBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_task(2)).collect();
        for w in n.windows(2) {
            b.add_edge(w[0], w[1], 1).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(build_list(&g, CpnListConfig::default()), n);
    }

    #[test]
    fn ibn_with_larger_b_level_pulled_first() {
        // CPN chain a→z (heavy); z also has two IBN parents p (b=8) and
        // q (b=3). p must be listed before q.
        let mut b = DagBuilder::new();
        let a = b.add_task(10);
        let z = b.add_task(10);
        let p = b.add_task(7);
        let q = b.add_task(2);
        b.add_edge(a, z, 1).unwrap();
        b.add_edge(p, z, 1).unwrap();
        b.add_edge(q, z, 1).unwrap();
        let g = b.build().unwrap();
        let list = build_list(&g, CpnListConfig::default());
        assert_eq!(list, vec![a, p, q, z]);
    }

    #[test]
    fn b_level_ties_broken_by_smaller_t_level() {
        // Two IBN parents of the CPN z with equal b-levels but
        // different t-levels.
        let mut b = DagBuilder::new();
        let a = b.add_task(20); // entry CPN
        let z = b.add_task(20); // exit CPN
        let early = b.add_task(5); // t=0, b=5+1+20=26
        let late_src = b.add_task(3);
        let late = b.add_task(5); // t=3+2=5, b=26
        b.add_edge(a, z, 5).unwrap();
        b.add_edge(early, z, 1).unwrap();
        b.add_edge(late_src, late, 2).unwrap();
        b.add_edge(late, z, 1).unwrap();
        let g = b.build().unwrap();
        let attrs = GraphAttributes::compute(&g);
        assert_eq!(attrs.b_level[early.index()], attrs.b_level[late.index()]);
        assert!(attrs.t_level[early.index()] < attrs.t_level[late.index()]);
        let list = build_list(&g, CpnListConfig::default());
        let pos = |n: NodeId| list.iter().position(|&x| x == n).unwrap();
        assert!(pos(early) < pos(late), "smaller t-level wins the tie");
    }

    #[test]
    fn obns_appended_after_everything_else() {
        // a→b critical; a→o1(w=1)→o2(w=1) out-branch.
        let mut b = DagBuilder::new();
        let a = b.add_task(10);
        let z = b.add_task(10);
        let o1 = b.add_task(1);
        let o2 = b.add_task(1);
        b.add_edge(a, z, 1).unwrap();
        b.add_edge(a, o1, 1).unwrap();
        b.add_edge(o1, o2, 1).unwrap();
        let g = b.build().unwrap();
        let list = build_list(&g, CpnListConfig::default());
        // Decreasing b-level: o1 (b=3) before o2 (b=1).
        assert_eq!(list, vec![a, z, o1, o2]);
    }

    #[test]
    fn increasing_obn_order_stays_topological() {
        let mut b = DagBuilder::new();
        let a = b.add_task(10);
        let z = b.add_task(10);
        let o1 = b.add_task(1);
        let o2 = b.add_task(1);
        let o3 = b.add_task(1);
        b.add_edge(a, z, 1).unwrap();
        b.add_edge(a, o1, 1).unwrap();
        b.add_edge(o1, o2, 1).unwrap();
        b.add_edge(a, o3, 1).unwrap();
        let g = b.build().unwrap();
        let list = build_list(
            &g,
            CpnListConfig {
                obn_order: ObnOrder::Increasing,
            },
        );
        assert!(is_topological_order(&g, &list));
        // o3 (b=1) and o2 (b=1) should precede o1 (b=3) where precedence
        // allows: o3 is free, o2 needs o1. So tail = [o3, o1, o2].
        assert_eq!(&list[2..], &[o3, o1, o2]);
    }

    #[test]
    fn list_is_always_a_permutation_and_topological() {
        let mut b = DagBuilder::new();
        let n: Vec<_> = (0..6).map(|i| b.add_task(i as u64 + 1)).collect();
        b.add_edge(n[0], n[2], 3).unwrap();
        b.add_edge(n[1], n[2], 1).unwrap();
        b.add_edge(n[2], n[4], 2).unwrap();
        b.add_edge(n[3], n[4], 9).unwrap();
        b.add_edge(n[2], n[5], 1).unwrap();
        let g = b.build().unwrap();
        for cfg in [
            CpnListConfig::default(),
            CpnListConfig {
                obn_order: ObnOrder::Increasing,
            },
        ] {
            let list = build_list(&g, cfg);
            assert!(is_topological_order(&g, &list));
        }
    }
}
