//! SoA attribute-kernel equivalence suite: the topo-keyed sweep
//! kernels, FAST's fused list attributes (`ListAttributes`) and every
//! `GraphAttributes` field built on them must agree with the scalar
//! level passes and the reverse-DFS classification of
//! `tests/scalar_levels` **exactly** — same integers, not just same
//! order — and the CPN-Dominate list must equal the one a per-return
//! `max_by` pull builds, under both OBN orders. They run on random layered DAGs
//! under homogeneous and heterogeneous weight models, on the fuzz
//! corpus, on the work-count shapes (stars, bipartite layers, the
//! paper's random DAGs) and on out-trees (in-degree 0–1). The SoA
//! plane only changes where the sweeps read and write, never a value.

mod scalar_levels;
#[allow(dead_code)]
mod shapes;

use fastsched::dag::attributes::{
    static_levels_soa_into, static_levels_topo_into, t_levels_topo_into, AttrLanes,
};
use fastsched::dag::{
    classify_nodes, cpn_dominate_list, CpnListConfig, Dag, DagBuilder, GraphAttributes,
    ListAttributes, NodeClass, NodeId, ObnOrder,
};
use fastsched::prelude::{random_layered_dag, Cost, RandomDagConfig, TimingDatabase};
use fastsched::workloads::fuzz::fuzz_corpus;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scalar_levels::{static_levels_into, t_levels_into, ScalarAttributes};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The CPN-Dominate list as it was built before the cursor pull: each
/// return to a node re-scans all of its parents for the best unlisted
/// one (`max_by`), so a node with `d` unlisted parents costs about
/// `d²/2` reads. Kept as the reference the shared pull must equal.
fn max_by_list(dag: &Dag, attrs: &ScalarAttributes, obn_order: ObnOrder) -> Vec<NodeId> {
    let classes = &attrs.classes;
    let mut listed = vec![false; dag.node_count()];
    let mut order = Vec::new();
    let mut cpns: Vec<NodeId> = dag
        .nodes()
        .filter(|&n| classes[n.index()] == NodeClass::Cpn)
        .collect();
    cpns.sort_by_key(|&n| (attrs.t_level[n.index()], n.0));
    for cpn in cpns {
        let mut stack = vec![cpn];
        while let Some(&top) = stack.last() {
            if listed[top.index()] {
                stack.pop();
                continue;
            }
            let next = dag
                .preds(top)
                .iter()
                .filter(|e| !listed[e.node.index()])
                .map(|e| e.node)
                .max_by(|&a, &b| {
                    attrs.b_level[a.index()]
                        .cmp(&attrs.b_level[b.index()])
                        .then_with(|| attrs.t_level[b.index()].cmp(&attrs.t_level[a.index()]))
                        .then_with(|| b.0.cmp(&a.0))
                });
            match next {
                Some(parent) => stack.push(parent),
                None => {
                    listed[top.index()] = true;
                    order.push(top);
                    stack.pop();
                }
            }
        }
    }
    // The OBN tail: a Kahn pass over the OBN-induced subgraph keyed by
    // b-level, ties to the smaller id.
    let is_obn = |n: NodeId| classes[n.index()] == NodeClass::Obn;
    let key = |n: NodeId| {
        let b = attrs.b_level[n.index()];
        let primary = match obn_order {
            ObnOrder::Decreasing => b,
            ObnOrder::Increasing => u64::MAX - b,
        };
        (primary, Reverse(n.0))
    };
    let mut indeg: Vec<usize> = dag
        .nodes()
        .map(|n| dag.preds(n).iter().filter(|e| is_obn(e.node)).count())
        .collect();
    let mut heap: BinaryHeap<_> = dag
        .nodes()
        .filter(|&n| is_obn(n) && indeg[n.index()] == 0)
        .map(|n| (key(n), n))
        .collect();
    while let Some((_, n)) = heap.pop() {
        order.push(n);
        for e in dag.succs(n) {
            if is_obn(e.node) {
                indeg[e.node.index()] -= 1;
                if indeg[e.node.index()] == 0 {
                    heap.push((key(e.node), e.node));
                }
            }
        }
    }
    order
}

/// FAST's fused list attributes and every `GraphAttributes` field
/// against the scalar reference plus DFS, and the shared CPN-Dominate
/// pull against [`max_by_list`] under both OBN orders, on one DAG.
fn assert_list_matches_reference(dag: &Dag, ctx: &str) {
    let reference = ScalarAttributes::compute(dag);
    let mut fused = ListAttributes::new();
    let reads = fused.compute_into(dag, &mut AttrLanes::new());
    assert_eq!(reads, 2 * dag.edge_count() as u64, "{ctx}");
    assert_eq!(fused.t_level, reference.t_level, "t-level on {ctx}");
    assert_eq!(fused.b_level, reference.b_level, "b-level on {ctx}");
    assert_eq!(fused.classes, reference.classes, "classes on {ctx}");
    assert_eq!(fused.cp_length, reference.cp_length, "CP length on {ctx}");

    let plane = GraphAttributes::compute(dag);
    assert_eq!(plane.t_level, reference.t_level, "plane t-level on {ctx}");
    assert_eq!(plane.b_level, reference.b_level, "plane b-level on {ctx}");
    assert_eq!(
        plane.static_level, reference.static_level,
        "plane SL on {ctx}"
    );
    assert_eq!(plane.alap, reference.alap, "plane ALAP on {ctx}");
    assert_eq!(
        plane.cp_length, reference.cp_length,
        "plane CP length on {ctx}"
    );
    assert_eq!(plane.classes, reference.classes, "plane classes on {ctx}");
    let classes = classify_nodes(dag, &plane);
    assert_eq!(classes, reference.classes, "classify_nodes on {ctx}");
    for n in dag.nodes() {
        let cpn = reference.classes[n.index()] == NodeClass::Cpn;
        assert_eq!(plane.is_cpn(n), cpn, "is_cpn({n}) on {ctx}");
    }

    for obn_order in [ObnOrder::Decreasing, ObnOrder::Increasing] {
        assert_eq!(
            cpn_dominate_list(dag, &plane, &classes, CpnListConfig { obn_order }),
            max_by_list(dag, &reference, obn_order),
            "{obn_order:?} list on {ctx}"
        );
    }
}

/// A random out-tree: every node but the root has exactly one parent,
/// so every in-degree is 0 or 1.
fn out_tree(nodes: usize, seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DagBuilder::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|_| b.add_task(rng.gen_range(1..20)))
        .collect();
    for i in 1..nodes {
        let parent = ids[rng.gen_range(0..i)];
        b.add_edge(parent, ids[i], rng.gen_range(1..30)).unwrap();
    }
    b.build().unwrap()
}

/// Scatter a topo-position-keyed lane back to id keying.
fn to_id_space(dag: &Dag, lane: &[Cost]) -> Vec<Cost> {
    let mut out = vec![0; dag.node_count()];
    for (p, &n) in dag.topo_order().iter().enumerate() {
        out[n.index()] = lane[p];
    }
    out
}

/// Every SoA kernel against its scalar reference on one DAG.
fn assert_soa_matches_scalar(dag: &Dag, ctx: &str) {
    let mut lane = Vec::new();
    let mut scalar = Vec::new();

    t_levels_topo_into(dag, &mut lane);
    t_levels_into(dag, &mut scalar);
    assert_eq!(to_id_space(dag, &lane), scalar, "t-level diverged on {ctx}");

    static_levels_topo_into(dag, &mut lane);
    static_levels_into(dag, &mut scalar);
    assert_eq!(to_id_space(dag, &lane), scalar, "SL diverged on {ctx}");

    let mut lanes = AttrLanes::new();
    let mut soa_sl = Vec::new();
    static_levels_soa_into(dag, &mut lanes, &mut soa_sl);
    assert_eq!(soa_sl, scalar, "SL scatter diverged on {ctx}");

    assert_list_matches_reference(dag, ctx);
}

/// Homogeneous weight model: every node and every edge costs the
/// same, so ties are everywhere and any ordering slip would surface.
fn homo_config(nodes: usize) -> RandomDagConfig {
    RandomDagConfig {
        nodes,
        out_degree: (1, 4),
        node_weight: (7, 7),
        edge_weight: (3, 3),
    }
}

/// Heterogeneous weight model: wide uniform node and edge ranges (the
/// paper's §5.2 shape at sparse degree).
fn hetero_config(nodes: usize) -> RandomDagConfig {
    RandomDagConfig {
        nodes,
        out_degree: (1, 5),
        node_weight: (1, 500),
        edge_weight: (1, 800),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random layered DAGs, homogeneous weights.
    #[test]
    fn soa_matches_scalar_homogeneous(seed in 0u64..1_000_000, nodes in 10usize..180) {
        let dag = random_layered_dag(&homo_config(nodes), seed);
        assert_soa_matches_scalar(&dag, &format!("homo seed={seed} v={nodes}"));
    }

    /// Random layered DAGs, heterogeneous weights.
    #[test]
    fn soa_matches_scalar_heterogeneous(seed in 0u64..1_000_000, nodes in 10usize..180) {
        let dag = random_layered_dag(&hetero_config(nodes), seed);
        assert_soa_matches_scalar(&dag, &format!("hetero seed={seed} v={nodes}"));
    }

    /// The shared fuzz corpus (mixed shapes: chains, forks, paper-style
    /// layered graphs) — the same graphs the scheduler equivalence
    /// suites run on.
    #[test]
    fn soa_matches_scalar_on_fuzz_corpus(seed in 0u64..1_000_000) {
        for case in fuzz_corpus(seed, 6) {
            assert_soa_matches_scalar(&case.dag, &case.name);
        }
    }
}

/// The paper-scale workload: one deterministic 2000-node §5.2 graph
/// (the size class the SoA sweeps are meant to speed up).
#[test]
fn soa_matches_scalar_on_paper_scale_graph() {
    let db = TimingDatabase::paragon();
    let dag = random_layered_dag(&RandomDagConfig::paper(2000, &db), 1);
    assert_soa_matches_scalar(&dag, "paper-2000");
}

/// The work-count shapes: fan-in stars (one node pulls up to 1024
/// unlisted parents), dense bipartite layers and the paper's random
/// DAGs from 100 to 2000 nodes.
#[test]
fn list_matches_reference_on_the_work_count_shapes() {
    for (name, dag) in shapes::sweep() {
        assert_list_matches_reference(&dag, &name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Out-trees: every pull has at most one parent to choose from.
    #[test]
    fn list_matches_reference_on_out_trees(seed in 0u64..1_000_000, nodes in 1usize..120) {
        assert_list_matches_reference(&out_tree(nodes, seed), &format!("tree seed={seed} v={nodes}"));
    }
}
