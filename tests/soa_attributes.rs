//! SoA attribute-kernel equivalence suite: the topo-keyed sweep
//! kernels (and the fused-scatter `compute_soa_into`) must agree with
//! the scalar `attributes.rs` reference **exactly** — same integers,
//! not just same order — on random layered DAGs under both homogeneous
//! and heterogeneous weight models, and across the fuzz corpus. The
//! SoA plane only changes where the sweeps read and write, never a
//! value.

use fastsched::dag::attributes::{
    b_levels_into, b_levels_topo_into, static_levels_into, static_levels_soa_into,
    static_levels_topo_into, t_levels_into, t_levels_topo_into, AttrLanes,
};
use fastsched::dag::{Dag, GraphAttributes};
use fastsched::prelude::{random_layered_dag, Cost, RandomDagConfig, TimingDatabase};
use fastsched::workloads::fuzz::fuzz_corpus;
use proptest::prelude::*;

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

    b_levels_topo_into(dag, &mut lane);
    b_levels_into(dag, &mut scalar);
    assert_eq!(to_id_space(dag, &lane), scalar, "b-level diverged on {ctx}");

    static_levels_topo_into(dag, &mut lane);
    static_levels_into(dag, &mut scalar);
    assert_eq!(to_id_space(dag, &lane), scalar, "SL diverged on {ctx}");

    let mut lanes = AttrLanes::new();
    let mut soa_sl = Vec::new();
    static_levels_soa_into(dag, &mut lanes, &mut soa_sl);
    assert_eq!(soa_sl, scalar, "SL scatter diverged on {ctx}");

    let reference = GraphAttributes::compute(dag);
    let mut soa = GraphAttributes::empty();
    GraphAttributes::compute_soa_into(dag, &mut lanes, &mut soa);
    assert_eq!(soa.t_level, reference.t_level, "{ctx}");
    assert_eq!(soa.b_level, reference.b_level, "{ctx}");
    assert_eq!(soa.static_level, reference.static_level, "{ctx}");
    assert_eq!(soa.alap, reference.alap, "{ctx}");
    assert_eq!(soa.cp_length, reference.cp_length, "{ctx}");
    assert_eq!(soa.cpn, reference.cpn, "{ctx}");
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
