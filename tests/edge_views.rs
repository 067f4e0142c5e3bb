//! Edge-view equivalence suite: the two edge structures a `Dag` keeps
//! (the id-keyed predecessor CSR and the topo-keyed successor CSR) and
//! every view served from them must agree with values computed directly
//! from the edge list handed to `DagBuilder` — on random DAGs whose
//! topological order disagrees with id order, and on the fuzz corpus.

use fastsched::dag::{Cost, DagBuilder, EdgeRef, NodeId};
use fastsched::workloads::fuzz::fuzz_corpus;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Edge = (u32, u32, Cost);

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Build from `weights` and `edges` (added in the given order) and check
/// every edge view against the list.
fn assert_views_match(weights: &[Cost], edges: &[Edge], ctx: &str) {
    let mut b = DagBuilder::new();
    for &w in weights {
        b.add_task(w);
    }
    for &(s, d, c) in edges {
        b.add_edge(NodeId(s), NodeId(d), c).unwrap();
    }
    let dag = b.build().unwrap();
    let mut sorted = edges.to_vec();
    sorted.sort_unstable();

    let listed: Vec<Edge> = dag.edges().map(|(s, d, c)| (s.0, d.0, c)).collect();
    assert_eq!(listed, sorted, "edges() on {ctx}");
    assert_eq!(dag.edge_count(), sorted.len(), "{ctx}");
    let t = dag.topo_csr();
    assert_eq!(t.offsets.len(), weights.len() + 1, "{ctx}");
    assert_eq!(t.targets.len(), sorted.len(), "{ctx}");
    assert_eq!(t.costs.len(), sorted.len(), "{ctx}");

    for n in dag.nodes() {
        let succs: Vec<EdgeRef> = sorted
            .iter()
            .filter(|e| e.0 == n.0)
            .map(|&(_, d, cost)| EdgeRef {
                node: NodeId(d),
                cost,
            })
            .collect();
        let preds: Vec<EdgeRef> = sorted
            .iter()
            .filter(|e| e.1 == n.0)
            .map(|&(s, _, cost)| EdgeRef {
                node: NodeId(s),
                cost,
            })
            .collect();
        for (dir, view, want) in [
            ("succs", dag.succs(n), &succs),
            ("preds", dag.preds(n), &preds),
        ] {
            assert_eq!(view.len(), want.len(), "{dir}({n}) len on {ctx}");
            assert_eq!(
                view.iter().collect::<Vec<_>>(),
                *want,
                "{dir}({n}) on {ctx}"
            );
            for (i, e) in want.iter().enumerate() {
                assert_eq!(view.get(i), *e, "{dir}({n}).get({i}) on {ctx}");
            }
        }
        assert_eq!(dag.out_degree(n), succs.len(), "{ctx}");
        assert_eq!(dag.in_degree(n), preds.len(), "{ctx}");

        // The topo CSR holds the same successor run, re-keyed to topo
        // positions, and every edge points forward.
        let p = dag.topo_pos(n) as usize;
        assert_eq!(t.node_at[p], n, "{ctx}");
        assert_eq!(t.pos_of[n.index()] as usize, p, "{ctx}");
        assert_eq!(t.weights[p], weights[n.index()], "{ctx}");
        let run: Vec<(u32, Cost)> = (t.offsets[p] as usize..t.offsets[p + 1] as usize)
            .map(|k| (t.targets[k], t.costs[k]))
            .collect();
        let want: Vec<(u32, Cost)> = succs
            .iter()
            .map(|e| (dag.topo_pos(e.node), e.cost))
            .collect();
        assert_eq!(run, want, "topo run of {n} on {ctx}");
        assert!(
            run.iter().all(|&(q, _)| q as usize > p),
            "an edge of {n} goes backward in topo order on {ctx}"
        );
    }
    for &(s, d, c) in &sorted {
        assert_eq!(dag.edge_cost(NodeId(s), NodeId(d)), Some(c), "{ctx}");
        assert_eq!(dag.edge_cost(NodeId(d), NodeId(s)), None, "{ctx}");
    }
}

/// A random DAG whose edges follow a hidden random ranking, so topo
/// positions and ids disagree, with the edge list shuffled so insertion
/// order is arbitrary too.
fn random_edge_list(seed: u64, nodes: usize) -> (Vec<Cost>, Vec<Edge>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rank: Vec<usize> = (0..nodes).collect();
    shuffle(&mut rng, &mut rank);
    let weights = (0..nodes).map(|_| rng.gen_range(1..=50)).collect();
    let mut edges = Vec::new();
    for a in 0..nodes {
        for b in 0..nodes {
            if rank[a] < rank[b] && rng.gen_range(0..4u32) == 0 {
                edges.push((a as u32, b as u32, rng.gen_range(0..=60)));
            }
        }
    }
    shuffle(&mut rng, &mut edges);
    (weights, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn edge_views_match_the_builder_edge_list_on_random_dags(
        seed in 0u64..1_000_000,
        nodes in 1usize..40,
    ) {
        let (weights, edges) = random_edge_list(seed, nodes);
        assert_views_match(&weights, &edges, &format!("seed={seed} v={nodes}"));
    }

    #[test]
    fn edge_views_match_the_builder_edge_list_on_fuzz_corpus(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in fuzz_corpus(seed, 6) {
            let mut edges: Vec<Edge> =
                case.dag.edges().map(|(s, d, c)| (s.0, d.0, c)).collect();
            shuffle(&mut rng, &mut edges);
            assert_views_match(case.dag.weights(), &edges, &case.name);
        }
    }
}
