//! DAG shapes shared by the work-count tests (`placement_work`,
//! `search_work`, `list_work`) and the list equivalence suite
//! (`soa_attributes`): the paper's random DAGs across its size range,
//! and in-degree sweeps — fan-in stars and dense bipartite layers.

use fastsched::prelude::*;

/// Processor count of every work-count run.
pub const PROCS: u32 = 64;

/// `d` independent leaves feeding one sink.
pub fn fan_in_star(d: usize) -> Dag {
    let mut b = DagBuilder::new();
    let sink = b.add_task(5);
    for i in 0..d {
        let leaf = b.add_task(10 + (i % 7) as Cost);
        b.add_edge(leaf, sink, 1 + (i % 13) as Cost).unwrap();
    }
    b.build().unwrap()
}

/// `layers` layers of `width` nodes, each layer fully connected to the
/// next.
pub fn dense_bipartite_layers(layers: usize, width: usize) -> Dag {
    let mut b = DagBuilder::new();
    let ids: Vec<Vec<NodeId>> = (0..layers)
        .map(|l| {
            (0..width)
                .map(|i| b.add_task(3 + ((l + i) % 5) as Cost))
                .collect()
        })
        .collect();
    for pair in ids.windows(2) {
        for (i, &u) in pair[0].iter().enumerate() {
            for (j, &v) in pair[1].iter().enumerate() {
                b.add_edge(u, v, 1 + ((i * 7 + j) % 11) as Cost).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// Every DAG shape of the sweep: the paper's random DAGs from 100 to
/// 2000 nodes (seed 11), fan-in stars of in-degree 16 to 1024, and
/// dense bipartite layers.
pub fn sweep() -> Vec<(String, Dag)> {
    let db = TimingDatabase::paragon();
    let mut dags = Vec::new();
    for n in [100, 500, 1000, 2000] {
        dags.push((
            format!("random/{n}"),
            random_layered_dag(&RandomDagConfig::paper(n, &db), 11),
        ));
    }
    for d in [16, 64, 256, 1024] {
        dags.push((format!("star/{d}"), fan_in_star(d)));
    }
    for (layers, width) in [(4, 32), (3, 96)] {
        dags.push((
            format!("bipartite/{layers}x{width}"),
            dense_bipartite_layers(layers, width),
        ));
    }
    dags
}

/// `v + e` of `dag`, the unit every work count is divided by.
pub fn size(dag: &Dag) -> f64 {
    (dag.node_count() + dag.edge_count()) as f64
}
