//! Placement work is O(v + e), counted rather than timed.
//!
//! The DAT lanes every model core places through count the pred-lane
//! entries they read (`EvalStats::placement_pred_reads`, always on).
//! Under a model whose message price depends only on co-location each
//! node's lane entry is filled once, in one pass over its parents, so
//! the count divided by `v + e` must stay inside one fixed band on
//! every DAG shape — including fan-in stars, whose parents spread over
//! many processors. A fill that re-walked the parents once per
//! distinct parent processor reads `d · (k + 1)` entries for a node of
//! in-degree `d` whose parents sit on `k` processors: on a 1024-leaf
//! star over 64 processors that is about 32 reads per `v + e`.

use fastsched::prelude::*;
use fastsched::schedule::{AlphaBeta, CommModel, Hierarchical};

const PROCS: u32 = 64;

/// Allowed `placement_pred_reads / (v + e)`. A placement that reads
/// each parent once per node lands in `e / (v + e)`, below 1; the
/// floor keeps a counter that stopped counting from passing.
const BAND: (f64, f64) = (0.25, 1.0);

/// `d` independent leaves feeding one sink.
fn fan_in_star(d: usize) -> Dag {
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
fn dense_bipartite_layers(layers: usize, width: usize) -> Dag {
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

/// The co-location-priced machines: the paper's, α–β, and a
/// one-group hierarchy.
fn exact_machines() -> Vec<(&'static str, Machine)> {
    let one_group =
        Hierarchical::from_group_sizes(&[PROCS], AlphaBeta::new(4, 1, 1), AlphaBeta::new(40, 2, 1))
            .unwrap();
    vec![
        ("plain", Machine::Homogeneous),
        (
            "alpha-beta",
            CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2)).into(),
        ),
        ("one-group hier", CommModel::Hierarchical(one_group).into()),
    ]
}

/// `placement_pred_reads / (v + e)` of one traced run.
fn reads_per_element(s: &dyn Scheduler, dag: &Dag, machine: &Machine) -> f64 {
    let mut trace = SearchTrace::default();
    s.run(dag, PROCS, machine, &mut Workspace::new(), &mut trace)
        .expect("schedulable");
    trace.eval.placement_pred_reads as f64 / (dag.node_count() + dag.edge_count()) as f64
}

fn assert_in_band(what: &str, ratio: f64) {
    assert!(
        (BAND.0..=BAND.1).contains(&ratio),
        "{what}: {ratio:.3} pred-lane reads per (v + e), outside {BAND:?}"
    );
}

/// Every DAG shape of the sweep: the paper's random DAGs from 100 to
/// 2000 nodes, fan-in stars of in-degree 16 to 1024, and dense
/// bipartite layers.
fn sweep() -> Vec<(String, Dag)> {
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

#[test]
fn fast_placement_reads_stay_linear_in_v_plus_e() {
    for (name, dag) in sweep() {
        for (model, machine) in exact_machines() {
            let ratio = reads_per_element(&Fast::new(), &dag, &machine);
            assert_in_band(&format!("FAST {name} {model}"), ratio);
        }
    }
}

#[test]
fn list_cores_read_each_parent_once() {
    // ETF and DLS scan every ready node × processor pair, so they run
    // on the smaller shapes; the count is the same O(v + e) read.
    for (name, dag) in sweep() {
        let small = dag.node_count() <= 300;
        let heft = Heft::new();
        let (etf, dls) = (Etf::new(), Dls::new());
        let mut cores: Vec<(&str, &dyn Scheduler)> = vec![("HEFT", &heft)];
        if small {
            cores.extend([("ETF", &etf as &dyn Scheduler), ("DLS", &dls)]);
        }
        for (core, s) in cores {
            let ratio = reads_per_element(s, &dag, &Machine::Homogeneous);
            assert_in_band(&format!("{core} {name}"), ratio);
        }
    }
}
