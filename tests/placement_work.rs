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

mod shapes;

use fastsched::prelude::*;
use fastsched::schedule::{AlphaBeta, CommModel, Hierarchical, MemoryCapacities, ProcessorSpeeds};
use shapes::{size, sweep, PROCS};

/// Allowed `placement_pred_reads / (v + e)`. A placement that reads
/// each parent once per node lands in `e / (v + e)`, below 1; the
/// floor keeps a counter that stopped counting from passing.
const BAND: (f64, f64) = (0.25, 1.0);

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

/// Machines that price messages by co-location but are not
/// renumbering-invariant: loose uniform capacities over the ideal
/// network (every lane holds the whole DAG) and all-100 speeds.
fn colocation_machines(dag: &Dag) -> Vec<(&'static str, Machine)> {
    vec![
        (
            "loose mem caps",
            Machine::Comm(MemoryCapacities::uniform(
                CommModel::Ideal,
                dag.total_memory().max(1),
                PROCS,
            )),
        ),
        (
            "all-100 speeds",
            Machine::Speeds(MemoryCapacities::unbounded(ProcessorSpeeds::uniform(PROCS))),
        ),
    ]
}

/// `placement_pred_reads / (v + e)` of one traced run.
fn reads_per_element(s: &dyn Scheduler, dag: &Dag, machine: &Machine) -> f64 {
    let mut trace = SearchTrace::default();
    s.run(dag, PROCS, machine, &mut Workspace::new(), &mut trace)
        .expect("schedulable");
    trace.eval.placement_pred_reads as f64 / size(dag)
}

fn assert_in_band(what: &str, ratio: f64) {
    assert!(
        (BAND.0..=BAND.1).contains(&ratio),
        "{what}: {ratio:.3} pred-lane reads per (v + e), outside {BAND:?}"
    );
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

#[test]
fn capacities_and_speeds_keep_the_lanes_exact() {
    // Capacities and speed tables tie costs to processor ids, but a
    // message is still priced by co-location alone, so the lanes stay
    // exact and placement reads each parent once.
    for (name, dag) in sweep() {
        for (model, machine) in colocation_machines(&dag) {
            let (fast, heft) = (Fast::new(), Heft::new());
            for (core, s) in [("FAST", &fast as &dyn Scheduler), ("HEFT", &heft)] {
                let ratio = reads_per_element(s, &dag, &machine);
                assert_in_band(&format!("{core} {name} {model}"), ratio);
            }
        }
    }
}
