//! Critical-path attribution cross-checked against hand-computable
//! graph attributes on the paper's workload DAGs.
//!
//! On a *dedicated-processor* schedule (every node on its own
//! processor, so every dependence pays its full communication cost and
//! no lane ever makes a node wait), the schedule collapses onto the
//! graph itself: each start time is the t-level, the makespan is the
//! critical-path length, and the chain [`critical_path`] extracts must
//! be a b-level chain — consecutive nodes linked by edges satisfying
//! `b(a) = w(a) + c(a,b) + b(b)`, every chain node a CPN, and slack
//! zero exactly on the CPNs.

use fastsched_dag::{Dag, GraphAttributes, NodeId};
use fastsched_schedule::analysis::{critical_path, slack_profile};
use fastsched_schedule::{evaluate_fixed_order, validate, Machine, ProcId, Schedule};
use fastsched_workloads::{fft_dag, gaussian_elimination_dag, TimingDatabase};

/// Every node on its own processor: start times equal t-levels.
fn dedicated_schedule(dag: &Dag) -> Schedule {
    let order: Vec<NodeId> = dag.topo_order().to_vec();
    let assignment: Vec<ProcId> = dag.nodes().map(|n| ProcId(n.0)).collect();
    let s = evaluate_fixed_order(dag, &order, &assignment, dag.node_count() as u32);
    assert_eq!(validate(dag, &s), Ok(()));
    s
}

fn check_against_b_levels(dag: &Dag) {
    let attrs = GraphAttributes::compute(dag);
    let s = dedicated_schedule(dag);
    assert_eq!(
        s.makespan(),
        attrs.cp_length,
        "dedicated schedule length must equal the CP length"
    );

    let cp = critical_path(dag, &s, &Machine::Homogeneous);
    assert_eq!(cp.makespan, attrs.cp_length);
    // Nothing idles: the chain is pure compute + communication.
    assert_eq!(cp.idle, 0);
    assert_eq!(cp.compute + cp.comm, cp.makespan);

    let nodes = cp.nodes();
    assert!(!nodes.is_empty());
    let first = nodes[0];
    let last = *nodes.last().unwrap();
    assert!(dag.is_entry(first));
    assert!(dag.is_exit(last));
    assert_eq!(attrs.b_level[first.index()], attrs.cp_length);
    assert_eq!(attrs.b_level[last.index()], dag.weight(last));

    for w in nodes.windows(2) {
        let (a, b) = (w[0], w[1]);
        let c = dag
            .edge_cost(a, b)
            .expect("consecutive chain nodes must be DAG-adjacent");
        // The hand recurrence b(a) = w(a) + c(a,b) + b(b) holds along
        // the extracted chain — i.e. it IS a b-level chain.
        assert_eq!(
            attrs.b_level[a.index()],
            dag.weight(a) + c + attrs.b_level[b.index()],
            "chain edge {a:?}->{b:?} breaks the b-level recurrence"
        );
    }
    for &n in &nodes {
        assert!(attrs.is_cpn(n), "chain node {n:?} is not a CPN");
    }

    // Slack vanishes exactly on the critical-path nodes.
    let slacks = slack_profile(dag, &s, &Machine::Homogeneous);
    for n in dag.nodes() {
        assert_eq!(
            slacks[n.index()] == 0,
            attrs.is_cpn(n),
            "slack of {n:?} is {} but is_cpn = {}",
            slacks[n.index()],
            attrs.is_cpn(n)
        );
    }
}

#[test]
fn gaussian_elimination_chain_matches_b_levels() {
    let db = TimingDatabase::paragon();
    for n in [3usize, 5, 8] {
        check_against_b_levels(&gaussian_elimination_dag(n, &db));
    }
}

#[test]
fn fft_chain_matches_b_levels() {
    let db = TimingDatabase::paragon();
    for points in [8usize, 32, 64] {
        check_against_b_levels(&fft_dag(points, &db));
    }
}
