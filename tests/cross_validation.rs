//! Cross-validation: every scheduler in the workspace must produce a
//! legal schedule on every workload family, and the schedules must
//! respect universal bounds (critical-path work below, serial time
//! above). This is the safety net behind every benchmark number.

use fastsched::prelude::*;
use fastsched::workloads::trees::{binary_in_tree, binary_out_tree, divide_and_conquer};

fn workloads() -> Vec<(String, Dag)> {
    let db = TimingDatabase::paragon();
    vec![
        ("gauss4".into(), gaussian_elimination_dag(4, &db)),
        ("gauss8".into(), gaussian_elimination_dag(8, &db)),
        ("laplace4".into(), laplace_dag(4, &db)),
        ("laplace8".into(), laplace_dag(8, &db)),
        ("fft16".into(), fft_dag(16, &db)),
        ("fft64".into(), fft_dag(64, &db)),
        ("in_tree".into(), binary_in_tree(4, &db)),
        ("out_tree".into(), binary_out_tree(4, &db)),
        ("divconq".into(), divide_and_conquer(3, &db)),
        (
            "random_dense".into(),
            random_layered_dag(&RandomDagConfig::paper(120, &db), 5),
        ),
        (
            "random_sparse".into(),
            random_layered_dag(&RandomDagConfig::sparse(200, &db), 6),
        ),
    ]
}

/// Computation along a critical path: a lower bound every schedule of
/// every algorithm must respect.
fn cp_work(dag: &Dag) -> u64 {
    let attrs = GraphAttributes::compute(dag);
    attrs
        .critical_path(dag)
        .iter()
        .map(|&n| dag.weight(n))
        .sum()
}

#[test]
fn every_scheduler_is_legal_on_every_workload() {
    for (wname, dag) in workloads() {
        let lower = cp_work(&dag);
        let upper = dag.total_computation();
        for s in all_schedulers(11) {
            let schedule = s.schedule(&dag, dag.node_count() as u32);
            validate(&dag, &schedule).unwrap_or_else(|e| panic!("{} on {wname}: {e}", s.name()));
            let m = schedule.makespan();
            assert!(
                m >= lower && m <= upper,
                "{} on {wname}: makespan {m} outside [{lower}, {upper}]",
                s.name()
            );
            assert!(schedule.processors_used() >= 1);
        }
    }
}

#[test]
fn schedulers_are_legal_under_processor_scarcity() {
    // Two processors only — forces heavy sharing and exercises the
    // ready-time/insertion logic under pressure.
    for (wname, dag) in workloads() {
        for s in all_schedulers(13) {
            // Clustering algorithms ignore the bound by design.
            if s.is_unbounded() {
                continue;
            }
            let schedule = s.schedule(&dag, 2);
            validate(&dag, &schedule)
                .unwrap_or_else(|e| panic!("{} on {wname} (p=2): {e}", s.name()));
            assert!(schedule.processors_used() <= 2);
        }
    }
}

#[test]
fn simulation_is_consistent_for_every_scheduler() {
    let db = TimingDatabase::paragon();
    let dag = gaussian_elimination_dag(8, &db);
    for s in all_schedulers(17) {
        let schedule = s.schedule(&dag, dag.node_count() as u32);
        let ideal = simulate(&dag, &schedule, &SimConfig::ideal());
        assert_eq!(
            ideal.execution_time,
            schedule.makespan(),
            "{}: ideal network must reproduce the static prediction",
            s.name()
        );
        let mesh = simulate(&dag, &schedule, &SimConfig::default());
        assert!(
            mesh.execution_time >= schedule.makespan(),
            "{}: the mesh cannot beat the abstract model",
            s.name()
        );
    }
}

#[test]
fn single_processor_forces_serial_time() {
    let db = TimingDatabase::paragon();
    let dag = fft_dag(16, &db);
    for s in all_schedulers(19) {
        if s.is_unbounded() {
            continue; // unbounded clustering model
        }
        let schedule = s.schedule(&dag, 1);
        validate(&dag, &schedule).unwrap();
        assert_eq!(
            schedule.makespan(),
            dag.total_computation(),
            "{}: one processor means serial execution",
            s.name()
        );
    }
}

#[test]
fn heuristics_never_beat_the_exhaustive_oracle_on_small_workloads() {
    // The quality side of cross-validation: on instances small enough
    // to solve exactly, the branch-and-bound optimum is a hard floor
    // under every processor-bounded heuristic. `solve` (not
    // `schedule`) so a state-cap truncation — whose incumbent proves
    // no bound — is detected instead of silently asserted against.
    use fastsched::algorithms::optimal::BranchAndBound;
    let db = TimingDatabase::paragon();
    let small: Vec<(String, Dag, u32)> = vec![
        ("gauss3".into(), gaussian_elimination_dag(3, &db), 3),
        ("fft4".into(), fft_dag(4, &db), 3),
        ("divconq2".into(), divide_and_conquer(2, &db), 3),
        ("in_tree3".into(), binary_in_tree(3, &db), 2),
        ("out_tree3".into(), binary_out_tree(3, &db), 2),
    ];
    // gauss3 x 3 procs needs ~5.9M states — just past the default cap.
    let oracle = BranchAndBound {
        max_states: 10_000_000,
    };
    for (wname, dag, procs) in small {
        let outcome = oracle.solve(&dag, procs);
        assert!(
            outcome.complete,
            "{wname}: oracle search truncated — shrink the workload or raise the cap"
        );
        let optimum = outcome.schedule.makespan();
        for s in all_schedulers(29) {
            if s.is_unbounded() {
                continue; // clustering may exceed the oracle's pool
            }
            let m = s.schedule(&dag, procs).makespan();
            assert!(
                m >= optimum,
                "{wname}: {} produced {m} below the exact optimum {optimum}",
                s.name()
            );
        }
    }
}

#[test]
fn metrics_agree_with_schedule_for_every_scheduler() {
    let db = TimingDatabase::paragon();
    let dag = laplace_dag(4, &db);
    for s in all_schedulers(23) {
        let schedule = s.schedule(&dag, dag.node_count() as u32);
        let m = ScheduleMetrics::compute(&dag, &schedule);
        assert_eq!(m.makespan, schedule.makespan());
        assert_eq!(m.processors_used, schedule.processors_used());
        assert!(m.speedup > 0.0 && m.efficiency > 0.0);
        assert!(m.utilization <= 1.0 + 1e-9);
    }
}

/// The forensics layer explains a schedule by the prices of the
/// machine it was built for: on FAST's gauss(6) schedule under
/// α–β(25,3,2), every node of the attributed critical path has zero
/// slack and the path spends time on the wire. Priced at the bare edge
/// weights, the chain stops early and the slacks are another machine's.
#[test]
fn forensics_price_messages_like_the_schedules_machine() {
    use fastsched::schedule::analysis::{critical_path, slack_profile};
    use fastsched::schedule::{AlphaBeta, CommModel};
    let dag = gaussian_elimination_dag(6, &TimingDatabase::paragon());
    let machine = Machine::from(CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2)));
    let (ws, trace) = (&mut Workspace::new(), &mut SearchTrace::default());
    let schedule = Fast::new().run(&dag, 16, &machine, ws, trace).unwrap();
    let cp = critical_path(&dag, &schedule, &machine);
    assert_eq!(cp.compute + cp.comm + cp.idle, schedule.makespan());
    assert!(cp.comm > 0, "the critical path sends no message: {cp:?}");
    let slacks = slack_profile(&dag, &schedule, &machine);
    for n in cp.nodes() {
        assert_eq!(slacks[n.index()], 0, "critical-path node {n} has slack");
    }
}
