//! `machine::resolve` refuses field combinations, never an
//! algorithm/machine pair: every algorithm a request can name resolves
//! on every machine kind, and the resolved engine answers exactly what
//! `Scheduler::run` answers on the same `Machine`, a byte-identical
//! schedule or the core's own `Unsupported`.

use fastsched_algorithms::{Feature, SchedulerError, Workspace};
use fastsched_casch::machine::{resolve, ALGORITHMS};
use fastsched_dag::{Dag, DagBuilder};
use fastsched_schedule::{
    AlphaBeta, CommModel, Hierarchical, Machine, MemCapsSpec, MemoryCapacities, ProcessorSpeeds,
    IDEAL_LINK,
};
use fastsched_trace::SearchTrace;

const PROCS: u32 = 4;

/// A small diamond-and-tail DAG with memory footprints, small enough
/// for the exhaustive branch-and-bound reference.
fn dag() -> Dag {
    let mut b = DagBuilder::new();
    let n: Vec<_> = [(4, 3), (2, 5), (6, 2), (3, 4), (5, 1), (2, 2)]
        .map(|(w, m)| b.add_task_with_mem(w, m))
        .into();
    for (s, d, c) in [
        (0, 1, 4),
        (0, 2, 1),
        (1, 3, 3),
        (2, 3, 6),
        (3, 4, 2),
        (0, 5, 5),
    ] {
        b.add_edge(n[s], n[d], c).unwrap();
    }
    b.build().unwrap()
}

/// A request's machine fields, and the `Machine` they describe.
struct Case {
    label: &'static str,
    comm: Option<CommModel>,
    mem_caps: Option<MemCapsSpec>,
    speeds: Option<Vec<u32>>,
    machine: Machine,
}

fn cases(dag: &Dag) -> Vec<Case> {
    let loose = dag.total_memory();
    let ab = CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2));
    let hier = CommModel::Hierarchical(
        Hierarchical::from_group_sizes(&[2, 2], IDEAL_LINK, AlphaBeta::new(40, 2, 1)).unwrap(),
    );
    let speeds = vec![100, 200, 50, 100];
    let at_speeds = ProcessorSpeeds::new(speeds.clone());
    let case = |label, comm: Option<CommModel>, caps, speeds, machine| Case {
        label,
        comm,
        mem_caps: caps,
        speeds,
        machine,
    };
    vec![
        case("plain", None, None, None, Machine::Homogeneous),
        case("alpha-beta", Some(ab.clone()), None, None, ab.into()),
        case("hier 2+2", Some(hier.clone()), None, None, hier.into()),
        case(
            "loose mem_caps",
            None,
            Some(MemCapsSpec::Uniform(loose)),
            None,
            MemoryCapacities::uniform(CommModel::Ideal, loose, PROCS).into(),
        ),
        case(
            "speeds",
            None,
            None,
            Some(speeds.clone()),
            at_speeds.clone().into(),
        ),
        case(
            "speeds + loose mem_caps",
            None,
            Some(MemCapsSpec::Uniform(loose)),
            Some(speeds),
            Machine::Speeds(MemoryCapacities::uniform(at_speeds, loose, PROCS)),
        ),
    ]
}

#[test]
fn resolve_refuses_only_field_combinations() {
    let dag = dag();
    let (mut ran, mut refused) = (0, 0);
    for (name, make) in ALGORITHMS {
        for case in cases(&dag) {
            let (engine, procs) = resolve(
                name,
                Some(PROCS),
                case.comm,
                case.mem_caps,
                case.speeds,
                dag.node_count(),
                u64::MAX,
            )
            .unwrap_or_else(|e| panic!("{name} on {}: resolve refused: {e}", case.label));
            assert_eq!(procs, PROCS);
            assert_eq!(engine.machine, case.machine, "{name} on {}", case.label);
            let resolved = engine.run(
                &dag,
                procs,
                &mut Workspace::new(),
                &mut SearchTrace::default(),
            );
            let direct = make().run(
                &dag,
                PROCS,
                &case.machine,
                &mut Workspace::new(),
                &mut SearchTrace::default(),
            );
            match &direct {
                Ok(_) => ran += 1,
                Err(SchedulerError::Unsupported(_)) => refused += 1,
                Err(e) => panic!("{name} on {}: {e}", case.label),
            }
            assert_eq!(resolved, direct, "{name} on {}", case.label);
        }
    }
    assert_eq!(ran + refused, ALGORITHMS.len() * 6);
    assert!(
        ran > ALGORITHMS.len() && refused > 0,
        "{ran} ran, {refused} refused"
    );
}

/// How the model cores' own answers read: which pairs run, the name
/// each answers under, and the feature a refusal names.
#[test]
fn model_cores_answer_for_themselves() {
    let dag = dag();
    let cases = cases(&dag);
    let run = |name: &str, case: &Case| {
        let (engine, procs) = resolve(
            name,
            Some(PROCS),
            case.comm.clone(),
            case.mem_caps.clone(),
            case.speeds.clone(),
            dag.node_count(),
            u64::MAX,
        )
        .unwrap();
        let result = engine.run(
            &dag,
            procs,
            &mut Workspace::new(),
            &mut SearchTrace::default(),
        );
        (engine.name(), result.map_err(|e| engine.failure(&e)))
    };
    for name in ["fast-sa", "fast-ms", "etf", "dls"] {
        for case in &cases[1..3] {
            assert!(run(name, case).1.is_ok(), "{name} on {}", case.label);
        }
        assert_eq!(
            run(name, &cases[5]).1.unwrap_err(),
            format!("algorithm `{name}` has no scheduling path for memory capacities")
        );
    }
    for name in ["fast", "fast-sa", "fast-ms", "etf", "dls"] {
        let (answer, result) = run(name, &cases[4]);
        assert!(result.is_ok(), "{name} on speeds");
        assert_eq!(answer, name.to_uppercase());
    }
    assert_eq!(run("heft", &cases[4]).0, "HEFT-hetero");
    assert_eq!(run("heft", &cases[5]).0, "HEFT-hetero");
    assert!(run("fast", &cases[5]).1.is_ok());
    for (case, feature) in cases[1..].iter().zip([
        Feature::CommModel,
        Feature::CommModel,
        Feature::MemoryCapacities,
        Feature::Speeds,
        Feature::Speeds,
    ]) {
        assert_eq!(
            run("dsc", case).1.unwrap_err(),
            format!("algorithm `dsc` has no scheduling path for {feature}")
        );
    }
}

#[test]
fn comm_and_speeds_still_cannot_combine() {
    let result = resolve(
        "heft",
        None,
        Some(CommModel::Ideal),
        None,
        Some(vec![100, 50]),
        6,
        u64::MAX,
    );
    let error = result.err().expect("comm with speeds must be refused");
    assert!(
        error.contains("cannot be combined with `speeds`"),
        "{error}"
    );
}
