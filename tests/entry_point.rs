//! The one scheduler entry point, `Scheduler::run`: every registered
//! scheduler answers a machine it cannot price, weights whose times
//! cannot be represented and a memory-infeasible greedy placement with
//! a typed error instead of a panic, the homogeneous shorthand is the
//! entry point on `Machine::Homogeneous`, byte for byte, and the
//! correctness gate rejects an illegal schedule in every build.

use fastsched::prelude::*;
use fastsched::schedule::{AlphaBeta, CommModel, MemoryCapacities, ProcessorSpeeds, ScheduleError};
use fastsched::workloads::fuzz::{adversarial_weights, assign_mems, fuzz_corpus};

const SEED: u64 = 11;

fn run(
    s: &dyn Scheduler,
    dag: &Dag,
    procs: u32,
    machine: &Machine,
) -> Result<Schedule, SchedulerError> {
    s.run(
        dag,
        procs,
        machine,
        &mut Workspace::new(),
        &mut SearchTrace::default(),
    )
}

/// Every machine kind for a `procs`-processor run of `dag`: plain,
/// priced messages, speeds, and each of the last two with capacities
/// that never bind.
fn machines(dag: &Dag, procs: u32) -> Vec<Machine> {
    let loose = dag.total_memory().max(1);
    let speeds = ProcessorSpeeds::new((0..procs).map(|p| [100, 200, 50][p as usize % 3]).collect());
    vec![
        Machine::Homogeneous,
        CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2)).into(),
        MemoryCapacities::uniform(CommModel::Ideal, loose, procs).into(),
        speeds.clone().into(),
        Machine::Speeds(MemoryCapacities::uniform(speeds, loose, procs)),
    ]
}

/// Whether the scheduler named `name` prices `machine`: the six ported
/// cores run on every machine, except that the capacity-blind ones
/// (ETF, DLS and the FAST-SA / FAST-MS searches) refuse capacities; the
/// rest know only the paper's machine.
fn prices(name: &str, machine: &Machine) -> bool {
    const CORES: [&str; 6] = ["FAST", "FAST-SA", "FAST-MS", "ETF", "DLS", "HEFT"];
    match machine {
        Machine::Homogeneous => true,
        m if CORES.contains(&name) => !m.has_capacities() || ["FAST", "HEFT"].contains(&name),
        _ => false,
    }
}

#[test]
fn every_scheduler_refuses_exactly_the_machines_it_cannot_price() {
    let mut refused = 0;
    for case in fuzz_corpus(0xE7, 6) {
        let dag = assign_mems(&case.dag, SEED);
        for s in all_schedulers(SEED) {
            for machine in machines(&dag, case.procs) {
                let result = run(s.as_ref(), &dag, case.procs, &machine);
                if prices(s.name(), &machine) {
                    let schedule = result.unwrap_or_else(|e| {
                        panic!("{}: {} on {machine:?}: {e}", case.name, s.name())
                    });
                    assert_eq!(machine.validate(&dag, &schedule), Ok(()));
                } else {
                    assert!(
                        matches!(result, Err(SchedulerError::Unsupported(_))),
                        "{}: {} on {machine:?}",
                        case.name,
                        s.name()
                    );
                    refused += 1;
                }
            }
        }
    }
    assert!(refused > 0);
}

#[test]
fn the_homogeneous_shorthand_is_the_entry_point_byte_for_byte() {
    for case in fuzz_corpus(0xE8, 6) {
        for s in all_schedulers(SEED) {
            let entry = run(s.as_ref(), &case.dag, case.procs, &Machine::Homogeneous);
            let shorthand = s.schedule(&case.dag, case.procs);
            assert_eq!(entry, Ok(shorthand), "{}: {}", case.name, s.name());
        }
    }
}

/// Near-`u64::MAX / 2` weights: every scheduler, on every machine, is
/// refused before it runs, so no debug-build arithmetic panics.
#[test]
fn adversarial_weights_are_refused_by_every_scheduler() {
    for (i, case) in fuzz_corpus(0xE9, 6).into_iter().enumerate() {
        let dag = adversarial_weights(&case.dag, i as u64);
        for s in all_schedulers(SEED) {
            for machine in machines(&dag, case.procs) {
                let result = run(s.as_ref(), &dag, case.procs, &machine);
                assert_eq!(
                    result,
                    Err(SchedulerError::Overflow),
                    "{}: {} on {machine:?}",
                    case.name,
                    s.name()
                );
            }
        }
        assert!(!Machine::Homogeneous.fits(&dag));
    }
}

/// The reproduced overflow: a 3-node chain with a u64::MAX - 5 weight.
#[test]
fn the_near_max_chain_overflows_loudly() {
    let mut b = DagBuilder::new();
    let a = b.add_task(3);
    let m = b.add_task(u64::MAX - 5);
    let c = b.add_task(2);
    b.add_edge(a, m, 1).unwrap();
    b.add_edge(m, c, 1).unwrap();
    let dag = b.build().unwrap();
    assert_eq!(
        run(&Fast::new(), &dag, 2, &Machine::Homogeneous),
        Err(SchedulerError::Overflow)
    );
    assert_eq!(
        run(&Fast::new(), &dag, 0, &Machine::Homogeneous),
        Err(SchedulerError::NoProcessors)
    );
}

/// A node larger than every lane: the greedy placements of FAST and
/// HEFT name it instead of panicking.
#[test]
fn a_node_no_lane_can_hold_is_infeasible() {
    let mut b = DagBuilder::new();
    let small = b.add_task_with_mem(5, 4);
    let big = b.add_task_with_mem(5, 50);
    b.add_edge(small, big, 1).unwrap();
    let dag = b.build().unwrap();
    let caps: Machine = MemoryCapacities::uniform(CommModel::Ideal, 10, 2).into();
    for s in [&Fast::new() as &dyn Scheduler, &Heft::new()] {
        assert_eq!(
            run(s, &dag, 2, &caps),
            Err(SchedulerError::Infeasible {
                node: big.0,
                footprint: 50
            }),
            "{}",
            s.name()
        );
    }
}

/// A scheduler that answers every request with one fixed schedule.
struct Fixed(Schedule);

impl Scheduler for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn schedule_on(
        &self,
        _dag: &Dag,
        _num_procs: u32,
        _machine: &Machine,
        _ws: &mut Workspace,
        _trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        Ok(self.0.clone())
    }
}

/// The gate runs in release builds too: `run` answers an illegal
/// schedule with the validator's exact error, from a warm workspace.
#[test]
fn the_gate_rejects_illegal_schedules_in_every_build() {
    let mut b = DagBuilder::new();
    b.add_task(5);
    b.add_task(5);
    let dag = b.build().unwrap();
    let fixed = |places: [(u32, Cost, Cost); 2]| {
        let mut s = Schedule::new(2, 2);
        for (n, (p, start, finish)) in places.into_iter().enumerate() {
            s.place(NodeId(n as u32), ProcId(p), start, finish);
        }
        Fixed(s)
    };
    let ws = &mut Workspace::new();
    let mut gate = |s: &Fixed| {
        s.run(
            &dag,
            2,
            &Machine::Homogeneous,
            ws,
            &mut SearchTrace::default(),
        )
    };

    let legal = fixed([(0, 0, 5), (1, 0, 5)]);
    assert_eq!(gate(&legal), Ok(legal.0.clone()));
    assert_eq!(
        gate(&fixed([(0, 0, 6), (1, 0, 5)])),
        Err(SchedulerError::Invalid(ScheduleError::BadDuration {
            node: 0,
            expected: 5,
            actual: 6
        }))
    );
    assert_eq!(
        gate(&fixed([(0, 0, 5), (0, 3, 8)])),
        Err(SchedulerError::Invalid(ScheduleError::Overlap {
            proc: 0,
            first: 0,
            second: 1
        }))
    );
}
