//! Zero-allocation steady-state harness: after a warm-up call, a
//! reused [`Workspace`] must make `schedule_into` perform **zero**
//! heap allocations on the paper's 2000-node random workload.
//!
//! The allocation assertion is only armed in release builds without
//! the `validate` feature (debug assertions and the validation gate
//! allocate by design — see DESIGN.md §12); the
//! byte-identity assertions run in every configuration, so the test
//! is never vacuous.

use fastsched::counting_alloc::CountingAlloc;
use fastsched::prelude::*;
use fastsched::schedule::io::to_json;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The allocation counter is process-wide, so the tests run one at a
/// time: no other test may allocate inside a measured window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True when the build is expected to be allocation-free in steady
/// state: release, no validation gate.
const fn steady_state_armed() -> bool {
    cfg!(all(not(debug_assertions), not(feature = "validate")))
}

fn assert_steady_state(name: &str, dag: &Dag, procs: u32, sched: &dyn Scheduler) {
    assert_steady_state_with(name, |ws| sched.schedule_into(dag, procs, ws));
}

/// [`assert_steady_state`] for any scheduling call against a workspace.
fn assert_steady_state_with(name: &str, run: impl Fn(&mut Workspace) -> Schedule) {
    let mut ws = Workspace::new();
    // Warm-up: the first call grows every buffer to its peak size;
    // the second call runs against warm capacity (commit-path lane
    // growth included, because the seeded search replays the same
    // trajectory).
    let first = run(&mut ws);
    let reference = to_json(&first);
    ws.recycle(first);
    let second = run(&mut ws);
    assert_eq!(to_json(&second), reference, "{name}: warm call diverged");
    ws.recycle(second);

    for i in 0..3 {
        let before = ALLOC.allocations();
        let s = run(&mut ws);
        let allocated = ALLOC.allocations() - before;
        if steady_state_armed() {
            assert_eq!(
                allocated, 0,
                "{name}: iteration {i} performed {allocated} heap allocations"
            );
        }
        assert_eq!(to_json(&s), reference, "{name}: iteration {i} diverged");
        ws.recycle(s);
    }
}

/// The acceptance workload: FAST over the paper-scale 2000-node
/// random DAG.
#[test]
fn fast_is_allocation_free_on_the_2000_node_workload() {
    let _serial = serial();
    let db = TimingDatabase::paragon();
    let dag = random_layered_dag(&RandomDagConfig::paper(2000, &db), 1);
    assert_steady_state("FAST/2000", &dag, 64, &Fast::new());
}

/// The other natively ported single-threaded algorithms on a smaller
/// graph (ETF/DLS are Θ(p v²)-ish; graph size is irrelevant to the
/// allocation property).
#[test]
fn ported_algorithms_are_allocation_free() {
    let _serial = serial();
    let db = TimingDatabase::paragon();
    let dag = random_layered_dag(&RandomDagConfig::paper(300, &db), 7);
    assert_steady_state("FAST/300", &dag, 8, &Fast::new());
    assert_steady_state("ETF/300", &dag, 8, &Etf::new());
    assert_steady_state("DLS/300", &dag, 8, &Dls::new());
    assert_steady_state(
        "FAST-SA/300",
        &dag,
        8,
        &fastsched::algorithms::FastSa::with_config(fastsched::algorithms::FastSaConfig {
            steps: 256,
            ..Default::default()
        }),
    );
    assert_steady_state("HEFT/300", &dag, 8, &Heft::new());
}

/// The model-priced scheduling cores — what `casch serve` runs for
/// `comm`, `mem_caps` and `speeds` requests — are allocation-free on a
/// warm workspace too.
#[test]
fn model_priced_cores_are_allocation_free() {
    let _serial = serial();
    use fastsched::casch::serve::scheduler_by_name;
    use fastsched::schedule::{CommModel, MemoryCapacities, ProcessorSpeeds};
    use fastsched::workloads::fuzz::assign_mems;

    let db = TimingDatabase::paragon();
    let dag = assign_mems(&random_layered_dag(&RandomDagConfig::paper(300, &db), 7), 7);
    let run = |algo: &str, machine: &Machine| {
        let s = scheduler_by_name(algo).expect("model scheduler");
        let name = format!("{algo}/{machine:?}");
        assert_steady_state_with(&name, |ws| {
            s.run(&dag, 8, machine, ws, &mut SearchTrace::default())
                .expect("model run")
        });
    };
    for spec in ["alpha-beta:25,3,2", "hier:4+4@0,1,1@50,2,1"] {
        let comm = Machine::from(CommModel::parse_spec(spec).expect("comm spec"));
        for algo in ["fast", "etf", "dls"] {
            run(algo, &comm);
        }
    }
    // Every lane can hold the whole DAG: the capacity bookkeeping runs
    // but never rejects a placement.
    let loose = dag.mems().iter().sum();
    let capped = Machine::from(MemoryCapacities::uniform(CommModel::Ideal, loose, 8));
    for algo in ["fast", "heft"] {
        run(algo, &capped);
    }
    let speeds = ProcessorSpeeds::new(vec![100, 200, 50, 150, 100, 200, 50, 150]);
    run("heft", &Machine::from(speeds));
}
