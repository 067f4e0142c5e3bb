//! Zero-allocation steady-state harness: after a warm-up call, a
//! reused [`Workspace`] must make `schedule_into` perform **zero**
//! heap allocations on the paper's 2000-node random workload.
//!
//! Every warm call runs the correctness gate too, from the workspace's
//! scratch. The allocation assertion is armed in release builds (debug
//! assertions allocate by design — see DESIGN.md §12); the
//! byte-identity assertions run in every configuration, so the test
//! is never vacuous.
//!
//! The allocation counter is process-wide — code under test allocates
//! on threads it spawns (FAST-MS chains, sharded batches), so it must
//! see every thread. The binary therefore runs without the libtest
//! harness (`harness = false`): `main` runs the cases one after
//! another on the main thread, so no harness thread starting,
//! reporting or finishing a test can allocate inside a measured
//! window. It speaks enough of libtest's command line (name filters,
//! `--exact`, `--skip`, `--list`, `--format json`) and output for
//! `cargo test` to drive it like any other test binary.

use fastsched::counting_alloc::CountingAlloc;
use fastsched::prelude::*;
use fastsched::schedule::io::to_json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Every case, in run order.
const CASES: [(&str, fn()); 4] = [
    (
        "alternating_processor_counts_are_allocation_free",
        alternating_processor_counts_are_allocation_free,
    ),
    (
        "fast_is_allocation_free_on_the_2000_node_workload",
        fast_is_allocation_free_on_the_2000_node_workload,
    ),
    (
        "model_priced_cores_are_allocation_free",
        model_priced_cores_are_allocation_free,
    ),
    (
        "ported_algorithms_are_allocation_free",
        ported_algorithms_are_allocation_free,
    ),
];

fn main() -> ExitCode {
    // libtest's `--format json` event stream, or its default lines.
    let mut json = false;
    let (mut list, mut exact, mut ignored_only) = (false, false, false);
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        let mut value = || inline.clone().or_else(|| args.next()).unwrap_or_default();
        match flag.as_str() {
            "--list" => list = true,
            "--exact" => exact = true,
            "--ignored" => ignored_only = true,
            "--format" => json = value() == "json",
            "--skip" => skips.push(value()),
            // Flags with a value that change nothing here: the cases
            // always run serially, uncaptured and uncoloured.
            "--test-threads" | "--color" | "--logfile" | "-Z" => {
                value();
            }
            f if f.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    let matches = |name: &str, pat: &String| {
        if exact {
            name == pat
        } else {
            name.contains(pat.as_str())
        }
    };
    // No case is `#[ignore]`d, so `--ignored` selects none.
    let selected: Vec<_> = CASES
        .iter()
        .filter(|(name, _)| {
            !ignored_only
                && (filters.is_empty() || filters.iter().any(|f| matches(name, f)))
                && !skips.iter().any(|s| matches(name, s))
        })
        .collect();
    let filtered_out = CASES.len() - selected.len();
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        println!("\n{} tests, 0 benchmarks", selected.len());
        return ExitCode::SUCCESS;
    }

    let clock = Instant::now();
    if json {
        println!(
            r#"{{ "type": "suite", "event": "started", "test_count": {} }}"#,
            selected.len()
        );
    } else {
        println!("\nrunning {} tests", selected.len());
    }
    let mut failed = Vec::new();
    for &&(name, case) in &selected {
        if json {
            println!(r#"{{ "type": "test", "event": "started", "name": "{name}" }}"#);
        } else {
            print!("test {name} ... ");
        }
        let ok = catch_unwind(AssertUnwindSafe(case)).is_ok();
        if !ok {
            failed.push(name);
        }
        if json {
            let event = if ok { "ok" } else { "failed" };
            println!(r#"{{ "type": "test", "name": "{name}", "event": "{event}" }}"#);
        } else {
            println!("{}", if ok { "ok" } else { "FAILED" });
        }
    }
    let (passed, secs) = (selected.len() - failed.len(), clock.elapsed().as_secs_f64());
    if json {
        let event = if failed.is_empty() { "ok" } else { "failed" };
        println!(
            r#"{{ "type": "suite", "event": "{event}", "passed": {passed}, "failed": {}, "ignored": 0, "measured": 0, "filtered_out": {filtered_out}, "exec_time": {secs} }}"#,
            failed.len()
        );
    } else {
        if !failed.is_empty() {
            println!("\nfailures:");
            for name in &failed {
                println!("    {name}");
            }
        }
        println!(
            "\ntest result: {}. {passed} passed; {} failed; 0 ignored; 0 measured; \
             {filtered_out} filtered out; finished in {secs:.2}s\n",
            if failed.is_empty() { "ok" } else { "FAILED" },
            failed.len()
        );
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(101)
    }
}

/// True when the build is expected to be allocation-free in steady
/// state: release.
const fn steady_state_armed() -> bool {
    !cfg!(debug_assertions)
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
fn fast_is_allocation_free_on_the_2000_node_workload() {
    let db = TimingDatabase::paragon();
    let dag = random_layered_dag(&RandomDagConfig::paper(2000, &db), 1);
    assert_steady_state("FAST/2000", &dag, 64, &Fast::new());
}

/// The other natively ported single-threaded algorithms on a smaller
/// graph (ETF/DLS are Θ(p v²)-ish; graph size is irrelevant to the
/// allocation property).
fn ported_algorithms_are_allocation_free() {
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

/// One warm workspace serving runs whose processor count goes down and
/// back up, as a serve worker does across requests: per-processor
/// lanes a narrower run does not use are kept, so the wider run after
/// it allocates nothing either.
fn alternating_processor_counts_are_allocation_free() {
    let db = TimingDatabase::paragon();
    let dag = random_layered_dag(&RandomDagConfig::paper(300, &db), 7);
    let (fast, etf, dls, heft) = (Fast::new(), Etf::new(), Dls::new(), Heft::new());
    let algos: [(&str, &dyn Scheduler); 4] = [
        ("FAST", &fast),
        ("ETF", &etf),
        ("DLS", &dls),
        ("HEFT", &heft),
    ];
    let procs = [8, 4];
    let mut ws = Workspace::new();
    // Warm-up: one round at every count grows each lane to its peak
    // and records the reference bytes.
    let mut reference = Vec::new();
    for &np in &procs {
        for &(_, algo) in &algos {
            let s = algo.schedule_into(&dag, np, &mut ws);
            reference.push(to_json(&s));
            ws.recycle(s);
        }
    }
    for round in 0..2 {
        let mut expected = reference.iter();
        for &np in &procs {
            for &(name, algo) in &algos {
                let before = ALLOC.allocations();
                let s = algo.schedule_into(&dag, np, &mut ws);
                let allocated = ALLOC.allocations() - before;
                if steady_state_armed() {
                    assert_eq!(
                        allocated, 0,
                        "{name}/{np} procs: round {round} performed {allocated} heap allocations"
                    );
                }
                let want = expected.next().expect("one reference per run");
                assert_eq!(
                    &to_json(&s),
                    want,
                    "{name}/{np} procs: round {round} diverged"
                );
                ws.recycle(s);
            }
        }
    }
}

/// The model-priced scheduling cores — what `casch serve` runs for
/// `comm`, `mem_caps` and `speeds` requests — are allocation-free on a
/// warm workspace too.
fn model_priced_cores_are_allocation_free() {
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
