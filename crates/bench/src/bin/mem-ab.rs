//! Memory-constraint A/B: what does a per-processor memory budget
//! cost, and what does ignoring one break?
//!
//! Over the seeded `mem_corpus` (paper-shaped fuzz DAGs with assigned
//! task footprints and two derived budgets per case), two regimes:
//!
//! * `tight` — twice the balanced per-lane share, floored by the
//!   largest single footprint: feasible by construction, but binding
//!   enough that capacity-blind placement regularly overflows a lane.
//! * `loose` — at least the whole corpus footprint per lane: never
//!   binding, so the memory-aware paths must match the blind ones on
//!   schedule length (the zero-cost-when-unconstrained contract).
//!
//! Four rows per regime: memory-aware FAST and HEFT (probe loops
//! reject over-capacity placements; `Scheduler::run` validates every
//! schedule under the capped model) and the capacity-blind
//! baselines (plain `schedule()`, with the number of corpus schedules
//! that violate the budget recorded as `violations`). Each row carries
//! the mean schedule-length ratio against memory-aware FAST and the
//! minimum-of-`RUNS` wall time for the whole corpus. Rows are printed
//! to stdout:
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin mem-ab
//! ```

use fastsched::prelude::*;
use fastsched::schedule::{CommModel, MemoryCapacities, ScheduleErrorKind};
use fastsched::workloads::fuzz::{mem_corpus, MemFuzzCase};
use fastsched_bench::{min_of, run_on};
use std::hint::black_box;

const RUNS: u32 = 5;
const CORPUS_SEED: u64 = 0xAB5EED;

type RunFn = Box<dyn Fn(&Dag, u32, &Machine) -> Schedule>;
type CapFn = fn(&MemFuzzCase) -> u64;

/// One scheduling entry point: memory-aware rows receive the capped
/// model, blind rows ignore it.
struct Algo {
    name: &'static str,
    mem_aware: bool,
    run: RunFn,
}

fn algos() -> Vec<Algo> {
    vec![
        Algo {
            name: "FAST-mem",
            mem_aware: true,
            run: Box::new(|d, p, m| run_on(&Fast::new(), d, p, m)),
        },
        Algo {
            name: "HEFT-mem",
            mem_aware: true,
            run: Box::new(|d, p, m| run_on(&Heft::new(), d, p, m)),
        },
        Algo {
            name: "FAST-blind",
            mem_aware: false,
            run: Box::new(|d, p, _| Fast::new().schedule(d, p)),
        },
        Algo {
            name: "HEFT-blind",
            mem_aware: false,
            run: Box::new(|d, p, _| Heft::new().schedule(d, p)),
        },
    ]
}

fn main() {
    let corpus = mem_corpus(CORPUS_SEED, 36);
    let total_nodes: usize = corpus.iter().map(|c| c.dag.node_count()).sum();

    let regimes: [(&str, CapFn); 2] = [("tight", |c| c.tight_cap), ("loose", |c| c.loose_cap)];

    println!(
        "{} cases, {total_nodes} nodes, min of {RUNS} runs; \
         tight = 2*max(ceil(total_mem/procs), max_mem) per lane, \
         loose = max(total_mem, tight) per lane (never binding)",
        corpus.len()
    );
    let algos = algos();
    for (regime_name, cap_of) in &regimes {
        let models: Vec<Machine> = corpus
            .iter()
            .map(|c| MemoryCapacities::uniform(CommModel::Ideal, cap_of(c), c.procs).into())
            .collect();
        // Memory-aware FAST's schedule lengths are the denominator
        // for every ratio.
        let fast_lengths: Vec<u64> = corpus
            .iter()
            .zip(&models)
            .map(|(c, m)| (algos[0].run)(&c.dag, c.procs, m).makespan())
            .collect();

        for algo in &algos {
            let mut ratio_sum = 0.0f64;
            let mut violations = 0usize;
            for ((i, case), model) in corpus.iter().enumerate().zip(&models) {
                let s = (algo.run)(&case.dag, case.procs, model);
                if let Err(e) = model.validate(&case.dag, &s) {
                    // `run` gated the memory-aware rows; a blind
                    // baseline may only fail the capacity pass.
                    assert!(
                        !algo.mem_aware && e.kind() == ScheduleErrorKind::CapacityExceeded,
                        "{}: {} failed under {regime_name} on case {i}: {e}",
                        case.name,
                        algo.name
                    );
                    violations += 1;
                }
                ratio_sum += s.makespan() as f64 / fast_lengths[i] as f64;
            }
            let mean_ratio = ratio_sum / corpus.len() as f64;
            let secs = min_of(RUNS, || {
                for (case, model) in corpus.iter().zip(&models) {
                    black_box((algo.run)(&case.dag, case.procs, model));
                }
            });
            println!(
                "{regime_name:>6} {:>10}: SL ratio vs FAST-mem {mean_ratio:.4}, \
                 {violations} budget violation(s), corpus time {secs:.4}s",
                algo.name
            );
        }
    }
}
