//! Communication-model A/B: schedule-length quality of FAST against
//! ETF, DLS and HEFT when messages are priced realistically instead of
//! with the paper's ideal "nominal cost everywhere" model.
//!
//! Three pricing regimes per algorithm, over the same seeded corpus of
//! paper-shaped random layered DAGs:
//!
//! * `ideal` — alpha-beta(0, 1, 1): exactly the homogeneous model.
//!   Byte-identity against each algorithm's plain `schedule()` path is
//!   asserted per DAG, so this row doubles as a correctness gate for
//!   the generic model plumbing.
//! * `alpha_beta` — a startup latency plus a 3/2 per-byte slowdown:
//!   the classic LogP-flavored link.
//! * `hier` — two NUMA groups with an ideal intra link and an
//!   expensive inter tier: the regime where processor choice is no
//!   longer symmetric.
//!
//! For every regime one row per algorithm gives its algorithm's mean schedule
//! length ratio against FAST (> 1.0 means longer schedules than FAST)
//! and the minimum-of-`RUNS` wall time for scheduling the whole corpus.
//! `Scheduler::run` validates every schedule under the model that priced
//! it. Rows are printed to stdout:
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin model-ab
//! ```

use fastsched::prelude::*;
use fastsched::schedule::io::to_json;
use fastsched::schedule::{AlphaBeta, CommModel, Hierarchical, IDEAL_LINK};
use fastsched_bench::{min_of, run_on};
use std::hint::black_box;

const RUNS: u32 = 5;
const PROCS: u32 = 8;

fn algos() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Fast::new()),
        Box::new(Etf::new()),
        Box::new(Dls::new()),
        Box::new(Heft::new()),
    ]
}

fn main() {
    let db = TimingDatabase::paragon();
    let dags: Vec<Dag> = (0..40u64)
        .map(|seed| {
            random_layered_dag(
                &RandomDagConfig::paper(60 + (seed as usize % 5) * 20, &db),
                seed,
            )
        })
        .collect();
    let total_nodes: usize = dags.iter().map(Dag::node_count).sum();

    let regimes: Vec<(&str, CommModel)> = vec![
        ("ideal", CommModel::AlphaBeta(AlphaBeta::new(0, 1, 1))),
        ("alpha_beta", CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2))),
        (
            "hier",
            CommModel::Hierarchical(
                Hierarchical::from_group_sizes(
                    &[PROCS / 2, PROCS / 2],
                    IDEAL_LINK,
                    AlphaBeta::new(50, 2, 1),
                )
                .expect("group table"),
            ),
        ),
    ];

    println!(
        "{} DAGs, {total_nodes} nodes, {PROCS} procs, min of {RUNS} runs; \
         alpha_beta = alpha-beta:25,3,2, hier = hier:4+4@0,1,1@50,2,1",
        dags.len()
    );
    let algos = algos();
    for (regime_name, model) in &regimes {
        let machine = Machine::from(model.clone());
        // FAST's schedule lengths are the denominator for every ratio.
        let fast_lengths: Vec<u64> = dags
            .iter()
            .map(|d| run_on(algos[0].as_ref(), d, PROCS, &machine).makespan())
            .collect();

        for algo in &algos {
            let mut ratio_sum = 0.0f64;
            for (i, dag) in dags.iter().enumerate() {
                let s = run_on(algo.as_ref(), dag, PROCS, &machine);
                if *regime_name == "ideal" {
                    // The identity regime must reproduce the plain
                    // homogeneous path byte-for-byte.
                    assert_eq!(
                        to_json(&s),
                        to_json(&algo.schedule(dag, PROCS)),
                        "{} ideal model diverged from schedule() on DAG {i}",
                        algo.name()
                    );
                }
                ratio_sum += s.makespan() as f64 / fast_lengths[i] as f64;
            }
            let mean_ratio = ratio_sum / dags.len() as f64;
            let secs = min_of(RUNS, || {
                for dag in &dags {
                    black_box(run_on(algo.as_ref(), dag, PROCS, &machine));
                }
            });
            println!(
                "{regime_name:>10} {:>4}: SL ratio vs FAST {mean_ratio:.4}, corpus time {secs:.4}s",
                algo.name()
            );
        }
    }
}
