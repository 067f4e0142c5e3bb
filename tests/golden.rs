//! Golden byte-identity table: every scheduler's output on a fixed
//! input set, hashed and compared against `tests/golden.txt`.
//!
//! Each row is one `(input, algorithm, model)` case. Its hash is the
//! FNV-1a 64 digest of the rendered makespan followed by every node's
//! `(proc, start, finish)` placement in id order, so any change to a
//! scheduling decision — not just to the makespan — flips the row.
//!
//! Inputs are every DAG under `results/fixtures` plus a few seeded
//! `workloads::fuzz` DAGs. Models are the plain homogeneous machine
//! for every `all_schedulers` entry, and α–β(25,3,2), a 4+4
//! hierarchical machine and loose memory capacities for the schedulers
//! that have a model core.
//!
//! The table is the contract refactors are held to: a change that
//! keeps schedules byte-identical leaves it untouched. Regenerate it
//! only for an intended behaviour change:
//!
//! ```sh
//! cargo test -q -p fastsched --test golden -- --ignored --nocapture \
//!     print_golden_table | grep -P '\t' > tests/golden.txt
//! ```

use fastsched::algorithms::{FastParallel, FastParallelConfig, FastSa, FastSaConfig};
use fastsched::dag::io::from_json;
use fastsched::dag::io_text::from_text;
use fastsched::prelude::*;
use fastsched::schedule::{
    AlphaBeta, CommModel, CostModel, Hierarchical, HomogeneousModel, MemoryCapacities, IDEAL_LINK,
};
use fastsched::workloads::fuzz::{assign_mems, fuzz_corpus};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 11;
const FIXTURE_PROCS: u32 = 4;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// `(name, dag, procs)` for every fixture DAG and a few fuzz DAGs.
fn inputs() -> Vec<(String, Dag, u32)> {
    let mut files: Vec<_> = std::fs::read_dir(repo_path("results/fixtures"))
        .expect("fixture directory")
        .map(|e| e.expect("fixture entry").path())
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("fixture file");
        let dag = match path.extension().and_then(|e| e.to_str()) {
            Some("json") => from_json(&text).expect("fixture json"),
            Some("tg") => from_text(&text).expect("fixture text"),
            _ => continue,
        };
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, dag, FIXTURE_PROCS));
    }
    for case in fuzz_corpus(0x601D, 6) {
        out.push((case.name, case.dag, case.procs));
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest(dag: &Dag, s: &Schedule) -> u64 {
    let mut text = format!("{}\n", s.makespan());
    for n in dag.nodes() {
        let t = s.task(n).expect("complete schedule");
        writeln!(text, "{} {} {}", t.proc.0, t.start, t.finish).unwrap();
    }
    fnv1a(text.as_bytes())
}

/// Run the model core of the scheduler named `algo`, if it has one.
fn model_run<M: CostModel + Sync>(
    algo: &str,
    dag: &Dag,
    procs: u32,
    model: &M,
) -> Option<Schedule> {
    let ws = &mut Workspace::new();
    let tr = &mut SearchTrace::default();
    Some(match algo {
        "FAST" => Fast::new().run(dag, procs, model, ws, tr),
        "FAST-SA" => FastSa::with_config(FastSaConfig {
            seed: SEED,
            steps: 512,
            ..Default::default()
        })
        .run(dag, procs, model, ws, tr),
        "FAST-MS" => FastParallel::with_config(FastParallelConfig {
            seed: SEED,
            ..Default::default()
        })
        .run(dag, procs, model, ws, tr),
        "ETF" => Etf::new().run(dag, procs, model, ws, tr),
        "DLS" => Dls::new().run(dag, procs, model, ws, tr),
        "HEFT" => Heft::new().run(dag, procs, model, ws, tr),
        _ => return None,
    })
}

/// The model cores that honour memory capacities.
const MEMORY_AWARE: [&str; 2] = ["FAST", "HEFT"];

fn table() -> String {
    let mut rows = String::new();
    let mut row = |input: &str, algo: &str, model: &str, dag: &Dag, s: &Schedule| {
        writeln!(rows, "{input}\t{algo}\t{model}\t{:016x}", digest(dag, s)).unwrap();
    };
    let alpha_beta = CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2));
    let hier = CommModel::Hierarchical(
        Hierarchical::from_group_sizes(&[4, 4], IDEAL_LINK, AlphaBeta::new(50, 2, 1))
            .expect("group table"),
    );
    for (input, dag, procs) in inputs() {
        let mem_dag = assign_mems(&dag, SEED);
        let loose =
            MemoryCapacities::uniform(HomogeneousModel, mem_dag.total_memory().max(1), procs);
        for s in all_schedulers(SEED) {
            let algo = s.name();
            row(&input, algo, "plain", &dag, &s.schedule(&dag, procs));
            if let Some(sched) = model_run(algo, &dag, procs, &alpha_beta) {
                row(&input, algo, "alpha-beta(25,3,2)", &dag, &sched);
            }
            if let Some(sched) = model_run(algo, &dag, 8, &hier) {
                row(&input, algo, "hier-4+4", &dag, &sched);
            }
            if MEMORY_AWARE.contains(&algo) {
                let sched = model_run(algo, &mem_dag, procs, &loose).expect("model core");
                row(&input, algo, "mem-caps-loose", &mem_dag, &sched);
            }
        }
    }
    rows
}

#[test]
fn every_schedule_matches_the_golden_table() {
    let actual = table();
    let expected = std::fs::read_to_string(repo_path("tests/golden.txt")).expect("golden table");
    let diverged: Vec<_> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(a, e)| a != e)
        .collect();
    assert!(
        diverged.is_empty() && actual.lines().count() == expected.lines().count(),
        "{} of {} golden rows diverged (actual, expected):\n{diverged:#?}",
        diverged.len(),
        expected.lines().count()
    );
}

/// Prints the table in `tests/golden.txt` form (see the module docs).
#[test]
#[ignore]
fn print_golden_table() {
    print!("{}", table());
}
