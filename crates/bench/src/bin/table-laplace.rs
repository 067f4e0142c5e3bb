//! Regenerates the paper's **Figure 6** — the Laplace equation solver
//! on the (simulated) Paragon: (a) normalized execution times, (b)
//! processors used, (c) scheduling times — for grid dimensions 4, 8,
//! 16, 32 (task counts 18, 66, 258, 1026, matching the paper exactly).
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin table-laplace [--trace <out.ndjson>]
//! ```
//!
//! `--trace` additionally records FAST's search on the largest
//! workload as NDJSON.

use fastsched::prelude::*;
use fastsched_bench::{run_figure, trace_arg, write_search_trace};

fn main() {
    let db = TimingDatabase::paragon();
    let dims = [4usize, 8, 16, 32];
    let dags: Vec<Dag> = dims.iter().map(|&n| laplace_dag(n, &db)).collect();
    let labels = dims.iter().map(|n| format!("N={n}")).collect();

    let out = run_figure(
        "Figure 6: Laplace equation solver (Paragon-substitute simulation)",
        labels,
        &dags,
        &paper_schedulers(1),
        |dag| (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2,
        &SimConfig::default(),
        false,
    );
    println!("{out}");

    if let Some(path) = trace_arg() {
        let dag = dags.last().expect("at least one workload");
        let procs = (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2;
        if let Err(e) = write_search_trace(&path, dag, &Fast::new(), procs, "laplace N=32") {
            eprintln!("error: {e}");
        }
    }
}
