//! Extension comparison: every scheduler in the workspace — the
//! paper's five plus the family extensions (HLFET, MCP, HEFT, DCP,
//! ISH, EZ, LC, multi-start FAST, simulated-annealing FAST) — on the
//! three real workloads, simulated-Paragon execution times normalized
//! to FAST. The modern context the paper's §3 survey gestures at.
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin table-extensions [--trace <out.ndjson>]
//! ```
//!
//! `--trace` additionally records FAST-SA's search (the extension with
//! the richest trajectory) on the random workload as NDJSON.

use fastsched::algorithms::{FastSa, FastSaConfig};
use fastsched::prelude::*;
use fastsched_bench::{run_figure, trace_arg, write_search_trace};

fn main() {
    let db = TimingDatabase::paragon();
    let dags = vec![
        gaussian_elimination_dag(16, &db),
        laplace_dag(16, &db),
        fft_dag(128, &db),
        random_layered_dag(&RandomDagConfig::paper(500, &db), 7),
    ];
    let labels = vec![
        "gauss16".to_string(),
        "laplace16".to_string(),
        "fft128".to_string(),
        "rand500".to_string(),
    ];

    let out = run_figure(
        "Extensions: all schedulers on the real workloads (exec time vs FAST)",
        labels,
        &dags,
        &all_schedulers(1),
        |dag| (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2,
        &SimConfig::default(),
        false,
    );
    println!("{out}");

    if let Some(path) = trace_arg() {
        let dag = dags.last().expect("at least one workload");
        let procs = (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2;
        let sa = FastSa::with_config(FastSaConfig {
            steps: 512,
            ..Default::default()
        });
        if let Err(e) = write_search_trace(&path, dag, &sa, procs, "rand500 (FAST-SA)") {
            eprintln!("error: {e}");
        }
    }
}
