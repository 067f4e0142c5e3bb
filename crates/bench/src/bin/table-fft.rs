//! Regenerates the paper's **Figure 7** — FFT on the (simulated)
//! Paragon: (a) normalized execution times, (b) processors used, (c)
//! scheduling times — for 16, 64, 128, 512 points (task counts 14, 34,
//! 82, 194, matching the paper exactly).
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin table-fft [--trace <out.ndjson>]
//! ```
//!
//! `--trace` additionally records FAST's search on the largest
//! workload as NDJSON.

use fastsched::prelude::*;
use fastsched_bench::{run_figure, trace_arg, write_search_trace};

fn main() {
    let db = TimingDatabase::paragon();
    let points = [16usize, 64, 128, 512];
    let dags: Vec<Dag> = points.iter().map(|&p| fft_dag(p, &db)).collect();
    let labels = points.iter().map(|p| format!("{p} pts")).collect();

    let out = run_figure(
        "Figure 7: FFT (Paragon-substitute simulation)",
        labels,
        &dags,
        &paper_schedulers(1),
        // The FFT graph has `rows`-way natural parallelism; grant a
        // pool comfortably above it ("more than enough").
        |dag| dag.node_count() as u32,
        &SimConfig::default(),
        false,
    );
    println!("{out}");

    if let Some(path) = trace_arg() {
        let dag = dags.last().expect("at least one workload");
        if let Err(e) = write_search_trace(
            &path,
            dag,
            &Fast::new(),
            dag.node_count() as u32,
            "fft 512 pts",
        ) {
            eprintln!("error: {e}");
        }
    }
}
