//! Regenerates the paper's **Figures 2–4** — the worked example: the
//! schedules every algorithm produces for the (reconstructed) Figure 1
//! task graph, including FAST's initial schedule and its local-search
//! refinement.
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin table-fig2-4 [--trace <out.ndjson>]
//! ```
//!
//! `--trace` additionally records FAST's search on the example graph
//! as NDJSON.

use fastsched::dag::examples::paper_figure1;
use fastsched::prelude::*;
use fastsched::schedule::gantt;
use fastsched_bench::{trace_arg, write_search_trace};

fn main() {
    let dag = paper_figure1();
    println!(
        "Figure 1 example graph (reconstruction): v = {}, e = {}, CP = {}",
        dag.node_count(),
        dag.edge_count(),
        GraphAttributes::compute(&dag).cp_length
    );

    // Figures 2 and 3: the four baselines.
    for s in paper_schedulers(1).iter().skip(1) {
        let schedule = s.schedule(&dag, 9);
        println!(
            "\n-- {} (schedule length {}) --",
            s.name(),
            schedule.makespan()
        );
        print!("{}", gantt::render_listing(&dag, &schedule));
    }

    // Figure 4(a): InitialSchedule().
    let fast = Fast::new();
    let (initial, _, _) = fast.initial_schedule(&dag, 9);
    println!(
        "\n-- FAST InitialSchedule() (schedule length {}) --",
        initial.makespan()
    );
    print!("{}", gantt::render_listing(&dag, &initial.compact()));

    // Figure 4(b): after the local search.
    let refined = fast.schedule(&dag, 9);
    println!(
        "\n-- FAST after local search (schedule length {}) --",
        refined.makespan()
    );
    print!("{}", gantt::render_listing(&dag, &refined));

    if let Some(path) = trace_arg() {
        if let Err(e) = write_search_trace(&path, &dag, &fast, 9, "paper figure 1") {
            eprintln!("error: {e}");
        }
    }
}
