//! CCR sweep — the granularity axis the paper's successor studies
//! (the authors' own benchmark-suite comparison \[1\]) standardized:
//! normalized schedule lengths for FAST, DSC, ETF and DLS on the same
//! random DAGs rescaled to communication-to-computation ratios from
//! 0.1 to 10. Clustering (DSC) should pull ahead as communication
//! dominates; greedy spreading (ETF/DLS) should shine when it is
//! cheap.
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin table-ccr [--trace <out.ndjson>]
//! ```
//!
//! `--trace` additionally records FAST's search on the highest-CCR
//! variant as NDJSON.

use fastsched::dag::transform::scale_communication;
use fastsched::prelude::*;
use fastsched_bench::{run_figure, trace_arg, write_search_trace};

fn main() {
    let db = TimingDatabase::paragon();
    let base = random_layered_dag(&RandomDagConfig::paper(600, &db), 21);
    let base_ccr = base.ccr();

    // Scale the base graph's messages to hit the target CCRs.
    let targets: &[(&str, u64, u64)] = &[
        ("0.1", 1, 10),
        ("0.5", 1, 2),
        ("1.0", 1, 1),
        ("2.0", 2, 1),
        ("10", 10, 1),
    ];
    let dags: Vec<Dag> = targets
        .iter()
        .map(|&(_, num, den)| {
            // base CCR ≈ 1.17; fold it into the scaling.
            let adj_num = num * 100;
            let adj_den = den * (base_ccr * 100.0) as u64;
            scale_communication(&base, adj_num, adj_den.max(1))
        })
        .collect();
    let labels = dags.iter().map(|d| format!("CCR {:.2}", d.ccr())).collect();

    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Fast::new()),
        Box::new(Dsc::new()),
        Box::new(Etf::new()),
        Box::new(Dls::new()),
    ];

    let out = run_figure(
        "CCR sweep: random DAG (v = 600) rescaled across comm regimes",
        labels,
        &dags,
        &schedulers,
        |dag| (dag.node_count() as u32).min(256),
        &SimConfig::default(),
        true, // schedule lengths, as in Figure 8
    );
    println!("{out}");

    if let Some(path) = trace_arg() {
        let dag = dags.last().expect("at least one workload");
        let procs = (dag.node_count() as u32).min(256);
        let label = format!("random v=600 CCR {:.2}", dag.ccr());
        if let Err(e) = write_search_trace(&path, dag, &Fast::new(), procs, &label) {
            eprintln!("error: {e}");
        }
    }
}
