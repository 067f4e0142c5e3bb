//! The §5.2 experiment in miniature: generate dense layered random
//! DAGs, schedule with FAST / DSC / ETF / DLS (MD excluded, as in the
//! paper — it "took more than 8 hours to produce a schedule for a
//! 2000-node DAG" on the original hardware), and report schedule
//! lengths, processors used, and scheduling times.
//!
//! ```text
//! cargo run --release --example random_dag_comparison [nodes]
//! ```

use fastsched::prelude::*;
use std::time::Instant;

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500);
    let db = TimingDatabase::paragon();
    let dag = random_layered_dag(&RandomDagConfig::paper(nodes, &db), 2024);
    println!(
        "random DAG: v = {}, e = {}, CCR = {:.2}",
        dag.node_count(),
        dag.edge_count(),
        dag.ccr()
    );

    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Fast::new()),
        Box::new(Dsc::new()),
        Box::new(Etf::new()),
        Box::new(Dls::new()),
    ];
    // The paper gives every algorithm "more than enough processors".
    let procs = (dag.node_count() as u32).min(512);

    let mut reference = None;
    println!(
        "{:<6} {:>10} {:>8} {:>8} {:>12}",
        "algo", "makespan", "norm", "procs", "sched time"
    );
    for s in schedulers {
        let t0 = Instant::now();
        let schedule = s.schedule(&dag, procs);
        let dt = t0.elapsed();
        let base = *reference.get_or_insert(schedule.makespan().max(1));
        println!(
            "{:<6} {:>10} {:>8.2} {:>8} {:>12?}",
            s.name(),
            schedule.makespan(),
            schedule.makespan() as f64 / base as f64,
            schedule.processors_used(),
            dt
        );
    }
}
