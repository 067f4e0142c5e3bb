//! Processor-count sweep: speedup curves for the bounded algorithms on
//! Gaussian elimination N=32 (the paper's largest real workload,
//! 594 tasks) as the machine grows from 2 to 64 processors — the
//! classic scalability figure the paper's Figures 5(b)–7(b) imply but
//! never plot.
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin table-procs [--trace <out.ndjson>]
//! ```
//!
//! `--trace` additionally records FAST's search at the largest
//! processor count as NDJSON.

use fastsched::prelude::*;
use fastsched_bench::{measure, trace_arg, write_search_trace};

fn main() {
    let db = TimingDatabase::paragon();
    let dag = gaussian_elimination_dag(32, &db);
    let serial = dag.total_computation();
    println!(
        "gauss N=32: v = {}, e = {}, serial time = {serial}",
        dag.node_count(),
        dag.edge_count()
    );

    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Fast::new()),
        Box::new(Etf::new()),
        Box::new(Dls::new()),
        Box::new(Mcp::new()),
        Box::new(Heft::new()),
    ];
    let procs = [2u32, 4, 8, 16, 32, 64];

    println!("\n(speedup = serial time / simulated execution time)");
    print!("{:<10}", "Algorithm");
    for p in procs {
        print!("{:>9}", format!("p={p}"));
    }
    println!();
    for s in &schedulers {
        print!("{:<10}", s.name());
        for &p in &procs {
            let cell = measure(&dag, s.as_ref(), p, &SimConfig::default());
            print!("{:>9.2}", serial as f64 / cell.execution_time as f64);
        }
        println!();
    }

    println!("\n(schedule length; lower is better)");
    print!("{:<10}", "Algorithm");
    for p in procs {
        print!("{:>9}", format!("p={p}"));
    }
    println!();
    for s in &schedulers {
        print!("{:<10}", s.name());
        for &p in &procs {
            let cell = measure(&dag, s.as_ref(), p, &SimConfig::default());
            print!("{:>9}", cell.makespan);
        }
        println!();
    }

    if let Some(path) = trace_arg() {
        if let Err(e) = write_search_trace(&path, &dag, &Fast::new(), 64, "gauss N=32 p=64") {
            eprintln!("error: {e}");
        }
    }
}
