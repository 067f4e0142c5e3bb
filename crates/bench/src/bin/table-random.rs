//! Regenerates the paper's **Figure 8** — large dense random DAGs:
//! (a) normalized schedule lengths, (b) processors used, (c)
//! scheduling times — for v = 2000..5000. As in the paper, MD is
//! excluded ("it took more than 8 hours to produce a schedule for a
//! 2000-node DAG" on the original hardware; its O(v³) class is
//! measured on the real workloads instead), and for the random DAGs
//! the paper compares *schedule lengths*, not simulated execution.
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin table-random [--quick] [--seeds N]
//!                                                           [--trace <out.ndjson>]
//! ```
//!
//! `--quick` runs v = 500..1250 for a fast smoke pass; `--seeds N`
//! (default 1, as in the paper) averages the normalized schedule
//! lengths over N generator seeds and reports the min–max spread;
//! `--trace` additionally records FAST's search on the largest DAG as
//! NDJSON (applies to the single-seed run).

use fastsched::prelude::*;
use fastsched_bench::{run_figure, trace_arg, write_search_trace};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: u64 = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--seeds")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
    };
    if seeds > 1 {
        run_multi_seed(quick, seeds);
        return;
    }
    let db = TimingDatabase::paragon();
    let sizes: Vec<usize> = if quick {
        vec![500, 750, 1000, 1250]
    } else {
        vec![2000, 3000, 4000, 5000]
    };
    let dags: Vec<Dag> = sizes
        .iter()
        .enumerate()
        .map(|(i, &v)| random_layered_dag(&RandomDagConfig::paper(v, &db), i as u64 + 1))
        .collect();
    for d in &dags {
        println!(
            "workload: v = {}, e = {}, CCR = {:.2}",
            d.node_count(),
            d.edge_count(),
            d.ccr()
        );
    }
    let labels = dags
        .iter()
        .map(|d| format!("v={}", d.node_count()))
        .collect();

    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Fast::new()),
        Box::new(Dsc::new()),
        Box::new(Etf::new()),
        Box::new(Dls::new()),
    ];

    let out = run_figure(
        "Figure 8: random DAGs (schedule lengths; MD excluded as in the paper)",
        labels,
        &dags,
        &schedulers,
        // Bounded algorithms get a generous pool; DSC ignores it.
        |dag| (dag.node_count() as u32).min(512),
        &SimConfig::default(),
        true, // normalize on schedule length, as the paper does here
    );
    println!("{out}");

    if let Some(path) = trace_arg() {
        let dag = dags.last().expect("at least one workload");
        let procs = (dag.node_count() as u32).min(512);
        let label = format!("random v={}", dag.node_count());
        if let Err(e) = write_search_trace(&path, dag, &Fast::new(), procs, &label) {
            eprintln!("error: {e}");
        }
    }
}

/// Multi-seed statistical variant: mean and min–max of normalized
/// schedule lengths over several generator seeds per size.
fn run_multi_seed(quick: bool, seeds: u64) {
    use fastsched_bench::measure;
    let db = TimingDatabase::paragon();
    let sizes: Vec<usize> = if quick {
        vec![500, 750, 1000]
    } else {
        vec![2000, 3000, 4000, 5000]
    };
    let names = ["FAST", "DSC", "ETF", "DLS"];
    println!("== Figure 8 (multi-seed, {seeds} seeds): normalized schedule lengths ==");
    println!("{:<8} {:>10} {:>24}", "size", "algo", "mean [min, max]");
    for &v in &sizes {
        // ratios[algo][seed]
        let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        for seed in 0..seeds {
            let dag = random_layered_dag(&RandomDagConfig::paper(v, &db), 1000 + seed);
            let procs = (dag.node_count() as u32).min(512);
            let schedulers: Vec<Box<dyn Scheduler>> = vec![
                Box::new(Fast::new()),
                Box::new(Dsc::new()),
                Box::new(Etf::new()),
                Box::new(Dls::new()),
            ];
            let base = measure(&dag, schedulers[0].as_ref(), procs, &SimConfig::default())
                .makespan
                .max(1) as f64;
            for (i, s) in schedulers.iter().enumerate() {
                let m = measure(&dag, s.as_ref(), procs, &SimConfig::default()).makespan as f64;
                ratios[i].push(m / base);
            }
        }
        for (i, name) in names.iter().enumerate() {
            let mean = ratios[i].iter().sum::<f64>() / ratios[i].len() as f64;
            let lo = ratios[i].iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ratios[i].iter().cloned().fold(0.0f64, f64::max);
            println!(
                "{:<8} {:>10} {:>10.3} [{lo:.3}, {hi:.3}]",
                format!("v={v}"),
                name,
                mean
            );
        }
    }
}
