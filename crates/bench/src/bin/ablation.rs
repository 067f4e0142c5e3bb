//! Ablation study for the design choices the paper calls out:
//!
//! 1. **List construction** (§4.1, §6: "the major strength of the
//!    algorithm is the construction of the CPN-Dominate list"): the
//!    CPN-Dominate order vs. static-level (HLFET), ALAP (MCP) and
//!    plain topological orders, all executed through the same
//!    append-policy list scheduler.
//! 2. **MAXSTEP** (§4.4: fixed at 64; "can be as small as 100 even
//!    for huge DAGs"): schedule length as the search budget grows.
//! 3. **OBN tail order** (the §4.1 prose/procedure discrepancy):
//!    decreasing vs. increasing b-level.
//! 4. **Slot policy**: the paper's O(e) ready-time append vs. the
//!    insertion policy used by MCP/HEFT, on the CPN-Dominate list.
//!
//! ```text
//! cargo run --release -p fastsched-bench --bin ablation [--trace <out.ndjson>]
//! ```
//!
//! `--trace` records, for every workload, the schedule-length
//! trajectory of a long FAST search (MAXSTEP = 1024, the sweep's
//! largest budget) into one NDJSON stream — each workload's events are
//! preceded by a `workload` metadata line.

use fastsched::algorithms::list_common::run_static_list;
use fastsched::algorithms::{Hlfet, Mcp};
use fastsched::dag::{classify_nodes, cpn_dominate_list, CpnListConfig, ObnOrder};
use fastsched::prelude::*;
use fastsched_bench::trace_arg;

fn workloads(db: &TimingDatabase) -> Vec<(String, Dag)> {
    vec![
        ("gauss N=16".into(), gaussian_elimination_dag(16, db)),
        ("laplace N=16".into(), laplace_dag(16, db)),
        ("fft 128".into(), fft_dag(128, db)),
        (
            "random v=500".into(),
            random_layered_dag(&RandomDagConfig::paper(500, db), 7),
        ),
    ]
}

fn main() {
    let db = TimingDatabase::paragon();

    println!("== Ablation 1: priority-list construction (append policy) ==");
    println!(
        "{:<14} {:>14} {:>10} {:>10} {:>10}",
        "workload", "CPN-Dominate", "SL", "ALAP", "topo"
    );
    for (name, dag) in workloads(&db) {
        let procs = (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2;
        let attrs = GraphAttributes::compute(&dag);
        let classes = classify_nodes(&dag, &attrs);
        let cpn = cpn_dominate_list(&dag, &attrs, &classes, CpnListConfig::default());
        let sl = Hlfet::priority_list(&dag);
        let alap = Mcp::priority_list(&dag);
        let topo = dag.topo_order().to_vec();
        let m = |order: &[NodeId]| run_static_list(&dag, order, procs, false).makespan();
        println!(
            "{:<14} {:>14} {:>10} {:>10} {:>10}",
            name,
            m(&cpn),
            m(&sl),
            m(&alap),
            m(&topo)
        );
    }

    println!("\n== Ablation 2: MAXSTEP sweep (schedule length) ==");
    let steps = [0u32, 16, 64, 256, 1024];
    print!("{:<14}", "workload");
    for s in steps {
        print!("{s:>10}");
    }
    println!();
    for (name, dag) in workloads(&db) {
        let procs = (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2;
        print!("{name:<14}");
        for s in steps {
            let fast = Fast::with_config(FastConfig {
                max_steps: s,
                ..Default::default()
            });
            print!("{:>10}", fast.schedule(&dag, procs).makespan());
        }
        println!();
    }

    println!("\n== Ablation 3: OBN tail order ==");
    println!(
        "{:<14} {:>12} {:>12}",
        "workload", "decreasing", "increasing"
    );
    for (name, dag) in workloads(&db) {
        let procs = (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2;
        let m = |obn: ObnOrder| {
            Fast::with_config(FastConfig {
                obn_order: obn,
                ..Default::default()
            })
            .schedule(&dag, procs)
            .makespan()
        };
        println!(
            "{:<14} {:>12} {:>12}",
            name,
            m(ObnOrder::Decreasing),
            m(ObnOrder::Increasing)
        );
    }

    println!("\n== Ablation 4: slot policy on the CPN-Dominate list ==");
    println!(
        "{:<14} {:>12} {:>12}",
        "workload", "append O(e)", "insertion"
    );
    for (name, dag) in workloads(&db) {
        let procs = (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2;
        let attrs = GraphAttributes::compute(&dag);
        let classes = classify_nodes(&dag, &attrs);
        let order = cpn_dominate_list(&dag, &attrs, &classes, CpnListConfig::default());
        println!(
            "{:<14} {:>12} {:>12}",
            name,
            run_static_list(&dag, &order, procs, false).makespan(),
            run_static_list(&dag, &order, procs, true).makespan()
        );
    }

    // §4.2's candidate restriction — probing only the parents'
    // processors plus one fresh processor — is an O(e) complexity
    // device, but it also biases toward data affinity; probing every
    // processor (same list, same append policy) is not reliably
    // better.
    println!("\n== Ablation 5: InitialSchedule candidate processors ==");
    println!(
        "{:<14} {:>16} {:>12}",
        "workload", "parents+new O(e)", "all procs"
    );
    for (name, dag) in workloads(&db) {
        let procs = (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2;
        let attrs = GraphAttributes::compute(&dag);
        let classes = classify_nodes(&dag, &attrs);
        let order = cpn_dominate_list(&dag, &attrs, &classes, CpnListConfig::default());
        let (restricted, _, _) = Fast::new().initial_schedule(&dag, procs);
        println!(
            "{:<14} {:>16} {:>12}",
            name,
            restricted.makespan(),
            run_static_list(&dag, &order, procs, false).makespan()
        );
    }

    if let Some(path) = trace_arg() {
        if let Err(e) = write_trajectories(&path, &db) {
            eprintln!("error: {e}");
        }
    }
}

/// One NDJSON stream of search trajectories, all workloads back to
/// back (each introduced by its `workload` metadata line), using the
/// sweep's largest budget so the trajectory tail is visible.
fn write_trajectories(path: &str, db: &TimingDatabase) -> Result<(), String> {
    let mut out = String::new();
    for (name, dag) in workloads(db) {
        let procs = (2.0 * (dag.node_count() as f64).sqrt()) as u32 + 2;
        let fast = Fast::with_config(FastConfig {
            max_steps: 1024,
            ..Default::default()
        });
        let mut trace = fastsched::trace::SearchTrace::recording();
        trace.set_meta("tool", "ablation");
        trace.set_meta("workload", &name);
        trace.set_meta("max_steps", "1024");
        fast.schedule_traced(&dag, procs, &mut trace);
        out.push_str(&trace.to_report().to_ndjson());
    }
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote search trajectories to {path}");
    Ok(())
}
