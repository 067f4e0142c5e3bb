//! Walk the paper's §2–§4 worked example end to end on the
//! reconstructed Figure 1 task graph: the attribute table, the
//! CPN/IBN/OBN partition, the CPN-Dominate list, the initial schedule,
//! and the local-search refinement.
//!
//! ```text
//! cargo run --example paper_figure1
//! ```

use fastsched::dag::examples::{paper_figure1, paper_node};
use fastsched::dag::{classify_nodes, cpn_dominate_list, CpnListConfig};
use fastsched::prelude::*;
use fastsched::schedule::gantt;

fn main() {
    let dag = paper_figure1();
    let attrs = GraphAttributes::compute(&dag);

    // Figure 1(b): SL, t-level (ASAP), b-level, ALAP per node.
    println!("node  w   SL  t-level  b-level  ALAP  class");
    let classes = classify_nodes(&dag, &attrs);
    for k in 1..=9 {
        let n = paper_node(k);
        println!(
            "n{}   {:>2} {:>4} {:>8} {:>8} {:>5}  {:?}{}",
            k,
            dag.weight(n),
            attrs.static_level[n.index()],
            attrs.t_level[n.index()],
            attrs.b_level[n.index()],
            attrs.alap[n.index()],
            classes[n.index()],
            if attrs.is_cpn(n) { " *" } else { "" }
        );
    }
    println!("critical-path length = {}", attrs.cp_length);

    // §4.1–4.2: the CPN-Dominate list.
    let list = cpn_dominate_list(&dag, &attrs, &classes, CpnListConfig::default());
    let labels: Vec<String> = list.iter().map(|n| format!("n{}", n.0 + 1)).collect();
    println!("\nCPN-Dominate list: {{{}}}", labels.join(", "));
    println!("(paper §4.2: {{n1, n3, n2, n7, n6, n5, n4, n8, n9}})");

    // Figure 4(a): the initial schedule.
    let fast = Fast::new();
    let (initial, _, _) = fast.initial_schedule(&dag, 9);
    println!("\nInitialSchedule() — makespan {}:", initial.makespan());
    println!("{}", gantt::render_listing(&dag, &initial.compact()));

    // §4.3: the blocking-node list driving the local search.
    let blocking = Fast::blocking_nodes(&dag);
    let labels: Vec<String> = blocking.iter().map(|n| format!("n{}", n.0 + 1)).collect();
    println!("blocking-node list: {{{}}}", labels.join(", "));

    // Figure 4(b): after the local search.
    let refined = fast.schedule(&dag, 9);
    println!(
        "\nFAST after local search — makespan {} (was {}):",
        refined.makespan(),
        initial.makespan()
    );
    println!("{}", gantt::render_listing(&dag, &refined));

    // Figures 2–3: what the baselines do with the same graph.
    println!("baseline schedule lengths on the same graph:");
    for s in paper_schedulers(1) {
        let sched = s.schedule(&dag, 9);
        println!(
            "  {:<6} makespan {:>3}  procs {}",
            s.name(),
            sched.makespan(),
            sched.processors_used()
        );
    }
}
