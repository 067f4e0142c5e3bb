//! Schedule forensics: extract the bottleneck chain of a FAST schedule
//! (the waits that determine the makespan) and the per-processor idle
//! breakdown — the diagnostics a refinement phase acts on.
//!
//! ```text
//! cargo run --release --example schedule_analysis
//! ```

use fastsched::prelude::*;
use fastsched::schedule::analysis::{bottleneck_chain, idle_profile, WaitReason};

fn main() {
    let db = TimingDatabase::paragon();
    let dag = laplace_dag(8, &db);
    let schedule = Fast::new().schedule(&dag, 12);
    println!(
        "FAST schedule of laplace N=8: makespan {}, {} processors\n",
        schedule.makespan(),
        schedule.processors_used()
    );

    println!("bottleneck chain (what sets the makespan):");
    let chain = bottleneck_chain(&dag, &schedule, &Machine::Homogeneous);
    for link in &chain {
        let t = schedule.task(link.node).unwrap();
        let why = match link.reason {
            WaitReason::ChainHead => "chain head".to_string(),
            WaitReason::Processor(p) => format!("waited for {} on the same PE", dag.name(p)),
            WaitReason::Data(p) => format!("waited for data from {}", dag.name(p)),
        };
        println!(
            "  {:<8} [{:>5}-{:>5}] on {}  — {}",
            dag.name(link.node),
            t.start,
            t.finish,
            t.proc,
            why
        );
    }
    let data_waits = chain
        .iter()
        .filter(|l| matches!(l.reason, WaitReason::Data(_)))
        .count();
    let proc_waits = chain
        .iter()
        .filter(|l| matches!(l.reason, WaitReason::Processor(_)))
        .count();
    println!("\n{data_waits} data waits vs {proc_waits} processor waits along the chain");

    println!("\nidle profile:");
    for p in idle_profile(&schedule) {
        println!(
            "  {}: busy {:>5}  lead {:>5}  gaps {:>5}  tail {:>5}",
            p.proc, p.busy, p.lead_idle, p.gap_idle, p.tail_idle
        );
    }
}
