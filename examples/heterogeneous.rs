//! The heterogeneous-processors extension in action: schedule the
//! Gaussian-elimination workload on machines with the same aggregate
//! capacity but different speed mixes, and watch HEFT chase the fast
//! processors.
//!
//! ```text
//! cargo run --release --example heterogeneous
//! ```

use fastsched::algorithms::hetero::{HeftHetero, ProcessorSpeeds};
use fastsched::prelude::*;

fn main() {
    let db = TimingDatabase::paragon();
    let dag = gaussian_elimination_dag(8, &db);
    println!(
        "workload: gauss N=8 ({} tasks, {} messages)\n",
        dag.node_count(),
        dag.edge_count()
    );

    // Three machines with aggregate speed 800%.
    let machines = [
        ("8 × 1.0x (uniform)", ProcessorSpeeds::uniform(8)),
        (
            "4 × 1.5x + 2 × 1.0x  (big.LITTLE)",
            ProcessorSpeeds::new(vec![150, 150, 150, 150, 100, 100]),
        ),
        (
            "2 × 3.0x + 2 × 1.0x  (few hot cores)",
            ProcessorSpeeds::new(vec![300, 300, 100, 100]),
        ),
    ];

    for (label, speeds) in machines {
        let heft = HeftHetero::new(speeds.clone());
        let schedule = heft.schedule(&dag);

        // Work distribution per processor.
        let mut busy = vec![0u64; speeds.count() as usize];
        for t in schedule.tasks() {
            busy[t.proc.index()] += t.finish - t.start;
        }
        println!("{label}");
        println!("  makespan: {}", schedule.makespan());
        for (p, b) in busy.iter().enumerate() {
            println!(
                "  PE{p} (speed {:>3}%): busy {:>6} ({:>4.0}% of makespan)",
                speeds.speed_percent[p],
                b,
                100.0 * *b as f64 / schedule.makespan() as f64
            );
        }
        println!();
    }
}
