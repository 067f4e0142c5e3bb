//! Simulator study: the same FAST schedule executed over different
//! interconnects (Paragon mesh, torus, iPSC-style hypercube, ideal
//! fully-connected) and network-cost regimes — quantifying how much of
//! the measured execution time is topology, contention, and software
//! overhead rather than the schedule itself.
//!
//! ```text
//! cargo run --release --example topology_study
//! ```

use fastsched::prelude::*;
use fastsched::sim::network::ContentionModel;
use fastsched::sim::Topology;

fn main() {
    let db = TimingDatabase::paragon();
    let dag = gaussian_elimination_dag(16, &db);
    let schedule = Fast::new().schedule(&dag, 24);
    let procs = schedule.processors_used();
    println!(
        "FAST schedule of gauss N=16: makespan {}, {} processors\n",
        schedule.makespan(),
        procs
    );

    let side = (procs as f64).sqrt().ceil() as u32;
    let dim = 32 - procs.next_power_of_two().leading_zeros() - 1;
    let topologies = [
        ("ideal (full)", Topology::FullyConnected),
        (
            "mesh",
            Topology::Mesh2D {
                width: side,
                height: procs.div_ceil(side),
            },
        ),
        (
            "torus",
            Topology::Torus2D {
                width: side,
                height: procs.div_ceil(side),
            },
        ),
        ("hypercube", Topology::Hypercube { dim: dim.max(1) }),
    ];

    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>10}",
        "topology", "exec", "slowdown", "contention", "messages"
    );
    for (label, topo) in topologies {
        let r = simulate(
            &dag,
            &schedule,
            &SimConfig {
                topology: Some(topo),
                ..SimConfig::default()
            },
        );
        println!(
            "{:<14} {:>10} {:>10.3} {:>12} {:>10}",
            label,
            r.execution_time,
            r.slowdown_vs_prediction(),
            r.contention_delay,
            r.messages
        );
    }

    println!("\nsoftware overhead sweep (mesh):");
    println!(
        "{:<22} {:>10} {:>10}",
        "o_send / o_recv (us)", "exec", "slowdown"
    );
    for o in [0u64, 5, 20, 50] {
        let r = simulate(
            &dag,
            &schedule,
            &SimConfig {
                send_overhead_us: o,
                recv_overhead_us: o,
                ..SimConfig::default()
            },
        );
        println!(
            "{:<22} {:>10} {:>10.3}",
            format!("{o} / {o}"),
            r.execution_time,
            r.slowdown_vs_prediction()
        );
    }

    println!("\ncontention model sweep (mesh):");
    for (label, model) in [
        ("none", ContentionModel::None),
        ("pipelined (/8)", ContentionModel::Links { pipelining: 8 }),
        ("circuit (/1)", ContentionModel::Links { pipelining: 1 }),
    ] {
        let r = simulate(
            &dag,
            &schedule,
            &SimConfig {
                contention: model,
                ..SimConfig::default()
            },
        );
        println!(
            "  {:<16} exec {:>8}  contention delay {:>8}",
            label, r.execution_time, r.contention_delay
        );
    }
}
