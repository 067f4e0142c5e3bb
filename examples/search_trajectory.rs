//! Visualize FAST's local search: record the schedule-length
//! trajectory with the observability layer and render it as an ASCII
//! sparkline per workload, next to the phase timers and probe
//! counters the trace collects along the way.
//!
//! ```text
//! cargo run --release --example search_trajectory
//! ```

use fastsched::algorithms::FastConfig;
use fastsched::prelude::*;
use fastsched::trace::sparkline;

fn main() {
    let db = TimingDatabase::paragon();
    for (name, dag) in [
        ("gauss16", gaussian_elimination_dag(16, &db)),
        ("laplace16", laplace_dag(16, &db)),
        ("fft128", fft_dag(128, &db)),
        (
            "random500",
            random_layered_dag(&RandomDagConfig::paper(500, &db), 7),
        ),
    ] {
        // Scarce processors (~2 sqrt(v)): the regime where transfers
        // pay; a long budget so the trajectory has a visible tail.
        let procs = (2.0 * (dag.node_count() as f64).sqrt()) as u32;
        let fast = Fast::with_config(FastConfig {
            max_steps: 2048,
            ..Default::default()
        });
        let mut trace = SearchTrace::recording();
        let machine = &Machine::Homogeneous;
        let schedule = fast
            .run(&dag, procs, machine, &mut Workspace::new(), &mut trace)
            .unwrap();
        validate(&dag, &schedule).unwrap();

        let report = trace.to_report();
        let traj = report.trajectory();
        let first = traj.first().copied().unwrap_or(schedule.makespan());
        println!(
            "{name:<10} v={:<5} procs={procs:<4} probes={} accepted={} \
             schedule length {first} -> {}",
            dag.node_count(),
            report.counter("probes_attempted").unwrap_or(0),
            report.counter("probes_accepted").unwrap_or(0),
            schedule.makespan()
        );
        // Schedule length vs. search step, best-so-far per probe.
        println!("  [{}]", sparkline(&traj, 64));
    }
    println!("\n(each column is a probe window; taller = longer schedule; render a saved\n trace with `casch trace --in <file>`)");
}
