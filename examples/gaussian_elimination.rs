//! The paper's first real-workload experiment in miniature: generate
//! Gaussian-elimination task graphs for several matrix dimensions,
//! schedule them with all five paper algorithms, execute each schedule
//! on the simulated Paragon, and print the normalized comparison the
//! way Figure 5 does.
//!
//! ```text
//! cargo run --release --example gaussian_elimination
//! ```

use fastsched::prelude::*;

fn main() {
    let db = TimingDatabase::paragon();
    let sim = SimConfig::default();

    for n in [4usize, 8, 16] {
        let app = Application::Gaussian { n };
        let procs = 2 * n as u32; // "more than enough" for bounded algorithms
        let table = compare_algorithms(app, &db, &paper_schedulers(1), procs, &sim)
            .expect("the paper schedulers handle every workload");
        println!("{}", table.render());

        // The paper's headline: programs scheduled by FAST run faster.
        let fast_row = &table.rows[0];
        assert_eq!(fast_row.algorithm, "FAST");
        for row in &table.rows[1..] {
            let verdict = if row.normalized >= 1.0 { "ok" } else { "(!)" };
            println!(
                "  FAST vs {:<4}: {:+.1}% {}",
                row.algorithm,
                (row.normalized - 1.0) * 100.0,
                verdict
            );
        }
        println!();
    }
}
