//! Multi-algorithm comparison in the paper's table format: execution
//! times normalized to FAST, processors used, and scheduling times.

use crate::application::Application;
use crate::pipeline::{run_on_dag, PipelineReport};
use fastsched_algorithms::{Scheduler, SchedulerError};
use fastsched_sim::SimConfig;
use fastsched_workloads::TimingDatabase;
use std::fmt::Write as _;
use std::time::Duration;

/// One algorithm's row in a comparison.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Simulated execution time (µs).
    pub execution_time: u64,
    /// Execution time normalized to the first (reference) algorithm.
    pub normalized: f64,
    /// Static schedule length.
    pub makespan: u64,
    /// Processors used.
    pub processors: u32,
    /// Algorithm wall-clock running time.
    pub scheduling_time: Duration,
}

/// A full comparison of several algorithms on one workload.
#[derive(Debug, Clone)]
pub struct ComparisonTable {
    /// Workload label.
    pub workload: String,
    /// Node / edge counts.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Rows, in the order the schedulers were supplied; the first row
    /// is the normalization reference (FAST, in the paper's tables).
    pub rows: Vec<ComparisonRow>,
}

impl ComparisonTable {
    /// Render the table in the paper's style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "workload {} (v = {}, e = {})",
            self.workload, self.nodes, self.edges
        )
        .unwrap();
        writeln!(
            out,
            "{:<8} {:>12} {:>10} {:>12} {:>8} {:>14}",
            "algo", "exec(us)", "norm", "makespan", "procs", "sched time"
        )
        .unwrap();
        for r in &self.rows {
            writeln!(
                out,
                "{:<8} {:>12} {:>10.2} {:>12} {:>8} {:>14?}",
                r.algorithm,
                r.execution_time,
                r.normalized,
                r.makespan,
                r.processors,
                r.scheduling_time
            )
            .unwrap();
        }
        out
    }
}

/// Run every scheduler on the same generated DAG and tabulate, with
/// execution times normalized to the first scheduler's.
pub fn compare_algorithms(
    app: Application,
    db: &TimingDatabase,
    schedulers: &[Box<dyn Scheduler>],
    num_procs: u32,
    sim: &SimConfig,
) -> Result<ComparisonTable, SchedulerError> {
    let dag = app.generate(db);
    let reports: Vec<PipelineReport> = schedulers
        .iter()
        .map(|s| run_on_dag(&dag, s.as_ref(), num_procs, sim))
        .collect::<Result<_, _>>()?;
    let reference = reports
        .first()
        .map(|r| r.execution_time().max(1))
        .unwrap_or(1);
    let rows = reports
        .into_iter()
        .map(|r| ComparisonRow {
            algorithm: r.algorithm,
            execution_time: r.execution_time(),
            normalized: r.execution_time() as f64 / reference as f64,
            makespan: r.metrics.makespan,
            processors: r.metrics.processors_used,
            scheduling_time: r.scheduling_time,
        })
        .collect();
    Ok(ComparisonTable {
        workload: app.to_string(),
        nodes: dag.node_count(),
        edges: dag.edge_count(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_algorithms::paper_schedulers;

    #[test]
    fn compares_all_paper_algorithms() {
        let db = TimingDatabase::paragon();
        let table = compare_algorithms(
            Application::Gaussian { n: 4 },
            &db,
            &paper_schedulers(1),
            20,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(table.rows.len(), 5);
        assert_eq!(table.rows[0].algorithm, "FAST");
        assert!((table.rows[0].normalized - 1.0).abs() < 1e-12);
        for r in &table.rows {
            assert!(r.execution_time > 0);
            assert!(r.processors >= 1);
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let db = TimingDatabase::paragon();
        let table = compare_algorithms(
            Application::Fft { points: 16 },
            &db,
            &paper_schedulers(1),
            16,
            &SimConfig::default(),
        )
        .unwrap();
        let text = table.render();
        for algo in ["FAST", "DSC", "MD", "ETF", "DLS"] {
            assert!(text.contains(algo), "missing {algo} in:\n{text}");
        }
    }
}
