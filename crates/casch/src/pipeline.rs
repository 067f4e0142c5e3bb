//! The end-to-end pipeline: application → task graph → schedule →
//! validation → simulated execution, with wall-clock scheduling time
//! measured the way the paper times algorithms (Figures 5(c)–8(c)).

use crate::application::Application;
use fastsched_algorithms::{Scheduler, SchedulerError, Workspace};
use fastsched_dag::{Cost, Dag};
use fastsched_schedule::{Machine, Schedule, ScheduleMetrics};
use fastsched_sim::{simulate, ExecutionReport, SimConfig};
use fastsched_trace::SearchTrace;
use fastsched_workloads::TimingDatabase;
use std::time::{Duration, Instant};

/// Everything one pipeline run produced.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Which algorithm produced the schedule.
    pub algorithm: &'static str,
    /// Task count of the generated DAG.
    pub nodes: usize,
    /// Edge count of the generated DAG.
    pub edges: usize,
    /// Communication-to-computation ratio of the DAG.
    pub ccr: f64,
    /// Static schedule quality metrics.
    pub metrics: ScheduleMetrics,
    /// Measured execution on the simulated machine.
    pub execution: ExecutionReport,
    /// Wall-clock time the scheduling algorithm took.
    pub scheduling_time: Duration,
    /// The schedule itself (for Gantt rendering).
    pub schedule: Schedule,
}

impl PipelineReport {
    /// The paper's headline number: simulated application execution
    /// time.
    pub fn execution_time(&self) -> Cost {
        self.execution.execution_time
    }
}

/// Run one algorithm over an already-generated DAG on the paper's
/// machine.
pub fn run_on_dag(
    dag: &Dag,
    scheduler: &dyn Scheduler,
    num_procs: u32,
    sim: &SimConfig,
) -> Result<PipelineReport, SchedulerError> {
    let (ws, trace) = (&mut Workspace::new(), &mut SearchTrace::default());
    let t0 = Instant::now();
    let schedule = scheduler.run(dag, num_procs, &Machine::Homogeneous, ws, trace)?;
    let scheduling_time = t0.elapsed();
    let metrics = ScheduleMetrics::compute(dag, &schedule);
    let execution = simulate(dag, &schedule, sim);
    Ok(PipelineReport {
        algorithm: scheduler.name(),
        nodes: dag.node_count(),
        edges: dag.edge_count(),
        ccr: dag.ccr(),
        metrics,
        execution,
        scheduling_time,
        schedule,
    })
}

/// Full pipeline from an [`Application`] description.
pub fn run_pipeline(
    app: Application,
    db: &TimingDatabase,
    scheduler: &dyn Scheduler,
    num_procs: u32,
    sim: &SimConfig,
) -> Result<PipelineReport, SchedulerError> {
    let dag = app.generate(db);
    run_on_dag(&dag, scheduler, num_procs, sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_algorithms::Fast;

    #[test]
    fn pipeline_produces_consistent_report() {
        let db = TimingDatabase::paragon();
        let app = Application::Gaussian { n: 4 };
        let r = run_pipeline(app, &db, &Fast::new(), 8, &SimConfig::default()).unwrap();
        assert_eq!(r.algorithm, "FAST");
        assert_eq!(r.nodes, 20);
        assert!(r.edges > 0);
        assert!(r.execution_time() >= r.metrics.makespan);
        assert_eq!(r.metrics.processors_used, r.execution.processors_used);
    }

    #[test]
    fn ideal_network_matches_predicted_makespan() {
        let db = TimingDatabase::paragon();
        let app = Application::Fft { points: 16 };
        let r = run_pipeline(app, &db, &Fast::new(), 8, &SimConfig::ideal()).unwrap();
        assert_eq!(r.execution_time(), r.metrics.makespan);
    }
}
