//! # fastsched
//!
//! A production-quality reproduction of **FAST: A Low-Complexity
//! Algorithm for Efficient Scheduling of DAGs on Parallel Processors**
//! (Yu-Kwong Kwok, Ishfaq Ahmad, Jun Gu — ICPP 1996), including every
//! substrate the paper's evaluation depends on:
//!
//! * the weighted task-graph model with the §2 attribute machinery
//!   ([`dag`]);
//! * the FAST algorithm itself plus the paper's four baselines — DSC,
//!   MD, ETF, DLS — and family extensions ([`algorithms`]);
//! * schedule representation, validation and metrics ([`schedule`]);
//! * the real-workload generators (Gaussian elimination, Laplace
//!   solver, FFT) and the §5.2 random-DAG generator, with task counts
//!   matching the paper's tables exactly ([`workloads`]);
//! * a discrete-event Paragon-substitute simulator ([`sim`]);
//! * the CASCH-substitute pipeline and CLI ([`casch`]);
//! * lock-free service metrics — counters, gauges, mergeable
//!   log-linear latency histograms, and a Prometheus text-exposition
//!   writer backing `casch serve --metrics-addr` ([`metrics`]);
//! * an observability layer — phase timers, search counters and
//!   schedule-length trajectories ([`trace`]). Search counters are
//!   always kept; pass `SearchTrace::recording()` to also record
//!   phases, trajectory and placement provenance.
//!
//! ## Quickstart
//!
//! ```
//! use fastsched::prelude::*;
//!
//! // Generate the paper's Gaussian-elimination workload for N = 8.
//! let db = TimingDatabase::paragon();
//! let dag = gaussian_elimination_dag(8, &db);
//!
//! // Schedule with FAST on 16 processors and check it's legal.
//! let schedule = Fast::new().schedule(&dag, 16);
//! assert!(validate(&dag, &schedule).is_ok());
//!
//! // Run it on the simulated Paragon.
//! let report = simulate(&dag, &schedule, &SimConfig::default());
//! assert!(report.execution_time >= schedule.makespan());
//! ```

#![warn(missing_docs)]

pub mod counting_alloc;

pub use fastsched_algorithms as algorithms;
pub use fastsched_casch as casch;
pub use fastsched_dag as dag;
pub use fastsched_metrics as metrics;
pub use fastsched_schedule as schedule;
pub use fastsched_sim as sim;
pub use fastsched_trace as trace;
pub use fastsched_workloads as workloads;

/// One-stop imports for applications using the library.
pub mod prelude {
    pub use fastsched_algorithms::{
        all_schedulers, paper_schedulers, schedule_many, schedule_many_into, schedule_many_par,
        Dls, Dsc, Etf, Fast, FastConfig, FastParallel, Heft, Hlfet, Mcp, Md, Scheduler,
        SchedulerError, Workspace,
    };
    pub use fastsched_casch::{compare_algorithms, run_on_dag, run_pipeline, Application};
    pub use fastsched_dag::{
        classify_nodes, cpn_dominate_list, Cost, Dag, DagBuilder, GraphAttributes, NodeClass,
        NodeId,
    };
    pub use fastsched_schedule::{validate, Machine, ProcId, Schedule, ScheduleMetrics};
    pub use fastsched_sim::{simulate, ExecutionReport, SimConfig};
    pub use fastsched_trace::{Report, SearchTrace};
    pub use fastsched_workloads::{
        fft_dag, gaussian_elimination_dag, laplace_dag, random_layered_dag, RandomDagConfig,
        TimingDatabase,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_full_pipeline() {
        let db = TimingDatabase::paragon();
        let dag = fft_dag(16, &db);
        let schedule = Fast::new().schedule(&dag, 8);
        validate(&dag, &schedule).unwrap();
        let report = simulate(&dag, &schedule, &SimConfig::ideal());
        assert_eq!(report.execution_time, schedule.makespan());
    }
}
