//! Heterogeneous-processor extension: HEFT in its native habitat.
//!
//! The paper's machine model (and every algorithm above) assumes
//! identical processors. DLS was originally proposed for
//! "interconnection-constrained heterogeneous processor architectures"
//! (the paper's §3.3 citation) and HEFT became the standard
//! heterogeneous list scheduler — this module provides the machinery
//! to explore that direction: per-processor speed factors and a
//! heterogeneity-aware HEFT. The speed table is a
//! [`fastsched_schedule::CostModel`], so `validate_with(&speeds, ..)`
//! checks its schedules.
//!
//! Execution time of node `n` on processor `p` is
//! `ceil(w(n) * 100 / speed_percent[p])` (at least 1): speed 100 is
//! nominal, 200 runs twice as fast, 50 half as fast.

use crate::heft::Heft;
use crate::scheduler::Scheduler;
use crate::workspace::Workspace;
use fastsched_dag::Dag;
use fastsched_schedule::{Machine, Schedule};
use fastsched_trace::SearchTrace;

// The speed table lives with the other cost models in
// `fastsched-schedule`; re-exported here so existing users keep their
// import path.
pub use fastsched_schedule::ProcessorSpeeds;

/// HEFT over heterogeneous processors: [`Heft`] priced by the speed
/// table, on every processor the table lists. Ranks use mean execution
/// times, and placement minimizes *earliest finish time* — on unequal
/// processors genuinely different from minimizing EST.
#[derive(Debug, Clone)]
pub struct HeftHetero {
    speeds: ProcessorSpeeds,
}

impl HeftHetero {
    /// HEFT over the given processor speeds.
    pub fn new(speeds: ProcessorSpeeds) -> Self {
        Self { speeds }
    }

    /// Schedule `dag` over this machine's processors.
    ///
    /// # Panics
    /// On a [`crate::SchedulerError`] (overflowing weights).
    pub fn schedule(&self, dag: &Dag) -> Schedule {
        let (ws, trace) = (&mut Workspace::new(), &mut SearchTrace::default());
        let machine = Machine::from(self.speeds.clone());
        let result = Heft::new().run(dag, self.speeds.count(), &machine, ws, trace);
        result.unwrap_or_else(|e| panic!("HEFT-hetero: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_dag::examples::{fork_join, paper_figure1};
    use fastsched_dag::NodeId;
    use fastsched_schedule::{validate_with, ProcId, ScheduleError};

    #[test]
    fn uniform_speeds_reduce_to_homogeneous_heft() {
        let g = paper_figure1();
        let hetero = HeftHetero::new(ProcessorSpeeds::uniform(4)).schedule(&g);
        validate_with(&ProcessorSpeeds::uniform(4), &g, &hetero).unwrap();
        let homo = crate::heft::Heft::new().schedule(&g, 4);
        assert_eq!(hetero.makespan(), homo.makespan());
    }

    #[test]
    fn exec_time_scaling() {
        let s = ProcessorSpeeds::new(vec![100, 200, 50]);
        assert_eq!(s.exec_time(10, ProcId(0)), 10);
        assert_eq!(s.exec_time(10, ProcId(1)), 5);
        assert_eq!(s.exec_time(10, ProcId(2)), 20);
        assert_eq!(s.mean_exec_time(10), (10 + 5 + 20) / 3);
    }

    #[test]
    fn fast_processor_attracts_the_critical_chain() {
        // One 4x processor and two nominal ones: the heavy chain
        // should land on the fast processor.
        let g = fastsched_dag::examples::chain(5, 40, 1);
        let speeds = ProcessorSpeeds::new(vec![100, 400, 100]);
        let s = HeftHetero::new(speeds.clone()).schedule(&g);
        validate_with(&speeds, &g, &s).unwrap();
        // Entire chain on the fast processor: 5 × ceil(40/4) = 50.
        assert_eq!(s.makespan(), 50);
        assert_eq!(s.processors_used(), 1);
        assert!(g.nodes().all(|n| s.proc_of(n) == Some(ProcId(1))));
    }

    #[test]
    fn heterogeneity_beats_the_equivalent_uniform_machine_on_parallel_work() {
        // Same aggregate capacity, one hot processor: for a fork-join
        // the hot processor absorbs more of the work.
        let g = fork_join(6, 30, 5);
        let skewed = ProcessorSpeeds::new(vec![300, 100, 100, 100]);
        let s = HeftHetero::new(skewed.clone()).schedule(&g);
        validate_with(&skewed, &g, &s).unwrap();
        // The hot processor must run more than a proportional share.
        let hot_tasks = s.tasks().filter(|t| t.proc == ProcId(0)).count();
        assert!(hot_tasks >= 3, "hot processor ran only {hot_tasks} tasks");
    }

    #[test]
    fn validator_rejects_wrong_duration_for_proc_speed() {
        let g = fastsched_dag::examples::chain(2, 10, 1);
        let speeds = ProcessorSpeeds::new(vec![100, 200]);
        let mut s = Schedule::new(2, 2);
        // Node 0 on the 2x processor must take 5, not 10.
        s.place(NodeId(0), ProcId(1), 0, 10);
        s.place(NodeId(1), ProcId(1), 10, 15);
        assert_eq!(
            validate_with(&speeds, &g, &s),
            Err(ScheduleError::BadDuration {
                node: 0,
                expected: 5,
                actual: 10
            })
        );
    }

    #[test]
    fn heft_schedule_on_two_speed_machine_passes_hetero_but_not_homogeneous() {
        // Regression for the homogeneous-only validate(): a real HEFT
        // schedule on a 2-speed machine uses sped-up durations, so the
        // hetero validator must accept it while the homogeneous one
        // rejects it with BadDuration — previously there was no way to
        // legally validate it at all.
        let g = paper_figure1();
        let speeds = ProcessorSpeeds::new(vec![100, 200]);
        let s = HeftHetero::new(speeds.clone()).schedule(&g);
        assert_eq!(validate_with(&speeds, &g, &s), Ok(()));
        assert!(
            s.tasks().any(|t| t.finish - t.start != g.weight(t.node)),
            "schedule must actually exercise a non-nominal speed"
        );
        assert_eq!(
            fastsched_schedule::validate(&g, &s).map_err(|e| e.kind()),
            Err(fastsched_schedule::ScheduleErrorKind::BadDuration)
        );
    }
}
