//! The common [`Scheduler`] interface and the algorithm registry used
//! by the CLI and the benchmark harness.

use crate::workspace::Workspace;
use fastsched_dag::Dag;
use fastsched_schedule::{validate_with, CostModel, HomogeneousModel, Schedule};
use fastsched_trace::SearchTrace;

/// The correctness gate: validate `schedule` under `model` and panic
/// with the algorithm's name and the structured violation if it is
/// illegal.
///
/// Compiled to a real check in debug builds and whenever the
/// `validate` cargo feature is on; a no-op otherwise, so release-mode
/// benchmarks never pay the O(v log v + e) validation. Every
/// [`Scheduler`] implementation in this crate runs its returned
/// schedule through here — an algorithm bug surfaces at the algorithm,
/// not three layers later in a simulator or metric.
pub fn gate_schedule_with<M: CostModel + ?Sized>(
    name: &str,
    model: &M,
    dag: &Dag,
    schedule: &Schedule,
) {
    if cfg!(any(debug_assertions, feature = "validate")) {
        if let Err(e) = validate_with(model, dag, schedule) {
            panic!("{name} returned an illegal schedule: {e}");
        }
    }
}

/// [`gate_schedule_with`] under the paper's homogeneous machine model
/// — the gate used by every homogeneous scheduler in this crate.
pub fn gate_schedule(name: &str, dag: &Dag, schedule: &Schedule) {
    gate_schedule_with(name, &HomogeneousModel, dag, schedule);
}

/// A static DAG-scheduling algorithm.
///
/// ```
/// use fastsched_algorithms::{Fast, Scheduler};
/// use fastsched_dag::examples::paper_figure1;
/// use fastsched_schedule::validate;
///
/// let dag = paper_figure1();
/// let schedule = Fast::new().schedule(&dag, 9);
/// assert!(validate(&dag, &schedule).is_ok());
/// // InitialSchedule() yields 19; the local search finds one
/// // improving transfer (the paper's Figure 4 story): 18.
/// assert_eq!(schedule.makespan(), 18);
/// ```
///
/// `num_procs` is the number of identical processors made available.
/// Bounded algorithms (FAST, ETF, DLS, MD, HLFET, MCP, HEFT) never use
/// more; "unbounded" algorithms (DSC) treat it as the processor pool
/// size and may want `num_procs == v` to behave as published — the
/// paper's experiments "give more than enough processors to all the
/// algorithms".
pub trait Scheduler: Send + Sync {
    /// Short display name ("FAST", "DSC", ...), used in tables.
    fn name(&self) -> &'static str;

    /// `true` for clustering algorithms built on the unbounded-
    /// processor model (DSC, EZ, LC): they treat `num_procs` as a
    /// container bound, not a constraint, and may use up to `v`
    /// processors regardless of it.
    fn is_unbounded(&self) -> bool {
        false
    }

    /// Produce a complete schedule of `dag` on `num_procs` processors.
    ///
    /// Implementations must return a schedule that passes
    /// [`fastsched_schedule::validate()`](fn@fastsched_schedule::validate); processor ids must be dense
    /// from 0 (use [`Schedule::compact`] before returning when the
    /// construction leaves gaps).
    fn schedule(&self, dag: &Dag, num_procs: u32) -> Schedule;

    /// [`Self::schedule`] with an observability collector: phase
    /// timers, search-event counters and the schedule-length
    /// trajectory land in `trace`. The produced schedule is identical
    /// to [`Self::schedule`]'s — instrumentation never changes a
    /// search decision.
    ///
    /// The default implementation ignores the collector (one-shot
    /// algorithms have no search to trace); the FAST family overrides
    /// it. Whether phases, trajectory and provenance are recorded is
    /// the collector's mode (`SearchTrace::recording()` vs.
    /// `SearchTrace::default()`); the counters always count.
    fn schedule_traced(&self, dag: &Dag, num_procs: u32, trace: &mut SearchTrace) -> Schedule {
        let _ = trace;
        self.schedule(dag, num_procs)
    }

    /// [`Self::schedule`] against a reusable [`Workspace`]: scratch
    /// buffers come from (and return to) `workspace`, so a warm
    /// workspace makes repeated calls allocation-free for the natively
    /// ported algorithms (FAST, FAST-SA, FAST-MS, ETF, DLS, HEFT). The
    /// result is byte-identical to [`Self::schedule`]'s — the
    /// workspace only changes *where* scratch lives, never a
    /// scheduling decision.
    ///
    /// The default implementation ignores the workspace and delegates
    /// to [`Self::schedule`], so every scheduler supports the batched
    /// entry points ([`crate::workspace::schedule_many`] and the
    /// sharded [`crate::workspace::schedule_many_par`]) even before it
    /// is ported.
    fn schedule_into(&self, dag: &Dag, num_procs: u32, workspace: &mut Workspace) -> Schedule {
        let _ = workspace;
        self.schedule(dag, num_procs)
    }
}

/// The four baselines compared in the paper plus FAST itself, in the
/// paper's table order: FAST, DSC, MD, ETF, DLS.
///
/// FAST's local search is seeded with `seed` for reproducibility.
pub fn paper_schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(crate::fast::Fast::with_config(crate::fast::FastConfig {
            seed,
            ..Default::default()
        })),
        Box::new(crate::dsc::Dsc::new()),
        Box::new(crate::md::Md::new()),
        Box::new(crate::etf::Etf::new()),
        Box::new(crate::dls::Dls::new()),
    ]
}

/// Every scheduler in the workspace (paper set plus extensions), for
/// exhaustive cross-validation tests. Excludes the exponential
/// [`crate::optimal::BranchAndBound`] reference, which only accepts
/// tiny graphs.
pub fn all_schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    let mut v = paper_schedulers(seed);
    v.push(Box::new(crate::hlfet::Hlfet::new()));
    v.push(Box::new(crate::mcp::Mcp::new()));
    v.push(Box::new(crate::heft::Heft::new()));
    v.push(Box::new(crate::dcp::Dcp::new()));
    v.push(Box::new(crate::ish::Ish::new()));
    v.push(Box::new(crate::ez::Ez::new()));
    v.push(Box::new(crate::lc::Lc::new()));
    v.push(Box::new(crate::cpop::Cpop::new()));
    v.push(Box::new(crate::bounded_dsc::BoundedDsc::new()));
    v.push(Box::new(crate::fast_parallel::FastParallel::with_config(
        crate::fast_parallel::FastParallelConfig {
            seed,
            ..Default::default()
        },
    )));
    v.push(Box::new(crate::fast_sa::FastSa::with_config(
        crate::fast_sa::FastSaConfig {
            seed,
            steps: 512,
            ..Default::default()
        },
    )));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_registry_has_the_five_paper_algorithms() {
        let names: Vec<&str> = paper_schedulers(1).iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["FAST", "DSC", "MD", "ETF", "DLS"]);
    }

    #[test]
    fn all_registry_extends_paper_registry() {
        let names: Vec<&str> = all_schedulers(1).iter().map(|s| s.name()).collect();
        assert!(names.contains(&"HLFET"));
        assert!(names.contains(&"MCP"));
        assert!(names.contains(&"HEFT"));
        assert!(names.contains(&"FAST-MS"));
    }
}
