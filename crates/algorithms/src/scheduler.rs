//! The common [`Scheduler`] interface and the algorithm registry used
//! by the CLI and the benchmark harness.

use crate::workspace::Workspace;
use fastsched_dag::{Cost, Dag};
use fastsched_schedule::{Machine, Schedule, ScheduleError};
use fastsched_trace::{Phase, SearchTrace};

/// Why [`Scheduler::run`] returned no schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerError {
    /// The request asked for zero processors.
    NoProcessors,
    /// The DAG's total work and communication, priced by the machine
    /// ([`Machine::makespan_bound`]), do not leave the headroom the
    /// schedulers' time arithmetic needs in a `u64`.
    Overflow,
    /// The algorithm has no scheduling path for this machine feature.
    Unsupported(Feature),
    /// The DAG has more nodes than the algorithm accepts (the
    /// exhaustive oracle's search is exponential in them).
    TooLarge {
        /// The DAG's node count.
        nodes: usize,
        /// The most nodes the algorithm accepts.
        limit: usize,
    },
    /// The greedy placement found no processor with room for `node`'s
    /// memory footprint. The instance may still be feasible: deciding
    /// that is a packing problem the greedy pass does not solve.
    Infeasible {
        /// The node that found every lane at capacity.
        node: u32,
        /// Its memory footprint.
        footprint: Cost,
    },
    /// The correctness gate rejected the algorithm's schedule.
    Invalid(ScheduleError),
}

impl std::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerError::NoProcessors => write!(f, "`procs` must be at least 1"),
            SchedulerError::Overflow => write!(
                f,
                "time arithmetic overflows u64: the DAG's total work and communication \
                 on this machine exceed u64::MAX/4"
            ),
            SchedulerError::Unsupported(feature) => write!(f, "no scheduling path for {feature}"),
            SchedulerError::TooLarge { nodes, limit } => {
                write!(f, "the DAG has {nodes} nodes, above the limit of {limit}")
            }
            SchedulerError::Infeasible { node, footprint } => write!(
                f,
                "no processor can hold node n{node} (footprint {footprint}); \
                 every lane is at capacity"
            ),
            SchedulerError::Invalid(e) => write!(f, "illegal schedule: {e}"),
        }
    }
}

impl std::error::Error for SchedulerError {}

/// A feature of a priced [`Machine`] that an algorithm may have no
/// scheduling path for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// Messages priced by a communication model.
    CommModel,
    /// Finite per-processor memory capacities.
    MemoryCapacities,
    /// Per-processor speeds.
    Speeds,
}

impl Feature {
    /// The feature of `machine` that an algorithm without a model core
    /// must refuse (speeds before capacities); `None` on the paper's
    /// machine.
    pub(crate) fn priced_by(machine: &Machine) -> Option<Feature> {
        match machine {
            Machine::Homogeneous => None,
            Machine::Speeds(_) => Some(Feature::Speeds),
            Machine::Comm(_) if machine.has_capacities() => Some(Feature::MemoryCapacities),
            Machine::Comm(_) => Some(Feature::CommModel),
        }
    }
}

impl std::fmt::Display for Feature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Feature::CommModel => "a communication model",
            Feature::MemoryCapacities => "memory capacities",
            Feature::Speeds => "processor speeds",
        })
    }
}

/// A static DAG-scheduling algorithm.
///
/// ```
/// use fastsched_algorithms::{Fast, Scheduler, Workspace};
/// use fastsched_dag::examples::paper_figure1;
/// use fastsched_schedule::Machine;
/// use fastsched_trace::SearchTrace;
///
/// let dag = paper_figure1();
/// let (ws, trace) = (&mut Workspace::new(), &mut SearchTrace::default());
/// let schedule = Fast::new().run(&dag, 9, &Machine::Homogeneous, ws, trace).unwrap();
/// // InitialSchedule() yields 19; the local search finds one
/// // improving transfer (the paper's Figure 4 story): 18.
/// assert_eq!(schedule.makespan(), 18);
/// assert_eq!(Fast::new().schedule(&dag, 9), schedule);
/// ```
///
/// `num_procs` is the number of processors made available. Bounded
/// algorithms (FAST, ETF, DLS, MD, HLFET, MCP, HEFT) never use more;
/// "unbounded" algorithms (DSC) treat it as the processor pool size
/// and may want `num_procs == v` to behave as published — the paper's
/// experiments "give more than enough processors to all the
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

    /// The algorithm: schedule `dag` on `num_procs` processors of
    /// `machine` with scratch from `ws`, recording into `trace`.
    /// Implement it; call [`Self::run`]. It may assume
    /// `num_procs >= 1` and [`Machine::fits`], answers a machine it
    /// cannot price with [`SchedulerError::Unsupported`], and returns
    /// processor ids dense from 0.
    fn schedule_on(
        &self,
        dag: &Dag,
        num_procs: u32,
        machine: &Machine,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError>;

    /// Schedule `dag` on `num_procs` processors of `machine`: the one
    /// entry point. Refuses zero processors and times that could
    /// overflow before the algorithm runs, and gates every result with
    /// [`Machine::validate_into`] against the workspace's scratch,
    /// lapped into `trace` as [`Phase::Validate`]. A warm `ws`
    /// (results handed back through [`Workspace::recycle`]) makes the
    /// ported algorithms and the gate allocation-free; neither `ws`
    /// nor `trace` changes a decision.
    fn run(
        &self,
        dag: &Dag,
        num_procs: u32,
        machine: &Machine,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        if num_procs == 0 {
            return Err(SchedulerError::NoProcessors);
        }
        if !machine.fits(dag) {
            return Err(SchedulerError::Overflow);
        }
        let schedule = self.schedule_on(dag, num_procs, machine, ws, trace)?;
        trace.clock.start();
        let verdict = machine.validate_into(dag, &schedule, &mut ws.validate);
        trace.clock.lap(Phase::Validate);
        verdict.map_err(SchedulerError::Invalid)?;
        Ok(schedule)
    }

    /// [`Self::run`] on the paper's machine with fresh scratch.
    ///
    /// # Panics
    /// On any [`SchedulerError`] (zero processors, overflowing
    /// weights, an illegal schedule).
    fn schedule(&self, dag: &Dag, num_procs: u32) -> Schedule {
        self.schedule_into(dag, num_procs, &mut Workspace::new())
    }

    /// [`Self::run`] on the paper's machine with scratch from `ws`;
    /// byte-identical to [`Self::schedule`].
    ///
    /// # Panics
    /// Like [`Self::schedule`].
    fn schedule_into(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) -> Schedule {
        let trace = &mut SearchTrace::default();
        let result = self.run(dag, num_procs, &Machine::Homogeneous, ws, trace);
        result.unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }
}

/// An algorithm that knows only the paper's machine: its
/// [`Scheduler`] runs `schedule_homogeneous` on
/// [`Machine::Homogeneous`] with the caller's workspace and answers
/// every priced machine [`SchedulerError::Unsupported`] (speeds before
/// capacities). Ten of the eleven algorithms without a model core
/// implement this instead; B&B implements [`Scheduler`] itself so that
/// it can also refuse a DAG too large to search. DSC and MD take their
/// scratch from the workspace, so a warm one makes them
/// allocation-free; the other eight allocate per call and ignore it.
pub trait HomogeneousOnly: Send + Sync {
    /// [`Scheduler::name`].
    const NAME: &'static str;
    /// [`Scheduler::is_unbounded`].
    const UNBOUNDED: bool = false;

    /// The algorithm on `num_procs` identical processors with scratch
    /// from `ws`; like [`Scheduler::schedule_on`], implement it and
    /// call [`Scheduler::run`].
    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) -> Schedule;
}

impl<T: HomogeneousOnly> Scheduler for T {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn is_unbounded(&self) -> bool {
        T::UNBOUNDED
    }

    fn schedule_on(
        &self,
        dag: &Dag,
        num_procs: u32,
        machine: &Machine,
        ws: &mut Workspace,
        _trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        match Feature::priced_by(machine) {
            None => Ok(self.schedule_homogeneous(dag, num_procs, ws)),
            Some(feature) => Err(SchedulerError::Unsupported(feature)),
        }
    }
}

/// Evaluate `$core` with `$model` bound to `$machine`'s cost model:
/// one monomorphized copy of the core per [`Machine`] variant.
macro_rules! priced {
    ($machine:expr, |$model:ident| $core:expr) => {
        match $machine {
            fastsched_schedule::Machine::Homogeneous => {
                let $model = &fastsched_schedule::HomogeneousModel;
                $core
            }
            fastsched_schedule::Machine::Comm($model) => $core,
            fastsched_schedule::Machine::Speeds($model) => $core,
        }
    };
}
pub(crate) use priced;

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
