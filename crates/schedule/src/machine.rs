//! The closed set of machines a scheduler runs on.
//!
//! [`Machine`] names every machine the service and the CLI can
//! describe: the paper's identical processors, a communication model,
//! or per-processor speeds, the last two optionally with per-processor
//! memory capacities. A scheduler matches on it once and runs its
//! core monomorphized for the variant's [`CostModel`].

use crate::cost::{
    AlphaBeta, CommModel, CostModel, HomogeneousModel, MemoryCapacities, ProcessorSpeeds,
};
use crate::validate::{validate_with, ScheduleError};
use crate::Schedule;
use fastsched_dag::{Cost, Dag};

/// How much larger than [`Machine::makespan_bound`] the time
/// arithmetic must stay representable: priorities such as DCP's
/// AEST + ALST add two path lengths, and a DAT adds one message on
/// top of a finish time.
const HEADROOM: Cost = 4;

/// A machine to schedule on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Machine {
    /// The paper's machine: identical processors, messages cost their
    /// edge weight, co-located communication is free.
    Homogeneous,
    /// A communication model (`Ideal` when none was priced) with
    /// memory capacities; [`MemoryCapacities::unbounded`] is
    /// byte-identical to the bare model.
    Comm(MemoryCapacities<CommModel>),
    /// Per-processor speeds with memory capacities.
    Speeds(MemoryCapacities<ProcessorSpeeds>),
}

impl Machine {
    /// Check `schedule` against this machine's pricing and capacities.
    pub fn validate(&self, dag: &Dag, schedule: &Schedule) -> Result<(), ScheduleError> {
        match self {
            Machine::Homogeneous => validate_with(&HomogeneousModel, dag, schedule),
            Machine::Comm(m) => validate_with(m, dag, schedule),
            Machine::Speeds(m) => validate_with(m, dag, schedule),
        }
    }

    /// Whether some processor has a finite memory capacity.
    pub fn has_capacities(&self) -> bool {
        match self {
            Machine::Homogeneous => false,
            Machine::Comm(m) => m.has_capacities(),
            Machine::Speeds(m) => m.has_capacities(),
        }
    }

    /// An O(1) upper bound on the makespan of any schedule of `dag` on
    /// this machine, saturating at `Cost::MAX`: every task's work plus
    /// every message at its dearest price. A task starts at its
    /// processor's previous finish or at a message arrival, so
    /// following those links back from the last task never repeats a
    /// task or a message.
    pub fn makespan_bound(&self, dag: &Dag) -> Cost {
        let work = dag.total_computation();
        let comm = dag.total_communication();
        let e = dag.edge_count() as Cost;
        let link = |ab: &AlphaBeta| {
            // Each message pays `alpha` and rounds its bandwidth term
            // up by less than one.
            let bandwidth = AlphaBeta { alpha: 0, ..*ab }.price(comm);
            ab.alpha
                .saturating_mul(e)
                .saturating_add(bandwidth)
                .saturating_add(e)
        };
        match self {
            Machine::Homogeneous => work.saturating_add(comm),
            Machine::Comm(m) => work.saturating_add(match m.inner() {
                CommModel::Ideal => comm,
                CommModel::AlphaBeta(ab) => link(ab),
                CommModel::Hierarchical(h) => link(&h.intra()).max(link(&h.inter())),
            }),
            Machine::Speeds(m) => {
                let slowest = m.inner().speed_percent.iter().copied().min().unwrap_or(1);
                let scaled = match work.checked_mul(100) {
                    Some(w) => w.div_ceil(Cost::from(slowest)),
                    None => Cost::MAX,
                };
                // Each task rounds its time up by less than one, and
                // priorities still sum nominal weights.
                scaled
                    .max(work)
                    .saturating_add(dag.node_count() as Cost)
                    .saturating_add(comm)
            }
        }
    }

    /// Whether every time a scheduler computes for `dag` on this
    /// machine fits in a `u64`: the makespan bound stays at or below
    /// `u64::MAX / 4`.
    pub fn fits(&self, dag: &Dag) -> bool {
        self.makespan_bound(dag) <= Cost::MAX / HEADROOM
    }
}

impl From<CommModel> for Machine {
    fn from(comm: CommModel) -> Machine {
        Machine::Comm(MemoryCapacities::unbounded(comm))
    }
}

impl From<MemoryCapacities<CommModel>> for Machine {
    fn from(m: MemoryCapacities<CommModel>) -> Machine {
        Machine::Comm(m)
    }
}

impl From<ProcessorSpeeds> for Machine {
    fn from(speeds: ProcessorSpeeds) -> Machine {
        Machine::Speeds(MemoryCapacities::unbounded(speeds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_dag::DagBuilder;

    fn chain(weights: &[Cost], comm: Cost) -> Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = weights.iter().map(|&w| b.add_task(w)).collect();
        for pair in ids.windows(2) {
            b.add_edge(pair[0], pair[1], comm).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn bounds_price_every_message_at_its_dearest() {
        let dag = chain(&[2, 3, 4], 5);
        assert_eq!(Machine::Homogeneous.makespan_bound(&dag), 9 + 10);
        let ab = Machine::from(CommModel::AlphaBeta(AlphaBeta::new(7, 3, 2)));
        // 9 + 2·7 + ⌈10·3/2⌉ + 2
        assert_eq!(ab.makespan_bound(&dag), 9 + 14 + 15 + 2);
        let speeds = Machine::from(ProcessorSpeeds::new(vec![200, 50]));
        // ⌈9·100/50⌉ + 3 + 10
        assert_eq!(speeds.makespan_bound(&dag), 18 + 3 + 10);
        // Fast processors still leave the nominal weights to bound.
        let fast = Machine::from(ProcessorSpeeds::new(vec![400]));
        assert_eq!(fast.makespan_bound(&dag), 9 + 3 + 10);
    }

    #[test]
    fn huge_weights_do_not_fit() {
        let dag = chain(&[3, Cost::MAX - 5, 3], 1);
        assert_eq!(Machine::Homogeneous.makespan_bound(&dag), Cost::MAX);
        assert!(!Machine::Homogeneous.fits(&dag));
        assert!(Machine::Homogeneous.fits(&chain(&[1, 2, 3], 4)));
    }
}
