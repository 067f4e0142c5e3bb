//! HLFET — Highest Level First with Estimated Times: the classical
//! static-level list scheduler (Adam/Chandy/Dickson family, cited as
//! the archetypal priority scheme in §1–2 of the paper).
//!
//! Nodes are ordered once by descending static level and appended, in
//! that order, to the processor giving the earliest start time. This
//! is the "plain b-level list" baseline against which the ablation
//! bench measures the value of FAST's CPN-Dominate ordering.

use crate::list_common::run_static_list;
use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Dag, GraphAttributes, NodeId};
use fastsched_schedule::Schedule;

/// The HLFET scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hlfet;

impl Hlfet {
    /// New HLFET scheduler.
    pub fn new() -> Self {
        Self
    }

    /// The static priority list: nodes by descending static level.
    /// The list respects precedence because a parent's static level
    /// strictly exceeds every child's; ties are broken topologically
    /// (position in the frozen topological order) to stay safe.
    pub fn priority_list(dag: &Dag) -> Vec<NodeId> {
        let sl = GraphAttributes::compute(dag).static_level;
        let mut pos = vec![0u32; dag.node_count()];
        for (i, &n) in dag.topo_order().iter().enumerate() {
            pos[n.index()] = i as u32;
        }
        let mut order: Vec<NodeId> = dag.nodes().collect();
        order.sort_by_key(|&n| (std::cmp::Reverse(sl[n.index()]), pos[n.index()]));
        order
    }
}

impl HomogeneousOnly for Hlfet {
    const NAME: &'static str = "HLFET";

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, _ws: &mut Workspace) -> Schedule {
        let order = Self::priority_list(dag);
        run_static_list(dag, &order, num_procs, false).compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::{fork_join, paper_figure1};
    use fastsched_dag::topo::is_topological_order;
    use fastsched_schedule::validate;

    #[test]
    fn priority_list_is_topological() {
        let g = paper_figure1();
        let order = Hlfet::priority_list(&g);
        assert!(is_topological_order(&g, &order));
    }

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Hlfet::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn valid_and_parallel_on_fork_join() {
        let g = fork_join(8, 10, 1);
        let s = Hlfet::new().schedule(&g, 8);
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.processors_used() >= 4);
    }
}
