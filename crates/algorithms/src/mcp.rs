//! MCP — Modified Critical Path (Wu & Gajski).
//!
//! Nodes are ordered by ascending ALAP start time (latest-possible
//! start, so critical nodes come first) and placed, in that order, on
//! the processor allowing the earliest *insertion-based* start time.
//! Ascending ALAP is always a topological order because a parent's
//! ALAP is strictly smaller than its child's.
//!
//! Included as a family member for the ablation study: it shares MD's
//! ALAP machinery but schedules greedily like a list scheduler.

use crate::list_common::run_static_list;
use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Dag, GraphAttributes, NodeId};

/// The MCP scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mcp;

impl Mcp {
    /// New MCP scheduler.
    pub fn new() -> Self {
        Self
    }

    /// Priority list: ascending ALAP, ties by node id.
    pub fn priority_list(dag: &Dag) -> Vec<NodeId> {
        let attrs = GraphAttributes::compute(dag);
        let mut order: Vec<NodeId> = dag.nodes().collect();
        order.sort_by_key(|&n| (attrs.alap[n.index()], n.0));
        order
    }
}

impl HomogeneousOnly for Mcp {
    const NAME: &'static str = "MCP";

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) {
        let order = Self::priority_list(dag);
        run_static_list(dag, &order, num_procs, true, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::paper_figure1;
    use fastsched_dag::topo::is_topological_order;
    use fastsched_schedule::validate;

    #[test]
    fn priority_list_is_topological_and_cpns_first() {
        let g = paper_figure1();
        let order = Mcp::priority_list(&g);
        assert!(is_topological_order(&g, &order));
        // n1 has ALAP 0 and must be first.
        assert_eq!(order[0], NodeId(0));
    }

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Mcp::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn insertion_beats_or_matches_append_on_paper_example() {
        let g = paper_figure1();
        let order = Mcp::priority_list(&g);
        let ws = &mut Workspace::new();
        let with_insert = run_static_list(&g, &order, 9, true, ws).makespan();
        let without = run_static_list(&g, &order, 9, false, ws).makespan();
        assert!(with_insert <= without);
    }
}
