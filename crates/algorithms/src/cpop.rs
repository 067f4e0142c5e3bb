//! CPOP — Critical Path On a Processor (Topcuoglu, Hariri, Wu): the
//! companion algorithm published alongside HEFT, included to round out
//! the post-paper context.
//!
//! Nodes are ranked by `upward rank + downward rank` (t-level +
//! b-level — the same composite priority DSC tracks); the nodes whose
//! composite equals the critical-path length are pinned to one
//! dedicated processor, and everything else is placed by
//! insertion-based earliest finish time.

use crate::list_common::ListState;
use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Cost, Dag, GraphAttributes, NodeId};
use fastsched_schedule::{ProcId, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The CPOP scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpop;

impl Cpop {
    /// New CPOP scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl HomogeneousOnly for Cpop {
    const NAME: &'static str = "CPOP";

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, _ws: &mut Workspace) -> Schedule {
        let attrs = GraphAttributes::compute(dag);
        let cp_proc = ProcId(0); // the dedicated critical-path processor

        // Priority queue of ready nodes by descending composite rank
        // (t-level + b-level), matching the published selection.
        let composite = |n: NodeId| attrs.t_level[n.index()] + attrs.b_level[n.index()];
        let mut remaining: Vec<u32> = dag.nodes().map(|n| dag.in_degree(n) as u32).collect();
        let mut heap: BinaryHeap<(Cost, Reverse<u32>)> = dag
            .entry_nodes()
            .into_iter()
            .map(|n| (composite(n), Reverse(n.0)))
            .collect();

        let mut machine = ListState::new(dag.node_count(), num_procs);
        while let Some((_, Reverse(id))) = heap.pop() {
            let n = NodeId(id);
            let (p, start) = if attrs.is_cpn(n) && num_procs > 1 {
                (cp_proc, machine.earliest_start_insert(dag, n, cp_proc))
            } else {
                // Min earliest-finish over all processors (identical
                // machines: min EST).
                let mut best = (ProcId(0), Cost::MAX);
                for pi in 0..num_procs {
                    let p = ProcId(pi);
                    let s = machine.earliest_start_insert(dag, n, p);
                    if s < best.1 {
                        best = (p, s);
                    }
                }
                best
            };
            machine.place(dag, n, p, start);
            for e in dag.succs(n) {
                let r = &mut remaining[e.node.index()];
                *r -= 1;
                if *r == 0 {
                    heap.push((composite(e.node), Reverse(e.node.0)));
                }
            }
        }
        machine.into_schedule(dag).compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::{fork_join, paper_figure1};
    use fastsched_schedule::validate;

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Cpop::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn critical_path_shares_one_processor() {
        let g = paper_figure1();
        let attrs = GraphAttributes::compute(&g);
        let s = Cpop::new().schedule(&g, 9);
        let cp = attrs.critical_path(&g);
        let p = s.proc_of(cp[0]).unwrap();
        for &n in &cp {
            assert_eq!(s.proc_of(n), Some(p), "CPN {n} off the CP processor");
        }
        // With zero intra-processor communication the CP runs gap-free:
        // its finish is exactly the sum of CP computations... or better
        // bounded by it plus the entry wait.
        let cp_work: u64 = cp.iter().map(|&n| g.weight(n)).sum();
        assert!(s.makespan() >= cp_work);
    }

    #[test]
    fn uniform_fork_join_is_all_critical_and_serializes() {
        // With identical workers every path is critical, so CPOP pins
        // the whole graph to the CP processor — the algorithm's known
        // degenerate case.
        let g = fork_join(6, 10, 1);
        let s = Cpop::new().schedule(&g, 6);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.processors_used(), 1);
    }

    #[test]
    fn spreads_off_critical_work() {
        // The paper example has a single 3-node CP; the six IBNs go to
        // other processors when that is faster.
        let g = paper_figure1();
        let s = Cpop::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.processors_used() >= 2, "used {}", s.processors_used());
        assert!(s.makespan() < g.total_computation());
    }

    #[test]
    fn single_processor_is_serial() {
        let g = paper_figure1();
        let s = Cpop::new().schedule(&g, 1);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), g.total_computation());
    }
}
