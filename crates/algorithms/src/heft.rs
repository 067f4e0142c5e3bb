//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri, Wu).
//!
//! Included as a post-paper extension for context: HEFT became the
//! de-facto standard list scheduler after 1996, and it is the natural
//! "what came later" comparison point for FAST. Nodes are ordered by
//! descending *upward rank* — mean compute cost over the machine's
//! processors plus the heaviest message-and-rank path to an exit, which
//! on identical processors is the b-level — and placed on the processor
//! minimizing the insertion-based earliest finish time.

use crate::scheduler::Scheduler;
use crate::workspace::{untraced, Workspace};
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::{data_arrival_time_with, CostModel, HomogeneousModel, ProcId, Schedule};
use fastsched_trace::SearchTrace;

/// The HEFT scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Heft;

/// Upward ranks under `model` over `num_procs` processors into `rank`,
/// and the nodes in descending rank (ties by id) into `order`. The
/// order is topological: a parent's rank exceeds each child's by at
/// least its own mean compute cost (≥ 1). Arithmetic saturates.
fn rank_order_into<M: CostModel + ?Sized>(
    model: &M,
    dag: &Dag,
    num_procs: u32,
    rank: &mut Vec<Cost>,
    order: &mut Vec<NodeId>,
) {
    rank.clear();
    rank.resize(dag.node_count(), 0);
    for &n in dag.topo_order().iter().rev() {
        let total = (0..num_procs)
            .map(|p| model.compute_cost(dag, n, ProcId(p)))
            .fold(0, Cost::saturating_add);
        let mean = (total / Cost::from(num_procs)).max(1);
        let tail = dag
            .succs(n)
            .iter()
            .map(|e| e.cost.saturating_add(rank[e.node.index()]))
            .max()
            .unwrap_or(0);
        rank[n.index()] = mean.saturating_add(tail);
    }
    order.clear();
    order.extend(dag.nodes());
    order.sort_unstable_by_key(|&n| (std::cmp::Reverse(rank[n.index()]), n.0));
}

impl Heft {
    /// New HEFT scheduler.
    pub fn new() -> Self {
        Self
    }

    /// Priority list on identical processors: descending b-level, ties
    /// by node id.
    pub fn priority_list(dag: &Dag) -> Vec<NodeId> {
        let mut order = Vec::new();
        rank_order_into(&HomogeneousModel, dag, 1, &mut Vec::new(), &mut order);
        order
    }

    /// The HEFT loop — the one scheduling core behind every entry
    /// point, HEFT-hetero included. Nodes go in upward-rank order to
    /// the processor with minimum `(EFT, EST, id)`, probing the first
    /// idle gap that fits; message arrival and execution time are
    /// priced by `model`. On identical compute costs minimum EFT is
    /// minimum EST, the homogeneous insertion rule.
    ///
    /// When the model carries finite memory capacities
    /// ([`CostModel::has_capacities`]) the EFT probe skips processors
    /// whose lane cannot hold the node's footprint on top of what is
    /// already resident there.
    ///
    /// # Panics
    ///
    /// Panics when no processor can hold a node's footprint (the
    /// instance is memory-infeasible for a list scheduler).
    pub fn run<M: CostModel + ?Sized>(
        &self,
        dag: &Dag,
        num_procs: u32,
        model: &M,
        ws: &mut Workspace,
        _trace: &mut SearchTrace,
    ) -> Schedule {
        assert!(num_procs >= 1);
        rank_order_into(model, dag, num_procs, &mut ws.level, &mut ws.list);
        let track_mem = model.has_capacities();
        let (m, proc_mem) = (&mut ws.machine, &mut ws.proc_mem);
        m.reset(dag.node_count(), num_procs);
        proc_mem.clear();
        proc_mem.resize(num_procs as usize, 0);
        for &n in &ws.list {
            let need = dag.mem(n);
            let mut best: Option<(Cost, Cost, ProcId)> = None; // (eft, est, proc)
            for pi in 0..num_procs {
                let p = ProcId(pi);
                if track_mem {
                    if let Some(cap) = model.capacity(p) {
                        if proc_mem[p.index()].saturating_add(need) > cap {
                            continue; // over capacity: lane is closed to n
                        }
                    }
                }
                let w = model.compute_cost(dag, n, p);
                let dat = data_arrival_time_with(model, dag, n, p, &m.finish, &m.proc);
                let est = m.earliest_gap_at_or_after(p, dat, w);
                let eft = est + w;
                if best.is_none_or(|(beft, best_est, bp)| (eft, est, p.0) < (beft, best_est, bp.0))
                {
                    best = Some((eft, est, p));
                }
            }
            let Some((eft, est, p)) = best else {
                panic!(
                    "memory-infeasible instance: no processor can hold node n{} \
                     (footprint {need}); every lane is at capacity",
                    n.0
                );
            };
            if track_mem {
                proc_mem[p.index()] = proc_mem[p.index()].saturating_add(need);
            }
            m.place_with_duration(n, p, est, eft - est);
        }
        ws.machine.write_schedule(dag, &mut ws.staging);
        ws.finish(self.name(), model, dag)
    }

    /// [`Self::run`] under `model` with fresh scratch.
    pub fn schedule_with_model<M: CostModel + ?Sized>(
        &self,
        dag: &Dag,
        procs: u32,
        model: &M,
    ) -> Schedule {
        self.run(dag, procs, model, &mut Workspace::new(), &mut untraced())
    }
}

impl Scheduler for Heft {
    fn name(&self) -> &'static str {
        "HEFT"
    }

    fn schedule(&self, dag: &Dag, num_procs: u32) -> Schedule {
        self.schedule_into(dag, num_procs, &mut Workspace::new())
    }

    fn schedule_into(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) -> Schedule {
        self.run(dag, num_procs, &HomogeneousModel, ws, &mut untraced())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_dag::examples::{fork_join, paper_figure1};
    use fastsched_dag::topo::is_topological_order;
    use fastsched_schedule::validate;

    #[test]
    fn priority_list_is_topological() {
        let g = paper_figure1();
        assert!(is_topological_order(&g, &Heft::priority_list(&g)));
    }

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Heft::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn competitive_on_fork_join() {
        let g = fork_join(8, 10, 1);
        let s = Heft::new().schedule(&g, 8);
        assert_eq!(validate(&g, &s), Ok(()));
        // 8 tasks of 10 over 8 procs plus fork/join: well under serial.
        assert!(s.makespan() < 50);
    }
}
