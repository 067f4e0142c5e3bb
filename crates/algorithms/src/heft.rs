//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri, Wu).
//!
//! Included as a post-paper extension for context: HEFT became the
//! de-facto standard list scheduler after 1996, and it is the natural
//! "what came later" comparison point for FAST. Nodes are ordered by
//! descending *upward rank* — mean compute cost over the machine's
//! processors plus the heaviest message-and-rank path to an exit, which
//! on identical processors is the b-level — and placed on the processor
//! minimizing the insertion-based earliest finish time.

use crate::scheduler::{priced, Scheduler, SchedulerError};
use crate::workspace::Workspace;
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::{CostModel, HomogeneousModel, Machine, ProcId, Schedule};
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

    /// The HEFT loop — the one scheduling core, HEFT-hetero included. Nodes go in upward-rank order to
    /// the processor with minimum `(EFT, EST, id)`, probing the first
    /// idle gap that fits; message arrival and execution time are
    /// priced by `model`, the arrival through the shared [`DatLanes`]
    /// probe (the rank order is topological, so every probed node is
    /// ready). On identical compute costs minimum EFT is minimum EST,
    /// the homogeneous insertion rule.
    ///
    /// Under finite memory capacities the EFT probe skips processors
    /// whose lane cannot hold the node's footprint on top of what is
    /// already resident there ([`ListState::fits`]), and stops with
    /// [`SchedulerError::Infeasible`] when no processor can hold a
    /// node's footprint.
    ///
    /// [`DatLanes`]: crate::list_common::DatLanes
    /// [`ListState::fits`]: crate::list_common::ListState::fits
    fn core<M: CostModel + ?Sized>(
        &self,
        dag: &Dag,
        num_procs: u32,
        model: &M,
        ws: &mut Workspace,
    ) -> Result<Schedule, SchedulerError> {
        rank_order_into(model, dag, num_procs, &mut ws.level, &mut ws.list);
        let (state, dat) = (&mut ws.state, &mut ws.dat);
        state.reset(dag.node_count(), num_procs);
        dat.reset(dag, model);
        for &n in &ws.list {
            let need = dag.mem(n);
            let mut best: Option<(Cost, Cost, ProcId)> = None; // (eft, est, proc)
            for pi in 0..num_procs {
                let p = ProcId(pi);
                if !state.fits(model, p, need) {
                    continue; // over capacity: lane is closed to n
                }
                let w = model.compute_cost(dag, n, p);
                let est = state.earliest_gap_at_or_after(p, dat.probe(model, dag, state, n, p), w);
                let eft = est + w;
                if best.is_none_or(|(beft, best_est, bp)| (eft, est, p.0) < (beft, best_est, bp.0))
                {
                    best = Some((eft, est, p));
                }
            }
            let Some((eft, est, p)) = best else {
                return Err(SchedulerError::Infeasible {
                    node: n.0,
                    footprint: need,
                });
            };
            state.place_with_duration(dag, n, p, est, eft - est);
        }
        ws.state.write_schedule(dag, &mut ws.staging);
        Ok(ws.finish(model))
    }
}

impl Scheduler for Heft {
    fn name(&self) -> &'static str {
        "HEFT"
    }

    fn schedule_on(
        &self,
        dag: &Dag,
        num_procs: u32,
        machine: &Machine,
        ws: &mut Workspace,
        _trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        priced!(machine, |m| self.core(dag, num_procs, m, ws))
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
