//! DLS — Dynamic Level Scheduling (Sih & Lee; §3.3 of the paper).
//!
//! The *dynamic level* of a (node, processor) pair is
//! `DL(n, P) = SL(n) - EST(n, P)`: static b-level minus earliest start
//! time. At each step the pair with the **largest** dynamic level is
//! scheduled. The pair-wise matching makes the algorithm O(p e v)
//! overall.

use crate::scheduler::{priced, Feature, Scheduler, SchedulerError};
use crate::workspace::Workspace;
use fastsched_dag::{attributes::static_levels_soa_into, Dag, NodeId};
use fastsched_schedule::{CostModel, Machine, ProcId, Schedule};
use fastsched_trace::SearchTrace;

/// The DLS scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dls;

impl Dls {
    /// New DLS scheduler.
    pub fn new() -> Self {
        Self
    }

    /// The DLS matching loop — the one scheduling core. Message arrival
    /// and execution time are priced by `model`, with ETF's DAT-lane
    /// fast path. DLS is capacity-blind, so machines with memory
    /// capacities are `Unsupported`.
    fn core<M: CostModel + ?Sized>(
        &self,
        dag: &Dag,
        num_procs: u32,
        model: &M,
        ws: &mut Workspace,
    ) -> Result<Schedule, SchedulerError> {
        static_levels_soa_into(dag, &mut ws.attr_lanes, &mut ws.level);
        let (sl, state, ready, dat) = (&ws.level, &mut ws.state, &mut ws.ready_set, &mut ws.dat);
        state.reset(dag.node_count(), num_procs);
        ready.reset(dag);
        dat.reset(dag, model);

        while !ready.is_empty() {
            // Maximize DL = SL - EST over the full node × processor
            // pair scan (the published O(p e v) matching — kept
            // unpruned on purpose; its cost is what the paper's
            // scheduling-time comparison measures). Ties: smaller
            // EST, then smaller id.
            let mut best: Option<(i64, u64, u32, ProcId)> = None;
            for &n in ready.ready() {
                for pi in 0..num_procs {
                    let p = ProcId(pi);
                    let est = state.ready_time(p).max(dat.probe(model, dag, state, n, p));
                    let dl = sl[n.index()] as i64 - est as i64;
                    let better = match best {
                        None => true,
                        Some((bdl, best_est, bid, _)) => {
                            (dl, u64::MAX - est, u32::MAX - n.0)
                                > (bdl, u64::MAX - best_est, u32::MAX - bid)
                        }
                    };
                    if better {
                        best = Some((dl, est, n.0, p));
                    }
                }
            }
            let (_, est, id, proc) = best.expect("ready set non-empty");
            let n = NodeId(id);
            state.place_with_duration(dag, n, proc, est, model.compute_cost(dag, n, proc));
            ready.complete(dag, n);
        }
        ws.state.write_schedule(dag, &mut ws.staging);
        Ok(ws.finish(model))
    }
}

impl Scheduler for Dls {
    fn name(&self) -> &'static str {
        "DLS"
    }

    fn schedule_on(
        &self,
        dag: &Dag,
        num_procs: u32,
        machine: &Machine,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        if machine.has_capacities() {
            return Err(SchedulerError::Unsupported(Feature::MemoryCapacities));
        }
        let schedule = priced!(machine, |m| self.core(dag, num_procs, m, ws));
        trace.eval.placement_pred_reads += ws.dat.pred_reads();
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_dag::examples::{fork_join, paper_figure1};
    use fastsched_schedule::validate;

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Dls::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn parallelizes_independent_work() {
        let g = fork_join(6, 10, 1);
        let s = Dls::new().schedule(&g, 6);
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.processors_used() >= 4);
    }

    #[test]
    fn favours_deep_subtrees_first() {
        // Two ready chains of different SL: the deeper chain's head has
        // higher dynamic level and must be scheduled at time 0.
        use fastsched_dag::DagBuilder;
        let mut b = DagBuilder::new();
        let deep0 = b.add_task(4);
        let deep1 = b.add_task(4);
        let deep2 = b.add_task(4);
        let shallow = b.add_task(4);
        b.add_edge(deep0, deep1, 1).unwrap();
        b.add_edge(deep1, deep2, 1).unwrap();
        let g = b.build().unwrap();
        let s = Dls::new().schedule(&g, 1);
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.start_of(deep0).unwrap() < s.start_of(shallow).unwrap());
    }

    #[test]
    fn matches_etf_qualitatively_on_paper_example() {
        // The paper notes ETF and DLS generate the same schedule on the
        // example graph; with our reconstruction their lengths should
        // at least be close (identical tie-breaking is not guaranteed).
        let g = paper_figure1();
        let dls = Dls::new().schedule(&g, 9).makespan();
        let etf = crate::etf::Etf::new().schedule(&g, 9).makespan();
        let diff = dls.abs_diff(etf);
        assert!(diff * 10 <= dls.max(etf), "DLS {dls} vs ETF {etf}");
    }
}
