//! ETF — Earliest Task First (Hwang, Chow, Anger, Lee; §3.2 of the
//! paper).
//!
//! At each step the earliest start time of every ready node on every
//! processor is computed and the (node, processor) pair with the
//! smallest start time is scheduled; ties are broken in favour of the
//! node with the higher static level. O(p v²).

use crate::scheduler::{priced, Feature, Scheduler, SchedulerError};
use crate::workspace::Workspace;
use fastsched_dag::{attributes::static_levels_soa_into, Cost, Dag, NodeId};
use fastsched_schedule::{CostModel, Machine, ProcId, Schedule};
use fastsched_trace::SearchTrace;

/// The ETF scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Etf;

impl Etf {
    /// New ETF scheduler.
    pub fn new() -> Self {
        Self
    }

    /// The ETF selection loop — the one scheduling core. Every probe
    /// prices message arrival and execution time through `model`; under
    /// a model whose message price depends only on co-location the
    /// probes read the flat per-node DAT lanes
    /// ([`crate::list_common::DatLanes`]), otherwise they walk the
    /// parents. Scratch comes from `ws`; ETF has no search to trace,
    /// only the lanes' pred-read count.
    /// ETF is capacity-blind, so machines with memory capacities are
    /// `Unsupported`.
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
            // Global minimum over ready-node × processor pairs — the
            // published O(p v²) pair scan. The DAT lanes keep each
            // probe O(1); the scan itself is deliberately not pruned,
            // because the pair-scan cost *is* the algorithm the
            // paper's scheduling-time comparison measures.
            let mut best: Option<(Cost, Cost, u32, ProcId)> = None; // (est, -sl, id, proc)
            for &n in ready.ready() {
                for pi in 0..num_procs {
                    let p = ProcId(pi);
                    let est = state.ready_time(p).max(dat.probe(model, dag, state, n, p));
                    let key = (est, Cost::MAX - sl[n.index()], n.0);
                    match best {
                        Some((e, s, i, _)) if (e, s, i) <= key => {}
                        _ => best = Some((key.0, key.1, key.2, p)),
                    }
                }
            }
            let (est, _, id, proc) = best.expect("ready set non-empty");
            let n = NodeId(id);
            state.place_with_duration(dag, n, proc, est, model.compute_cost(dag, n, proc));
            ready.complete(dag, n);
        }
        ws.state.write_schedule(dag, &mut ws.staging);
        Ok(ws.finish(model))
    }
}

impl Scheduler for Etf {
    fn name(&self) -> &'static str {
        "ETF"
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
    use fastsched_dag::examples::{fork_join, paper_figure1, paper_node};
    use fastsched_schedule::validate;

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Etf::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn spreads_a_fork_join_across_processors() {
        let g = fork_join(4, 10, 1);
        let s = Etf::new().schedule(&g, 4);
        assert_eq!(validate(&g, &s), Ok(()));
        // Communication (1) is tiny next to task weight (10): the four
        // middle tasks should not serialize on one processor.
        assert!(s.processors_used() >= 3);
        assert!(s.makespan() < 5 * 10);
    }

    #[test]
    fn etf_prefers_high_static_level_on_tie() {
        // The paper's Figure 2 story: ETF schedules n5 early because
        // SL(n5) > SL(n2); verify n5 is placed no later than n2 starts.
        let g = paper_figure1();
        let s = Etf::new().schedule(&g, 9);
        let st5 = s.start_of(paper_node(5)).unwrap();
        let st2 = s.start_of(paper_node(2)).unwrap();
        assert!(st5 <= st2, "ETF should start n5 ({st5}) before n2 ({st2})");
    }

    #[test]
    fn cross_processor_tie_breaks_by_static_level_hand_computed() {
        // §5 audit case: after n0 (w=5) runs on P0, both n1 (w=9,
        // SL=9) and n2 (w=4, SL=14) become ready with EST 5 on *both*
        // processors (zero-cost edges from n0) — a four-way
        // (node × processor) tie on start time. The paper's rule picks
        // the higher static level, so n2 must take P0 at t=5 and n1
        // moves to the other processor; an id-order tie-break would
        // seat n1 next to n0 instead. The heavy n2→n3 message (100)
        // then pins n3 (w=9) and n4 (w=1) behind n2's processor.
        //
        // Hand-computed ETF timeline, 2 processors:
        //   P0: n0 0–5, n2 5–9, n3 9–18, n4 18–19
        //   P1: n1 5–14                          makespan 19
        let mut b = fastsched_dag::DagBuilder::new();
        let n0 = b.add_task(5);
        let n1 = b.add_task(9);
        let n2 = b.add_task(4);
        let n3 = b.add_task(9);
        let n4 = b.add_task(1);
        b.add_edge(n0, n1, 0).unwrap();
        b.add_edge(n0, n2, 0).unwrap();
        b.add_edge(n2, n3, 100).unwrap();
        b.add_edge(n3, n4, 0).unwrap();
        let g = b.build().unwrap();

        let s = Etf::new().schedule(&g, 2);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.start_of(n2), Some(5), "n2 must win the t=5 tie");
        assert_eq!(
            s.proc_of(n2),
            s.proc_of(n0),
            "higher-SL n2 takes n0's processor"
        );
        assert_eq!(s.start_of(n1), Some(5));
        assert_ne!(s.proc_of(n1), s.proc_of(n0), "n1 is displaced to P1");
        assert_eq!(s.start_of(n3), Some(9));
        assert_eq!(s.proc_of(n3), s.proc_of(n2));
        assert_eq!(s.makespan(), 19);
    }

    #[test]
    fn single_processor_is_serial() {
        let g = paper_figure1();
        let s = Etf::new().schedule(&g, 1);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), g.total_computation());
    }
}
