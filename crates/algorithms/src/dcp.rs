//! DCP — Dynamic Critical-Path scheduling (Kwok & Ahmad, IEEE TPDS
//! 1996): the authors' companion algorithm from the same year as FAST,
//! included as an extension for context.
//!
//! DCP re-derives the critical path of the *partial* schedule at every
//! step: it selects the unscheduled (here: ready) node with the least
//! dynamic mobility (ALST − AEST, the gap between its absolute latest
//! and earliest start times on the current partial schedule), and
//! places it with a **look-ahead**: among the candidate processors
//! (those holding its parents, plus one unused), it picks the one
//! minimizing the node's insertion start *plus* the estimated start of
//! its most critical child on that same processor. This look-ahead is
//! what distinguishes DCP from MD and MCP, at O(v³) cost.

use crate::list_common::ListState;
use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::{HomogeneousModel, ProcId};

/// The DCP scheduler (ready-restricted, as our MD; see DESIGN.md §5).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dcp;

impl Dcp {
    /// New DCP scheduler.
    pub fn new() -> Self {
        Self
    }
}

/// AEST (absolute earliest start) of every node on the partial
/// schedule: placed nodes pinned, unplaced estimated with full
/// communication.
fn aest(dag: &Dag, machine: &ListState) -> Vec<Cost> {
    let mut t = vec![0 as Cost; dag.node_count()];
    for &n in dag.topo_order() {
        if machine.placed[n.index()] {
            t[n.index()] = machine.finish[n.index()] - dag.weight(n);
            continue;
        }
        let mut best = 0;
        for e in dag.preds(n) {
            let arrival = if machine.placed[e.node.index()] {
                machine.finish[e.node.index()] + e.cost
            } else {
                t[e.node.index()] + dag.weight(e.node) + e.cost
            };
            best = best.max(arrival);
        }
        t[n.index()] = best;
    }
    t
}

impl HomogeneousOnly for Dcp {
    const NAME: &'static str = "DCP";

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) {
        let (machine, ready, dat) = (&mut ws.state, &mut ws.ready_set, &mut ws.dat);
        machine.reset(dag.node_count(), num_procs);
        ready.reset(dag);
        dat.reset(dag, &HomogeneousModel);
        let mut used_procs: u32 = 0;

        while !ready.is_empty() {
            // Dynamic AEST/ALST on the current partial schedule.
            let t = aest(dag, machine);
            let mut b = vec![0 as Cost; dag.node_count()];
            for &n in dag.topo_order().iter().rev() {
                let mut best = 0;
                for e in dag.succs(n) {
                    best = best.max(e.cost + b[e.node.index()]);
                }
                b[n.index()] = dag.weight(n) + best;
            }
            let cp: Cost = dag
                .nodes()
                .map(|n| t[n.index()] + b[n.index()])
                .max()
                .unwrap();

            // Ready node with least dynamic mobility (ALST − AEST);
            // ties by larger b (deeper), then id.
            let mut pick: Option<(Cost, Cost, u32)> = None;
            for &n in ready.ready() {
                let alst = cp - b[n.index()];
                let mobility = alst.saturating_sub(t[n.index()]);
                let key = (mobility, Cost::MAX - b[n.index()], n.0);
                if pick.is_none_or(|p| key < p) {
                    pick = Some(key);
                }
            }
            let n = NodeId(pick.expect("ready set non-empty").2);

            // Critical child: the successor dominating n's b-level.
            let crit_child = dag
                .succs(n)
                .iter()
                .max_by_key(|e| (e.cost + b[e.node.index()], e.node.0))
                .map(|e| (e.node, e.cost));

            // Candidate processors: parents' processors plus one unused
            // (or the least-ready used processor when none is left).
            let mut candidates: Vec<ProcId> = Vec::new();
            for e in dag.preds(n) {
                let p = machine.proc[e.node.index()];
                if !candidates.contains(&p) {
                    candidates.push(p);
                }
            }
            if used_procs < num_procs {
                candidates.push(ProcId(used_procs));
            }
            if candidates.is_empty() {
                let p = (0..used_procs)
                    .map(ProcId)
                    .min_by_key(|&p| machine.ready_time(p))
                    .expect("at least one used processor");
                candidates.push(p);
            }

            // Look-ahead objective: insertion start of n on P plus the
            // estimated start of the critical child if co-located.
            dat.fill(&HomogeneousModel, dag, machine, n);
            let mut best: Option<(Cost, Cost, ProcId)> = None;
            for &p in &candidates {
                let arrival = dat.arrival(&HomogeneousModel, dag, machine, n, p);
                let s = machine.earliest_gap_at_or_after(p, arrival, dag.weight(n));
                let child_est = match crit_child {
                    None => 0,
                    Some((child, _)) => {
                        // Child on the same processor: all other
                        // messages remote, this one free, and it must
                        // wait for n to finish.
                        let mut dat = s + dag.weight(n);
                        for e in dag.preds(child) {
                            if e.node == n {
                                continue;
                            }
                            let arrival = if machine.placed[e.node.index()] {
                                let f = machine.finish[e.node.index()];
                                if machine.proc[e.node.index()] == p {
                                    f
                                } else {
                                    f + e.cost
                                }
                            } else {
                                t[e.node.index()] + dag.weight(e.node) + e.cost
                            };
                            dat = dat.max(arrival);
                        }
                        dat
                    }
                };
                let key = (s + child_est, s, p);
                if best.is_none_or(|(bk, bs, bp)| (key.0, key.1, key.2 .0) < (bk, bs, bp.0)) {
                    best = Some(key);
                }
            }
            let (_, s, p) = best.expect("candidates non-empty");
            if p.0 == used_procs {
                used_procs += 1;
            }
            machine.place(dag, n, p, s);
            ready.complete(dag, n);
        }
        machine.write_schedule(dag, &mut ws.staging);
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
        let s = Dcp::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn competitive_with_fast_on_the_example() {
        let g = paper_figure1();
        let dcp = Dcp::new().schedule(&g, 9).makespan();
        let fast = crate::fast::Fast::new().schedule(&g, 9).makespan();
        // DCP was the best-known algorithm of its year; it should be
        // in FAST's neighbourhood on the worked example.
        assert!(dcp <= fast + fast / 2, "DCP {dcp} vs FAST {fast}");
    }

    #[test]
    fn valid_on_fork_join_and_uses_parallelism() {
        let g = fork_join(6, 10, 1);
        let s = Dcp::new().schedule(&g, 6);
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.processors_used() >= 3);
    }

    #[test]
    fn single_processor_is_serial() {
        let g = paper_figure1();
        let s = Dcp::new().schedule(&g, 1);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), g.total_computation());
    }
}
