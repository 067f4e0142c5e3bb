//! MD — Mobility Directed scheduling (Wu & Gajski's Hypertool; §3.1 of
//! the paper).
//!
//! At each step MD recomputes the *relative mobility*
//! `(ALAP - ASAP) / w(n)` of every unscheduled node on the **current**
//! partial schedule (edges between co-located placed nodes are zeroed,
//! placed nodes are pinned at their start times) and selects the node
//! with the smallest value — critical-path nodes have mobility zero.
//! The node is placed on the *first* processor, in index order, that
//! can accommodate it in an idle slot starting within its mobility
//! window — not the processor with the globally earliest slot. This
//! first-fit rule is what the paper criticizes: "the MD algorithm does
//! not schedule a node to the earliest possible time slots even though
//! it re-computes priorities at each step."
//!
//! The b-level in the mobility window is static: a placed node keeps
//! its downward weight, so it is read once from the attribute plane
//! (`Workspace::attrs`). The ASAP times, the critical-path length, the
//! ALAP times and the mobilities are recomputed every step, and that
//! O(v + e) pass over v steps still gives the O(v³)-class running time
//! the paper measures (Figures 5(c)–7(c)); §5.2 excludes MD from the
//! large random DAGs for the same reason. The pass writes a workspace
//! lane, and the placement state and ready set are the workspace's
//! too, so a warm workspace makes a run allocation-free.
//!
//! Fidelity note (DESIGN.md §5): candidates are restricted to *ready*
//! nodes (all parents placed). Wu–Gajski's original may pin a node
//! before its ancestors, relying on mobility windows for consistency;
//! the ready restriction preserves the selection rule, the first-fit
//! placement, the complexity class and the qualitative behaviour,
//! while guaranteeing the result is always a legal schedule.

use crate::list_common::ListState;
use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::{HomogeneousModel, ProcId};

/// The MD scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Md;

impl Md {
    /// New MD scheduler.
    pub fn new() -> Self {
        Self
    }
}

/// ASAP times on the current partial schedule into `asap`: placed
/// nodes are pinned at their actual start; unplaced nodes take the max
/// over parents of `finish + c` (`c` zeroed only between placed
/// co-located pairs, which is already folded into `finish`).
fn current_asap_into(dag: &Dag, machine: &ListState, asap: &mut Vec<Cost>) {
    asap.clear();
    asap.resize(dag.node_count(), 0);
    for &n in dag.topo_order() {
        if machine.placed[n.index()] {
            asap[n.index()] = machine.finish[n.index()] - dag.weight(n);
            continue;
        }
        let mut t = 0;
        for e in dag.preds(n) {
            let arrival = if machine.placed[e.node.index()] {
                // Destination unknown: assume the message is remote
                // (the standard pessimistic estimate).
                machine.finish[e.node.index()] + e.cost
            } else {
                asap[e.node.index()] + dag.weight(e.node) + e.cost
            };
            t = t.max(arrival);
        }
        asap[n.index()] = t;
    }
}

impl HomogeneousOnly for Md {
    const NAME: &'static str = "MD";

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) {
        ws.attrs.compute_into(dag, &mut ws.attr_lanes);
        let bl = &ws.attrs.b_level;
        let asap = &mut ws.level;
        let machine = &mut ws.state;
        machine.reset(dag.node_count(), num_procs);
        let ready = &mut ws.ready_set;
        ready.reset(dag);
        let dat = &mut ws.dat;
        dat.reset(dag, &HomogeneousModel);

        while !ready.is_empty() {
            // O(e) attribute recomputation — the expensive part of MD.
            current_asap_into(dag, machine, asap);
            let cp: Cost = dag
                .nodes()
                .map(|n| asap[n.index()] + bl[n.index()])
                .max()
                .expect("a DAG has at least one node");

            // Smallest relative mobility among ready nodes.
            let mut best: Option<(f64, u32)> = None;
            for &n in ready.ready() {
                let alap = cp - bl[n.index()];
                let mobility = (alap.saturating_sub(asap[n.index()])) as f64 / dag.weight(n) as f64;
                if best.is_none_or(|(bm, bi)| (mobility, n.0) < (bm, bi)) {
                    best = Some((mobility, n.0));
                }
            }
            let n = NodeId(best.expect("ready set non-empty").1);
            let alap_n = cp - bl[n.index()];

            // First processor (index order) whose earliest idle slot
            // after the DAT starts within [ASAP, ALAP].
            dat.fill(&HomogeneousModel, dag, machine, n);
            let mut chosen: Option<(ProcId, Cost)> = None;
            let mut fallback: Option<(Cost, ProcId)> = None;
            for pi in 0..num_procs {
                let p = ProcId(pi);
                let arrival = dat.arrival(&HomogeneousModel, dag, machine, n, p);
                let s = machine.earliest_gap_at_or_after(p, arrival, dag.weight(n));
                if s <= alap_n {
                    chosen = Some((p, s));
                    break;
                }
                if fallback.is_none_or(|(fs, _)| s < fs) {
                    fallback = Some((s, p));
                }
            }
            let (p, s) = chosen.unwrap_or_else(|| {
                // No processor accommodates the node inside its window:
                // the critical path stretches (ALAP recomputes next
                // round); take the earliest slot found.
                let (s, p) = fallback.expect("at least one processor");
                (p, s)
            });
            machine.place(dag, n, p, s);
            ready.complete(dag, n);
        }
        ws.state.write_schedule(dag, &mut ws.staging);
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
        let s = Md::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn uses_few_processors() {
        // First-fit packing keeps MD frugal with processors — the
        // paper's Figure 5(b) shows MD using 2–7 where others use N.
        let g = paper_figure1();
        let s = Md::new().schedule(&g, 9);
        assert!(
            s.processors_used() <= 4,
            "MD used {} processors",
            s.processors_used()
        );
    }

    #[test]
    fn valid_on_fork_join() {
        let g = fork_join(6, 10, 2);
        let s = Md::new().schedule(&g, 6);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn cp_nodes_have_zero_mobility_and_lead() {
        // On the paper example, n1 (a CPN) must be scheduled at time 0
        // on the first processor.
        let g = paper_figure1();
        let s = Md::new().schedule(&g, 9);
        assert_eq!(s.start_of(NodeId(0)), Some(0));
    }

    #[test]
    fn single_processor_is_serial() {
        let g = paper_figure1();
        let s = Md::new().schedule(&g, 1);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), g.total_computation());
    }
}
