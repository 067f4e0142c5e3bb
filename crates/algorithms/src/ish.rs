//! ISH — Insertion Scheduling Heuristic (Kruatrachue & Lewis):
//! static-level list scheduling that fills the *communication holes*
//! it creates. Included as an extension from the paper's comparison
//! family \[1\].
//!
//! When the next list node starts later than its processor's ready
//! time (waiting for a message), the idle hole is offered to other
//! ready nodes, highest static level first; a hole node is accepted if
//! it fits without delaying the hole owner's start.

use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Cost, Dag, GraphAttributes};
use fastsched_schedule::{HomogeneousModel, ProcId};

/// The ISH scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ish;

impl Ish {
    /// New ISH scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl HomogeneousOnly for Ish {
    const NAME: &'static str = "ISH";

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) {
        let sl = GraphAttributes::compute(dag).static_level;
        let (machine, ready, dat) = (&mut ws.state, &mut ws.ready_set, &mut ws.dat);
        machine.reset(dag.node_count(), num_procs);
        ready.reset(dag);
        // A ready node's DAT entry is filled on its first probe; its
        // parents are all placed, so the entry never goes stale.
        dat.reset(dag, &HomogeneousModel);

        while !ready.is_empty() {
            // Highest static level among ready nodes.
            let &n = ready
                .ready()
                .iter()
                .max_by_key(|&&n| (sl[n.index()], std::cmp::Reverse(n.0)))
                .expect("ready set non-empty");

            // Best processor under the append policy; the DAT lanes make
            // each probe O(distinct parent processors) instead of
            // O(in-degree).
            let mut best_p = ProcId(0);
            let mut best_s = Cost::MAX;
            for pi in 0..num_procs {
                let p = ProcId(pi);
                let s = dat
                    .probe(&HomogeneousModel, dag, machine, n, p)
                    .max(machine.ready_time(p));
                if s < best_s {
                    best_s = s;
                    best_p = p;
                }
            }
            let hole_lo = machine.ready_time(best_p);
            machine.place(dag, n, best_p, best_s);
            ready.complete(dag, n);

            // Hole filling: [hole_lo, best_s) idle time on best_p.
            let mut hole_lo = hole_lo;
            while hole_lo < best_s {
                // Candidate: the highest-SL ready node that fits in the
                // hole without delaying (its DAT on best_p must allow
                // finishing by best_s). Each candidate's DAT is read
                // once from the lanes and its start carried along, so
                // the accept arm does not recompute it.
                let fit = ready
                    .ready()
                    .iter()
                    .copied()
                    .filter_map(|m| {
                        let arrival = dat.probe(&HomogeneousModel, dag, machine, m, best_p);
                        let s = arrival.max(hole_lo);
                        (s + dag.weight(m) <= best_s).then_some((m, s))
                    })
                    .max_by_key(|&(m, _)| (sl[m.index()], std::cmp::Reverse(m.0)));
                match fit {
                    None => break,
                    Some((m, s)) => {
                        machine.place(dag, m, best_p, s);
                        ready.complete(dag, m);
                        hole_lo = s + dag.weight(m);
                    }
                }
            }
        }
        machine.write_schedule(dag, &mut ws.staging);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::paper_figure1;
    use fastsched_dag::DagBuilder;
    use fastsched_schedule::validate;

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Ish::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn never_worse_than_hlfet_on_the_example() {
        // ISH is HLFET plus hole filling; holes can only be reused.
        let g = paper_figure1();
        let ish = Ish::new().schedule(&g, 9).makespan();
        let hlfet = crate::hlfet::Hlfet::new().schedule(&g, 9).makespan();
        assert!(ish <= hlfet + hlfet / 4, "ISH {ish} vs HLFET {hlfet}");
    }

    #[test]
    fn fills_a_communication_hole() {
        // chain a→b with a big message; independent cheap task c can
        // run inside the hole on the same processor.
        let mut bld = DagBuilder::new();
        let a = bld.add_task(2);
        let b = bld.add_task(2);
        let c = bld.add_task(3);
        let d = bld.add_task(20); // keeps c off its own processor
        bld.add_edge(a, b, 10).unwrap();
        bld.add_edge(d, c, 1).unwrap();
        let g = bld.build().unwrap();
        let s = Ish::new().schedule(&g, 2);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn single_processor_is_serial() {
        let g = paper_figure1();
        let s = Ish::new().schedule(&g, 1);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), g.total_computation());
    }
}
