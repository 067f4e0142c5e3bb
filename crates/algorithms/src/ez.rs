//! EZ — Sarkar's Edge-Zeroing clustering, an extension from the
//! paper's comparison family \[1\].
//!
//! Edges are examined in descending communication-cost order; each
//! edge's two clusters are merged iff the merge does not increase the
//! schedule length, evaluated by replaying list scheduling (b-level
//! priority order) with the tentative cluster→processor assignment.
//! O(e · (v + e)) overall.

use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Dag, GraphAttributes, NodeId};
use fastsched_schedule::evaluate::evaluate_makespan_into;
use fastsched_schedule::ProcId;

/// The EZ scheduler (unbounded processors, like all clustering
/// algorithms; `num_procs` is only a container bound).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ez;

impl Ez {
    /// New EZ scheduler.
    pub fn new() -> Self {
        Self
    }
}

/// Union-find over node ids.
struct Dsu(Vec<u32>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n as u32).collect())
    }
    fn find(&mut self, x: u32) -> u32 {
        let mut r = x;
        while self.0[r as usize] != r {
            r = self.0[r as usize];
        }
        let mut cur = x;
        while self.0[cur as usize] != r {
            let next = self.0[cur as usize];
            self.0[cur as usize] = r;
            cur = next;
        }
        r
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra as usize] = rb;
        }
    }
}

impl HomogeneousOnly for Ez {
    const NAME: &'static str = "EZ";
    const UNBOUNDED: bool = true;

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) {
        let v = dag.node_count();
        let bl = GraphAttributes::compute(dag).b_level;

        // Static priority order: descending b-level (topological).
        let mut order: Vec<NodeId> = dag.nodes().collect();
        order.sort_by_key(|&n| (std::cmp::Reverse(bl[n.index()]), n.0));

        // Edges by descending cost, ties by endpoints for determinism.
        let mut edges: Vec<(NodeId, NodeId, u64)> = dag.edges().collect();
        edges.sort_by_key(|&(s, d, c)| (std::cmp::Reverse(c), s.0, d.0));

        let mut dsu = Dsu::new(v);
        let assignment_of =
            |dsu: &mut Dsu| -> Vec<ProcId> { (0..v as u32).map(|i| ProcId(dsu.find(i))).collect() };

        let (mut ready_buf, mut finish_buf) = (Vec::new(), Vec::new());
        let mut assignment = assignment_of(&mut dsu);
        let mut best =
            evaluate_makespan_into(dag, &order, &assignment, &mut ready_buf, &mut finish_buf);

        for (s, d, _) in edges {
            if dsu.find(s.0) == dsu.find(d.0) {
                continue; // already zeroed transitively
            }
            let mut trial = dsu.0.clone();
            dsu.union(s.0, d.0);
            let candidate = assignment_of(&mut dsu);
            let m =
                evaluate_makespan_into(dag, &order, &candidate, &mut ready_buf, &mut finish_buf);
            if m <= best {
                best = m;
                assignment = candidate;
            } else {
                std::mem::swap(&mut dsu.0, &mut trial); // revert
            }
        }

        // Processor ids are cluster representatives (sparse); the pool
        // must cover the largest id — `Workspace::finish` densifies
        // afterwards.
        let pool = (v as u32).max(num_procs);
        ws.replay_into_staging(dag, &order, &assignment, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::{chain, fork_join, paper_figure1};
    use fastsched_schedule::{evaluate_fixed_order, validate};

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Ez::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn chain_collapses_fully() {
        let g = chain(6, 2, 9);
        let s = Ez::new().schedule(&g, 6);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.processors_used(), 1);
        assert_eq!(s.makespan(), 12);
    }

    #[test]
    fn cheap_comm_fork_join_stays_parallel() {
        let g = fork_join(6, 10, 1);
        let s = Ez::new().schedule(&g, 8);
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.processors_used() >= 3);
    }

    #[test]
    fn zeroing_never_worsens_the_initial_clustering() {
        // EZ only accepts non-increasing merges, so it is at least as
        // good as the fully-distributed starting point.
        let g = paper_figure1();
        let ez = Ez::new().schedule(&g, 9).makespan();
        let bl = GraphAttributes::compute(&g).b_level;
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_by_key(|&n| (std::cmp::Reverse(bl[n.index()]), n.0));
        let dist: Vec<ProcId> = g.nodes().map(|n| ProcId(n.0)).collect();
        let baseline = evaluate_fixed_order(&g, &order, &dist, 9).makespan();
        assert!(ez <= baseline);
    }
}
