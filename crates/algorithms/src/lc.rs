//! LC — Linear Clustering (Kim & Browne), an extension from the
//! paper's comparison family \[1\].
//!
//! Repeatedly extract the critical path of the *remaining* graph, make
//! those nodes one linear cluster (zeroing the edges along it), remove
//! them, and recurse on what is left. Every cluster is a chain, so the
//! final schedule executes each cluster on its own processor in path
//! order.

use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::ProcId;

/// The LC scheduler (unbounded processors; `num_procs` is only a
/// container bound).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lc;

impl Lc {
    /// New LC scheduler.
    pub fn new() -> Self {
        Self
    }
}

/// Longest path (by w + c, restricted to `alive` nodes) in the induced
/// subgraph, returned as a node sequence.
fn critical_path_of_remaining(dag: &Dag, alive: &[bool]) -> Vec<NodeId> {
    // Longest-path DP over the frozen topological order, alive only.
    let v = dag.node_count();
    let mut dist = vec![0 as Cost; v]; // best path length ending here (incl. own w)
    let mut pred: Vec<Option<NodeId>> = vec![None; v];
    for &n in dag.topo_order() {
        if !alive[n.index()] {
            continue;
        }
        dist[n.index()] += dag.weight(n);
        for e in dag.succs(n) {
            if !alive[e.node.index()] {
                continue;
            }
            let cand = dist[n.index()] + e.cost;
            if cand > dist[e.node.index()] {
                dist[e.node.index()] = cand;
                pred[e.node.index()] = Some(n);
            }
        }
    }
    let end = dag
        .nodes()
        .filter(|&n| alive[n.index()])
        .max_by_key(|&n| (dist[n.index()], std::cmp::Reverse(n.0)))
        .expect("some node alive");
    let mut path = vec![end];
    let mut cur = end;
    while let Some(p) = pred[cur.index()] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    path
}

impl HomogeneousOnly for Lc {
    const NAME: &'static str = "LC";
    const UNBOUNDED: bool = true;

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) {
        let v = dag.node_count();
        let mut alive = vec![true; v];
        let mut cluster = vec![0u32; v];
        let mut remaining = v;
        let mut next_cluster = 0u32;
        while remaining > 0 {
            let path = critical_path_of_remaining(dag, &alive);
            for &n in &path {
                alive[n.index()] = false;
                cluster[n.index()] = next_cluster;
            }
            remaining -= path.len();
            next_cluster += 1;
        }

        // Execute clusters in topological order with the cluster
        // assignment; each cluster is a chain so its internal order is
        // forced.
        let assignment: Vec<ProcId> = cluster.iter().map(|&c| ProcId(c)).collect();
        let pool = next_cluster.max(num_procs).max(1);
        ws.replay_into_staging(dag, dag.topo_order(), &assignment, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::{chain, fork_join, paper_figure1};
    use fastsched_dag::GraphAttributes;
    use fastsched_schedule::validate;

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Lc::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn chain_is_one_cluster() {
        let g = chain(5, 3, 4);
        let s = Lc::new().schedule(&g, 5);
        assert_eq!(s.processors_used(), 1);
        assert_eq!(s.makespan(), 15);
    }

    #[test]
    fn fork_join_peels_one_branch_per_cluster() {
        let g = fork_join(4, 10, 1);
        let s = Lc::new().schedule(&g, 8);
        assert_eq!(validate(&g, &s), Ok(()));
        // fork + one worker + join form the first cluster; remaining 3
        // workers each become their own cluster.
        assert_eq!(s.processors_used(), 4);
    }

    #[test]
    fn first_cluster_is_the_critical_path() {
        let g = paper_figure1();
        let attrs = GraphAttributes::compute(&g);
        let cp = attrs.critical_path(&g);
        let s = Lc::new().schedule(&g, 9);
        // All CP nodes share one processor.
        let p = s.proc_of(cp[0]).unwrap();
        for &n in &cp {
            assert_eq!(s.proc_of(n), Some(p));
        }
    }
}
