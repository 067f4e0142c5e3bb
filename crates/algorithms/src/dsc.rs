//! DSC — Dominant Sequence Clustering (Yang & Gerasoulis; §3.4 of the
//! paper).
//!
//! DSC tracks the critical path of the partially scheduled DAG (the
//! *dominant sequence*) using the composite priority
//! `t-level + b-level`. Nodes are examined in priority order, but only
//! when *free* (all parents examined), which lets t-levels be computed
//! incrementally and keeps the complexity at O((e + v) log v). An
//! examined node either starts its own cluster or joins the cluster of
//! the parent whose message arrives last (zeroing the dominant
//! incoming edge — the only zeroing that can lower the t-level);
//! the merge is accepted if the node's t-level does not increase.
//!
//! The *dominant-sequence reduction warranty* (DSRW) is enforced as in
//! Yang–Gerasoulis: when the examined free node is **not** the head of
//! the dominant sequence — a *partially free* node (one with at least
//! one examined parent) carries a higher `t-level + b-level` priority —
//! a merge is rejected if occupying the target cluster's tail would
//! increase that node's estimated start time. Together with
//! entry nodes always opening fresh clusters, this is what produces
//! DSC's characteristically large processor counts (the paper's
//! Figures 5(b)/8(b)).
//!
//! DSC assumes an unbounded processor pool: each final cluster is one
//! processor. The `num_procs` argument is treated as a pool bound for
//! the [`Schedule`] container only; the paper's experiments always
//! grant it "more than enough" (pass `num_procs >= v`). This is what
//! produces its characteristic O(v) processor usage (Figures 5(b),
//! 6(b), 8(b)).

use crate::scheduler::HomogeneousOnly;
use fastsched_dag::{attributes::b_levels, Cost, Dag, NodeId};
use fastsched_schedule::{ProcId, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The DSC scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dsc;

impl Dsc {
    /// New DSC scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl HomogeneousOnly for Dsc {
    const NAME: &'static str = "DSC";
    const UNBOUNDED: bool = true;

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32) -> Schedule {
        let v = dag.node_count();
        let bl = b_levels(dag);

        // Cluster of each examined node; clusters are created lazily.
        let mut cluster = vec![u32::MAX; v];
        // Per-cluster ready time (finish of the last appended node).
        let mut cluster_ready: Vec<Cost> = Vec::new();
        let mut start = vec![0 as Cost; v];
        let mut finish = vec![0 as Cost; v];
        let mut examined = vec![false; v];

        // Incremental t-level estimates over *examined* parents
        // (all-remote arrivals) — DSC's composite priority is
        // tl_est + b-level, maintained lazily in two heaps: the free
        // heap drives examination order; the partially-free heap
        // supplies the DSRW reference node.
        let mut tl_est = vec![0 as Cost; v];
        let mut remaining = vec![0u32; v];
        let mut free_heap: BinaryHeap<(Cost, Reverse<u32>)> = BinaryHeap::new();
        let mut pf_heap: BinaryHeap<(Cost, Reverse<u32>)> = BinaryHeap::new();
        for n in dag.nodes() {
            remaining[n.index()] = dag.in_degree(n) as u32;
            if remaining[n.index()] == 0 {
                free_heap.push((bl[n.index()], Reverse(n.0)));
            }
        }

        // Scratch: distinct parent clusters of the node being examined.
        let mut parent_clusters: Vec<u32> = Vec::with_capacity(8);

        while let Some((prio, Reverse(id))) = free_heap.pop() {
            let n = NodeId(id);
            if examined[n.index()] || prio != tl_est[n.index()] + bl[n.index()] {
                continue; // stale entry
            }

            // Option A: own cluster — every message remote.
            let mut own_start: Cost = 0;
            for e in dag.preds(n) {
                own_start = own_start.max(finish[e.node.index()] + e.cost);
            }

            // Option B: Yang–Gerasoulis's minimization procedure zeroes
            // the *dominant* incoming edge — nf may only join the
            // cluster of the parent whose message arrives last (zeroing
            // any other edge cannot reduce the t-level, which is the
            // max over arrivals). Messages from other parents that
            // already live in that cluster are zeroed as a side effect.
            parent_clusters.clear();
            let mut dominant: Option<(Cost, u32)> = None; // (arrival, cluster)
            for e in dag.preds(n) {
                let arrival = finish[e.node.index()] + e.cost;
                let c = cluster[e.node.index()];
                if dominant.is_none_or(|(a, _)| arrival > a) {
                    dominant = Some((arrival, c));
                }
            }
            let best_merge: Option<(Cost, u32)> = dominant.map(|(_, c)| {
                let mut dat: Cost = 0;
                for e in dag.preds(n) {
                    let arrival = if cluster[e.node.index()] == c {
                        finish[e.node.index()]
                    } else {
                        finish[e.node.index()] + e.cost
                    };
                    dat = dat.max(arrival);
                }
                (dat.max(cluster_ready[c as usize]), c)
            });

            // DSRW: if a partially-free node np outranks nf on the
            // dominant sequence, nf's merge must not increase np's
            // estimated start time.
            let mut accept_merge = matches!(best_merge, Some((ms, _)) if ms <= own_start);
            if accept_merge {
                let (ms, mc) = best_merge.unwrap();
                // Find the current top partially-free node.
                while let Some(&(pprio, Reverse(pid))) = pf_heap.peek() {
                    let np = NodeId(pid);
                    if examined[np.index()]
                        || remaining[np.index()] == 0
                        || pprio != tl_est[np.index()] + bl[np.index()]
                    {
                        pf_heap.pop();
                        continue;
                    }
                    if pprio > prio {
                        // np dominates: compare np's estimate with c's
                        // tail occupied by nf until ms + w(n).
                        let np_estimate = |patched: Option<(u32, Cost)>| -> Cost {
                            let ready_of = |c: u32| match patched {
                                Some((pc, pr)) if pc == c => pr,
                                _ => cluster_ready[c as usize],
                            };
                            let mut remote: Cost = 0;
                            for e in dag.preds(np) {
                                if examined[e.node.index()] {
                                    remote = remote.max(finish[e.node.index()] + e.cost);
                                }
                            }
                            let mut best = remote; // own cluster
                            let mut seen: Vec<u32> = Vec::with_capacity(4);
                            for e in dag.preds(np) {
                                if !examined[e.node.index()] {
                                    continue;
                                }
                                let c = cluster[e.node.index()];
                                if seen.contains(&c) {
                                    continue;
                                }
                                seen.push(c);
                                let mut dat: Cost = 0;
                                for e2 in dag.preds(np) {
                                    if !examined[e2.node.index()] {
                                        continue;
                                    }
                                    let arrival = if cluster[e2.node.index()] == c {
                                        finish[e2.node.index()]
                                    } else {
                                        finish[e2.node.index()] + e2.cost
                                    };
                                    dat = dat.max(arrival);
                                }
                                best = best.min(dat.max(ready_of(c)));
                            }
                            best
                        };
                        let before = np_estimate(None);
                        let after = np_estimate(Some((mc, ms + dag.weight(n))));
                        if after > before {
                            accept_merge = false;
                        }
                    }
                    break;
                }
            }

            let (s, c) = if accept_merge {
                best_merge.unwrap()
            } else {
                let c = cluster_ready.len() as u32;
                cluster_ready.push(0);
                (own_start, c)
            };

            cluster[n.index()] = c;
            start[n.index()] = s;
            finish[n.index()] = s + dag.weight(n);
            cluster_ready[c as usize] = finish[n.index()];
            examined[n.index()] = true;

            for e in dag.succs(n) {
                let child = e.node;
                let r = &mut remaining[child.index()];
                *r -= 1;
                let arrival = finish[n.index()] + e.cost;
                if arrival > tl_est[child.index()] {
                    tl_est[child.index()] = arrival;
                }
                let child_prio = tl_est[child.index()] + bl[child.index()];
                if *r == 0 {
                    free_heap.push((child_prio, Reverse(child.0)));
                } else {
                    pf_heap.push((child_prio, Reverse(child.0)));
                }
            }
        }

        let clusters = cluster_ready.len() as u32;
        let pool = clusters.max(num_procs).max(1);
        let mut schedule = Schedule::new(v, pool);
        for n in dag.nodes() {
            schedule.place(
                n,
                ProcId(cluster[n.index()]),
                start[n.index()],
                finish[n.index()],
            );
        }
        schedule.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::{chain, fork_join, paper_figure1};
    use fastsched_schedule::validate;

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Dsc::new().schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn chain_collapses_into_one_cluster() {
        let g = chain(8, 3, 5);
        let s = Dsc::new().schedule(&g, 8);
        assert_eq!(validate(&g, &s), Ok(()));
        // Zeroing every edge strictly reduces each t-level, so the
        // whole chain lands in one cluster with zero communication.
        assert_eq!(s.processors_used(), 1);
        assert_eq!(s.makespan(), 8 * 3);
    }

    #[test]
    fn fork_join_with_cheap_comm_spreads_clusters() {
        let g = fork_join(6, 10, 1);
        let s = Dsc::new().schedule(&g, 8);
        assert_eq!(validate(&g, &s), Ok(()));
        // Merging all middles would serialize 60 units of work against
        // messages of cost 1: DSC keeps several clusters.
        assert!(s.processors_used() >= 3, "used {}", s.processors_used());
    }

    #[test]
    fn fork_join_with_heavy_comm_collapses() {
        let g = fork_join(6, 1, 100);
        let s = Dsc::new().schedule(&g, 8);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.processors_used(), 1);
        assert_eq!(s.makespan(), 8);
    }

    #[test]
    fn uses_many_clusters_on_wide_graphs() {
        // A wide independent layer: every node is its own cluster (no
        // parent to merge with), reproducing DSC's O(v) processor use.
        use fastsched_dag::DagBuilder;
        let mut b = DagBuilder::new();
        for _ in 0..20 {
            b.add_task(5);
        }
        let g = b.build().unwrap();
        let s = Dsc::new().schedule(&g, 20);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.processors_used(), 20);
    }
}
