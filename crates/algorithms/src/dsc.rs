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
//! increase that node's estimated start time. The estimate is one
//! pass over that node's parents: a cluster's ready time covers every
//! examined parent in it, so only the cluster sending the latest
//! message can beat the own-cluster estimate (`Examined::np_estimate`).
//! Together with
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
//!
//! Every buffer lives in the [`Workspace`]: the b-level comes from the
//! attribute plane (`Workspace::attrs`), each node's cluster, finish
//! and examined flag from the placement state's processor, finish and
//! placed lanes, and the rest from its own `DscScratch`. A warm
//! workspace makes a run allocation-free.

use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::{HomogeneousModel, ProcId, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap of nodes keyed by DSC's priority `tl_est + b-level`, ties to
/// the smaller id.
type PriorityHeap = BinaryHeap<(Cost, Reverse<u32>)>;

/// DSC's scratch beyond the placement state, cleared (capacity kept)
/// per run.
#[derive(Debug, Default)]
pub(crate) struct DscScratch {
    /// Per node: the t-level estimate over its examined parents
    /// (all-remote arrivals).
    tl_est: Vec<Cost>,
    /// Per node: its parents not yet examined.
    unexamined: Vec<u32>,
    /// Per cluster: its ready time (the finish of the last node
    /// appended to it).
    cluster_ready: Vec<Cost>,
    /// Free nodes (every parent examined): the examination order.
    free: PriorityHeap,
    /// Partially free nodes (some parent examined): the DSRW
    /// reference node.
    partially_free: PriorityHeap,
}

/// What the DSRW check reads of DSC's state: the examined nodes, their
/// finish times and clusters, and each cluster's ready time (the
/// finish of the last node appended to it).
struct Examined<'a> {
    dag: &'a Dag,
    examined: &'a [bool],
    finish: &'a [Cost],
    cluster: &'a [ProcId],
    cluster_ready: &'a [Cost],
}

impl Examined<'_> {
    /// The estimated start of the partially free node `np` over its
    /// examined parents: the earlier of its own cluster (every message
    /// remote) and the cluster of any examined parent (that cluster's
    /// messages zeroed, after its ready time). `patched` overrides one
    /// cluster's ready time, for the merge under test.
    ///
    /// One pass over `np`'s parents. Clusters only append, so a
    /// cluster's ready time — the patched `ms + w(n)` too, as `ms` is
    /// at least the cluster's ready time — is at least the finish of
    /// every examined parent in it, and joining cluster `c` costs
    /// `max(ready(c), best remote arrival not sent from c)`. That is
    /// the top remote arrival `top` unless `c` sent it, so only the
    /// cluster `top_c` that sent it can beat the own-cluster estimate
    /// `top`, by `max(ready(top_c), second)`, where `second` is the
    /// best remote arrival from any other cluster.
    fn np_estimate(&self, np: NodeId, patched: Option<(u32, Cost)>) -> Cost {
        let (mut top, mut top_c, mut second) = (0, u32::MAX, 0);
        for e in self.dag.preds(np) {
            let t = e.node.index();
            if !self.examined[t] {
                continue;
            }
            let arrival = self.finish[t] + e.cost;
            let c = self.cluster[t].0;
            if c != top_c {
                second = second.max(top.min(arrival));
            }
            if arrival > top {
                (top, top_c) = (arrival, c);
            }
        }
        if top_c == u32::MAX {
            return top;
        }
        let ready = match patched {
            Some((pc, pr)) if pc == top_c => pr,
            _ => self.cluster_ready[top_c as usize],
        };
        let estimate = top.min(ready.max(second));
        #[cfg(test)]
        tests::check_against_rescan(self, np, patched, estimate);
        estimate
    }
}

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

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) -> Schedule {
        let v = dag.node_count();
        ws.attrs.compute_into(dag, &mut ws.attr_lanes);
        let bl = &ws.attrs.b_level;

        // Each examined node's cluster, finish and examined flag live
        // in the placement state's processor, finish and placed lanes;
        // clusters are created lazily, so it holds no processor.
        let state = &mut ws.state;
        state.reset(v, 0);
        // Incremental t-level estimates over *examined* parents
        // (all-remote arrivals) — DSC's composite priority is
        // tl_est + b-level, maintained lazily in two heaps: the free
        // heap drives examination order; the partially-free heap
        // supplies the DSRW reference node.
        let DscScratch {
            tl_est,
            unexamined,
            cluster_ready,
            free,
            partially_free,
        } = &mut ws.dsc;
        tl_est.clear();
        tl_est.resize(v, 0);
        unexamined.clear();
        unexamined.extend(dag.nodes().map(|n| dag.in_degree(n) as u32));
        cluster_ready.clear();
        free.clear();
        partially_free.clear();
        free.extend(
            dag.nodes()
                .filter(|&n| unexamined[n.index()] == 0)
                .map(|n| (bl[n.index()], Reverse(n.0))),
        );

        while let Some((prio, Reverse(id))) = free.pop() {
            let n = NodeId(id);
            if state.placed[n.index()] || prio != tl_est[n.index()] + bl[n.index()] {
                continue; // stale entry
            }

            // Option A: own cluster — every message remote.
            let mut own_start: Cost = 0;
            for e in dag.preds(n) {
                own_start = own_start.max(state.finish[e.node.index()] + e.cost);
            }

            // Option B: Yang–Gerasoulis's minimization procedure zeroes
            // the *dominant* incoming edge — nf may only join the
            // cluster of the parent whose message arrives last (zeroing
            // any other edge cannot reduce the t-level, which is the
            // max over arrivals). Messages from other parents that
            // already live in that cluster are zeroed as a side effect.
            let mut dominant: Option<(Cost, ProcId)> = None; // (arrival, cluster)
            for e in dag.preds(n) {
                let arrival = state.finish[e.node.index()] + e.cost;
                let c = state.proc[e.node.index()];
                if dominant.is_none_or(|(a, _)| arrival > a) {
                    dominant = Some((arrival, c));
                }
            }
            let best_merge: Option<(Cost, ProcId)> = dominant.map(|(_, c)| {
                let mut dat: Cost = 0;
                for e in dag.preds(n) {
                    let arrival = if state.proc[e.node.index()] == c {
                        state.finish[e.node.index()]
                    } else {
                        state.finish[e.node.index()] + e.cost
                    };
                    dat = dat.max(arrival);
                }
                (dat.max(cluster_ready[c.index()]), c)
            });

            // DSRW: if a partially-free node np outranks nf on the
            // dominant sequence, nf's merge must not increase np's
            // estimated start time.
            let mut accept_merge = matches!(best_merge, Some((ms, _)) if ms <= own_start);
            if accept_merge {
                let (ms, mc) = best_merge.unwrap();
                // Find the current top partially-free node.
                while let Some(&(pprio, Reverse(pid))) = partially_free.peek() {
                    let np = NodeId(pid);
                    if state.placed[np.index()]
                        || unexamined[np.index()] == 0
                        || pprio != tl_est[np.index()] + bl[np.index()]
                    {
                        partially_free.pop();
                        continue;
                    }
                    if pprio > prio {
                        // np dominates: compare np's estimate with c's
                        // tail occupied by nf until ms + w(n).
                        let view = Examined {
                            dag,
                            examined: &state.placed,
                            finish: &state.finish,
                            cluster: &state.proc,
                            cluster_ready,
                        };
                        let before = view.np_estimate(np, None);
                        let after = view.np_estimate(np, Some((mc.0, ms + dag.weight(n))));
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
                let c = ProcId(cluster_ready.len() as u32);
                cluster_ready.push(0);
                (own_start, c)
            };

            let fin = s + dag.weight(n);
            state.proc[n.index()] = c;
            state.finish[n.index()] = fin;
            cluster_ready[c.index()] = fin;
            state.placed[n.index()] = true;

            for e in dag.succs(n) {
                let child = e.node.index();
                unexamined[child] -= 1;
                tl_est[child] = tl_est[child].max(fin + e.cost);
                let child_prio = (tl_est[child] + bl[child], Reverse(e.node.0));
                if unexamined[child] == 0 {
                    free.push(child_prio);
                } else {
                    partially_free.push(child_prio);
                }
            }
        }

        let clusters = cluster_ready.len() as u32;
        let pool = clusters.max(num_procs).max(1);
        ws.staging.reset(v, pool);
        for n in dag.nodes() {
            let fin = ws.state.finish[n.index()];
            ws.staging
                .place(n, ws.state.proc[n.index()], fin - dag.weight(n), fin);
        }
        ws.finish(&HomogeneousModel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::{chain, fork_join, paper_figure1};
    use fastsched_schedule::validate;

    use fastsched_workloads::{random_layered_dag, RandomDagConfig, TimingDatabase};
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// DSRW estimates checked against the rescan on this thread.
        static CHECKED: Cell<u64> = const { Cell::new(0) };
    }

    /// The DSRW estimate by rescanning `np`'s examined parents once per
    /// distinct examined parent cluster, O(d·k): the own-cluster
    /// estimate against every cluster's zeroed DAT after its ready time.
    fn np_estimate_rescan(view: &Examined, np: NodeId, patched: Option<(u32, Cost)>) -> Cost {
        let ready_of = |c: u32| match patched {
            Some((pc, pr)) if pc == c => pr,
            _ => view.cluster_ready[c as usize],
        };
        let examined_preds = || {
            view.dag
                .preds(np)
                .iter()
                .filter(|e| view.examined[e.node.index()])
        };
        let remote = examined_preds()
            .map(|e| view.finish[e.node.index()] + e.cost)
            .max()
            .unwrap_or(0);
        let mut best = remote;
        for e in examined_preds() {
            let c = view.cluster[e.node.index()].0;
            let dat = examined_preds()
                .map(|e2| {
                    let f = view.finish[e2.node.index()];
                    if view.cluster[e2.node.index()].0 == c {
                        f
                    } else {
                        f + e2.cost
                    }
                })
                .max()
                .unwrap_or(0);
            best = best.min(dat.max(ready_of(c)));
        }
        best
    }

    /// Every estimate DSC takes in a test build is checked here.
    pub(super) fn check_against_rescan(
        view: &Examined,
        np: NodeId,
        patched: Option<(u32, Cost)>,
        estimate: Cost,
    ) {
        assert_eq!(
            estimate,
            np_estimate_rescan(view, np, patched),
            "DSRW estimate of node {np}, patched {patched:?}"
        );
        CHECKED.with(|n| n.set(n.get() + 1));
    }

    fn checked() -> u64 {
        CHECKED.with(Cell::get)
    }

    #[test]
    fn dsrw_estimate_matches_the_rescan_on_paper_dags() {
        let db = TimingDatabase::paragon();
        let before = checked();
        for (v, seed) in [(100, 1), (300, 2), (600, 3)] {
            let g = random_layered_dag(&RandomDagConfig::paper(v, &db), seed);
            let s = Dsc::new().schedule(&g, v as u32);
            assert_eq!(validate(&g, &s), Ok(()));
        }
        assert!(checked() > before, "no DSRW estimate was taken");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn dsrw_estimate_matches_the_rescan_on_random_layered_dags(
            v in 2usize..160,
            seed in 0u64..u64::MAX,
        ) {
            let db = TimingDatabase::paragon();
            let g = random_layered_dag(&RandomDagConfig::sparse(v, &db), seed);
            let s = Dsc::new().schedule(&g, v as u32);
            prop_assert_eq!(validate(&g, &s), Ok(()));
        }
    }

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
