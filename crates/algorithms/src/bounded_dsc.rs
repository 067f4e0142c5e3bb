//! Bounded DSC — DSC followed by a cluster-to-processor mapping phase,
//! addressing the failure mode the paper's Figure 5(a) reports as
//! "N.A." ("the DSC used more than the available Paragon processors").
//!
//! Yang & Gerasoulis's own tool (PYRROS) follows clustering with a
//! *work-based load-balancing* merge onto the physical machine; this
//! implementation reproduces that two-phase structure: run DSC
//! unbounded, then fold its clusters onto `num_procs` processors by
//! descending cluster work (largest-first onto the least-loaded
//! processor), and re-derive all start times with the fixed-order
//! evaluator.

use crate::dsc::Dsc;
use crate::scheduler::HomogeneousOnly;
use crate::workspace::Workspace;
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::ProcId;

/// DSC with a load-balancing cluster→processor mapping phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundedDsc;

impl BoundedDsc {
    /// New bounded-DSC scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl HomogeneousOnly for BoundedDsc {
    const NAME: &'static str = "DSC-LLB";

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32, ws: &mut Workspace) {
        // Phase 1: unbounded clustering, read compacted: the LPT
        // tie-breaks below follow the compacted cluster numbers. When
        // the clusters fit, the staged clustering is the result.
        Dsc::new().schedule_homogeneous(dag, num_procs, ws);
        let mut clustered = ws.take_schedule();
        ws.staging.compact_into(&mut ws.compact, &mut clustered);
        let clusters_used = clustered.processors_used();
        if clusters_used <= num_procs {
            ws.recycle(clustered);
            return;
        }

        // Phase 2: largest-work cluster onto the least-loaded
        // processor (classic LPT list mapping).
        let mut cluster_work: Vec<(Cost, u32)> = vec![(0, 0); clusters_used as usize];
        for t in clustered.tasks() {
            cluster_work[t.proc.index()].0 += t.finish - t.start;
            cluster_work[t.proc.index()].1 = t.proc.0;
        }
        cluster_work.sort_by_key(|&(w, c)| (std::cmp::Reverse(w), c));
        let mut proc_load = vec![0 as Cost; num_procs as usize];
        let mut cluster_to_proc = vec![ProcId(0); clusters_used as usize];
        for (w, c) in cluster_work {
            let target = (0..num_procs)
                .min_by_key(|&p| (proc_load[p as usize], p))
                .expect("at least one processor");
            cluster_to_proc[c as usize] = ProcId(target);
            proc_load[target as usize] += w;
        }

        // Re-derive start times: keep DSC's per-cluster order by
        // sequencing nodes by their clustered start times.
        let mut order: Vec<NodeId> = dag.nodes().collect();
        order.sort_by_key(|&n| (clustered.start_of(n).unwrap(), n.0));
        let assignment: Vec<ProcId> = dag
            .nodes()
            .map(|n| cluster_to_proc[clustered.proc_of(n).unwrap().index()])
            .collect();
        ws.replay_into_staging(dag, &order, &assignment, num_procs);
        ws.recycle(clustered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::paper_figure1;
    use fastsched_schedule::validate;
    use fastsched_workloads::{gaussian_elimination_dag, TimingDatabase};

    #[test]
    fn respects_the_processor_bound_where_dsc_cannot() {
        let db = TimingDatabase::paragon();
        let g = gaussian_elimination_dag(16, &db);
        let unbounded = Dsc::new().schedule(&g, g.node_count() as u32);
        assert!(
            unbounded.processors_used() > 16,
            "premise: DSC exceeds 16 processors here"
        );
        let bounded = BoundedDsc::new().schedule(&g, 16);
        assert_eq!(validate(&g, &bounded), Ok(()));
        assert!(bounded.processors_used() <= 16);
    }

    #[test]
    fn passes_through_when_clusters_fit() {
        let g = paper_figure1();
        let a = Dsc::new().schedule(&g, 9).makespan();
        let b = BoundedDsc::new().schedule(&g, 9).makespan();
        assert_eq!(a, b);
    }

    #[test]
    fn folding_costs_at_most_the_serial_bound() {
        let db = TimingDatabase::paragon();
        let g = gaussian_elimination_dag(8, &db);
        let s = BoundedDsc::new().schedule(&g, 4);
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.processors_used() <= 4);
        assert!(s.makespan() <= g.total_computation() + g.total_communication());
    }

    #[test]
    fn single_processor_collapses_everything() {
        let db = TimingDatabase::paragon();
        let g = gaussian_elimination_dag(4, &db);
        let s = BoundedDsc::new().schedule(&g, 1);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.processors_used(), 1);
        assert_eq!(s.makespan(), g.total_computation());
    }
}
