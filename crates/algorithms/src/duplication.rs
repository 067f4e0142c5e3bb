//! Task-duplication scheduling (DSH family — Kruatrachue & Lewis's
//! Duplication Scheduling Heuristic), an extension from the paper's
//! comparison family \[1\].
//!
//! Duplication attacks communication head-on: when a child must wait
//! for a remote parent's message, *re-executing the parent locally*
//! can be cheaper than waiting. A duplicated task runs on several
//! processors, which does not fit [`fastsched_schedule::Schedule`]'s
//! one-placement-per-node model — this module therefore carries its
//! own [`DupSchedule`] representation and validator.
//!
//! The implementation is a list scheduler (static-level priority) with
//! *greedy ancestor duplication*: before placing a node at its
//! earliest start on a processor, it repeatedly tries to duplicate the
//! arrival-dominating parent into the processor's idle time in front
//! of the node, keeping each duplication only if it strictly lowers
//! the node's start time.

use fastsched_dag::{Cost, Dag, GraphAttributes, NodeId};
use fastsched_schedule::ProcId;

/// One executed task instance (original or duplicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance {
    /// The task.
    pub node: NodeId,
    /// Where this instance runs.
    pub proc: ProcId,
    /// Start time.
    pub start: Cost,
    /// Finish time.
    pub finish: Cost,
}

/// A schedule in which a task may execute on several processors.
#[derive(Debug, Clone, Default)]
pub struct DupSchedule {
    /// Every instance, in placement order.
    pub instances: Vec<Instance>,
}

impl DupSchedule {
    /// Overall execution time.
    pub fn makespan(&self) -> Cost {
        self.instances.iter().map(|i| i.finish).max().unwrap_or(0)
    }

    /// Number of processors hosting at least one instance.
    pub fn processors_used(&self) -> u32 {
        let mut procs: Vec<u32> = self.instances.iter().map(|i| i.proc.0).collect();
        procs.sort_unstable();
        procs.dedup();
        procs.len() as u32
    }

    /// Total duplicated work: instances beyond the first per task.
    pub fn duplicated_instances(&self, dag: &Dag) -> usize {
        self.instances.len() - dag.node_count()
    }

    /// Earliest finish of `node` on `proc`, if any instance runs there.
    pub fn finish_on(&self, node: NodeId, proc: ProcId) -> Option<Cost> {
        self.instances
            .iter()
            .filter(|i| i.node == node && i.proc == proc)
            .map(|i| i.finish)
            .min()
    }

    /// Earliest finish of `node` anywhere.
    pub fn earliest_finish(&self, node: NodeId) -> Option<Cost> {
        self.instances
            .iter()
            .filter(|i| i.node == node)
            .map(|i| i.finish)
            .min()
    }
}

/// Violations detected by [`validate_dup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DupError {
    /// A task has no instance at all.
    Unscheduled(u32),
    /// An instance's duration is not the task's weight.
    BadDuration(u32),
    /// Two instances overlap on one processor (`a`, `b`).
    Overlap(u32, u32),
    /// Instance of `child` starts before every feasible arrival of
    /// `parent`'s data.
    PrecedenceViolation(u32, u32),
}

/// Check a duplication schedule: every task has at least one instance;
/// every instance has the right duration, does not overlap its
/// processor, and every instance of a child starts no earlier than,
/// for each parent, the best over parent instances of
/// (local finish | remote finish + c).
pub fn validate_dup(dag: &Dag, s: &DupSchedule) -> Result<(), DupError> {
    let mut has_instance = vec![false; dag.node_count()];
    for i in &s.instances {
        has_instance[i.node.index()] = true;
        if i.finish != i.start + dag.weight(i.node) {
            return Err(DupError::BadDuration(i.node.0));
        }
    }
    if let Some(missing) = has_instance.iter().position(|&b| !b) {
        return Err(DupError::Unscheduled(missing as u32));
    }

    // Per-processor overlap.
    let mut by_proc: std::collections::HashMap<u32, Vec<&Instance>> = Default::default();
    for i in &s.instances {
        by_proc.entry(i.proc.0).or_default().push(i);
    }
    for lane in by_proc.values_mut() {
        lane.sort_by_key(|i| i.start);
        for w in lane.windows(2) {
            if w[1].start < w[0].finish {
                return Err(DupError::Overlap(w[0].node.0, w[1].node.0));
            }
        }
    }

    // Precedence: each child instance needs every parent's data.
    for child in &s.instances {
        for e in dag.preds(child.node) {
            let best_arrival = s
                .instances
                .iter()
                .filter(|i| i.node == e.node)
                .map(|i| {
                    if i.proc == child.proc {
                        i.finish
                    } else {
                        i.finish + e.cost
                    }
                })
                .min()
                .ok_or(DupError::Unscheduled(e.node.0))?;
            if child.start < best_arrival {
                return Err(DupError::PrecedenceViolation(e.node.0, child.node.0));
            }
        }
    }
    Ok(())
}

/// The duplication scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dsh;

impl Dsh {
    /// New DSH-style duplication scheduler.
    pub fn new() -> Self {
        Self
    }

    /// Schedule `dag` on `num_procs` processors, duplicating ancestors
    /// where that strictly reduces start times.
    pub fn schedule(&self, dag: &Dag, num_procs: u32) -> DupSchedule {
        assert!(num_procs >= 1);
        let v = dag.node_count();
        let sl = GraphAttributes::compute(dag).static_level;

        // Priority list: descending static level (topological).
        let mut order: Vec<NodeId> = dag.nodes().collect();
        order.sort_by_key(|&n| (std::cmp::Reverse(sl[n.index()]), n.0));

        // earliest finish of node n on proc p, if present.
        let mut finish_on: Vec<std::collections::HashMap<u32, Cost>> = vec![Default::default(); v];
        let mut ready = vec![0 as Cost; num_procs as usize];
        let mut schedule = DupSchedule::default();

        // Plan placing `n` on `p`: greedily duplicate the parent whose
        // remote message dominates the start, as long as each replay
        // strictly lowers the start. Returns the achieved start and
        // the duplicate instances the plan needs.
        let plan_for_proc = |finish_on: &Vec<std::collections::HashMap<u32, Cost>>,
                             ready_p: Cost,
                             n: NodeId,
                             p: ProcId|
         -> (Cost, Vec<Instance>) {
            // Local overrides: parent → finish time of its duplicate.
            let mut local: std::collections::HashMap<u32, Cost> = Default::default();
            let mut dups: Vec<Instance> = Vec::new();
            let mut lane_ready = ready_p;
            let arrival_of =
                |local: &std::collections::HashMap<u32, Cost>, parent: NodeId, cost: Cost| {
                    let mut best = finish_on[parent.index()]
                        .iter()
                        .map(|(&q, &f)| if q == p.0 { f } else { f + cost })
                        .min()
                        .expect("parents scheduled before children");
                    if let Some(&f) = local.get(&parent.0) {
                        best = best.min(f);
                    }
                    best
                };
            // Accept non-worsening duplicates (replaying one of several
            // tied remote parents keeps the start flat until the last
            // one lands), then return the shortest duplicate prefix
            // that achieves the best start seen.
            let mut best_start;
            let mut best_len = 0usize;
            {
                let mut dat = 0;
                for e in dag.preds(n) {
                    dat = dat.max(arrival_of(&local, e.node, e.cost));
                }
                best_start = dat.max(lane_ready);
            }
            loop {
                let mut dat = 0;
                for e in dag.preds(n) {
                    dat = dat.max(arrival_of(&local, e.node, e.cost));
                }
                let start = dat.max(lane_ready);
                if start < best_start {
                    best_start = start;
                    best_len = dups.len();
                }
                // A parent whose remote arrival pins the DAT.
                let dominating = dag.preds(n).iter().find(|e| {
                    arrival_of(&local, e.node, e.cost) == dat
                        && !finish_on[e.node.index()].contains_key(&p.0)
                        && !local.contains_key(&e.node.0)
                        && dat > 0
                });
                let Some(edge) = dominating else { break };
                let parent = edge.node;
                // The duplicate itself reads its own parents remotely.
                let mut pdat = 0;
                for pe in dag.preds(parent) {
                    pdat = pdat.max(arrival_of(&local, pe.node, pe.cost));
                }
                let dup_start = pdat.max(lane_ready);
                let dup_finish = dup_start + dag.weight(parent);
                // Child start if we accept this duplicate.
                let mut new_dat = 0;
                for e in dag.preds(n) {
                    let a = if e.node == parent {
                        arrival_of(&local, e.node, e.cost).min(dup_finish)
                    } else {
                        arrival_of(&local, e.node, e.cost)
                    };
                    new_dat = new_dat.max(a);
                }
                let new_start = new_dat.max(dup_finish);
                if new_start <= start {
                    dups.push(Instance {
                        node: parent,
                        proc: p,
                        start: dup_start,
                        finish: dup_finish,
                    });
                    local.insert(parent.0, dup_finish);
                    lane_ready = dup_finish;
                } else {
                    break;
                }
            }
            // Final state may have improved once more.
            {
                let mut dat = 0;
                for e in dag.preds(n) {
                    dat = dat.max(arrival_of(&local, e.node, e.cost));
                }
                let start = dat.max(lane_ready);
                if start < best_start {
                    best_start = start;
                    best_len = dups.len();
                }
            }
            dups.truncate(best_len);
            (best_start, dups)
        };

        for &n in &order {
            // Pick the processor with the best duplicated start; ties
            // favour fewer duplicates, then the lower index.
            let mut best: Option<(Cost, usize, u32, Vec<Instance>)> = None;
            for pi in 0..num_procs {
                let p = ProcId(pi);
                let (start, dups) = plan_for_proc(&finish_on, ready[p.index()], n, p);
                let key = (start, dups.len(), pi);
                if best
                    .as_ref()
                    .is_none_or(|(bs, bd, bp, _)| key < (*bs, *bd, *bp))
                {
                    best = Some((start, dups.len(), pi, dups));
                }
            }
            let (start, _, pi, dups) = best.expect("at least one processor");
            let p = ProcId(pi);
            for d in dups {
                finish_on[d.node.index()]
                    .entry(p.0)
                    .and_modify(|f| *f = (*f).min(d.finish))
                    .or_insert(d.finish);
                ready[p.index()] = d.finish;
                schedule.instances.push(d);
            }
            let fin = start + dag.weight(n);
            schedule.instances.push(Instance {
                node: n,
                proc: p,
                start,
                finish: fin,
            });
            finish_on[n.index()]
                .entry(p.0)
                .and_modify(|f| *f = (*f).min(fin))
                .or_insert(fin);
            ready[p.index()] = fin;
        }
        // Duplication has its own legality rules (multiple instances
        // per node), so the gate runs the dedicated validator rather
        // than the cost-model one.
        if let Err(e) = validate_dup(dag, &schedule) {
            panic!("DSH returned an illegal duplication schedule: {e:?}");
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_dag::examples::{fork_join, paper_figure1};
    use fastsched_dag::DagBuilder;

    #[test]
    fn valid_on_paper_example() {
        let g = paper_figure1();
        let s = Dsh::new().schedule(&g, 4);
        validate_dup(&g, &s).unwrap();
        assert!(s.makespan() > 0);
    }

    #[test]
    fn duplication_beats_waiting_on_an_expensive_message() {
        // root(2) → two children (3 each) with message cost 50: with
        // two processors and no duplication the second child waits 52;
        // duplicating the tiny root lets it start at 2.
        let mut b = DagBuilder::new();
        let root = b.add_task(2);
        let c1 = b.add_task(3);
        let c2 = b.add_task(3);
        b.add_edge(root, c1, 50).unwrap();
        b.add_edge(root, c2, 50).unwrap();
        let g = b.build().unwrap();
        let s = Dsh::new().schedule(&g, 2);
        validate_dup(&g, &s).unwrap();
        assert!(
            s.makespan() <= 8,
            "duplication should cap the makespan at 2+3 (+slack), got {}",
            s.makespan()
        );
        assert!(
            s.duplicated_instances(&g) >= 1,
            "the root must be duplicated"
        );
    }

    #[test]
    fn cheap_communication_bounds_duplication_benefit() {
        // With messages of cost 1, duplicating the fork still saves
        // that one unit per remote worker — DSH takes any strict win —
        // but the resulting makespan must beat serializing everything.
        let g = fork_join(3, 10, 1);
        let s = Dsh::new().schedule(&g, 3);
        validate_dup(&g, &s).unwrap();
        assert!(s.makespan() < g.total_computation());
        // Never more duplicates than remote workers.
        assert!(s.duplicated_instances(&g) <= 2);
    }

    #[test]
    fn single_processor_never_duplicates() {
        let g = paper_figure1();
        let s = Dsh::new().schedule(&g, 1);
        validate_dup(&g, &s).unwrap();
        assert_eq!(s.duplicated_instances(&g), 0);
        assert_eq!(s.makespan(), g.total_computation());
    }

    #[test]
    fn validator_catches_missing_instances() {
        let g = paper_figure1();
        let s = DupSchedule::default();
        assert_eq!(validate_dup(&g, &s), Err(DupError::Unscheduled(0)));
    }

    #[test]
    fn validator_catches_overlap() {
        let mut b = DagBuilder::new();
        b.add_task(5);
        b.add_task(5);
        let g = b.build().unwrap();
        let s = DupSchedule {
            instances: vec![
                Instance {
                    node: NodeId(0),
                    proc: ProcId(0),
                    start: 0,
                    finish: 5,
                },
                Instance {
                    node: NodeId(1),
                    proc: ProcId(0),
                    start: 3,
                    finish: 8,
                },
            ],
        };
        assert_eq!(validate_dup(&g, &s), Err(DupError::Overlap(0, 1)));
    }

    #[test]
    fn dsh_never_loses_to_hlfet_badly_on_comm_heavy_graphs() {
        // Duplication's raison d'être: comm-heavy fork patterns.
        let g = fork_join(4, 3, 40);
        let dup = Dsh::new().schedule(&g, 4);
        validate_dup(&g, &dup).unwrap();
        use crate::scheduler::Scheduler as _;
        let plain = crate::hlfet::Hlfet::new().schedule(&g, 4).makespan();
        assert!(
            dup.makespan() <= plain,
            "DSH {} vs HLFET {plain}",
            dup.makespan()
        );
    }
}
