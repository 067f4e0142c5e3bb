//! Post-hoc schedule analysis: what actually determines the makespan?
//!
//! [`bottleneck_chain`] walks backwards from the last-finishing task,
//! at each step attributing the wait to either the preceding task on
//! the same processor (a *processor* dependence) or the
//! latest-arriving message (a *data* dependence). The result is the
//! schedule's own critical chain — the thing a refinement step (like
//! FAST's blocking-node transfers) must break to improve the schedule.
//! [`idle_profile`] reports how each processor's time splits between
//! busy and idle.
//!
//! The forensics layer builds on the chain:
//!
//! * [`critical_path`] turns it into a gap-free sequence of
//!   compute/message/idle *segments* covering `[0, makespan]`, so the
//!   makespan is exactly attributed to work, wire time and waiting;
//! * [`slack_profile`] runs the backward (ALAP-style) pass over the
//!   schedule's own constraint graph — DAG edges plus same-processor
//!   ordering — giving each node the amount its finish could slip
//!   without stretching the makespan (critical nodes are exactly the
//!   zero-slack ones).
//!
//! The chain and the slacks price every message the way the
//! [`Machine`] the schedule was built for does (the model
//! [`Machine::validate`] checks it against), so a schedule built under
//! α–β or a hierarchy is explained by its own wire times, not the bare
//! edge weights.

use crate::cost::{CostModel, HomogeneousModel};
use crate::machine::Machine;
use crate::schedule::{ProcId, Schedule};
use fastsched_dag::{Cost, Dag, NodeId};

/// `machine`'s pricing, as [`Machine::validate_into`] dispatches it.
fn pricing(machine: &Machine) -> &dyn CostModel {
    match machine {
        Machine::Homogeneous => &HomogeneousModel,
        Machine::Comm(m) => m,
        Machine::Speeds(m) => m,
    }
}

/// Why a task on the bottleneck chain could not start earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// First task of the chain: started at time zero (or was an entry
    /// task whose start equals its data arrival).
    ChainHead,
    /// Waited for the previous task on the same processor to finish.
    Processor(NodeId),
    /// Waited for a message (or local result) from this parent.
    Data(NodeId),
}

/// One link of the bottleneck chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// The task.
    pub node: NodeId,
    /// What it waited for.
    pub reason: WaitReason,
}

/// Extract the bottleneck chain of a complete schedule, valid on
/// `machine`, from chain head to the last-finishing task.
pub fn bottleneck_chain(dag: &Dag, schedule: &Schedule, machine: &Machine) -> Vec<ChainLink> {
    debug_assert!(schedule.is_complete());
    let model = pricing(machine);
    // Previous task on the same processor, by start time.
    let mut prev_on_proc: Vec<Option<NodeId>> = vec![None; dag.node_count()];
    for lane in schedule.timelines() {
        for w in lane.windows(2) {
            prev_on_proc[w[1].node.index()] = Some(w[0].node);
        }
    }

    let last = schedule
        .tasks()
        .max_by_key(|t| (t.finish, t.node.0))
        .expect("complete schedule")
        .node;

    let mut chain = Vec::new();
    let mut cur = last;
    loop {
        let task = schedule.task(cur).expect("complete");
        // Processor dependence: the previous lane task finished exactly
        // when this one started.
        if let Some(prev) = prev_on_proc[cur.index()] {
            if schedule.finish_of(prev) == Some(task.start) {
                chain.push(ChainLink {
                    node: cur,
                    reason: WaitReason::Processor(prev),
                });
                cur = prev;
                continue;
            }
        }
        // Data dependence: a parent whose arrival equals the start.
        let binding_parent = dag.preds(cur).iter().find(|e| {
            let pt = schedule.task(e.node).expect("complete");
            pt.finish + model.message_cost(e.cost, pt.proc, task.proc) == task.start
        });
        match binding_parent {
            Some(e) => {
                chain.push(ChainLink {
                    node: cur,
                    reason: WaitReason::Data(e.node),
                });
                cur = e.node;
            }
            None => {
                chain.push(ChainLink {
                    node: cur,
                    reason: WaitReason::ChainHead,
                });
                break;
            }
        }
    }
    chain.reverse();
    chain
}

/// One segment of the attributed critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSegment {
    /// A task executing on its processor.
    Compute {
        /// The task.
        node: NodeId,
        /// Where it ran.
        proc: ProcId,
        /// Start time.
        start: Cost,
        /// Finish time.
        finish: Cost,
    },
    /// A message in flight between two tasks on different processors.
    Message {
        /// Producing task.
        from: NodeId,
        /// Consuming task.
        to: NodeId,
        /// Sender processor.
        from_proc: ProcId,
        /// Receiver processor.
        to_proc: ProcId,
        /// When the message left (the producer's finish time).
        depart: Cost,
        /// When it arrived (the consumer's start time — on the chain
        /// the arrival is binding).
        arrive: Cost,
    },
    /// Time on the chain covered by neither compute nor a message
    /// (e.g. a chain head that starts after time zero).
    Idle {
        /// The processor that sat waiting.
        proc: ProcId,
        /// Wait start.
        start: Cost,
        /// Wait end.
        finish: Cost,
    },
}

impl PathSegment {
    /// The segment's extent in time.
    pub fn duration(&self) -> Cost {
        match *self {
            PathSegment::Compute { start, finish, .. }
            | PathSegment::Idle { start, finish, .. } => finish - start,
            PathSegment::Message { depart, arrive, .. } => arrive - depart,
        }
    }
}

/// The makespan-bounding chain of a schedule, attributed segment by
/// segment (see [`critical_path`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Contiguous segments from time 0 to the makespan.
    pub segments: Vec<PathSegment>,
    /// Total time the chain spent computing.
    pub compute: Cost,
    /// Total time the chain spent on the wire.
    pub comm: Cost,
    /// Total unattributed wait time on the chain.
    pub idle: Cost,
    /// The schedule's makespan (`compute + comm + idle`).
    pub makespan: Cost,
}

impl CriticalPath {
    /// The chain's tasks, in execution order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.segments
            .iter()
            .filter_map(|s| match s {
                PathSegment::Compute { node, .. } => Some(*node),
                _ => None,
            })
            .collect()
    }
}

/// Attribute the makespan of a complete schedule, valid on `machine`:
/// expand the [`bottleneck_chain`] into a gap-free segment sequence
/// covering `[0, makespan]`, so `compute + comm + idle == makespan`
/// exactly.
pub fn critical_path(dag: &Dag, schedule: &Schedule, machine: &Machine) -> CriticalPath {
    let chain = bottleneck_chain(dag, schedule, machine);
    let mut segments = Vec::with_capacity(chain.len() * 2);
    let mut compute = 0;
    let mut comm = 0;
    let mut idle = 0;
    for link in &chain {
        let task = schedule.task(link.node).expect("complete schedule");
        match link.reason {
            WaitReason::ChainHead => {
                if task.start > 0 {
                    idle += task.start;
                    segments.push(PathSegment::Idle {
                        proc: task.proc,
                        start: 0,
                        finish: task.start,
                    });
                }
            }
            WaitReason::Processor(_) => {} // contiguous on the same lane
            WaitReason::Data(parent) => {
                let pt = schedule.task(parent).expect("complete schedule");
                if pt.proc != task.proc {
                    comm += task.start - pt.finish;
                    segments.push(PathSegment::Message {
                        from: parent,
                        to: link.node,
                        from_proc: pt.proc,
                        to_proc: task.proc,
                        depart: pt.finish,
                        arrive: task.start,
                    });
                }
            }
        }
        compute += task.finish - task.start;
        segments.push(PathSegment::Compute {
            node: link.node,
            proc: task.proc,
            start: task.start,
            finish: task.finish,
        });
    }
    CriticalPath {
        segments,
        compute,
        comm,
        idle,
        makespan: schedule.makespan(),
    }
}

/// Per-node slack: how far each node's finish could slip without
/// stretching the makespan, under the schedule's own constraint graph
/// (DAG data edges, priced by `machine` between the processors they
/// were placed on, plus the same-processor task order). Indexed by
/// node id; chain nodes of [`critical_path`] have slack 0.
pub fn slack_profile(dag: &Dag, schedule: &Schedule, machine: &Machine) -> Vec<Cost> {
    debug_assert!(schedule.is_complete());
    let model = pricing(machine);
    let makespan = schedule.makespan();
    let v = dag.node_count();
    let mut latest_finish = vec![makespan; v];

    // Next task on the same processor, by lane order.
    let mut next_on_proc: Vec<Option<NodeId>> = vec![None; v];
    for lane in schedule.timelines() {
        for w in lane.windows(2) {
            next_on_proc[w[0].node.index()] = Some(w[1].node);
        }
    }

    // Process in reverse (start, topo) order: every constraint points
    // from an earlier-starting task to a later-starting one (ties
    // broken by topological position), so each node's bounds are final
    // when visited.
    let mut topo_pos = vec![0usize; v];
    for (i, &n) in dag.topo_order().iter().enumerate() {
        topo_pos[n.index()] = i;
    }
    let mut order: Vec<NodeId> = dag.nodes().collect();
    order.sort_by_key(|n| {
        (
            schedule.start_of(*n).expect("complete schedule"),
            topo_pos[n.index()],
        )
    });

    for &n in order.iter().rev() {
        let t = schedule.task(n).expect("complete schedule");
        let mut lf = makespan;
        if let Some(m) = next_on_proc[n.index()] {
            let mt = schedule.task(m).expect("complete schedule");
            let m_latest_start = latest_finish[m.index()] - (mt.finish - mt.start);
            lf = lf.min(m_latest_start);
        }
        for e in dag.succs(n) {
            let ct = schedule.task(e.node).expect("complete schedule");
            let c_latest_start = latest_finish[e.node.index()] - (ct.finish - ct.start);
            let msg = model.message_cost(e.cost, t.proc, ct.proc);
            lf = lf.min(c_latest_start.saturating_sub(msg));
        }
        latest_finish[n.index()] = lf;
    }

    dag.nodes()
        .map(|n| latest_finish[n.index()].saturating_sub(schedule.finish_of(n).expect("complete")))
        .collect()
}

/// Per-processor busy/idle breakdown over `[0, makespan]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcProfile {
    /// Processor id.
    pub proc: ProcId,
    /// Total busy time.
    pub busy: Cost,
    /// Idle time before the first task.
    pub lead_idle: Cost,
    /// Idle time between tasks.
    pub gap_idle: Cost,
    /// Idle time after the last task until the makespan.
    pub tail_idle: Cost,
}

/// Compute the idle/busy profile of every *used* processor.
pub fn idle_profile(schedule: &Schedule) -> Vec<ProcProfile> {
    let makespan = schedule.makespan();
    schedule
        .timelines()
        .into_iter()
        .enumerate()
        .filter(|(_, lane)| !lane.is_empty())
        .map(|(p, lane)| {
            let busy: Cost = lane.iter().map(|t| t.finish - t.start).sum();
            let lead_idle = lane[0].start;
            let gap_idle: Cost = lane.windows(2).map(|w| w[1].start - w[0].finish).sum();
            let tail_idle = makespan - lane.last().unwrap().finish;
            ProcProfile {
                proc: ProcId(p as u32),
                busy,
                lead_idle,
                gap_idle,
                tail_idle,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AlphaBeta, CommModel};
    use crate::evaluate::{evaluate_fixed_order, evaluate_fixed_order_with};
    use fastsched_dag::examples::paper_figure1;
    use fastsched_dag::DagBuilder;

    fn two_proc_schedule() -> (fastsched_dag::Dag, Schedule) {
        // a(3) →5→ b(2); c(4) independent on the other processor.
        let mut bld = DagBuilder::new();
        let a = bld.add_task(3);
        let b = bld.add_task(2);
        let _c = bld.add_task(4);
        bld.add_edge(a, b, 5).unwrap();
        let g = bld.build().unwrap();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment = vec![ProcId(0), ProcId(1), ProcId(1)];
        let s = evaluate_fixed_order(&g, &order, &assignment, 2);
        (g, s)
    }

    #[test]
    fn chain_attributes_data_and_processor_waits() {
        let (g, s) = two_proc_schedule();
        // a: P0 0–3. b: P1, waits for a's message (3 + 5 = 8), 8–10.
        // c: P1 after b, 10–14 — the last task.
        let chain = bottleneck_chain(&g, &s, &Machine::Homogeneous);
        assert_eq!(
            chain,
            vec![
                ChainLink {
                    node: NodeId(0),
                    reason: WaitReason::ChainHead
                },
                ChainLink {
                    node: NodeId(1),
                    reason: WaitReason::Data(NodeId(0))
                },
                ChainLink {
                    node: NodeId(2),
                    reason: WaitReason::Processor(NodeId(1))
                },
            ]
        );
    }

    #[test]
    fn chain_follows_processor_dependences() {
        // Two independent tasks serialized on one processor.
        let mut bld = DagBuilder::new();
        bld.add_task(5);
        bld.add_task(7);
        let g = bld.build().unwrap();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let s = evaluate_fixed_order(&g, &order, &[ProcId(0); 2], 1);
        let chain = bottleneck_chain(&g, &s, &Machine::Homogeneous);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[1].reason, WaitReason::Processor(NodeId(0)));
    }

    #[test]
    fn chain_spans_start_to_makespan_on_the_example() {
        let g = paper_figure1();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let s = evaluate_fixed_order(&g, &order, &[ProcId(0); 9], 1);
        let chain = bottleneck_chain(&g, &s, &Machine::Homogeneous);
        // Serial schedule: the chain covers every task.
        assert_eq!(chain.len(), 9);
        assert_eq!(s.finish_of(chain.last().unwrap().node), Some(s.makespan()));
    }

    #[test]
    fn idle_profile_accounts_for_every_microsecond() {
        let (_, s) = two_proc_schedule();
        for p in idle_profile(&s) {
            assert_eq!(
                p.busy + p.lead_idle + p.gap_idle + p.tail_idle,
                s.makespan(),
                "profile of {:?} must cover the makespan",
                p.proc
            );
        }
    }

    #[test]
    fn idle_profile_skips_unused_processors() {
        let (_, s) = two_proc_schedule();
        assert_eq!(idle_profile(&s).len(), 2);
    }

    #[test]
    fn critical_path_attributes_the_whole_makespan() {
        let (g, s) = two_proc_schedule();
        // a: P0 0–3; message a→b arrives 8; b: P1 8–10; c: P1 10–14.
        let cp = critical_path(&g, &s, &Machine::Homogeneous);
        assert_eq!(cp.makespan, s.makespan());
        assert_eq!(cp.compute + cp.comm + cp.idle, cp.makespan);
        assert_eq!(cp.compute, 3 + 2 + 4);
        assert_eq!(cp.comm, 5);
        assert_eq!(cp.idle, 0);
        assert_eq!(cp.nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(matches!(
            cp.segments[1],
            PathSegment::Message {
                from: NodeId(0),
                to: NodeId(1),
                depart: 3,
                arrive: 8,
                ..
            }
        ));
    }

    #[test]
    fn critical_path_segments_are_contiguous() {
        let g = paper_figure1();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let s = evaluate_fixed_order(&g, &order, &[ProcId(0); 9], 1);
        let cp = critical_path(&g, &s, &Machine::Homogeneous);
        let mut clock = 0;
        for seg in &cp.segments {
            let (lo, hi) = match *seg {
                PathSegment::Compute { start, finish, .. }
                | PathSegment::Idle { start, finish, .. } => (start, finish),
                PathSegment::Message { depart, arrive, .. } => (depart, arrive),
            };
            assert_eq!(lo, clock, "segment must start where the last ended");
            clock = hi;
        }
        assert_eq!(clock, cp.makespan);
    }

    #[test]
    fn slack_is_zero_exactly_on_the_critical_path() {
        let (g, s) = two_proc_schedule();
        let slacks = slack_profile(&g, &s, &Machine::Homogeneous);
        // All three tasks lie on the chain here.
        assert_eq!(slacks, vec![0, 0, 0]);

        // Give c room: stretch the makespan with a long independent
        // task on a third processor.
        let mut bld = fastsched_dag::DagBuilder::new();
        let a = bld.add_task(3);
        let b = bld.add_task(2);
        let _c = bld.add_task(4);
        let _d = bld.add_task(40);
        bld.add_edge(a, b, 5).unwrap();
        let g = bld.build().unwrap();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment = vec![ProcId(0), ProcId(1), ProcId(1), ProcId(2)];
        let s = evaluate_fixed_order(&g, &order, &assignment, 3);
        let slacks = slack_profile(&g, &s, &Machine::Homogeneous);
        // d (0–40) bounds the makespan; the a→b→c chain finishes at 14
        // and can slip 26.
        assert_eq!(slacks[3], 0);
        assert_eq!(slacks[2], 26);
        assert_eq!(slacks[1], 26);
        assert_eq!(slacks[0], 26);
    }

    #[test]
    fn slack_respects_processor_ordering_not_just_data_edges() {
        // Two independent tasks serialized on one processor: the first
        // can only slip as much as the second's own slack allows.
        let mut bld = fastsched_dag::DagBuilder::new();
        bld.add_task(5);
        bld.add_task(7);
        let g = bld.build().unwrap();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let s = evaluate_fixed_order(&g, &order, &[ProcId(0); 2], 1);
        assert_eq!(slack_profile(&g, &s, &Machine::Homogeneous), vec![0, 0]);
    }

    #[test]
    fn messages_are_priced_by_the_machine() {
        // The two-processor DAG under α–β(25, 3, 2): a's message to b
        // costs 25 + ⌈5·3/2⌉ = 33, so b starts at 3 + 33 = 36 and c
        // runs 38–42. Priced at the bare edge weight, b would have no
        // binding parent and the chain would idle 36 units instead.
        let (g, _) = two_proc_schedule();
        let ab = AlphaBeta::new(25, 3, 2);
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment = [ProcId(0), ProcId(1), ProcId(1)];
        let s = evaluate_fixed_order_with(&ab, &g, &order, &assignment, 2);
        let machine = Machine::from(CommModel::AlphaBeta(ab));
        assert_eq!(s.start_of(NodeId(1)), Some(36));
        let cp = critical_path(&g, &s, &machine);
        assert_eq!((cp.compute, cp.comm, cp.idle), (9, 33, 0));
        assert_eq!(slack_profile(&g, &s, &machine), vec![0, 0, 0]);
        let plain = critical_path(&g, &s, &Machine::Homogeneous);
        assert_eq!((plain.comm, plain.idle), (0, 36));
    }
}
