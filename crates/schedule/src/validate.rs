//! Schedule validation: the ground truth every algorithm's output must
//! satisfy — generalized over the [`CostModel`] the scheduler used.
//!
//! [`validate`] checks the paper's homogeneous machine;
//! [`validate_with`] takes any [`CostModel`], so heterogeneous-speed
//! and topology-priced schedules are checked under the *same* rules
//! the scheduler priced placements with. Both are [`validate_into`]
//! with fresh scratch; the scheduler entry point keeps a
//! [`ValidateScratch`] warm, so its gate allocates nothing. All time
//! arithmetic is checked: adversarial `u64` weights (e.g. from the
//! fuzz corpus) produce a structured [`ScheduleError::TimeOverflow`]
//! instead of silently wrapping.

use crate::cost::{CostModel, HomogeneousModel};
use crate::schedule::{ProcId, Schedule};
use fastsched_dag::{json, Cost, Dag};
use std::fmt;

/// Violations detected by [`validate_with`], with enough structure to
/// say *which* rule broke and by how much.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A node was never placed.
    Unscheduled(u32),
    /// A node's occupancy does not match its execution time under the
    /// cost model: `finish != start + compute_cost(node, proc)`.
    BadDuration {
        /// The offending node.
        node: u32,
        /// Execution time the cost model demands on the node's processor.
        expected: Cost,
        /// Observed `finish - start` (saturating at 0 if `finish < start`).
        actual: Cost,
    },
    /// A child starts before its parent's message can arrive under the
    /// cost model's message pricing.
    PrecedenceViolation {
        /// Message producer.
        parent: u32,
        /// Message consumer.
        child: u32,
        /// `finish(parent) + message_cost(edge)`.
        earliest_legal: Cost,
        /// The child's actual start time.
        actual: Cost,
    },
    /// Two tasks overlap in time on the same processor.
    Overlap {
        /// Processor both tasks occupy.
        proc: u32,
        /// The earlier-starting task.
        first: u32,
        /// The task that starts before `first` finishes.
        second: u32,
    },
    /// The schedule was built for a different node count than the DAG.
    WrongSize {
        /// Node count of the DAG being validated against.
        expected: usize,
        /// Node count the schedule was built for.
        actual: usize,
    },
    /// A task claims a processor outside the schedule's machine.
    ProcOutOfRange {
        /// The offending node.
        node: u32,
        /// The claimed processor.
        proc: u32,
        /// Processors the schedule was built for.
        num_procs: u32,
    },
    /// A time sum (`start + duration` or `finish + message delay`)
    /// exceeded the `u64` range — the schedule's times are garbage, not
    /// merely illegal.
    TimeOverflow {
        /// The node whose timing arithmetic overflowed.
        node: u32,
    },
    /// The memory footprints of the tasks assigned to one processor
    /// exceed its capacity under the cost model.
    CapacityExceeded {
        /// The over-committed processor.
        proc: u32,
        /// Its configured memory capacity.
        capacity: Cost,
        /// Total footprint of the tasks assigned to it (saturating).
        used: Cost,
    },
    /// A schedule file is not valid JSON of the expected shape.
    Malformed(json::Error),
    /// A schedule file places the same node twice.
    DuplicateTask {
        /// The node with more than one entry.
        node: u32,
    },
}

/// The class of a [`ScheduleError`], with the witness data stripped —
/// what schedule-mutation tests match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleErrorKind {
    /// [`ScheduleError::Unscheduled`].
    Unscheduled,
    /// [`ScheduleError::BadDuration`].
    BadDuration,
    /// [`ScheduleError::PrecedenceViolation`].
    PrecedenceViolation,
    /// [`ScheduleError::Overlap`].
    Overlap,
    /// [`ScheduleError::WrongSize`].
    WrongSize,
    /// [`ScheduleError::ProcOutOfRange`].
    ProcOutOfRange,
    /// [`ScheduleError::TimeOverflow`].
    TimeOverflow,
    /// [`ScheduleError::CapacityExceeded`].
    CapacityExceeded,
    /// [`ScheduleError::Malformed`].
    Malformed,
    /// [`ScheduleError::DuplicateTask`].
    DuplicateTask,
}

impl ScheduleError {
    /// The violation class, without the witness payload.
    pub fn kind(&self) -> ScheduleErrorKind {
        match self {
            ScheduleError::Unscheduled(_) => ScheduleErrorKind::Unscheduled,
            ScheduleError::BadDuration { .. } => ScheduleErrorKind::BadDuration,
            ScheduleError::PrecedenceViolation { .. } => ScheduleErrorKind::PrecedenceViolation,
            ScheduleError::Overlap { .. } => ScheduleErrorKind::Overlap,
            ScheduleError::WrongSize { .. } => ScheduleErrorKind::WrongSize,
            ScheduleError::ProcOutOfRange { .. } => ScheduleErrorKind::ProcOutOfRange,
            ScheduleError::TimeOverflow { .. } => ScheduleErrorKind::TimeOverflow,
            ScheduleError::CapacityExceeded { .. } => ScheduleErrorKind::CapacityExceeded,
            ScheduleError::Malformed(_) => ScheduleErrorKind::Malformed,
            ScheduleError::DuplicateTask { .. } => ScheduleErrorKind::DuplicateTask,
        }
    }
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Unscheduled(n) => write!(f, "node n{n} was never scheduled"),
            ScheduleError::BadDuration {
                node,
                expected,
                actual,
            } => write!(
                f,
                "node n{node}: occupies {actual} time units, cost model demands {expected}"
            ),
            ScheduleError::PrecedenceViolation {
                parent,
                child,
                earliest_legal,
                actual,
            } => write!(
                f,
                "edge n{parent} -> n{child}: child starts at {actual}, \
                 earliest legal start is {earliest_legal}"
            ),
            ScheduleError::Overlap {
                proc,
                first,
                second,
            } => write!(f, "nodes n{first} and n{second} overlap on PE{proc}"),
            ScheduleError::WrongSize { expected, actual } => {
                write!(f, "schedule sized for {actual} nodes, DAG has {expected}")
            }
            ScheduleError::ProcOutOfRange {
                node,
                proc,
                num_procs,
            } => write!(
                f,
                "node n{node} claims PE{proc}, schedule has {num_procs} processors"
            ),
            ScheduleError::TimeOverflow { node } => {
                write!(f, "node n{node}: time arithmetic overflows u64")
            }
            ScheduleError::CapacityExceeded {
                proc,
                capacity,
                used,
            } => write!(
                f,
                "PE{proc}: resident memory {used} exceeds capacity {capacity}"
            ),
            ScheduleError::Malformed(e) => write!(f, "malformed schedule file: {e}"),
            ScheduleError::DuplicateTask { node } => {
                write!(f, "node n{node} is placed more than once")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Check that `schedule` is a complete, legal schedule of `dag` under
/// the paper's homogeneous machine model (identical processors,
/// messages cost their edge weight, co-located communication free).
///
/// Equivalent to [`validate_with`] over [`HomogeneousModel`]. Runs in
/// O(v log v + e).
pub fn validate(dag: &Dag, schedule: &Schedule) -> Result<(), ScheduleError> {
    validate_with(&HomogeneousModel, dag, schedule)
}

/// [`validate_into`] with fresh scratch.
pub fn validate_with<M: CostModel + ?Sized>(
    model: &M,
    dag: &Dag,
    schedule: &Schedule,
) -> Result<(), ScheduleError> {
    validate_into(model, dag, schedule, &mut ValidateScratch::default())
}

/// Reusable buffers for [`validate_into`], cleared and never shrunk:
/// a warm scratch validates without allocating.
#[derive(Debug, Clone, Default)]
pub struct ValidateScratch {
    /// Per-lane task counts, then per-lane offsets into `lanes`.
    offsets: Vec<usize>,
    /// Per-lane footprint sums, kept only under capacities.
    used: Vec<Cost>,
    /// `(start, node, finish)` of every task, grouped by processor;
    /// `(start, node)` is unique, so sorting never compares `finish`.
    lanes: Vec<(Cost, u32, Cost)>,
}

/// Check that `schedule` is a complete, legal schedule of `dag` under
/// `model`, with buffers from `scratch`, and return the first
/// violation of, in order:
///
/// 1. every node placed inside the machine, with
///    `finish == start + model.compute_cost(n, proc)`;
/// 2. each processor's footprint sum within [`CostModel::capacity`];
/// 3. for every edge `(p, c)`, by parent id:
///    `ST(c) >= FT(p) + model.message_cost(c(p,c), proc(p), proc(c))`;
/// 4. no overlap on a processor, each lane ordered by `(start, node)`.
///
/// A time sum past `u64::MAX` is [`ScheduleError::TimeOverflow`], never
/// a wrapped comparison. Runs in O(v log v + e + P).
pub fn validate_into<M: CostModel + ?Sized>(
    model: &M,
    dag: &Dag,
    schedule: &Schedule,
    scratch: &mut ValidateScratch,
) -> Result<(), ScheduleError> {
    if schedule.num_nodes() != dag.node_count() {
        return Err(ScheduleError::WrongSize {
            expected: dag.node_count(),
            actual: schedule.num_nodes(),
        });
    }
    let num_procs = schedule.num_procs();
    let ValidateScratch {
        offsets,
        used,
        lanes,
    } = scratch;
    offsets.clear();
    offsets.resize(num_procs as usize + 1, 0);
    used.clear();
    if model.has_capacities() {
        used.resize(num_procs as usize, 0);
    }

    // 1. Completeness, machine bounds and model-priced durations; the
    // same pass counts each lane's tasks and sums its footprints.
    for n in dag.nodes() {
        let t = schedule.task(n).ok_or(ScheduleError::Unscheduled(n.0))?;
        if t.proc.0 >= num_procs {
            return Err(ScheduleError::ProcOutOfRange {
                node: n.0,
                proc: t.proc.0,
                num_procs,
            });
        }
        let expected = model.compute_cost(dag, n, t.proc);
        let legal_finish = t
            .start
            .checked_add(expected)
            .ok_or(ScheduleError::TimeOverflow { node: n.0 })?;
        if t.finish != legal_finish {
            return Err(ScheduleError::BadDuration {
                node: n.0,
                expected,
                actual: t.finish.saturating_sub(t.start),
            });
        }
        offsets[t.proc.index() + 1] += 1;
        if let Some(lane) = used.get_mut(t.proc.index()) {
            *lane = lane.saturating_add(dag.mem(n));
        }
    }

    // 2. Memory capacity, before precedence: a task moved onto an
    // over-committed processor is reported as the capacity breach it
    // is, whatever the move did to its children's start times.
    for (pi, &used) in used.iter().enumerate() {
        let capacity = model.capacity(ProcId(pi as u32)).unwrap_or(Cost::MAX);
        if used > capacity {
            return Err(ScheduleError::CapacityExceeded {
                proc: pi as u32,
                capacity,
                used,
            });
        }
    }

    // 3. Precedence with model-priced communication.
    for p in dag.nodes() {
        let tp = schedule.task(p).expect("pass 1 saw every node placed");
        for e in dag.succs(p).iter() {
            let tc = schedule.task(e.node).expect("pass 1 saw every node placed");
            let delay = model.message_cost(e.cost, tp.proc, tc.proc);
            let legal = tp
                .finish
                .checked_add(delay)
                .ok_or(ScheduleError::TimeOverflow { node: e.node.0 })?;
            if tc.start < legal {
                return Err(ScheduleError::PrecedenceViolation {
                    parent: p.0,
                    child: e.node.0,
                    earliest_legal: legal,
                    actual: tc.start,
                });
            }
        }
    }

    // 4. No overlap per processor. A counting sort groups the tasks:
    // after the prefix sum `offsets[p]` is lane p's first slot, and
    // filling the lane moves it to the lane's end.
    for p in 1..offsets.len() {
        offsets[p] += offsets[p - 1];
    }
    lanes.clear();
    lanes.resize(dag.node_count(), (0, 0, 0));
    for t in schedule.tasks() {
        let slot = &mut offsets[t.proc.index()];
        lanes[*slot] = (t.start, t.node.0, t.finish);
        *slot += 1;
    }
    let mut lo = 0;
    for (pi, &hi) in offsets[..num_procs as usize].iter().enumerate() {
        let lane = &mut lanes[lo..hi];
        lane.sort_unstable();
        for w in lane.windows(2) {
            if w[1].0 < w[0].2 {
                return Err(ScheduleError::Overlap {
                    proc: pi as u32,
                    first: w[0].1,
                    second: w[1].1,
                });
            }
        }
        lo = hi;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ProcessorSpeeds;
    use fastsched_dag::{DagBuilder, NodeId};

    fn pair() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_task(2);
        let c = b.add_task(3);
        b.add_edge(a, c, 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn accepts_legal_colocated_schedule() {
        let g = pair();
        let mut s = Schedule::new(2, 1);
        s.place(NodeId(0), ProcId(0), 0, 2);
        s.place(NodeId(1), ProcId(0), 2, 5); // no comm when co-located
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn accepts_legal_remote_schedule() {
        let g = pair();
        let mut s = Schedule::new(2, 2);
        s.place(NodeId(0), ProcId(0), 0, 2);
        s.place(NodeId(1), ProcId(1), 6, 9); // 2 + comm 4 = 6
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn rejects_missing_node() {
        let g = pair();
        let mut s = Schedule::new(2, 1);
        s.place(NodeId(0), ProcId(0), 0, 2);
        assert_eq!(validate(&g, &s), Err(ScheduleError::Unscheduled(1)));
    }

    #[test]
    fn rejects_bad_duration() {
        let g = pair();
        let mut s = Schedule::new(2, 1);
        s.place(NodeId(0), ProcId(0), 0, 3); // w = 2, duration 3
        s.place(NodeId(1), ProcId(0), 3, 6);
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::BadDuration {
                node: 0,
                expected: 2,
                actual: 3
            })
        );
    }

    #[test]
    fn rejects_finish_before_start() {
        let g = pair();
        let mut s = Schedule::new(2, 1);
        s.place(NodeId(0), ProcId(0), 5, 2); // finish < start
        s.place(NodeId(1), ProcId(0), 5, 8);
        assert_eq!(
            validate(&g, &s).map_err(|e| e.kind()),
            Err(ScheduleErrorKind::BadDuration)
        );
    }

    #[test]
    fn rejects_remote_start_before_message_arrival() {
        let g = pair();
        let mut s = Schedule::new(2, 2);
        s.place(NodeId(0), ProcId(0), 0, 2);
        s.place(NodeId(1), ProcId(1), 5, 8); // needs >= 6
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::PrecedenceViolation {
                parent: 0,
                child: 1,
                earliest_legal: 6,
                actual: 5
            })
        );
    }

    #[test]
    fn rejects_overlap() {
        let mut b = DagBuilder::new();
        b.add_task(5);
        b.add_task(5);
        let g = b.build().unwrap();
        let mut s = Schedule::new(2, 1);
        s.place(NodeId(0), ProcId(0), 0, 5);
        s.place(NodeId(1), ProcId(0), 3, 8);
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::Overlap {
                proc: 0,
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn rejects_wrong_size() {
        let g = pair();
        let s = Schedule::new(5, 1);
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::WrongSize {
                expected: 2,
                actual: 5
            })
        );
    }

    #[test]
    fn back_to_back_tasks_do_not_overlap() {
        let mut b = DagBuilder::new();
        b.add_task(5);
        b.add_task(5);
        let g = b.build().unwrap();
        let mut s = Schedule::new(2, 1);
        s.place(NodeId(0), ProcId(0), 0, 5);
        s.place(NodeId(1), ProcId(0), 5, 10);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn heterogeneous_durations_validate_under_their_model_only() {
        // w = 2 on a 200% processor takes 1; the homogeneous validator
        // must reject exactly the schedule the speeds model accepts.
        let g = pair();
        let speeds = ProcessorSpeeds::new(vec![100, 200]);
        let mut s = Schedule::new(2, 2);
        s.place(NodeId(0), ProcId(1), 0, 1); // ceil(2 / 2) = 1
        s.place(NodeId(1), ProcId(1), 1, 3); // ceil(3 / 2) = 2, co-located
        assert_eq!(validate_with(&speeds, &g, &s), Ok(()));
        assert_eq!(
            validate(&g, &s).map_err(|e| e.kind()),
            Err(ScheduleErrorKind::BadDuration)
        );
    }

    #[test]
    fn overflowing_start_is_reported_not_wrapped() {
        let g = pair();
        let mut s = Schedule::new(2, 1);
        // start + weight wraps past u64::MAX.
        s.place(NodeId(0), ProcId(0), Cost::MAX - 1, 0);
        s.place(NodeId(1), ProcId(0), 0, 3);
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::TimeOverflow { node: 0 })
        );
    }

    #[test]
    fn overflowing_message_delay_is_reported_not_wrapped() {
        // Edge cost near u64::MAX: parent finish + delay overflows.
        let mut b = DagBuilder::new();
        let a = b.add_task(2);
        let c = b.add_task(3);
        b.add_edge(a, c, Cost::MAX - 1).unwrap();
        let g = b.build().unwrap();
        let mut s = Schedule::new(2, 2);
        s.place(NodeId(0), ProcId(0), 0, 2);
        s.place(NodeId(1), ProcId(1), 6, 9);
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::TimeOverflow { node: 1 })
        );
    }

    #[test]
    fn capacity_pass_charges_per_lane_sums() {
        use crate::cost::{HomogeneousModel, MemoryCapacities};
        // Two independent tasks with footprints 30 and 40.
        let mut b = DagBuilder::new();
        let a = b.add_task_with_mem(5, 30);
        let c = b.add_task_with_mem(5, 40);
        let _ = (a, c);
        let g = b.build().unwrap();

        let mut together = Schedule::new(2, 2);
        together.place(NodeId(0), ProcId(0), 0, 5);
        together.place(NodeId(1), ProcId(0), 5, 10);
        let mut split = Schedule::new(2, 2);
        split.place(NodeId(0), ProcId(0), 0, 5);
        split.place(NodeId(1), ProcId(1), 0, 5);

        // Unbounded wrapper accepts both (and the plain model too).
        let open = MemoryCapacities::unbounded(HomogeneousModel);
        assert_eq!(validate_with(&open, &g, &together), Ok(()));
        assert_eq!(validate_with(&open, &g, &split), Ok(()));
        assert_eq!(validate(&g, &together), Ok(()));

        // Capacity 50 per lane: 30 + 40 on one lane breaches, the
        // split fits exactly.
        let tight = MemoryCapacities::uniform(HomogeneousModel, 50, 2);
        assert_eq!(
            validate_with(&tight, &g, &together),
            Err(ScheduleError::CapacityExceeded {
                proc: 0,
                capacity: 50,
                used: 70,
            })
        );
        assert_eq!(validate_with(&tight, &g, &split), Ok(()));

        // A per-proc table can cap one lane only.
        let lopsided = MemoryCapacities::new(HomogeneousModel, vec![10, 100]);
        assert_eq!(
            validate_with(&lopsided, &g, &split).map_err(|e| e.kind()),
            Err(ScheduleErrorKind::CapacityExceeded)
        );
        let mut swapped = Schedule::new(2, 2);
        swapped.place(NodeId(0), ProcId(1), 0, 5);
        swapped.place(NodeId(1), ProcId(1), 5, 10);
        assert_eq!(validate_with(&lopsided, &g, &swapped), Ok(()));
    }

    #[test]
    fn capacity_breach_outranks_precedence_breach() {
        use crate::cost::{HomogeneousModel, MemoryCapacities};
        // Parent → child, both with footprints; a schedule that both
        // over-commits a lane and starts the child too early must
        // report the capacity breach (pass 1b precedes pass 2).
        let mut b = DagBuilder::new();
        let a = b.add_task_with_mem(2, 30);
        let c = b.add_task_with_mem(3, 30);
        b.add_edge(a, c, 4).unwrap();
        let g = b.build().unwrap();
        let mut s = Schedule::new(2, 2);
        s.place(NodeId(0), ProcId(0), 1, 3);
        s.place(NodeId(1), ProcId(0), 0, 3); // overlaps AND precedence-breaks
        let tight = MemoryCapacities::uniform(HomogeneousModel, 40, 2);
        assert_eq!(
            validate_with(&tight, &g, &s).map_err(|e| e.kind()),
            Err(ScheduleErrorKind::CapacityExceeded)
        );
    }

    #[test]
    fn error_kinds_strip_witnesses() {
        let e = ScheduleError::Overlap {
            proc: 3,
            first: 1,
            second: 2,
        };
        assert_eq!(e.kind(), ScheduleErrorKind::Overlap);
        assert_eq!(
            ScheduleError::Unscheduled(7).kind(),
            ScheduleErrorKind::Unscheduled
        );
    }
}
