//! The O(v + e) fixed-order list-scheduling evaluator.
//!
//! Given a priority order (which must be topological) and a
//! node→processor assignment, replay classical list scheduling: walk
//! the order, start each node at the maximum of its processor's ready
//! time and its *data arrival time* (DAT, §4.2), and advance the
//! processor's ready time.
//!
//! This is exactly the O(e) "node transferring step" cost model of the
//! FAST local search (§4.4). The search drivers themselves now use the
//! incremental [`crate::incremental::DeltaEvaluator`], which produces
//! bit-identical times while re-evaluating only the affected suffix;
//! the full replay here remains the reference semantics (and the
//! oracle the property tests compare against).
//!
//! All evaluators are generic over a [`CostModel`]; the plain
//! (non-`_with`) functions fix the paper's [`HomogeneousModel`].

use crate::cost::{data_arrival_time_with, CostModel, HomogeneousModel};
use crate::schedule::{ProcId, Schedule};
use fastsched_dag::{Cost, Dag, NodeId};

/// Data arrival time of `node` on processor `proc`, given every
/// parent's finish time and processor: the maximum message arrival
/// time over all parents (parent finish when co-located, parent finish
/// plus edge cost otherwise). Entry nodes have DAT 0.
pub fn data_arrival_time(
    dag: &Dag,
    node: NodeId,
    proc: ProcId,
    finish: &[Cost],
    assignment: &[ProcId],
) -> Cost {
    data_arrival_time_with(&HomogeneousModel, dag, node, proc, finish, assignment)
}

/// Replay list scheduling with a fixed priority `order` (must be a
/// topological order containing every node exactly once) and a fixed
/// node→processor `assignment`. Returns the resulting [`Schedule`].
///
/// ```
/// use fastsched_dag::examples::chain;
/// use fastsched_schedule::{evaluate_fixed_order, ProcId};
///
/// let dag = chain(3, 5, 2); // three 5-unit tasks, messages of 2
/// let order: Vec<_> = dag.topo_order().to_vec();
/// // Everything on one processor: communication is free.
/// let s = evaluate_fixed_order(&dag, &order, &[ProcId(0); 3], 1);
/// assert_eq!(s.makespan(), 15);
/// // Alternating processors: both messages are paid.
/// let s = evaluate_fixed_order(
///     &dag, &order, &[ProcId(0), ProcId(1), ProcId(0)], 2);
/// assert_eq!(s.makespan(), 19);
/// ```
///
/// `num_procs` bounds the processor ids that may appear in
/// `assignment`.
pub fn evaluate_fixed_order(
    dag: &Dag,
    order: &[NodeId],
    assignment: &[ProcId],
    num_procs: u32,
) -> Schedule {
    evaluate_fixed_order_with(&HomogeneousModel, dag, order, assignment, num_procs)
}

/// [`evaluate_fixed_order`] generalized over a [`CostModel`]: node
/// durations come from `model.compute_cost`, message delays from
/// `model.message_cost`.
pub fn evaluate_fixed_order_with<M: CostModel + ?Sized>(
    model: &M,
    dag: &Dag,
    order: &[NodeId],
    assignment: &[ProcId],
    num_procs: u32,
) -> Schedule {
    let mut schedule = Schedule::new(0, 1);
    evaluate_fixed_order_into_with(
        model,
        dag,
        order,
        assignment,
        num_procs,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut schedule,
    );
    schedule
}

/// [`evaluate_fixed_order`] writing into a caller-owned schedule;
/// `ready` and `finish` are caller-provided scratch (cleared here).
/// Byte-identical result, zero allocations at steady state.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_fixed_order_into(
    dag: &Dag,
    order: &[NodeId],
    assignment: &[ProcId],
    num_procs: u32,
    ready: &mut Vec<Cost>,
    finish: &mut Vec<Cost>,
    out: &mut Schedule,
) {
    evaluate_fixed_order_into_with(
        &HomogeneousModel,
        dag,
        order,
        assignment,
        num_procs,
        ready,
        finish,
        out,
    );
}

/// [`evaluate_fixed_order_into`] generalized over a [`CostModel`].
#[allow(clippy::too_many_arguments)]
pub fn evaluate_fixed_order_into_with<M: CostModel + ?Sized>(
    model: &M,
    dag: &Dag,
    order: &[NodeId],
    assignment: &[ProcId],
    num_procs: u32,
    ready: &mut Vec<Cost>,
    finish: &mut Vec<Cost>,
    out: &mut Schedule,
) {
    debug_assert_eq!(order.len(), dag.node_count());
    debug_assert_eq!(assignment.len(), dag.node_count());

    ready.clear();
    ready.resize(num_procs as usize, 0);
    finish.clear();
    finish.resize(dag.node_count(), 0);
    out.reset(dag.node_count(), num_procs);

    for &n in order {
        let proc = assignment[n.index()];
        let dat = data_arrival_time_with(model, dag, n, proc, finish, assignment);
        let start = dat.max(ready[proc.index()]);
        let end = start + model.compute_cost(dag, n, proc);
        finish[n.index()] = end;
        ready[proc.index()] = end;
        out.place(n, proc, start, end);
    }
}

/// Like [`evaluate_fixed_order`] but only returns the makespan,
/// avoiding the `Schedule` allocation; `ready` and `finish` are
/// caller-provided scratch buffers (cleared here) so repeated
/// evaluations do not allocate. This was the inner loop of the FAST
/// local search before the incremental evaluator replaced it; EZ's
/// edge-zeroing loop still calls it, and `examples/search_probe.rs`
/// replays every probe of its random search through it.
pub fn evaluate_makespan_into(
    dag: &Dag,
    order: &[NodeId],
    assignment: &[ProcId],
    ready: &mut Vec<Cost>,
    finish: &mut Vec<Cost>,
) -> Cost {
    evaluate_makespan_into_with(&HomogeneousModel, dag, order, assignment, ready, finish)
}

/// [`evaluate_makespan_into`] generalized over a [`CostModel`].
pub fn evaluate_makespan_into_with<M: CostModel + ?Sized>(
    model: &M,
    dag: &Dag,
    order: &[NodeId],
    assignment: &[ProcId],
    ready: &mut Vec<Cost>,
    finish: &mut Vec<Cost>,
) -> Cost {
    ready.clear();
    let max_proc = assignment.iter().map(|p| p.0).max().unwrap_or(0);
    ready.resize(max_proc as usize + 1, 0);
    finish.clear();
    finish.resize(dag.node_count(), 0);

    let mut makespan = 0;
    for &n in order {
        let proc = assignment[n.index()];
        let dat = data_arrival_time_with(model, dag, n, proc, finish, assignment);
        let start = dat.max(ready[proc.index()]);
        let end = start + model.compute_cost(dag, n, proc);
        finish[n.index()] = end;
        ready[proc.index()] = end;
        if end > makespan {
            makespan = end;
        }
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ProcessorSpeeds;
    use crate::validate::validate;
    use fastsched_dag::DagBuilder;

    /// a(2) →4→ b(3); a →1→ c(5); b,c → d(1) with costs 2, 1.
    fn sample() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_task(2);
        let nb = b.add_task(3);
        let nc = b.add_task(5);
        let nd = b.add_task(1);
        b.add_edge(a, nb, 4).unwrap();
        b.add_edge(a, nc, 1).unwrap();
        b.add_edge(nb, nd, 2).unwrap();
        b.add_edge(nc, nd, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn single_processor_serializes_in_order() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment = vec![ProcId(0); 4];
        let s = evaluate_fixed_order(&g, &order, &assignment, 1);
        assert_eq!(s.makespan(), 2 + 3 + 5 + 1);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn two_processors_pay_communication() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        // a, b, d on P0; c on P1.
        let assignment = vec![ProcId(0), ProcId(0), ProcId(1), ProcId(0)];
        let s = evaluate_fixed_order(&g, &order, &assignment, 2);
        // a: 0-2. b: 2-5 (local). c on P1: DAT 2+1=3, 3-8.
        // d on P0: DAT = max(b local 5, c remote 8+1=9) = 9 → 9-10.
        assert_eq!(s.start_of(NodeId(2)), Some(3));
        assert_eq!(s.start_of(NodeId(3)), Some(9));
        assert_eq!(s.makespan(), 10);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn list_order_constrains_same_processor_tasks() {
        let g = sample();
        // Order with c before b; both on P0: c occupies 2-7, b 7-10.
        let order = vec![NodeId(0), NodeId(2), NodeId(1), NodeId(3)];
        let assignment = vec![ProcId(0); 4];
        let s = evaluate_fixed_order(&g, &order, &assignment, 1);
        assert_eq!(s.start_of(NodeId(2)), Some(2));
        assert_eq!(s.start_of(NodeId(1)), Some(7));
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn makespan_only_matches_full_evaluation() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment = vec![ProcId(0), ProcId(0), ProcId(1), ProcId(0)];
        let s = evaluate_fixed_order(&g, &order, &assignment, 2);
        let (mut ready, mut finish) = (Vec::new(), Vec::new());
        let m = evaluate_makespan_into(&g, &order, &assignment, &mut ready, &mut finish);
        assert_eq!(m, s.makespan());
    }

    #[test]
    fn dat_is_zero_for_entry_nodes() {
        let g = sample();
        let finish = vec![0; 4];
        let assignment = vec![ProcId(0); 4];
        assert_eq!(
            data_arrival_time(&g, NodeId(0), ProcId(0), &finish, &assignment),
            0
        );
    }

    #[test]
    fn dat_takes_max_over_parents() {
        let g = sample();
        let finish = vec![2, 5, 8, 0];
        let assignment = vec![ProcId(0), ProcId(0), ProcId(1), ProcId(0)];
        // d on P0: b local → 5; c remote → 8 + 1 = 9.
        assert_eq!(
            data_arrival_time(&g, NodeId(3), ProcId(0), &finish, &assignment),
            9
        );
        // d on P1: b remote → 5 + 2 = 7; c local → 8.
        assert_eq!(
            data_arrival_time(&g, NodeId(3), ProcId(1), &finish, &assignment),
            8
        );
    }

    #[test]
    fn heterogeneous_model_stretches_durations() {
        let g = sample();
        let order: Vec<NodeId> = g.topo_order().to_vec();
        let assignment = vec![ProcId(1); 4];
        // P1 runs at half speed: every duration doubles, serial chain.
        let speeds = ProcessorSpeeds::new(vec![100, 50]);
        let s = evaluate_fixed_order_with(&speeds, &g, &order, &assignment, 2);
        assert_eq!(s.makespan(), 2 * (2 + 3 + 5 + 1));
        // Uniform speeds reproduce the homogeneous result exactly.
        let assignment = vec![ProcId(0), ProcId(0), ProcId(1), ProcId(0)];
        let uni =
            evaluate_fixed_order_with(&ProcessorSpeeds::uniform(2), &g, &order, &assignment, 2);
        let homo = evaluate_fixed_order(&g, &order, &assignment, 2);
        assert_eq!(uni.makespan(), homo.makespan());
    }
}
