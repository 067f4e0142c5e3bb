//! FAST's placement against a brute-force replay of §4.2.
//!
//! `Fast::initial_schedule_with` places every node of the CPN-Dominate
//! list through the DAT lanes. The replay here places the same list
//! with nothing but `data_arrival_time_with` and a per-processor ready
//! time: a node's candidates are the distinct processors of its
//! parents (pred order, first occurrence) plus the next unused
//! processor; under memory capacities the candidates without room are
//! dropped, and an empty set widens to every processor with room; with
//! no candidate on an uncapped machine the node goes to the
//! least-loaded used processor. The node takes the first candidate
//! with the minimum `max(DAT, ready)`. Placements must agree node for
//! node, and so must the node a binding capacity makes infeasible.

#[allow(dead_code)]
mod shapes;

use fastsched::algorithms::{Fast, SchedulerError};
use fastsched::dag::{Cost, Dag, DagBuilder, NodeId};
use fastsched::schedule::{
    data_arrival_time_with, AlphaBeta, CostModel, Hierarchical, HomogeneousModel, MemoryCapacities,
    ProcId, ProcessorSpeeds,
};
use fastsched::workloads::fuzz::assign_mems;
use proptest::prelude::*;

/// A placed node: processor, start, finish.
type Placed = (ProcId, Cost, Cost);

/// Outcome of a replay: every node's placement, or the first node no
/// processor had room for.
type Replay = Result<Vec<Placed>, u32>;

/// Replay §4.2 over `list` under `model` on `procs` processors,
/// counting in `widened` the nodes whose probe widened to the whole
/// machine.
fn replay(
    model: &dyn CostModel,
    dag: &Dag,
    list: &[NodeId],
    procs: u32,
    widened: &mut usize,
) -> Replay {
    let v = dag.node_count();
    let (mut finish, mut proc) = (vec![0; v], vec![ProcId(0); v]);
    let mut placed = vec![(ProcId(0), 0, 0); v];
    let mut ready: Vec<Cost> = vec![0; procs as usize];
    let mut resident: Vec<Cost> = vec![0; procs as usize];
    let fits = |resident: &[Cost], p: ProcId, need: Cost| {
        model
            .capacity(p)
            .is_none_or(|cap| resident[p.index()].saturating_add(need) <= cap)
    };
    let mut used = 0u32;
    for &n in list {
        let mut candidates: Vec<ProcId> = Vec::new();
        for e in dag.preds(n) {
            let p = proc[e.node.index()];
            if !candidates.contains(&p) {
                candidates.push(p);
            }
        }
        if used < procs {
            candidates.push(ProcId(used));
        }
        let need = dag.mem(n);
        if model.has_capacities() {
            candidates.retain(|&p| fits(&resident, p, need));
            if candidates.is_empty() {
                *widened += 1;
                candidates = (0..procs)
                    .map(ProcId)
                    .filter(|&p| fits(&resident, p, need))
                    .collect();
            }
            if candidates.is_empty() {
                return Err(n.0);
            }
        } else if candidates.is_empty() {
            let least = (0..used).map(ProcId).min_by_key(|&p| ready[p.index()]);
            candidates.push(least.expect("a used processor"));
        }
        let start_on = |p: ProcId| {
            data_arrival_time_with(model, dag, n, p, &finish, &proc).max(ready[p.index()])
        };
        let best = candidates
            .iter()
            .copied()
            .reduce(|a, b| if start_on(b) < start_on(a) { b } else { a })
            .expect("a candidate");
        let start = start_on(best);
        let end = start + model.compute_cost(dag, n, best);
        (finish[n.index()], proc[n.index()]) = (end, best);
        placed[n.index()] = (best, start, end);
        ready[best.index()] = end;
        resident[best.index()] = resident[best.index()].saturating_add(need);
        used = used.max(best.0 + 1);
    }
    Ok(placed)
}

/// FAST's placement of `dag` under `model`, in [`Replay`] form.
fn fast(model: &dyn CostModel, dag: &Dag, procs: u32) -> (Replay, Vec<NodeId>) {
    match Fast::new().initial_schedule_with(model, dag, procs) {
        Ok((schedule, list, _)) => {
            let placed = dag
                .nodes()
                .map(|n| {
                    let t = schedule.task(n).expect("every node placed");
                    (t.proc, t.start, t.finish)
                })
                .collect();
            (Ok(placed), list)
        }
        Err(SchedulerError::Infeasible { node, .. }) => {
            // The list is the same under every model; recompute it
            // under the plain one for the replay.
            let (_, list, _) = Fast::new().initial_schedule(dag, procs);
            (Err(node), list)
        }
        Err(e) => panic!("unexpected placement error {e:?}"),
    }
}

/// The models of the comparison, on `procs` processors: plain, α–β,
/// one- and two-group hierarchies, capacities that never bind and
/// capacities that do (over α–β), and speeds.
fn models(dag: &Dag, procs: u32) -> Vec<(&'static str, Box<dyn CostModel>)> {
    let total = dag.total_memory();
    let max_mem = dag.mems().iter().copied().max().unwrap_or(0);
    // Room for a fraction of the footprint per lane: FAST's preferred
    // candidates fill up and the probe widens.
    let binding = max_mem.max(total.div_ceil(u64::from(procs)) + max_mem / 2);
    let speeds = (0..procs)
        .map(|p| [100, 200, 50, 150][p as usize % 4])
        .collect();
    let mut out: Vec<(&'static str, Box<dyn CostModel>)> = vec![
        ("plain", Box::new(HomogeneousModel)),
        ("alpha-beta", Box::new(AlphaBeta::new(25, 3, 2))),
        (
            "one-group hier",
            Box::new(
                Hierarchical::from_group_sizes(
                    &[procs],
                    AlphaBeta::new(4, 1, 1),
                    AlphaBeta::new(40, 2, 1),
                )
                .unwrap(),
            ),
        ),
        (
            "loose caps",
            Box::new(MemoryCapacities::uniform(
                HomogeneousModel,
                total.max(1),
                procs,
            )),
        ),
        (
            "binding caps",
            Box::new(MemoryCapacities::uniform(
                AlphaBeta::new(25, 3, 2),
                binding,
                procs,
            )),
        ),
        ("speeds", Box::new(ProcessorSpeeds::new(speeds))),
    ];
    if procs >= 2 {
        let half = procs / 2;
        out.push((
            "two-group hier",
            Box::new(
                Hierarchical::from_group_sizes(
                    &[half, procs - half],
                    AlphaBeta::new(0, 1, 1),
                    AlphaBeta::new(30, 2, 1),
                )
                .unwrap(),
            ),
        ));
    }
    out
}

/// Check FAST against the replay under every model; returns how many
/// nodes of feasible cases the replay placed after widening.
fn check(name: &str, dag: &Dag, procs: u32) -> usize {
    let mut widened = 0;
    for (model_name, model) in models(dag, procs) {
        let (got, list) = fast(model.as_ref(), dag, procs);
        let mut widened_here = 0;
        let want = replay(model.as_ref(), dag, &list, procs, &mut widened_here);
        if got.is_ok() {
            widened += widened_here;
        }
        match (&got, &want) {
            (Ok(got), Ok(want)) => {
                for n in dag.nodes() {
                    assert_eq!(
                        got[n.index()],
                        want[n.index()],
                        "{name} {model_name}: node {n} (proc, start, finish)"
                    );
                }
            }
            _ => assert_eq!(got, want, "{name} {model_name}: infeasible node"),
        }
    }
    widened
}

#[test]
fn fast_places_the_shapes_like_the_reference() {
    let mut widened = 0;
    for (name, dag) in shapes::sweep() {
        let dag = assign_mems(&dag, 7);
        widened += check(&name, &dag, shapes::PROCS);
    }
    // Binding capacities must widen some feasible placement, or that
    // path went untested.
    assert!(widened > 0, "no feasible placement widened");
}

/// A seeded DAG of `v` nodes: weights 1..=20 (some edges and
/// footprints 0), each node drawing up to four parents among the
/// earlier ones.
fn random_dag(v: usize, seed: u64) -> Dag {
    let mut state = seed | 1;
    let mut next = |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    };
    let mut b = DagBuilder::new();
    for _ in 0..v {
        let (w, mem) = (1 + next(20), next(12));
        b.add_task_with_mem(w, mem);
    }
    for c in 1..v {
        let mut parents: Vec<u64> = (0..next(5)).map(|_| next(c as u64)).collect();
        parents.sort_unstable();
        parents.dedup();
        for p in parents {
            b.add_edge(NodeId(p as u32), NodeId(c as u32), next(40))
                .unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_places_random_dags_like_the_reference(
        v in 1usize..80,
        procs in 1u32..12,
        seed in 0u64..u64::MAX,
    ) {
        check(&format!("random v={v} p={procs} seed={seed}"), &random_dag(v, seed), procs);
    }
}
