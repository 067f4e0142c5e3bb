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
//!
//! FAST prices a candidate by its start bound, not by its DAT, so the
//! provenance a recording run reports is checked apart: every
//! `Candidate` event must carry the candidate's exact DAT, walked here
//! from the placements the `Placed` events replay, its ready time and
//! `start = max(ready, DAT)`; and recording must leave the run's
//! `EvalStats` and schedule unchanged.

#[allow(dead_code)]
mod shapes;

use fastsched::algorithms::{Fast, Scheduler, SchedulerError, Workspace};
use fastsched::dag::{Cost, Dag, DagBuilder, NodeId};
use fastsched::schedule::{
    data_arrival_time_with, AlphaBeta, CommModel, CostModel, Hierarchical, HomogeneousModel,
    Machine, MemoryCapacities, ProcId, ProcessorSpeeds,
};
use fastsched::trace::{SearchTrace, TraceEvent};
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
/// capacities that do (over α–β), and speeds — as the machines a
/// request names, so a recording run can price them too.
fn models(dag: &Dag, procs: u32) -> Vec<(&'static str, Machine)> {
    let total = dag.total_memory();
    let max_mem = dag.mems().iter().copied().max().unwrap_or(0);
    // Room for a fraction of the footprint per lane: FAST's preferred
    // candidates fill up and the probe widens.
    let binding = max_mem.max(total.div_ceil(u64::from(procs)) + max_mem / 2);
    let speeds = (0..procs)
        .map(|p| [100, 200, 50, 150][p as usize % 4])
        .collect();
    let alpha_beta = CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2));
    let mut out: Vec<(&'static str, Machine)> = vec![
        ("plain", Machine::Homogeneous),
        ("alpha-beta", alpha_beta.clone().into()),
        (
            "one-group hier",
            CommModel::Hierarchical(
                Hierarchical::from_group_sizes(
                    &[procs],
                    AlphaBeta::new(4, 1, 1),
                    AlphaBeta::new(40, 2, 1),
                )
                .unwrap(),
            )
            .into(),
        ),
        (
            "loose caps",
            MemoryCapacities::uniform(CommModel::Ideal, total.max(1), procs).into(),
        ),
        (
            "binding caps",
            MemoryCapacities::uniform(alpha_beta, binding, procs).into(),
        ),
        ("speeds", ProcessorSpeeds::new(speeds).into()),
    ];
    if procs >= 2 {
        let half = procs / 2;
        out.push((
            "two-group hier",
            CommModel::Hierarchical(
                Hierarchical::from_group_sizes(
                    &[half, procs - half],
                    AlphaBeta::new(0, 1, 1),
                    AlphaBeta::new(30, 2, 1),
                )
                .unwrap(),
            )
            .into(),
        ));
    }
    out
}

/// The cost model `machine` prices with.
fn model_of(machine: &Machine) -> &dyn CostModel {
    match machine {
        Machine::Homogeneous => &HomogeneousModel,
        Machine::Comm(m) => m,
        Machine::Speeds(m) => m,
    }
}

/// Check FAST against the replay under every model; returns how many
/// nodes of feasible cases the replay placed after widening.
fn check(name: &str, dag: &Dag, procs: u32) -> usize {
    let mut widened = 0;
    for (model_name, machine) in models(dag, procs) {
        let model = model_of(&machine);
        let (got, list) = fast(model, dag, procs);
        let mut widened_here = 0;
        let want = replay(model, dag, &list, procs, &mut widened_here);
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

/// Check the provenance of a recording FAST run on `machine` against
/// the placements it reports, and its counters and schedule against
/// an untraced run. Returns how many candidates reported a DAT above
/// their start bound from remote parents alone, i.e. bound by a
/// co-located parent.
fn check_provenance(name: &str, dag: &Dag, procs: u32, machine: &Machine) -> usize {
    let run = |trace: &mut SearchTrace| {
        Fast::new().run(dag, procs, machine, &mut Workspace::new(), trace)
    };
    let (mut plain, mut recording) = (SearchTrace::default(), SearchTrace::recording());
    let (untraced, traced) = (run(&mut plain), run(&mut recording));
    assert_eq!(traced, untraced, "{name}: recording changed the run");
    assert_eq!(
        recording.eval, plain.eval,
        "{name}: recording changed the counters"
    );

    let model = model_of(machine);
    let v = dag.node_count();
    let (mut finish, mut proc) = (vec![0; v], vec![ProcId(0); v]);
    let mut ready: Vec<Cost> = vec![0; procs as usize];
    let (mut candidates, mut colocated) = (0, 0);
    for event in recording.to_events() {
        match event {
            TraceEvent::Candidate {
                node,
                proc: p,
                ready: r,
                dat,
                start,
            } => {
                let (n, p) = (NodeId(node as u32), ProcId(p as u32));
                let want = data_arrival_time_with(model, dag, n, p, &finish, &proc);
                assert_eq!(dat, want, "{name}: DAT of node {n} on {p:?}");
                assert_eq!(
                    r,
                    ready[p.index()],
                    "{name}: ready time of {p:?} for node {n}"
                );
                assert_eq!(start, r.max(want), "{name}: start of node {n} on {p:?}");
                let remote_only = dag
                    .preds(n)
                    .iter()
                    .filter(|e| proc[e.node.index()] != p)
                    .map(|e| {
                        finish[e.node.index()] + model.message_cost(e.cost, proc[e.node.index()], p)
                    })
                    .max()
                    .unwrap_or(0);
                colocated += usize::from(dat > remote_only);
                candidates += 1;
            }
            TraceEvent::Placed {
                node,
                proc: p,
                start,
                ..
            } => {
                let (n, p) = (NodeId(node as u32), ProcId(p as u32));
                let end = start + model.compute_cost(dag, n, p);
                (finish[n.index()], proc[n.index()]) = (end, p);
                ready[p.index()] = end;
            }
            _ => {}
        }
    }
    assert!(candidates >= v.min(1), "{name}: no candidate recorded");
    colocated
}

#[test]
fn recorded_candidates_carry_the_exact_dat() {
    let mut colocated = 0;
    for (name, dag) in shapes::sweep() {
        let dag = assign_mems(&dag, 7);
        for (model_name, machine) in models(&dag, shapes::PROCS) {
            let label = format!("{name} {model_name}");
            colocated += check_provenance(&label, &dag, shapes::PROCS, &machine);
        }
    }
    // A candidate whose DAT comes from a co-located parent is where the
    // DAT and the start bound differ; the sweep must reach some.
    assert!(
        colocated > 0,
        "no candidate's DAT came from a co-located parent"
    );
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
