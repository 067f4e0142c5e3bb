//! Property-based equivalence of the incremental [`DeltaEvaluator`]
//! against the full fixed-order replay: over random layered DAGs and
//! random transfer/commit/revert sequences, every probe's makespan and
//! every committed start/finish time must be **bit-identical** to
//! [`evaluate_fixed_order`] on the same order and assignment. This is
//! the contract that lets the FAST search drivers swap the evaluator
//! without changing a single accept/reject decision.
//!
//! Bounded probes with the cutoff at the committed makespan may be
//! rejected without a walk when the moved node is off the critical
//! cone; under every model, such a pruned probe's full replay must
//! reach the cutoff, and the evaluator's critical mask must match one
//! recomputed from the replay after every commit.
//!
//! FAST seeds its evaluator from the placement's finish times instead
//! of replaying them; under every model, that seeding must reproduce
//! the replay's committed state and critical mask exactly.

use fastsched::prelude::*;
use fastsched::schedule::{
    evaluate_fixed_order, evaluate_fixed_order_with, AlphaBeta, CommModel, CostModel,
    DeltaEvaluator, Hierarchical, HomogeneousModel, MemoryCapacities, ProcessorSpeeds,
};
use fastsched::workloads::assign_mems;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random layered DAG through the public generator (acyclic by
/// construction). Small communication ranges keep co-located parents
/// frequent; wide ranges exercise the remote-message paths.
fn arb_dag() -> impl Strategy<Value = Dag> {
    (2usize..50, 0u64..1_000_000, 1u64..30, 1u64..100).prop_map(|(nodes, seed, w_hi, c_hi)| {
        let config = RandomDagConfig {
            nodes,
            out_degree: (1, 4),
            node_weight: (1, w_hi.max(2)),
            edge_weight: (1, c_hi.max(2)),
        };
        random_layered_dag(&config, seed)
    })
}

/// Assert the evaluator's committed state matches a fresh full replay
/// of its (order, assignment) under its model — identical makespan and
/// identical start/finish time for every node.
fn assert_bit_identical<M: CostModel>(
    dag: &Dag,
    eval: &DeltaEvaluator<M>,
    procs: u32,
) -> Result<(), TestCaseError> {
    let full = evaluate_fixed_order_with(eval.model(), dag, eval.order(), eval.assignment(), procs);
    prop_assert_eq!(eval.makespan(), full.makespan());
    for n in dag.nodes() {
        let t = full.task(n).unwrap();
        prop_assert_eq!(eval.start_times()[n.index()], t.start, "start of {:?}", n);
        prop_assert_eq!(
            eval.finish_times()[n.index()],
            t.finish,
            "finish of {:?}",
            n
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random transfer/commit/revert walks: every probe's makespan
    /// matches a full replay of the probed assignment, and after every
    /// resolution the committed state matches a full replay.
    #[test]
    fn random_transfer_walks_are_bit_identical(
        dag in arb_dag(),
        procs in 2u32..7,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let order: Vec<NodeId> = dag.topo_order().to_vec();
        let mut shadow: Vec<ProcId> =
            dag.nodes().map(|_| ProcId(rng.gen_range(0..procs))).collect();
        let mut eval = DeltaEvaluator::new(&dag, order.clone(), shadow.clone(), procs);
        assert_bit_identical(&dag, &eval, procs)?;

        for step in 0..60 {
            let n = NodeId(rng.gen_range(0..dag.node_count() as u32));
            let p = ProcId(rng.gen_range(0..procs));
            let old = shadow[n.index()];
            shadow[n.index()] = p;
            let expect = evaluate_fixed_order(&dag, &order, &shadow, procs).makespan();
            let got = eval.probe_transfer(&dag, n, p);
            prop_assert_eq!(got, expect, "probe {}: {:?} -> {:?}", step, n, p);
            if rng.gen::<f64>() < 0.5 {
                eval.commit();
            } else {
                eval.revert();
                shadow[n.index()] = old;
            }
            prop_assert_eq!(eval.assignment(), &shadow[..]);
            assert_bit_identical(&dag, &eval, procs)?;
        }
    }

    /// Entry nodes have no parents (DAT 0 on every processor) and
    /// exercise the ready-time-only path; force many entry transfers.
    #[test]
    fn entry_node_transfers_are_bit_identical(
        dag in arb_dag(),
        procs in 2u32..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let order: Vec<NodeId> = dag.topo_order().to_vec();
        let entries: Vec<NodeId> = dag.entry_nodes();
        let mut shadow = vec![ProcId(0); dag.node_count()];
        let mut eval = DeltaEvaluator::new(&dag, order.clone(), shadow.clone(), procs);

        for _ in 0..30 {
            let n = entries[rng.gen_range(0..entries.len())];
            let p = ProcId(rng.gen_range(0..procs));
            let old = shadow[n.index()];
            shadow[n.index()] = p;
            let expect = evaluate_fixed_order(&dag, &order, &shadow, procs).makespan();
            prop_assert_eq!(eval.probe_transfer(&dag, n, p), expect);
            if rng.gen::<f64>() < 0.7 {
                eval.commit();
            } else {
                eval.revert();
                shadow[n.index()] = old;
            }
            assert_bit_identical(&dag, &eval, procs)?;
        }
    }

    /// All nodes start co-located on one processor, so every parent
    /// edge begins as a free local message; transfers must start
    /// charging (and un-charging, on revert) exactly the right edges.
    #[test]
    fn colocated_start_transfers_are_bit_identical(
        dag in arb_dag(),
        procs in 2u32..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let order: Vec<NodeId> = dag.topo_order().to_vec();
        let mut shadow = vec![ProcId(0); dag.node_count()];
        let mut eval = DeltaEvaluator::new(&dag, order.clone(), shadow.clone(), procs);

        for _ in 0..40 {
            let n = NodeId(rng.gen_range(0..dag.node_count() as u32));
            // Bias towards moving back to P0, re-co-locating families.
            let p = if rng.gen::<f64>() < 0.4 {
                ProcId(0)
            } else {
                ProcId(rng.gen_range(0..procs))
            };
            let old = shadow[n.index()];
            shadow[n.index()] = p;
            let expect = evaluate_fixed_order(&dag, &order, &shadow, procs).makespan();
            prop_assert_eq!(eval.probe_transfer(&dag, n, p), expect);
            if rng.gen::<f64>() < 0.5 {
                eval.commit();
            } else {
                eval.revert();
                shadow[n.index()] = old;
            }
            assert_bit_identical(&dag, &eval, procs)?;
        }
    }
}

/// The critical mask of the full replay of `(order, assignment)`,
/// recomputed from scratch: a node is critical when it finishes at the
/// makespan, or when a tight DAG edge (`finish + message == start`)
/// or a tight processor edge (`finish ==` the start of the next node
/// on its processor) leads to a critical node.
fn replay_critical<M: CostModel>(
    model: &M,
    dag: &Dag,
    order: &[NodeId],
    assignment: &[ProcId],
    procs: u32,
) -> Vec<bool> {
    let s = evaluate_fixed_order_with(model, dag, order, assignment, procs);
    let start = |n: NodeId| s.task(n).unwrap().start;
    let finish = |n: NodeId| s.task(n).unwrap().finish;
    let mut next_on_proc: Vec<Option<NodeId>> = vec![None; dag.node_count()];
    let mut last: Vec<Option<NodeId>> = vec![None; procs as usize];
    for &n in order {
        let p = assignment[n.index()].index();
        if let Some(prev) = last[p] {
            next_on_proc[prev.index()] = Some(n);
        }
        last[p] = Some(n);
    }
    let mut critical = vec![false; dag.node_count()];
    for &u in order.iter().rev() {
        let pu = assignment[u.index()];
        let tight_dag = dag.succs(u).iter().any(|e| {
            finish(u) + model.message_cost(e.cost, pu, assignment[e.node.index()]) == start(e.node)
                && critical[e.node.index()]
        });
        let tight_proc =
            next_on_proc[u.index()].is_some_and(|y| finish(u) == start(y) && critical[y.index()]);
        critical[u.index()] = finish(u) == s.makespan() || tight_dag || tight_proc;
    }
    critical
}

/// A random walk of bounded probes cut off at the committed makespan,
/// mixing commits of improving probes, commits of unbounded probes and
/// reverts. Every pruned probe must be rejected and its full replay
/// must reach the cutoff; every completed probe must be exact; after
/// every step the committed state must match the full replay and the
/// critical mask the replay's. Returns the number of pruned probes.
fn pruned_probes_never_improve<M: CostModel>(
    model: M,
    dag: &Dag,
    procs: u32,
    seed: u64,
) -> Result<u64, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let order: Vec<NodeId> = dag.topo_order().to_vec();
    let mut shadow: Vec<ProcId> = dag
        .nodes()
        .map(|_| ProcId(rng.gen_range(0..procs)))
        .collect();
    let mut eval = DeltaEvaluator::with_model(model, dag, order.clone(), shadow.clone(), procs);
    for step in 0..60 {
        let n = NodeId(rng.gen_range(0..dag.node_count() as u32));
        let p = ProcId(rng.gen_range(0..procs));
        let cutoff = eval.makespan();
        let was_critical = eval.critical_mask(dag)[n.index()];
        let pruned_before = eval.stats().probes_pruned;
        let old = shadow[n.index()];
        shadow[n.index()] = p;
        let exact = evaluate_fixed_order_with(eval.model(), dag, &order, &shadow, procs).makespan();
        let got = eval.probe_transfer_bounded(dag, n, p, cutoff);
        if eval.stats().probes_pruned > pruned_before {
            prop_assert!(!was_critical, "step {}: pruned a critical node", step);
            prop_assert_eq!(
                got,
                None,
                "step {}: a pruned probe returned a makespan",
                step
            );
            prop_assert!(
                exact >= cutoff,
                "step {}: pruned {:?} -> {:?} improves to {}",
                step,
                n,
                p,
                exact
            );
        }
        match got {
            Some(m) => {
                prop_assert_eq!(m, exact, "step {}", step);
                prop_assert!(m < cutoff);
            }
            None => prop_assert!(exact >= cutoff, "step {}: spurious rejection", step),
        }
        if got.is_some() && rng.gen::<f64>() < 0.5 {
            eval.commit();
        } else {
            eval.revert();
            shadow[n.index()] = old;
            if rng.gen::<f64>() < 0.25 {
                // Commit an arbitrary (possibly worsening) move, so the
                // walk keeps reshaping the critical cone.
                shadow[n.index()] = p;
                prop_assert_eq!(eval.probe_transfer(dag, n, p), exact);
                eval.commit();
            }
        }
        prop_assert_eq!(eval.assignment(), &shadow[..]);
        assert_bit_identical(dag, &eval, procs)?;
        let expect = replay_critical(eval.model(), dag, &order, &shadow, procs);
        prop_assert_eq!(
            eval.critical_mask(dag),
            &expect[..],
            "mask after step {}",
            step
        );
    }
    Ok(eval.stats().probes_pruned)
}

/// Model `pick` of the soundness property on `procs` processors: the
/// paper's, α–β, two groups of a hierarchy, and per-processor speeds.
fn run_pruning_walk(pick: usize, dag: &Dag, procs: u32, seed: u64) -> Result<u64, TestCaseError> {
    match pick {
        0 => pruned_probes_never_improve(HomogeneousModel, dag, procs, seed),
        1 => pruned_probes_never_improve(AlphaBeta::new(7, 3, 2), dag, procs, seed),
        2 => {
            let groups = [procs / 2, procs - procs / 2];
            let hier = Hierarchical::from_group_sizes(
                &groups,
                AlphaBeta::new(2, 1, 1),
                AlphaBeta::new(15, 2, 1),
            )
            .unwrap();
            pruned_probes_never_improve(hier, dag, procs, seed)
        }
        _ => {
            let speeds = ProcessorSpeeds::new((0..procs).map(|p| 50 + 40 * p).collect());
            pruned_probes_never_improve(speeds, dag, procs, seed)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Critical-cone pruning is sound under every model: see
    /// [`pruned_probes_never_improve`].
    #[test]
    fn pruned_bounded_probes_never_improve_under_any_model(
        dag in arb_dag(),
        procs in 2u32..7,
        seed in 0u64..10_000,
        pick in 0usize..4,
    ) {
        run_pruning_walk(pick, &dag, procs, seed)?;
    }
}

/// The soundness property is not vacuous: on a fixed corpus, every
/// model prunes probes.
#[test]
fn every_model_prunes_on_a_fixed_corpus() {
    for pick in 0..4 {
        let mut pruned = 0;
        for seed in 0..8u64 {
            let config = RandomDagConfig {
                nodes: 40,
                out_degree: (1, 4),
                node_weight: (1, 20),
                edge_weight: (1, 60),
            };
            let dag = random_layered_dag(&config, seed);
            pruned += run_pruning_walk(pick, &dag, 4, seed).expect("sound pruning");
        }
        assert!(pruned > 0, "model {pick} never pruned a probe");
    }
}

/// FAST's §4.2 placement appends each node at `max(DAT, ready)` in list
/// order, so its finish times are what the fixed-order replay of its
/// list and assignment computes. An evaluator seeded from them must
/// hold the replaying evaluator's starts, finishes, makespan and
/// critical mask, and the placement's own starts.
fn placement_seeding_matches_replay<M: CostModel + Clone>(
    model: M,
    dag: &Dag,
    procs: u32,
) -> Result<(), TestCaseError> {
    let (initial, list, assignment) = match Fast::new().initial_schedule_with(&model, dag, procs) {
        Ok(placed) => placed,
        // Binding capacities may leave a node no processor.
        Err(SchedulerError::Infeasible { .. }) => return Ok(()),
        Err(e) => panic!("placement failed: {e}"),
    };
    let finish: Vec<Cost> = dag
        .nodes()
        .map(|n| initial.task(n).unwrap().finish)
        .collect();
    let mut seeded = DeltaEvaluator::empty_with_model(model.clone());
    seeded.reset_with_finish(dag, &list, &assignment, &finish, procs);
    let mut replay = DeltaEvaluator::with_model(model, dag, list, assignment, procs);
    prop_assert_eq!(seeded.makespan(), replay.makespan());
    prop_assert_eq!(seeded.finish_times(), replay.finish_times());
    prop_assert_eq!(seeded.start_times(), replay.start_times());
    for n in dag.nodes() {
        prop_assert_eq!(
            seeded.start_times()[n.index()],
            initial.task(n).unwrap().start,
            "placement start of {:?}",
            n
        );
    }
    prop_assert_eq!(seeded.critical_mask(dag), replay.critical_mask(dag));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Placement seeding equals the replay under the paper's model,
    /// α–β, a two-group hierarchy, per-processor speeds, and loose and
    /// binding uniform memory capacities.
    #[test]
    fn placement_seeded_evaluator_matches_the_replay_under_any_model(
        dag in arb_dag(),
        procs in 2u32..7,
        seed in 0u64..10_000,
        pick in 0usize..6,
    ) {
        match pick {
            0 => placement_seeding_matches_replay(HomogeneousModel, &dag, procs)?,
            1 => placement_seeding_matches_replay(AlphaBeta::new(7, 3, 2), &dag, procs)?,
            2 => {
                let groups = [procs / 2, procs - procs / 2];
                let hier = Hierarchical::from_group_sizes(
                    &groups,
                    AlphaBeta::new(2, 1, 1),
                    AlphaBeta::new(15, 2, 1),
                )
                .unwrap();
                placement_seeding_matches_replay(hier, &dag, procs)?
            }
            3 => {
                let speeds = ProcessorSpeeds::new((0..procs).map(|p| 50 + 40 * p).collect());
                placement_seeding_matches_replay(speeds, &dag, procs)?
            }
            _ => {
                let dag = assign_mems(&dag, seed);
                let total = dag.total_memory().max(1);
                // Loose: every lane holds the whole DAG. Binding: about
                // two processors' fair share, so the placement filters
                // and widens its candidates.
                let cap = if pick == 4 { total } else { 2 * total / procs as Cost + 32 };
                let caps = MemoryCapacities::uniform(CommModel::Ideal, cap, procs);
                placement_seeding_matches_replay(caps, &dag, procs)?
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FAST's greedy climb driven two ways from one random transfer
    /// stream: by a full replay of every probed assignment, and by
    /// bounded incremental probes cut off at the current best. Both
    /// must accept exactly the same transfers, so they walk the same
    /// trajectory to the same assignment and makespan.
    #[test]
    fn greedy_climbs_walk_the_full_replay_trajectory(
        dag in arb_dag(),
        procs in 2u32..7,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let order: Vec<NodeId> = dag.topo_order().to_vec();
        let mut shadow: Vec<ProcId> = dag.nodes().map(|n| ProcId(n.0 % procs)).collect();
        let mut eval = DeltaEvaluator::new(&dag, order.clone(), shadow.clone(), procs);
        let mut best = evaluate_fixed_order(&dag, &order, &shadow, procs).makespan();
        for step in 0..120 {
            let n = NodeId(rng.gen_range(0..dag.node_count() as u32));
            let p = ProcId(rng.gen_range(0..procs));
            let old = std::mem::replace(&mut shadow[n.index()], p);
            if p == old {
                continue;
            }
            let replay = evaluate_fixed_order(&dag, &order, &shadow, procs).makespan();
            let accepted = eval.probe_transfer_bounded(&dag, n, p, best).is_some();
            prop_assert_eq!(accepted, replay < best, "step {}", step);
            if accepted {
                eval.commit();
                best = replay;
            } else {
                eval.revert();
                shadow[n.index()] = old;
            }
        }
        prop_assert_eq!(eval.assignment(), &shadow[..]);
        prop_assert_eq!(eval.makespan(), best);
    }
}
