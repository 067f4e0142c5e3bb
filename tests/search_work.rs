//! Search work is O(v + e) per FAST run, counted rather than timed.
//!
//! FAST's §4.4 hill climb makes `MAXSTEP` bounded transfer probes
//! through the incremental evaluator and keeps only strict
//! improvements. The evaluator counts its work in [`EvalStats`]
//! (always on): order positions walked, successor edges tested for a
//! dirty mark, pred entries its full data-arrival recomputes read,
//! successor entries its walks scan, and edges read while seeding and
//! rebuilding its critical mask. Each count divided by `v + e` must
//! stay inside a fixed band on the paper's random DAGs from 100 to
//! 2000 nodes and on the in-degree sweeps of `tests/placement_work.rs`.
//!
//! The mask rebuild reads only the critical nodes' pred edges, so it
//! must equal the least fixed point of the tight-edge relation, found
//! here by brute force, under every model.
//!
//! [`EvalStats`]: fastsched::trace::EvalStats

mod shapes;

use fastsched::prelude::*;
use fastsched::schedule::{
    AlphaBeta, CommModel, CostModel, DeltaEvaluator, Hierarchical, HomogeneousModel,
    MemoryCapacities, ProcessorSpeeds,
};
use fastsched::trace::EvalStats;
use fastsched::workloads::assign_mems;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shapes::{size, sweep, PROCS};

/// Allowed walk work per `v + e` of one FAST run: positions walked,
/// edge marks tested and pred entries read, summed over all probes.
/// Almost every probe of the climb is a rejection; one that walks
/// until it meets the makespan node costs about `v + e` of its own,
/// so a search that walks each rejected probe reads 2.9–4.5 per
/// `v + e` on the random DAGs and 13–19 on the stars. Pruning the
/// probes whose moved node cannot reach a makespan node keeps the
/// run at 0–1.6. A run may prune every probe, hence the zero floor.
const WALK_BAND: (f64, f64) = (0.0, 2.0);

/// Allowed successor scanning per `v + e` of one FAST run: every
/// walked probe reads the out-edges of the moved node and of each
/// node whose finish it moved, once each.
const SUCC_BAND: (f64, f64) = (0.0, 2.0);

/// Allowed seeding work per `v + e` of one FAST run. FAST seeds its
/// evaluator from the placement's finish times, reading no edge; each
/// critical-mask rebuild (before the first probe and after a commit)
/// reads the pred edges of the critical nodes, at most `e`. On a star
/// the sink is critical and its pred run is the whole edge set.
/// Replaying the placement cost another `e` per run and read up to
/// 2.91 per `v + e`.
const SEED_MAX: f64 = 2.5;

/// Allowed seeding work per `v + e` on the paper's random DAGs, where
/// few nodes are critical and a run reads 0.02–0.10 per `v + e`. A
/// rebuild that scanned the out-edges of every non-critical node in
/// one reverse pass over the order read 0.87–1.89.
const RANDOM_SEED_MAX: f64 = 0.25;

/// The evaluator counters of one traced FAST run.
fn search_stats(dag: &Dag, machine: &Machine) -> EvalStats {
    let mut trace = SearchTrace::default();
    Fast::new()
        .run(dag, PROCS, machine, &mut Workspace::new(), &mut trace)
        .expect("schedulable");
    trace.eval
}

#[test]
fn search_work_stays_linear_in_v_plus_e() {
    let alpha_beta: Machine = CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2)).into();
    for (name, dag) in sweep() {
        for (model, machine) in [
            ("plain", &Machine::Homogeneous),
            ("alpha-beta", &alpha_beta),
        ] {
            let s = search_stats(&dag, machine);
            let walk = (s.dirty_nodes_visited + s.edge_marks_tested + s.probe_pred_reads) as f64
                / size(&dag);
            let succ = s.walk_succ_reads as f64 / size(&dag);
            let seed = s.seed_edge_reads as f64 / size(&dag);
            assert!(
                (WALK_BAND.0..=WALK_BAND.1).contains(&walk),
                "FAST {name} {model}: {walk:.3} walk reads per (v + e), outside {WALK_BAND:?}"
            );
            assert!(
                (SUCC_BAND.0..=SUCC_BAND.1).contains(&succ),
                "FAST {name} {model}: {succ:.3} successor reads per (v + e), outside {SUCC_BAND:?}"
            );
            let seed_max = if name.starts_with("random/") {
                RANDOM_SEED_MAX
            } else {
                SEED_MAX
            };
            assert!(
                s.seed_edge_reads > 0 && seed <= seed_max,
                "FAST {name} {model}: {seed:.3} seeding edge reads per (v + e), above {seed_max}"
            );
        }
    }
}

/// Random layered DAG through the public generator.
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

/// The critical set of the evaluator's committed schedule by brute
/// force: start from the nodes finishing at the makespan and sweep
/// every node until none joins. A node joins when a tight DAG edge
/// (`finish + message == start`) or a tight processor edge (`finish ==`
/// the start of the next node on its processor) leads to a member.
fn fixed_point_mask<M: CostModel>(dag: &Dag, eval: &DeltaEvaluator<M>, procs: u32) -> Vec<bool> {
    let (start, finish, proc) = (eval.start_times(), eval.finish_times(), eval.assignment());
    let mut next_on_proc: Vec<Option<NodeId>> = vec![None; dag.node_count()];
    let mut last: Vec<Option<NodeId>> = vec![None; procs as usize];
    for &n in eval.order() {
        if let Some(prev) = last[proc[n.index()].index()].replace(n) {
            next_on_proc[prev.index()] = Some(n);
        }
    }
    let mut critical: Vec<bool> = finish.iter().map(|&f| f == eval.makespan()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for u in dag.nodes() {
            let ui = u.index();
            let tight_dag = dag.succs(u).iter().any(|e| {
                let msg = eval
                    .model()
                    .message_cost(e.cost, proc[ui], proc[e.node.index()]);
                critical[e.node.index()] && finish[ui] + msg == start[e.node.index()]
            });
            let tight_proc = next_on_proc[ui]
                .is_some_and(|y| critical[y.index()] && finish[ui] == start[y.index()]);
            if !critical[ui] && (tight_dag || tight_proc) {
                critical[ui] = true;
                changed = true;
            }
        }
    }
    critical
}

/// Seed an evaluator from FAST's placement, as FAST does, and check its
/// critical mask against [`fixed_point_mask`]; then commit random
/// transfers and check again after each commit.
fn mask_is_the_tight_edge_fixed_point<M: CostModel + Clone>(
    model: M,
    dag: &Dag,
    procs: u32,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (initial, list, assignment) = Fast::new()
        .initial_schedule_with(&model, dag, procs)
        .expect("loose capacities leave every node a processor");
    let finish: Vec<Cost> = dag
        .nodes()
        .map(|n| initial.task(n).unwrap().finish)
        .collect();
    let mut eval = DeltaEvaluator::empty_with_model(model);
    eval.reset_with_finish(dag, &list, &assignment, &finish, procs);
    let expect = fixed_point_mask(dag, &eval, procs);
    prop_assert_eq!(eval.critical_mask(dag), &expect[..], "mask after seeding");
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..20 {
        let n = NodeId(rng.gen_range(0..dag.node_count() as u32));
        let p = ProcId(rng.gen_range(0..procs));
        eval.probe_transfer(dag, n, p);
        eval.commit();
        let expect = fixed_point_mask(dag, &eval, procs);
        prop_assert_eq!(
            eval.critical_mask(dag),
            &expect[..],
            "mask after commit {}",
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The mask equals the brute-force fixed point under the paper's
    /// model, α–β, a two-group hierarchy, per-processor speeds and
    /// loose uniform memory capacities.
    #[test]
    fn critical_mask_is_the_tight_edge_fixed_point_under_any_model(
        dag in arb_dag(),
        procs in 2u32..7,
        seed in 0u64..10_000,
        pick in 0usize..5,
    ) {
        match pick {
            0 => mask_is_the_tight_edge_fixed_point(HomogeneousModel, &dag, procs, seed)?,
            1 => mask_is_the_tight_edge_fixed_point(AlphaBeta::new(7, 3, 2), &dag, procs, seed)?,
            2 => {
                let groups = [procs / 2, procs - procs / 2];
                let hier = Hierarchical::from_group_sizes(
                    &groups,
                    AlphaBeta::new(2, 1, 1),
                    AlphaBeta::new(15, 2, 1),
                )
                .unwrap();
                mask_is_the_tight_edge_fixed_point(hier, &dag, procs, seed)?
            }
            3 => {
                let speeds = ProcessorSpeeds::new((0..procs).map(|p| 50 + 40 * p).collect());
                mask_is_the_tight_edge_fixed_point(speeds, &dag, procs, seed)?
            }
            _ => {
                let dag = assign_mems(&dag, seed);
                let caps = MemoryCapacities::uniform(
                    CommModel::Ideal,
                    dag.total_memory().max(1),
                    procs,
                );
                mask_is_the_tight_edge_fixed_point(caps, &dag, procs, seed)?
            }
        }
    }
}
