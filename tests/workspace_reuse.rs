//! Workspace-reuse equivalence suite: `run` against a *dirty* shared
//! [`Workspace`] must be byte-identical to a fresh run for every
//! ported algorithm, across the fuzz corpus, in any interleaving of
//! DAGs, processor counts, machines and algorithms. The workspace only
//! changes where scratch lives — never a scheduling decision, and
//! never the correctness gate's verdict.

use fastsched::algorithms::{
    schedule_many_par_with, BoundedDsc, Cpop, Dcp, Dls, Dsc, Etf, Ez, Fast, FastSa, FastSaConfig,
    Hlfet, Lc, Md, Scheduler, Workspace,
};
use fastsched::algorithms::{FastParallel, FastParallelConfig, Heft, Ish, Mcp};
use fastsched::dag::Dag;
use fastsched::schedule::{
    evaluate_fixed_order_with, io, AlphaBeta, CommModel, DeltaEvaluator, Hierarchical, Machine,
    MemoryCapacities, ProcId, ProcessorSpeeds, IDEAL_LINK,
};
use fastsched::trace::SearchTrace;
use fastsched::workloads::fuzz::{assign_mems, fuzz_corpus, FuzzCase};
use proptest::prelude::*;

const CORPUS_SEED: u64 = 0xBA7C;

/// Every scheduler that places on workspace scratch: the model cores
/// (FAST, FAST-SA, FAST-MS, ETF, DLS, HEFT), which price DATs through
/// the workspace's lanes under every machine, and the ten homogeneous
/// cores, which place on the same state and lanes (HLFET, MCP, ISH,
/// CPOP, DCP, MD) or stage a clustering (DSC, EZ, LC, DSC-LLB), return
/// through the workspace's one result path and refuse every priced
/// machine.
fn ported() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Fast::new()),
        Box::new(FastSa::with_config(FastSaConfig {
            steps: 96,
            ..Default::default()
        })),
        Box::new(FastParallel::with_config(FastParallelConfig {
            chains: 3,
            max_steps_per_chain: 24,
            ..Default::default()
        })),
        Box::new(Etf::new()),
        Box::new(Dls::new()),
        Box::new(Mcp::new()),
        Box::new(Heft::new()),
        Box::new(Ish::new()),
        Box::new(Dsc::new()),
        Box::new(Md::new()),
        Box::new(Hlfet::new()),
        Box::new(Cpop::new()),
        Box::new(Dcp::new()),
        Box::new(Ez::new()),
        Box::new(Lc::new()),
        Box::new(BoundedDsc::new()),
    ]
}

/// Every machine kind for `procs` processors: the paper's, α–β,
/// two-group hierarchical, capacities that never bind, and speeds.
fn machines(dag: &Dag, procs: u32) -> [Machine; 5] {
    let half = procs / 2;
    let hier =
        Hierarchical::from_group_sizes(&[half, procs - half], IDEAL_LINK, AlphaBeta::new(40, 2, 1))
            .expect("two non-empty groups");
    let speeds = (0..procs).map(|p| [100, 200, 50][p as usize % 3]).collect();
    [
        Machine::Homogeneous,
        CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2)).into(),
        CommModel::Hierarchical(hier).into(),
        MemoryCapacities::uniform(CommModel::Ideal, dag.total_memory().max(1), procs).into(),
        ProcessorSpeeds::new(speeds).into(),
    ]
}

/// `schedule_many_par_with` over `corpus` on `threads` workers, each
/// DAG scheduled through `schedule_into` on its own case's processor
/// count, must serialize item by item exactly as a per-call
/// [`Scheduler::schedule`] does.
fn check_batch_against_per_call(
    sched: &dyn Scheduler,
    corpus: &[FuzzCase],
    threads: usize,
) -> Result<(), TestCaseError> {
    let dags: Vec<Dag> = corpus.iter().map(|c| c.dag.clone()).collect();
    let procs: Vec<u32> = corpus.iter().map(|c| c.procs).collect();
    let batch = schedule_many_par_with(&dags, &procs, threads, |dag, np, ws| {
        sched.schedule_into(dag, np, ws)
    });
    prop_assert_eq!(batch.len(), dags.len());
    for (i, ((schedule, _), case)) in batch.iter().zip(corpus).enumerate() {
        prop_assert_eq!(
            io::to_json(schedule),
            io::to_json(&sched.schedule(&case.dag, case.procs)),
            "{} diverged on batch item {} ({}) at {} thread(s)",
            sched.name(),
            i,
            case.name,
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One shared workspace, never cleared, driven across a random
    /// interleaving of (case, machine, algorithm) triples: every
    /// result, the gate's included, must serialize identically to a
    /// fresh run. On the paper's machine the walk goes through the
    /// `schedule_into` / `schedule` shorthands.
    #[test]
    fn dirty_workspace_is_byte_identical_to_fresh(
        seed in 0u64..1_000_000,
        walk in 0u64..u64::MAX,
        steps in 8usize..20,
    ) {
        let corpus = fuzz_corpus(CORPUS_SEED ^ seed, 6);
        let schedulers = ported();
        let mut ws = Workspace::new();
        let mut state = walk | 1;
        for k in 0..steps {
            // Cheap LCG walk over (case, scheduler) pairs.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize;
            let case = &corpus[pick % corpus.len()];
            let sched = &schedulers[(pick / 7 + k) % schedulers.len()];
            let dag = &assign_mems(&case.dag, pick as u64);
            let machines = machines(dag, case.procs);
            let machine = &machines[(pick / 11 + k) % machines.len()];
            let (fresh, reused) = if *machine == Machine::Homogeneous {
                (
                    Ok(sched.schedule(dag, case.procs)),
                    Ok(sched.schedule_into(dag, case.procs, &mut ws)),
                )
            } else {
                let run = |ws: &mut Workspace| {
                    sched.run(dag, case.procs, machine, ws, &mut SearchTrace::default())
                };
                (run(&mut Workspace::new()), run(&mut ws))
            };
            if let Ok(s) = &reused {
                prop_assert_eq!(machine.validate(dag, s), Ok(()));
            }
            prop_assert_eq!(
                reused.as_ref().map(io::to_json),
                fresh.as_ref().map(io::to_json),
                "{} diverged on {} (procs {}, {:?})",
                sched.name(),
                case.name,
                case.procs,
                machine
            );
            // Recycling the result is optional for correctness; do it
            // on every other iteration to cover both paths.
            if let (0, Ok(s)) = (k % 2, reused) {
                ws.recycle(s);
            }
        }
    }

    /// The batch driver on one thread (one workspace across the whole
    /// batch, each DAG on its own processor count) must agree with
    /// the per-call API element-wise.
    #[test]
    fn schedule_many_matches_per_call(seed in 0u64..1_000_000) {
        let corpus = fuzz_corpus(CORPUS_SEED.wrapping_add(seed), 5);
        for sched in ported() {
            check_batch_against_per_call(sched.as_ref(), &corpus, 1)?;
        }
    }

    /// Sharded across 2 and 4 workers, the batch driver must stay
    /// element-wise byte-identical to the serial per-call schedules:
    /// sharding only changes which thread runs a DAG, never a
    /// scheduling decision (each worker gets its own [`Workspace`]).
    #[test]
    fn schedule_many_par_matches_serial(seed in 0u64..1_000_000) {
        let corpus = fuzz_corpus(CORPUS_SEED.rotate_left(17) ^ seed, 6);
        for sched in ported() {
            for threads in [2usize, 4] {
                check_batch_against_per_call(sched.as_ref(), &corpus, threads)?;
            }
        }
    }

    /// The evaluator reset path under a heterogeneous cost model: a
    /// reused `DeltaEvaluator<ProcessorSpeeds>` re-initialized via
    /// `reset` must match both a freshly constructed evaluator and the
    /// full-replay reference on every corpus case.
    #[test]
    fn hetero_evaluator_reset_matches_fresh(seed in 0u64..1_000_000) {
        let corpus = fuzz_corpus(!CORPUS_SEED ^ seed, 5);
        // The model outlives every reset (reset changes the problem,
        // not the machine); corpus cases use at most 6 processors.
        let model = ProcessorSpeeds::new(vec![100, 75, 50, 100, 75, 50, 100, 75]);
        let mut reused: Option<DeltaEvaluator<ProcessorSpeeds>> = None;
        for case in &corpus {
            let order: Vec<_> = case.dag.topo_order().to_vec();
            let assignment: Vec<ProcId> = (0..case.dag.node_count())
                .map(|i| ProcId((i as u32 * 7 + 3) % case.procs))
                .collect();
            let fresh = DeltaEvaluator::with_model(
                model.clone(), &case.dag, order.clone(), assignment.clone(), case.procs,
            );
            let eval = match reused.as_mut() {
                Some(e) => {
                    e.reset(&case.dag, &order, &assignment, case.procs);
                    e
                }
                None => {
                    reused = Some(DeltaEvaluator::with_model(
                        model.clone(), &case.dag, order.clone(), assignment.clone(), case.procs,
                    ));
                    reused.as_mut().unwrap()
                }
            };
            let reference =
                evaluate_fixed_order_with(&model, &case.dag, &order, &assignment, case.procs);
            prop_assert_eq!(eval.makespan(), fresh.makespan(), "reset vs fresh on {}", case.name);
            prop_assert_eq!(eval.makespan(), reference.makespan(), "reset vs replay on {}", case.name);
        }
    }
}
