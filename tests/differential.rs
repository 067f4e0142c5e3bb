//! Differential fuzz harness: cross-checks four independent
//! implementations of "what does this schedule cost?" against each
//! other on a seeded random-DAG corpus, and proves the validator's
//! teeth by mutation testing.
//!
//! The four implementations, none of which shares evaluation code with
//! the others:
//!
//! 1. the full fixed-order evaluator (`evaluate_fixed_order`) — the
//!    reference semantics;
//! 2. the incremental `DeltaEvaluator` — must be bit-identical through
//!    arbitrary probe/commit/revert walks;
//! 3. the event-driven simulator — on an ideal network it must
//!    reproduce the abstract schedule length exactly, and on a real
//!    mesh it may only add time;
//! 4. the exhaustive branch-and-bound oracle — no heuristic may beat
//!    it on instances small enough to solve exactly.
//!
//! Fixed seeds keep the whole file deterministic: a CI failure replays
//! locally byte-for-byte.

use fastsched::algorithms::hetero::{HeftHetero, ProcessorSpeeds};
use fastsched::algorithms::optimal::BranchAndBound;
use fastsched::prelude::*;
use fastsched::schedule::corrupt::{corrupt_with, Corruption};
use fastsched::schedule::evaluate::evaluate_fixed_order;
use fastsched::schedule::{
    validate_into, validate_with, CommModel, CostModel, DeltaEvaluator, HomogeneousModel,
    ScheduleError, ValidateScratch,
};
use fastsched::workloads::fuzz::{adversarial_weights, fuzz_corpus, mutate_weights, tiny_corpus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `scheduler` on the machine `model` describes, with fresh scratch.
fn with_model<M: Clone + Into<Machine>>(
    scheduler: &dyn Scheduler,
    dag: &Dag,
    procs: u32,
    model: &M,
) -> Schedule {
    let (ws, trace) = (&mut Workspace::new(), &mut SearchTrace::default());
    let machine = model.clone().into();
    let result = scheduler.run(dag, procs, &machine, ws, trace);
    result.unwrap_or_else(|e| panic!("{}: {e}", scheduler.name()))
}

/// `validate_with`'s verdict on `schedule`, which a `dirty` scratch
/// reused across a whole suite (DAG sizes, processor counts and
/// machines going up and down) must reproduce exactly.
fn verdict<M: CostModel + ?Sized>(
    model: &M,
    dag: &Dag,
    schedule: &Schedule,
    dirty: &mut ValidateScratch,
) -> Result<(), ScheduleError> {
    let fresh = validate_with(model, dag, schedule);
    assert_eq!(validate_into(model, dag, schedule, dirty), fresh);
    fresh
}

const CORPUS_SEED: u64 = 0xD1FF;

#[test]
fn delta_evaluator_is_bit_identical_to_full_evaluator_under_random_walks() {
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
    for case in fuzz_corpus(CORPUS_SEED, 8) {
        let dag = &case.dag;
        let order: Vec<NodeId> = dag.topo_order().to_vec();
        let assignment: Vec<ProcId> = dag
            .nodes()
            .map(|_| ProcId(rng.gen_range(0..case.procs)))
            .collect();
        let mut eval = DeltaEvaluator::new(dag, order.clone(), assignment, case.procs);

        for _ in 0..40 {
            let node = NodeId(rng.gen_range(0..dag.node_count() as u32));
            let target = ProcId(rng.gen_range(0..case.procs));
            if target == eval.assignment()[node.index()] {
                continue;
            }
            let probed = eval.probe_transfer(dag, node, target);
            if rng.gen_range(0..2u32) == 0 {
                eval.commit();
            } else {
                eval.revert();
            }
            // After every resolution the committed state must agree
            // with a from-scratch evaluation of the same assignment.
            let full = evaluate_fixed_order(dag, &order, eval.assignment(), case.procs);
            assert_eq!(
                eval.makespan(),
                full.makespan(),
                "{}: delta diverged from full evaluator (probe said {probed})",
                case.name
            );
            assert_eq!(
                eval.to_schedule(),
                full,
                "{}: delta schedule differs task-by-task",
                case.name
            );
        }
    }
}

#[test]
fn abstract_schedule_length_matches_ideal_simulation_and_lower_bounds_the_mesh() {
    for case in fuzz_corpus(CORPUS_SEED ^ 1, 8) {
        for s in paper_schedulers(11) {
            let schedule = s.schedule(&case.dag, case.procs);
            assert_eq!(validate(&case.dag, &schedule), Ok(()), "{}", case.name);
            let ideal = simulate(&case.dag, &schedule, &SimConfig::ideal());
            assert_eq!(
                ideal.execution_time,
                schedule.makespan(),
                "{}: {} ideal simulation diverged from the abstract model",
                case.name,
                s.name()
            );
            let mesh = simulate(&case.dag, &schedule, &SimConfig::default());
            assert!(
                mesh.execution_time >= schedule.makespan(),
                "{}: {} mesh simulation finished before the abstract model",
                case.name,
                s.name()
            );
        }
    }
}

#[test]
fn no_heuristic_beats_the_exhaustive_oracle_on_tiny_dags() {
    let oracle = BranchAndBound::new();
    let mut proven = 0usize;
    for case in tiny_corpus(CORPUS_SEED ^ 2, 9, 12) {
        let outcome = oracle.solve(&case.dag, case.procs);
        if !outcome.complete {
            // The state cap truncated the enumeration (weak
            // computation-only bound on a communication-heavy graph):
            // the incumbent proves nothing, and a heuristic beating it
            // is expected, not a bug. FAST did exactly that once.
            continue;
        }
        proven += 1;
        let optimum = outcome.schedule.makespan();
        for s in all_schedulers(3) {
            if s.is_unbounded() {
                // Clustering algorithms treat `procs` as a pool bound,
                // not a constraint — they may legally use more
                // processors than the oracle was given.
                continue;
            }
            let m = s.schedule(&case.dag, case.procs).makespan();
            assert!(
                m >= optimum,
                "{}: {} produced {m} below the optimum {optimum} — \
                 either it returned an illegal schedule or the oracle is wrong",
                case.name,
                s.name()
            );
        }
    }
    // The check must not be vacuous. Measured on this seeded corpus:
    // 4 of 9 cases (trees and small fork-joins) enumerate fully within
    // the default cap; the dense 12-node layered shapes exceed 40M
    // states and are the expected skips.
    assert!(proven >= 4, "only {proven}/9 oracle searches completed");
}

#[test]
fn weight_mutated_corpus_keeps_every_scheduler_legal() {
    for case in fuzz_corpus(CORPUS_SEED ^ 3, 6) {
        for seed in 0..3u64 {
            let mutated = mutate_weights(&case.dag, seed);
            for s in paper_schedulers(seed) {
                let schedule = s.schedule(&mutated, case.procs);
                assert_eq!(
                    validate(&mutated, &schedule),
                    Ok(()),
                    "{} (weights jittered, seed {seed}): {} became illegal",
                    case.name,
                    s.name()
                );
            }
        }
    }
}

/// The validator-strength proof: inject k corruptions, demand k
/// rejections, each with the exact error kind the operator targets.
#[test]
fn every_schedule_corruption_is_rejected_with_its_expected_kind() {
    let dirty = &mut ValidateScratch::default();
    let model = HomogeneousModel;
    let mut rejected = 0usize;
    for case in fuzz_corpus(CORPUS_SEED ^ 4, 6) {
        let schedule = Fast::new().schedule(&case.dag, case.procs);
        assert_eq!(verdict(&model, &case.dag, &schedule, dirty), Ok(()));
        for kind in Corruption::ALL {
            for seed in 0..2u64 {
                let Some(bad) = corrupt_with(&model, &case.dag, &schedule, kind, seed) else {
                    continue;
                };
                let err = verdict(&model, &case.dag, &bad, dirty).expect_err(&format!(
                    "{}: corruption {kind:?} (seed {seed}) passed validation",
                    case.name
                ));
                assert_eq!(
                    err.kind(),
                    kind.expected_kind(),
                    "{}: {kind:?} rejected for the wrong reason: {err}",
                    case.name
                );
                rejected += 1;
            }
        }
    }
    // The acceptance bar: at least 8 distinct seeded corruptions
    // rejected; in practice this is in the hundreds.
    assert!(rejected >= 8, "only {rejected} corruptions exercised");
}

/// Same mutation proof under a heterogeneous cost model, where wrong
/// per-processor durations (the satellite bugfix) are detectable at
/// all.
#[test]
fn hetero_schedule_corruptions_are_rejected_under_the_speeds_model() {
    let dirty = &mut ValidateScratch::default();
    let speeds = ProcessorSpeeds::new(vec![100, 200, 50]);
    let mut rejected = 0usize;
    let mut nominal_duration_hits = 0usize;
    for case in fuzz_corpus(CORPUS_SEED ^ 5, 4) {
        let schedule = HeftHetero::new(speeds.clone()).schedule(&case.dag);
        assert_eq!(verdict(&speeds, &case.dag, &schedule, dirty), Ok(()));
        for kind in Corruption::ALL {
            for seed in 0..2u64 {
                let Some(bad) = corrupt_with(&speeds, &case.dag, &schedule, kind, seed) else {
                    continue;
                };
                let err = verdict(&speeds, &case.dag, &bad, dirty).expect_err(&format!(
                    "{}: hetero corruption {kind:?} passed validation",
                    case.name
                ));
                assert_eq!(err.kind(), kind.expected_kind(), "{}", case.name);
                rejected += 1;
                if kind == Corruption::NominalDuration {
                    nominal_duration_hits += 1;
                }
            }
        }
    }
    assert!(
        rejected >= 8,
        "only {rejected} hetero corruptions exercised"
    );
    // The hetero-specific operator (nominal weight on a non-nominal
    // processor) must actually fire — it is inapplicable under the
    // homogeneous model, so only this test covers it.
    assert!(nominal_duration_hits > 0);
}

#[test]
fn adversarial_weights_overflow_loudly_not_silently() {
    // A chain with weights near u64::MAX: a "schedule" built with
    // saturating arithmetic is structurally complete but its times
    // cannot be represented — the validator must answer TimeOverflow
    // (or a concrete violation), never wrap and accept.
    let base = fastsched::dag::examples::chain(4, 10, 3);
    let dag = adversarial_weights(&base, 7);
    let mut s = Schedule::new(dag.node_count(), 1);
    let mut clock: u64 = 0;
    for n in dag.nodes() {
        let finish = clock.saturating_add(dag.weight(n));
        s.place(n, ProcId(0), clock, finish);
        clock = finish;
    }
    match validate(&dag, &s) {
        Err(ScheduleError::TimeOverflow { .. }) => {}
        Err(ScheduleError::BadDuration { .. }) => {
            // Acceptable: the saturated finish no longer equals
            // start + weight — the point is a loud structured error.
        }
        other => panic!("adversarial schedule was not rejected loudly: {other:?}"),
    }

    // Metrics over the same graph must clamp, not wrap.
    let metrics = ScheduleMetrics::compute(&dag, &s);
    assert_eq!(metrics.sequential_time, u64::MAX);

    // And a representable adversarial case (2 huge nodes) validates
    // and meters without any wrapping artifacts.
    let mut b = fastsched::dag::DagBuilder::new();
    let a = b.add_task(u64::MAX / 2);
    let c = b.add_task(u64::MAX / 3);
    b.add_edge(a, c, 1).unwrap();
    let g = b.build().unwrap();
    let mut s = Schedule::new(2, 1);
    s.place(NodeId(0), ProcId(0), 0, u64::MAX / 2);
    s.place(
        NodeId(1),
        ProcId(0),
        u64::MAX / 2,
        u64::MAX / 2 + u64::MAX / 3,
    );
    assert_eq!(validate(&g, &s), Ok(()));
    let m = ScheduleMetrics::compute(&g, &s);
    assert!(m.speedup >= 0.99, "speedup wrapped: {}", m.speedup);
}

/// The reduction identities that make the generic model paths
/// trustworthy: alpha-beta(0, 1, 1) and a single-group hierarchy with
/// an ideal intra link price messages exactly like [`HomogeneousModel`],
/// so every scheduler's run on that machine must reproduce its plain
/// `schedule` byte-for-byte — same placements, same times, not just the
/// same makespan.
#[test]
fn identity_comm_models_are_byte_identical_to_the_homogeneous_paths() {
    use fastsched::schedule::{AlphaBeta, CommModel, Hierarchical, IDEAL_LINK};
    for case in fuzz_corpus(CORPUS_SEED ^ 6, 8) {
        let identities = [
            (
                "alpha-beta(0,1,1)",
                CommModel::AlphaBeta(AlphaBeta::new(0, 1, 1)),
            ),
            (
                "single-group hier",
                CommModel::Hierarchical(
                    Hierarchical::from_group_sizes(
                        &[case.procs],
                        IDEAL_LINK,
                        AlphaBeta::new(40, 2, 1),
                    )
                    .expect("group table"),
                ),
            ),
        ];
        for (tag, model) in &identities {
            let pairs = [
                (
                    "FAST",
                    Fast::new().schedule(&case.dag, case.procs),
                    with_model(&Fast::new(), &case.dag, case.procs, model),
                ),
                (
                    "ETF",
                    Etf::new().schedule(&case.dag, case.procs),
                    with_model(&Etf::new(), &case.dag, case.procs, model),
                ),
                (
                    "DLS",
                    Dls::new().schedule(&case.dag, case.procs),
                    with_model(&Dls::new(), &case.dag, case.procs, model),
                ),
                (
                    "HEFT",
                    Heft::new().schedule(&case.dag, case.procs),
                    with_model(&Heft::new(), &case.dag, case.procs, model),
                ),
            ];
            for (name, plain, modeled) in &pairs {
                assert_eq!(
                    plain, modeled,
                    "{}: {name} under {tag} diverged from the homogeneous path",
                    case.name
                );
            }
        }
    }
}

/// Model-priced schedules must stay legal under the model that priced
/// them, and the `DeltaEvaluator` seeded with the same model must agree
/// bit-for-bit with the from-scratch model evaluator through random
/// probe/commit/revert walks.
#[test]
fn delta_evaluator_agrees_with_full_evaluation_under_comm_models() {
    use fastsched::schedule::evaluate::evaluate_fixed_order_with;
    use fastsched::schedule::{AlphaBeta, CommModel, Hierarchical, IDEAL_LINK};
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED ^ 7);
    for case in fuzz_corpus(CORPUS_SEED ^ 7, 6) {
        let models = [
            CommModel::AlphaBeta(AlphaBeta::new(15, 3, 2)),
            CommModel::Hierarchical(
                Hierarchical::from_group_sizes(
                    &[case.procs / 2 + case.procs % 2, case.procs / 2],
                    IDEAL_LINK,
                    AlphaBeta::new(25, 2, 1),
                )
                .expect("group table"),
            ),
        ];
        for model in models {
            let schedule = with_model(&Fast::new(), &case.dag, case.procs, &model);
            assert_eq!(
                validate_with(&model, &case.dag, &schedule),
                Ok(()),
                "{}: FAST under {model:?} produced an illegal schedule",
                case.name
            );

            let order: Vec<NodeId> = case.dag.topo_order().to_vec();
            let assignment: Vec<ProcId> = case
                .dag
                .nodes()
                .map(|_| ProcId(rng.gen_range(0..case.procs)))
                .collect();
            let mut eval = DeltaEvaluator::with_model(
                model.clone(),
                &case.dag,
                order.clone(),
                assignment,
                case.procs,
            );
            for _ in 0..25 {
                let node = NodeId(rng.gen_range(0..case.dag.node_count() as u32));
                let target = ProcId(rng.gen_range(0..case.procs));
                if target == eval.assignment()[node.index()] {
                    continue;
                }
                eval.probe_transfer(&case.dag, node, target);
                if rng.gen_range(0..2u32) == 0 {
                    eval.commit();
                } else {
                    eval.revert();
                }
                let full = evaluate_fixed_order_with(
                    &model,
                    &case.dag,
                    &order,
                    eval.assignment(),
                    case.procs,
                );
                assert_eq!(
                    eval.makespan(),
                    full.makespan(),
                    "{}: delta diverged from full evaluation under {model:?}",
                    case.name
                );
            }
        }
    }
}

/// The corruption operators must keep their teeth when the validator
/// prices messages through the new models: every applicable corruption
/// of a model-priced FAST schedule is rejected with its expected kind.
#[test]
fn comm_model_schedule_corruptions_are_rejected_with_their_expected_kinds() {
    use fastsched::schedule::{AlphaBeta, CommModel, Hierarchical, IDEAL_LINK};
    let dirty = &mut ValidateScratch::default();
    for (tag, model) in [
        (
            "alpha-beta(30,3,2)",
            CommModel::AlphaBeta(AlphaBeta::new(30, 3, 2)),
        ),
        (
            "two-group hier",
            CommModel::Hierarchical(
                Hierarchical::from_group_sizes(&[2, 2], IDEAL_LINK, AlphaBeta::new(50, 2, 1))
                    .expect("group table"),
            ),
        ),
    ] {
        let mut rejected = 0usize;
        for case in fuzz_corpus(CORPUS_SEED ^ 8, 4) {
            let procs = case.procs.min(4);
            let schedule = with_model(&Fast::new(), &case.dag, procs, &model);
            assert_eq!(
                verdict(&model, &case.dag, &schedule, dirty),
                Ok(()),
                "{} under {tag}",
                case.name
            );
            for kind in Corruption::ALL {
                for seed in 0..2u64 {
                    let Some(bad) = corrupt_with(&model, &case.dag, &schedule, kind, seed) else {
                        continue;
                    };
                    let err = verdict(&model, &case.dag, &bad, dirty).expect_err(&format!(
                        "{}: corruption {kind:?} under {tag} passed validation",
                        case.name
                    ));
                    assert_eq!(
                        err.kind(),
                        kind.expected_kind(),
                        "{}: {kind:?} under {tag} rejected for the wrong reason: {err}",
                        case.name
                    );
                    rejected += 1;
                }
            }
        }
        assert!(
            rejected >= 8,
            "only {rejected} corruptions exercised under {tag}"
        );
    }
}

/// Hand-computed schedules under the new models, checked number by
/// number. A two-node chain (weights 10 and 5, edge cost 8):
///
/// * alpha-beta(4, 3, 2): cross-processor message = 4 + ceil(8*3/2)
///   = 16, so placing the child on another processor starts it at
///   10 + 16 = 26; co-located it starts at 10.
/// * two groups of two, ideal intra, inter = (100, 1, 1): the child
///   pays the nominal 8 within the group (an ideal link adds no
///   overhead but is not free), 100 + 8 across groups, and 0 only
///   when co-located.
#[test]
fn hand_computed_message_prices_drive_the_model_evaluator() {
    use fastsched::schedule::evaluate::evaluate_fixed_order_with;
    use fastsched::schedule::{AlphaBeta, Hierarchical, IDEAL_LINK};
    let mut b = fastsched::dag::DagBuilder::new();
    let parent = b.add_task(10);
    let child = b.add_task(5);
    b.add_edge(parent, child, 8).unwrap();
    let dag = b.build().unwrap();
    let order = vec![parent, child];

    let ab = AlphaBeta::new(4, 3, 2);
    assert_eq!(ab.price(8), 4 + 12);
    let split = evaluate_fixed_order_with(&ab, &dag, &order, &[ProcId(0), ProcId(1)], 2);
    assert_eq!(split.start_of(child), Some(26));
    assert_eq!(split.makespan(), 31);
    let together = evaluate_fixed_order_with(&ab, &dag, &order, &[ProcId(0), ProcId(0)], 2);
    assert_eq!(together.start_of(child), Some(10));
    assert_eq!(together.makespan(), 15);

    let hier = Hierarchical::from_group_sizes(&[2, 2], IDEAL_LINK, AlphaBeta::new(100, 1, 1))
        .expect("group table");
    let intra = evaluate_fixed_order_with(&hier, &dag, &order, &[ProcId(0), ProcId(1)], 4);
    assert_eq!(
        intra.start_of(child),
        Some(18),
        "ideal intra link prices the nominal edge cost"
    );
    let colocated = evaluate_fixed_order_with(&hier, &dag, &order, &[ProcId(0), ProcId(0)], 4);
    assert_eq!(colocated.start_of(child), Some(10), "co-location is free");
    let inter = evaluate_fixed_order_with(&hier, &dag, &order, &[ProcId(0), ProcId(2)], 4);
    assert_eq!(inter.start_of(child), Some(10 + 100 + 8));
    assert_eq!(inter.makespan(), 123);
}

/// Regression: `Schedule::compact` reorders processor lanes by first
/// start time, which silently moves tasks across hierarchical group
/// boundaries and reprices every message — the model A/B bench caught
/// FAST emitting a precedence-violating "schedule" this way. Under a
/// multi-group model no generic path may compact; every algorithm's
/// output must validate under the model that priced it at full width.
#[test]
fn multi_group_hierarchical_schedules_are_never_lane_compacted() {
    use fastsched::schedule::{AlphaBeta, CommModel, CostModel, Hierarchical, IDEAL_LINK};
    let model = CommModel::Hierarchical(
        Hierarchical::from_group_sizes(&[4, 4], IDEAL_LINK, AlphaBeta::new(50, 2, 1))
            .expect("group table"),
    );
    assert!(!model.permits_renumbering());
    for case in fuzz_corpus(CORPUS_SEED ^ 9, 8) {
        let schedules = [
            ("FAST", with_model(&Fast::new(), &case.dag, 8, &model)),
            ("ETF", with_model(&Etf::new(), &case.dag, 8, &model)),
            ("DLS", with_model(&Dls::new(), &case.dag, 8, &model)),
            ("HEFT", with_model(&Heft::new(), &case.dag, 8, &model)),
        ];
        for (name, s) in &schedules {
            assert_eq!(
                s.num_procs(),
                8,
                "{}: {name} compacted a group-sensitive schedule",
                case.name
            );
            assert_eq!(
                validate_with(&model, &case.dag, s),
                Ok(()),
                "{}: {name} illegal under the hierarchical model",
                case.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Memory-constrained scheduling (DESIGN.md §17): unbounded capacities
// are byte-identical to the capacity-blind paths, finite capacities
// are enforced end to end, and the validator's capacity pass has
// mutation-tested teeth under both machine models.
// ---------------------------------------------------------------------------

#[test]
fn unbounded_capacities_are_byte_identical_to_the_capacity_blind_paths() {
    use fastsched::schedule::MemoryCapacities;
    use fastsched::workloads::fuzz::assign_mems;
    for case in fuzz_corpus(CORPUS_SEED ^ 10, 8) {
        // Footprints are populated, but no lane has a budget: the
        // memory machinery must be a spectator.
        let dag = assign_mems(&case.dag, CORPUS_SEED ^ 10);
        let unbounded = MemoryCapacities::unbounded(CommModel::Ideal);
        assert!(!unbounded.has_capacities());
        let pairs = [
            (
                "FAST",
                Fast::new().schedule(&dag, case.procs),
                with_model(&Fast::new(), &dag, case.procs, &unbounded),
            ),
            (
                "HEFT",
                Heft::new().schedule(&dag, case.procs),
                with_model(&Heft::new(), &dag, case.procs, &unbounded),
            ),
        ];
        for (name, plain, modeled) in &pairs {
            assert_eq!(
                plain, modeled,
                "{}: {name} under unbounded capacities diverged from schedule()",
                case.name
            );
        }
    }
}

#[test]
fn capped_schedules_respect_every_lane_budget_and_are_never_compacted() {
    use fastsched::schedule::MemoryCapacities;
    use fastsched::workloads::fuzz::mem_corpus;
    for case in mem_corpus(CORPUS_SEED ^ 11, 10) {
        for cap in [case.tight_cap, case.loose_cap] {
            let model = MemoryCapacities::uniform(CommModel::Ideal, cap, case.procs);
            assert!(!model.permits_renumbering());
            let schedules = [
                (
                    "FAST",
                    with_model(&Fast::new(), &case.dag, case.procs, &model),
                ),
                (
                    "HEFT",
                    with_model(&Heft::new(), &case.dag, case.procs, &model),
                ),
            ];
            for (name, s) in &schedules {
                assert_eq!(
                    s.num_procs(),
                    case.procs,
                    "{}: {name} compacted a capacity-constrained schedule",
                    case.name
                );
                assert_eq!(
                    validate_with(&model, &case.dag, s),
                    Ok(()),
                    "{}: {name} broke a {cap}-byte lane budget",
                    case.name
                );
            }
        }
    }
}

/// Hand-computed rejection case: a 4-task chain of 6-byte tasks on
/// two 12-byte processors. The capacity-blind schedule co-locates the
/// whole chain (24 resident bytes on PE0 — invalid), while the
/// memory-aware path must split it two-and-two and stay legal.
#[test]
fn a_capacity_blind_chain_is_rejected_where_the_memory_aware_split_fits() {
    use fastsched::dag::DagBuilder;
    use fastsched::schedule::MemoryCapacities;
    let mut b = DagBuilder::new();
    let mut prev = b.add_task_with_mem(10, 6);
    for _ in 0..3 {
        let n = b.add_task_with_mem(10, 6);
        b.add_edge(prev, n, 2).expect("edge");
        prev = n;
    }
    let dag = b.build().expect("dag");
    let model = MemoryCapacities::uniform(CommModel::Ideal, 12, 2);

    // A chain offers no parallelism, so the blind path packs one lane.
    let blind = Fast::new().schedule(&dag, 2);
    let err =
        validate_with(&model, &dag, &blind).expect_err("24 resident bytes passed a 12-byte budget");
    assert_eq!(
        err,
        ScheduleError::CapacityExceeded {
            proc: 0,
            capacity: 12,
            used: 24,
        }
    );

    let aware = with_model(&Fast::new(), &dag, 2, &model);
    assert_eq!(validate_with(&model, &dag, &aware), Ok(()));
    // Two tasks per lane is the only legal split; the second lane's
    // first task pays the crossing edge (weight-2 message).
    assert_eq!(aware.num_procs(), 2);
    let heft = with_model(&Heft::new(), &dag, 2, &model);
    assert_eq!(validate_with(&model, &dag, &heft), Ok(()));
}

/// The validator-strength proof for the capacity pass: seeded
/// over-capacity corruptions must be rejected with exactly
/// `CapacityExceeded`, under the homogeneous *and* the heterogeneous
/// machine models.
#[test]
fn over_capacity_corruptions_are_rejected_under_homo_and_hetero_models() {
    use fastsched::schedule::{MemoryCapacities, ScheduleErrorKind};
    use fastsched::workloads::fuzz::mem_corpus;
    let dirty = &mut ValidateScratch::default();
    let mut homo_hits = 0usize;
    let mut hetero_hits = 0usize;
    for case in mem_corpus(CORPUS_SEED ^ 12, 6) {
        let homo = MemoryCapacities::uniform(CommModel::Ideal, case.tight_cap, case.procs);
        let speeds: Vec<u32> = (0..case.procs)
            .map(|p| [100, 200, 50, 150][p as usize % 4])
            .collect();
        let hetero =
            MemoryCapacities::uniform(ProcessorSpeeds::new(speeds), case.tight_cap, case.procs);
        let s_homo = with_model(&Fast::new(), &case.dag, case.procs, &homo);
        let s_hetero = with_model(
            &Heft::new(),
            &case.dag,
            case.procs,
            &Machine::Speeds(hetero.clone()),
        );
        assert_eq!(verdict(&homo, &case.dag, &s_homo, dirty), Ok(()));
        assert_eq!(verdict(&hetero, &case.dag, &s_hetero, dirty), Ok(()));
        for seed in 0..3u64 {
            if let Some(bad) =
                corrupt_with(&homo, &case.dag, &s_homo, Corruption::OverCapacity, seed)
            {
                let err = verdict(&homo, &case.dag, &bad, dirty).expect_err(&format!(
                    "{}: over-capacity mutant passed the homogeneous validator",
                    case.name
                ));
                assert_eq!(
                    err.kind(),
                    ScheduleErrorKind::CapacityExceeded,
                    "{}",
                    case.name
                );
                homo_hits += 1;
            }
            if let Some(bad) = corrupt_with(
                &hetero,
                &case.dag,
                &s_hetero,
                Corruption::OverCapacity,
                seed,
            ) {
                let err = verdict(&hetero, &case.dag, &bad, dirty).expect_err(&format!(
                    "{}: over-capacity mutant passed the heterogeneous validator",
                    case.name
                ));
                assert_eq!(
                    err.kind(),
                    ScheduleErrorKind::CapacityExceeded,
                    "{}",
                    case.name
                );
                hetero_hits += 1;
            }
        }
    }
    // The proof must not be vacuous on either model.
    assert!(
        homo_hits >= 4,
        "only {homo_hits} homogeneous capacity mutants fired"
    );
    assert!(
        hetero_hits >= 4,
        "only {hetero_hits} heterogeneous capacity mutants fired"
    );
}

/// Capacity-aware optimality floor: on instances small enough to
/// enumerate, no memory-aware heuristic may beat the capacity-aware
/// exhaustive oracle, and the oracle's own answer must respect the
/// budgets it was given.
#[test]
fn no_memory_aware_heuristic_beats_the_capacity_aware_oracle() {
    use fastsched::schedule::MemoryCapacities;
    use fastsched::workloads::fuzz::{assign_mems, tiny_corpus};
    let oracle = BranchAndBound::new();
    let mut proven = 0usize;
    for case in tiny_corpus(CORPUS_SEED ^ 13, 8, 9) {
        let dag = assign_mems(&case.dag, CORPUS_SEED ^ 13);
        let total: u64 = dag.mems().iter().sum();
        let max_mem = dag.mems().iter().copied().max().unwrap_or(0);
        // The same feasible-by-construction budget the fuzz corpus
        // uses: twice the balanced share, floored by the largest task.
        let cap = 2 * (total.div_ceil(u64::from(case.procs))).max(max_mem);
        let caps: Vec<Option<u64>> = vec![Some(cap); case.procs as usize];
        // The budget fits by construction: the oracle must find a plan,
        // whether or not it finishes the enumeration.
        let outcome = oracle
            .solve_with_caps(&dag, case.procs, &caps)
            .unwrap_or_else(|e| panic!("{}: no plan under a feasible budget: {e:?}", case.name));
        if !outcome.complete {
            continue;
        }
        proven += 1;
        let model = MemoryCapacities::uniform(CommModel::Ideal, cap, case.procs);
        assert_eq!(
            validate_with(&model, &dag, &outcome.schedule),
            Ok(()),
            "{}: the oracle broke its own budgets",
            case.name
        );
        let optimum = outcome.schedule.makespan();
        for (name, m) in [
            (
                "FAST",
                with_model(&Fast::new(), &dag, case.procs, &model).makespan(),
            ),
            (
                "HEFT",
                with_model(&Heft::new(), &dag, case.procs, &model).makespan(),
            ),
        ] {
            assert!(
                m >= optimum,
                "{}: memory-aware {name} produced {m} below the capped optimum {optimum}",
                case.name
            );
        }
    }
    assert!(
        proven >= 4,
        "only {proven}/8 capped oracle searches completed"
    );
}

/// FAST's model path against a warm workspace must be byte-identical
/// to the same path with fresh scratch, capped
/// and uncapped, across workspace reuse.
#[test]
fn workspace_model_path_is_byte_identical_capped_and_uncapped() {
    use fastsched::algorithms::Workspace;
    use fastsched::schedule::MemoryCapacities;
    use fastsched::workloads::fuzz::mem_corpus;
    let mut ws = Workspace::new();
    for case in mem_corpus(CORPUS_SEED ^ 14, 8) {
        for model in [
            MemoryCapacities::uniform(CommModel::Ideal, case.tight_cap, case.procs),
            MemoryCapacities::unbounded(CommModel::Ideal),
        ] {
            let fresh = with_model(&Fast::new(), &case.dag, case.procs, &model);
            let warm = Fast::new().run(
                &case.dag,
                case.procs,
                &model.clone().into(),
                &mut ws,
                &mut SearchTrace::default(),
            );
            assert_eq!(
                Ok(fresh),
                warm,
                "{}: workspace model path diverged (caps: {:?})",
                case.name,
                model.caps()
            );
        }
    }
}

/// `schedule_many_par_with` driving `Scheduler::run` on each worker's
/// warm workspace (the model-aware batch shards) must be element-wise
/// byte-identical at every thread count — the path behind `casch
/// batch --comm/--mem-caps --threads N`.
#[test]
fn model_batches_are_byte_identical_at_every_thread_count() {
    use fastsched::algorithms::schedule_many_par_with;
    use fastsched::schedule::MemoryCapacities;
    use fastsched::workloads::fuzz::mem_corpus;
    let corpus = mem_corpus(CORPUS_SEED ^ 15, 9);
    let dags: Vec<_> = corpus.iter().map(|c| c.dag.clone()).collect();
    let procs: Vec<u32> = corpus.iter().map(|c| c.procs).collect();
    let caps: Vec<u64> = corpus.iter().map(|c| c.tight_cap).collect();
    let run = |threads: usize| {
        schedule_many_par_with(&dags, &procs, threads, |dag, np, ws| {
            // Each corpus entry carries its own budget; recover it by
            // identity since the closure only sees (dag, procs).
            let i = dags
                .iter()
                .position(|d| std::ptr::eq(d, dag))
                .expect("corpus dag");
            let machine = MemoryCapacities::uniform(CommModel::Ideal, caps[i], np).into();
            Fast::new()
                .run(dag, np, &machine, ws, &mut SearchTrace::default())
                .unwrap_or_else(|e| panic!("{}: {e}", corpus[i].name))
        })
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        let par = run(threads);
        assert_eq!(serial.len(), par.len());
        for (i, (s, p)) in serial.iter().zip(&par).enumerate() {
            assert_eq!(
                s.0, p.0,
                "{}: schedule diverged at {threads} thread(s)",
                corpus[i].name
            );
        }
    }
}
