//! Property-based tests (proptest) over randomly generated DAGs: the
//! §2 attribute invariants, the CPN-Dominate list contract, scheduler
//! legality, FAST's never-worsen guarantee, and simulator
//! conservation.

use fastsched::dag::topo::is_topological_order;
use fastsched::dag::{classify_nodes, cpn_dominate_list, CpnListConfig, NodeClass};
use fastsched::prelude::*;
use proptest::prelude::*;

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

/// Strategy: a random layered DAG with 2..=60 nodes and varied
/// weights, built through the public generator (which guarantees
/// acyclicity by construction).
fn arb_dag() -> impl Strategy<Value = Dag> {
    (2usize..60, 0u64..1_000_000, 1u64..40, 1u64..120).prop_map(|(nodes, seed, w_hi, c_hi)| {
        let config = RandomDagConfig {
            nodes,
            out_degree: (1, 4),
            node_weight: (1, w_hi.max(2)),
            edge_weight: (1, c_hi.max(2)),
        };
        random_layered_dag(&config, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn t_plus_b_bounded_by_cp_with_equality_exactly_on_cpns(dag in arb_dag()) {
        let attrs = GraphAttributes::compute(&dag);
        for n in dag.nodes() {
            let sum = attrs.t_level[n.index()] + attrs.b_level[n.index()];
            prop_assert!(sum <= attrs.cp_length);
            prop_assert_eq!(sum == attrs.cp_length, attrs.is_cpn(n));
            // ASAP <= ALAP always; equality exactly on CPNs (§2).
            prop_assert!(attrs.t_level[n.index()] <= attrs.alap[n.index()]);
            prop_assert_eq!(
                attrs.t_level[n.index()] == attrs.alap[n.index()],
                attrs.is_cpn(n)
            );
            // SL <= b-level (dropping communication can't lengthen).
            prop_assert!(attrs.static_level[n.index()] <= attrs.b_level[n.index()]);
        }
    }

    #[test]
    fn every_dag_has_a_cpn_entry_and_cpn_exit(dag in arb_dag()) {
        let attrs = GraphAttributes::compute(&dag);
        prop_assert!(dag.nodes().any(|n| attrs.is_cpn(n) && dag.is_entry(n)));
        prop_assert!(dag.nodes().any(|n| attrs.is_cpn(n) && dag.is_exit(n)));
    }

    #[test]
    fn classification_is_total_and_parents_of_cpns_are_never_obn(dag in arb_dag()) {
        let attrs = GraphAttributes::compute(&dag);
        let classes = classify_nodes(&dag, &attrs);
        for n in dag.nodes() {
            if attrs.is_cpn(n) {
                for e in dag.preds(n) {
                    prop_assert_ne!(classes[e.node.index()], NodeClass::Obn,
                        "a parent of a CPN reaches a CPN, so it cannot be an OBN");
                }
            }
        }
    }

    #[test]
    fn cpn_dominate_list_is_a_topological_permutation(dag in arb_dag()) {
        let attrs = GraphAttributes::compute(&dag);
        let classes = classify_nodes(&dag, &attrs);
        let list = cpn_dominate_list(&dag, &attrs, &classes, CpnListConfig::default());
        prop_assert!(is_topological_order(&dag, &list));
        // The entry CPN with t-level 0 is first (§4.1 step 1).
        prop_assert!(attrs.is_cpn(list[0]) && dag.is_entry(list[0]));
    }

    #[test]
    fn all_schedulers_stay_legal_and_bounded(dag in arb_dag()) {
        let procs = dag.node_count() as u32;
        // Any sensible schedule fits below all-work-plus-all-messages.
        // (Plain serial time is NOT an upper bound for every algorithm:
        // DSC's unbounded clustering gives each entry node its own
        // cluster and willingly pays communication.)
        let upper = dag.total_computation() + dag.total_communication();
        for s in paper_schedulers(7) {
            let schedule = s.schedule(&dag, procs);
            prop_assert!(validate(&dag, &schedule).is_ok(),
                "{} produced an illegal schedule", s.name());
            prop_assert!(schedule.makespan() <= upper,
                "{}: makespan {} above {}", s.name(), schedule.makespan(), upper);
        }
    }

    #[test]
    fn fast_local_search_never_worsens(dag in arb_dag()) {
        let procs = (dag.node_count() as u32).max(2);
        let fast = Fast::new();
        let (initial, _, _) = fast.initial_schedule(&dag, procs);
        let refined = fast.schedule(&dag, procs);
        prop_assert!(refined.makespan() <= initial.makespan());
    }

    #[test]
    fn simulator_conserves_tasks_and_dominates_prediction(dag in arb_dag()) {
        let schedule = Fast::new().schedule(&dag, (dag.node_count() as u32).min(16));
        let report = simulate(&dag, &schedule, &SimConfig::default());
        // Every task finished exactly once, after its weight elapsed.
        prop_assert_eq!(report.finish_times.len(), dag.node_count());
        for n in dag.nodes() {
            prop_assert!(report.finish_times[n.index()] >= dag.weight(n));
        }
        // Remote messages: one per cross-processor edge.
        let cross = dag
            .edges()
            .filter(|&(a, b, _)| schedule.proc_of(a) != schedule.proc_of(b))
            .count() as u64;
        prop_assert_eq!(report.messages, cross);
        // The network can only delay the abstract model.
        prop_assert!(report.execution_time >= schedule.makespan());
        // And the ideal network reproduces it exactly.
        let ideal = simulate(&dag, &schedule, &SimConfig::ideal());
        prop_assert_eq!(ideal.execution_time, schedule.makespan());
    }

    #[test]
    fn evaluator_roundtrips_any_assignment(dag in arb_dag(), procs in 1u32..8, seed in 0u64..1000) {
        use fastsched::schedule::evaluate::evaluate_fixed_order;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let order: Vec<NodeId> = dag.topo_order().to_vec();
        let assignment: Vec<ProcId> =
            dag.nodes().map(|_| ProcId(rng.gen_range(0..procs))).collect();
        let schedule = evaluate_fixed_order(&dag, &order, &assignment, procs);
        prop_assert!(validate(&dag, &schedule).is_ok());
        for n in dag.nodes() {
            prop_assert_eq!(schedule.proc_of(n), Some(assignment[n.index()]));
        }
    }

    #[test]
    fn dag_json_roundtrip(dag in arb_dag()) {
        use fastsched::dag::io;
        let json = io::to_json(&dag).unwrap();
        let back = io::from_json(&json).unwrap();
        prop_assert_eq!(dag.node_count(), back.node_count());
        prop_assert_eq!(dag.edge_count(), back.edge_count());
        prop_assert!(dag.edges().eq(back.edges()));
        prop_assert_eq!(dag.weights(), back.weights());
    }

    #[test]
    fn chain_merge_preserves_work_and_schedulability(dag in arb_dag()) {
        use fastsched::dag::transform::merge_linear_chains;
        let merged = merge_linear_chains(&dag);
        prop_assert!(merged.dag.node_count() <= dag.node_count());
        prop_assert_eq!(merged.dag.total_computation(), dag.total_computation());
        // Membership is a total map onto the coarse node set.
        prop_assert_eq!(merged.membership.len(), dag.node_count());
        for &m in &merged.membership {
            prop_assert!(m.index() < merged.dag.node_count());
        }
        // The coarse graph schedules legally.
        let s = Fast::new().schedule(&merged.dag, merged.dag.node_count() as u32);
        prop_assert!(validate(&merged.dag, &s).is_ok());
    }

    #[test]
    fn comm_scaling_moves_cp_length_monotonically(dag in arb_dag()) {
        use fastsched::dag::transform::scale_communication;
        let half = scale_communication(&dag, 1, 2);
        let double = scale_communication(&dag, 2, 1);
        let cp = |d: &Dag| GraphAttributes::compute(d).cp_length;
        prop_assert!(cp(&half) <= cp(&dag));
        prop_assert!(cp(&double) >= cp(&dag));
    }

    #[test]
    fn bottleneck_chain_is_temporally_ordered_and_ends_at_makespan(dag in arb_dag()) {
        use fastsched::schedule::analysis::bottleneck_chain;
        let schedule = Fast::new().schedule(&dag, (dag.node_count() as u32).min(8));
        let chain = bottleneck_chain(&dag, &schedule);
        prop_assert!(!chain.is_empty());
        let last = chain.last().unwrap().node;
        prop_assert_eq!(schedule.finish_of(last), Some(schedule.makespan()));
        for w in chain.windows(2) {
            let a = schedule.task(w[0].node).unwrap();
            let b = schedule.task(w[1].node).unwrap();
            prop_assert!(a.finish <= b.start, "chain must move forward in time");
        }
    }

    #[test]
    fn extension_schedulers_stay_legal(dag in arb_dag()) {
        // The full registry (minus B&B) on every random graph.
        for s in all_schedulers(13) {
            let schedule = s.schedule(&dag, dag.node_count() as u32);
            prop_assert!(validate(&dag, &schedule).is_ok(),
                "{} produced an illegal schedule", s.name());
        }
    }

    #[test]
    fn dsh_duplication_schedules_are_legal_and_no_worse_than_hlfet(dag in arb_dag()) {
        use fastsched::algorithms::duplication::{validate_dup, Dsh};
        let procs = (dag.node_count() as u32).clamp(2, 8);
        let dup = Dsh::new().schedule(&dag, procs);
        prop_assert!(validate_dup(&dag, &dup).is_ok());
        // DSH extends the same SL-list scheduler with optional
        // duplication accepted only when it helps a node's start, so
        // it should rarely lose to HLFET — never by more than the
        // largest single weight (ordering noise).
        let plain = Hlfet::new().schedule(&dag, procs).makespan();
        let wmax = dag.weights().iter().copied().max().unwrap_or(0);
        prop_assert!(dup.makespan() <= plain + wmax,
            "DSH {} vs HLFET {plain}", dup.makespan());
    }

    #[test]
    fn text_format_roundtrips(dag in arb_dag()) {
        use fastsched::dag::io_text;
        let text = io_text::to_text(&dag);
        let back = io_text::from_text(&text).unwrap();
        prop_assert_eq!(dag.node_count(), back.node_count());
        prop_assert!(dag.edges().eq(back.edges()));
        prop_assert_eq!(dag.weights(), back.weights());
    }

    #[test]
    fn fast_parallel_is_byte_identical_across_worker_thread_counts(
        dag in arb_dag(),
        seed in 0u64..10_000,
    ) {
        // Determinism contract of multi-start FAST: the chain
        // count and seed fix the result; the thread partitioning must
        // be unobservable. Serialize and compare bytes so processor
        // numbering and every start/finish time are covered.
        use fastsched::algorithms::fast_parallel::{FastParallel, FastParallelConfig};
        let procs = (dag.node_count() as u32).clamp(2, 8);
        let run = |threads: u32| {
            let s = FastParallel::with_config(FastParallelConfig {
                chains: 4,
                max_steps_per_chain: 32,
                seed,
                threads,
            })
            .schedule(&dag, procs);
            fastsched::schedule::io::to_json(&s)
        };
        let one = run(1);
        prop_assert_eq!(&run(2), &one, "2 workers diverged from 1");
        prop_assert_eq!(&run(8), &one, "8 workers diverged from 1");
    }

    #[test]
    fn hetero_heft_is_legal_and_uniform_reduces_to_homogeneous(dag in arb_dag()) {
        use fastsched::algorithms::hetero::{HeftHetero, ProcessorSpeeds};
        use fastsched::schedule::validate_with;
        let speeds = ProcessorSpeeds::new(vec![100, 250, 50, 100]);
        let s = HeftHetero::new(speeds.clone()).schedule(&dag);
        prop_assert!(validate_with(&speeds, &dag, &s).is_ok());
        let uniform = ProcessorSpeeds::uniform(4);
        let hu = HeftHetero::new(uniform).schedule(&dag);
        let homo = fastsched::algorithms::Heft::new().schedule(&dag, 4);
        prop_assert_eq!(hu.makespan(), homo.makespan());
    }

    #[test]
    fn unbounded_memory_capacities_are_byte_identical_to_schedule(
        dag in arb_dag(),
        mem_seed in 0u64..10_000,
    ) {
        // The memory dimension's zero-cost contract: footprints on the
        // DAG plus a capacity model with no finite entry must leave
        // every placement decision untouched, bit for bit.
        use fastsched::schedule::{CommModel, MemoryCapacities};
        use fastsched::workloads::fuzz::assign_mems;
        let dag = assign_mems(&dag, mem_seed);
        let procs = (dag.node_count() as u32).clamp(2, 8);
        let unbounded = MemoryCapacities::unbounded(CommModel::Ideal);
        prop_assert_eq!(
            with_model(&Fast::new(), &dag, procs, &unbounded),
            Fast::new().schedule(&dag, procs),
            "FAST: a never-binding capacity model changed the schedule"
        );
        prop_assert_eq!(
            with_model(&Heft::new(), &dag, procs, &unbounded),
            Heft::new().schedule(&dag, procs),
            "HEFT: a never-binding capacity model changed the schedule"
        );
    }

    #[test]
    fn capped_schedules_always_validate_under_their_own_budget(
        dag in arb_dag(),
        mem_seed in 0u64..10_000,
    ) {
        // Feasible-by-construction budget (twice the balanced share,
        // floored by the largest footprint): memory-aware FAST and
        // HEFT must always find and return a legal packing.
        use fastsched::schedule::{validate_with, CommModel, MemoryCapacities};
        use fastsched::workloads::fuzz::assign_mems;
        let dag = assign_mems(&dag, mem_seed);
        let procs = (dag.node_count() as u32).clamp(2, 8);
        let total: u64 = dag.mems().iter().sum();
        let max_mem = dag.mems().iter().copied().max().unwrap_or(0);
        let cap = 2 * (total.div_ceil(u64::from(procs))).max(max_mem);
        let model = MemoryCapacities::uniform(CommModel::Ideal, cap, procs);
        let fast = with_model(&Fast::new(), &dag, procs, &model);
        prop_assert_eq!(validate_with(&model, &dag, &fast), Ok(()));
        let heft = with_model(&Heft::new(), &dag, procs, &model);
        prop_assert_eq!(validate_with(&model, &dag, &heft), Ok(()));
    }
}
