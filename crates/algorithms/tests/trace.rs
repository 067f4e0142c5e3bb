//! Invariants of the observability layer: counter arithmetic,
//! trajectory shape, and determinism of the aggregated parallel
//! counters.

use fastsched_algorithms::{Fast, FastConfig, FastSa, FastSaConfig, Scheduler, Workspace};
use fastsched_dag::examples::paper_figure1;
use fastsched_dag::Dag;
use fastsched_schedule::{Machine, Schedule};
use fastsched_trace::{Phase, SearchTrace, TraceEvent};
use fastsched_workloads::{random_layered_dag, RandomDagConfig, TimingDatabase};

/// `scheduler` on the paper's machine with fresh scratch, recording
/// into `trace`.
fn traced(scheduler: &dyn Scheduler, dag: &Dag, procs: u32, trace: &mut SearchTrace) -> Schedule {
    let ws = &mut Workspace::new();
    scheduler
        .run(dag, procs, &Machine::Homogeneous, ws, trace)
        .expect("schedulable")
}

/// Every probe is either accepted or reverted — across many seeds.
#[test]
fn probes_attempted_equals_accepted_plus_reverted() {
    let db = TimingDatabase::paragon();
    let g = random_layered_dag(&RandomDagConfig::paper(120, &db), 3);
    for seed in 0..16u64 {
        let fast = Fast::with_config(FastConfig {
            seed,
            max_steps: 256,
            ..Default::default()
        });
        let mut trace = SearchTrace::recording();
        traced(&fast, &g, 16, &mut trace);
        assert_eq!(
            trace.probes_attempted,
            trace.probes_accepted + trace.probes_reverted,
            "seed {seed}: attempted != accepted + reverted"
        );
        // The search loop runs max_steps iterations; each is a probe
        // or a same-processor skip.
        assert_eq!(trace.probes_attempted + trace.steps_skipped, 256);
    }
}

/// Greedy FAST only accepts strict improvements, so the recorded
/// schedule-length trajectory must be non-increasing.
#[test]
fn greedy_trajectory_is_non_increasing() {
    let db = TimingDatabase::paragon();
    let g = random_layered_dag(&RandomDagConfig::paper(150, &db), 7);
    let fast = Fast::with_config(FastConfig {
        max_steps: 512,
        ..Default::default()
    });
    let mut trace = SearchTrace::recording();
    traced(&fast, &g, 24, &mut trace);
    let report = trace.to_report();
    let traj = report.trajectory();
    assert!(!traj.is_empty(), "search on a random DAG must probe");
    for w in traj.windows(2) {
        assert!(
            w[1] <= w[0],
            "greedy trajectory rose: makespan {} -> {}",
            w[0],
            w[1]
        );
    }
}

/// The traced run must produce the same schedule as the untraced one —
/// instrumentation never changes a search decision, for FAST's greedy
/// climb or for FAST-SA's annealing.
#[test]
fn traced_schedule_is_identical_to_untraced() {
    let db = TimingDatabase::paragon();
    let g = random_layered_dag(&RandomDagConfig::paper(100, &db), 11);
    for seed in [0u64, 1, 0xFA57] {
        let fast = Fast::with_config(FastConfig {
            seed,
            ..Default::default()
        });
        let sa = FastSa::with_config(FastSaConfig {
            seed,
            steps: 512,
            ..Default::default()
        });
        for scheduler in [&fast as &dyn Scheduler, &sa] {
            let plain = scheduler.schedule(&g, 12);
            let mut trace = SearchTrace::recording();
            let traced = traced(scheduler, &g, 12, &mut trace);
            assert!(trace.probes_attempted > 0, "{}", scheduler.name());
            assert_eq!(plain, traced, "{} seed {seed}", scheduler.name());
        }
    }
}

/// A recorded FAST run's NDJSON carries exactly one phase row per
/// timed layer of the pipeline, in pipeline order.
#[test]
fn phase_timers_cover_the_pipeline() {
    let g = paper_figure1();
    let mut trace = SearchTrace::recording();
    traced(&Fast::new(), &g, 9, &mut trace);
    let report = fastsched_trace::Report::from_ndjson(&trace.to_report().to_ndjson())
        .expect("own output must parse");
    let names: Vec<String> = report.phase_totals().into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        names,
        [
            "list_construction",
            "initial_schedule",
            "local_search",
            "validate"
        ]
    );
}

/// The phase clock runs on the default (off) trace too: each FAST
/// variant laps its list, placement and search once and the gate once;
/// a scheduler without those phases laps only the gate.
#[test]
fn an_untraced_run_laps_each_phase_once() {
    use fastsched_algorithms::{Dsc, FastParallel, FastParallelConfig, Heft};
    let g = paper_figure1();
    let ms = |threads| {
        FastParallel::with_config(FastParallelConfig {
            threads,
            ..Default::default()
        })
    };
    let (ms1, ms2) = (ms(1), ms(2));
    let all = [Phase::List, Phase::Place, Phase::Search, Phase::Validate];
    let cases: [(&dyn Scheduler, &[Phase]); 6] = [
        (&Fast::new(), &all),
        (&FastSa::new(), &all),
        (&ms1, &all),
        (&ms2, &all),
        (&Heft, &[Phase::Validate]),
        (&Dsc, &[Phase::Validate]),
    ];
    for (scheduler, lapped) in cases {
        let mut trace = SearchTrace::default();
        traced(scheduler, &g, 9, &mut trace);
        for p in Phase::ALL {
            let want = u64::from(lapped.contains(&p));
            assert_eq!(
                trace.clock.laps(p),
                want,
                "{}: {} lapped",
                scheduler.name(),
                p.name()
            );
        }
    }
}

/// The events round-trip through the NDJSON emitter and parser.
#[test]
fn ndjson_round_trip_preserves_events() {
    let db = TimingDatabase::paragon();
    let g = random_layered_dag(&RandomDagConfig::paper(80, &db), 5);
    let mut trace = SearchTrace::recording();
    trace.set_meta("workload", "round-trip-test");
    traced(&Fast::new(), &g, 8, &mut trace);
    let report = trace.to_report();
    let text = report.to_ndjson();
    let parsed = fastsched_trace::Report::from_ndjson(&text).expect("own output must parse");
    assert_eq!(report.events(), parsed.events());
    assert!(parsed
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::Meta { key, value } if key == "workload" && value == "round-trip-test")));
}

/// SA records every step too; its counters obey the same arithmetic.
#[test]
fn sa_counters_balance() {
    let db = TimingDatabase::paragon();
    let g = random_layered_dag(&RandomDagConfig::paper(100, &db), 2);
    let sa = FastSa::with_config(FastSaConfig {
        steps: 512,
        ..Default::default()
    });
    let mut trace = SearchTrace::recording();
    traced(&sa, &g, 16, &mut trace);
    assert_eq!(
        trace.probes_attempted,
        trace.probes_accepted + trace.probes_reverted
    );
    assert_eq!(trace.probes_attempted + trace.steps_skipped, 512);
    // SA probes always run the unbounded evaluator; its eval stats
    // must show activity.
    assert!(trace.eval.incremental_probes > 0);
}

/// Incremental-evaluator stats reach the trace: probes walked dirty
/// nodes and the commit/revert protocol was exercised.
#[test]
fn eval_stats_are_absorbed() {
    let db = TimingDatabase::paragon();
    let g = random_layered_dag(&RandomDagConfig::paper(150, &db), 9);
    let mut trace = SearchTrace::recording();
    let fast = Fast::with_config(FastConfig {
        max_steps: 256,
        ..Default::default()
    });
    traced(&fast, &g, 16, &mut trace);
    assert!(trace.eval.incremental_probes > 0);
    assert!(trace.eval.dirty_nodes_visited > 0);
    assert_eq!(trace.eval.commits, trace.probes_accepted);
    assert_eq!(trace.eval.reverts, trace.probes_reverted);
}

/// Phase 1 provenance: every node gets exactly one `Placed` event, the
/// winning processor was among the candidates probed, and each
/// parent's processor was probed (§4.2's candidate set).
#[test]
fn placement_provenance_covers_every_node_and_candidate() {
    let db = TimingDatabase::paragon();
    let g = random_layered_dag(&RandomDagConfig::paper(100, &db), 13);
    let mut trace = SearchTrace::recording();
    traced(&Fast::new(), &g, 12, &mut trace);
    let report = trace.to_report();
    let placed = report.placed_nodes();
    assert_eq!(placed.len(), g.node_count());
    for n in g.nodes() {
        let placements = report.placements_of(u64::from(n.0));
        assert_eq!(placements.len(), 1, "node {n:?} placed once");
        let p = &placements[0];
        assert!(!p.candidates.is_empty(), "node {n:?} probed no candidates");
        assert!(
            p.candidates.iter().any(|c| c.proc == p.proc),
            "winner not among probed candidates"
        );
        // Each candidate reports start = max(ready, dat).
        for c in &p.candidates {
            assert_eq!(c.start, c.ready.max(c.dat));
        }
        assert!(
            ["earliest-start", "only-candidate", "fallback-least-loaded"]
                .contains(&p.reason.as_str()),
            "unknown reason {}",
            p.reason
        );
    }
}

/// Phase 2 provenance: one transfer record per probe, and the accepted
/// flags agree with the probe counters.
#[test]
fn transfer_records_match_probe_counters() {
    let db = TimingDatabase::paragon();
    let g = random_layered_dag(&RandomDagConfig::paper(120, &db), 17);
    let mut trace = SearchTrace::recording();
    let fast = Fast::with_config(FastConfig {
        max_steps: 256,
        ..Default::default()
    });
    traced(&fast, &g, 16, &mut trace);
    let report = trace.to_report();
    let transfers: Vec<_> = report
        .placed_nodes()
        .iter()
        .flat_map(|&n| report.transfers_of(n))
        .collect();
    assert_eq!(transfers.len() as u64, trace.probes_attempted);
    let accepted = transfers.iter().filter(|t| t.accepted).count() as u64;
    assert_eq!(accepted, trace.probes_accepted);
    for t in &transfers {
        assert_ne!(t.from, t.to, "same-processor moves are skipped");
    }
}

/// Parallel FAST merges per-chain counters deterministically: two runs
/// with the same seed produce bit-identical aggregated counters.
#[test]
fn parallel_counters_are_deterministic() {
    use fastsched_algorithms::{FastParallel, FastParallelConfig};
    let db = TimingDatabase::paragon();
    let g = random_layered_dag(&RandomDagConfig::paper(120, &db), 4);
    let sched = FastParallel::with_config(FastParallelConfig {
        chains: 4,
        max_steps_per_chain: 128,
        seed: 0xFA57,
        threads: 0,
    });
    let run = || {
        let mut trace = SearchTrace::recording();
        traced(&sched, &g, 16, &mut trace);
        trace
    };
    let (a, b) = (run(), run());
    assert_eq!(a.probes_attempted, b.probes_attempted);
    assert_eq!(a.probes_accepted, b.probes_accepted);
    assert_eq!(a.probes_reverted, b.probes_reverted);
    assert_eq!(a.eval.dirty_nodes_visited, b.eval.dirty_nodes_visited);
    assert_eq!(a.probes_attempted, a.probes_accepted + a.probes_reverted);
    // 4 chains x 128 steps, every step probes or skips.
    assert_eq!(a.probes_attempted + a.steps_skipped, 4 * 128);
    // Trajectories merge in chain order: same sequence both runs.
    assert_eq!(a.to_report().trajectory(), b.to_report().trajectory());
}
