//! Criterion bench for the cost of one local-search probe — the §4.4
//! claim that a node transfer is re-evaluated in O(e): the fixed-order
//! makespan evaluation should scale linearly with the edge count and
//! stay allocation-free.
//!
//! Also compares full-replay probes against the incremental
//! [`DeltaEvaluator`] on the 2000-node random layered DAG, running the
//! exact same hill-climbing trajectory through both, and dumps the
//! probe-throughput numbers to `BENCH_eval.json` at the workspace
//! root.
//!
//! The file's `trace_ab` section is the observability-overhead A/B:
//! the instrumented driver loop plus end-to-end FAST and FAST-SA runs
//! are timed with a default collector (`trace_off`: counters only)
//! and a recording one (`trace_on`), alternating run by run, and each
//! section carries the `capture_overhead_percent` between them. Every
//! other section of the file is kept.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fastsched::algorithms::{Fast, FastConfig, FastSa, FastSaConfig};
use fastsched::prelude::*;
use fastsched::schedule::evaluate::evaluate_makespan_into;
use fastsched::schedule::DeltaEvaluator;
use fastsched::trace::SearchTrace;
use fastsched_bench::{min_of, write_section, BENCH_EVAL_PATH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn bench_probe(c: &mut Criterion) {
    let db = TimingDatabase::paragon();
    let mut group = c.benchmark_group("local_search_probe");
    for v in [500usize, 1000, 2000, 4000] {
        let dag = random_layered_dag(&RandomDagConfig::paper(v, &db), 5);
        group.throughput(Throughput::Elements(dag.edge_count() as u64));
        let fast = Fast::new();
        let (_, order, assignment) = fast.initial_schedule(&dag, 512);
        group.bench_with_input(BenchmarkId::new("evaluate_makespan", v), &dag, |b, dag| {
            let (mut ready, mut finish) = (Vec::new(), Vec::new());
            b.iter(|| evaluate_makespan_into(dag, &order, &assignment, &mut ready, &mut finish))
        });
    }
    group.finish();
}

fn bench_full_fast(c: &mut Criterion) {
    let db = TimingDatabase::paragon();
    let mut group = c.benchmark_group("fast_phases");
    let dag = random_layered_dag(&RandomDagConfig::paper(2000, &db), 5);
    group.bench_function("initial_schedule_2000", |b| {
        let fast = Fast::new();
        b.iter(|| fast.initial_schedule(&dag, 512))
    });
    group.bench_function("full_fast_2000", |b| {
        let fast = Fast::with_config(FastConfig::default());
        b.iter(|| fast.schedule(&dag, 512))
    });
    group.finish();
}

/// Hill-climbing search over `steps` random transfers, one full
/// O(v + e) replay per probe (the pre-incremental driver loop).
fn climb_full_replay(
    dag: &Dag,
    order: &[NodeId],
    mut assignment: Vec<ProcId>,
    blocking: &[NodeId],
    num_procs: u32,
    steps: u32,
    seed: u64,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut ready, mut finish) = (Vec::new(), Vec::new());
    let mut best = evaluate_makespan_into(dag, order, &assignment, &mut ready, &mut finish);
    let mut max_used = assignment.iter().map(|p| p.0).max().unwrap_or(0);
    for _ in 0..steps {
        let node = blocking[rng.gen_range(0..blocking.len())];
        let pool = (max_used + 2).min(num_procs);
        let target = ProcId(rng.gen_range(0..pool));
        let original = assignment[node.index()];
        if target == original {
            continue;
        }
        assignment[node.index()] = target;
        let m = evaluate_makespan_into(dag, order, &assignment, &mut ready, &mut finish);
        if m < best {
            best = m;
            max_used = max_used.max(target.0);
        } else {
            assignment[node.index()] = original;
        }
    }
    best
}

/// The same trajectory through the incremental evaluator: identical
/// RNG stream and (because probe makespans are bit-identical)
/// identical accept/reject decisions.
fn climb_incremental(
    dag: &Dag,
    order: &[NodeId],
    assignment: Vec<ProcId>,
    blocking: &[NodeId],
    num_procs: u32,
    steps: u32,
    seed: u64,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut max_used = assignment.iter().map(|p| p.0).max().unwrap_or(0);
    let mut eval = DeltaEvaluator::new(dag, order.to_vec(), assignment, num_procs);
    let mut best = eval.makespan();
    for _ in 0..steps {
        let node = blocking[rng.gen_range(0..blocking.len())];
        let pool = (max_used + 2).min(num_procs);
        let target = ProcId(rng.gen_range(0..pool));
        if target == eval.assignment()[node.index()] {
            continue;
        }
        match eval.probe_transfer_bounded(dag, node, target, best) {
            Some(m) => {
                best = m;
                max_used = max_used.max(target.0);
                eval.commit();
            }
            None => eval.revert(),
        }
    }
    best
}

/// [`climb_incremental`] with the observability hooks of
/// `Fast`'s traced `run` attached — the instrumented driver loop
/// whose cost the trace-overhead A/B measures. With a default (off)
/// collector it must time the same as [`climb_incremental`].
#[allow(clippy::too_many_arguments)]
fn climb_traced(
    dag: &Dag,
    order: &[NodeId],
    assignment: Vec<ProcId>,
    blocking: &[NodeId],
    num_procs: u32,
    steps: u32,
    seed: u64,
    trace: &mut SearchTrace,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut max_used = assignment.iter().map(|p| p.0).max().unwrap_or(0);
    let mut eval = DeltaEvaluator::new(dag, order.to_vec(), assignment, num_procs);
    let mut best = eval.makespan();
    trace.phase_start("local_search");
    for step in 0..steps {
        let node = blocking[rng.gen_range(0..blocking.len())];
        let pool = (max_used + 2).min(num_procs);
        let target = ProcId(rng.gen_range(0..pool));
        if target == eval.assignment()[node.index()] {
            trace.step_skipped();
            continue;
        }
        trace.probe_attempted();
        match eval.probe_transfer_bounded(dag, node, target, best) {
            Some(m) => {
                best = m;
                max_used = max_used.max(target.0);
                eval.commit();
                trace.probe_accepted(step as u64, best);
            }
            None => {
                eval.revert();
                trace.probe_reverted(step as u64, best);
            }
        }
    }
    trace.absorb_eval(eval.stats());
    trace.phase_end("local_search");
    best
}

/// Minimum seconds of `f` under a default (off) and a recording (on)
/// collector, alternating the modes run by run so machine-load drift
/// hits both sides alike.
fn ab_min_of(runs: u32, mut f: impl FnMut(&mut SearchTrace)) -> (f64, f64) {
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs {
        off = off.min(min_of(1, || f(&mut SearchTrace::default())));
        on = on.min(min_of(1, || f(&mut SearchTrace::recording())));
    }
    (off, on)
}

/// Render one `trace_ab` sub-section: both modes' timings and the
/// relative overhead of recording (`(off − on) / off`, in percent of
/// the off-throughput). `work` is the units per timed run.
fn ab_section(name: &str, (off, on): (f64, f64), work: f64) -> String {
    let line = |secs: f64| format!("\"seconds\": {secs:.6}, \"per_sec\": {:.3}", work / secs);
    format!(
        "\"{name}\": {{\n      \"trace_off\": {{ {} }},\n      \"trace_on\": {{ {} }},\n      \
         \"capture_overhead_percent\": {:.2}\n    }}",
        line(off),
        line(on),
        100.0 * (1.0 - off / on),
    )
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let db = TimingDatabase::paragon();
    let dag = random_layered_dag(&RandomDagConfig::paper(2000, &db), 5);
    let num_procs = 512u32;
    let steps = 8192u32;
    let seed = 0xFA57u64;
    let fast = Fast::new();
    let (_, order, assignment) = fast.initial_schedule(&dag, num_procs);
    let blocking = Fast::blocking_nodes(&dag);

    // Criterion entries for the usual report.
    let mut group = c.benchmark_group("probe_engines_2000");
    group.bench_function("full_replay_64_probes", |b| {
        b.iter(|| {
            climb_full_replay(
                &dag,
                &order,
                assignment.clone(),
                &blocking,
                num_procs,
                64,
                seed,
            )
        })
    });
    group.bench_function("incremental_64_probes", |b| {
        b.iter(|| {
            climb_incremental(
                &dag,
                &order,
                assignment.clone(),
                &blocking,
                num_procs,
                64,
                seed,
            )
        })
    });
    group.finish();

    // One long measured run of each engine over the identical
    // trajectory, dumped as machine-readable throughput numbers.
    let t0 = Instant::now();
    let full_best = climb_full_replay(
        &dag,
        &order,
        assignment.clone(),
        &blocking,
        num_procs,
        steps,
        seed,
    );
    let full_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let incr_best = climb_incremental(
        &dag,
        &order,
        assignment.clone(),
        &blocking,
        num_procs,
        steps,
        seed,
    );
    let incr_secs = t0.elapsed().as_secs_f64();

    assert_eq!(
        full_best, incr_best,
        "engines must walk the same trajectory"
    );

    // The trace-overhead A/B: the instrumented driver loop plus the
    // end-to-end schedulers, each timed with both collector modes.
    let traced_best = climb_traced(
        &dag,
        &order,
        assignment.clone(),
        &blocking,
        num_procs,
        steps,
        seed,
        &mut SearchTrace::recording(),
    );
    assert_eq!(traced_best, incr_best, "instrumentation changed the search");
    let driver = ab_min_of(5, |t| {
        criterion::black_box(climb_traced(
            &dag,
            &order,
            assignment.clone(),
            &blocking,
            num_procs,
            steps,
            seed,
            t,
        ));
    });

    // End-to-end schedulers with the forensics hooks attached —
    // phase 1's candidate/placement provenance and phase 2's transfer
    // records. The search budget is raised to 8192 steps so the hook
    // sites dominate the measured time instead of the one-off list
    // construction.
    let fast_sched = Fast::with_config(FastConfig {
        max_steps: steps,
        ..Default::default()
    });
    let traced = |s: &dyn Scheduler, t: &mut SearchTrace| {
        let ws = &mut Workspace::new();
        criterion::black_box(
            s.run(&dag, num_procs, &Machine::Homogeneous, ws, t)
                .unwrap(),
        );
    };
    let fast = ab_min_of(5, |t| traced(&fast_sched, t));
    let sa_sched = FastSa::with_config(FastSaConfig {
        steps,
        ..Default::default()
    });
    let fast_sa = ab_min_of(3, |t| traced(&sa_sched, t));

    let full_tp = steps as f64 / full_secs;
    let incr_tp = steps as f64 / incr_secs;
    // `per_sec` is probes/s for the driver loop and full schedule
    // runs/s for the end-to-end entries.
    let trace_ab = [
        ab_section("driver", driver, steps as f64),
        ab_section("fast", fast, 1.0),
        ab_section("fast_sa", fast_sa, 1.0),
    ]
    .join(",\n    ");
    let engine =
        |secs: f64, tp: f64| format!("{{ \"seconds\": {secs:.6}, \"probes_per_sec\": {tp:.1} }}");
    for (name, body) in [
        ("dag_nodes", dag.node_count().to_string()),
        ("dag_edges", dag.edge_count().to_string()),
        ("num_procs", num_procs.to_string()),
        ("probes", steps.to_string()),
        ("final_makespan", full_best.to_string()),
        ("full_replay", engine(full_secs, full_tp)),
        ("incremental", engine(incr_secs, incr_tp)),
        ("speedup", format!("{:.2}", incr_tp / full_tp)),
        ("trace_ab", format!("{{\n    {trace_ab}\n  }}")),
    ] {
        write_section(name, &body);
    }
    println!(
        "probe throughput: full {full_tp:.0}/s, incremental {incr_tp:.0}/s ({:.2}x), \
         driver off/on {:.0}/{:.0} probes/s, fast {:.3}/{:.3}s, \
         fast_sa {:.3}/{:.3}s -> {BENCH_EVAL_PATH}",
        incr_tp / full_tp,
        steps as f64 / driver.0,
        steps as f64 / driver.1,
        fast.0,
        fast.1,
        fast_sa.0,
        fast_sa.1,
    );
}

criterion_group!(
    benches,
    bench_probe,
    bench_full_fast,
    bench_incremental_vs_full
);
criterion_main!(benches);
