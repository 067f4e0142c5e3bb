//! Batch-throughput A/B: `schedule_many` (one workspace reused across
//! every DAG) against the per-call `schedule()` API on the identical
//! inputs. Both sides produce byte-identical schedules — asserted per
//! DAG — so the measured gap is pure allocation/warm-up overhead, not
//! a different search.
//!
//! Two rows:
//!
//! * `small_corpus` — the headline: many small DAGs totaling ~2000
//!   nodes, where per-call fixed costs (buffer growth, evaluator
//!   construction) dominate the actual scheduling work. This is the
//!   regime batching exists for.
//! * `large_dag` — honestly labeled: a few 2000-node graphs, where
//!   the O(v + e) search dwarfs the fixed costs and the workspace can
//!   only save the comparatively small allocation slice.
//!
//! A third measurement, `batch_par`, sweeps the sharded
//! `schedule_many_par` over the small corpus at 1/2/4/8 workers:
//! byte-identity against the serial batch is asserted at every worker
//! count, and the host's core count is recorded alongside the timings
//! so a 1-core CI box produces an honest ~1.0x row rather than a
//! fabricated speedup.
//!
//! Timings are the minimum over `RUNS` invocations (machine-load
//! noise only ever inflates a timing). Results land in the `batch`
//! and `batch_par` sections of `BENCH_eval.json` at the workspace
//! root; every other section of the file is preserved.

use fastsched::algorithms::FastConfig;
use fastsched::prelude::*;
use fastsched::schedule::io::to_json;
use fastsched_bench::{min_of, write_section};
use std::hint::black_box;

const RUNS: u32 = 5;

/// Time both APIs over the same DAG list and check byte-identity.
/// Returns `(per_call_seconds, schedule_many_seconds)`.
fn ab(sched: &Fast, dags: &[Dag], procs: u32) -> (f64, f64) {
    let per_call: Vec<Schedule> = dags.iter().map(|d| sched.schedule(d, procs)).collect();
    let batched = schedule_many(sched, dags, procs);
    for (i, (a, b)) in per_call.iter().zip(&batched).enumerate() {
        assert_eq!(
            to_json(a),
            to_json(b),
            "schedule_many diverged from schedule() on DAG {i}"
        );
    }

    let per_call_secs = min_of(RUNS, || {
        for d in dags {
            black_box(sched.schedule(d, procs));
        }
    });
    let many_secs = min_of(RUNS, || {
        black_box(schedule_many(sched, dags, procs));
    });
    (per_call_secs, many_secs)
}

fn row(name: &str, dags: &[Dag], procs: u32, per_call: f64, many: f64) -> String {
    let total_nodes: usize = dags.iter().map(Dag::node_count).sum();
    format!(
        "\"{name}\": {{\n      \"dags\": {}, \"total_nodes\": {total_nodes}, \"procs\": {procs},\n      \
         \"per_call\": {{ \"seconds\": {per_call:.6}, \"dags_per_sec\": {:.1} }},\n      \
         \"schedule_many\": {{ \"seconds\": {many:.6}, \"dags_per_sec\": {:.1} }},\n      \
         \"speedup\": {:.2}\n    }}",
        dags.len(),
        dags.len() as f64 / per_call,
        dags.len() as f64 / many,
        per_call / many,
    )
}

/// Sweep `schedule_many_par` over `threads_list` on the same corpus,
/// asserting element-wise byte-identity against the serial
/// `schedule_many` reference at every worker count. Returns one
/// `(threads, min_seconds)` pair per entry.
fn par_sweep(sched: &Fast, dags: &[Dag], procs: u32, threads_list: &[usize]) -> Vec<(usize, f64)> {
    let reference: Vec<String> = schedule_many(sched, dags, procs)
        .iter()
        .map(to_json)
        .collect();
    threads_list
        .iter()
        .map(|&threads| {
            let sharded = schedule_many_par(sched, dags, procs, threads);
            for (i, s) in sharded.iter().enumerate() {
                assert_eq!(
                    to_json(s),
                    reference[i],
                    "schedule_many_par({threads}) diverged from schedule_many on DAG {i}"
                );
            }
            let secs = min_of(RUNS, || {
                black_box(schedule_many_par(sched, dags, procs, threads));
            });
            (threads, secs)
        })
        .collect()
}

fn main() {
    let db = TimingDatabase::paragon();
    // Headline corpus: 500 small kernels of 2-6 nodes (~2000 nodes
    // total) — the regime batching exists for, where per-call fixed
    // costs dwarf the per-graph scheduling work. The search budget is
    // sized for the graphs (16 random transfers explore a 2-6 node
    // kernel many times over; the paper-default 64 is tuned for the
    // v≥500 workloads) and is identical on both sides of the A/B.
    let small_fast = Fast::with_config(FastConfig {
        max_steps: 16,
        ..Default::default()
    });
    let small: Vec<Dag> = (0..500u64)
        .map(|seed| random_layered_dag(&RandomDagConfig::paper(2 + (seed as usize % 5), &db), seed))
        .collect();
    let (small_per_call, small_many) = ab(&small_fast, &small, 4);

    // Search-dominated regime: 4 × 2000-node graphs, paper defaults.
    let fast = Fast::new();
    let large: Vec<Dag> = (0..4)
        .map(|seed| random_layered_dag(&RandomDagConfig::paper(2000, &db), 100 + seed))
        .collect();
    let (large_per_call, large_many) = ab(&fast, &large, 64);

    // Thread-scaling sweep: the sharded batch over the 500-kernel
    // corpus at 1/2/4/8 workers. Byte-identity against the serial
    // batch is asserted unconditionally; the speedup claim is only
    // checked when the host actually has the cores to show it (a
    // 1-core container runs the sweep honestly at ~1.0x).
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep = par_sweep(&small_fast, &small, 4, &[1, 2, 4, 8]);
    let par_serial = sweep[0].1;
    let par_rows: Vec<String> = sweep
        .iter()
        .map(|&(threads, secs)| {
            format!(
                "{{ \"threads\": {threads}, \"seconds\": {secs:.6}, \"dags_per_sec\": {:.1}, \"speedup\": {:.2} }}",
                small.len() as f64 / secs,
                par_serial / secs,
            )
        })
        .collect();
    if host_cores >= 4 {
        let best = sweep
            .iter()
            .map(|&(_, s)| par_serial / s)
            .fold(0.0f64, f64::max);
        assert!(
            best >= 3.0,
            "expected >= 3x batch speedup on a {host_cores}-core host, got {best:.2}x"
        );
    }

    let section = format!(
        "{{\n    \"algo\": \"{}\", \"runs\": {RUNS}, \"small_corpus_max_steps\": 16,\n    {},\n    {}\n  }}",
        fast.name(),
        row("small_corpus", &small, 4, small_per_call, small_many),
        row("large_dag", &large, 64, large_per_call, large_many),
    );
    let par_section = format!(
        "{{\n    \"algo\": \"{}\", \"runs\": {RUNS}, \"host_cores\": {host_cores},\n    \
         \"dags\": {}, \"total_nodes\": {}, \"procs\": 4,\n    \"sweep\": [\n      {}\n    ]\n  }}",
        fast.name(),
        small.len(),
        small.iter().map(Dag::node_count).sum::<usize>(),
        par_rows.join(",\n      "),
    );

    write_section("batch", &section);
    let path = write_section("batch_par", &par_section);

    println!(
        "small corpus ({} dags, {} nodes): per-call {small_per_call:.4}s, \
         schedule_many {small_many:.4}s ({:.2}x)",
        small.len(),
        small.iter().map(Dag::node_count).sum::<usize>(),
        small_per_call / small_many
    );
    println!(
        "large dags  ({} dags, {} nodes): per-call {large_per_call:.4}s, \
         schedule_many {large_many:.4}s ({:.2}x)",
        large.len(),
        large.iter().map(Dag::node_count).sum::<usize>(),
        large_per_call / large_many
    );
    for &(threads, secs) in &sweep {
        println!(
            "batch_par  t={threads}: {secs:.4}s ({:.1} dags/s, {:.2}x vs t=1, {host_cores} host cores)",
            small.len() as f64 / secs,
            par_serial / secs
        );
    }
    println!("wrote batch + batch_par sections -> {path}");
}
