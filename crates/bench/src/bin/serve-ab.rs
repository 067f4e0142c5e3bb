//! Service-throughput benchmark for `casch serve`: an in-process
//! server driven by the real `loadgen` client over loopback TCP, so
//! the measured numbers include the full protocol cost (JSON parse,
//! admission, queueing, scheduling, response render, socket I/O).
//!
//! Five measurements, all with `--check` semantics (every response is
//! verified byte-for-byte against a local `schedule_into` run; any
//! mismatch aborts the benchmark):
//!
//! * `thread_sweep` — unpaced saturation throughput at 1/2/4/8
//!   workers. The host's core count is recorded alongside, so a
//!   1-core CI box produces an honest flat sweep rather than a
//!   fabricated scaling curve.
//! * `saturation` — the headline: sustained requests/sec at 4 workers
//!   (the ISSUE's acceptance gate), with p50/p99/p999 round-trip
//!   latency at that load. The client-side p999 is cross-checked
//!   against the server's own schedule-phase histogram scraped from
//!   `/metrics.json`.
//! * `latency_vs_load` — p50/p99 at 25/50/75% of the measured
//!   saturation rate, paced open-loop, each load point on a fresh
//!   server so its per-phase histograms describe exactly that load.
//!   The row carries the server-side queue/schedule/serialize/write/
//!   parse/build breakdown scraped after the run.
//! * `metrics_ab` — the same unpaced burst with metrics recording off
//!   vs on (scrape listener up, loadgen scraping `/metrics`
//!   mid-run); best-of-3 each way. Recording rides the request path,
//!   so this is the overhead number the tentpole must keep in the
//!   noise.
//! * `overload` — an unpaced burst against a 4-deep admission queue:
//!   proves load is shed as explicit `overloaded` rejections (never
//!   unbounded buffering) and that accepted work still completes.
//!
//! Results land in `BENCH_serve.json` at the workspace root.

use fastsched::casch::loadgen::{self, CorpusItem, LoadgenConfig};
use fastsched::casch::protocol::{PhaseSnapshot, Response};
use fastsched::casch::serve::{ServeConfig, Server};
use fastsched::casch::ServeSummary;
use fastsched::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

struct Running {
    addr: String,
    maddr: Option<String>,
    join: JoinHandle<ServeSummary>,
    shutdown: Arc<AtomicBool>,
}

/// `metrics: false` is the A/B baseline: no recording and no scrape
/// listener. Everything else runs the production shape — recording on
/// and `/metrics` served from its own loopback port.
fn start(threads: usize, queue_depth: usize, metrics: bool) -> Running {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            threads,
            queue_depth,
            metrics,
            metrics_addr: metrics.then(|| "127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let maddr = server.metrics_addr().map(|a| a.to_string());
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    Running {
        addr,
        maddr,
        join,
        shutdown,
    }
}

fn stop(server: Running) -> ServeSummary {
    server.shutdown.store(true, Ordering::SeqCst);
    server.join.join().expect("server thread")
}

/// Drive `server` with the corpus; checking is always on. Paced runs
/// warm up by time; unpaced bursts send everything near-instantly, so
/// their warmup is a separate discarded burst (see callers). With
/// `scrape`, loadgen fetches `/metrics` mid-run — the scrape cost
/// lands inside the measured window, as it would in production.
fn drive(
    server: &Running,
    dags: &[Dag],
    rate: f64,
    total: Option<u64>,
    duration_s: f64,
    scrape: bool,
) -> loadgen::LoadReport {
    let report = loadgen::run(&LoadgenConfig {
        addr: server.addr.clone(),
        corpus: dags
            .iter()
            .enumerate()
            .map(|(i, dag)| CorpusItem {
                name: format!("corpus-{i}"),
                dag: dag.clone(),
            })
            .collect(),
        algo: "fast".to_string(),
        procs: Some(8),
        rate,
        total,
        duration_s,
        warmup_s: if rate > 0.0 { 0.25 } else { 0.0 },
        conns: 2,
        check: true,
        metrics_addr: if scrape { server.maddr.clone() } else { None },
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");
    assert_eq!(
        report.mismatches, 0,
        "service responses diverged from schedule_into"
    );
    if scrape {
        let page = report
            .metrics_scrape
            .as_deref()
            .expect("mid-run scrape requested but missing");
        assert!(
            page.contains("# TYPE casch_requests_total counter"),
            "mid-run /metrics page is not a valid exposition"
        );
    }
    report
}

/// The server's own phase breakdown, via the JSON twin of `/metrics`.
fn scrape_phases(server: &Running) -> Vec<PhaseSnapshot> {
    let maddr = server.maddr.as_deref().expect("metrics listener");
    let body = loadgen::scrape_metrics(maddr, "/metrics.json", 2.0).expect("scrape /metrics.json");
    match Response::parse(body.trim_end()).expect("parse /metrics.json") {
        Response::Stats(s) => s.phases,
        other => panic!("unexpected /metrics.json payload: {other:?}"),
    }
}

fn phases_json(phases: &[PhaseSnapshot]) -> String {
    let inner: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "\"{}\": {{ \"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"p999_us\": {}, \"mean_us\": {} }}",
                p.phase, p.count, p.p50_us, p.p99_us, p.p999_us, p.mean_us
            )
        })
        .collect();
    format!("{{ {} }}", inner.join(", "))
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let db = TimingDatabase::paragon();
    // The batch-ab small-kernel regime: many small DAGs, where
    // per-request fixed costs (protocol + queue + dispatch) are an
    // honest share of the work.
    let dags: Vec<Dag> = (0..200u64)
        .map(|seed| random_layered_dag(&RandomDagConfig::paper(2 + (seed as usize % 5), &db), seed))
        .collect();
    let total_nodes: usize = dags.iter().map(Dag::node_count).sum();

    // Thread sweep: unpaced saturation at each worker count.
    let mut sweep_rows = Vec::new();
    let mut saturation_at_4 = 0.0f64;
    let mut sat_report = None;
    let mut sat_phases = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        let server = start(threads, 1024, true);
        // Discarded warm-up burst: grows every worker's workspace to
        // the corpus's peak before the measured run.
        drive(&server, &dags, 0.0, Some(500), 0.0, false);
        let report = drive(&server, &dags, 0.0, Some(4000), 0.0, false);
        let phases = scrape_phases(&server);
        let summary = stop(server);
        // `ok` counts post-warmup requests. An unpaced probe may
        // legitimately overflow even a 1024-deep queue (that's what
        // saturation means); what must hold is that nothing vanishes
        // and nothing fails for any other reason.
        assert!(report.ok > 0, "saturation probe produced no successes");
        assert_eq!(report.unanswered, 0);
        assert_eq!(report.errors, 0);
        assert_eq!(report.ok + report.rejected + report.timeouts, report.sent);
        assert!(summary.rejected >= report.rejected);
        eprintln!(
            "threads {threads}: {:.0} req/s (p50 {} us, p99 {} us, p999 {} us, {} rejected)",
            report.achieved_rps, report.p50_us, report.p99_us, report.p999_us, report.rejected
        );
        sweep_rows.push(format!(
            "{{ \"threads\": {threads}, \"achieved_rps\": {:.1}, \"p50_us\": {}, \
             \"p99_us\": {}, \"p999_us\": {}, \"rejected\": {} }}",
            report.achieved_rps, report.p50_us, report.p99_us, report.p999_us, report.rejected
        ));
        if threads == 4 {
            saturation_at_4 = report.achieved_rps;
            sat_phases = phases;
            sat_report = Some(report);
        }
    }
    let sat_report = sat_report.expect("4-thread sweep point");

    // Cross-check: the server's schedule-phase p999 must sit at or
    // below the client round-trip p999 (which adds queueing, two
    // socket hops, and render), up to bucket resolution slack.
    let schedule = sat_phases
        .iter()
        .find(|p| p.phase == "schedule")
        .expect("schedule phase in scrape");
    assert!(schedule.count > 0 && sat_report.p999_us > 0);
    assert!(
        schedule.p999_us <= sat_report.p999_us.saturating_mul(2).saturating_add(1000),
        "server schedule p999 {} us implausibly above client round-trip p999 {} us",
        schedule.p999_us,
        sat_report.p999_us
    );

    // Latency at fractions of saturation, paced, 4 workers. Each load
    // point gets a fresh server so the scraped phase histograms
    // describe that load alone (no warm burst: pacing itself warms).
    let mut load_rows = Vec::new();
    for frac in [0.25f64, 0.5, 0.75] {
        let rate = saturation_at_4 * frac;
        let server = start(4, 1024, true);
        let report = drive(&server, &dags, rate, None, 1.5, false);
        let phases = scrape_phases(&server);
        stop(server);
        eprintln!(
            "offered {rate:.0} req/s: achieved {:.0}, p50 {} us, p99 {} us",
            report.achieved_rps, report.p50_us, report.p99_us
        );
        load_rows.push(format!(
            "{{ \"offered_rps\": {rate:.1}, \"achieved_rps\": {:.1}, \"p50_us\": {}, \
             \"p99_us\": {}, \"p999_us\": {}, \"rejected\": {}, \"phases\": {} }}",
            report.achieved_rps,
            report.p50_us,
            report.p99_us,
            report.p999_us,
            report.rejected,
            phases_json(&phases)
        ));
    }

    // Metrics A/B: the identical unpaced burst with recording off vs
    // on (plus a mid-run scrape on the "on" arm). Best-of-3 each way
    // shakes out scheduler noise; the gate is generous because an
    // unpaced loopback burst is itself noisy.
    let mut off_rps = 0.0f64;
    let mut on_rps = 0.0f64;
    for _ in 0..3 {
        let server = start(4, 1024, false);
        drive(&server, &dags, 0.0, Some(500), 0.0, false);
        let report = drive(&server, &dags, 0.0, Some(4000), 0.0, false);
        stop(server);
        off_rps = off_rps.max(report.achieved_rps);

        let server = start(4, 1024, true);
        drive(&server, &dags, 0.0, Some(500), 0.0, false);
        let report = drive(&server, &dags, 0.0, Some(4000), 0.0, true);
        stop(server);
        on_rps = on_rps.max(report.achieved_rps);
    }
    eprintln!(
        "metrics a/b: off {off_rps:.0} req/s, on {on_rps:.0} req/s ({:.1}% of off)",
        100.0 * on_rps / off_rps
    );
    assert!(
        on_rps >= off_rps * 0.7,
        "metrics recording cost is out of the noise band: {on_rps:.0} vs {off_rps:.0} req/s"
    );

    // Overload: an unpaced burst against a tiny admission queue must
    // shed load explicitly, and everything admitted must complete.
    let server = start(4, 4, true);
    drive(&server, &dags, 0.0, Some(500), 0.0, false);
    let overload = drive(&server, &dags, 0.0, Some(4000), 0.0, false);
    let summary = stop(server);
    assert!(
        overload.rejected > 0,
        "a 4-deep queue under an unpaced burst must reject"
    );
    assert_eq!(
        overload.ok + overload.rejected + overload.timeouts + overload.errors,
        overload.sent,
        "every request gets exactly one response"
    );
    // Server-side rejections must match what the client observed over
    // the whole run (warmup included).
    assert!(summary.rejected >= overload.rejected);
    eprintln!(
        "overload: {} ok, {} rejected of {} sent",
        overload.ok, overload.rejected, overload.sent
    );

    let json = format!(
        "{{\n  \"_meta\": {{\n    \"generated_by\": \"serve-ab\",\n    \"host_cores\": {host_cores},\n    \
         \"corpus\": {{ \"dags\": {}, \"total_nodes\": {total_nodes}, \"algo\": \"fast\", \"procs\": 8 }},\n    \
         \"checked\": true,\n    \"note\": \"loopback TCP, 2 connections, responses verified byte-identical to schedule_into; thread scaling is only visible when host_cores > 1; phases are server-side microseconds from /metrics.json\"\n  }},\n  \
         \"saturation\": {{ \"threads\": 4, \"rps\": {saturation_at_4:.1}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"phases\": {} }},\n  \
         \"thread_sweep\": [\n    {}\n  ],\n  \"latency_vs_load\": [\n    {}\n  ],\n  \
         \"metrics_ab\": {{ \"best_of\": 3, \"burst\": 4000, \"off_rps\": {off_rps:.1}, \"on_rps\": {on_rps:.1}, \"on_over_off\": {:.3} }},\n  \
         \"overload\": {{ \"queue_depth\": 4, \"sent\": {}, \"ok\": {}, \"rejected\": {}, \"timeouts\": {} }}\n}}\n",
        dags.len(),
        sat_report.p50_us,
        sat_report.p99_us,
        sat_report.p999_us,
        phases_json(&sat_phases),
        sweep_rows.join(",\n    "),
        load_rows.join(",\n    "),
        on_rps / off_rps,
        overload.sent,
        overload.ok,
        overload.rejected,
        overload.timeouts,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    eprintln!("wrote BENCH_serve.json (saturation at 4 workers: {saturation_at_4:.0} req/s)");
}
