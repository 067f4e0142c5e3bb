//! End-to-end tests for `casch serve`: a real server on a loopback
//! port, real sockets, and responses checked byte-for-byte against
//! the in-process `schedule_into` path the service wraps.

use fastsched_algorithms::{HeftHetero, ProcessorSpeeds, Workspace};
use fastsched_casch::loadgen::{self, CorpusItem, LoadgenConfig};
use fastsched_casch::protocol::{
    placements_json, placements_of, CommSpec, Request, Response, ScheduleRequest,
};
use fastsched_casch::serve::{scheduler_by_name, ServeConfig, Server};
use fastsched_casch::ServeSummary;
use fastsched_dag::examples::{chain, fork_join, paper_figure1};
use fastsched_dag::io::DagSpec;
use fastsched_dag::Dag;
use fastsched_schedule::{Machine, Schedule};
use fastsched_trace::SearchTrace;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The in-process answer the server must match: `algo` on `machine`
/// through the one entry point.
fn run_on(algo: &str, dag: &Dag, procs: u32, machine: impl Into<Machine>) -> Schedule {
    let scheduler = scheduler_by_name(algo).expect("algo");
    let (ws, trace) = (&mut Workspace::new(), &mut SearchTrace::default());
    let result = scheduler.run(dag, procs, &machine.into(), ws, trace);
    result.expect("schedulable")
}

/// Bind on a free loopback port and run the server on its own thread.
fn start_server(config: ServeConfig) -> (SocketAddr, JoinHandle<ServeSummary>, Arc<AtomicBool>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, join, shutdown)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

/// Read exactly `n` response lines (responses may arrive out of
/// order; callers index the result by id).
fn read_responses(reader: &mut impl BufRead, n: usize) -> Vec<Response> {
    let mut out = Vec::with_capacity(n);
    let mut line = String::new();
    while out.len() < n {
        line.clear();
        let read = reader.read_line(&mut line).expect("read response line");
        assert!(
            read > 0,
            "server closed early: got {}/{n} responses",
            out.len()
        );
        out.push(Response::parse(line.trim_end()).expect("parse response"));
    }
    out
}

fn small_corpus() -> Vec<Dag> {
    vec![paper_figure1(), fork_join(8, 5, 3), chain(10, 4, 2)]
}

#[test]
fn responses_are_byte_identical_to_schedule_into() {
    let (addr, join, shutdown) = start_server(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let corpus = small_corpus();
    let total = 12u64;

    let mut stream = connect(addr);
    let mut request_lines = String::new();
    for id in 1..=total {
        let dag = &corpus[(id - 1) as usize % corpus.len()];
        let mut req = ScheduleRequest::new(id, DagSpec::from_dag(dag));
        req.procs = Some(4);
        request_lines.push_str(&req.to_line());
        request_lines.push('\n');
    }
    stream
        .write_all(request_lines.as_bytes())
        .expect("send pipelined requests");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses = read_responses(&mut reader, total as usize);

    // Local reference: the exact API the server claims to expose.
    let fast = scheduler_by_name("fast").expect("fast");
    let mut ws = Workspace::new();
    let mut by_id: HashMap<u64, _> = HashMap::new();
    for resp in responses {
        match resp {
            Response::Schedule(r) => {
                by_id.insert(r.id, r);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(
        by_id.len(),
        total as usize,
        "every id answered exactly once"
    );
    for id in 1..=total {
        let dag = &corpus[(id - 1) as usize % corpus.len()];
        let expected = fast.schedule_into(dag, 4, &mut ws);
        let got = &by_id[&id];
        assert_eq!(got.makespan, expected.makespan(), "makespan for id {id}");
        assert_eq!(
            placements_json(&got.placements),
            placements_json(&placements_of(&expected)),
            "placements for id {id}"
        );
        assert_eq!(got.procs, 4);
        assert_eq!(got.algo, "FAST");
    }

    shutdown.store(true, Ordering::SeqCst);
    let summary = join.join().expect("server thread");
    assert_eq!(summary.completed, total);
    assert_eq!(summary.rejected, 0);
}

#[test]
fn comm_requests_run_the_model_path_and_bad_specs_are_rejected() {
    use fastsched_schedule::{AlphaBeta, CommModel, Hierarchical, IDEAL_LINK};
    let (addr, join, shutdown) = start_server(ServeConfig {
        threads: 1,
        max_groups: 4,
        ..ServeConfig::default()
    });
    let dag = paper_figure1();
    let spec = DagSpec::from_dag(&dag);

    // 1: α–β over ETF. 2: hierarchical over FAST (procs from the
    // table). 3: α–β identity over FAST — must be byte-identical to
    // the plain homogeneous response. 4–7: rejected at parse time
    // (group cap, comm+speeds, model-less algo, procs mismatch).
    let mut reqs: Vec<ScheduleRequest> = Vec::new();
    let mut r1 = ScheduleRequest::new(1, spec.clone());
    r1.algo = "etf".into();
    r1.procs = Some(4);
    r1.comm = Some(CommSpec::AlphaBeta {
        alpha: 20,
        beta_num: 3,
        beta_den: 2,
    });
    reqs.push(r1);
    let mut r2 = ScheduleRequest::new(2, spec.clone());
    r2.comm = Some(CommSpec::Hier {
        groups: vec![2, 2],
        intra: [0, 1, 1],
        inter: [40, 2, 1],
    });
    reqs.push(r2);
    let mut r3 = ScheduleRequest::new(3, spec.clone());
    r3.procs = Some(4);
    r3.comm = Some(CommSpec::AlphaBeta {
        alpha: 0,
        beta_num: 1,
        beta_den: 1,
    });
    reqs.push(r3);
    let mut r4 = ScheduleRequest::new(4, spec.clone());
    r4.comm = Some(CommSpec::Hier {
        groups: vec![1; 5],
        intra: [0, 1, 1],
        inter: [1, 1, 1],
    });
    reqs.push(r4);
    let mut r5 = ScheduleRequest::new(5, spec.clone());
    r5.algo = "heft".into();
    r5.speeds = Some(vec![100, 50]);
    r5.comm = Some(CommSpec::Ideal);
    reqs.push(r5);
    let mut r6 = ScheduleRequest::new(6, spec.clone());
    r6.algo = "dsc".into();
    r6.comm = Some(CommSpec::Ideal);
    reqs.push(r6);
    let mut r7 = ScheduleRequest::new(7, spec.clone());
    r7.procs = Some(9);
    r7.comm = Some(CommSpec::Hier {
        groups: vec![2, 2],
        intra: [0, 1, 1],
        inter: [1, 1, 1],
    });
    reqs.push(r7);

    let mut stream = connect(addr);
    let mut lines = String::new();
    for r in &reqs {
        lines.push_str(&r.to_line());
        lines.push('\n');
    }
    stream.write_all(lines.as_bytes()).expect("send requests");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut by_id: HashMap<u64, Response> = HashMap::new();
    for resp in read_responses(&mut reader, reqs.len()) {
        let id = match &resp {
            Response::Schedule(r) => r.id,
            Response::Error { id, .. } => *id,
            other => panic!("unexpected response: {other:?}"),
        };
        by_id.insert(id, resp);
    }

    let ab = CommModel::AlphaBeta(AlphaBeta::new(20, 3, 2));
    let expected = run_on("etf", &dag, 4, ab);
    match &by_id[&1] {
        Response::Schedule(r) => {
            assert_eq!(r.algo, "ETF");
            assert_eq!(r.makespan, expected.makespan());
            assert_eq!(
                placements_json(&r.placements),
                placements_json(&placements_of(&expected))
            );
        }
        other => panic!("id 1: {other:?}"),
    }

    let hier = CommModel::Hierarchical(
        Hierarchical::from_group_sizes(&[2, 2], IDEAL_LINK, AlphaBeta::new(40, 2, 1))
            .expect("hier"),
    );
    let expected = run_on("fast", &dag, 4, hier);
    match &by_id[&2] {
        Response::Schedule(r) => {
            assert_eq!(r.procs, 4, "procs fixed by the group table");
            assert_eq!(r.makespan, expected.makespan());
            assert_eq!(
                placements_json(&r.placements),
                placements_json(&placements_of(&expected))
            );
        }
        other => panic!("id 2: {other:?}"),
    }

    // The identity model must reproduce the homogeneous path's bytes.
    let mut ws = Workspace::new();
    let plain = scheduler_by_name("fast")
        .expect("fast")
        .schedule_into(&dag, 4, &mut ws);
    match &by_id[&3] {
        Response::Schedule(r) => {
            assert_eq!(r.makespan, plain.makespan());
            assert_eq!(
                placements_json(&r.placements),
                placements_json(&placements_of(&plain)),
                "alpha-beta(0,1,1) must be byte-identical to homogeneous"
            );
        }
        other => panic!("id 3: {other:?}"),
    }

    for (id, needle) in [
        (4, "group limit"),
        (5, "cannot be combined"),
        (6, "no communication-model path"),
        (7, "disagrees with the hier group table"),
    ] {
        match &by_id[&id] {
            Response::Error { error, .. } => {
                assert!(error.starts_with("parse:"), "id {id}: {error}");
                assert!(error.contains(needle), "id {id}: {error}");
            }
            other => panic!("id {id}: expected error, got {other:?}"),
        }
    }

    shutdown.store(true, Ordering::SeqCst);
    let summary = join.join().expect("server thread");
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.malformed, 4);
}

#[test]
fn mem_caps_requests_run_the_memory_path_and_bad_combos_are_rejected() {
    use fastsched_dag::DagBuilder;
    use fastsched_schedule::{CommModel, MemCapsSpec, MemoryCapacities};
    let (addr, join, shutdown) = start_server(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    // Four independent 6-byte tasks: a 12-byte budget fits exactly two
    // per processor, so memory-aware FAST must use at least two lanes.
    let mut b = DagBuilder::new();
    for _ in 0..4 {
        b.add_task_with_mem(10, 6);
    }
    let dag = b.build().expect("dag");
    let spec = DagSpec::from_dag(&dag);

    // 1: uniform caps over FAST. 2: per-proc caps fix the processor
    // count. 3: unbounded caps must be byte-identical to the plain
    // homogeneous response. 4–7: rejected at parse time (speeds
    // combo, memory-blind algo, procs mismatch, per-proc table above
    // the server cap).
    let mut reqs: Vec<ScheduleRequest> = Vec::new();
    let mut r1 = ScheduleRequest::new(1, spec.clone());
    r1.procs = Some(2);
    r1.mem_caps = Some(MemCapsSpec::Uniform(12));
    reqs.push(r1);
    let mut r2 = ScheduleRequest::new(2, spec.clone());
    r2.mem_caps = Some(MemCapsSpec::PerProc(vec![12, 12, 12]));
    reqs.push(r2);
    let mut r3 = ScheduleRequest::new(3, spec.clone());
    r3.procs = Some(4);
    r3.mem_caps = Some(MemCapsSpec::Uniform(u64::MAX));
    reqs.push(r3);
    let mut r4 = ScheduleRequest::new(4, spec.clone());
    r4.algo = "heft".into();
    r4.speeds = Some(vec![100, 50]);
    r4.mem_caps = Some(MemCapsSpec::Uniform(12));
    reqs.push(r4);
    let mut r5 = ScheduleRequest::new(5, spec.clone());
    r5.algo = "etf".into();
    r5.mem_caps = Some(MemCapsSpec::Uniform(12));
    reqs.push(r5);
    let mut r6 = ScheduleRequest::new(6, spec.clone());
    r6.procs = Some(4);
    r6.mem_caps = Some(MemCapsSpec::PerProc(vec![12, 12]));
    reqs.push(r6);
    let mut r7 = ScheduleRequest::new(7, spec.clone());
    r7.mem_caps = Some(MemCapsSpec::PerProc(vec![12; 100_000]));
    reqs.push(r7);

    let mut stream = connect(addr);
    let mut lines = String::new();
    for r in &reqs {
        lines.push_str(&r.to_line());
        lines.push('\n');
    }
    stream.write_all(lines.as_bytes()).expect("send requests");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut by_id: HashMap<u64, Response> = HashMap::new();
    for resp in read_responses(&mut reader, reqs.len()) {
        let id = match &resp {
            Response::Schedule(r) => r.id,
            Response::Error { id, .. } => *id,
            other => panic!("unexpected response: {other:?}"),
        };
        by_id.insert(id, resp);
    }

    let capped = MemoryCapacities::uniform(CommModel::Ideal, 12, 2);
    let expected = run_on("fast", &dag, 2, capped);
    match &by_id[&1] {
        Response::Schedule(r) => {
            assert_eq!(r.algo, "FAST");
            assert_eq!(r.makespan, expected.makespan());
            assert_eq!(
                placements_json(&r.placements),
                placements_json(&placements_of(&expected))
            );
            // Two lanes of two 6-byte tasks each: the capacity split
            // is visible in the answer.
            let lanes: std::collections::HashSet<u32> =
                r.placements.iter().map(|&(p, _, _)| p).collect();
            assert!(lanes.len() >= 2, "cap 12 cannot hold all four tasks");
        }
        other => panic!("id 1: {other:?}"),
    }

    let capped = MemoryCapacities::new(CommModel::Ideal, vec![12, 12, 12]);
    let expected = run_on("fast", &dag, 3, capped);
    match &by_id[&2] {
        Response::Schedule(r) => {
            assert_eq!(r.procs, 3, "procs fixed by the mem_caps table");
            assert_eq!(r.makespan, expected.makespan());
            assert_eq!(
                placements_json(&r.placements),
                placements_json(&placements_of(&expected))
            );
        }
        other => panic!("id 2: {other:?}"),
    }

    // An unbounded budget must reproduce the homogeneous path's bytes.
    let mut ws = Workspace::new();
    let plain = scheduler_by_name("fast")
        .expect("fast")
        .schedule_into(&dag, 4, &mut ws);
    match &by_id[&3] {
        Response::Schedule(r) => {
            assert_eq!(r.makespan, plain.makespan());
            assert_eq!(
                placements_json(&r.placements),
                placements_json(&placements_of(&plain)),
                "a never-binding budget must be byte-identical to homogeneous"
            );
        }
        other => panic!("id 3: {other:?}"),
    }

    for (id, needle) in [
        (4, "cannot be combined with `speeds`"),
        (5, "no memory-aware path"),
        (6, "disagrees with `mem_caps` length"),
        (7, "above the server's processor limit"),
    ] {
        match &by_id[&id] {
            Response::Error { error, .. } => {
                assert!(error.starts_with("parse:"), "id {id}: {error}");
                assert!(error.contains(needle), "id {id}: {error}");
            }
            other => panic!("id {id}: expected error, got {other:?}"),
        }
    }

    shutdown.store(true, Ordering::SeqCst);
    let summary = join.join().expect("server thread");
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.malformed, 4);
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    let (addr, join, shutdown) = start_server(ServeConfig::default());
    let mut stream = connect(addr);

    // Three bad lines, then one good request: the errors must not
    // poison the connection.
    let good = ScheduleRequest::new(4, DagSpec::from_dag(&paper_figure1()));
    let batch = format!(
        "this is not json\n{{\"op\":\"bogus\"}}\n{{\"op\":\"schedule\",\"id\":3}}\n{}\n",
        good.to_line()
    );
    stream.write_all(batch.as_bytes()).expect("send");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses = read_responses(&mut reader, 4);
    let mut errors = 0;
    let mut ok = 0;
    for resp in responses {
        match resp {
            Response::Error { id, error } => {
                errors += 1;
                assert!(
                    error.starts_with("parse:"),
                    "error vocabulary: got `{error}` for id {id}"
                );
                // Ids 1 and 2 fall back to the line number; id 3 is
                // taken from the request.
                assert!((1..=3).contains(&id), "unexpected error id {id}");
            }
            Response::Schedule(r) => {
                ok += 1;
                assert_eq!(r.id, 4);
                assert_eq!(r.makespan, 18, "paper figure 1 FAST makespan");
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!((errors, ok), (3, 1));

    shutdown.store(true, Ordering::SeqCst);
    let summary = join.join().expect("server thread");
    assert_eq!(summary.malformed, 3);
    assert_eq!(summary.completed, 1);
}

#[test]
fn deeply_nested_lines_are_parse_errors_not_crashes() {
    // Unbounded recursion over 200 000 open brackets would overflow a
    // connection thread's stack and abort the whole server.
    let (addr, join, shutdown) = start_server(ServeConfig::default());
    let mut stream = connect(addr);
    let deep = "[".repeat(200_000);
    let good = ScheduleRequest::new(3, DagSpec::from_dag(&chain(3, 2, 1)));
    let batch = format!("{deep}\n{{\"id\":2,\"dag\":{deep}\n{}\n", good.to_line());
    stream.write_all(batch.as_bytes()).expect("send");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut by_id: Vec<(u64, Result<u64, String>)> = read_responses(&mut reader, 3)
        .into_iter()
        .map(|resp| match resp {
            Response::Error { id, error } => (id, Err(error)),
            Response::Schedule(r) => (r.id, Ok(r.makespan)),
            other => panic!("unexpected response: {other:?}"),
        })
        .collect();
    by_id.sort_by_key(|(id, _)| *id);
    assert_eq!(by_id.len(), 3);
    for (id, answer) in &by_id[..2] {
        let error = answer.as_ref().expect_err("deep line must fail");
        assert!(error.starts_with("parse:"), "id {id}: {error}");
    }
    assert_eq!(by_id[2].0, 3);
    assert!(by_id[2].1.is_ok(), "follow-up request answered");

    shutdown.store(true, Ordering::SeqCst);
    let summary = join.join().expect("server thread");
    assert_eq!((summary.malformed, summary.completed), (2, 1));
}

#[test]
fn oversized_lines_are_rejected_without_buffering_them() {
    let (addr, join, shutdown) = start_server(ServeConfig {
        max_line_bytes: 256,
        ..ServeConfig::default()
    });
    let mut stream = connect(addr);
    let huge = format!("{}\n", "x".repeat(100_000));
    stream.write_all(huge.as_bytes()).expect("send oversized");
    // The connection survives; a normal request still works.
    let good = ScheduleRequest::new(7, DagSpec::from_dag(&chain(3, 2, 1)));
    stream
        .write_all(format!("{}\n", good.to_line()).as_bytes())
        .expect("send follow-up");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses = read_responses(&mut reader, 2);
    let mut saw_too_long = false;
    let mut saw_ok = false;
    for resp in responses {
        match resp {
            Response::Error { error, .. } => {
                assert!(error.contains("line exceeds 256 bytes"), "got `{error}`");
                saw_too_long = true;
            }
            Response::Schedule(r) => {
                assert_eq!(r.id, 7);
                saw_ok = true;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(saw_too_long && saw_ok);

    shutdown.store(true, Ordering::SeqCst);
    join.join().expect("server thread");
}

#[test]
fn oversized_procs_and_speeds_are_rejected_not_allocated() {
    // Schedulers allocate O(procs) scratch, so a hostile processor
    // count must die at validation — with a tiny cap the limit falls
    // back to the DAG's own node count (9 for paper figure 1).
    let (addr, join, shutdown) = start_server(ServeConfig {
        max_procs: 8,
        ..ServeConfig::default()
    });
    let mut stream = connect(addr);

    let mut huge = ScheduleRequest::new(1, DagSpec::from_dag(&paper_figure1()));
    huge.procs = Some(u32::MAX);
    let mut wide = ScheduleRequest::new(2, DagSpec::from_dag(&paper_figure1()));
    wide.algo = "heft".to_string();
    wide.speeds = Some(vec![100; 64]);
    // Up to the node count always fits, whatever the cap — and the
    // connection survives the two rejections.
    let mut good = ScheduleRequest::new(3, DagSpec::from_dag(&paper_figure1()));
    good.procs = Some(9);
    let batch = format!(
        "{}\n{}\n{}\n",
        huge.to_line(),
        wide.to_line(),
        good.to_line()
    );
    stream.write_all(batch.as_bytes()).expect("send");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut by_id: HashMap<u64, Response> = HashMap::new();
    for resp in read_responses(&mut reader, 3) {
        let id = match &resp {
            Response::Schedule(r) => r.id,
            Response::Error { id, .. } => *id,
            other => panic!("unexpected response: {other:?}"),
        };
        by_id.insert(id, resp);
    }
    for id in [1u64, 2] {
        match &by_id[&id] {
            Response::Error { error, .. } => {
                assert!(
                    error.starts_with("parse:") && error.contains("exceeds"),
                    "id {id}: got `{error}`"
                );
            }
            other => panic!("id {id}: expected rejection, got {other:?}"),
        }
    }
    match &by_id[&3] {
        Response::Schedule(r) => assert_eq!(r.makespan, 18, "paper figure 1 FAST makespan"),
        other => panic!("id 3: expected a schedule, got {other:?}"),
    }

    shutdown.store(true, Ordering::SeqCst);
    let summary = join.join().expect("server thread");
    assert_eq!(summary.malformed, 2);
    assert_eq!(summary.completed, 1);
}

#[test]
fn excess_load_is_rejected_as_overloaded_not_buffered() {
    // One worker, one queue slot, and requests whose scheduling cost
    // (ETF over many processors) dwarfs their parse cost: the queue
    // must fill and admission control must answer `overloaded`.
    let (addr, join, shutdown) = start_server(ServeConfig {
        threads: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let dag = fork_join(400, 50, 20);
    let total = 24u64;

    let mut stream = connect(addr);
    let mut burst = String::new();
    for id in 1..=total {
        let mut req = ScheduleRequest::new(id, DagSpec::from_dag(&dag));
        req.algo = "etf".to_string();
        req.procs = Some(64);
        burst.push_str(&req.to_line());
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).expect("send burst");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses = read_responses(&mut reader, total as usize);
    let mut ok = 0u64;
    let mut overloaded = 0u64;
    for resp in responses {
        match resp {
            Response::Schedule(_) => ok += 1,
            Response::Error { error, .. } => {
                assert_eq!(error, "overloaded", "only overload errors expected");
                overloaded += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(ok + overloaded, total);
    assert!(ok >= 2, "worker + queue slot must still serve: ok={ok}");
    assert!(
        overloaded > 0,
        "a 1-deep queue under a {total}-request burst must shed load"
    );

    shutdown.store(true, Ordering::SeqCst);
    let summary = join.join().expect("server thread");
    assert_eq!(summary.rejected, overloaded);
    assert_eq!(summary.completed, ok);
}

#[test]
fn stats_and_shutdown_requests_work_over_the_wire() {
    let (addr, join, _shutdown) = start_server(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let total = 6u64;

    let mut stream = connect(addr);
    for id in 1..=total {
        let req = ScheduleRequest::new(id, DagSpec::from_dag(&paper_figure1()));
        stream
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .expect("send");
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    read_responses(&mut reader, total as usize);

    // The response write happens just before the counter update, so
    // poll the stats until the last completion lands.
    let mut snap = None;
    for _ in 0..200 {
        stream
            .write_all(format!("{}\n", Request::Stats { id: 99 }.to_line()).as_bytes())
            .expect("send stats");
        match read_responses(&mut reader, 1).remove(0) {
            Response::Stats(s) => {
                if s.completed == total {
                    snap = Some(s);
                    break;
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = snap.expect("stats never reached the completed count");
    assert_eq!(snap.id, 99);
    assert_eq!(snap.threads, 2);
    assert_eq!(snap.accepted, total);
    assert_eq!(snap.rejected, 0);
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.workers.len(), 2);
    let per_worker: u64 = snap.workers.iter().map(|w| w.requests).sum();
    assert_eq!(per_worker, total);

    // Graceful shutdown over the wire: the ack carries the completed
    // total and the server run loop exits.
    stream
        .write_all(format!("{}\n", Request::Shutdown { id: 100 }.to_line()).as_bytes())
        .expect("send shutdown");
    match read_responses(&mut reader, 1).remove(0) {
        Response::Shutdown { id, completed } => {
            assert_eq!(id, 100);
            assert_eq!(completed, total);
        }
        other => panic!("unexpected response: {other:?}"),
    }
    let summary = join.join().expect("server thread");
    assert_eq!(summary.completed, total);
    assert_eq!(summary.connections, 1);
}

#[test]
fn heterogeneous_requests_run_heft_over_speeds() {
    let (addr, join, shutdown) = start_server(ServeConfig::default());
    let dag = paper_figure1();

    let mut req = ScheduleRequest::new(1, DagSpec::from_dag(&dag));
    req.algo = "heft".to_string();
    req.speeds = Some(vec![100, 50, 25]);
    let mut stream = connect(addr);
    stream
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let resp = read_responses(&mut reader, 1).remove(0);

    let expected = HeftHetero::new(ProcessorSpeeds::new(vec![100, 50, 25])).schedule(&dag);
    match resp {
        Response::Schedule(r) => {
            assert_eq!(r.procs, 3);
            assert_eq!(r.algo, "HEFT-hetero");
            assert_eq!(r.makespan, expected.makespan());
            assert_eq!(
                placements_json(&r.placements),
                placements_json(&placements_of(&expected))
            );
        }
        other => panic!("unexpected response: {other:?}"),
    }

    shutdown.store(true, Ordering::SeqCst);
    join.join().expect("server thread");
}

#[test]
fn loadgen_under_load_sees_zero_mismatches() {
    let (addr, join, _shutdown) = start_server(ServeConfig {
        threads: 4,
        queue_depth: 1024,
        ..ServeConfig::default()
    });

    let report = loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        corpus: small_corpus()
            .into_iter()
            .enumerate()
            .map(|(i, dag)| CorpusItem {
                name: format!("corpus-{i}"),
                dag,
            })
            .collect(),
        algo: "fast".to_string(),
        procs: Some(8),
        rate: 0.0, // unpaced: as fast as the sockets go
        total: Some(300),
        conns: 2,
        check: true,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");

    assert_eq!(report.sent, 300);
    assert_eq!(report.ok, 300, "queue depth 1024 admits the whole run");
    assert_eq!(
        report.mismatches, 0,
        "service output must equal schedule_into"
    );
    assert_eq!(report.unanswered, 0);
    assert_eq!(report.rejected + report.timeouts + report.errors, 0);
    assert!(report.p50_us > 0 || report.ok == 0);

    let ack = loadgen::request_once(&addr.to_string(), &Request::Shutdown { id: 1 }, 5.0)
        .expect("shutdown");
    assert!(ack.contains("\"shutdown\":true"), "got `{ack}`");
    let summary = join.join().expect("server thread");
    assert_eq!(summary.completed, 300);
}

/// Like [`start_server`] but with the scrape listener bound on its
/// own loopback port; returns both addresses.
fn start_server_with_metrics(
    config: ServeConfig,
) -> (
    SocketAddr,
    SocketAddr,
    JoinHandle<ServeSummary>,
    Arc<AtomicBool>,
) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..config
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let maddr = server.metrics_addr().expect("metrics addr");
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, maddr, join, shutdown)
}

/// Drive `total` schedule requests through `stream` and poll
/// `op:"stats"` until every completion has landed (the response
/// write happens just before the counter update).
fn drive_and_settle(
    stream: &mut TcpStream,
    total: u64,
) -> fastsched_casch::protocol::StatsSnapshot {
    let corpus = small_corpus();
    for id in 1..=total {
        let dag = &corpus[(id - 1) as usize % corpus.len()];
        let req = ScheduleRequest::new(id, DagSpec::from_dag(dag));
        stream
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .expect("send");
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    read_responses(&mut reader, total as usize);
    for _ in 0..200 {
        stream
            .write_all(format!("{}\n", Request::Stats { id: 7 }.to_line()).as_bytes())
            .expect("send stats");
        match read_responses(&mut reader, 1).remove(0) {
            Response::Stats(s) => {
                if s.completed == total {
                    return s;
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("stats never reached completed == {total}");
}

#[test]
fn metrics_endpoint_serves_exposition_consistent_with_stats() {
    let (addr, maddr, join, shutdown) = start_server_with_metrics(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let total = 9u64;
    let mut stream = connect(addr);
    let snap = drive_and_settle(&mut stream, total);

    let page =
        loadgen::scrape_metrics(&maddr.to_string(), "/metrics", 2.0).expect("scrape /metrics");

    // Every sample line parses as `name[{labels}] value` with a
    // numeric value, and families are announced before their samples.
    let mut announced: Vec<&str> = Vec::new();
    for line in page.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            announced.push(rest.split(' ').next().unwrap());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let name = series.split('{').next().unwrap();
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| announced.contains(b))
            .unwrap_or(name);
        assert!(
            announced.contains(&base),
            "sample `{name}` before its # TYPE header"
        );
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad value in `{line}`"));
    }
    for family in [
        "casch_requests_total",
        "casch_requests_accepted_total",
        "casch_in_flight",
        "casch_queue_depth",
        "casch_host_cores",
        "casch_phase_latency_us",
        "casch_pool_job_latency_us",
    ] {
        assert!(
            announced.contains(&family),
            "missing family {family} in exposition"
        );
    }

    // The per-algorithm counters sum to exactly what op:"stats"
    // reports as completed — same registry, no drift.
    let algo_sum: u64 = page
        .lines()
        .filter(|l| l.starts_with("casch_requests_total{algo="))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(algo_sum, snap.completed);
    assert!(page.contains("casch_requests_total{algo=\"fast\"} 9\n"));

    // Phase histograms: the schedule phase saw every request, and
    // cumulative bucket counts are monotone within each series.
    for phase in ["queue", "schedule", "serialize", "write", "build"] {
        let count_line = format!("casch_phase_latency_us_count{{phase=\"{phase}\"}} {total}\n");
        assert!(page.contains(&count_line), "missing/short series: {phase}");
        let prefix = format!("casch_phase_latency_us_bucket{{phase=\"{phase}\"");
        let mut last = 0u64;
        for line in page.lines().filter(|l| l.starts_with(&prefix)) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone bucket line: {line}");
            last = v;
        }
        assert_eq!(last, total, "+Inf bucket equals count for {phase}");
    }
    // `parse` also saw the stats polls, which have no `build`.
    let parsed: u64 = page
        .lines()
        .find_map(|l| l.strip_prefix("casch_phase_latency_us_count{phase=\"parse\"} "))
        .expect("parse phase series")
        .parse()
        .expect("count");
    assert!(parsed > total, "parse count {parsed} vs {total} requests");

    // The JSON twin is the op:"stats" payload verbatim.
    let body =
        loadgen::scrape_metrics(&maddr.to_string(), "/metrics.json", 2.0).expect("/metrics.json");
    match Response::parse(body.trim_end()).expect("parse /metrics.json") {
        Response::Stats(s) => {
            assert_eq!(s.completed, snap.completed);
            assert_eq!(s.threads, snap.threads);
            assert_eq!(s.host_cores, snap.host_cores);
            assert!(s.host_cores > 0, "host_cores must be detected");
            assert!(!s.phases.is_empty(), "phase breakdown missing");
            let queue = s.phases.iter().find(|p| p.phase == "queue").expect("queue");
            assert_eq!(queue.count, total);
        }
        other => panic!("unexpected response: {other:?}"),
    }

    shutdown.store(true, Ordering::SeqCst);
    let summary = join.join().expect("server thread");
    assert_eq!(summary.completed, total);
}

#[test]
fn access_log_samples_every_nth_request() {
    let path = std::env::temp_dir().join(format!(
        "casch-access-test-{}-{:?}.ndjson",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let (addr, join, shutdown) = start_server(ServeConfig {
        threads: 2,
        access_log: Some(path.clone()),
        log_sample_rate: 2,
        ..ServeConfig::default()
    });
    let total = 10u64;
    let mut stream = connect(addr);
    drive_and_settle(&mut stream, total);
    shutdown.store(true, Ordering::SeqCst);
    join.join().expect("server thread");

    let text = std::fs::read_to_string(&path).expect("read access log");
    let lines: Vec<&str> = text.lines().collect();
    // Rate 2 logs the 1st, 3rd, ... completion: exactly half of 10.
    assert_eq!(lines.len(), 5, "sample rate 2 over 10 requests");
    for line in &lines {
        for key in [
            "\"ts_ms\":",
            "\"id\":",
            "\"algo\":\"fast\"",
            "\"nodes\":",
            "\"procs\":",
            "\"outcome\":\"ok\"",
            "\"queue_us\":",
            "\"schedule_us\":",
            "\"serialize_us\":",
            "\"write_us\":",
            "\"parse_us\":",
            "\"build_us\":",
        ] {
            assert!(line.contains(key), "access line missing {key}: {line}");
        }
    }
    std::fs::remove_file(&path).expect("cleanup");
}

/// A node no lane has room for and weights that overflow u64 time get
/// typed, stable error words instead of `internal: scheduler
/// panicked`, the access log records them as `infeasible` and
/// `parse`, and the connection keeps serving.
#[test]
fn infeasible_and_overflowing_requests_get_typed_errors() {
    use fastsched_dag::DagBuilder;
    use fastsched_schedule::MemCapsSpec;
    let path = std::env::temp_dir().join(format!(
        "casch-typed-errors-{}-{:?}.ndjson",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let (addr, join, shutdown) = start_server(ServeConfig {
        threads: 1,
        access_log: Some(path.clone()),
        ..ServeConfig::default()
    });

    let mut b = DagBuilder::new();
    let small = b.add_task_with_mem(5, 4);
    let big = b.add_task_with_mem(5, 50);
    b.add_edge(small, big, 1).expect("edge");
    let heavy = DagSpec::from_dag(&b.build().expect("dag"));
    let mut b = DagBuilder::new();
    let chain: Vec<_> = [3, u64::MAX - 5, 2].map(|w| b.add_task(w)).into();
    b.add_edge(chain[0], chain[1], 1).expect("edge");
    b.add_edge(chain[1], chain[2], 1).expect("edge");
    let huge = DagSpec::from_dag(&b.build().expect("dag"));

    let mut reqs = Vec::new();
    for (id, algo) in [(1, "fast"), (2, "heft")] {
        let mut r = ScheduleRequest::new(id, heavy.clone());
        r.algo = algo.into();
        r.mem_caps = Some(MemCapsSpec::Uniform(10));
        reqs.push(r);
    }
    reqs.push(ScheduleRequest::new(3, huge.clone()));
    let mut r = ScheduleRequest::new(4, huge);
    r.comm = Some(CommSpec::AlphaBeta {
        alpha: 25,
        beta_num: 3,
        beta_den: 2,
    });
    reqs.push(r);
    reqs.push(ScheduleRequest::new(5, DagSpec::from_dag(&paper_figure1())));
    let lines: String = reqs.iter().map(|r| format!("{}\n", r.to_line())).collect();
    let mut stream = connect(addr);
    stream.write_all(lines.as_bytes()).expect("send requests");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut errors: HashMap<u64, String> = HashMap::new();
    for resp in read_responses(&mut reader, reqs.len()) {
        match resp {
            Response::Error { id, error } => {
                errors.insert(id, error);
            }
            Response::Schedule(r) => assert_eq!(r.id, 5, "only the plain request schedules"),
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let infeasible = format!(
        "infeasible: no processor can hold node n{} (footprint 50)",
        big.0
    );
    for id in [1, 2] {
        assert!(
            errors[&id].starts_with(&infeasible),
            "id {id}: {}",
            errors[&id]
        );
    }
    for id in [3, 4] {
        assert!(
            errors[&id].starts_with("parse: time arithmetic overflows u64"),
            "id {id}: {}",
            errors[&id]
        );
    }
    shutdown.store(true, Ordering::SeqCst);
    join.join().expect("server thread");

    let text = std::fs::read_to_string(&path).expect("read access log");
    let outcome = |id: u64| {
        let line = text
            .lines()
            .find(|l| l.contains(&format!("\"id\":{id},")))
            .unwrap_or_else(|| panic!("no access line for id {id}:\n{text}"));
        line.split("\"outcome\":\"")
            .nth(1)
            .unwrap()
            .split('"')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(
        [1, 2, 3, 4, 5].map(outcome),
        ["infeasible", "infeasible", "parse", "parse", "ok"].map(String::from)
    );
    std::fs::remove_file(&path).expect("cleanup");
}
