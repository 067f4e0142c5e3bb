//! `casch loadgen` — an open-loop load generator for `casch serve`.
//!
//! Drives a running server with schedule requests drawn round-robin
//! from a DAG corpus at a configured **offered** arrival rate
//! (open-loop: send times follow the rate clock, never the server's
//! responses, so an overloaded server faces the honest arrival
//! process and must shed load via its admission control rather than
//! silently slowing the generator down). A warmup phase lets worker
//! workspaces and caches reach steady state before measurement
//! starts.
//!
//! Each of [`LoadgenConfig::conns`] connections runs one paced sender
//! and one tallying receiver; requests are pipelined, correlated by
//! `id`, and per-request latency is measured from the moment the line
//! is written to the moment its response line is parsed.
//!
//! With [`LoadgenConfig::check`], every response's placements are
//! compared byte-for-byte (via [`crate::protocol::placements_json`])
//! against a local `schedule_into` run on the same DAG — the
//! end-to-end proof that the service returns exactly what the library
//! computes.

use crate::machine::scheduler_by_name;
use crate::protocol::{placements_json, placements_of, Request, Response};
use fastsched_algorithms::Workspace;
use fastsched_dag::{io::DagSpec, Dag};
use fastsched_trace::json_string;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One corpus entry: a named DAG to schedule.
pub struct CorpusItem {
    /// Display name (file path or generator tag).
    pub name: String,
    /// The graph.
    pub dag: Dag,
}

/// Knobs for one load-generation run.
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// DAGs cycled through round-robin (request `i` uses
    /// `corpus[i % len]`).
    pub corpus: Vec<CorpusItem>,
    /// Algorithm for every request.
    pub algo: String,
    /// Processor count for every request (`None` = one per node).
    pub procs: Option<u32>,
    /// Offered arrival rate in requests/second across all
    /// connections; `<= 0` sends unpaced (as fast as the sockets
    /// accept — the saturation probe).
    pub rate: f64,
    /// Stop after exactly this many requests (overrides
    /// `duration_s`).
    pub total: Option<u64>,
    /// Measurement window in seconds (after warmup) when `total` is
    /// unset.
    pub duration_s: f64,
    /// Warmup seconds: requests sent but excluded from the tallies.
    pub warmup_s: f64,
    /// Parallel connections.
    pub conns: usize,
    /// Per-request `timeout_ms` to stamp on every request.
    pub timeout_ms: Option<u64>,
    /// Verify each response byte-for-byte against a local
    /// `schedule_into` run.
    pub check: bool,
    /// Seconds to keep retrying the initial connect (covers server
    /// startup races in scripts).
    pub connect_retry_s: f64,
    /// Scrape `GET /metrics` from this address mid-run (halfway
    /// through a paced window; shortly after start otherwise) and
    /// carry the page in [`LoadReport::metrics_scrape`]. This proves
    /// the scrape path answers *while* the server is under the
    /// offered load, not just at rest.
    pub metrics_addr: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            corpus: Vec::new(),
            algo: "fast".to_string(),
            procs: None,
            rate: 1000.0,
            total: None,
            duration_s: 5.0,
            warmup_s: 0.0,
            conns: 1,
            timeout_ms: None,
            check: false,
            connect_retry_s: 5.0,
            metrics_addr: None,
        }
    }
}

/// Aggregated result of a load-generation run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Offered rate (requests/second; 0 = unpaced).
    pub offered_rps: f64,
    /// Connections used.
    pub conns: usize,
    /// Requests sent during warmup (excluded from every other field).
    pub warmup_sent: u64,
    /// Measured requests sent.
    pub sent: u64,
    /// Successful schedule responses.
    pub ok: u64,
    /// `overloaded` rejections (admission control).
    pub rejected: u64,
    /// `timeout` responses.
    pub timeouts: u64,
    /// Other error responses.
    pub errors: u64,
    /// Measured requests that never got a response before the drain
    /// deadline.
    pub unanswered: u64,
    /// Whether responses were verified against local scheduling.
    pub checked: bool,
    /// Responses whose placements/makespan differed from the local
    /// run (always 0 for a correct server).
    pub mismatches: u64,
    /// Median round-trip latency of successful responses, µs.
    pub p50_us: u64,
    /// 99th-percentile round-trip latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile round-trip latency, µs — computed from the
    /// full measured sample set (every response is kept), not a
    /// bounded ring, so the tail is exact even under saturation.
    pub p999_us: u64,
    /// Mean round-trip latency, µs.
    pub mean_us: u64,
    /// Seconds from the start of measurement to the last response.
    pub wall_s: f64,
    /// Successful responses per second over `wall_s`.
    pub achieved_rps: f64,
    /// The `/metrics` page scraped mid-run when
    /// [`LoadgenConfig::metrics_addr`] was set (not part of
    /// [`LoadReport::to_json_line`]).
    pub metrics_scrape: Option<String>,
}

impl LoadReport {
    /// Render as one NDJSON summary line.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"summary\":true,\"offered_rps\":{:.1},\"conns\":{},\"warmup_sent\":{},\
             \"sent\":{},\"ok\":{},\"rejected\":{},\"timeouts\":{},\"errors\":{},\
             \"unanswered\":{},\"checked\":{},\"mismatches\":{},\"p50_us\":{},\"p99_us\":{},\
             \"p999_us\":{},\"mean_us\":{},\"wall_s\":{:.3},\"achieved_rps\":{:.1}}}",
            self.offered_rps,
            self.conns,
            self.warmup_sent,
            self.sent,
            self.ok,
            self.rejected,
            self.timeouts,
            self.errors,
            self.unanswered,
            self.checked,
            self.mismatches,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.mean_us,
            self.wall_s,
            self.achieved_rps
        )
    }
}

/// Per-connection tallies merged into the final [`LoadReport`].
#[derive(Default)]
struct ConnTally {
    warmup_sent: u64,
    sent: u64,
    ok: u64,
    rejected: u64,
    timeouts: u64,
    errors: u64,
    unanswered: u64,
    mismatches: u64,
    latencies_us: Vec<u64>,
    last_response: Option<Instant>,
}

/// Connect with retries over `window` seconds — absorbs the race
/// between a freshly spawned server and its first client.
fn connect_with_retry(addr: &str, window: f64) -> Result<TcpStream, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(window.max(0.0));
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("connect {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Open a fresh connection, send one request line, and return the
/// (raw) single response line. Used for `--stats` and `--shutdown`.
pub fn request_once(addr: &str, request: &Request, retry_s: f64) -> Result<String, String> {
    let stream = connect_with_retry(addr, retry_s)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut w = stream.try_clone().map_err(|e| e.to_string())?;
    w.write_all(format!("{}\n", request.to_line()).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("recv: {e}"))?;
    if line.is_empty() {
        return Err("server closed the connection without answering".to_string());
    }
    Ok(line.trim_end().to_string())
}

/// `GET path` from a `casch serve --metrics-addr` listener and
/// return the response body. Fails on any status other than 200.
pub fn scrape_metrics(addr: &str, path: &str, retry_s: f64) -> Result<String, String> {
    let stream = connect_with_retry(addr, retry_s)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut w = stream.try_clone().map_err(|e| e.to_string())?;
    w.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("scrape send: {e}"))?;
    let mut raw = String::new();
    BufReader::new(stream)
        .read_to_string(&mut raw)
        .map_err(|e| format!("scrape recv: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("scrape: malformed HTTP response")?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("scrape {path}: {status}"));
    }
    Ok(body.to_string())
}

/// Run one open-loop load generation against `config.addr`.
pub fn run(config: &LoadgenConfig) -> Result<LoadReport, String> {
    if config.corpus.is_empty() {
        return Err("loadgen needs a non-empty corpus".to_string());
    }
    let conns = config.conns.max(1);

    // Pre-render each corpus item's request-line template (everything
    // after the id) and, when checking, its locally computed expected
    // response bytes.
    let mut templates: Vec<String> = Vec::with_capacity(config.corpus.len());
    let mut expected: Vec<Option<(u64, String)>> = Vec::with_capacity(config.corpus.len());
    let mut ws = Workspace::new();
    let local = if config.check {
        Some(scheduler_by_name(&config.algo)?)
    } else {
        None
    };
    for item in &config.corpus {
        let mut tmpl = format!(",\"algo\":{}", json_string(&config.algo));
        if let Some(p) = config.procs {
            tmpl.push_str(&format!(",\"procs\":{p}"));
        }
        if let Some(t) = config.timeout_ms {
            tmpl.push_str(&format!(",\"timeout_ms\":{t}"));
        }
        tmpl.push_str(",\"dag\":");
        tmpl.push_str(
            &serde_json::to_string(&DagSpec::from_dag(&item.dag)).map_err(|e| e.to_string())?,
        );
        tmpl.push('}');
        templates.push(tmpl);
        expected.push(local.as_ref().map(|s| {
            let procs = config
                .procs
                .unwrap_or_else(|| item.dag.node_count().max(1) as u32);
            let schedule = s.schedule_into(&item.dag, procs, &mut ws);
            (
                schedule.makespan(),
                placements_json(&placements_of(&schedule)),
            )
        }));
    }
    let templates = Arc::new(templates);
    let expected = Arc::new(expected);

    // Global open-loop clock: request g (0-based) is due at
    // start + g/rate; connection k sends the g with g % conns == k.
    let start = Instant::now() + Duration::from_millis(10);
    let warmup = Duration::from_secs_f64(config.warmup_s.max(0.0));
    let send_deadline = config
        .total
        .is_none()
        .then(|| start + warmup + Duration::from_secs_f64(config.duration_s.max(0.01)));
    let next_global = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for _conn in 0..conns {
        let stream = connect_with_retry(&config.addr, config.connect_retry_s)?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| e.to_string())?;
        let templates = Arc::clone(&templates);
        let expected = Arc::clone(&expected);
        let next_global = Arc::clone(&next_global);
        let rate = config.rate;
        let total = config.total;
        let check = config.check;
        handles.push(std::thread::spawn(move || {
            run_connection(
                stream,
                &templates,
                expected,
                &next_global,
                rate,
                total,
                send_deadline,
                start,
                warmup,
                check,
            )
        }));
    }

    // Mid-run scraper: waits for the load to be established, then
    // fetches /metrics exactly once while requests are in flight.
    let scraper = config.metrics_addr.clone().map(|maddr| {
        let delay = if config.total.is_none() {
            warmup + Duration::from_secs_f64(config.duration_s.max(0.01) / 2.0)
        } else {
            Duration::from_millis(250)
        };
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            scrape_metrics(&maddr, "/metrics", 2.0)
        })
    });

    let mut merged = ConnTally::default();
    for h in handles {
        let tally = h
            .join()
            .map_err(|_| "loadgen connection thread panicked".to_string())??;
        merged.warmup_sent += tally.warmup_sent;
        merged.sent += tally.sent;
        merged.ok += tally.ok;
        merged.rejected += tally.rejected;
        merged.timeouts += tally.timeouts;
        merged.errors += tally.errors;
        merged.unanswered += tally.unanswered;
        merged.mismatches += tally.mismatches;
        merged.latencies_us.extend(tally.latencies_us);
        merged.last_response = match (merged.last_response, tally.last_response) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    let measure_start = start + warmup;
    let wall_s = merged
        .last_response
        .map(|t| t.saturating_duration_since(measure_start).as_secs_f64())
        .unwrap_or(0.0)
        .max(1e-9);
    merged.latencies_us.sort_unstable();
    let at = |q: f64| {
        if merged.latencies_us.is_empty() {
            0
        } else {
            merged.latencies_us[((merged.latencies_us.len() - 1) as f64 * q).round() as usize]
        }
    };
    let mean_us = if merged.latencies_us.is_empty() {
        0
    } else {
        merged.latencies_us.iter().sum::<u64>() / merged.latencies_us.len() as u64
    };
    let metrics_scrape = match scraper {
        Some(h) => match h.join() {
            Ok(Ok(page)) => Some(page),
            Ok(Err(e)) => return Err(format!("mid-run metrics scrape failed: {e}")),
            Err(_) => return Err("metrics scraper thread panicked".to_string()),
        },
        None => None,
    };
    Ok(LoadReport {
        offered_rps: config.rate.max(0.0),
        conns,
        warmup_sent: merged.warmup_sent,
        sent: merged.sent,
        ok: merged.ok,
        rejected: merged.rejected,
        timeouts: merged.timeouts,
        errors: merged.errors,
        unanswered: merged.unanswered,
        checked: config.check,
        mismatches: merged.mismatches,
        p50_us: at(0.50),
        p99_us: at(0.99),
        p999_us: at(0.999),
        mean_us,
        wall_s,
        achieved_rps: merged.ok as f64 / wall_s,
        metrics_scrape,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_connection(
    stream: TcpStream,
    templates: &[String],
    expected: Arc<Vec<Option<(u64, String)>>>,
    next_global: &AtomicU64,
    rate: f64,
    total: Option<u64>,
    send_deadline: Option<Instant>,
    start: Instant,
    warmup: Duration,
    check: bool,
) -> Result<ConnTally, String> {
    let in_flight: Arc<Mutex<HashMap<u64, (Instant, bool)>>> = Arc::new(Mutex::new(HashMap::new()));
    let reader_stream = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = stream;
    let measure_start = start + warmup;

    // Receiver: parse response lines, match ids, tally.
    let recv_in_flight = Arc::clone(&in_flight);
    let sent_done = Arc::new(AtomicU64::new(0)); // 0 = sending, 1 = done
    let recv_sent_done = Arc::clone(&sent_done);
    let receiver = std::thread::spawn(move || {
        let mut tally = ConnTally::default();
        let mut reader = BufReader::new(reader_stream);
        let mut line = String::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            if recv_sent_done.load(Ordering::SeqCst) == 1 {
                let empty = recv_in_flight.lock().expect("in-flight lock").is_empty();
                if empty {
                    break;
                }
                let deadline =
                    *drain_deadline.get_or_insert(Instant::now() + Duration::from_secs(10));
                if Instant::now() > deadline {
                    // Still-unanswered entries are tallied once, in
                    // run_connection, after the sender has also
                    // finished — one code path for every exit
                    // (deadline, server close, read error).
                    break;
                }
            }
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break, // server closed
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(_) => break,
            }
            let now = Instant::now();
            let Ok(resp) = Response::parse(line.trim_end()) else {
                tally.errors += 1;
                continue;
            };
            let (id, outcome) = match &resp {
                Response::Schedule(r) => (r.id, Outcome::Ok),
                Response::Error { id, error } if error == "overloaded" => (*id, Outcome::Rejected),
                Response::Error { id, error } if error == "timeout" => (*id, Outcome::Timeout),
                Response::Error { id, .. } => (*id, Outcome::Error),
                _ => continue, // stats/shutdown lines are not ours
            };
            let Some((sent_at, measured)) =
                recv_in_flight.lock().expect("in-flight lock").remove(&id)
            else {
                continue;
            };
            if !measured {
                continue;
            }
            tally.last_response = Some(tally.last_response.map_or(now, |t| t.max(now)));
            match outcome {
                Outcome::Ok => {
                    tally.ok += 1;
                    let us = now
                        .duration_since(sent_at)
                        .as_micros()
                        .min(u64::MAX as u128);
                    tally.latencies_us.push(us as u64);
                    if check {
                        if let Response::Schedule(r) = &resp {
                            let idx = ((id - 1) as usize) % expected_len_hint(&expected);
                            if let Some((makespan, placements)) = &expected[idx] {
                                if r.makespan != *makespan
                                    || placements_json(&r.placements) != *placements
                                {
                                    tally.mismatches += 1;
                                }
                            }
                        }
                    }
                }
                Outcome::Rejected => tally.rejected += 1,
                Outcome::Timeout => tally.timeouts += 1,
                Outcome::Error => tally.errors += 1,
            }
        }
        tally
    });

    // Sender: paced open loop over the shared global sequence.
    let mut warmup_sent: u64 = 0;
    let mut sent: u64 = 0;
    loop {
        let g = next_global.fetch_add(1, Ordering::SeqCst);
        if let Some(t) = total {
            if g >= t {
                break;
            }
        }
        let due = if rate > 0.0 {
            start + Duration::from_secs_f64(g as f64 / rate)
        } else {
            start
        };
        if let Some(deadline) = send_deadline {
            if due >= deadline {
                break;
            }
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let id = g + 1;
        let idx = (g as usize) % templates.len();
        let line = format!("{{\"op\":\"schedule\",\"id\":{id}{}\n", templates[idx]);
        let sent_at = Instant::now();
        let measured = sent_at >= measure_start;
        in_flight
            .lock()
            .expect("in-flight lock")
            .insert(id, (sent_at, measured));
        if writer.write_all(line.as_bytes()).is_err() {
            in_flight.lock().expect("in-flight lock").remove(&id);
            break; // server gone
        }
        if measured {
            sent += 1;
        } else {
            warmup_sent += 1;
        }
    }
    sent_done.store(1, Ordering::SeqCst);

    let mut tally = receiver
        .join()
        .map_err(|_| "loadgen receiver thread panicked".to_string())?;
    tally.warmup_sent = warmup_sent;
    tally.sent = sent;
    // Whatever is still in flight after both threads stopped —
    // receiver drain deadline, server-closed stream, read error —
    // never got an answer. Only measured requests count: warmup
    // traffic is excluded from every reported field.
    tally.unanswered = in_flight
        .lock()
        .expect("in-flight lock")
        .values()
        .filter(|&&(_, measured)| measured)
        .count() as u64;
    Ok(tally)
}

enum Outcome {
    Ok,
    Rejected,
    Timeout,
    Error,
}

/// The corpus length, recoverable from the expected-results table
/// (always non-empty: `run` rejects empty corpora).
fn expected_len_hint(expected: &[Option<(u64, String)>]) -> usize {
    expected.len().max(1)
}
