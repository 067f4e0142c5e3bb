//! `casch serve` — a persistent NDJSON-over-TCP scheduling service.
//!
//! The front-end of the zero-alloc batch core (DESIGN.md §14): a
//! [`Server`] accepts connections, parses one [`crate::protocol::Request`]
//! per line, and shards admitted requests across a fixed
//! [`fastsched_algorithms::WorkerPool`] with one
//! [`fastsched_algorithms::Workspace`] per worker — so the warm
//! scheduling path inside a worker stays allocation-free while the
//! protocol layer pays only per-request I/O. When a worker is idle,
//! nothing is queued and the client has sent nothing further, the
//! connection thread claims that worker's workspace and runs the
//! request itself ([`fastsched_algorithms::WorkerPool::try_claim`]):
//! a closed-loop request then wakes two threads (this one and the
//! client's) instead of three.
//!
//! The service layer around the pool:
//!
//! * **Admission control** — the pool queue is bounded
//!   ([`ServeConfig::queue_depth`]); a full queue answers
//!   `{"ok":false,"error":"overloaded"}` immediately instead of
//!   buffering without bound.
//! * **Per-request timeouts** — a request that waits in the queue past
//!   its deadline ([`ServeConfig::default_timeout_ms`] or the
//!   request's own `timeout_ms`) is answered
//!   `{"ok":false,"error":"timeout"}` without being scheduled; a
//!   request that has *started* always runs to completion (the
//!   scheduling core is not preemptible).
//! * **Resource caps** — a request line is bounded
//!   ([`ServeConfig::max_line_bytes`]), and so is the processor count
//!   a request may demand ([`ServeConfig::max_procs`], floored by the
//!   DAG's own node count): schedulers allocate O(procs) scratch, so
//!   an uncapped `procs` (or hetero `speeds` array) would let one
//!   tiny line force a multi-GB allocation. Oversized values are
//!   answered with a `parse:` error instead. Per-processor `mem_caps`
//!   tables obey the same cap, checked before the table is resolved.
//! * **Graceful shutdown** — SIGINT (via
//!   [`install_sigint_handler`]) or an `op:"shutdown"` request stops
//!   the accept loop, drains every admitted request to a response,
//!   then joins the workers. Accepted work is never abandoned.
//! * **Metrics** — accepted/rejected/timeout/malformed/completed
//!   totals plus per-worker request counts and per-phase
//!   (queue / schedule / serialize / write on the workers, parse /
//!   build on the connection threads) latency histograms
//!   ([`fastsched_metrics`]; lock-free, every observation counted —
//!   no sample-window bias under saturation). Served inline by
//!   `op:"stats"`, and — when [`ServeConfig::metrics_addr`] is set —
//!   as Prometheus text exposition on `GET /metrics` (JSON twin at
//!   `/metrics.json`) from a dedicated thread that is never a pool
//!   worker, so scrapes keep working while the pool is saturated.
//!   An optional sampled NDJSON access log
//!   ([`ServeConfig::access_log`]) records every Nth request's id,
//!   algorithm, size, phase timings and outcome.
//!
//! **Memory ordering.** Every statistic here is `Relaxed`: each
//! counter/gauge/histogram cell is an independent statistical
//! quantity whose contract is per-cell atomicity and monotonicity,
//! not cross-cell synchronization — a stats snapshot is a sample,
//! not a consistent cut. The one consumer that *waits* on a value,
//! the shutdown drain (`in_flight == 0`), needs only the gauge's own
//! modification order plus eventual visibility, which `Relaxed`
//! atomics guarantee. Snapshots read sinks before sources
//! (`completed` before `accepted`, `in_flight` last) so derived
//! inequalities hold in practice.
//!
//! Responses to pipelined requests are written by the thread that
//! finished them, so they may interleave out of order; the `id` field
//! correlates. Every response is one `write_all` of a whole line
//! under the connection's write lock, so lines never interleave
//! mid-byte. Writes carry a timeout (`WRITE_TIMEOUT`, 10 s): a client
//! that stops reading while the socket buffer is full can stall a
//! worker for at most that long before its connection is declared
//! dead and closed — it can never pin a worker (or wedge the
//! shutdown drain) forever.

use crate::machine::{self, Engine};
use crate::protocol::{
    self, CommSpec, Line, LineReader, PhaseSnapshot, Request, Response, ScheduleRequest,
    ScheduleResponse, StatsSnapshot, WorkerSnapshot,
};
use fastsched_algorithms::{SchedulerError, WorkerPool, Workspace};
use fastsched_dag::Dag;
use fastsched_metrics::prometheus::{Exposition, CONTENT_TYPE};
use fastsched_metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use fastsched_schedule::{AlphaBeta, CommModel, Hierarchical};
use fastsched_trace::SearchTrace;
use std::io::{self, BufReader, Read as _, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

pub use crate::machine::{scheduler_by_name, ModelScheduler};

/// How often blocked loops (accept, reads, drain) re-check the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(20);

/// How long one response write may block before the client is
/// declared vanished and the connection is torn down. Generous —
/// responses are small, so a healthy client drains the socket buffer
/// in well under this — but finite, so a slow consumer bounds the
/// time it can hold a pool worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Default [`ServeConfig::max_procs`]: far above any sensible
/// homogeneous machine while keeping the per-request O(procs) scratch
/// in the hundreds of KB.
pub const DEFAULT_MAX_PROCS: u32 = 16_384;

/// Default [`ServeConfig::max_groups`]: far above any sensible NUMA
/// hierarchy while bounding the per-request group table.
pub const DEFAULT_MAX_GROUPS: u32 = 1_024;

/// Request-vocabulary algorithm names, in the order their per-algo
/// request counters are kept. The final entry is the heterogeneous
/// engine, selected by a `speeds` array rather than by name.
const ALGO_NAMES: [&str; 18] = [
    "fast",
    "dsc",
    "md",
    "etf",
    "dls",
    "hlfet",
    "mcp",
    "heft",
    "fast-ms",
    "fast-sa",
    "dcp",
    "ish",
    "ez",
    "lc",
    "cpop",
    "dsc-llb",
    "bnb",
    "heft-hetero",
];

/// Index into [`ALGO_NAMES`] (and the per-algo counters) for a
/// homogeneous request's algorithm name.
fn algo_index(name: &str) -> usize {
    ALGO_NAMES
        .iter()
        .position(|&a| a == name)
        .unwrap_or(ALGO_NAMES.len() - 1)
}

/// Service-layer knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Admission-queue capacity (pending requests beyond the ones
    /// workers are already running).
    pub queue_depth: usize,
    /// Default queue-wait deadline in milliseconds applied to
    /// requests that carry no `timeout_ms` of their own; 0 disables.
    pub default_timeout_ms: u64,
    /// Byte cap on one request line.
    pub max_line_bytes: usize,
    /// Cap on a request's processor count (explicit `procs`, or the
    /// `speeds` array length for heterogeneous requests). A request
    /// may always use up to its DAG's node count even above this cap
    /// — processors beyond the node count can never be used anyway —
    /// so the effective limit is `max(node_count, max_procs)`.
    /// Schedulers allocate O(procs) scratch, so this bound is what
    /// keeps a hostile one-line request from demanding gigabytes.
    pub max_procs: u32,
    /// Cap on the number of groups a hierarchical `comm` model may
    /// declare. The group *table* (one entry per processor) is
    /// already bounded by the processor limit; this bounds the group
    /// count itself, and is checked before the table is materialized.
    pub max_groups: u32,
    /// Record per-phase latency histograms (`false` = the
    /// `--no-metrics` overhead-measurement mode: no clock reads or
    /// histogram writes beyond what the response itself needs).
    pub metrics: bool,
    /// Bind a scrape listener here (e.g. `127.0.0.1:9460`) serving
    /// `GET /metrics` (Prometheus text) and `/metrics.json` on a
    /// dedicated thread. `None` = no listener.
    pub metrics_addr: Option<String>,
    /// Append a sampled NDJSON access log to this file.
    pub access_log: Option<std::path::PathBuf>,
    /// Log every Nth request (1 = all); only meaningful with
    /// [`ServeConfig::access_log`].
    pub log_sample_rate: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            queue_depth: 1024,
            default_timeout_ms: 0,
            max_line_bytes: protocol::DEFAULT_MAX_LINE,
            max_procs: DEFAULT_MAX_PROCS,
            max_groups: DEFAULT_MAX_GROUPS,
            metrics: true,
            metrics_addr: None,
            access_log: None,
            log_sample_rate: 1,
        }
    }
}

/// Lifetime totals returned by [`Server::run`].
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Schedule requests admitted.
    pub accepted: u64,
    /// Schedule requests rejected as `overloaded`.
    pub rejected: u64,
    /// Admitted requests answered `timeout`.
    pub timeouts: u64,
    /// Lines answered with a parse/oversize error.
    pub malformed: u64,
    /// Schedule requests answered successfully.
    pub completed: u64,
}

/// The request phases, in reporting order. `queue` is recorded for
/// every admitted request that reaches a worker (including ones
/// answered `timeout` — queue wait under saturation is exactly what
/// the phase exists to show); `schedule`/`serialize`/`write` only for
/// requests that performed them. `parse` (every non-blank line) and
/// `build` (DAG build and request checks of every schedule request)
/// run on the connection thread before admission.
const PHASE_NAMES: [&str; 6] = ["queue", "schedule", "serialize", "write", "parse", "build"];

/// How many of [`PHASE_NAMES`] run on pool workers (the rest run on
/// connection threads).
const WORKER_PHASES: usize = 4;
/// Index of `parse` in [`PHASE_NAMES`].
const PARSE_PHASE: usize = 4;
/// Index of `build` in [`PHASE_NAMES`].
const BUILD_PHASE: usize = 5;

/// Whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// One pool workspace's metrics shard: written only by the job
/// holding that workspace (on a worker or a claiming connection
/// thread), so recording never contends; merged across workers at
/// scrape time ([`ServeStats::merged_phase`]).
struct WorkerCounters {
    requests: Counter,
    /// Indexed like the first [`WORKER_PHASES`] of [`PHASE_NAMES`].
    phase_us: [Histogram; WORKER_PHASES],
}

/// Sampled NDJSON access log: one line per [`AccessLog::rate`]-th
/// request. The sampling decision is one relaxed counter increment;
/// only sampled requests pay the render + locked file append.
struct AccessLog {
    file: Mutex<std::fs::File>,
    seq: AtomicU64,
    rate: u64,
}

impl AccessLog {
    fn open(path: &std::path::Path, rate: u64) -> io::Result<AccessLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(AccessLog {
            file: Mutex::new(file),
            seq: AtomicU64::new(0),
            rate: rate.max(1),
        })
    }

    /// Log this request if it is a sampled one; `render` runs only
    /// when it is.
    fn log(&self, render: impl FnOnce() -> String) {
        if !self
            .seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.rate)
        {
            return;
        }
        let mut line = render();
        line.push('\n');
        let mut f = self.file.lock().expect("access log lock");
        let _ = f.write_all(line.as_bytes());
    }
}

/// Render one access-log NDJSON line.
#[allow(clippy::too_many_arguments)]
fn access_line(
    id: u64,
    algo: &str,
    nodes: usize,
    procs: u32,
    outcome: &str,
    phase_us: [u64; PHASE_NAMES.len()],
) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    format!(
        "{{\"ts_ms\":{ts_ms},\"id\":{id},\"algo\":\"{}\",\"nodes\":{nodes},\"procs\":{procs},\
         \"outcome\":\"{outcome}\",\"queue_us\":{},\"schedule_us\":{},\"serialize_us\":{},\
         \"write_us\":{},\"parse_us\":{},\"build_us\":{}}}",
        protocol::json_escape(algo),
        phase_us[0],
        phase_us[1],
        phase_us[2],
        phase_us[3],
        phase_us[4],
        phase_us[5],
    )
}

/// All serve-side metrics. Counters, gauges and histograms are
/// `Relaxed` throughout — see the ordering note in the
/// [module docs](self).
struct ServeStats {
    accepted: Counter,
    rejected: Counter,
    timeouts: Counter,
    malformed: Counter,
    completed: Counter,
    /// Connections accepted over the server's lifetime.
    connections: Counter,
    /// Connections currently open.
    conns_live: Gauge,
    /// Admitted requests not yet answered. The shutdown drain spins
    /// on this reaching zero.
    in_flight: Gauge,
    /// Per-worker shards, indexed by pool workspace.
    workers: Vec<WorkerCounters>,
    /// The phases after [`WORKER_PHASES`] in [`PHASE_NAMES`], shared
    /// by the connection threads.
    conn_phase_us: [Histogram; PHASE_NAMES.len() - WORKER_PHASES],
    /// Per-algorithm completion counters, indexed like [`ALGO_NAMES`].
    /// Incremented alongside `completed`, so their sum equals it.
    algos: Vec<Counter>,
    start: Instant,
    host_cores: usize,
    /// Phase histograms enabled ([`ServeConfig::metrics`]).
    timing: bool,
    access: Option<AccessLog>,
}

impl ServeStats {
    fn new(threads: usize, timing: bool, access: Option<AccessLog>) -> Self {
        Self {
            accepted: Counter::new(),
            rejected: Counter::new(),
            timeouts: Counter::new(),
            malformed: Counter::new(),
            completed: Counter::new(),
            connections: Counter::new(),
            conns_live: Gauge::new(),
            in_flight: Gauge::new(),
            workers: (0..threads)
                .map(|_| WorkerCounters {
                    requests: Counter::new(),
                    phase_us: std::array::from_fn(|_| Histogram::new()),
                })
                .collect(),
            conn_phase_us: std::array::from_fn(|_| Histogram::new()),
            algos: ALGO_NAMES.iter().map(|_| Counter::new()).collect(),
            start: Instant::now(),
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            timing,
            access,
        }
    }

    /// Whether phase timestamps need to be taken at all (histograms
    /// on, or an access log that wants the numbers).
    fn wants_timings(&self) -> bool {
        self.timing || self.access.is_some()
    }

    /// Phase `p`'s latency distribution, merged across all workers
    /// for the worker phases.
    fn merged_phase(&self, p: usize) -> HistogramSnapshot {
        if p >= WORKER_PHASES {
            return self.conn_phase_us[p - WORKER_PHASES].snapshot();
        }
        let mut out = HistogramSnapshot::empty();
        for w in &self.workers {
            out.merge(&w.phase_us[p].snapshot());
        }
        out
    }

    /// Record a connection-thread phase (index into [`PHASE_NAMES`]).
    fn record_conn_phase(&self, p: usize, us: u64) {
        if self.timing {
            self.conn_phase_us[p - WORKER_PHASES].record(us);
        }
    }

    fn uptime_s(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    fn snapshot(&self, id: u64, queue_depth: usize) -> StatsSnapshot {
        // Read sinks before their sources (`completed` before
        // `accepted`; `in_flight` last) so the usual inequalities
        // (completed <= accepted, in_flight consistent with both)
        // hold in practice even though the snapshot is a statistical
        // sample, not a synchronized cut.
        let completed = self.completed.get();
        let timeouts = self.timeouts.get();
        let rejected = self.rejected.get();
        let malformed = self.malformed.get();
        let accepted = self.accepted.get();
        let in_flight = self.in_flight.get();
        let phases = if self.timing {
            PHASE_NAMES
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let h = self.merged_phase(i);
                    PhaseSnapshot {
                        phase: (*name).to_string(),
                        count: h.count(),
                        p50_us: h.quantile(0.50),
                        p99_us: h.quantile(0.99),
                        p999_us: h.quantile(0.999),
                        mean_us: h.mean(),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        StatsSnapshot {
            id,
            threads: self.workers.len(),
            queue_depth,
            accepted,
            rejected,
            timeouts,
            malformed,
            completed,
            in_flight,
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    // The schedule-phase histogram is the old
                    // "service time" — same quantity the retired
                    // sample ring reported, now over every request.
                    let h = w.phase_us[1].snapshot();
                    WorkerSnapshot {
                        worker: i,
                        requests: w.requests.get(),
                        p50_us: h.quantile(0.50),
                        p99_us: h.quantile(0.99),
                    }
                })
                .collect(),
            host_cores: self.host_cores,
            uptime_s: self.uptime_s(),
            phases,
        }
    }
}

/// SIGINT flips this; [`Server::run`] polls it alongside its own
/// shutdown flag.
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

/// Install a SIGINT handler that requests a graceful drain-and-exit
/// of every [`Server::run`] loop in the process. Safe to call more
/// than once; a no-op on non-Unix targets.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    {
        // The process already links libc; declare `signal(2)` directly
        // rather than growing a dependency. The handler only performs
        // an atomic store, which is async-signal-safe.
        type Handler = extern "C" fn(i32);
        extern "C" {
            fn signal(signum: i32, handler: Handler) -> usize;
        }
        extern "C" fn on_sigint(_sig: i32) {
            SIGINT_SEEN.store(true, Ordering::SeqCst);
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

/// What a worker needs to answer one admitted request. Built on the
/// connection thread so workers do nothing but schedule and write.
struct PreparedRequest {
    id: u64,
    dag: Dag,
    procs: u32,
    engine: Engine,
    deadline: Option<Duration>,
    enqueued: Instant,
    /// Index into [`ALGO_NAMES`] / the per-algo counters.
    algo_idx: usize,
    /// Microseconds spent parsing the line and building the request
    /// on the connection thread (zero when timings are off).
    pre_us: [u64; 2],
}

impl PreparedRequest {
    /// Access-log timings: the four worker phases, then this
    /// request's `parse` and `build`.
    fn phase_us(&self, worker_us: [u64; WORKER_PHASES]) -> [u64; PHASE_NAMES.len()] {
        let [queue, schedule, serialize, write] = worker_us;
        let [parse, build] = self.pre_us;
        [queue, schedule, serialize, write, parse, build]
    }
}

/// The `casch serve` server. [`Server::bind`] then [`Server::run`];
/// `run` blocks until SIGINT or an `op:"shutdown"` request, drains,
/// and returns the lifetime totals.
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:4800`; port 0 picks a free
    /// port — read it back with [`Server::local_addr`]). Also binds
    /// the scrape listener when [`ServeConfig::metrics_addr`] is set
    /// (read it back with [`Server::metrics_addr`]).
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let metrics_listener = match &config.metrics_addr {
            Some(maddr) => Some(TcpListener::bind(maddr.as_str())?),
            None => None,
        };
        Ok(Server {
            listener,
            metrics_listener,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound scrape address, when a metrics listener exists.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// A flag that requests a graceful shutdown when set (what the
    /// protocol's `op:"shutdown"` flips; tests use it directly).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until shutdown, then drain and report. See the
    /// [module docs](self) for the architecture.
    pub fn run(self) -> io::Result<ServeSummary> {
        let Server {
            listener,
            metrics_listener,
            config,
            shutdown,
        } = self;
        listener.set_nonblocking(true)?;
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        // The pool's own instrumentation mirrors the serve-level
        // `metrics` switch, so `--no-metrics` removes every clock
        // read on the hot path.
        let pool = Arc::new(WorkerPool::with_metrics(
            threads,
            config.queue_depth,
            config.metrics,
        ));
        let access = match &config.access_log {
            Some(path) => Some(AccessLog::open(path, config.log_sample_rate)?),
            None => None,
        };
        let stats = Arc::new(ServeStats::new(pool.threads(), config.metrics, access));
        // The scrape listener gets its own dedicated thread — never a
        // pool worker — so /metrics keeps answering while the pool is
        // saturated or wedged.
        let scrape_thread = metrics_listener.map(|ml| {
            let stats = Arc::clone(&stats);
            let pool = Arc::clone(&pool);
            let shutdown = Arc::clone(&shutdown);
            let queue_depth = config.queue_depth;
            std::thread::spawn(move || scrape_loop(&ml, &stats, &pool, queue_depth, &shutdown))
        });
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();

        while !shutdown.load(Ordering::SeqCst) && !SIGINT_SEEN.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stats.connections.inc();
                    stats.conns_live.inc();
                    let ctx = ConnCtx {
                        pool: Arc::clone(&pool),
                        stats: Arc::clone(&stats),
                        shutdown: Arc::clone(&shutdown),
                        config: config.clone(),
                    };
                    conns.push(std::thread::spawn(move || {
                        let stats = Arc::clone(&ctx.stats);
                        let _ = handle_connection(stream, ctx);
                        stats.conns_live.dec();
                    }));
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        shutdown.store(true, Ordering::SeqCst);

        // Drain: connection threads observe the flag within one read
        // timeout; queued jobs keep their connection's writer alive
        // through its Arc, so every admitted request still gets its
        // response before the pool joins.
        for h in conns {
            let _ = h.join();
        }
        pool.shutdown();
        if let Some(h) = scrape_thread {
            let _ = h.join();
        }
        Ok(ServeSummary {
            connections: stats.connections.get(),
            accepted: stats.accepted.get(),
            rejected: stats.rejected.get(),
            timeouts: stats.timeouts.get(),
            malformed: stats.malformed.get(),
            completed: stats.completed.get(),
        })
    }
}

struct ConnCtx {
    pool: Arc<WorkerPool>,
    stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    config: ServeConfig,
}

/// The write half of one connection: serializes whole response lines
/// (shared between the reader thread — errors, stats — and workers —
/// schedules), and turns a client that vanished or stopped reading
/// into a dead connection instead of a blocked worker.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> io::Result<ConnWriter> {
        // Bound every response write: if the client stops draining the
        // socket, `write_all` errors out after WRITE_TIMEOUT instead
        // of parking a pool worker forever on a full send buffer.
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(ConnWriter {
            stream: Mutex::new(stream),
            dead: AtomicBool::new(false),
        })
    }

    /// Write one whole response line. A vanished client is not a
    /// server error: on any write failure (including a timeout) the
    /// response is dropped, the connection is marked dead so later
    /// writes become no-ops, and the socket is shut down so the
    /// reader side unblocks and reaps the connection. The line and
    /// its newline go out in one write, so the client wakes once per
    /// response.
    fn write_line(&self, mut line: String) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        line.push('\n');
        let mut w = self.stream.lock().expect("writer lock");
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        if w.write_all(line.as_bytes()).is_err() {
            self.dead.store(true, Ordering::Relaxed);
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Whether a write has failed (client gone or unresponsive).
    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }
}

fn handle_connection(stream: TcpStream, ctx: ConnCtx) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_nodelay(true).ok();
    let writer = Arc::new(ConnWriter::new(stream.try_clone()?)?);
    let mut reader = LineReader::new(BufReader::new(stream), ctx.config.max_line_bytes);
    let mut line_no: u64 = 0;

    loop {
        let line = match reader.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.shutdown.load(Ordering::SeqCst) || SIGINT_SEEN.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let text = match line {
            Line::TooLong(bytes) => {
                line_no += 1;
                ctx.stats.malformed.inc();
                let resp = Response::Error {
                    id: line_no,
                    error: format!(
                        "line exceeds {} bytes (got {bytes})",
                        ctx.config.max_line_bytes
                    ),
                };
                writer.write_line(resp.to_line());
                continue;
            }
            Line::Text(text) => text,
        };
        if text.trim().is_empty() {
            continue;
        }
        line_no += 1;
        let timed = ctx.stats.wants_timings();
        let t0 = timed.then(Instant::now);
        let parsed = Request::parse(&text, line_no);
        let parse_us = t0.map_or(0, |t| micros(t.elapsed()));
        ctx.stats.record_conn_phase(PARSE_PHASE, parse_us);
        match parsed {
            Err(error) => {
                ctx.stats.malformed.inc();
                writer.write_line(Response::Error { id: line_no, error }.to_line());
            }
            Ok(Request::Stats { id }) => {
                let snap = ctx.stats.snapshot(id, ctx.config.queue_depth);
                writer.write_line(Response::Stats(snap).to_line());
            }
            Ok(Request::Shutdown { id }) => {
                ctx.shutdown.store(true, Ordering::SeqCst);
                // Drain before acknowledging: the ack promises that
                // every previously admitted request has its response.
                // (Relaxed is enough: the gauge's own modification
                // order is monotone toward zero once admissions stop,
                // and stores become visible eventually.)
                while ctx.stats.in_flight.get() > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let resp = Response::Shutdown {
                    id,
                    completed: ctx.stats.completed.get(),
                };
                writer.write_line(resp.to_line());
                break;
            }
            Ok(Request::Schedule(req)) => {
                let id = req.id;
                let t1 = timed.then(Instant::now);
                let prepared = prepare(req, &ctx.config);
                let build_us = t1.map_or(0, |t| micros(t.elapsed()));
                ctx.stats.record_conn_phase(BUILD_PHASE, build_us);
                match prepared {
                    Err(error) => {
                        ctx.stats.malformed.inc();
                        writer.write_line(Response::Error { id, error }.to_line());
                    }
                    Ok(mut prepared) => {
                        prepared.pre_us = [parse_us, build_us];
                        // Count as in-flight *before* admitting so the
                        // shutdown drain can never miss it.
                        ctx.stats.in_flight.inc();
                        // With no further request waiting on this
                        // connection and a worker idle, run the request
                        // here in that worker's place: no hand-off to
                        // the worker and no wake-up of this thread for
                        // the next line.
                        let claim = if reader.has_buffered() {
                            None
                        } else {
                            ctx.pool.try_claim()
                        };
                        if let Some(claim) = claim {
                            ctx.stats.accepted.inc();
                            claim.run(|worker, ws| {
                                process(prepared, worker, ws, &ctx.stats, &writer);
                            });
                        } else {
                            let algo_idx = prepared.algo_idx;
                            let nodes = prepared.dag.node_count();
                            let procs = prepared.procs;
                            let stats = Arc::clone(&ctx.stats);
                            let job_writer = Arc::clone(&writer);
                            let job: fastsched_algorithms::pool::Job =
                                Box::new(move |worker, ws| {
                                    process(prepared, worker, ws, &stats, &job_writer);
                                });
                            match ctx.pool.try_submit(job) {
                                Ok(()) => {
                                    ctx.stats.accepted.inc();
                                }
                                Err(_rejected_job) => {
                                    ctx.stats.in_flight.dec();
                                    ctx.stats.rejected.inc();
                                    if let Some(log) = &ctx.stats.access {
                                        log.log(|| {
                                            access_line(
                                                id,
                                                ALGO_NAMES[algo_idx],
                                                nodes,
                                                procs,
                                                "rejected",
                                                [0, 0, 0, 0, parse_us, build_us],
                                            )
                                        });
                                    }
                                    let resp = Response::Error {
                                        id,
                                        error: "overloaded".to_string(),
                                    };
                                    writer.write_line(resp.to_line());
                                }
                            }
                        }
                    }
                }
            }
        }
        if ctx.shutdown.load(Ordering::SeqCst) || writer.is_dead() {
            break;
        }
    }
    Ok(())
}

/// Build a [`CommModel`] from wire spec data, enforcing the server's
/// group and processor caps *before* the group table is materialized.
fn build_comm(spec: CommSpec, config: &ServeConfig, proc_limit: u64) -> Result<CommModel, String> {
    match spec {
        CommSpec::Ideal => Ok(CommModel::Ideal),
        CommSpec::AlphaBeta {
            alpha,
            beta_num,
            beta_den,
        } => AlphaBeta::try_new(alpha, beta_num, beta_den)
            .map(CommModel::AlphaBeta)
            .map_err(|e| format!("parse: comm: {e}")),
        CommSpec::Hier {
            groups,
            intra,
            inter,
        } => {
            let max_groups = config.max_groups.max(1);
            if groups.len() as u64 > u64::from(max_groups) {
                return Err(format!(
                    "parse: `comm.groups` lists {} group(s), above the server's \
                     group limit ({max_groups}); raise --max-groups if intended",
                    groups.len()
                ));
            }
            let total: u64 = groups.iter().map(|&s| u64::from(s)).sum();
            if total > proc_limit {
                return Err(format!(
                    "parse: hier group table covers {total} processor(s), above the \
                     server's processor limit ({proc_limit}); raise --max-procs if intended"
                ));
            }
            let intra = AlphaBeta::try_new(intra[0], intra[1], intra[2])
                .map_err(|e| format!("parse: comm.intra: {e}"))?;
            let inter = AlphaBeta::try_new(inter[0], inter[1], inter[2])
                .map_err(|e| format!("parse: comm.inter: {e}"))?;
            Hierarchical::from_group_sizes(&groups, intra, inter)
                .map(CommModel::Hierarchical)
                .map_err(|e| format!("parse: comm: {e}"))
        }
    }
}

/// Validate a schedule request into a ready-to-run job payload.
///
/// Kept out of line: inlined into the connection loop it cost about
/// 5% of `models` throughput (2-core host), where the connection
/// thread also runs most requests itself.
#[inline(never)]
fn prepare(req: ScheduleRequest, config: &ServeConfig) -> Result<PreparedRequest, String> {
    let dag = req.dag.build().map_err(|e| format!("parse: dag: {e}"))?;
    // Schedulers allocate O(procs) scratch, so a client-controlled
    // processor count must be bounded before it reaches a worker: up
    // to the DAG's own node count always (more can never be used), or
    // the configured cap, whichever is larger.
    let proc_limit = (dag.node_count() as u64).max(u64::from(config.max_procs.max(1)));
    let algo_idx = match req.speeds {
        Some(_) => ALGO_NAMES.len() - 1,
        None => algo_index(&req.algo),
    };
    let comm = req
        .comm
        .map(|spec| build_comm(spec, config, proc_limit))
        .transpose()?;
    let (engine, procs) = machine::resolve(
        &req.algo,
        req.procs,
        comm,
        req.mem_caps,
        req.speeds,
        dag.node_count(),
        proc_limit,
    )
    .map_err(|e| format!("parse: {e}"))?;
    let timeout_ms = req.timeout_ms.unwrap_or(config.default_timeout_ms);
    Ok(PreparedRequest {
        id: req.id,
        dag,
        procs,
        engine,
        deadline: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        enqueued: Instant::now(),
        algo_idx,
        pre_us: [0; 2],
    })
}

/// Settles one admitted request however its job exits: decrements
/// `in_flight` exactly once (so the shutdown drain can never hang on
/// a lost request), and — if the job unwound before writing its
/// response (a scheduler panicking on hostile input; the pool catches
/// the panic and keeps the worker) — still answers the client with a
/// stable `internal:` error line.
struct ResponseGuard<'a> {
    stats: &'a ServeStats,
    writer: &'a ConnWriter,
    req: &'a PreparedRequest,
    answered: bool,
}

impl Drop for ResponseGuard<'_> {
    fn drop(&mut self) {
        if !self.answered {
            let error = "internal: scheduler panicked".to_string();
            refuse(self.req, self.stats, self.writer, error, [0; WORKER_PHASES]);
        }
        self.stats.in_flight.dec();
    }
}

/// Answer an admitted request with `error` instead of a schedule, and
/// log it with the error's leading word as the outcome.
fn refuse(
    req: &PreparedRequest,
    stats: &ServeStats,
    writer: &ConnWriter,
    error: String,
    worker_us: [u64; WORKER_PHASES],
) {
    let outcome = error.split(':').next().unwrap_or("internal").to_string();
    writer.write_line(Response::Error { id: req.id, error }.to_line());
    if let Some(log) = &stats.access {
        log.log(|| {
            access_line(
                req.id,
                ALGO_NAMES[req.algo_idx],
                req.dag.node_count(),
                req.procs,
                &outcome,
                req.phase_us(worker_us),
            )
        });
    }
}

/// Execution of one admitted request with pool workspace `worker`,
/// on a worker or a claiming connection thread: schedule, serialize,
/// write — with each phase (plus the preceding queue wait) timed into
/// that workspace's shard when metrics are on.
fn process(
    req: PreparedRequest,
    worker: usize,
    ws: &mut Workspace,
    stats: &ServeStats,
    writer: &ConnWriter,
) {
    let mut guard = ResponseGuard {
        stats,
        writer,
        req: &req,
        answered: false,
    };
    let shard = &stats.workers[worker];
    let detail = stats.wants_timings();
    let waited = req.enqueued.elapsed();
    let queue_us = micros(waited);
    if stats.timing {
        shard.phase_us[0].record(queue_us);
    }
    if req.deadline.is_some_and(|d| waited > d) {
        stats.timeouts.inc();
        refuse(
            &req,
            stats,
            writer,
            "timeout".to_string(),
            [queue_us, 0, 0, 0],
        );
        guard.answered = true;
        return;
    }
    let t0 = Instant::now();
    let result = req
        .engine
        .run(&req.dag, req.procs, ws, &mut SearchTrace::default());
    let t1 = Instant::now();
    // `service_us` in the response is the schedule phase — the same
    // quantity it has always carried.
    let service_us = micros(t1.duration_since(t0));
    let schedule = match result {
        Ok(schedule) => schedule,
        Err(e) => {
            let word = match e {
                SchedulerError::Infeasible { .. } => "infeasible",
                SchedulerError::NoProcessors | SchedulerError::Overflow => "parse",
                SchedulerError::Unsupported | SchedulerError::Invalid(_) => "internal",
            };
            let error = format!("{word}: {e}");
            refuse(&req, stats, writer, error, [queue_us, service_us, 0, 0]);
            guard.answered = true;
            return;
        }
    };
    let resp = ScheduleResponse::from_schedule(
        req.id,
        req.engine.name(),
        req.procs,
        &schedule,
        queue_us,
        service_us,
    );
    let line = Response::Schedule(resp).to_line();
    // The serialize/write split costs two extra clock reads, so it is
    // taken only when histograms or the access log want the numbers.
    let t2 = detail.then(Instant::now);
    writer.write_line(line);
    let (serialize_us, write_us) = match t2 {
        Some(t2) => (
            t2.duration_since(t1).as_micros() as u64,
            t2.elapsed().as_micros() as u64,
        ),
        None => (0, 0),
    };
    guard.answered = true;
    // Recycle the result so the worker's steady state stays
    // allocation-free once its spare pool is warm.
    ws.recycle(schedule);
    shard.requests.inc();
    if stats.timing {
        shard.phase_us[1].record(service_us);
        shard.phase_us[2].record(serialize_us);
        shard.phase_us[3].record(write_us);
    }
    stats.algos[req.algo_idx].inc();
    stats.completed.inc();
    if let Some(log) = &stats.access {
        log.log(|| {
            access_line(
                req.id,
                ALGO_NAMES[req.algo_idx],
                req.dag.node_count(),
                req.procs,
                "ok",
                req.phase_us([queue_us, service_us, serialize_us, write_us]),
            )
        });
    }
}

// ---------------------------------------------------- scrape listener

/// Accept loop for the metrics listener. Requests are one line and
/// responses render from lock-free snapshots, so connections are
/// served serially on this one dedicated thread; read/write timeouts
/// bound the damage a stalled scraper can do, and a saturated worker
/// pool cannot delay a scrape at all.
fn scrape_loop(
    listener: &TcpListener,
    stats: &ServeStats,
    pool: &WorkerPool,
    queue_depth: usize,
    shutdown: &AtomicBool,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shutdown.load(Ordering::SeqCst) && !SIGINT_SEEN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = serve_scrape(stream, stats, pool, queue_depth);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Answer one scrape connection: a minimal HTTP/1.1 exchange
/// (`GET /metrics` → Prometheus text, `GET /metrics.json` → the same
/// line `op:"stats"` would return), then close.
fn serve_scrape(
    mut stream: TcpStream,
    stats: &ServeStats,
    pool: &WorkerPool,
    queue_depth: usize,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    // Read the request head (bounded); everything routing needs is in
    // the request line.
    let mut head = [0u8; 4096];
    let mut n = 0;
    while n < head.len() {
        match stream.read(&mut head[n..]) {
            Ok(0) => break,
            Ok(r) => {
                n += r;
                if head[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&head[..n]);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                CONTENT_TYPE,
                render_exposition(stats, pool, queue_depth),
            ),
            "/metrics.json" => {
                let mut line = Response::Stats(stats.snapshot(0, queue_depth)).to_line();
                line.push('\n');
                ("200 OK", "application/json", line)
            }
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Render the full Prometheus exposition page from the serve and
/// pool registries.
fn render_exposition(stats: &ServeStats, pool: &WorkerPool, queue_depth: usize) -> String {
    let mut exp = Exposition::new();
    exp.gauge("casch_uptime_seconds", "Seconds since the server started.")
        .sample(&[], stats.uptime_s());
    exp.gauge("casch_host_cores", "CPU cores on the serving host.")
        .sample(&[], stats.host_cores as u64);
    exp.gauge("casch_threads", "Pool worker threads.")
        .sample(&[], stats.workers.len() as u64);
    exp.gauge("casch_queue_capacity", "Admission-queue capacity.")
        .sample(&[], queue_depth as u64);
    exp.gauge("casch_queue_depth", "Jobs waiting in the admission queue.")
        .sample(&[], pool.queued() as u64);
    exp.gauge("casch_in_flight", "Admitted requests not yet answered.")
        .sample(&[], stats.in_flight.get());
    exp.gauge("casch_connections_live", "Open client connections.")
        .sample(&[], stats.conns_live.get());
    exp.counter("casch_connections_total", "Connections accepted.")
        .sample(&[], stats.connections.get());
    exp.counter(
        "casch_requests_accepted_total",
        "Schedule requests admitted to the queue.",
    )
    .sample(&[], stats.accepted.get());
    exp.counter(
        "casch_requests_rejected_total",
        "Schedule requests rejected by admission control.",
    )
    .sample(&[], stats.rejected.get());
    exp.counter(
        "casch_requests_timeout_total",
        "Admitted requests answered `timeout`.",
    )
    .sample(&[], stats.timeouts.get());
    exp.counter(
        "casch_lines_malformed_total",
        "Lines answered with a parse or oversize error.",
    )
    .sample(&[], stats.malformed.get());
    {
        let mut fam = exp.counter(
            "casch_requests_total",
            "Schedule requests completed, by algorithm; sums to `completed`.",
        );
        for (i, name) in ALGO_NAMES.iter().enumerate() {
            let v = stats.algos[i].get();
            if v > 0 {
                fam.sample(&[("algo", name)], v);
            }
        }
    }
    {
        let mut fam = exp.counter(
            "casch_worker_requests_total",
            "Schedule requests completed, by pool worker.",
        );
        for (i, w) in stats.workers.iter().enumerate() {
            let label = i.to_string();
            fam.sample(&[("worker", &label)], w.requests.get());
        }
    }
    {
        let mut fam = exp.histogram(
            "casch_phase_latency_us",
            "Per-phase request latency in microseconds, merged across workers.",
        );
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            fam.series(&[("phase", name)], &stats.merged_phase(i));
        }
    }
    let pm = pool.metrics();
    exp.histogram(
        "casch_pool_queue_latency_us",
        "Microseconds jobs spent in the pool queue (enqueue to pop).",
    )
    .series(&[], &pm.merged_queue_us());
    exp.histogram(
        "casch_pool_job_latency_us",
        "Microseconds jobs spent running on a pool worker.",
    )
    .series(&[], &pm.merged_run_us());
    exp.finish()
}
