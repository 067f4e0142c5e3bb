//! The `casch serve` wire protocol: NDJSON over TCP.
//!
//! One JSON object per `\n`-terminated line, in both directions. A
//! client sends [`Request`] lines; the server answers each with
//! exactly one [`Response`] line carrying the request's `id` (an
//! explicit `"id"` field, or the 1-based line number within the
//! connection when omitted). Responses to pipelined requests may
//! arrive **out of order** — the `id` is the correlation key.
//!
//! ## Requests
//!
//! ```text
//! {"op":"schedule","id":1,"dag":{"nodes":[...],"edges":[...]},
//!  "algo":"fast","procs":8,"speeds":[100,50],"timeout_ms":250}
//! {"op":"stats","id":2}
//! {"op":"shutdown","id":3}
//! ```
//!
//! `op` defaults to `"schedule"`, `algo` to `"fast"`, `procs` to the
//! DAG's node count. `speeds` (percent of nominal, one entry per
//! processor) switches to the heterogeneous machine model, and `procs`
//! is the number of speed entries; HEFT over speeds answers as
//! `HEFT-hetero`. `timeout_ms` bounds the request's queue wait (see
//! DESIGN.md §14).
//!
//! An optional `comm` object selects a communication cost model
//! (DESIGN.md §16); it cannot be combined with `speeds`:
//!
//! ```text
//! "comm":{"model":"ideal"}
//! "comm":{"model":"alpha-beta","alpha":20,"beta_num":3,"beta_den":2}
//! "comm":{"model":"hier","groups":[4,4],"intra":[0,1,1],"inter":[40,2,1]}
//! ```
//!
//! The protocol layer keeps `comm` as pure spec data ([`CommSpec`]);
//! the service layer checks it against its `--max-procs` cap *before*
//! materializing a model, so a one-line request cannot demand an
//! enormous group table.
//!
//! An optional `mem_caps` field selects memory-constrained scheduling
//! (DESIGN.md §17), over `comm` or `speeds` alike: a number is a
//! uniform per-processor capacity, an array is one capacity per
//! processor (fixing the processor count, length capped like
//! `procs`/`speeds` before any allocation). Per-node footprints
//! travel as optional `mem` fields on the DAG's nodes.
//!
//! ## Responses
//!
//! ```text
//! {"id":1,"ok":true,"algo":"FAST","procs":8,"makespan":18,
//!  "placements":[[0,0,2],[1,0,3]],"queue_us":12,"service_us":35}
//! {"id":4,"ok":false,"error":"overloaded"}
//! ```
//!
//! `placements[n] = [proc, start, finish]` for node `n`, in node-id
//! order — rendered by [`placements_json`], the same function the
//! validation harness uses, so "byte-identical to `schedule_into`"
//! is checkable on the exact response bytes.
//!
//! Error responses use a small set of stable first words: `parse:`
//! (malformed JSON or a bad field, including a `procs`/`speeds`
//! count beyond the server's processor limit and weights whose times
//! overflow u64), `infeasible:` (no processor has memory room for a
//! node), `unsupported:` (the algorithm's core cannot price the
//! machine's communication model, memory capacities or processor
//! speeds), `too_large:` (the DAG has more nodes than the algorithm
//! accepts: `bnb` searches at most 16), `overloaded` (admission
//! control rejected the request), `timeout` (the request waited past
//! its deadline), `line exceeds` (oversized-line rejection, see
//! [`LineReader`]), and `internal:` (the correctness gate rejected a
//! schedule, or the request's job panicked on the worker; the worker
//! itself survives).

use fastsched_dag::io::DagSpec;
use fastsched_dag::json::{self, Reader, Writer};
use fastsched_schedule::{MemCapsSpec, Schedule};
use fastsched_trace::json_string;
use std::borrow::Cow;
use std::io::{self, BufRead};

/// Default cap on one NDJSON line (requests and responses): 4 MiB.
pub const DEFAULT_MAX_LINE: usize = 4 << 20;

// ----------------------------------------------------------- requests

/// One client request line.
// Schedule dwarfs Stats/Shutdown, but exactly one Request exists per
// parsed line and it is consumed immediately — boxing would only add
// an allocation to the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Schedule a DAG.
    Schedule(ScheduleRequest),
    /// Snapshot the server's counters.
    Stats {
        /// Correlation id echoed in the response.
        id: u64,
    },
    /// Drain in-flight work, answer, and stop the server.
    Shutdown {
        /// Correlation id echoed in the response.
        id: u64,
    },
}

/// The `comm` object of a schedule request: a communication cost
/// model, kept as *spec data* here. The service layer validates it
/// against its resource caps and builds the actual
/// [`fastsched_schedule::CommModel`]; nothing in this type allocates
/// proportionally to the processor counts it names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommSpec {
    /// The paper's ideal network (zero-cost links beyond the edge
    /// weight).
    Ideal,
    /// Latency–bandwidth pricing: a remote message costs
    /// `alpha + ceil(nominal * beta_num / beta_den)`.
    AlphaBeta {
        /// Fixed per-message latency.
        alpha: u64,
        /// Bandwidth factor numerator.
        beta_num: u64,
        /// Bandwidth factor denominator (must be positive).
        beta_den: u64,
    },
    /// Grouped (NUMA-style) pricing: consecutive group sizes plus an
    /// intra-group and an inter-group `[alpha, beta_num, beta_den]`
    /// tier.
    Hier {
        /// Processors per group, in group order.
        groups: Vec<u32>,
        /// Same-group link pricing.
        intra: [u64; 3],
        /// Cross-group link pricing.
        inter: [u64; 3],
    },
}

impl CommSpec {
    /// Write as the protocol's `comm` JSON object.
    pub fn write_json(&self, w: &mut Writer) {
        w.begin_object().key("model");
        match self {
            CommSpec::Ideal => {
                w.str("ideal");
            }
            CommSpec::AlphaBeta {
                alpha,
                beta_num,
                beta_den,
            } => {
                w.str("alpha-beta")
                    .field("alpha", *alpha)
                    .field("beta_num", *beta_num)
                    .field("beta_den", *beta_den);
            }
            CommSpec::Hier {
                groups,
                intra,
                inter,
            } => {
                w.str("hier")
                    .key("groups")
                    .u64s(groups.iter().map(|&g| g.into()))
                    .key("intra")
                    .u64s(*intra)
                    .key("inter")
                    .u64s(*inter);
            }
        }
        w.end_object();
    }
}

/// The payload of an `op:"schedule"` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// Correlation id echoed in the response.
    pub id: u64,
    /// The task graph to schedule.
    pub dag: DagSpec,
    /// Algorithm name, one of [`crate::machine::ALGORITHMS`], as the
    /// `casch` CLI accepts it.
    pub algo: String,
    /// Processor count; `None` means one per node.
    pub procs: Option<u32>,
    /// Heterogeneous processor speeds (percent of nominal). When set,
    /// the request runs on these processors and `procs` must be
    /// absent or equal to the entry count.
    pub speeds: Option<Vec<u32>>,
    /// Per-request queue-wait deadline in milliseconds (overrides the
    /// server default; `0` disables).
    pub timeout_ms: Option<u64>,
    /// Optional communication cost model (see [`CommSpec`]); it cannot
    /// be combined with `speeds`.
    pub comm: Option<CommSpec>,
    /// Optional per-processor memory capacities: a number (uniform
    /// capacity) or an array (one capacity per processor, fixing the
    /// processor count — the service layer caps its length like
    /// `procs`/`speeds` before allocating anything). Per-node
    /// footprints ride in the DAG's `mem` fields.
    pub mem_caps: Option<MemCapsSpec>,
}

impl ScheduleRequest {
    /// A schedule request with defaults (`algo:"fast"`, `procs` from
    /// the DAG, no speeds, server-default timeout).
    pub fn new(id: u64, dag: DagSpec) -> Self {
        Self {
            id,
            dag,
            algo: "fast".to_string(),
            procs: None,
            speeds: None,
            timeout_ms: None,
            comm: None,
            mem_caps: None,
        }
    }

    /// Render as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut w = Writer::compact();
        w.begin_object()
            .key("op")
            .str("schedule")
            .field("id", self.id)
            .key("algo")
            .str(&self.algo);
        if let Some(p) = self.procs {
            w.field("procs", p.into());
        }
        if let Some(speeds) = &self.speeds {
            w.key("speeds").u64s(speeds.iter().map(|&s| s.into()));
        }
        if let Some(t) = self.timeout_ms {
            w.field("timeout_ms", t);
        }
        if let Some(comm) = &self.comm {
            comm.write_json(w.key("comm"));
        }
        match &self.mem_caps {
            Some(MemCapsSpec::Uniform(cap)) => {
                w.field("mem_caps", *cap);
            }
            Some(MemCapsSpec::PerProc(caps)) => {
                w.key("mem_caps").u64s(caps.iter().copied());
            }
            None => {}
        }
        self.dag.write_json(w.key("dag"));
        w.end_object();
        w.finish()
    }
}

impl Request {
    /// Render as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Schedule(r) => r.to_line(),
            Request::Stats { id } => format!("{{\"op\":\"stats\",\"id\":{id}}}"),
            Request::Shutdown { id } => format!("{{\"op\":\"shutdown\",\"id\":{id}}}"),
        }
    }

    /// Parse one request line. `default_id` (the connection's 1-based
    /// line number) is used when the request carries no `"id"`.
    ///
    /// One pass of a [`Reader`] over the line: the `dag` decodes
    /// straight into its [`DagSpec`], and no value tree is built. The
    /// whole line must be valid JSON. The first occurrence of a
    /// repeated key wins and unknown keys are skipped. A known field
    /// with the wrong type is an error only when the op reads it, so
    /// `op:"stats"` is answered whatever `dag` holds.
    pub fn parse(line: &str, default_id: u64) -> Result<Request, String> {
        let f = Fields::read(line)?;
        let id = f.id.transpose()?.flatten().unwrap_or(default_id);
        match f.op.transpose()?.as_deref().unwrap_or("schedule") {
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "schedule" => Ok(Request::Schedule(ScheduleRequest {
                id,
                dag: f.dag.ok_or("parse: missing `dag`")??,
                algo: f
                    .algo
                    .transpose()?
                    .flatten()
                    .unwrap_or_else(|| "fast".to_string()),
                procs: f.procs.transpose()?.flatten(),
                speeds: f.speeds.transpose()?.flatten(),
                timeout_ms: f.timeout_ms.transpose()?.flatten(),
                comm: f.comm.transpose()?.flatten(),
                mem_caps: f.mem_caps.transpose()?.flatten(),
            })),
            other => Err(format!("parse: unknown op `{other}`")),
        }
    }
}

/// A known request field: absent (`None`), or its first occurrence
/// decoded, or the error decoding it gave.
type Slot<T> = Option<Result<T, String>>;

/// The known fields of one request line. Optional fields decode to
/// `None` when they are `null`.
#[derive(Default)]
struct Fields<'a> {
    id: Slot<Option<u64>>,
    op: Slot<Cow<'a, str>>,
    dag: Slot<DagSpec>,
    algo: Slot<Option<String>>,
    procs: Slot<Option<u32>>,
    speeds: Slot<Option<Vec<u32>>>,
    timeout_ms: Slot<Option<u64>>,
    comm: Slot<Option<CommSpec>>,
    mem_caps: Slot<Option<MemCapsSpec>>,
}

impl<'a> Fields<'a> {
    /// Read every field of the request object in `line`. A syntax
    /// error anywhere fails the line; a field's type error is kept in
    /// its slot.
    fn read(line: &'a str) -> Result<Fields<'a>, String> {
        let mut r = Reader::new(line);
        r.object()
            .map_err(|_| "parse: request must be a JSON object".to_string())?;
        let mut f = Fields::default();
        f.read_keys(&mut r).map_err(|e| format!("parse: {e}"))?;
        Ok(f)
    }

    fn read_keys(&mut self, r: &mut Reader<'a>) -> Result<(), json::Error> {
        while let Some(key) = r.next_key()? {
            match &*key {
                "id" => slot(r, &mut self.id, |r| {
                    nullable(r, |r| {
                        r.u64()
                            .map_err(|_| "parse: `id` must be a non-negative integer")
                    })
                }),
                "op" => slot(r, &mut self.op, |r| {
                    r.str().map_err(|_| "parse: `op` must be a string")
                }),
                "dag" => slot(r, &mut self.dag, |r| {
                    DagSpec::read_json(r).map_err(|e| format!("parse: dag: {e}"))
                }),
                "algo" => slot(r, &mut self.algo, |r| {
                    nullable(r, |r| {
                        r.str()
                            .map(Cow::into_owned)
                            .map_err(|_| "parse: `algo` must be a string")
                    })
                }),
                "procs" => slot(r, &mut self.procs, |r| {
                    nullable(r, |r| {
                        r.u64()
                            .ok()
                            .and_then(positive_u32)
                            .ok_or("parse: `procs` must be a positive integer")
                    })
                }),
                "speeds" => slot(r, &mut self.speeds, |r| nullable(r, read_speeds)),
                "timeout_ms" => slot(r, &mut self.timeout_ms, |r| {
                    nullable(r, |r| {
                        r.u64()
                            .map_err(|_| "parse: `timeout_ms` must be a non-negative integer")
                    })
                }),
                "comm" => slot(r, &mut self.comm, |r| nullable(r, read_comm)),
                "mem_caps" => slot(r, &mut self.mem_caps, |r| nullable(r, read_mem_caps)),
                _ => r.skip(),
            }?;
        }
        r.end()
    }
}

/// Decode a field's first occurrence into `slot`, and skip any later
/// one. When decoding fails, the error is stored and the value is
/// passed over again with [`Reader::skip`], so a syntax error inside
/// it still fails the line.
fn slot<'a, T, E: Into<String>>(
    r: &mut Reader<'a>,
    slot: &mut Slot<T>,
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
) -> Result<(), json::Error> {
    if slot.is_some() {
        return r.skip();
    }
    let start = r.clone();
    let value = decode(r).map_err(Into::into);
    if value.is_err() {
        *r = start;
        r.skip()?;
    }
    *slot = Some(value);
    Ok(())
}

/// `None` for `null`, else the decoded value.
fn nullable<'a, T, E>(
    r: &mut Reader<'a>,
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
) -> Result<Option<T>, E> {
    // A malformed `null` fails in `decode`, and `slot` then reports
    // the syntax error.
    if matches!(r.null(), Ok(true)) {
        return Ok(None);
    }
    decode(r).map(Some)
}

fn positive_u32(x: u64) -> Option<u32> {
    u32::try_from(x).ok().filter(|&x| x > 0)
}

/// A JSON array of non-negative integers, each passed through `check`.
fn read_array<T>(r: &mut Reader<'_>, check: impl Fn(u64) -> Option<T>) -> Result<Vec<T>, ()> {
    let mut out = Vec::new();
    r.array().map_err(drop)?;
    while r.next_item().map_err(drop)? {
        out.push(r.u64().ok().and_then(&check).ok_or(())?);
    }
    Ok(out)
}

fn read_speeds(r: &mut Reader<'_>) -> Result<Vec<u32>, String> {
    if r.peek() != Some(b'[') {
        return Err("parse: `speeds` must be an array".to_string());
    }
    let pcts = read_array(r, positive_u32).map_err(|()| {
        format!(
            "parse: `speeds` must be positive integer percentages of at most {}",
            u32::MAX
        )
    })?;
    if pcts.is_empty() {
        return Err("parse: `speeds` must not be empty".to_string());
    }
    Ok(pcts)
}

/// The known keys of a `comm` object, each decoded at its first
/// occurrence (see [`slot`]).
#[derive(Default)]
struct CommFields<'a> {
    model: Slot<Cow<'a, str>>,
    alpha: Slot<u64>,
    beta_num: Slot<u64>,
    beta_den: Slot<u64>,
    groups: Slot<Vec<u32>>,
    intra: Slot<[u64; 3]>,
    inter: Slot<[u64; 3]>,
}

const COMM_MODEL: &str = "parse: `comm.model` must be a string";

/// Decode the `comm` object of a schedule request in one pass. The
/// keys may come in any order, so each is decoded where it stands and
/// a type error is kept until the model says whether the key counts:
/// `ideal` reads nothing else, `alpha-beta` its three numbers, `hier`
/// its groups and tiers. Shape and cheap value checks only (a zero
/// `beta_den` or empty/zero group is rejected here); resource caps are
/// the service layer's job.
fn read_comm(r: &mut Reader<'_>) -> Result<CommSpec, String> {
    if r.peek() != Some(b'{') {
        return Err(COMM_MODEL.to_string());
    }
    let mut f = CommFields::default();
    f.read_keys(r).map_err(|e| format!("parse: {e}"))?;
    let number = |slot: Slot<u64>, k: &str| {
        slot.unwrap_or_else(|| Err(format!("parse: `comm.{k}` must be a non-negative integer")))
    };
    let tier = |slot: Slot<[u64; 3]>, k: &str| {
        slot.unwrap_or_else(|| {
            Err(format!(
                "parse: `comm.{k}` must be `[alpha,beta_num,beta_den]`"
            ))
        })
    };
    match &*f.model.ok_or(COMM_MODEL)?? {
        "ideal" => Ok(CommSpec::Ideal),
        "alpha-beta" => {
            let beta_den = number(f.beta_den, "beta_den")?;
            if beta_den == 0 {
                return Err("parse: `comm.beta_den` must be positive".to_string());
            }
            Ok(CommSpec::AlphaBeta {
                alpha: number(f.alpha, "alpha")?,
                beta_num: number(f.beta_num, "beta_num")?,
                beta_den,
            })
        }
        "hier" => {
            let groups = f.groups.ok_or("parse: `comm.groups` must be an array")??;
            if groups.is_empty() {
                return Err("parse: `comm.groups` must not be empty".to_string());
            }
            Ok(CommSpec::Hier {
                groups,
                intra: tier(f.intra, "intra")?,
                inter: tier(f.inter, "inter")?,
            })
        }
        other => Err(format!("parse: unknown comm model `{other}`")),
    }
}

impl<'a> CommFields<'a> {
    fn read_keys(&mut self, r: &mut Reader<'a>) -> Result<(), json::Error> {
        r.object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "model" => slot(r, &mut self.model, |r| r.str().map_err(|_| COMM_MODEL)),
                "alpha" => slot(r, &mut self.alpha, |r| uint(r, "comm.alpha")),
                "beta_num" => slot(r, &mut self.beta_num, |r| uint(r, "comm.beta_num")),
                "beta_den" => slot(r, &mut self.beta_den, |r| uint(r, "comm.beta_den")),
                "groups" => slot(r, &mut self.groups, |r| {
                    if r.peek() != Some(b'[') {
                        return Err("parse: `comm.groups` must be an array");
                    }
                    read_array(r, positive_u32)
                        .map_err(|()| "parse: `comm.groups` must be positive integers")
                }),
                "intra" => slot(r, &mut self.intra, |r| read_tier(r, "intra")),
                "inter" => slot(r, &mut self.inter, |r| read_tier(r, "inter")),
                _ => r.skip(),
            }?;
        }
        Ok(())
    }
}

/// A `[alpha, beta_num, beta_den]` pricing tier of a `hier` model.
fn read_tier(r: &mut Reader<'_>, k: &str) -> Result<[u64; 3], String> {
    let tier = r
        .u64_array()
        .map_err(|e| format!("parse: `comm.{k}` must be `[alpha,beta_num,beta_den]`: {e}"))?;
    if tier[2] == 0 {
        return Err(format!("parse: `comm.{k}` beta_den must be positive"));
    }
    Ok(tier)
}

fn read_mem_caps(r: &mut Reader<'_>) -> Result<MemCapsSpec, String> {
    if r.peek() != Some(b'[') {
        return r.u64().map(MemCapsSpec::Uniform).map_err(|_| {
            "parse: `mem_caps` must be a non-negative integer or an array of them".to_string()
        });
    }
    let caps = read_array(r, Some)
        .map_err(|()| "parse: `mem_caps` entries must be non-negative integers".to_string())?;
    if caps.is_empty() {
        return Err("parse: `mem_caps` must not be empty".to_string());
    }
    Ok(MemCapsSpec::PerProc(caps))
}

// ---------------------------------------------------------- responses

/// One server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed schedule.
    Schedule(ScheduleResponse),
    /// The request failed; `error` says why (see the module docs for
    /// the stable error vocabulary).
    Error {
        /// Correlation id of the failed request.
        id: u64,
        /// Why the request failed.
        error: String,
    },
    /// Counter snapshot answering an `op:"stats"` request.
    Stats(StatsSnapshot),
    /// Acknowledgement of an `op:"shutdown"` request, sent after the
    /// queue has drained.
    Shutdown {
        /// Correlation id of the shutdown request.
        id: u64,
        /// Requests completed over the server's lifetime.
        completed: u64,
    },
}

/// A successful scheduling response.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResponse {
    /// Correlation id of the request.
    pub id: u64,
    /// Display name of the algorithm that ran (`"FAST"`, ...).
    pub algo: String,
    /// Processors the request was scheduled onto.
    pub procs: u32,
    /// Schedule length.
    pub makespan: u64,
    /// `placements[n] = (proc, start, finish)` in node-id order.
    pub placements: Vec<(u32, u64, u64)>,
    /// Microseconds the request waited in the admission queue.
    pub queue_us: u64,
    /// Microseconds the worker spent scheduling.
    pub service_us: u64,
}

impl ScheduleResponse {
    /// Capture a finished schedule as a response payload.
    pub fn from_schedule(
        id: u64,
        algo: &str,
        procs: u32,
        schedule: &Schedule,
        queue_us: u64,
        service_us: u64,
    ) -> Self {
        Self {
            id,
            algo: algo.to_string(),
            procs,
            makespan: schedule.makespan(),
            placements: placements_of(schedule),
            queue_us,
            service_us,
        }
    }

    /// Render as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "{{\"id\":{},\"ok\":true,\"algo\":{},\"procs\":{},\"makespan\":{},\
             \"placements\":{},\"queue_us\":{},\"service_us\":{}}}",
            self.id,
            json_string(&self.algo),
            self.procs,
            self.makespan,
            placements_json(&self.placements),
            self.queue_us,
            self.service_us
        )
    }
}

/// Per-worker counters inside a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker index (0-based).
    pub worker: usize,
    /// Requests this worker completed.
    pub requests: u64,
    /// Median service time over the worker's recent requests, µs.
    pub p50_us: u64,
    /// 99th-percentile service time over the worker's recent
    /// requests, µs.
    pub p99_us: u64,
}

/// One request phase's latency distribution inside a
/// [`StatsSnapshot`]: quantiles from the server-side histogram, in
/// microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Phase name: `queue`, `schedule`, `serialize`, `write`,
    /// `parse` or `build`.
    pub phase: String,
    /// Observations recorded in this phase.
    pub count: u64,
    /// Median, µs.
    pub p50_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// 99.9th percentile, µs.
    pub p999_us: u64,
    /// Mean, µs.
    pub mean_us: u64,
}

/// Server counters answering an `op:"stats"` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Correlation id of the stats request.
    pub id: u64,
    /// Worker-thread count.
    pub threads: usize,
    /// Admission-queue capacity.
    pub queue_depth: usize,
    /// Schedule requests admitted to the queue.
    pub accepted: u64,
    /// Schedule requests rejected by admission control (`overloaded`).
    pub rejected: u64,
    /// Requests that waited past their deadline (`timeout`).
    pub timeouts: u64,
    /// Lines that failed to parse (including oversized lines).
    pub malformed: u64,
    /// Schedule requests completed successfully.
    pub completed: u64,
    /// Admitted requests not yet answered.
    pub in_flight: u64,
    /// Per-worker counters, in worker-index order.
    pub workers: Vec<WorkerSnapshot>,
    /// CPU cores on the serving host (`0` from servers predating the
    /// field) — makes recorded benchmark scrapes self-describing.
    pub host_cores: usize,
    /// Whole seconds since the server started (`0` from servers
    /// predating the field).
    pub uptime_s: u64,
    /// Per-phase latency distributions (queue / schedule / serialize
    /// / write, merged across workers, then parse / build from the
    /// connection threads); empty only from servers predating them.
    pub phases: Vec<PhaseSnapshot>,
}

impl StatsSnapshot {
    /// Render as one protocol line (no trailing newline). Fields added
    /// later (`host_cores`, `uptime_s`, `phases`) ride after `workers`,
    /// so every earlier field keeps its exact bytes and position
    /// (clients that slice the prefix keep working).
    pub fn to_line(&self) -> String {
        let counts = [
            self.threads as u64,
            self.queue_depth as u64,
            self.accepted,
            self.rejected,
            self.timeouts,
            self.malformed,
            self.completed,
            self.in_flight,
            self.host_cores as u64,
            self.uptime_s,
        ];
        let mut w = Writer::compact();
        w.begin_object().field("id", self.id).key("ok").bool(true);
        w.key("stats").begin_object();
        for (k, x) in STATS_COUNTS.iter().zip(counts).take(8) {
            w.field(k, x);
        }
        w.key("workers").begin_array();
        for s in &self.workers {
            w.begin_object()
                .field("worker", s.worker as u64)
                .field("requests", s.requests)
                .field("p50_us", s.p50_us)
                .field("p99_us", s.p99_us)
                .end_object();
        }
        w.end_array();
        for (k, x) in STATS_COUNTS.iter().zip(counts).skip(8) {
            w.field(k, x);
        }
        w.key("phases").begin_object();
        for p in &self.phases {
            w.key(&p.phase)
                .begin_object()
                .field("count", p.count)
                .field("p50_us", p.p50_us)
                .field("p99_us", p.p99_us)
                .field("p999_us", p.p999_us)
                .field("mean_us", p.mean_us)
                .end_object();
        }
        w.end_object().end_object().end_object();
        w.finish()
    }
}

impl Response {
    /// Render as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Schedule(r) => r.to_line(),
            Response::Error { id, error } => {
                format!(
                    "{{\"id\":{id},\"ok\":false,\"error\":{}}}",
                    json_string(error)
                )
            }
            Response::Stats(s) => s.to_line(),
            Response::Shutdown { id, completed } => {
                format!("{{\"id\":{id},\"ok\":true,\"shutdown\":true,\"completed\":{completed}}}")
            }
        }
    }

    /// Parse one response line, in one pass of a [`Reader`]. As with
    /// requests, the first occurrence of a repeated key wins, unknown
    /// keys are skipped, and a known field with the wrong type is an
    /// error only when the response kind reads it. The kind follows
    /// from the keys present: `error`, else `stats`, else `shutdown`,
    /// else a schedule. Counts must fit their fields (`procs` and a
    /// placement's processor in `u32`).
    pub fn parse(line: &str) -> Result<Response, String> {
        let mut f = ResponseFields::default();
        f.read(&mut Reader::new(line))
            .map_err(|e| format!("parse: {e}"))?;
        let id = f.id.ok_or("parse: response missing `id`")??;
        if let Some(error) = f.error {
            return Ok(Response::Error { id, error: error? });
        }
        if let Some(stats) = f.stats {
            return Ok(Response::Stats(StatsSnapshot { id, ..stats? }));
        }
        if f.shutdown {
            let completed = f.completed.ok_or("parse: shutdown missing `completed`")??;
            return Ok(Response::Shutdown { id, completed });
        }
        Ok(Response::Schedule(ScheduleResponse {
            id,
            algo: f.algo.ok_or("parse: response missing `algo`")??,
            procs: f.procs.ok_or("parse: response missing `procs`")??,
            makespan: f.makespan.ok_or("parse: response missing `makespan`")??,
            placements: f
                .placements
                .ok_or("parse: response missing `placements`")??,
            queue_us: f.queue_us.transpose()?.unwrap_or(0),
            service_us: f.service_us.transpose()?.unwrap_or(0),
        }))
    }
}

/// The known fields of one response line (see [`slot`]).
#[derive(Default)]
struct ResponseFields {
    id: Slot<u64>,
    error: Slot<String>,
    stats: Slot<StatsSnapshot>,
    shutdown: bool,
    completed: Slot<u64>,
    algo: Slot<String>,
    procs: Slot<u32>,
    makespan: Slot<u64>,
    placements: Slot<Vec<(u32, u64, u64)>>,
    queue_us: Slot<u64>,
    service_us: Slot<u64>,
}

impl ResponseFields {
    fn read(&mut self, r: &mut Reader<'_>) -> Result<(), json::Error> {
        r.object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "id" => slot(r, &mut self.id, |r| uint(r, "id")),
                "error" => slot(r, &mut self.error, |r| string(r, "error")),
                "stats" => slot(r, &mut self.stats, read_stats),
                "shutdown" => {
                    self.shutdown = true;
                    r.skip()
                }
                "completed" => slot(r, &mut self.completed, |r| uint(r, "completed")),
                "algo" => slot(r, &mut self.algo, |r| string(r, "algo")),
                "procs" => slot(r, &mut self.procs, |r| narrow(uint(r, "procs")?, "procs")),
                "makespan" => slot(r, &mut self.makespan, |r| uint(r, "makespan")),
                "placements" => slot(r, &mut self.placements, |r| {
                    r.list(read_placement)
                        .map_err(|e| format!("parse: `placements`: {e}"))
                }),
                "queue_us" => slot(r, &mut self.queue_us, |r| uint(r, "queue_us")),
                "service_us" => slot(r, &mut self.service_us, |r| uint(r, "service_us")),
                _ => r.skip(),
            }?;
        }
        r.end()
    }
}

/// A non-negative integer field, with its key named in the error.
fn uint(r: &mut Reader<'_>, key: &str) -> Result<u64, String> {
    r.u64()
        .map_err(|_| format!("parse: `{key}` must be a non-negative integer"))
}

/// A string field, with its key named in the error.
fn string(r: &mut Reader<'_>, key: &str) -> Result<String, String> {
    r.str()
        .map(Cow::into_owned)
        .map_err(|_| format!("parse: `{key}` must be a string"))
}

/// `x` in a narrower integer type, with the key named in the error.
fn narrow<T: TryFrom<u64>>(x: u64, key: &str) -> Result<T, String> {
    T::try_from(x).map_err(|_| format!("parse: `{key}` out of range"))
}

/// One `[proc, start, finish]` row of a schedule response.
fn read_placement(r: &mut Reader<'_>) -> Result<(u32, u64, u64), json::Error> {
    let [p, start, finish] = r.u64_array()?;
    let proc = u32::try_from(p).map_err(|_| r.err("processor out of range"))?;
    Ok((proc, start, finish))
}

/// The counters of a stats body, in [`StatsSnapshot`] order. The last
/// two are optional: servers predating them do not send them.
const STATS_COUNTS: [&str; 10] = [
    "threads",
    "queue_depth",
    "accepted",
    "rejected",
    "timeouts",
    "malformed",
    "completed",
    "in_flight",
    "host_cores",
    "uptime_s",
];

/// The `stats` object of a stats response (`id` left 0). `phases` is
/// optional like `host_cores` and `uptime_s`; `workers` is required.
fn read_stats(r: &mut Reader<'_>) -> Result<StatsSnapshot, String> {
    let mut counts: [Slot<u64>; 10] = Default::default();
    let (mut workers, mut phases) = (None, None);
    let mut walk = |r: &mut Reader<'_>| -> Result<(), json::Error> {
        r.object()?;
        while let Some(key) = r.next_key()? {
            match STATS_COUNTS.iter().position(|k| *k == key) {
                Some(i) => slot(r, &mut counts[i], |r| uint(r, STATS_COUNTS[i])),
                None if key == "workers" => slot(r, &mut workers, |r| {
                    r.list(read_worker)
                        .map_err(|e| format!("parse: stats `workers`: {e}"))
                }),
                None if key == "phases" => slot(r, &mut phases, |r| {
                    read_phases(r).map_err(|e| format!("parse: stats `phases`: {e}"))
                }),
                None => r.skip(),
            }?;
        }
        Ok(())
    };
    walk(r).map_err(|e| format!("parse: stats: {e}"))?;
    let mut n = [None; 10];
    for (x, count) in n.iter_mut().zip(counts) {
        *x = count.transpose()?;
    }
    let [threads, queue_depth, accepted, rejected, timeouts, malformed, completed, in_flight, host_cores, uptime_s] =
        n;
    let need = |x: Option<u64>, i: usize| {
        x.ok_or_else(|| format!("parse: stats missing `{}`", STATS_COUNTS[i]))
    };
    Ok(StatsSnapshot {
        id: 0,
        threads: narrow(need(threads, 0)?, "threads")?,
        queue_depth: narrow(need(queue_depth, 1)?, "queue_depth")?,
        accepted: need(accepted, 2)?,
        rejected: need(rejected, 3)?,
        timeouts: need(timeouts, 4)?,
        malformed: need(malformed, 5)?,
        completed: need(completed, 6)?,
        in_flight: need(in_flight, 7)?,
        workers: workers.ok_or("parse: stats missing `workers`")??,
        host_cores: narrow(host_cores.unwrap_or(0), "host_cores")?,
        uptime_s: uptime_s.unwrap_or(0),
        phases: phases.transpose()?.unwrap_or_default(),
    })
}

fn read_worker(r: &mut Reader<'_>) -> Result<WorkerSnapshot, json::Error> {
    let [worker, requests, p50_us, p99_us] =
        r.u64_fields(["worker", "requests", "p50_us", "p99_us"])?;
    Ok(WorkerSnapshot {
        worker: usize::try_from(worker).map_err(|_| r.err("worker id out of range"))?,
        requests,
        p50_us,
        p99_us,
    })
}

/// The `phases` object: one `{count, p50_us, p99_us, p999_us,
/// mean_us}` body per phase name, in line order.
fn read_phases(r: &mut Reader<'_>) -> Result<Vec<PhaseSnapshot>, json::Error> {
    let mut out = Vec::new();
    r.object()?;
    while let Some(phase) = r.next_key()? {
        let [count, p50_us, p99_us, p999_us, mean_us] =
            r.u64_fields(["count", "p50_us", "p99_us", "p999_us", "mean_us"])?;
        out.push(PhaseSnapshot {
            phase: phase.into_owned(),
            count,
            p50_us,
            p99_us,
            p999_us,
            mean_us,
        });
    }
    Ok(out)
}

/// `(proc, start, finish)` per node, in node-id order.
pub fn placements_of(schedule: &Schedule) -> Vec<(u32, u64, u64)> {
    schedule
        .tasks()
        .map(|t| (t.proc.0, t.start, t.finish))
        .collect()
}

/// Render placements as the protocol's `[[proc,start,finish],...]`
/// array. Both the server and the validation harness render through
/// here, so equality of the returned strings is equality of the
/// response bytes.
pub fn placements_json(placements: &[(u32, u64, u64)]) -> String {
    let mut out = String::with_capacity(8 + placements.len() * 12);
    out.push('[');
    for (i, &(p, s, f)) in placements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{p},{s},{f}]"));
    }
    out.push(']');
    out
}

// -------------------------------------------------------- line reader

/// The result of reading one line with a [`LineReader`].
#[derive(Debug, PartialEq, Eq)]
pub enum Line {
    /// A complete line (without its newline).
    Text(String),
    /// The line exceeded the reader's byte cap; roughly this many
    /// bytes were discarded up to (not including) the newline.
    TooLong(usize),
}

/// Bounded, resumable NDJSON line reader.
///
/// Reads whole `\n`-terminated lines while never buffering more than
/// the configured cap: a line that grows past `max` bytes is discarded
/// as it streams in and reported as [`Line::TooLong`] once its newline
/// arrives, so one hostile client cannot balloon server memory.
///
/// Timeout-friendly: a `WouldBlock`/`TimedOut` error from the
/// underlying reader propagates out of [`LineReader::next_line`], and
/// the partial line survives inside the reader — call `next_line`
/// again to resume. `casch serve` relies on this to poll its shutdown
/// flag between read timeouts without dropping bytes.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    max: usize,
    /// Bytes discarded from an over-cap line still being skipped.
    discarded: usize,
    overlong: bool,
}

impl<R: BufRead> LineReader<R> {
    /// Wrap `inner`, capping lines at `max` bytes.
    pub fn new(inner: R, max: usize) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            max: max.max(1),
            discarded: 0,
            overlong: false,
        }
    }

    /// Read the next line. `Ok(None)` is end-of-stream; errors
    /// (including read timeouts) are resumable — see the type docs.
    pub fn next_line(&mut self) -> io::Result<Option<Line>> {
        loop {
            let (consumed, newline_at) = {
                let available = match self.inner.fill_buf() {
                    Ok(b) => b,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if available.is_empty() {
                    // EOF: yield any unterminated trailing line.
                    if self.overlong {
                        let n = self.discarded;
                        self.overlong = false;
                        self.discarded = 0;
                        return Ok(Some(Line::TooLong(n)));
                    }
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    let line = String::from_utf8_lossy(&self.buf).into_owned();
                    self.buf.clear();
                    return Ok(Some(Line::Text(line)));
                }
                match available.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        if !self.overlong {
                            self.buf.extend_from_slice(&available[..pos]);
                        } else {
                            self.discarded += pos;
                        }
                        (pos + 1, true)
                    }
                    None => {
                        if !self.overlong {
                            self.buf.extend_from_slice(available);
                        } else {
                            self.discarded += available.len();
                        }
                        (available.len(), false)
                    }
                }
            };
            self.inner.consume(consumed);
            if !self.overlong && self.buf.len() > self.max {
                self.discarded = self.buf.len();
                self.buf.clear();
                self.overlong = true;
            }
            if newline_at {
                if self.overlong {
                    let n = self.discarded;
                    self.overlong = false;
                    self.discarded = 0;
                    return Ok(Some(Line::TooLong(n)));
                }
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                self.buf.clear();
                return Ok(Some(Line::Text(line)));
            }
        }
    }
}

impl<R: io::Read> LineReader<io::BufReader<R>> {
    /// Whether bytes after the last returned line are already read
    /// and waiting (a pipelining client), so the next
    /// [`LineReader::next_line`] starts without blocking.
    pub fn has_buffered(&self) -> bool {
        !self.inner.buffer().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_algorithms::Scheduler;
    use fastsched_dag::examples::paper_figure1;
    use fastsched_dag::io::{EdgeSpec, NodeSpec};
    use std::io::Cursor;

    fn figure1_spec() -> DagSpec {
        DagSpec::from_dag(&paper_figure1())
    }

    #[test]
    fn schedule_request_round_trips() {
        let mut req = ScheduleRequest::new(7, figure1_spec());
        req.algo = "etf".to_string();
        req.procs = Some(4);
        req.timeout_ms = Some(250);
        let line = req.to_line();
        let parsed = Request::parse(&line, 999).expect("parses");
        assert_eq!(parsed, Request::Schedule(req));
    }

    #[test]
    fn hetero_request_round_trips() {
        let mut req = ScheduleRequest::new(1, figure1_spec());
        req.algo = "heft".to_string();
        req.speeds = Some(vec![100, 50, 200]);
        let line = req.to_line();
        assert_eq!(Request::parse(&line, 0).unwrap(), Request::Schedule(req));
    }

    #[test]
    fn comm_requests_round_trip() {
        let mut req = ScheduleRequest::new(3, figure1_spec());
        req.comm = Some(CommSpec::AlphaBeta {
            alpha: 20,
            beta_num: 3,
            beta_den: 2,
        });
        let line = req.to_line();
        assert_eq!(Request::parse(&line, 0).unwrap(), Request::Schedule(req));

        let mut req = ScheduleRequest::new(4, figure1_spec());
        req.algo = "heft".to_string();
        req.procs = Some(8);
        req.comm = Some(CommSpec::Hier {
            groups: vec![4, 4],
            intra: [0, 1, 1],
            inter: [40, 2, 1],
        });
        let line = req.to_line();
        assert_eq!(Request::parse(&line, 0).unwrap(), Request::Schedule(req));

        let mut req = ScheduleRequest::new(5, figure1_spec());
        req.comm = Some(CommSpec::Ideal);
        assert_eq!(
            Request::parse(&req.to_line(), 0).unwrap(),
            Request::Schedule(req)
        );
    }

    #[test]
    fn malformed_comm_is_a_parse_error() {
        let dag = "\"dag\":{\"nodes\":[],\"edges\":[]}";
        for bad in [
            format!("{{{dag},\"comm\":7}}"),
            format!("{{{dag},\"comm\":{{}}}}"),
            format!("{{{dag},\"comm\":{{\"model\":\"nope\"}}}}"),
            format!("{{{dag},\"comm\":{{\"model\":\"alpha-beta\",\"alpha\":1}}}}"),
            format!(
                "{{{dag},\"comm\":{{\"model\":\"alpha-beta\",\"alpha\":1,\
                 \"beta_num\":1,\"beta_den\":0}}}}"
            ),
            format!("{{{dag},\"comm\":{{\"model\":\"hier\",\"groups\":[]}}}}"),
            format!(
                "{{{dag},\"comm\":{{\"model\":\"hier\",\"groups\":[0],\
                 \"intra\":[0,1,1],\"inter\":[1,1,1]}}}}"
            ),
            format!(
                "{{{dag},\"comm\":{{\"model\":\"hier\",\"groups\":[2],\
                 \"intra\":[0,1],\"inter\":[1,1,1]}}}}"
            ),
        ] {
            let err = Request::parse(&bad, 1).expect_err(&bad);
            assert!(err.starts_with("parse:"), "{bad} -> {err}");
        }
    }

    #[test]
    fn stats_and_shutdown_round_trip() {
        for req in [Request::Stats { id: 3 }, Request::Shutdown { id: 9 }] {
            assert_eq!(Request::parse(&req.to_line(), 0).unwrap(), req);
        }
    }

    #[test]
    fn stats_ignores_fields_it_does_not_read() {
        let line = "{\"dag\":7,\"procs\":\"x\",\"op\":\"stats\",\"id\":5}";
        assert_eq!(Request::parse(line, 1).unwrap(), Request::Stats { id: 5 });
        // The first occurrence of a key wins.
        let line = "{\"op\":\"stats\",\"op\":\"nope\",\"id\":2,\"id\":\"x\"}";
        assert_eq!(Request::parse(line, 1).unwrap(), Request::Stats { id: 2 });
    }

    #[test]
    fn missing_id_defaults_to_line_number() {
        let req = Request::parse("{\"op\":\"stats\"}", 42).unwrap();
        assert_eq!(req, Request::Stats { id: 42 });
    }

    #[test]
    fn malformed_requests_are_parse_errors() {
        for bad in [
            "not json",
            "[1,2,3]",
            "{\"op\":\"schedule\"}",        // missing dag
            "{\"op\":\"nope\",\"dag\":{}}", // unknown op
            "{\"dag\":{\"nodes\":[]}}",     // dag missing edges
            "{\"dag\":{\"nodes\":[],\"edges\":[]},\"procs\":0}", // zero procs
            "{\"dag\":{\"nodes\":[],\"edges\":[]},\"speeds\":[]}", // empty speeds
            // 4294967346 would truncate to 50 as a u32.
            "{\"dag\":{\"nodes\":[],\"edges\":[]},\"speeds\":[4294967346]}",
            "{\"dag\":{\"nodes\":[]},\"op\":\"stats\",\"x\":[1,}", // bad syntax anywhere
        ] {
            let err = Request::parse(bad, 1).expect_err(bad);
            assert!(err.starts_with("parse:"), "{bad} -> {err}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::Schedule(ScheduleResponse {
            id: 5,
            algo: "FAST".to_string(),
            procs: 9,
            makespan: 18,
            placements: vec![(0, 0, 2), (1, 0, 3), (0, 2, 6)],
            queue_us: 12,
            service_us: 35,
        });
        assert_eq!(Response::parse(&resp.to_line()).unwrap(), resp);

        let err = Response::Error {
            id: 8,
            error: "overloaded".to_string(),
        };
        assert_eq!(Response::parse(&err.to_line()).unwrap(), err);

        let stats = Response::Stats(StatsSnapshot {
            id: 2,
            threads: 4,
            queue_depth: 1024,
            accepted: 10,
            rejected: 1,
            timeouts: 0,
            malformed: 2,
            completed: 9,
            in_flight: 1,
            workers: vec![
                WorkerSnapshot {
                    worker: 0,
                    requests: 5,
                    p50_us: 30,
                    p99_us: 55,
                },
                WorkerSnapshot {
                    worker: 1,
                    requests: 4,
                    p50_us: 28,
                    p99_us: 61,
                },
            ],
            host_cores: 8,
            uptime_s: 42,
            phases: vec![
                PhaseSnapshot {
                    phase: "queue".to_string(),
                    count: 9,
                    p50_us: 11,
                    p99_us: 90,
                    p999_us: 120,
                    mean_us: 15,
                },
                PhaseSnapshot {
                    phase: "schedule".to_string(),
                    count: 9,
                    p50_us: 30,
                    p99_us: 61,
                    p999_us: 61,
                    mean_us: 33,
                },
            ],
        });
        assert_eq!(Response::parse(&stats.to_line()).unwrap(), stats);

        // Byte-compat: every pre-existing stats field renders at its
        // pre-phases position — the prefix through `"workers":[...]`
        // is unchanged, new fields only append after it.
        if let Response::Stats(s) = &stats {
            let line = s.to_line();
            let legacy_prefix = format!(
                "{{\"id\":2,\"ok\":true,\"stats\":{{\"threads\":4,\"queue_depth\":1024,\
                 \"accepted\":10,\"rejected\":1,\"timeouts\":0,\"malformed\":2,\
                 \"completed\":9,\"in_flight\":1,\"workers\":[{},{}],",
                "{\"worker\":0,\"requests\":5,\"p50_us\":30,\"p99_us\":55}",
                "{\"worker\":1,\"requests\":4,\"p50_us\":28,\"p99_us\":61}"
            );
            assert!(line.starts_with(&legacy_prefix), "prefix changed: {line}");
            assert_eq!(
                &line[legacy_prefix.len()..],
                "\"host_cores\":8,\"uptime_s\":42,\"phases\":{\"queue\":{\"count\":9,\
                 \"p50_us\":11,\"p99_us\":90,\"p999_us\":120,\"mean_us\":15},\"schedule\":\
                 {\"count\":9,\"p50_us\":30,\"p99_us\":61,\"p999_us\":61,\"mean_us\":33}}}}"
            );
        }

        // A stats line from a server predating the new fields still
        // parses, with defaults.
        let legacy = "{\"id\":2,\"ok\":true,\"stats\":{\"threads\":1,\"queue_depth\":4,\
                      \"accepted\":0,\"rejected\":0,\"timeouts\":0,\"malformed\":0,\
                      \"completed\":0,\"in_flight\":0,\"workers\":[]}}";
        match Response::parse(legacy).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.host_cores, 0);
                assert_eq!(s.uptime_s, 0);
                assert!(s.phases.is_empty());
            }
            other => panic!("expected stats, got {other:?}"),
        }

        let done = Response::Shutdown {
            id: 1,
            completed: 123,
        };
        assert_eq!(Response::parse(&done.to_line()).unwrap(), done);
    }

    /// Request lines as the earlier writer laid them out: every
    /// optional field, in order, with an escaped node name.
    #[test]
    fn request_lines_are_pinned() {
        let dag = DagSpec {
            nodes: vec![
                NodeSpec {
                    name: "a\"b".into(),
                    weight: 2,
                    mem: 0,
                },
                NodeSpec {
                    name: "c".into(),
                    weight: 3,
                    mem: 4,
                },
            ],
            edges: vec![EdgeSpec {
                src: 0,
                dst: 1,
                cost: 5,
            }],
        };
        let mut req = ScheduleRequest::new(7, dag);
        req.procs = Some(2);
        req.speeds = Some(vec![100, 50]);
        req.timeout_ms = Some(9);
        req.comm = Some(CommSpec::Hier {
            groups: vec![1, 1],
            intra: [0, 1, 1],
            inter: [4, 2, 1],
        });
        req.mem_caps = Some(MemCapsSpec::PerProc(vec![8, 9]));
        assert_eq!(
            req.to_line(),
            r#"{"op":"schedule","id":7,"algo":"fast","procs":2,"speeds":[100,50],"timeout_ms":9,"comm":{"model":"hier","groups":[1,1],"intra":[0,1,1],"inter":[4,2,1]},"mem_caps":[8,9],"dag":{"nodes":[{"name":"a\"b","weight":2},{"name":"c","weight":3,"mem":4}],"edges":[{"src":0,"dst":1,"cost":5}]}}"#
        );
        req.comm = Some(CommSpec::AlphaBeta {
            alpha: 1,
            beta_num: 2,
            beta_den: 3,
        });
        req.mem_caps = Some(MemCapsSpec::Uniform(6));
        req.speeds = None;
        assert!(req.to_line().contains(
            r#""timeout_ms":9,"comm":{"model":"alpha-beta","alpha":1,"beta_num":2,"beta_den":3},"mem_caps":6,"dag""#
        ));
        req.comm = Some(CommSpec::Ideal);
        assert!(req.to_line().contains(r#""comm":{"model":"ideal"},"#));
    }

    /// Responses escape through `json_string`, requests through the
    /// writer: both must agree.
    #[test]
    fn writer_escapes_like_json_string() {
        let text = "q\"b\\n\nr\rt\t\u{1}\u{1f}\u{7f}é😀/";
        let mut w = Writer::compact();
        w.str(text);
        assert_eq!(w.finish(), json_string(text));
    }

    #[test]
    fn response_counts_are_range_checked() {
        let schedule = |procs: &str, proc: &str| {
            Response::parse(&format!(
                "{{\"id\":1,\"ok\":true,\"algo\":\"FAST\",\"procs\":{procs},\
                 \"makespan\":3,\"placements\":[[{proc},0,3]]}}"
            ))
        };
        assert!(schedule("4294967295", "4294967295").is_ok());
        for (procs, proc) in [("4294967296", "0"), ("2", "4294967296"), ("-1", "0")] {
            let err = schedule(procs, proc).unwrap_err();
            assert!(err.starts_with("parse:"), "{procs}/{proc}: {err}");
        }
        assert_eq!(
            schedule("4294967296", "0").unwrap_err(),
            "parse: `procs` out of range"
        );
        // The response kind decides which fields count: an ill-typed
        // `makespan` does not matter to an error response.
        let err = Response::parse("{\"makespan\":\"x\",\"id\":3,\"error\":\"timeout\"}");
        assert_eq!(
            err,
            Ok(Response::Error {
                id: 3,
                error: "timeout".into()
            })
        );
        // First occurrence wins; unknown keys are skipped.
        let done = Response::parse(
            "{\"id\":4,\"x\":[{}],\"shutdown\":true,\"completed\":7,\"completed\":\"no\"}",
        );
        assert_eq!(
            done,
            Ok(Response::Shutdown {
                id: 4,
                completed: 7
            })
        );
        for bad in [
            "{\"id\":1,\"error\":5}",
            "{\"id\":1,\"stats\":{\"workers\":[]}}",
            "{\"id\":1,\"shutdown\":true}",
            "{\"id\":1,\"algo\":\"FAST\",\"procs\":1,\"makespan\":1,\"placements\":[[0,1]]}",
            "{\"id\":1,\"error\":\"x\"} trailing",
            "[1]",
        ] {
            let err = Response::parse(bad).unwrap_err();
            assert!(err.starts_with("parse:"), "{bad}: {err}");
        }
    }

    #[test]
    fn placements_json_matches_schedule_bytes() {
        let dag = paper_figure1();
        let schedule = fastsched_algorithms::Fast::new().schedule(&dag, 9);
        let resp = ScheduleResponse::from_schedule(1, "FAST", 9, &schedule, 0, 0);
        // The response's placement bytes must reproduce exactly from
        // the schedule alone — that is the byte-identity contract the
        // serve tests and `casch loadgen --check` verify end to end.
        assert_eq!(
            placements_json(&resp.placements),
            placements_json(&placements_of(&schedule)),
        );
        assert_eq!(resp.makespan, schedule.makespan());
        assert_eq!(resp.placements.len(), dag.node_count());
    }

    #[test]
    fn line_reader_yields_lines_and_final_fragment() {
        let mut r = LineReader::new(Cursor::new(b"abc\ndef\nghi".to_vec()), 64);
        assert_eq!(r.next_line().unwrap(), Some(Line::Text("abc".into())));
        assert_eq!(r.next_line().unwrap(), Some(Line::Text("def".into())));
        assert_eq!(r.next_line().unwrap(), Some(Line::Text("ghi".into())));
        assert_eq!(r.next_line().unwrap(), None);
    }

    #[test]
    fn line_reader_rejects_oversized_lines_without_buffering_them() {
        let long = vec![b'x'; 1000];
        let mut data = long.clone();
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut r = LineReader::new(Cursor::new(data), 16);
        match r.next_line().unwrap() {
            Some(Line::TooLong(n)) => assert!((17..=1000).contains(&n), "discarded {n}"),
            other => panic!("expected TooLong, got {other:?}"),
        }
        // The stream recovers at the next newline.
        assert_eq!(r.next_line().unwrap(), Some(Line::Text("ok".into())));
        assert_eq!(r.next_line().unwrap(), None);
    }

    #[test]
    fn line_reader_reports_bytes_waiting_after_a_line() {
        let data = b"abc\ndef\n".to_vec();
        let mut r = LineReader::new(io::BufReader::with_capacity(64, Cursor::new(data)), 64);
        assert!(!r.has_buffered());
        assert!(matches!(r.next_line().unwrap(), Some(Line::Text(t)) if t == "abc"));
        assert!(r.has_buffered(), "the second line was read with the first");
        assert!(matches!(r.next_line().unwrap(), Some(Line::Text(t)) if t == "def"));
        assert!(!r.has_buffered());
    }

    #[test]
    fn line_reader_oversized_final_fragment_reports_at_eof() {
        let mut r = LineReader::new(Cursor::new(vec![b'y'; 100]), 10);
        assert!(matches!(r.next_line().unwrap(), Some(Line::TooLong(_))));
        assert_eq!(r.next_line().unwrap(), None);
    }
}
