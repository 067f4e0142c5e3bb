//! `casch` — the command-line front end of the CASCH-substitute
//! pipeline.
//!
//! ```text
//! casch generate --app gauss --size 8 --out dag.json
//! casch info     --dag dag.json
//! casch dot      --dag dag.json > dag.dot
//! casch schedule --dag dag.json --algo fast --procs 16 --gantt
//! casch compare  --app laplace --size 8 --procs 16
//! ```

use fastsched_algorithms::{paper_schedulers, Scheduler, SchedulerError, Workspace};
use fastsched_casch::machine::{self, Engine};
use fastsched_casch::protocol::{self, Request};
use fastsched_casch::{compare_algorithms, run_on_dag, Application};
use fastsched_dag::{io, Dag, GraphAttributes};
use fastsched_schedule::{gantt, CommModel, Machine, MemCapsSpec, ScheduleMetrics};
use fastsched_sim::{ExecutionReport, SimConfig};
use fastsched_trace::{json_string, SearchTrace};
use fastsched_workloads::TimingDatabase;
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(&(_, run, flags, switches)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        eprintln!("error: unknown command `{cmd}`\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(cmd, flags, switches, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // A command that parsed but failed gets its one `error:` line; the
    // usage text is for malformed command lines only. A reader that
    // closed stdout early (`casch ... | head -1`) ends the command
    // quietly.
    let mut out = std::io::stdout().lock();
    match run(&opts, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Write(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Write(e)) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where a command writes its output: the locked stdout.
type Out<'a> = &'a mut dyn Write;

/// What a command runs: it reads its flags and writes to stdout.
type Run = fn(&Flags, Out) -> Result<(), Failure>;

/// Every command with its runner and the flags it reads, as
/// space-separated names: valued flags, then switches (no value). Any
/// other flag is refused before the command runs.
#[rustfmt::skip]
const COMMANDS: &[(&str, Run, &str, &str)] = &[
    ("generate", cmd_generate, "app size seed out", ""),
    ("info", cmd_info, "dag", ""),
    ("dot", cmd_dot, "dag", ""),
    ("schedule", cmd_schedule, "dag algo procs comm mem-caps gantt-width svg out-schedule trace \
                                perfetto", "gantt"),
    ("batch", cmd_batch, "dir manifest algo procs threads comm mem-caps out", ""),
    ("serve", cmd_serve, "addr threads queue-depth timeout-ms max-line-bytes max-procs \
                          metrics-addr access-log log-sample-rate", ""),
    ("loadgen", cmd_loadgen, "dir manifest dag addr algo procs rate total duration warmup conns \
                              timeout-ms connect-retry metrics-addr metrics-out",
                             "check stats shutdown"),
    ("simulate", cmd_simulate, "dag schedule topology hop send-overhead recv-overhead trace \
                                out-report perfetto", ""),
    ("verify", cmd_verify, "dag schedule speeds comm mem-caps report", ""),
    ("compare", cmd_compare, "dag app size procs seed", "all"),
    ("trace", cmd_trace, "in", ""),
    ("explain", cmd_explain, "in dag algo procs comm mem-caps node", ""),
    ("diff", cmd_diff, "a b dag", ""),
];

/// Why a command stopped: its one error line, or a failed write to
/// stdout.
enum Failure {
    Message(String),
    Write(std::io::Error),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Message(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Self {
        Failure::Message(e.to_string())
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Write(e)
    }
}

const USAGE: &str = "\
casch — CASCH-substitute scheduling pipeline

USAGE:
  casch generate --app <gauss|laplace|fft|random|random-sparse|cholesky|systolic> --size <n> [--seed <s>] [--out <file>]
  casch info     --dag <file.json>
  casch dot      --dag <file.json>
  casch schedule --dag <file.json> --algo <name> [--procs <p>]
                 [--comm <spec>] [--mem-caps <spec>]
                 [--gantt] [--gantt-width <cols>]
                 [--svg <out.svg>] [--out-schedule <out.json>]
                 [--trace <out.ndjson>] [--perfetto <out.json>]
  casch batch    (--dir <dir> | --manifest <list.txt>) --algo <name>
                 [--procs <p>] [--threads <t>] [--comm <spec>]
                 [--mem-caps <spec>] [--out <out.ndjson>]
  casch serve    [--addr <host:port>] [--threads <t>] [--queue-depth <n>]
                 [--timeout-ms <ms>] [--max-line-bytes <n>] [--max-procs <p>]
                 [--metrics-addr <host:port>]
                 [--access-log <file.ndjson>] [--log-sample-rate <n>]
  casch loadgen  (--dir <dir> | --manifest <list.txt> | --dag <file>)
                 [--addr <host:port>] [--algo <name>] [--procs <p>]
                 [--rate <req/s>] [--total <n>] [--duration <s>]
                 [--warmup <s>] [--conns <c>] [--timeout-ms <ms>]
                 [--connect-retry <s>] [--check] [--stats] [--shutdown]
                 [--metrics-addr <host:port>] [--metrics-out <file>]
  casch simulate --dag <file.json> --schedule <sched.json>
                 [--topology <mesh|torus|hypercube|hier:<g>|full>] [--hop <us>]
                 [--send-overhead <us>] [--recv-overhead <us>]
                 [--trace <out.json>] [--out-report <out.json>]
                 [--perfetto <out.json>]
  casch verify   --dag <file.json> --schedule <sched.json>
                 [--speeds <pct,pct,...>] [--comm <spec>]
                 [--mem-caps <spec>] [--report <report.json>]
  casch compare  (--dag <file.json> | --app <name> --size <n>) [--procs <p>] [--seed <s>] [--all]
  casch trace    --in <trace.ndjson>
  casch explain  (--in <trace.ndjson> | --dag <file.json> --algo <name> [--procs <p>]
                  [--comm <spec>] [--mem-caps <spec>]) [--node <id>]
  casch diff     --a <file> --b <file> [--dag <file.json>]

`casch schedule --trace` records the search (phase timers, probe
counters, placement provenance, schedule-length trajectory) as NDJSON.
`casch trace` renders such a file as a human-readable report and
`casch explain --node <id>` answers \"why is this node where it is?\"
from the same provenance (candidate processors probed, their
ready/data-arrival/start times, the winning reason, and every
local-search transfer that touched the node).

`casch batch` schedules every DAG file in a directory (`*.json` and
`*.tg`, sorted by name) or listed in a manifest (one path per line,
`#` comments allowed) with one algorithm. `--threads <t>` shards the
batch across t worker threads (0 = all cores; default 1), each with
its own warm scheduling workspace — schedules are byte-identical at
every thread count. It emits one NDJSON object per DAG —
`{\"dag\",\"nodes\",\"edges\",\"algo\",\"procs\",\"threads\",\"makespan\",
\"seconds\"}` — followed by one aggregate summary line
`{\"summary\":true,\"dags\",\"rejected\",\"algo\",\"threads\",\"seconds\",
\"dags_per_sec\"}`, to stdout or `--out`. A file that fails to read or
parse, or that the scheduler refuses (a memory-infeasible instance,
weights whose times overflow), no longer aborts the batch: it gets
its own `{\"dag\",\"rejected\":true,\"error\"}` row and is counted in the
summary's `rejected` field. Without `--procs` each DAG gets as many
processors as it has nodes.

`casch serve` runs a persistent NDJSON-over-TCP scheduling service:
one JSON request per line (`{\"op\":\"schedule\",\"id\",\"algo\",
[\"procs\"],[\"speeds\"],[\"mem_caps\"],[\"timeout_ms\"],\"dag\"}` plus `op:\"stats\"`
and `op:\"shutdown\"`), one JSON response per line, correlated by id
and possibly out of order. Requests shard across `--threads` workers
(0 = all cores) each owning a pinned warm workspace; a full
`--queue-depth` admission queue answers `overloaded` instead of
buffering, `--timeout-ms` bounds queue wait (per-request `timeout_ms`
overrides), a request's `procs` / `speeds` length is capped at
max(node count, `--max-procs`) so one line cannot demand unbounded
scratch, and SIGINT or `op:\"shutdown\"` drains in-flight work
before exiting. `--metrics-addr` serves a Prometheus text exposition
at `GET /metrics` (and the `op:\"stats\"` JSON at `/metrics.json`)
from a dedicated thread — never a pool worker — with per-phase
queue/schedule/serialize/write/parse/build latency histograms (always
recorded), `--access-log <file>` appends one
NDJSON line per completed/rejected/timed-out request, and
`--log-sample-rate <n>` keeps every n-th line (default 1 = all).

`casch loadgen` drives a running server open-loop: requests from a
DAG corpus at `--rate` req/s (0 = unpaced, the saturation probe) over
`--conns` connections for `--total` requests or `--duration` seconds
after `--warmup` seconds, then prints a `{\"summary\":true,...}` line
with achieved throughput and p50/p99/p999 latency. `--check` verifies
every response byte-for-byte against a local `schedule_into` run
(nonzero exit on any mismatch); `--stats` and `--shutdown` afterwards
fetch the server's counters / stop it gracefully. `--metrics-addr`
scrapes the server's `/metrics` page mid-run (a hard error if the
scrape fails) and prints it to stderr or `--metrics-out <file>`.

`--comm <spec>` prices communication through an explicit cost model
(DESIGN.md §16). Specs: `ideal` (the paper's network),
`alpha-beta:A,BN,BD` (a remote message of weight c costs
A + ceil(c*BN/BD)), or `hier:S1+S2+...@A,BN,BD@A,BN,BD` (consecutive
group sizes, then the intra-group and inter-group tiers; the
processor count is fixed to the group table's size). `casch verify
--comm` checks a saved schedule under the same pricing, and `casch
simulate --topology hier:<g>` is the simulator's matching
leader-routed shape (groups of g processors).

`--mem-caps <spec>` bounds each processor's memory (DESIGN.md §17): a
placement is only legal while the footprints (`mem` field on DAG
nodes, default 0) resident on the processor sum to at most its
capacity. Specs: `uniform:C` (every processor holds C) or `C1,C2,...`
(per-processor capacities; fixes the processor count, like a hier
group table). It composes with `--comm`, works on `schedule`, `batch`
and `explain` (threaded batches stay byte-identical), and `casch verify
--mem-caps` re-checks a saved schedule against the same budgets,
reporting the first over-capacity processor as `INVALID: capacity`.
A node no processor has room for is an error, not a panic: `schedule`
and `explain` exit 1 and `casch serve` answers `infeasible:`.

An algorithm whose core cannot price `--comm` or `--mem-caps` gets
one `error:` line naming both, and exit 1 (`casch serve`:
`unsupported:`).

`casch verify` runs the structural validator over a saved schedule:
task count, processor bounds, durations under the cost model
(`--speeds` switches to the heterogeneous model, percent of nominal),
communication-delayed precedence, and per-processor overlap. It prints
`OK` with the makespan or `INVALID:` with the first violation and a
nonzero exit; `--report` additionally cross-checks a simulator report
saved with `--out-report` against the schedule.

`--perfetto` writes a Chrome-trace-event JSON timeline — per-processor
tracks, message flow arrows, and (from `casch simulate`, which records
an event log for it) per-link occupancy counters — loadable at
https://ui.perfetto.dev. `casch diff` compares two schedule JSON files
(needs --dag for node names) or two simulator reports saved with
`--out-report`, and localizes where they diverge.

ALGORITHMS: fast, dsc, md, etf, dls, hlfet, mcp, heft, dcp, ish, ez, lc,
            cpop, dsc-llb, fast-ms, fast-sa, bnb (exhaustive, tiny graphs)";

type Flags = HashMap<String, String>;

/// Parse `args` against one [`COMMANDS`] row's flags and switches.
/// Each flag and switch may be given once.
fn parse_flags(cmd: &str, flags: &str, switches: &str, args: &[String]) -> Result<Flags, String> {
    let mut out = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        let val = if switches.split_whitespace().any(|s| s == key) {
            "true".to_string()
        } else if flags.split_whitespace().any(|f| f == key) {
            it.next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?
                .clone()
        } else {
            return Err(format!("unknown flag `{a}` for `casch {cmd}`"));
        };
        if out.insert(key.to_string(), val).is_some() {
            return Err(format!("flag `{a}` given twice for `casch {cmd}`"));
        }
    }
    Ok(out)
}

/// `--key` as a number, when given.
fn get_num<T: std::str::FromStr>(opts: &Flags, key: &str) -> Result<Option<T>, String> {
    opts.get(key)
        .map(|v| v.parse().map_err(|_| format!("--{key} must be a number")))
        .transpose()
}

fn get_u64_or(opts: &Flags, key: &str, default: u64) -> Result<u64, String> {
    Ok(get_num(opts, key)?.unwrap_or(default))
}

fn get_f64_or(opts: &Flags, key: &str, default: f64) -> Result<f64, String> {
    Ok(get_num(opts, key)?.unwrap_or(default))
}

fn load_app(opts: &Flags) -> Result<Application, String> {
    let name = opts.get("app").ok_or("missing --app")?;
    let size = get_num(opts, "size")?.ok_or("missing --size")?;
    let seed = get_u64_or(opts, "seed", 1)?;
    Application::from_cli(name, size, seed).ok_or_else(|| format!("unknown app `{name}`"))
}

fn load_dag(opts: &Flags) -> Result<Dag, String> {
    let path = opts.get("dag").ok_or("missing --dag")?;
    load_dag_file(std::path::Path::new(path))
}

/// Load one DAG file, `.tg` text or `.json`.
fn load_dag_file(path: &std::path::Path) -> Result<Dag, String> {
    let display = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {display}: {e}"))?;
    if path.extension().and_then(|x| x.to_str()) == Some("tg") {
        fastsched_dag::io_text::from_text(&text).map_err(|e| format!("{display}: {e}"))
    } else {
        io::from_json(&text).map_err(|e| format!("{display}: {e}"))
    }
}

/// Resolve the DAG file list shared by `batch` and `loadgen`: every
/// `*.json` / `*.tg` under `--dir` (sorted by name), or the paths
/// listed in `--manifest` (one per line, `#` comments allowed).
fn collect_dag_paths(opts: &Flags) -> Result<Vec<std::path::PathBuf>, String> {
    use std::path::PathBuf;
    let mut paths: Vec<PathBuf> = match (opts.get("dir"), opts.get("manifest")) {
        (Some(dir), None) => std::fs::read_dir(dir)
            .map_err(|e| format!("reading {dir}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|x| x.to_str()),
                    Some("json") | Some("tg")
                )
            })
            .collect(),
        (None, Some(manifest)) => {
            let text = std::fs::read_to_string(manifest)
                .map_err(|e| format!("reading {manifest}: {e}"))?;
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(PathBuf::from)
                .collect()
        }
        _ => return Err("needs exactly one of --dir or --manifest".to_string()),
    };
    paths.sort();
    if paths.is_empty() {
        return Err("no DAG files found (*.json or *.tg)".to_string());
    }
    Ok(paths)
}

fn cmd_generate(opts: &Flags, out: Out) -> Result<(), Failure> {
    let app = load_app(opts)?;
    let dag = app.generate(&TimingDatabase::paragon());
    let json = io::to_json(&dag);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {app}: {} nodes, {} edges",
                dag.node_count(),
                dag.edge_count()
            );
        }
        None => writeln!(out, "{json}")?,
    }
    Ok(())
}

fn cmd_info(opts: &Flags, out: Out) -> Result<(), Failure> {
    let dag = load_dag(opts)?;
    let attrs = GraphAttributes::compute(&dag);
    let stats = fastsched_dag::DagStats::compute(&dag);
    writeln!(out, "nodes:        {}", stats.nodes)?;
    writeln!(out, "edges:        {}", stats.edges)?;
    writeln!(out, "avg degree:   {:.2}", stats.avg_degree)?;
    writeln!(
        out,
        "max in/out:   {} / {}",
        stats.max_in_degree, stats.max_out_degree
    )?;
    writeln!(out, "entries:      {}", stats.entries)?;
    writeln!(out, "exits:        {}", stats.exits)?;
    writeln!(out, "height:       {}", stats.height)?;
    writeln!(out, "max width:    {}", stats.max_level_width)?;
    writeln!(out, "CCR:          {:.3}", stats.ccr)?;
    writeln!(out, "CP length:    {}", stats.cp_length)?;
    writeln!(
        out,
        "CP nodes:     {}",
        dag.nodes().filter(|&n| attrs.is_cpn(n)).count()
    )?;
    writeln!(out, "total work:   {}", stats.total_computation)?;
    writeln!(out, "total comm:   {}", dag.total_communication())?;
    writeln!(out, "parallelism:  {:.2}", stats.parallelism)?;
    Ok(())
}

fn cmd_dot(opts: &Flags, out: Out) -> Result<(), Failure> {
    let dag = load_dag(opts)?;
    write!(out, "{}", io::to_dot(&dag))?;
    Ok(())
}

/// Parse the `--comm` and `--mem-caps` model flags.
fn model_flags(opts: &Flags) -> Result<(Option<CommModel>, Option<MemCapsSpec>), String> {
    let comm = match opts.get("comm") {
        Some(spec) => Some(CommModel::parse_spec(spec).map_err(|e| format!("--comm: {e}"))?),
        None => None,
    };
    let mem = match opts.get("mem-caps") {
        // Parse errors already lead with `mem-caps: `.
        Some(spec) => Some(MemCapsSpec::parse(spec).map_err(|e| format!("--{e}"))?),
        None => None,
    };
    Ok((comm, mem))
}

/// The engine and processor count that `--algo`, `--procs`, `--comm`
/// and `--mem-caps` describe for a DAG of `node_count` nodes, by the
/// same resolver `casch serve` uses, with no processor limit.
fn resolve_flags(opts: &Flags, node_count: usize) -> Result<(Engine, u32), String> {
    let algo = opts.get("algo").ok_or("missing --algo")?;
    let (comm, mem) = model_flags(opts)?;
    machine::resolve(
        algo,
        get_num(opts, "procs")?,
        comm,
        mem,
        None,
        node_count,
        u64::MAX,
    )
}

fn cmd_schedule(opts: &Flags, out: Out) -> Result<(), Failure> {
    let dag = load_dag(opts)?;
    let (engine, procs) = resolve_flags(opts, dag.node_count())?;
    let mut trace = SearchTrace::default();
    if opts.contains_key("trace") {
        trace = SearchTrace::recording();
        trace.set_meta("tool", "casch schedule");
        trace.set_meta("algorithm", engine.name());
        trace.set_meta("nodes", &dag.node_count().to_string());
        trace.set_meta("procs", &procs.to_string());
    }
    let t0 = std::time::Instant::now();
    let schedule = engine
        .run(&dag, procs, &mut Workspace::new(), &mut trace)
        .map_err(|e| engine.failure(&e))?;
    let elapsed = t0.elapsed();
    writeln!(out, "algorithm:        {}", engine.name())?;
    if let Some(spec) = opts.get("comm") {
        writeln!(out, "comm model:       {spec}")?;
    }
    if let Some(spec) = opts.get("mem-caps") {
        writeln!(out, "mem caps:         {spec}")?;
    }
    writeln!(out, "schedule length:  {}", schedule.makespan())?;
    // The simulator prices the paper's network, so only a homogeneous
    // schedule is re-executed on it.
    if engine.machine == Machine::Homogeneous {
        let metrics = ScheduleMetrics::compute(&dag, &schedule);
        let execution = fastsched_sim::simulate(&dag, &schedule, &SimConfig::default());
        writeln!(out, "execution (sim):  {}", execution.execution_time)?;
        writeln!(out, "processors used:  {}", metrics.processors_used)?;
        writeln!(out, "speedup:          {:.2}", metrics.speedup)?;
        writeln!(out, "remote comm:      {}", metrics.remote_communication)?;
        writeln!(out, "contention delay: {}", execution.contention_delay)?;
    } else {
        writeln!(out, "processors used:  {}", schedule.processors_used())?;
    }
    writeln!(out, "scheduling time:  {elapsed:?}")?;
    if opts.contains_key("gantt") {
        // Clamp to keep the time axis legible: below ~20 columns every
        // bar rounds to nothing, above 512 lines wrap everywhere.
        let width = get_u64_or(opts, "gantt-width", 72)?.clamp(20, 512) as usize;
        writeln!(out, "\n{}", gantt::render_bars(&dag, &schedule, width))?;
    } else if opts.contains_key("gantt-width") {
        return Err("--gantt-width only makes sense together with --gantt".into());
    }
    if let Some(path) = opts.get("perfetto") {
        let json = fastsched_schedule::export::chrome_trace(&dag, &schedule, &engine.machine);
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Perfetto timeline to {path} (open at https://ui.perfetto.dev)");
    }
    if let Some(path) = opts.get("svg") {
        let svg = fastsched_schedule::svg::render_svg(
            &dag,
            &schedule,
            &fastsched_schedule::svg::SvgOptions::default(),
        );
        std::fs::write(path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = opts.get("out-schedule") {
        std::fs::write(path, fastsched_schedule::io::to_json(&schedule))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = opts.get("trace") {
        std::fs::write(path, trace.to_report().to_ndjson())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote search trace to {path}");
    }
    Ok(())
}

/// The batch pipeline. All DAGs are loaded and resolved up front, then
/// `schedule_many_par_with` shards the batch across `--threads`
/// workers, one warm scheduling workspace each (the default 1 runs the
/// serial loop); schedules are byte-identical at every thread count.
/// Each result line carries its own wall-clock cost and the closing
/// summary line the aggregate throughput, so the NDJSON doubles as a
/// throughput record.
fn cmd_batch(opts: &Flags, out: Out) -> Result<(), Failure> {
    use fastsched_algorithms::schedule_many_par_with;

    let threads = get_u64_or(opts, "threads", 1)? as usize;
    let paths = collect_dag_paths(opts).map_err(|e| format!("batch: {e}"))?;

    // Parse every DAG before scheduling starts, so workers only
    // compute. A file that fails to read or parse is reported as its
    // own `rejected` row instead of aborting the whole batch. The
    // engine depends on the DAG only through its processor count, so
    // there is one engine per distinct count.
    let mut engines: BTreeMap<u32, Engine> = BTreeMap::new();
    let mut dags: Vec<Dag> = Vec::with_capacity(paths.len());
    let mut procs: Vec<u32> = Vec::with_capacity(paths.len());
    let mut displays: Vec<String> = Vec::with_capacity(paths.len());
    let mut lines = String::new();
    let mut rejected: u64 = 0;
    for path in &paths {
        let display = path.display().to_string();
        match load_dag_file(path) {
            Ok(dag) => {
                let (engine, p) = resolve_flags(opts, dag.node_count())?;
                engines.entry(p).or_insert(engine);
                procs.push(p);
                dags.push(dag);
                displays.push(display);
            }
            Err(e) => reject(&mut lines, &mut rejected, &display, &e),
        }
    }
    if dags.is_empty() {
        return Err(format!(
            "batch: all {rejected} DAG file(s) were rejected; nothing to schedule"
        )
        .into());
    }

    let wall = std::time::Instant::now();
    let results = schedule_many_par_with(&dags, &procs, threads, |dag, np, ws| {
        engines[&np].run(dag, np, ws, &mut SearchTrace::default())
    });
    let wall = wall.elapsed().as_secs_f64();

    // A machine the algorithm cannot price fails the whole batch; any
    // other refused DAG gets a `rejected` row, like one that fails to load.
    let engine = &engines[&procs[0]];
    let name = engine.name();
    let mut scheduled = 0usize;
    for (i, (result, seconds)) in results.iter().enumerate() {
        let schedule = match result {
            Ok(schedule) => schedule,
            Err(e @ SchedulerError::Unsupported(_)) => return Err(engine.failure(e).into()),
            Err(e) => {
                reject(&mut lines, &mut rejected, &displays[i], &engine.failure(e));
                continue;
            }
        };
        scheduled += 1;
        lines.push_str(&format!(
            "{{\"dag\":{},\"nodes\":{},\"edges\":{},\"algo\":\"{}\",\
             \"procs\":{},\"threads\":{},\"makespan\":{},\"seconds\":{:.6}}}\n",
            json_string(&displays[i]),
            dags[i].node_count(),
            dags[i].edge_count(),
            name,
            procs[i],
            threads,
            schedule.makespan(),
            seconds
        ));
    }
    lines.push_str(&format!(
        "{{\"summary\":true,\"dags\":{scheduled},\"rejected\":{rejected},\"algo\":\"{}\",\
         \"threads\":{},\"seconds\":{wall:.6},\"dags_per_sec\":{:.1}}}\n",
        name,
        threads,
        scheduled as f64 / wall.max(1e-9)
    ));
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &lines).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} result line(s) to {path}", paths.len());
        }
        None => write!(out, "{lines}")?,
    }
    Ok(())
}

/// Count a DAG file `batch` does not schedule and give it its own
/// `rejected` row.
fn reject(lines: &mut String, rejected: &mut u64, dag: &str, error: &str) {
    *rejected += 1;
    lines.push_str(&format!(
        "{{\"dag\":{},\"rejected\":true,\"error\":{}}}\n",
        json_string(dag),
        json_string(error)
    ));
    eprintln!("warning: rejected {dag}: {error}");
}

/// The service front-end: see `casch serve` in the usage text and
/// DESIGN.md §14 for the protocol and architecture.
fn cmd_serve(opts: &Flags, _out: Out) -> Result<(), Failure> {
    use fastsched_casch::serve::{install_sigint_handler, ServeConfig, Server, DEFAULT_MAX_PROCS};
    let addr = opts
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:4800");
    let config = ServeConfig {
        threads: get_u64_or(opts, "threads", 0)? as usize,
        queue_depth: get_u64_or(opts, "queue-depth", 1024)?.max(1) as usize,
        default_timeout_ms: get_u64_or(opts, "timeout-ms", 0)?,
        max_line_bytes: get_u64_or(opts, "max-line-bytes", protocol::DEFAULT_MAX_LINE as u64)?
            as usize,
        max_procs: get_u64_or(opts, "max-procs", DEFAULT_MAX_PROCS as u64)?
            .clamp(1, u32::MAX as u64) as u32,
        metrics_addr: opts.get("metrics-addr").cloned(),
        access_log: opts.get("access-log").map(std::path::PathBuf::from),
        log_sample_rate: get_u64_or(opts, "log-sample-rate", 1)?.max(1),
    };
    install_sigint_handler();
    let server = Server::bind(addr, config.clone()).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(maddr) = server.metrics_addr() {
        eprintln!("casch serve metrics on http://{maddr}/metrics (JSON at /metrics.json)");
    }
    eprintln!(
        "casch serve listening on {local} (threads {}, queue depth {}); \
         SIGINT or op:\"shutdown\" drains and exits",
        if config.threads == 0 {
            "= cores".to_string()
        } else {
            config.threads.to_string()
        },
        config.queue_depth
    );
    let summary = server.run().map_err(|e| e.to_string())?;
    eprintln!(
        "casch serve: {} connection(s); {} completed, {} rejected, \
         {} timeout(s), {} malformed line(s)",
        summary.connections,
        summary.completed,
        summary.rejected,
        summary.timeouts,
        summary.malformed
    );
    Ok(())
}

/// Open-loop load generator against a running `casch serve`.
fn cmd_loadgen(opts: &Flags, out: Out) -> Result<(), Failure> {
    use fastsched_casch::loadgen::{self, CorpusItem, LoadgenConfig};
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:4800".to_string());
    let corpus: Vec<CorpusItem> = if let Some(path) = opts.get("dag") {
        vec![CorpusItem {
            name: path.clone(),
            dag: load_dag(opts)?,
        }]
    } else {
        collect_dag_paths(opts)
            .map_err(|e| format!("loadgen: {e}"))?
            .iter()
            .map(|p| {
                Ok(CorpusItem {
                    name: p.display().to_string(),
                    dag: load_dag_file(p)?,
                })
            })
            .collect::<Result<_, String>>()?
    };
    let config = LoadgenConfig {
        addr: addr.clone(),
        corpus,
        algo: opts.get("algo").cloned().unwrap_or_else(|| "fast".into()),
        procs: get_num(opts, "procs")?,
        rate: get_f64_or(opts, "rate", 0.0)?,
        total: get_num(opts, "total")?,
        duration_s: get_f64_or(opts, "duration", 5.0)?,
        warmup_s: get_f64_or(opts, "warmup", 0.0)?,
        conns: get_u64_or(opts, "conns", 1)?.max(1) as usize,
        timeout_ms: get_num(opts, "timeout-ms")?,
        check: opts.contains_key("check"),
        connect_retry_s: get_f64_or(opts, "connect-retry", 5.0)?,
        metrics_addr: opts.get("metrics-addr").cloned(),
    };
    let report = loadgen::run(&config)?;
    writeln!(out, "{}", report.to_json_line())?;
    if let Some(page) = &report.metrics_scrape {
        match opts.get("metrics-out") {
            Some(path) => {
                std::fs::write(path, page).map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote mid-run /metrics scrape to {path}");
            }
            None => eprint!("{page}"),
        }
    }
    if opts.contains_key("stats") {
        writeln!(
            out,
            "{}",
            loadgen::request_once(&addr, &Request::Stats { id: 0 }, 5.0)?
        )?;
    }
    if opts.contains_key("shutdown") {
        writeln!(
            out,
            "{}",
            loadgen::request_once(&addr, &Request::Shutdown { id: 0 }, 5.0)?
        )?;
    }
    if report.mismatches > 0 {
        return Err(format!(
            "--check found {} response(s) diverging from schedule_into",
            report.mismatches
        )
        .into());
    }
    Ok(())
}

fn cmd_trace(opts: &Flags, out: Out) -> Result<(), Failure> {
    let path = opts.get("in").ok_or("missing --in")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let report = fastsched_trace::Report::from_ndjson(&text).map_err(|e| e.to_string())?;
    write!(out, "{}", report.render())?;
    Ok(())
}

fn cmd_explain(opts: &Flags, out: Out) -> Result<(), Failure> {
    let report = if let Some(path) = opts.get("in") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        fastsched_trace::Report::from_ndjson(&text).map_err(|e| e.to_string())?
    } else {
        let dag = load_dag(opts)?;
        opts.get("algo").ok_or("missing --in or --dag/--algo")?;
        let (engine, procs) = resolve_flags(opts, dag.node_count())?;
        let mut trace = SearchTrace::recording();
        engine
            .run(&dag, procs, &mut Workspace::new(), &mut trace)
            .map_err(|e| engine.failure(&e))?;
        trace.to_report()
    };

    let Some(node) = opts.get("node") else {
        let placed = report.placed_nodes();
        writeln!(
            out,
            "trace holds placement provenance for {} node(s)",
            placed.len()
        )?;
        if !placed.is_empty() {
            writeln!(out, "query one with: casch explain ... --node <id>")?;
        }
        return Ok(());
    };
    let node: u64 = node.parse().map_err(|_| "--node must be a number")?;

    let placements = report.placements_of(node);
    let transfers = report.transfers_of(node);
    if placements.is_empty() && transfers.is_empty() {
        return Err(format!(
            "no provenance for node {node} in this trace (wrong id, \
             or the algorithm records no placement provenance)"
        )
        .into());
    }
    for p in &placements {
        writeln!(
            out,
            "node {node} placed on P{} at t={} ({})",
            p.proc, p.start, p.reason
        )?;
        writeln!(out, "  candidates probed:")?;
        for c in &p.candidates {
            writeln!(
                out,
                "    P{:<4} ready={:<8} dat={:<8} start={}{}",
                c.proc,
                c.ready,
                c.dat,
                c.start,
                if c.proc == p.proc { "  <- chosen" } else { "" }
            )?;
        }
    }
    if transfers.is_empty() {
        writeln!(out, "no local-search transfers probed this node")?;
    } else {
        writeln!(out, "local-search transfers:")?;
        for t in &transfers {
            writeln!(
                out,
                "  step {:<6} P{} -> P{}  makespan {}  {}",
                t.step,
                t.from,
                t.to,
                t.makespan,
                if t.accepted { "accepted" } else { "rejected" }
            )?;
        }
    }
    Ok(())
}

fn cmd_diff(opts: &Flags, out: Out) -> Result<(), Failure> {
    let path_a = opts.get("a").ok_or("missing --a")?;
    let path_b = opts.get("b").ok_or("missing --b")?;
    let text_a = std::fs::read_to_string(path_a).map_err(|e| format!("reading {path_a}: {e}"))?;
    let text_b = std::fs::read_to_string(path_b).map_err(|e| format!("reading {path_b}: {e}"))?;
    // Sniff the payload kind: execution reports carry a measured
    // `execution_time`, schedule files a `tasks` table.
    let is_report = |t: &str| t.contains("\"execution_time\"");
    if is_report(&text_a) != is_report(&text_b) {
        return Err("cannot diff a schedule against an execution report".into());
    }
    if is_report(&text_a) {
        let a = ExecutionReport::from_json(&text_a).map_err(|e| format!("{path_a}: {e}"))?;
        let b = ExecutionReport::from_json(&text_b).map_err(|e| format!("{path_b}: {e}"))?;
        write!(out, "{}", a.diff(&b)?.render())?;
    } else {
        let dag = load_dag(opts).map_err(|e| format!("{e} (schedule diffs need --dag)"))?;
        let a = fastsched_schedule::io::from_json(&text_a, dag.node_count())
            .map_err(|e| format!("{path_a}: {e}"))?;
        let b = fastsched_schedule::io::from_json(&text_b, dag.node_count())
            .map_err(|e| format!("{path_b}: {e}"))?;
        let d = fastsched_schedule::diff_schedules(&a, &b)?;
        write!(out, "{}", d.render(&dag))?;
    }
    Ok(())
}

fn cmd_simulate(opts: &Flags, out: Out) -> Result<(), Failure> {
    use fastsched_sim::topology::Topology;
    let dag = load_dag(opts)?;
    let sched_path = opts.get("schedule").ok_or("missing --schedule")?;
    let text =
        std::fs::read_to_string(sched_path).map_err(|e| format!("reading {sched_path}: {e}"))?;
    let schedule =
        fastsched_schedule::io::from_json(&text, dag.node_count()).map_err(|e| e.to_string())?;
    fastsched_schedule::validate(&dag, &schedule).map_err(|e| e.to_string())?;

    let procs = schedule.processors_used();
    let topology = match opts.get("topology").map(String::as_str) {
        None | Some("mesh") => Some(Topology::mesh_for(procs)),
        Some("full") => Some(Topology::FullyConnected),
        Some("torus") => {
            let w = (procs as f64).sqrt().ceil() as u32;
            Some(Topology::Torus2D {
                width: w,
                height: procs.div_ceil(w),
            })
        }
        Some("hypercube") => {
            let dim = 32 - procs.next_power_of_two().leading_zeros() - 1;
            Some(Topology::Hypercube { dim: dim.max(1) })
        }
        Some(spec) if spec.starts_with("hier") => {
            let group_size = spec
                .strip_prefix("hier:")
                .and_then(|g| g.trim().parse::<u32>().ok())
                .filter(|&g| g > 0)
                .ok_or_else(|| {
                    format!(
                        "--topology hier needs a positive group size, e.g. `hier:4`, got `{spec}`"
                    )
                })?;
            Some(Topology::Hierarchical { group_size })
        }
        Some(other) => return Err(format!("unknown topology `{other}`").into()),
    };
    // Reject the pairing here rather than letting the routing panic
    // mid-simulation on an out-of-topology processor.
    if let Some(t) = topology {
        if procs > t.capacity() {
            return Err(format!(
                "schedule uses {procs} processor(s) but the topology has only {} slot(s)",
                t.capacity()
            )
            .into());
        }
    }
    let config = SimConfig {
        topology,
        hop_latency_us: get_u64_or(opts, "hop", 2)?,
        send_overhead_us: get_u64_or(opts, "send-overhead", 0)?,
        recv_overhead_us: get_u64_or(opts, "recv-overhead", 0)?,
        // The Perfetto exporter renders the event log, so --perfetto
        // implies recording one.
        trace: opts.contains_key("trace") || opts.contains_key("perfetto"),
        ..SimConfig::default()
    };
    let report = fastsched_sim::simulate(&dag, &schedule, &config);
    if let Some(path) = opts.get("trace") {
        let json = fastsched_sim::report::trace_to_json(&report.trace);
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} events to {path}", report.trace.len());
    }
    if let Some(path) = opts.get("perfetto") {
        let json = fastsched_sim::export::chrome_trace(&dag, &report);
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Perfetto timeline to {path} (open at https://ui.perfetto.dev)");
    }
    if let Some(path) = opts.get("out-report") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote execution report to {path}");
    }
    writeln!(out, "predicted makespan: {}", report.predicted_makespan)?;
    writeln!(out, "measured execution: {}", report.execution_time)?;
    writeln!(
        out,
        "slowdown:           {:.3}",
        report.slowdown_vs_prediction()
    )?;
    writeln!(out, "processors used:    {}", report.processors_used)?;
    writeln!(out, "remote messages:    {}", report.messages)?;
    writeln!(out, "contention delay:   {}", report.contention_delay)?;
    writeln!(out, "utilization:        {:.3}", report.utilization())?;
    Ok(())
}

fn cmd_verify(opts: &Flags, out: Out) -> Result<(), Failure> {
    let dag = load_dag(opts)?;
    let sched_path = opts.get("schedule").ok_or("missing --schedule")?;
    let text =
        std::fs::read_to_string(sched_path).map_err(|e| format!("reading {sched_path}: {e}"))?;
    let schedule = fastsched_schedule::io::from_json(&text, dag.node_count())
        .map_err(|e| format!("{sched_path}: {e}"))?;

    let (comm, mem) = model_flags(opts)?;
    let speeds = match opts.get("speeds") {
        Some(spec) => Some(
            spec.split(',')
                .map(|s| {
                    s.trim()
                        .parse::<u32>()
                        .ok()
                        .filter(|&p| p > 0)
                        .ok_or_else(|| {
                            format!("--speeds must be positive percentages, got `{spec}`")
                        })
                })
                .collect::<Result<Vec<u32>, _>>()?,
        ),
        None => None,
    };
    // A table only has to cover the schedule's processors here, where
    // scheduling needs it to match the processor count exactly.
    let n = schedule.num_procs();
    for (flag, covered) in [
        ("--speeds", speeds.as_ref().map(|s| s.len() as u32)),
        (
            "--comm hier",
            comm.as_ref().and_then(CommModel::required_procs),
        ),
        (
            "--mem-caps",
            mem.as_ref().and_then(MemCapsSpec::required_procs),
        ),
    ] {
        if let Some(c) = covered.filter(|&c| c < n) {
            return Err(format!(
                "{flag} covers {c} processor(s) but the schedule file declares {n}"
            )
            .into());
        }
    }
    let machine = machine::build(comm, mem.as_ref(), speeds, n)?;
    match (opts.get("speeds"), opts.get("comm")) {
        (Some(spec), _) => writeln!(out, "model: heterogeneous ({spec} % of nominal)")?,
        (None, Some(spec)) => writeln!(out, "model: comm ({spec})")?,
        (None, None) => writeln!(out, "model: homogeneous")?,
    }
    if let Some(spec) = opts.get("mem-caps") {
        writeln!(out, "mem caps: {spec}")?;
    }
    if let Err(e) = machine.validate(&dag, &schedule) {
        writeln!(out, "INVALID: {e}")?;
        // A failed verification is a verdict, not a usage error: exit
        // nonzero without the usage banner.
        std::process::exit(1);
    }
    writeln!(
        out,
        "OK: {} task(s) on {} processor(s), makespan {}",
        dag.node_count(),
        schedule.processors_used(),
        schedule.makespan()
    )?;

    if let Some(path) = opts.get("report") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let report = ExecutionReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut faults = Vec::new();
        if report.predicted_makespan != schedule.makespan() {
            faults.push(format!(
                "report predicts makespan {} but the schedule says {}",
                report.predicted_makespan,
                schedule.makespan()
            ));
        }
        if report.execution_time < report.predicted_makespan {
            faults.push(format!(
                "measured execution {} beats the abstract prediction {} — \
                 the network can only add time",
                report.execution_time, report.predicted_makespan
            ));
        }
        if report.processors_used != schedule.processors_used() {
            faults.push(format!(
                "report used {} processor(s), schedule uses {}",
                report.processors_used,
                schedule.processors_used()
            ));
        }
        if report.finish_times.len() != dag.node_count() {
            faults.push(format!(
                "report carries {} finish time(s) for {} task(s)",
                report.finish_times.len(),
                dag.node_count()
            ));
        }
        if !faults.is_empty() {
            for f in &faults {
                writeln!(out, "INVALID: {f}")?;
            }
            std::process::exit(1);
        }
        writeln!(out, "OK: report is consistent with the schedule")?;
    }
    Ok(())
}

fn cmd_compare(opts: &Flags, out: Out) -> Result<(), Failure> {
    let db = TimingDatabase::paragon();
    let seed = get_u64_or(opts, "seed", 1)?;
    let schedulers: Vec<Box<dyn Scheduler>> = if opts.contains_key("all") {
        fastsched_algorithms::all_schedulers(seed)
    } else {
        paper_schedulers(seed)
    };
    let (app, default_procs) = if opts.contains_key("dag") {
        let dag = load_dag(opts)?;
        // Wrap a pre-built DAG by scheduling it directly.
        let procs = get_u64_or(opts, "procs", dag.node_count() as u64)? as u32;
        let sim = SimConfig::default();
        writeln!(
            out,
            "workload from --dag (v = {}, e = {})",
            dag.node_count(),
            dag.edge_count()
        )?;
        writeln!(
            out,
            "{:<8} {:>12} {:>10} {:>12} {:>8} {:>14}",
            "algo", "exec(us)", "norm", "makespan", "procs", "sched time"
        )?;
        let mut reference = None;
        for s in &schedulers {
            let r = run_on_dag(&dag, s.as_ref(), procs, &sim).map_err(|e| e.to_string())?;
            let base = *reference.get_or_insert(r.execution.execution_time.max(1));
            writeln!(
                out,
                "{:<8} {:>12} {:>10.2} {:>12} {:>8} {:>14?}",
                r.algorithm,
                r.execution.execution_time,
                r.execution.execution_time as f64 / base as f64,
                r.metrics.makespan,
                r.metrics.processors_used,
                r.scheduling_time
            )?;
        }
        return Ok(());
    } else {
        let app = load_app(opts)?;
        let v = app.generate(&db).node_count();
        (app, v as u64)
    };
    let procs = get_u64_or(opts, "procs", default_procs)? as u32;
    let table = compare_algorithms(app, &db, &schedulers, procs, &SimConfig::default())
        .map_err(|e| e.to_string())?;
    write!(out, "{}", table.render())?;
    Ok(())
}
